"""Runtime state: stations, streams, the result store, whole configurations.

Structural conventions
 - every container is an immutable record made by `terms.record`: a frozen
   dataclass whose fields live in slots, stored through each slot's setter,
   and whose six methods one `exec` compiles when the class is made; a Load
   step does little but build such records, and every process that imports
   the package builds every record class.  A step that changes only the
   backend builds its configuration with `with_backend`, one positional
   call that carries every other field over as the same object; `evolve`
   is for steps that change several fields
 - generated keys live in the "@k<i>" namespace, labels are plain ints
 - a unit is an ordered sequence of label/operation pairs; the head of a
   stream is index 0
 - a fact decided by one immutable object alone is kept on it with `keep`,
   None as well, and read again wherever a step carries the object over:
   an operation's target (`_target`); what the redex search finds in a
   non-value term (`_step`: the rule, the label a Claim waits on and the
   hole path, or the Stuck reason, but not the redex node, which can be
   the term itself, a cycle only the collector frees); the type and effect
   `types.type_of_config` found for each compound term and subterm it
   types (`_ty`), with the labels the term reads and its free names, each
   with its type, read again only where they have the same types; a back
   station's typing (`_ty`), with the labels it reads from older zones and
   their types and the future each of its own labels is bound at.  `types`
   also holds the last store it typed, with each label's type.  Not kept:
   a station's `loaded` (nearly every station built is tested) and
   configuration-wide facts (`is_dry`, `is_terminal`), though `engine.run`
   and the harness walks keep an index across steps
 - `engine.run` keeps a station's rewrite windows in one list by position,
   each with the two units it read; a rebuild reuses a window whose two
   units are the same objects, which the old list holds, so no other unit
   takes those identities (an Add starts afresh).  The prover verdicts of
   the pair rules are kept for the process in `tlo._verdict`, keyed by the
   canonical text of the functions they read, so they hold no term
 - a compound term's free names are kept on it (`terms.free_vars`, as
   `_fv`) and only tested for membership; a term is closed when that set
   is empty, and the `to_sexpr` text (the printer lives in `terms`) of
   every closed compound term is kept on it, and the JSON text
   `config_digest` writes for a station (node text and streamlet), a unit
   (its `[label, operation]` pairs) and a store entry (`[value, residual]`)
   is kept on that object as `_json`; a traced run's `DigestParts` holds
   the text of each station, the top, the store and the frontend it last
   digested, so a traced step encodes only the parts it made anew; nothing
   kept is built by iterating a set or dict in hash order
 - kept values live in the instance `__dict__`, made on first use, which
   `__eq__` and `__hash__` do not read; a new object starts with nothing
   kept, whether built directly, with `evolve` or with `dataclasses.replace`
"""

from __future__ import annotations

import hashlib
import json
from itertools import compress, count
from json.encoder import encode_basestring_ascii as _encode  # json.dumps(str)
from operator import is_not

from .parser import Program
from .terms import (
    Expr, FoldOp, Int, KL, Key, Label, MapOp, Node, Operation, _op_sexpr,
    is_value, kl_value, record, to_sexpr, transform,
)


@record
class StoreEntry:
    value: Expr
    residual: tuple[str, ...]  # target keys not yet consumed when completed


@record
class Unit:
    entries: tuple[tuple[int, Operation], ...]

    def __bool__(self) -> bool:
        return bool(self.entries)

    def labels(self) -> tuple[int, ...]:
        return tuple(l for l, _ in self.entries)


def singleton(label: int, op: Operation) -> Unit:
    return Unit(((label, op),))


@record
class Station:
    node: Expr  # a node constructor, fully evaluated once loaded
    streamlet: tuple[Unit, ...] = ()

    @property
    def loaded(self) -> bool:
        """The node is a value."""
        return is_value(self.node)

    @property
    def idle(self) -> bool:
        """Loaded, with nothing left in the streamlet."""
        return self.loaded and not self.streamlet


@record
class Configuration:
    backend: tuple[Station, ...]
    top: tuple[Unit, ...]
    store: tuple[tuple[int, StoreEntry], ...]  # sorted by label
    frontend: Expr
    next_label: int = 0
    next_key: int = 0

    def store_get(self, label: int) -> StoreEntry | None:
        for l, entry in self.store:
            if l == label:
                return entry
        return None


_MISSING = object()


def keep(obj, name: str, make, *args):
    """`make(*args)`, kept in the immutable `obj`'s instance `__dict__` under
    `name` and returned again on later calls."""
    memo = obj.__dict__
    hit = memo.get(name, _MISSING)
    if hit is _MISSING:
        hit = memo[name] = make(*args)
    return hit


def with_backend(c: Configuration, backend: tuple[Station, ...]) -> Configuration:
    """`c` with `backend`, every other field carried over as it is."""
    return Configuration(backend, c.top, c.store, c.frontend, c.next_label,
                         c.next_key)


def evolve(c: Configuration, **changes) -> Configuration:
    """`c` with the fields in `changes` replaced, built directly: cheaper
    than `dataclasses.replace`, and like it keeping nothing of `c`'s."""
    get = changes.get
    return Configuration(get("backend", c.backend), get("top", c.top),
                         get("store", c.store), get("frontend", c.frontend),
                         get("next_label", c.next_label),
                         get("next_key", c.next_key))


def fresh_key_name(index: int) -> str:
    return f"@k{index}"


def init(program: Program) -> Configuration:
    """Initial configuration for a parsed program.

    Precondition: the program's expression typechecks; `init` does not
    re-establish that.
    """
    stations = tuple(
        Station(Node(Key(d.key), Int(d.payload), kl_value(d.adj)))
        for d in program.graph
    )
    return Configuration(stations, (), (), program.expr)


def target(op: Operation) -> tuple[str, ...] | None:
    """Keys an operation still wants, or None where that is undefined
    (add operations, and operations whose key list is still loading);
    kept on the operation."""
    return keep(op, "_target", _target, op)


def _target(op: Operation) -> tuple[str, ...] | None:
    match op:
        case MapOp(_, KL(items)) | FoldOp(_, _, KL(items)):
            if all(isinstance(i, Key) for i in items):
                return tuple(i.name for i in items)
    return None


def finalize(label: int, op: Operation) -> tuple[int, StoreEntry]:
    """Store form of a finished operation: maps resolve to 0, folds to
    their base value; the unconsumed target keys ride along."""
    residual = target(op)
    if residual is None:
        raise ValueError(f"cannot finalize {op!r}")
    if isinstance(op, MapOp):
        return label, StoreEntry(Int(0), residual)
    assert is_value(op.base), "fold base must be loaded before finalizing"
    return label, StoreEntry(op.base, residual)


def append_station_tail(config: Configuration, unit: Unit) -> Configuration:
    """Append a unit to the first station's streamlet; undefined on an
    empty backend."""
    if not config.backend:
        raise ValueError("cannot route a unit into an empty backend")
    first = config.backend[0]
    first = Station(first.node, first.streamlet + (unit,))
    return with_backend(config, (first,) + config.backend[1:])


def merge_results(config: Configuration,
                  results: dict[int, StoreEntry]) -> Configuration:
    if not results:
        return config
    existing = dict(config.store)
    for label in results:
        assert label not in existing, f"store label {label} already bound"
    existing.update(results)
    return evolve(config, store=tuple(sorted(existing.items())))


def is_dry(config: Configuration) -> bool:
    """Every station has a node value and nothing left in its streamlet."""
    return all(s.idle for s in config.backend)


def is_terminal(config: Configuration) -> bool:
    return is_dry(config) and not config.top and is_value(config.frontend)


### canonical serialization (terms print by `terms.to_sexpr`)

def _rename_key(name: str, keymap: dict[str, str]) -> str:
    if name.startswith("@k"):
        if name not in keymap:
            keymap[name] = f"@K{len(keymap)}"
        return keymap[name]
    return name


def _canon_expr(e: Expr, keymap: dict[str, str], labelmap: dict[int, int]) -> Expr:
    def fix(x: Expr) -> Expr:
        if isinstance(x, Key):
            return Key(_rename_key(x.name, keymap))
        if isinstance(x, Label):
            if x.index not in labelmap:
                labelmap[x.index] = len(labelmap)
            return Label(labelmap[x.index])
        return x

    return transform(e, fix)


def canonical_terminal(config: Configuration) -> dict:
    """JSON shape of a terminal configuration with generated names renumbered
    in first-appearance order; schedule-equivalent runs produce equal shapes."""
    keymap: dict[str, str] = {}
    labelmap: dict[int, int] = {}
    stations = []
    for s in config.backend:
        n = _canon_expr(s.node, keymap, labelmap)
        stations.append(to_sexpr(n))
    store_vals: dict[str, str] = {}
    residuals: dict[str, list[str]] = {}
    for label, entry in config.store:
        if label not in labelmap:
            labelmap[label] = len(labelmap)
        canon = labelmap[label]
        store_vals[str(canon)] = to_sexpr(_canon_expr(entry.value, keymap, labelmap))
        if entry.residual:
            residuals[str(canon)] = [_rename_key(k, keymap)
                                     for k in entry.residual]
    frontend = to_sexpr(_canon_expr(config.frontend, keymap, labelmap))
    return {
        "stations": stations,
        "store": store_vals,
        "residuals": residuals,
        "frontend": frontend,
    }


def terminal_digest(config: Configuration, strict_residuals: bool = False) -> str:
    shape = canonical_terminal(config)
    if not strict_residuals or not shape["residuals"]:
        shape = {k: v for k, v in shape.items() if k != "residuals"}
    blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _unit_json(unit: Unit) -> str:
    ops = ",".join([f"[{label},{_encode(_op_sexpr(op, {}, 0))}]"
                    for label, op in unit.entries])
    return f"[{ops}]"


def _station_json(station: Station) -> str:
    units = ",".join([keep(u, "_json", _unit_json, u)
                      for u in station.streamlet])
    return f"[{_encode(to_sexpr(station.node))},[{units}]]"


def _entry_json(entry: StoreEntry) -> str:
    residual = ",".join(map(_encode, entry.residual))
    return f"[{_encode(to_sexpr(entry.value))},[{residual}]]"


class DigestParts:
    """The parts of the configuration `config_digest` last encoded with
    it, each with its text: the backend and the text of each station, the
    top, the store and the frontend.  A traced run passes one to every
    step's digest, so a part is encoded again only when the step made a new
    object of it."""

    # an empty tuple's text is empty, so these fit any first configuration
    backend = top = store = stations = ()
    backend_text = top_text = store_text = frontend_text = ""
    frontend = None


def config_digest(config: Configuration, parts: DigestParts | None = None) -> str:
    """Digest of the entire configuration, streams included, without any
    renaming; used to fingerprint intermediate states in traces.

    The digest is the sha256 of `json.dumps(shape, sort_keys=True,
    separators=(",", ":"))` over the shape {"backend": [[node, streamlet],
    ...], "top": [unit, ...], "store": {label: [value, residual]},
    "frontend": text}, each unit a list of [label, operation] and each
    term its `to_sexpr` text.  That blob is assembled here from the JSON
    text of each station, unit and store entry, kept on the immutable
    object, and of each part `parts` holds from the last configuration
    digested with it; without `parts`, every part is new."""
    p = parts or DigestParts()
    backend = config.backend
    if backend is not p.backend:
        if len(backend) == len(p.backend):
            new = compress(count(), map(is_not, backend, p.backend))
        else:  # the first digest, or an Add, which shifts every index
            new, p.stations = range(len(backend)), [""] * len(backend)
        for i in new:
            p.stations[i] = keep(backend[i], "_json", _station_json, backend[i])
        p.backend, p.backend_text = backend, ",".join(p.stations)
    if config.top is not p.top:
        p.top, p.top_text = config.top, ",".join(
            [keep(u, "_json", _unit_json, u) for u in config.top])
    if config.store is not p.store:  # sort_keys orders it by label text
        p.store, p.store_text = config.store, ",".join(
            [f'"{label}":{keep(e, "_json", _entry_json, e)}'
             for label, e in sorted(config.store, key=lambda le: str(le[0]))])
    if config.frontend is not p.frontend:
        p.frontend = config.frontend
        p.frontend_text = _encode(to_sexpr(config.frontend))
    blob = (f'{{"backend":[{p.backend_text}],"frontend":{p.frontend_text},'
            f'"store":{{{p.store_text}}},"top":[{p.top_text}]}}')
    return hashlib.sha256(blob.encode()).hexdigest()
