"""Runtime state: stations, streams, the result store, whole configurations.

Structural conventions
 - every container is an immutable dataclass; steps build new configurations
 - generated keys live in the "@k<i>" namespace, labels are plain ints
 - a unit is an ordered sequence of label/operation pairs; the head of a
   stream is index 0
 - station-local facts (`Station.loaded`, `Station.idle`) are memoized on the
   immutable `Station`, which a step that does not touch it carries over
   unchanged, and are all a station keeps; configuration-wide facts
   (`is_dry`, `is_terminal`) are not cached, but `engine.run` keeps its own
   index across steps (see `engine`)
 - what the redex search finds in a non-value term is kept on the term with
   `keep`, as the term alone decides it: the rule, the label a Claim waits
   on and the hole path, or the Stuck reason.  The redex node is not kept:
   it can be the term itself, a cycle only the collector frees
 - `engine.run`'s window table for a station's rewrite candidates is keyed
   by the identities of a window's two units and lives in the run, not on
   `Unit`, so a replaced neighbour is freed once its station is rebuilt
 - the top-level `to_sexpr` text of a term is kept on the immutable term,
   so `config_digest` prints only the terms a step built
 - kept values live in the instance `__dict__`, which `__eq__` and
   `__hash__` do not read, and `dataclasses.replace` builds a new object
   that keeps nothing
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property

from .parser import Program
from .terms import (
    OPERATIONS, App, Arith, Claim, Concat, Emit, Expr, Fix, FoldOp, If0, Int,
    KL, Key, Label, Lam, Len, MapOp, Node, Operation, Proj, Subtract, Var,
    children, is_value, kl_value, op_args,
)


@dataclass(frozen=True)
class StoreEntry:
    value: Expr
    residual: tuple[str, ...]  # target keys not yet consumed when completed


@dataclass(frozen=True)
class Unit:
    entries: tuple[tuple[int, Operation], ...]

    def __bool__(self) -> bool:
        return bool(self.entries)

    def labels(self) -> tuple[int, ...]:
        return tuple(l for l, _ in self.entries)


def singleton(label: int, op: Operation) -> Unit:
    return Unit(((label, op),))


@dataclass(frozen=True)
class Station:
    node: Expr  # a node constructor, fully evaluated once loaded
    streamlet: tuple[Unit, ...] = ()

    # Lazy, so `init` and short runs pay only for the stations they test.
    # `cached_property` writes the instance `__dict__`, so no `slots=True`.
    @cached_property
    def loaded(self) -> bool:
        """The node is a value."""
        return is_value(self.node)

    @cached_property
    def idle(self) -> bool:
        """Loaded, with nothing left in the streamlet."""
        return self.loaded and not self.streamlet


@dataclass(frozen=True)
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


def keep(obj, name: str, make, *args):
    """`make(*args)`, kept in the immutable `obj`'s instance `__dict__` under
    `name` and returned again on later calls."""
    memo = obj.__dict__
    hit = memo.get(name)
    if hit is None:
        hit = memo[name] = make(*args)
    return hit


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
    (add operations, and operations whose key list is still loading)."""
    match op:
        case MapOp(_, KL(items)) | FoldOp(_, _, KL(items)):
            if all(isinstance(i, Key) for i in items):
                return tuple(i.name for i in items)
            return None
        case _:
            return None


def finalize(label: int, op: Operation) -> tuple[int, StoreEntry]:
    """Store form of a finished operation: maps resolve to 0, folds to
    their base value; the unconsumed target keys ride along."""
    match op:
        case MapOp(_, ks):
            residual = target(op)
            assert residual is not None
            return label, StoreEntry(Int(0), residual)
        case FoldOp(_, base, ks):
            assert is_value(base), "fold base must be loaded before finalizing"
            residual = target(op)
            assert residual is not None
            return label, StoreEntry(base, residual)
    raise ValueError(f"cannot finalize {op!r}")


def append_top(config: Configuration, unit: Unit) -> Configuration:
    return replace(config, top=config.top + (unit,))


def append_station_tail(config: Configuration, unit: Unit) -> Configuration:
    """Append a unit to the first station's streamlet; undefined on an
    empty backend."""
    if not config.backend:
        raise ValueError("cannot route a unit into an empty backend")
    first = config.backend[0]
    first = replace(first, streamlet=first.streamlet + (unit,))
    return replace(config, backend=(first,) + config.backend[1:])


def merge_results(config: Configuration,
                  results: dict[int, StoreEntry]) -> Configuration:
    if not results:
        return config
    existing = dict(config.store)
    for label in results:
        assert label not in existing, f"store label {label} already bound"
    existing.update(results)
    return replace(config, store=tuple(sorted(existing.items())))


def is_dry(config: Configuration) -> bool:
    """Every station has a node value and nothing left in its streamlet."""
    return all(s.idle for s in config.backend)


def station_is_load_free(station: Station) -> bool:
    if not station.loaded:
        return False
    return all(not (isinstance(op, FoldOp) and not is_value(op.base))
               for unit in station.streamlet for _, op in unit.entries)


def is_terminal(config: Configuration) -> bool:
    return is_dry(config) and not config.top and is_value(config.frontend)


### canonical serialization

# the forms printed as their tag followed by their children
_TAGS = {App: "app", Fix: "fix", KL: "kl", Node: "node", Concat: "cat",
         Subtract: "sub", If0: "if0", Len: "len", Claim: "claim"}


def to_sexpr(e: Expr, depth: dict[str, int] | None = None, level: int = 0) -> str:
    """Deterministic s-expression; bound variables become de Bruijn indices
    so alpha-equivalent terms print identically.

    A form prints as `(tag child ...)`, where the tag of a projection is
    `proj1`..`proj3` and of arithmetic `arith` and its operator, except a
    variable, a literal, a lambda and an emission, `(emit (keyword arg ...))`.

    A top-level rendering depends on the term alone, so it is kept in the
    immutable term's instance `__dict__` (which `__eq__`/`__hash__` do not
    read) and a term carried over by a step is printed once.  A recursive
    call (`depth` given) is not kept: under binders a subterm's text depends
    on its context."""
    if depth is None:
        memo = e.__dict__
        text = memo.get("_sexpr")
        if text is None:
            text = memo["_sexpr"] = to_sexpr(e, {}, level)
        return text
    tag = _TAGS.get(type(e))
    if tag is None:
        match e:
            case Var(name):
                idx = depth.get(name)
                return f"(bound {level - idx})" if idx is not None else f"(free {name})"
            case Int(v):
                return f"(int {v})"
            case Key(name):
                return f"(key {name})"
            case Label(i):
                return f"(label {i})"
            case Lam(param, ptype, body, comm):
                inner = to_sexpr(body, {**depth, param: level + 1}, level + 1)
                t = str(ptype) if ptype is not None else "_"
                tag = "lam!" if comm else "lam"
                return f"({tag} {t} {inner})"
            case Proj(i):
                tag = f"proj{i}"
            case Arith(op):
                tag = f"arith {op}"
            case Emit(op):
                return f"(emit {op_sexpr(op, depth, level)})"
            case _:
                raise TypeError(e)
    return f"({tag}{''.join([' ' + to_sexpr(c, depth, level) for c in children(e)])})"


def op_sexpr(op: Operation, depth=None, level: int = 0) -> str:
    args = " ".join([to_sexpr(a, depth, level) for a in op_args(op)])
    return f"({OPERATIONS[type(op)].keyword} {args})"


def _rename_key(name: str, keymap: dict[str, str]) -> str:
    if name.startswith("@k"):
        if name not in keymap:
            keymap[name] = f"@K{len(keymap)}"
        return keymap[name]
    return name


def _canon_expr(e: Expr, keymap: dict[str, str], labelmap: dict[int, int]) -> Expr:
    from .terms import transform

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


def _unit_json(unit: Unit) -> list:
    return [[label, op_sexpr(op)] for label, op in unit.entries]


def config_digest(config: Configuration) -> str:
    """Digest of the entire configuration, streams included, without any
    renaming; used to fingerprint intermediate states in traces."""
    shape = {
        "backend": [[to_sexpr(s.node), [_unit_json(u) for u in s.streamlet]]
                    for s in config.backend],
        "top": [_unit_json(u) for u in config.top],
        "store": {str(l): [to_sexpr(e.value), list(e.residual)]
                  for l, e in config.store},
        "frontend": to_sexpr(config.frontend),
    }
    blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
