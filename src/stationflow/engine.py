"""Small-step reduction over whole configurations.

The frontend and the in-graph load sites share one expression stepper; the
load flavor simply refuses to emit, which is the operational face of the
phase split.  Station rules, stream routing, and the optimizer hook each
produce explicit redex descriptions so schedulers can pick among them.
Each station rule is written once: `_tasks` decides Map, Fold, Complete,
Last and Prop in one pass, and `apply_redex` steps every rule through one
`_STEPS` table by rule (a redex derives its `site` for traces only).  A Map
leaves one term `a = f n` under both projections, and node Loads step it once.

A step changes at most two stations and carries the rest over.  One driver,
`steps`, keeps an index of what its choice draws from: per station its plain
entries, the task rules and load sites that step now, and the window entries
of the rewrite rules the choice draws from (batch, unbatch and the rows of
`tlo.PAIR_RULES`), window by window with the two units each read (`tlo`
keeps the prover verdicts), with counts; the stations that are not idle,
which decide terminality; and the stations with a load site waiting on each
label.  An entry is built into a `Redex` or a `tlo.Candidate` only when it
is drawn.  A rewrite is named by its window's position, so tlo-random's undo
guard leaves out one block of entries, in the window last batched or
unbatched.  A Load step updates its station in place: it replaces or drops
the entry of the one site it stepped, notes the station under the label the
new term waits on, and in a window of two folds tests again only reuse's
condition, the one that reads a base; where the task rules may change (a
node or the head fold's base reaches a value) it rebuilds the station.  Every
other step has the index rebuild the stations it touched and, after a store
write, those waiting on a written label, and the frontend and routing
redexes only when the fields they read change.  The redex search records its
hole as a path of child positions, along which the Load and frontend rules
plug the contractum.  What the redex search finds in a term is kept on the
term (see `state`), except by `eager_enumerate` for the wet station, which
every eager step replaces.  `run` consumes `steps` under a scheduler, the
harness walks under `uniform`, each through its own binding of
`apply_redex`, which a probe of its steps wraps.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import is_not

from . import tlo
from .state import (
    Configuration, DigestParts, Station, StoreEntry, _encode,
    append_station_tail, config_digest, evolve, finalize, fresh_key_name,
    is_value, keep, merge_results, singleton, target, with_backend,
)
from .terms import (
    ATOMS, CONTRACTIONS, AddOp, App, Claim, Emit, Expr, FoldOp, Int, KL, Key,
    Label, MapOp, Node, Proj, Var, children, kl_subtract, record,
    with_children,
)
# unused here, but perfbench/layers.py wraps these bindings: it counts
# substitutions and times terminal tests at them
from .state import is_terminal  # noqa: F401
from .terms import substitute  # noqa: F401


### one-step search inside an expression

@record
class Blocked:
    label: int


@record
class Stuck:
    reason: str


# why a fully evaluated constructor is no value
_MALFORMED = {KL: "malformed key list", Node: "malformed node"}


def _find(e: Expr):
    """The unique evaluation-context redex of a non-value as its rule, the
    label a Claim waits on (None for every other rule) and its hole, the
    child positions from `e` down; or the Stuck when no rule applies.
    Callers rule out values first, and the search enters only non-values."""
    path = ()
    while True:
        if type(e) is Var:
            return Stuck(f"free name {e.name!r}")
        cs = children(e)
        rule = CONTRACTIONS.get(type(e))
        for j, c in enumerate(cs[:rule.strict] if rule else cs):
            if type(c) not in ATOMS and not is_value(c):
                break
        else:
            break  # every child searched is a value: the redex is `e`
        path += (j,)
        e = c
    if rule is not None:
        if rule.applies(e):
            return rule.rule, None, path
        return Stuck(rule.stuck)
    if isinstance(e, Emit):
        return "Emit", None, path
    if isinstance(e, Claim):
        if isinstance(e.arg, Label):
            return "Claim", e.arg.index, path
        return Stuck("claim of a non-future")
    return Stuck(_MALFORMED.get(type(e), f"no step for {type(e).__name__}"))


def _descend(e: Expr, path: tuple[int, ...]):
    """The subterm of `e` at `path`, and the spine above it for `_plug`."""
    spine = []
    for j in path:
        cs = children(e)
        spine.append((e, cs, j))
        e = cs[j]
    return spine, e


def _plug(spine, x: Expr) -> Expr:
    """The term `_descend` walked, with `x` in the hole it left."""
    for e, cs, j in reversed(spine):
        x = with_children(e, cs[:j] + (x,) + cs[j + 1:])
    return x


def _kept_step(e: Expr):
    """`_find(e)`, kept on the immutable term (see `state`)."""
    return keep(e, "_step", _find, e)


def _ready(config: Configuration, label: int | None) -> bool:
    return label is None or config.store_get(label) is not None


def _contract(e: Expr, store_get) -> Expr | Blocked:
    """Contract a redex of any rule but Emit; Claim looks its label up with
    the configuration's `store_get` or blocks."""
    if isinstance(e, Claim):
        entry = store_get(e.arg.index)
        return Blocked(e.arg.index) if entry is None else entry.value
    return CONTRACTIONS[type(e)].contract(e)


### redex descriptions over configurations

@record
class Redex:
    rule: str
    station: int | None = None
    unit: int | None = None
    rewrite: object = None  # tlo.Candidate for Opt redexes
    path: tuple[int, ...] = ()  # frontend and Load: the hole in the term

    @property
    def site(self) -> str:
        """Where the redex is, for traces: "frontend", "top" for routing,
        "station:i" for a task rule, "station:i/node" or "station:i/unit:j"
        for a Load and "station:i:<rule>" for a rewrite."""
        i = self.station
        if i is None:
            return "top" if self.rule in ("Add", "Empty", "First") else "frontend"
        if self.rule == "Opt":
            return f"station:{i}:{self.rewrite.rule}"
        if self.rule == "Load":
            return f"station:{i}/" + (
                "node" if self.unit is None else f"unit:{self.unit}")
        return f"station:{i}"


def _opt(cand) -> Redex:
    return Redex("Opt", cand.station, None, cand)


def frontend_redex(config: Configuration) -> Redex | Blocked | Stuck | None:
    if is_value(config.frontend):
        return None
    step = _kept_step(config.frontend)
    if isinstance(step, Stuck):
        return step
    rule, label, path = step
    if not _ready(config, label):
        return Blocked(label)
    return Redex(rule, None, None, None, path)


def tograph_redex(config: Configuration) -> Redex | None:
    if not config.top:
        return None
    head = config.top[0]
    if len(head.entries) != 1:
        return None  # routing is defined one emitted operation at a time
    _, op = head.entries[0]
    if isinstance(op, AddOp):
        return Redex("Add")
    if not config.backend:
        return Redex("Empty")
    return Redex("First")


def _tasks(station: Station, last: bool) -> list[str]:
    """Map, Fold, Complete, Last and Prop at a station, in that order;
    `last` says it is the last station of the backend.  A head unit of one
    operation whose target holds the node's key visits a loaded node (Map or
    Fold); one whose target is empty, or misses the key at the last
    station, settles once it is a map or a fold with a value base (Complete,
    Last).  Prop forwards a head no operation of which targets the key."""
    if not station.streamlet:
        return []
    node, entries = station.node, station.streamlet[0].entries
    key = (node.key.name if isinstance(node, Node) and isinstance(node.key, Key)
           else None)
    targets = [target(op) for _, op in entries]
    rules = []
    if len(entries) == 1 and targets[0] is not None:
        (_, op), tgt = entries[0], targets[0]
        if key in tgt:
            if station.loaded:
                rules.append("Map" if isinstance(op, MapOp) else "Fold")
        elif (not tgt or last) and (isinstance(op, MapOp) or is_value(op.base)):
            if not tgt:
                rules.append("Complete")
            if last and key is not None:
                rules.append("Last")
    if not last and key is not None \
            and all(t is not None and key not in t for t in targets):
        rules.append("Prop")
    return rules


def _plain_redex(i: int, entry) -> Redex:
    """The redex of a plain entry of station `i`: a task rule's name, or a
    load site's unit (None: the node) and hole path."""
    if type(entry) is str:
        return Redex(entry, i)
    return Redex("Load", i, entry[0], None, entry[1])


def station_task_redexes(station: Station, i: int, last: bool) -> list[Redex]:
    """The `_tasks` of station `i` as redexes."""
    return [Redex(rule, i) for rule in _tasks(station, last)]


def _load_site(unit: int | None, e: Expr, step_of):
    """The plain entry of the load site at `unit` (None: the node), whose
    term is the non-value `e`, with the label its Claim waits on (None: it
    steps now); None when it cannot step, now or once that label is filled:
    it is stuck, or would emit."""
    step = step_of(e)
    if isinstance(step, Stuck) or step[0] == "Emit":
        return None
    return (unit, step[2]), step[1]


def _load_sites(station: Station, step_of) -> list[tuple]:
    """The `_load_site`s of a station that may step: the node's, then each
    fold unit's base, in streamlet order."""
    sites = [] if station.loaded else [(None, station.node)]
    for j, unit in enumerate(station.streamlet):
        if len(unit.entries) == 1:
            _, op = unit.entries[0]
            if isinstance(op, FoldOp) and not is_value(op.base):
                sites.append((j, op.base))
    return [site for site in (_load_site(j, e, step_of) for j, e in sites)
            if site is not None]


def _station_plain(config: Configuration, i: int, last: bool,
                   waiting: dict | None = None) -> list:
    """The plain entries of station `i` (see `_plain_redex`): its task
    rules, then its load sites that step now; `waiting`, if given, notes
    `i` under each label a site waits on."""
    station = config.backend[i]
    out = _tasks(station, last)
    for entry, label in _load_sites(station, _kept_step):
        if _ready(config, label):
            out.append(entry)
        elif waiting is not None:
            waiting.setdefault(label, set()).add(i)
    return out


def enumerate_redexes(config: Configuration, tlo_on: bool = False,
                      tlo_rules: tuple[str, ...] | None = None,
                      assume_set_adjacency: bool = False) -> list[Redex]:
    """All rule instances applicable right now, in a stable order."""
    out = [r for r in (frontend_redex(config), tograph_redex(config))
           if isinstance(r, Redex)]
    last = len(config.backend) - 1
    for i in range(len(config.backend)):
        out.extend(_plain_redex(i, entry)
                   for entry in _station_plain(config, i, i == last))
    if tlo_on:
        out.extend(map(_opt, tlo.candidates(
            config, rules=tlo_rules, assume_set_adjacency=assume_set_adjacency)))
    return out


### rule application
#
# A step takes the configuration and its redex and returns the next
# configuration and the labels of the operations it touched.

Stepped = tuple[Configuration, list[int]]


def _frontend(config: Configuration, r: Redex) -> Stepped:
    spine, e = _descend(config.frontend, r.path)
    if isinstance(e, Emit):
        label = config.next_label
        return evolve(config, frontend=_plug(spine, Label(label)),
                      top=config.top + (singleton(label, e.op),),
                      next_label=label + 1), [label]
    result = _contract(e, config.store_get)
    assert not isinstance(result, Blocked), "frontend claim applied while blocked"
    labels = [e.arg.index] if isinstance(e, Claim) else []
    return evolve(config, frontend=_plug(spine, result)), labels


def _route(config: Configuration, r: Redex) -> Stepped:
    """Add, Empty or First: the head of the routing queue leaves it."""
    head = config.top[0]
    (label, op), = head.entries
    config = evolve(config, top=config.top[1:])
    if isinstance(op, AddOp):
        assert isinstance(op.arg, Int)
        kname = fresh_key_name(config.next_key)
        new_station = Station(Node(Key(kname), op.arg, KL(())))
        config = evolve(config, backend=(new_station,) + config.backend,
                        next_key=config.next_key + 1)
        return merge_results(config, {label: StoreEntry(Key(kname), ())}), [label]
    if not config.backend:
        return merge_results(config, dict([finalize(label, op)])), [label]
    return append_station_tail(config, head), [label]


def _set_station(config: Configuration, i: int, station: Station) -> Configuration:
    return with_backend(
        config, config.backend[:i] + (station,) + config.backend[i + 1:])


def _visit(config: Configuration, r: Redex) -> Stepped:
    """Map or Fold: the head operation visits the node, and the node's key
    leaves its target.  A map leaves the node `Node(k, proj2 a, proj3 a)`,
    `a = f n` (see `_load`); a fold rewrites its base."""
    station = config.backend[r.station]
    (label, op), = station.streamlet[0].entries
    node = station.node
    ks = KL(kl_subtract(op.ks.items, (node.key,)))
    if isinstance(op, MapOp):
        applied = App(op.fn, node)
        node = Node(node.key, Proj(2, applied), Proj(3, applied))
        op = MapOp(op.fn, ks)
    else:
        op = FoldOp(op.fn, App(App(op.fn, node), op.base), ks)
    station = Station(node, (singleton(label, op),) + station.streamlet[1:])
    return _set_station(config, r.station, station), [label]


def _finish(config: Configuration, r: Redex) -> Stepped:
    """Complete or Last: the head operation settles into the store."""
    station = config.backend[r.station]
    (label, op), = station.streamlet[0].entries
    station = Station(station.node, station.streamlet[1:])
    config = _set_station(config, r.station, station)
    return merge_results(config, dict([finalize(label, op)])), [label]


def _prop(config: Configuration, r: Redex) -> Stepped:
    """The head unit moves to the tail of the next station's streamlet."""
    i = r.station
    station, nxt = config.backend[i:i + 2]
    unit = station.streamlet[0]
    pair = (Station(station.node, station.streamlet[1:]),
            Station(nxt.node, nxt.streamlet + (unit,)))
    backend = config.backend[:i] + pair + config.backend[i + 2:]
    return with_backend(config, backend), list(unit.labels())


def _load_term(config: Configuration, e: Expr, path: tuple[int, ...]) -> Expr:
    spine, redex = _descend(e, path)
    if isinstance(redex, Emit):
        raise RuntimeError("operation emission attempted during a load")
    result = _contract(redex, config.store_get)
    if isinstance(result, Blocked):
        raise RuntimeError(f"load blocked on label {result.label}")
    return _plug(spine, result)


def _load(config: Configuration, r: Redex) -> Stepped:
    """One step of a load site's term.  Where a node's two projections hold
    equal terms `a`, not yet a value, `a` steps once for both."""
    i, unit, station = r.station, r.unit, config.backend[r.station]
    if unit is None:
        node = station.node
        pay, adj = (node.payload, node.adj) if type(node) is Node else (None, None)
        if r.path[:2] == (1, 0) and type(pay) is type(adj) is Proj \
                and (pay.arg is adj.arg or pay.arg == adj.arg):
            a = _load_term(config, pay.arg, r.path[2:])
            node = Node(node.key, Proj(pay.index, a), Proj(adj.index, a))
        else:
            node = _load_term(config, node, r.path)
        return _set_station(config, i, Station(node, station.streamlet)), []
    (label, op), = station.streamlet[unit].entries
    assert isinstance(op, FoldOp)
    result = _load_term(config, op.base, r.path)
    new_unit = singleton(label, FoldOp(op.fn, result, op.ks))
    streamlet = station.streamlet[:unit] + (new_unit,) + station.streamlet[unit + 1:]
    station = Station(station.node, streamlet)
    return _set_station(config, i, station), [label]


# the step of each rule
_STEPS = {**{c.rule: _frontend for c in CONTRACTIONS.values()},
          "Emit": _frontend, "Claim": _frontend, "Add": _route,
          "Empty": _route, "First": _route, "Map": _visit, "Fold": _visit,
          "Complete": _finish, "Last": _finish, "Prop": _prop, "Load": _load,
          "Opt": lambda config, r: tlo.apply_rewrite(config, r.rewrite)}


def apply_redex(config: Configuration, r: Redex) -> tuple[Configuration, str, list[int]]:
    """The configuration after `r`, `r`'s rule and the labels it touched."""
    step = _STEPS.get(r.rule)
    if step is None:
        raise ValueError(f"cannot apply {r}")
    config, labels = step(config, r)
    return config, r.rule, labels


### eager enumeration

def eager_enumerate(config: Configuration, wet=None) -> list[Redex]:
    """The at-most-one redex the sequential discipline allows: routing beats
    everything, then the single wet station works (loads before tasks),
    then the frontend resumes on a dry backend.  `wet`, the stations that
    are not idle, is found by a scan unless the caller keeps it."""
    tg = tograph_redex(config)
    if tg is not None:
        return [tg]

    if wet is None:
        wet = [i for i, s in enumerate(config.backend) if not s.idle]
    if len(wet) > 1:
        return []
    if len(wet) == 1:
        (i,) = wet
        station = config.backend[i]
        sl, unit, term = station.streamlet, None, station.node
        if is_value(term):
            # while a fold base loads, eager takes no task, and it loads
            # only the base of a lone head fold
            bases = [op.base for u in sl for _, op in u.entries
                     if type(op) is FoldOp and not is_value(op.base)]
            if not bases:
                # eager takes the first of Complete, Map, Fold, Last and
                # Prop that applies, which is the first offered: Map and
                # Fold exclude the others, and Complete is offered before
                # Last and Prop
                last = i == len(config.backend) - 1
                return station_task_redexes(station, i, last)[:1]
            if len(sl) != 1 or len(sl[0].entries) != 1:
                return []
            unit, term = 0, bases[0]
        step = _find(term)
        if not isinstance(step, Stuck) and step[0] != "Emit" \
                and _ready(config, step[1]):
            return [Redex("Load", i, unit, None, step[2])]
        return []
    fr = frontend_redex(config)
    return [fr] if isinstance(fr, Redex) else []


### the driver

@record
class StepRecord:
    step: int
    rule: str
    site: str
    labels: tuple[int, ...]
    digest: str

    def to_json(self) -> str:
        """`json.dumps` of the record's fields with sorted keys."""
        return (f'{{"digest": {_encode(self.digest)}, '
                f'"labels": [{", ".join(map(str, self.labels))}], '
                f'"rule": {_encode(self.rule)}, "site": {_encode(self.site)}, '
                f'"step": {self.step}}}')


@dataclass
class RunResult:
    """How a run ended: its last configuration, status and step count."""
    config: Configuration
    status: str  # terminal, blocked, stuck, fuel
    steps: int
    trace: list[StepRecord] = field(default_factory=list)
    detail: str = ""
    rewrites: dict[str, int] = field(default_factory=dict)  # rule -> applied


class _Index:
    """What a `steps` choice draws from (see the module docstring); `rules`
    are the rewrite rules whose window entries it keeps, None for all.  A
    station's plain entries (`_plain_redex`) and windows (`cands`: a unit,
    the next and their entries for `tlo.candidate`) become a `Redex` or a
    `Candidate` only in `plain_at` and `cand_at`.  A Load updates its
    station in place (`_load`); `refresh` rebuilds the stations that other
    steps touched."""

    def __init__(self, config: Configuration, rules, assume_set_adjacency):
        n = len(config.backend)
        self.config = config
        self.rules = tlo.RULE_NAMES if rules is None else tuple(rules)
        self.adjacency = assume_set_adjacency
        self.last_opt = None
        self.busy = {i for i, s in enumerate(config.backend) if not s.idle}
        self.stale = set(range(n))
        self.plain = [()] * n  # the plain entries that step now
        self.cands, self.ncand = [()] * n, [0] * n  # `tlo.station_windows`
        self.waiting: dict[int, set[int]] = {}  # label -> stations
        self.nplain = self.ncands = 0
        self.front_of = (None,) * 4  # the fields `front` was built from

    def terminal(self) -> bool:
        c = self.config
        return not self.busy and not c.top and is_value(c.frontend)

    def advance(self, r: Redex, config: Configuration, labels) -> None:
        """Move to `config`, the result of applying `r`."""
        if r.rule == "Add":  # it shifts every station's index
            self.__init__(config, self.rules, self.adjacency)
            return
        old, self.config = self.config, config
        self.last_opt = r.rewrite
        if r.rule == "Load" and r.station not in self.stale \
                and self._load(r, old):
            return
        touched = ((0,) if r.rule == "First" else () if r.station is None
                   else (r.station, r.station + 1) if r.rule == "Prop"
                   else (r.station,))
        for i in touched:
            (self.busy.discard if config.backend[i].idle else self.busy.add)(i)
        self.stale.update(touched)
        if config.store is not old.store:  # wake the loads waiting on it
            for label in labels:
                self.stale |= self.waiting.pop(label, set())

    def _load(self, r: Redex, old: Configuration) -> bool:
        """Carry station `r.station` over the Load `r` from `old` in place
        (see the module docstring), or return False, changing nothing,
        where the task rules or the station's idleness may change: the node
        reached a value or may have another key, or the head fold's base
        reached a value."""
        i, j = r.station, r.unit
        station = self.config.backend[i]
        if j is None:
            # the search never enters a key, so a node keeps a key it has
            e, was = station.node, old.backend[i].node
            if is_value(e) or type(was) is not Node or type(was.key) is not Key:
                return False
        else:
            ((_, op),) = station.streamlet[j].entries
            e = op.base
            if j == 0 and is_value(e):
                return False
            if self.rules:
                added = tlo.rebase_windows(station.streamlet, j, self.rules,
                                           self.adjacency, self.cands[i])
                self.ncand[i] += added
                self.ncands += added
        plain = self.plain[i]
        k = plain.index((j, r.path))
        site = None if is_value(e) else _load_site(j, e, _kept_step)
        if site is not None and _ready(self.config, site[1]):
            plain[k] = site[0]
            return True
        if site is not None:
            self.waiting.setdefault(site[1], set()).add(i)
        del plain[k]
        self.nplain -= 1
        return True

    def refresh(self) -> int:
        """Rebuild the stale stations, with their windows if the index has
        rules; count the plain entries."""
        config, stale = self.config, self.stale
        last = len(config.backend) - 1
        for i in stale:
            self.nplain -= len(self.plain[i])
            self.plain[i] = _station_plain(config, i, i == last, self.waiting)
            self.nplain += len(self.plain[i])
            if self.rules:
                self.cands[i] = tlo.station_windows(
                    config.backend[i], self.rules, self.adjacency,
                    self.cands[i])
                n = sum(len(specs) for _, _, specs in self.cands[i])
                self.ncands += n - self.ncand[i]
                self.ncand[i] = n
        stale.clear()
        front_of = (config.frontend, config.top, config.store, not config.backend)
        if any(map(is_not, front_of, self.front_of)):
            self.front_of, self.front = front_of, [
                r for r in (frontend_redex(config), tograph_redex(config))
                if isinstance(r, Redex)]
        return len(self.front) + self.nplain

    def plain_at(self, k: int) -> Redex:
        """The `k`-th plain redex in `enumerate_redexes` order; only that
        redex is built."""
        if k < len(self.front):
            return self.front[k]
        k -= len(self.front)
        for i, entries in enumerate(self.plain):
            if k < len(entries):
                return _plain_redex(i, entries[k])
            k -= len(entries)

    def cand_at(self, k: int):
        """The `k`-th candidate in `tlo.candidates` order; only that
        candidate is built."""
        for i, n in enumerate(self.ncand):
            if k >= n:
                k -= n
                continue
            sl = self.config.backend[i].streamlet
            for j, (_, _, specs) in enumerate(self.cands[i]):
                if k < len(specs):
                    return tlo.candidate(specs[k], i, j, sl)
                k -= len(specs)


def _eager(ix: _Index, rng) -> Redex | None:
    redexes = eager_enumerate(ix.config, ix.busy)
    return redexes[0] if redexes else None


def _det(ix: _Index, rng) -> Redex | None:
    """The first plain redex, else the split-1 unbatch of the first unit of
    two or more operations (a batched head unit admits no task rule), else
    nothing."""
    if ix.refresh():
        return ix.plain_at(0)
    for i, station in enumerate(ix.config.backend):
        for j, unit in enumerate(station.streamlet):
            if len(unit.entries) >= 2:
                return _opt(tlo.candidate(("unbatch", 1), i, j,
                                          station.streamlet))
    return None


def _draw(ix: _Index, rng) -> Redex | None:
    # with no rules in the index, this is a uniform draw among the plain
    # redexes
    n = ix.refresh()
    total, at, nundo, prev = ix.ncands, 0, 0, ix.last_opt
    if prev is not None and prev.rule in ("batch", "unbatch"):
        # a batch and an unbatch undo each other only in the window the
        # last one rewrote (labels are unique), where a rule's entries
        # form one block: `nundo` entries from position `at`
        undo = "unbatch" if prev.rule == "batch" else "batch"
        windows = ix.cands[prev.station]
        rules = [rule for rule, _ in windows[prev.start][2]]
        if undo in rules:
            nundo = rules.count(undo)
            at = (sum(ix.ncand[:prev.station]) + rules.index(undo)
                  + sum(len(specs) for _, _, specs in windows[:prev.start]))
    if total > nundo and (not n or rng.random() < 0.2):
        k = rng.randrange(total - nundo)
        return _opt(ix.cand_at(k + nundo if k >= at else k))
    if n:
        return ix.plain_at(rng.randrange(n))
    if total:
        # the guard may not wedge the run; undo if that is all there is
        return _opt(ix.cand_at(rng.randrange(total)))
    return None


def uniform(ix: _Index, rng) -> Redex | None:
    """A uniform draw among the plain redexes and the candidates: the
    harness walks' choice, which no `run` scheduler offers."""
    n = ix.refresh()
    if not n + ix.ncands:
        return None
    k = rng.randrange(n + ix.ncands)
    return ix.plain_at(k) if k < n else _opt(ix.cand_at(k - n))


# name -> its choice among what the index offers, None when nothing applies
SCHEDULERS = {"eager": _eager, "det": _det, "random": _draw,
              "tlo-random": _draw}


def steps(config: Configuration, choose, rng, rules, assume_set_adjacency,
          apply):
    """Step `config` by `choose(ix, rng)` and `apply`, the caller's own
    binding of `apply_redex`, over an `_Index` of the windows of `rules`
    (None: all) until `choose` finds nothing.  Yields the index, and the
    redex and labels of the step that led there, at each configuration,
    `(ix, None, [])` first, before the next draw; the consumer tests for
    the terminal.  Rules `tlo.check_rules` refuses raise ValueError before
    the first yield."""
    if rules is not None:
        tlo.check_rules(rules)
    ix = _Index(config, rules, assume_set_adjacency)
    yield ix, None, []
    while (r := choose(ix, rng)) is not None:
        config, _, labels = apply(ix.config, r)
        ix.advance(r, config, labels)
        yield ix, r, labels


def stopped(config: Configuration) -> tuple[str, str]:
    """Why a non-terminal configuration that offers nothing stops: the
    status, blocked or stuck, and its detail."""
    fr = frontend_redex(config)
    if isinstance(fr, Blocked):
        return "blocked", f"frontend waits on label {fr.label}"
    return "stuck", (fr.reason if isinstance(fr, Stuck)
                     else "no applicable rule")


def run(config: Configuration, scheduler: str = "eager", seed: int = 0,
        fuel: int = 1_000_000, trace: bool = False, tlo_rules=None,
        assume_set_adjacency: bool = False) -> RunResult:
    """Drive a configuration to a terminal state under one of `SCHEDULERS`.

    eager: the deterministic baseline, one redex at a time.
    det: first structural redex, else the first unbatch; it stops where
    neither applies, as at a wedge no structural redex can leave.
    random: uniform choice among structural redexes, rewriting off.
    tlo-random: random plus optimizer steps at weight 0.2, drawn from
    `tlo_rules` (None: every rule); the next step undoes no batch or
    unbatch unless nothing else applies.  No other scheduler builds
    candidates.  A last allowed step that reaches the terminal reports it.
    """
    choose = SCHEDULERS.get(scheduler)
    if choose is None:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    records: list[StepRecord] = []
    rewrites: dict[str, int] = Counter()
    ended = partial(RunResult, trace=records, rewrites=rewrites)
    parts = DigestParts() if trace else None
    for step, (ix, r, labels) in enumerate(steps(
            config, choose, random.Random(seed),
            tlo_rules if scheduler == "tlo-random" else (),
            assume_set_adjacency, apply_redex)):
        if r is not None and r.rule == "Opt":
            rewrites[r.rewrite.rule] += 1
        if r is not None and trace:
            records.append(StepRecord(step - 1, r.rule, r.site, tuple(labels),
                                      config_digest(ix.config, parts)))
        if ix.terminal():
            return ended(ix.config, "terminal", step)
        if step >= fuel:
            return ended(ix.config, "fuel", fuel, detail="fuel exhausted")
    status, detail = stopped(ix.config)
    return ended(ix.config, status, step, detail=detail)


def write_trace(path, records: list[StepRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")
