"""Small-step reduction over whole configurations.

The frontend and the in-graph load sites share one expression stepper; the
load flavor simply refuses to emit, which is the operational face of the
phase split.  Station rules, stream routing, and the optimizer hook each
produce explicit redex descriptions so schedulers can pick among them.
Each station rule is written once: `station_task_redexes` decides Map, Fold,
Complete, Last and Prop in one pass, and `apply_redex` steps every rule
through one `_STEPS` table, the frontend and routing steps by site.

A step changes at most two stations and carries the rest over.  `run` keeps
an index of what its scheduler draws from: per station the plain redexes
that step now and the rewrite candidates window by window, keyed by the
identities of a window's two units (`tlo` keeps the prover verdicts), with
counts; the stations that are not idle, which decide terminality; and the
stations with a load site waiting on each label.  It rebuilds only the
stations a step touched and, after a store write, those waiting on a
written label; `det` builds a station's windows only when no plain redex is
left, and the frontend and routing redexes are rebuilt only when the fields
they read change.  The redex search records its hole as a path of child
positions, along which the Load and frontend rules plug the contractum.
What the redex search finds in a term is kept on the term (see `state`),
except by `eager_enumerate` for the wet station, which every eager step
replaces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import is_not

from . import tlo
from .state import (
    Configuration, Station, StoreEntry, append_station_tail,
    config_digest, evolve, finalize, fresh_key_name, is_value, keep,
    merge_results, singleton, station_is_load_free, target,
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
    site: str
    station: int | None = None
    unit: int | None = None
    rewrite: object = None  # tlo.Candidate for Opt redexes
    path: tuple[int, ...] = ()  # frontend and Load: the hole in the term


def _opt(cand) -> Redex:
    return Redex("Opt", f"station:{cand.station}:{cand.rule}",
                 station=cand.station, rewrite=cand)


def frontend_redex(config: Configuration) -> Redex | Blocked | Stuck | None:
    if is_value(config.frontend):
        return None
    step = _kept_step(config.frontend)
    if isinstance(step, Stuck):
        return step
    rule, label, path = step
    if not _ready(config, label):
        return Blocked(label)
    return Redex(rule, "frontend", path=path)


def tograph_redex(config: Configuration) -> Redex | None:
    if not config.top:
        return None
    head = config.top[0]
    if len(head.entries) != 1:
        return None  # routing is defined one emitted operation at a time
    _, op = head.entries[0]
    if isinstance(op, AddOp):
        return Redex("Add", "top")
    if not config.backend:
        return Redex("Empty", "top")
    return Redex("First", "top")


def station_task_redexes(station: Station, i: int, last: bool) -> list[Redex]:
    """Map, Fold, Complete, Last and Prop at station `i`, in that order;
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
    return [Redex(rule, f"station:{i}", station=i) for rule in rules]


def _loads(step) -> bool:
    """A load site where `_find` gives this can step, now or once its
    Claim's label is filled: it is not stuck, and a load may not emit."""
    return not isinstance(step, Stuck) and step[0] != "Emit"


def _load_sites(station: Station, i: int,
                step_of) -> tuple[tuple[Redex, int | None], ...]:
    """The Load redexes of station `i` that may step, each with the label
    its Claim waits on (None: it steps now)."""
    sites = [] if station.loaded else [(None, station.node)]
    for j, unit in enumerate(station.streamlet):
        if len(unit.entries) == 1:
            _, op = unit.entries[0]
            if isinstance(op, FoldOp) and not is_value(op.base):
                sites.append((j, op.base))
    out = []
    for j, expr in sites:
        step = step_of(expr)
        if _loads(step):
            where = "node" if j is None else f"unit:{j}"
            out.append((Redex("Load", f"station:{i}/{where}", station=i,
                              unit=j, path=step[2]), step[1]))
    return tuple(out)


def _station_plain(config: Configuration, i: int, last: bool,
                   waiting: dict | None = None) -> list[Redex]:
    """The task redexes of station `i`, then its load sites that step now;
    `waiting`, if given, notes `i` under each label a site waits on."""
    station = config.backend[i]
    out = station_task_redexes(station, i, last)
    for r, label in _load_sites(station, i, _kept_step):
        if _ready(config, label):
            out.append(r)
        elif waiting is not None:
            waiting.setdefault(label, set()).add(i)
    return out


def enumerate_redexes(config: Configuration, tlo_on: bool = False,
                      tlo_rules: tuple[str, ...] | None = None,
                      assume_set_adjacency: bool = False) -> list[Redex]:
    """All rule instances applicable right now, in a stable order."""
    out: list[Redex] = []
    fr = frontend_redex(config)
    if isinstance(fr, Redex):
        out.append(fr)
    tg = tograph_redex(config)
    if tg is not None:
        out.append(tg)
    last = len(config.backend) - 1
    for i in range(len(config.backend)):
        out.extend(_station_plain(config, i, i == last))
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
    backend = config.backend[:i] + (station,) + config.backend[i + 1:]
    return evolve(config, backend=backend)


def _visit(config: Configuration, r: Redex) -> Stepped:
    """Map or Fold: the head operation visits the node, and the node's key
    leaves its target.  A map rewrites the node, a fold its base."""
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
    return evolve(config, backend=backend), list(unit.labels())


def _load_term(config: Configuration, e: Expr, path: tuple[int, ...]) -> Expr:
    spine, redex = _descend(e, path)
    if isinstance(redex, Emit):
        raise RuntimeError("operation emission attempted during a load")
    result = _contract(redex, config.store_get)
    if isinstance(result, Blocked):
        raise RuntimeError(f"load blocked on label {result.label}")
    return _plug(spine, result)


def _load(config: Configuration, r: Redex) -> Stepped:
    i, unit, station = r.station, r.unit, config.backend[r.station]
    if unit is None:
        station = Station(_load_term(config, station.node, r.path),
                          station.streamlet)
        return _set_station(config, i, station), []
    (label, op), = station.streamlet[unit].entries
    assert isinstance(op, FoldOp)
    result = _load_term(config, op.base, r.path)
    new_unit = singleton(label, FoldOp(op.fn, result, op.ks))
    streamlet = station.streamlet[:unit] + (new_unit,) + station.streamlet[unit + 1:]
    station = Station(station.node, streamlet)
    return _set_station(config, i, station), [label]


# the step of each rule at a station; the frontend and routing steps go by site
_STEPS = {"Map": _visit, "Fold": _visit, "Complete": _finish, "Last": _finish,
          "Prop": _prop, "Load": _load,
          "Opt": lambda config, r: tlo.apply_rewrite(config, r.rewrite)}


def apply_redex(config: Configuration, r: Redex) -> tuple[Configuration, str, list[int]]:
    """The configuration after `r`, `r`'s rule and the labels it touched."""
    step = (_frontend if r.site == "frontend" else _route if r.site == "top"
            else _STEPS.get(r.rule))
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
        if not station.loaded:
            step = _find(station.node)
            if _loads(step) and _ready(config, step[1]):
                return [Redex("Load", f"station:{i}/node", station=i,
                              path=step[2])]
            return []
        if not station_is_load_free(station):
            loads = [r for r, label in _load_sites(station, i, _find)
                     if _ready(config, label)]
            if loads and len(station.streamlet) == 1 and loads[0].unit == 0:
                return [loads[0]]
            return []
        # eager takes the first of Complete, Map, Fold, Last and Prop that
        # applies, which is the first offered: Map and Fold exclude the
        # others, and Complete is offered before Last and Prop
        last = i == len(config.backend) - 1
        return station_task_redexes(station, i, last)[:1]

    fr = frontend_redex(config)
    if isinstance(fr, Redex):
        return [fr]
    return []


### the driver

@record
class StepRecord:
    step: int
    rule: str
    site: str
    labels: tuple[int, ...]
    digest: str

    def to_json(self) -> str:
        return json.dumps({"step": self.step, "rule": self.rule,
                           "site": self.site, "labels": list(self.labels),
                           "digest": self.digest}, sort_keys=True)


@dataclass
class RunResult:
    config: Configuration
    status: str  # terminal, blocked, stuck, fuel
    steps: int
    trace: list[StepRecord] = field(default_factory=list)
    detail: str = ""


def _undo_of(prev) -> tuple | None:
    """The station, rule and labels of the candidates that would undo the
    rewrite `prev` at the same spot; only batch and unbatch undo each other."""
    if prev is None or prev.rule not in ("batch", "unbatch"):
        return None
    undo = "unbatch" if prev.rule == "batch" else "batch"
    return prev.station, undo, prev.labels


class _Index:
    """What `run`'s schedulers draw from (see the module docstring)."""

    def __init__(self, config: Configuration, rules, assume_set_adjacency):
        n = len(config.backend)
        self.config = config
        self.rules = tlo.RULE_NAMES if rules is None else tuple(rules)
        self.adjacency = assume_set_adjacency
        self.last_opt = None
        self.busy = {i for i, s in enumerate(config.backend) if not s.idle}
        self.stale = set(range(n))
        self.unwindowed = set()  # stations whose windows are stale
        self.plain = [()] * n  # the plain redexes that step now
        self.cands, self.ncand = [()] * n, [0] * n  # `tlo.station_windows`
        self.windows = [{} for _ in range(n)]
        self.waiting: dict[int, set[int]] = {}  # label -> stations
        self.nplain = self.ncands = 0
        self.front_of = (None,) * 4  # the fields `front` was built from

    def terminal(self) -> bool:
        c = self.config
        return not self.busy and not c.top and is_value(c.frontend)

    def advance(self, r: Redex, config: Configuration, labels) -> None:
        """Move to `config`, the result of applying `r`."""
        old, self.config = self.config, config
        self.last_opt = r.rewrite
        touched = ((0,) if r.rule == "First" else () if r.station is None
                   else (r.station, r.station + 1) if r.rule == "Prop"
                   else (r.station,))
        for i in touched:
            (self.busy.discard if config.backend[i].idle else self.busy.add)(i)
        self.stale.update(touched)
        if config.store is not old.store:  # wake the loads waiting on it
            for label in dict(r.rewrite.results) if r.rewrite else labels:
                self.stale |= self.waiting.pop(label, set())

    def refresh(self, cands: bool) -> int:
        """Rebuild the stale stations and, if `cands`, the windows of every
        station rebuilt since they were last built; count the plain redexes."""
        config, stale = self.config, self.stale
        last = len(config.backend) - 1
        for i in stale:
            self.nplain -= len(self.plain[i])
            self.plain[i] = _station_plain(config, i, i == last, self.waiting)
            self.nplain += len(self.plain[i])
        self.unwindowed |= stale
        stale.clear()
        if cands:
            for i in self.unwindowed:
                self.cands[i] = tlo.station_windows(
                    config.backend[i], self.rules, self.adjacency,
                    self.windows[i])
                n = sum(map(len, self.cands[i]))
                self.ncands += n - self.ncand[i]
                self.ncand[i] = n
            self.unwindowed.clear()
        front_of = (config.frontend, config.top, config.store, not config.backend)
        if any(map(is_not, front_of, self.front_of)):
            self.front_of, self.front = front_of, [
                r for r in (frontend_redex(config), tograph_redex(config))
                if isinstance(r, Redex)]
        return len(self.front) + self.nplain

    def plain_at(self, k: int) -> Redex:
        """The `k`-th plain redex in `enumerate_redexes` order."""
        for rs in chain((self.front,), self.plain):
            if k < len(rs):
                return rs[k]
            k -= len(rs)

    def cand_at(self, k: int, undo=None):
        """The `k`-th candidate in `tlo.candidates` order, leaving out those
        that `undo` (see `_undo_of`) names; only that candidate is built."""
        for i, n in enumerate(self.ncand):
            if k >= n and (undo is None or undo[0] != i):
                k -= n
                continue
            for j, window in enumerate(self.cands[i]):
                if undo is not None and undo[0] == i:
                    window = [c for c in window if (c[0], c[4]) != undo[1:]]
                if k < len(window):
                    rule, *rest = window[k]
                    return tlo.Candidate(rule, i, j, *rest)
                k -= len(window)


def _eager(ix: _Index, rng) -> Redex | None:
    redexes = eager_enumerate(ix.config, ix.busy)
    return redexes[0] if redexes else None


def _det(ix: _Index, rng) -> Redex | None:
    # first structural redex; batched head units admit no task rule, so
    # unbatching must stay reachable or completion is partial.  Rewrites
    # are built only when no structural redex exists.
    if ix.refresh(cands=False):
        return ix.plain_at(0)
    ix.refresh(cands=True)
    cands = [c for i, cs in enumerate(ix.cands) for c in tlo.placed(i, cs)]
    # unbatch only: strictly increases the unit count, so the fallback
    # cannot cycle the way batch or the reorders can
    unb = [c for c in cands if c.rule == "unbatch"]
    return _opt(unb[0]) if unb else _opt(cands[0]) if cands else None


def _draw(ix: _Index, rng, rewrite: bool) -> Redex | None:
    # rewriting off, this is a uniform draw among the plain redexes
    n = ix.refresh(cands=rewrite)
    total, undo = ix.ncands if rewrite else 0, _undo_of(ix.last_opt)
    nundo = 0 if undo is None else sum((c[0], c[4]) == undo[1:]
                                       for w in ix.cands[undo[0]] for c in w)
    if total > nundo and (not n or rng.random() < 0.2):
        return _opt(ix.cand_at(rng.randrange(total - nundo), undo))
    if n:
        return ix.plain_at(rng.randrange(n))
    if total:
        # the guard may not wedge the run; undo if that is all there is
        return _opt(ix.cand_at(rng.randrange(total)))
    return None


# name -> its choice among what the index offers, None when nothing applies
SCHEDULERS = {"eager": _eager, "det": _det,
              "random": partial(_draw, rewrite=False),
              "tlo-random": partial(_draw, rewrite=True)}


def run(config: Configuration, scheduler: str = "eager", seed: int = 0,
        fuel: int = 1_000_000, trace: bool = False, tlo_rules=None,
        assume_set_adjacency: bool = False) -> RunResult:
    """Drive a configuration to a terminal state under one of `SCHEDULERS`.

    eager: the deterministic baseline, one redex at a time.
    det: first structural redex, unbatching only when nothing else applies;
    total on states the eager policy cannot reach.
    random: uniform choice among structural redexes, rewriting off.
    tlo-random: random plus optimizer steps at weight 0.2.
    """
    choose = SCHEDULERS.get(scheduler)
    if choose is None:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    if scheduler == "det":  # its fallback may unbatch whatever the rules
        tlo_rules = None
    rng = random.Random(seed)
    records: list[StepRecord] = []
    ix = _Index(config, tlo_rules, assume_set_adjacency)
    for step in range(fuel):
        if ix.terminal():
            return RunResult(config, "terminal", step, records)
        choice = choose(ix, rng)
        if choice is None:
            fr = frontend_redex(config)
            if isinstance(fr, Blocked):
                return RunResult(config, "blocked", step, records,
                                 f"frontend waits on label {fr.label}")
            if isinstance(fr, Stuck):
                return RunResult(config, "stuck", step, records, fr.reason)
            return RunResult(config, "stuck", step, records, "no applicable rule")
        config, rule, labels = apply_redex(config, choice)
        if rule == "Add":  # it shifts every station's index
            ix = _Index(config, tlo_rules, assume_set_adjacency)
        else:
            ix.advance(choice, config, labels)
        if trace:
            records.append(StepRecord(step, rule, choice.site, tuple(labels),
                                      config_digest(config)))
    return RunResult(config, "fuel", fuel, records, "fuel exhausted")


def write_trace(path, records: list[StepRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")
