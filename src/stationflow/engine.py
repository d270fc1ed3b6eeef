"""Small-step reduction over whole configurations.

The frontend and the in-graph load sites share one expression stepper; the
load flavor simply refuses to emit, which is the operational face of the
phase split.  Station rules, stream routing, and the optimizer hook each
produce explicit redex descriptions so schedulers can pick among them.

A step changes at most two stations and carries the rest over.  `run` keeps
an index of what its scheduler draws from: per station the plain redexes
that step now and the rewrite candidates window by window, with counts; the
stations that are not idle, which decide terminality; and the stations with
a load site waiting on each label.  It rebuilds only the stations a step
touched and, after a store write, those waiting on a written label.  The
redex search records its hole as a path of child positions, along which the
Load and frontend rules plug the contractum.  What is kept on stations and
terms is listed in `state`; `eager_enumerate` keeps nothing for the wet
station, which every eager step replaces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

from . import tlo
from .state import (
    Configuration, Station, StoreEntry, Unit, append_station_tail, append_top,
    config_digest, finalize, fresh_key_name, is_value, keep, merge_results,
    singleton, station_is_load_free, target,
)
from .terms import (
    CONTRACTIONS, AddOp, App, Claim, Emit, Expr, FoldOp, Int, KL, Key, Label,
    MapOp, Node, Operation, Proj, Var, children, kl_subtract, with_children,
)
# unused here, but perfbench/layers.py wraps these bindings: it counts
# substitutions and times terminal tests at them
from .state import is_terminal  # noqa: F401
from .terms import substitute  # noqa: F401


### one-step search inside an expression

@dataclass(frozen=True)
class Blocked:
    label: int


@dataclass(frozen=True)
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
        if isinstance(e, Var):
            return Stuck(f"free name {e.name!r}")
        cs = children(e)
        rule = CONTRACTIONS.get(type(e))
        for j, c in enumerate(cs[:rule.strict] if rule else cs):
            if not is_value(c):
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
    return keep(e, "_step", None, _find, e)


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

@dataclass(frozen=True)
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


def _station_key(station: Station) -> str | None:
    n = station.node
    if isinstance(n, Node) and isinstance(n.key, Key):
        return n.key.name
    return None


def _unit_targets(unit: Unit) -> tuple[str, ...] | None:
    out: list[str] = []
    for _, op in unit.entries:
        t = target(op)
        if t is None:
            return None
        out.extend(t)
    return tuple(out)


def _head_singleton(station: Station):
    if station.streamlet and len(station.streamlet[0].entries) == 1:
        return station.streamlet[0].entries[0]
    return None


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
    """Map, Fold, Complete, Last and Prop at station `i`; `last` says it is
    the last station of the backend."""
    if not station.streamlet:
        return []
    out: list[Redex] = []
    key = _station_key(station)
    head = station.streamlet[0]
    single = _head_singleton(station)

    if single is not None:
        label, op = single
        tgt = target(op)
        if isinstance(op, MapOp) and tgt is not None and key is not None \
                and key in tgt and station.loaded:
            out.append(Redex("Map", f"station:{i}", station=i))
        if isinstance(op, FoldOp) and tgt is not None and key is not None \
                and key in tgt and station.loaded:
            out.append(Redex("Fold", f"station:{i}", station=i))
        if tgt is not None and len(tgt) == 0 and _finalizable(op):
            out.append(Redex("Complete", f"station:{i}", station=i))
        if last and tgt is not None and key is not None and key not in tgt \
                and _finalizable(op):
            out.append(Redex("Last", f"station:{i}", station=i))

    if not last and key is not None:
        union = _unit_targets(head)
        if union is not None and key not in union:
            out.append(Redex("Prop", f"station:{i}", station=i))
    return out


def _finalizable(op: Operation) -> bool:
    if isinstance(op, FoldOp):
        return is_value(op.base)
    return isinstance(op, MapOp)


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
    tasks, loads = keep(station, "_redexes", (i, last), lambda: (
        tuple(station_task_redexes(station, i, last)),
        _load_sites(station, i, _kept_step)))
    out = list(tasks)
    for r, label in loads:
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

def apply_frontend(config: Configuration, r: Redex) -> tuple[Configuration, str, list[int]]:
    spine, e = _descend(config.frontend, r.path)
    if isinstance(e, Emit):
        label = config.next_label
        config = replace(config, frontend=_plug(spine, Label(label)),
                         next_label=label + 1)
        return append_top(config, singleton(label, e.op)), "Emit", [label]
    result = _contract(e, config.store_get)
    assert not isinstance(result, Blocked), "frontend claim applied while blocked"
    labels = [e.arg.index] if isinstance(e, Claim) else []
    return replace(config, frontend=_plug(spine, result)), r.rule, labels


def apply_tograph(config: Configuration) -> tuple[Configuration, str, list[int]]:
    head = config.top[0]
    rest = config.top[1:]
    (label, op) = head.entries[0]
    if isinstance(op, AddOp):
        assert isinstance(op.arg, Int)
        kname = fresh_key_name(config.next_key)
        new_station = Station(Node(Key(kname), op.arg, KL(())))
        config = replace(config, top=rest,
                         backend=(new_station,) + config.backend,
                         next_key=config.next_key + 1)
        return (merge_results(config, {label: StoreEntry(Key(kname), ())}),
                "Add", [label])
    if not config.backend:
        config = replace(config, top=rest)
        l, entry = finalize(label, op)
        return merge_results(config, {l: entry}), "Empty", [label]
    config = replace(config, top=rest)
    return append_station_tail(config, head), "First", [label]


def _set_station(config: Configuration, i: int, station: Station) -> Configuration:
    backend = config.backend[:i] + (station,) + config.backend[i + 1:]
    return replace(config, backend=backend)


def apply_map(config: Configuration, i: int) -> tuple[Configuration, str, list[int]]:
    station = config.backend[i]
    (label, op) = station.streamlet[0].entries[0]
    assert isinstance(op, MapOp)
    n = station.node
    key = n.key
    applied = App(op.fn, n)
    new_node = Node(key, Proj(2, applied), Proj(3, applied))
    new_ks = KL(kl_subtract(op.ks.items, (key,)))
    new_unit = singleton(label, MapOp(op.fn, new_ks))
    station = Station(new_node, (new_unit,) + station.streamlet[1:])
    return _set_station(config, i, station), "Map", [label]


def apply_fold(config: Configuration, i: int) -> tuple[Configuration, str, list[int]]:
    station = config.backend[i]
    (label, op) = station.streamlet[0].entries[0]
    assert isinstance(op, FoldOp)
    n = station.node
    key = n.key
    new_base = App(App(op.fn, n), op.base)
    new_ks = KL(kl_subtract(op.ks.items, (key,)))
    new_unit = singleton(label, FoldOp(op.fn, new_base, new_ks))
    station = Station(n, (new_unit,) + station.streamlet[1:])
    return _set_station(config, i, station), "Fold", [label]


def apply_prop(config: Configuration, i: int) -> tuple[Configuration, str, list[int]]:
    station = config.backend[i]
    unit = station.streamlet[0]
    station = replace(station, streamlet=station.streamlet[1:])
    config = _set_station(config, i, station)
    nxt = config.backend[i + 1]
    nxt = replace(nxt, streamlet=nxt.streamlet + (unit,))
    return _set_station(config, i + 1, nxt), "Prop", list(unit.labels())


def apply_complete_or_last(config: Configuration, i: int,
                           rule: str) -> tuple[Configuration, str, list[int]]:
    station = config.backend[i]
    (label, op) = station.streamlet[0].entries[0]
    station = replace(station, streamlet=station.streamlet[1:])
    config = _set_station(config, i, station)
    l, entry = finalize(label, op)
    return merge_results(config, {l: entry}), rule, [label]


def _load(config: Configuration, e: Expr, path: tuple[int, ...]) -> Expr:
    spine, redex = _descend(e, path)
    if isinstance(redex, Emit):
        raise RuntimeError("operation emission attempted during a load")
    result = _contract(redex, config.store_get)
    if isinstance(result, Blocked):
        raise RuntimeError(f"load blocked on label {result.label}")
    return _plug(spine, result)


def apply_load(config: Configuration, r: Redex) -> tuple[Configuration, str, list[int]]:
    i, unit, station = r.station, r.unit, config.backend[r.station]
    if unit is None:
        station = replace(station, node=_load(config, station.node, r.path))
        return _set_station(config, i, station), "Load", []
    (label, op) = station.streamlet[unit].entries[0]
    assert isinstance(op, FoldOp)
    result = _load(config, op.base, r.path)
    new_unit = singleton(label, FoldOp(op.fn, result, op.ks))
    streamlet = station.streamlet[:unit] + (new_unit,) + station.streamlet[unit + 1:]
    station = replace(station, streamlet=streamlet)
    return _set_station(config, i, station), "Load", [label]


def apply_redex(config: Configuration, r: Redex) -> tuple[Configuration, str, list[int]]:
    if r.site == "frontend":
        return apply_frontend(config, r)
    if r.site == "top":
        return apply_tograph(config)
    if r.rule == "Map":
        return apply_map(config, r.station)
    if r.rule == "Fold":
        return apply_fold(config, r.station)
    if r.rule == "Prop":
        return apply_prop(config, r.station)
    if r.rule in ("Complete", "Last"):
        return apply_complete_or_last(config, r.station, r.rule)
    if r.rule == "Load":
        return apply_load(config, r)
    if r.rule == "Opt":
        cfg, labels = tlo.apply_rewrite(config, r.rewrite)
        return cfg, "Opt", labels
    raise ValueError(f"cannot apply {r}")


### eager enumeration

_EAGER_TASK_ORDER = ("Complete", "Map", "Fold", "Last", "Prop")


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
        last = i == len(config.backend) - 1
        tasks = {r.rule: r for r in station_task_redexes(station, i, last)}
        for rule in _EAGER_TASK_ORDER:
            if rule in tasks:
                return [tasks[rule]]
        return []

    fr = frontend_redex(config)
    if isinstance(fr, Redex):
        return [fr]
    return []


### the driver

@dataclass(frozen=True)
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


def _is_inverse_opt(prev, cand) -> bool:
    # forbid undoing the rewrite just applied at the same spot
    if prev is None or cand is None:
        return False
    pair = {prev.rule, cand.rule}
    return (pair == {"batch", "unbatch"} and prev.station == cand.station
            and prev.labels == cand.labels)


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
        self.plain = [()] * n  # the plain redexes that step now
        self.cands, self.ncand = [()] * n, [0] * n  # `tlo.station_windows`
        self.windows = [{} for _ in range(n)]
        self.waiting: dict[int, set[int]] = {}  # label -> stations
        self.nplain = self.ncands = 0

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
        """Rebuild the stale stations, with their candidates if `cands`, and
        count the plain redexes."""
        config = self.config
        last = len(config.backend) - 1
        for i in self.stale:
            self.nplain -= len(self.plain[i])
            self.plain[i] = _station_plain(config, i, i == last, self.waiting)
            self.nplain += len(self.plain[i])
            if cands:
                self.cands[i] = tlo.station_windows(
                    config.backend[i], self.rules, self.adjacency,
                    self.windows[i])
                n = sum(map(len, self.cands[i]))
                self.ncands += n - self.ncand[i]
                self.ncand[i] = n
        self.stale.clear()
        self.front = [r for r in (frontend_redex(config), tograph_redex(config))
                      if isinstance(r, Redex)]
        return len(self.front) + self.nplain

    def plain_at(self, k: int) -> Redex:
        """The `k`-th plain redex in `enumerate_redexes` order."""
        for rs in chain((self.front,), self.plain):
            if k < len(rs):
                return rs[k]
            k -= len(rs)

    def cand_at(self, k: int, prev=None):
        """The `k`-th candidate in `tlo.candidates` order, leaving out those
        that undo `prev`; only its station's candidates are built."""
        for i, n in enumerate(self.ncand):
            cs = None
            if prev is not None and i == prev.station:
                cs = [c for c in tlo.placed(i, self.cands[i])
                      if not _is_inverse_opt(prev, c)]
                n = len(cs)
            if k < n:
                return (cs or tlo.placed(i, self.cands[i]))[k]
            k -= n


def _eager(ix: _Index, rng) -> Redex | None:
    redexes = eager_enumerate(ix.config, ix.busy)
    return redexes[0] if redexes else None


def _det(ix: _Index, rng) -> Redex | None:
    # first structural redex; batched head units admit no task rule, so
    # unbatching must stay reachable or completion is partial.  Rewrites
    # are built only when no structural redex exists.
    if ix.refresh(cands=False):
        return ix.plain_at(0)
    cands = tlo.candidates(ix.config)
    # unbatch only: strictly increases the unit count, so the fallback
    # cannot cycle the way batch or the reorders can
    unb = [c for c in cands if c.rule == "unbatch"]
    return _opt(unb[0]) if unb else _opt(cands[0]) if cands else None


def _draw(ix: _Index, rng, rewrite: bool) -> Redex | None:
    # rewriting off, this is a uniform draw among the plain redexes
    n = ix.refresh(cands=rewrite)
    total, prev, undo = ix.ncands if rewrite else 0, ix.last_opt, 0
    if prev is not None:
        undo = sum(_is_inverse_opt(prev, c)
                   for c in tlo.placed(prev.station, ix.cands[prev.station]))
    if total > undo and (not n or rng.random() < 0.2):
        return _opt(ix.cand_at(rng.randrange(total - undo), prev))
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
