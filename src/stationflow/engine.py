"""Small-step reduction over whole configurations.

The frontend and the in-graph load sites share one expression stepper; the
load flavor simply refuses to emit, which is the operational face of the
phase split.  Station rules, stream routing, and the optimizer hook each
produce explicit redex descriptions so schedulers can pick among them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from . import tlo
from .state import (
    Configuration, Station, StoreEntry, Unit, append_station_tail, append_top,
    config_digest, finalize, fresh_key_name, is_terminal, is_value,
    merge_results, singleton, station_is_load_free, target,
)
from .terms import (
    CONTRACTIONS, AddOp, App, Claim, Emit, Expr, FoldOp, Int, KL, Key, Label,
    MapOp, Node, Operation, Proj, Var, children, kl_subtract, with_children,
)
# unused here, but perfbench/layers.py counts substitutions at this binding
from .terms import substitute  # noqa: F401


### one-step search inside an expression

@dataclass(frozen=True)
class ExprRedex:
    rule: str
    rebuild: object  # Expr -> Expr, fills the evaluation hole
    node: Expr       # the redex itself


@dataclass(frozen=True)
class Blocked:
    label: int


@dataclass(frozen=True)
class Stuck:
    reason: str


# why a fully evaluated constructor is no value
_MALFORMED = {KL: "malformed key list", Node: "malformed node"}


def _find(e: Expr, rebuild):
    """Locate the unique evaluation-context redex of a non-value, or report
    Stuck when no rule applies; `rebuild` fills the hole the redex leaves.
    Callers rule out values first, as every recursive call below does."""
    if isinstance(e, Var):
        return Stuck(f"free name {e.name!r}")
    cs = children(e)
    rule = CONTRACTIONS.get(type(e))
    for j, c in enumerate(cs[:rule.strict] if rule else cs):
        if not is_value(c):
            return _find(c, lambda x: rebuild(
                with_children(e, cs[:j] + (x,) + cs[j + 1:])))
    if rule is not None:
        if rule.applies(e):
            return ExprRedex(rule.rule, rebuild, e)
        return Stuck(rule.stuck)
    if isinstance(e, Emit):
        return ExprRedex("Emit", rebuild, e)
    if isinstance(e, Claim):
        if isinstance(e.arg, Label):
            return ExprRedex("Claim", rebuild, e)
        return Stuck("claim of a non-future")
    return Stuck(_MALFORMED.get(type(e), f"no step for {type(e).__name__}"))


def _contract_pure(found: ExprRedex, store) -> Expr | Blocked:
    """Contract every rule except Emit; Claim reads the store or blocks."""
    e = found.node
    if isinstance(e, Claim):
        entry = store.get(e.arg.index)
        if entry is None:
            return Blocked(e.arg.index)
        return found.rebuild(entry.value)
    return found.rebuild(CONTRACTIONS[type(e)].contract(e))


### redex descriptions over configurations

@dataclass(frozen=True)
class Redex:
    rule: str
    site: str
    station: int | None = None
    unit: int | None = None
    rewrite: object = None  # tlo.Candidate for Opt redexes


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
    found = _find(config.frontend, lambda x: x)
    if isinstance(found, Stuck):
        return found
    if found.rule == "Claim":
        label = found.node.arg.index
        if config.store_get(label) is None:
            return Blocked(label)
    return Redex(found.rule, "frontend")


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


def station_task_redexes(config: Configuration, i: int) -> list[Redex]:
    station = config.backend[i]
    if not station.streamlet:
        return []
    out: list[Redex] = []
    key = _station_key(station)
    head = station.streamlet[0]
    single = _head_singleton(station)
    last = i == len(config.backend) - 1

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


def _loadable(expr: Expr, config: Configuration) -> bool:
    # a load site steps only when its next contraction is possible now;
    # a claim on an unfilled label waits, an emit can never happen here
    found = _find(expr, lambda x: x)
    if not isinstance(found, ExprRedex) or found.rule == "Emit":
        return False
    if found.rule == "Claim":
        return config.store_get(found.node.arg.index) is not None
    return True


def station_load_redexes(config: Configuration, i: int) -> list[Redex]:
    station = config.backend[i]
    out: list[Redex] = []
    if not station.loaded and _loadable(station.node, config):
        out.append(Redex("Load", f"station:{i}/node", station=i))
    for j, unit in enumerate(station.streamlet):
        if len(unit.entries) == 1:
            _, op = unit.entries[0]
            if isinstance(op, FoldOp) and not is_value(op.base) \
                    and _loadable(op.base, config):
                out.append(Redex("Load", f"station:{i}/unit:{j}", station=i, unit=j))
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
    for i in range(len(config.backend)):
        out.extend(station_task_redexes(config, i))
        out.extend(station_load_redexes(config, i))
    if tlo_on:
        for cand in tlo.candidates(config, rules=tlo_rules,
                                   assume_set_adjacency=assume_set_adjacency):
            out.append(Redex("Opt", f"station:{cand.station}:{cand.rule}",
                             station=cand.station, rewrite=cand))
    return out


### rule application

def apply_frontend(config: Configuration) -> tuple[Configuration, str, list[int]]:
    found = _find(config.frontend, lambda x: x)
    assert isinstance(found, ExprRedex), f"no frontend redex: {found}"
    if found.rule == "Emit":
        label = config.next_label
        op = found.node.op
        new_expr = found.rebuild(Label(label))
        config = replace(config, frontend=new_expr, next_label=label + 1)
        return append_top(config, singleton(label, op)), "Emit", [label]
    store = config.store_dict()
    result = _contract_pure(found, store)
    assert not isinstance(result, Blocked), "frontend claim applied while blocked"
    labels = [found.node.arg.index] if found.rule == "Claim" else []
    return replace(config, frontend=result), found.rule, labels


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


def apply_load(config: Configuration, i: int,
               unit: int | None) -> tuple[Configuration, str, list[int]]:
    station = config.backend[i]
    store = config.store_dict()
    if unit is None:
        found = _find(station.node, lambda x: x)
        assert isinstance(found, ExprRedex), f"node load stuck: {found}"
        if found.rule == "Emit":
            raise RuntimeError("operation emission attempted during a load")
        result = _contract_pure(found, store)
        if isinstance(result, Blocked):
            raise RuntimeError(f"load blocked on label {result.label}")
        station = replace(station, node=result)
        return _set_station(config, i, station), "Load", []
    (label, op) = station.streamlet[unit].entries[0]
    assert isinstance(op, FoldOp)
    found = _find(op.base, lambda x: x)
    assert isinstance(found, ExprRedex), f"base load stuck: {found}"
    if found.rule == "Emit":
        raise RuntimeError("operation emission attempted during a load")
    result = _contract_pure(found, store)
    if isinstance(result, Blocked):
        raise RuntimeError(f"load blocked on label {result.label}")
    new_unit = singleton(label, FoldOp(op.fn, result, op.ks))
    streamlet = station.streamlet[:unit] + (new_unit,) + station.streamlet[unit + 1:]
    station = replace(station, streamlet=streamlet)
    return _set_station(config, i, station), "Load", [label]


def apply_redex(config: Configuration, r: Redex) -> tuple[Configuration, str, list[int]]:
    if r.site == "frontend":
        return apply_frontend(config)
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
        return apply_load(config, r.station, r.unit)
    if r.rule == "Opt":
        cfg, labels = tlo.apply_rewrite(config, r.rewrite)
        return cfg, "Opt", labels
    raise ValueError(f"cannot apply {r}")


### eager enumeration

_EAGER_TASK_ORDER = ("Complete", "Map", "Fold", "Last", "Prop")


def eager_enumerate(config: Configuration) -> list[Redex]:
    """The at-most-one redex the sequential discipline allows: routing beats
    everything, then the single wet station works (loads before tasks),
    then the frontend resumes on a dry backend."""
    tg = tograph_redex(config)
    if tg is not None:
        return [tg]

    wet = [i for i, s in enumerate(config.backend) if not s.idle]
    if len(wet) > 1:
        return []
    if len(wet) == 1:
        i = wet[0]
        station = config.backend[i]
        if not station.loaded:
            if _loadable(station.node, config):
                return [Redex("Load", f"station:{i}/node", station=i)]
            return []
        if not station_is_load_free(station):
            loads = station_load_redexes(config, i)
            if loads and len(station.streamlet) == 1 and loads[0].unit == 0:
                return [loads[0]]
            return []
        tasks = {r.rule: r for r in station_task_redexes(config, i)}
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


SCHEDULERS = ("eager", "det", "random", "tlo-random")


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
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    rng = random.Random(seed)
    records: list[StepRecord] = []
    last_opt = None
    for step in range(fuel):
        if is_terminal(config):
            return RunResult(config, "terminal", step, records)
        if scheduler == "eager":
            redexes = eager_enumerate(config)
            if len(redexes) > 1:
                return RunResult(config, "stuck", step, records,
                                 f"eager enumeration returned {len(redexes)} redexes")
        elif scheduler == "det":
            # first structural redex; batched head units admit no task rule,
            # so unbatching must stay reachable or completion is partial
            redexes = enumerate_redexes(config, tlo_on=True)
        elif scheduler == "random":
            redexes = enumerate_redexes(config, tlo_on=False)
        else:  # tlo-random
            redexes = enumerate_redexes(config, tlo_on=True, tlo_rules=tlo_rules,
                                        assume_set_adjacency=assume_set_adjacency)

        if not redexes:
            fr = frontend_redex(config)
            if isinstance(fr, Blocked):
                return RunResult(config, "blocked", step, records,
                                 f"frontend waits on label {fr.label}")
            if isinstance(fr, Stuck):
                return RunResult(config, "stuck", step, records, fr.reason)
            return RunResult(config, "stuck", step, records, "no applicable rule")

        if scheduler == "tlo-random":
            opts_all = [r for r in redexes if r.rule == "Opt"]
            opts = [r for r in opts_all
                    if not _is_inverse_opt(last_opt, r.rewrite)]
            plain = [r for r in redexes if r.rule != "Opt"]
            if opts and (not plain or rng.random() < 0.2):
                choice = opts[rng.randrange(len(opts))]
            elif plain:
                choice = plain[rng.randrange(len(plain))]
            else:
                # the guard may not wedge the run; undo if that is all there is
                choice = opts_all[rng.randrange(len(opts_all))]
        elif scheduler == "random":
            choice = redexes[rng.randrange(len(redexes))]
        elif scheduler == "det":
            plain = [r for r in redexes if r.rule != "Opt"]
            if plain:
                choice = plain[0]
            else:
                # unbatch only: strictly increases the unit count, so the
                # fallback cannot cycle the way batch or the reorders can
                unb = [r for r in redexes if r.rewrite.rule == "unbatch"]
                choice = unb[0] if unb else redexes[0]
        else:  # eager
            choice = redexes[0]

        config, rule, labels = apply_redex(config, choice)
        last_opt = choice.rewrite if choice.rule == "Opt" else None
        if trace:
            records.append(StepRecord(step, rule, choice.site, tuple(labels),
                                      config_digest(config)))
    return RunResult(config, "fuel", fuel, records, "fuel exhausted")


def write_trace(path, records: list[StepRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")
