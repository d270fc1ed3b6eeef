"""Reduction behavior: emission order, routing, station processing,
claim blocking, the eager policy and schedule-independence."""

import copy
import dataclasses
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationflow import engine, harness, state, terms, tlo
from stationflow.engine import (
    apply_redex, eager_enumerate, enumerate_redexes, run,
)
from stationflow.parser import parse_source
from stationflow.state import Station, Unit
from stationflow.terms import (
    INT, NODE, AddOp, App, Arith, Claim, Concat, Emit, Fix, FoldOp, If0, Int,
    KL, Key, Label, Lam, Len, MapOp, Node, Proj, Subtract, TFun, Var,
    children, free_vars, op_args, with_children,
)
from stationflow.types import type_of_expr
from conftest import mix_config, walk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def step_until(config, pred, limit=500):
    for _ in range(limit):
        if pred(config):
            return config
        redexes = enumerate_redexes(config)
        assert redexes, "ran out of redexes"
        config, _, _ = apply_redex(config, redexes[0])
    raise AssertionError("predicate never held")


class TestEmission:
    def test_labels_in_program_order(self, init_cg):
        config = init_cg("let a = add 1 in let b = add 2 in 0")
        seen = []
        for _ in range(40):
            if state.is_terminal(config):
                break
            r = enumerate_redexes(config)[0]
            config, rule, labels = apply_redex(config, r)
            if rule == "Emit":
                seen.extend(labels)
        assert seen == [0, 1]

    def test_emission_needs_value_arguments(self, init_cg):
        # the target list must finish evaluating before the emit fires
        config = init_cg("map (fun x : node -> x) ([#a] ++ [#b])")
        fr = engine.frontend_redex(config)
        assert fr is not None and fr.rule != "Emit"

    def test_add_payload_evaluated_before_emission(self, init_cg):
        config = init_cg("add (1 + 2)")
        config = step_until(config, lambda c: len(c.top) > 0)
        (label, op), = config.top[0].entries
        assert isinstance(op, AddOp) and op.arg == Int(3)


A, B = Key("a"), Key("b")
ID_INT = Lam("x", INT, Var("x"))
HOLE = Int(99)

# every non-value form, each once as a redex and once stuck: the rule
# `_find` names, or the reason it reports
REDEX_SEARCH = [
    (App(ID_INT, Int(1)), "Beta"),
    (Fix(Lam("f", TFun(INT, False, INT), ID_INT)), "Fix"),
    (Proj(2, Node(A, Int(1), KL(()))), "Node"),
    (Concat(KL((A,)), KL(())), "KSA"),
    (Subtract(KL((A, B)), KL((A,))), "KSS"),
    (Arith("+", Int(1), Int(2)), "Arith"),
    (If0(Int(0), Int(1), Var("never")), "If0"),  # branches are not searched
    (Len(KL((A,))), "Len"),
    (Claim(Label(0)), "Claim"),
    (Emit(AddOp(Int(1))), "Emit"),
    (Var("x"), "free name 'x'"),
    (App(Int(1), Int(2)), "application of a non-function"),
    (Fix(ID_INT), "fix needs a function that returns a function"),
    (Proj(1, Int(3)), "projection from a non-node"),
    (KL((Int(1),)), "malformed key list"),
    (Node(Int(1), Int(2), KL(())), "malformed node"),
    (Concat(Int(1), KL(())), "concatenation of non-key-lists"),
    (Subtract(KL(()), Int(1)), "subtraction of non-key-lists"),
    (Arith("*", A, Int(1)), "arithmetic on non-integers"),
    (If0(A, Int(1), Int(2)), "conditional on a non-integer"),
    (Len(Int(1)), "len of a non-key-list"),
    (Claim(Int(1)), "claim of a non-future"),
]

ARITH = Arith("+", Int(1), Int(2))

# the leftmost non-value child of the listed positions holds the redex;
# filling the hole with HOLE rebuilds the surrounding term
REDEX_CONTEXTS = [
    (App(App(ID_INT, Int(1)), ARITH), App(HOLE, ARITH)),
    (App(ID_INT, ARITH), App(ID_INT, HOLE)),
    (Fix(App(ID_INT, ID_INT)), Fix(HOLE)),
    (Proj(1, Node(A, ARITH, KL(()))), Proj(1, Node(A, HOLE, KL(())))),
    (KL((A, ARITH, Len(KL(())))), KL((A, HOLE, Len(KL(()))))),
    (Node(A, ARITH, Len(KL(()))), Node(A, HOLE, Len(KL(())))),
    (Concat(KL(()), Concat(KL(()), KL(()))), Concat(KL(()), HOLE)),
    (Subtract(Concat(KL(()), KL(())), KL(())), Subtract(HOLE, KL(()))),
    (Arith("-", Int(1), ARITH), Arith("-", Int(1), HOLE)),
    (If0(ARITH, ARITH, ARITH), If0(HOLE, ARITH, ARITH)),
    (Len(Concat(KL(()), KL(()))), Len(HOLE)),
    (Claim(Claim(Label(0))), Claim(HOLE)),
    (Emit(FoldOp(ID_INT, Node(A, ARITH, KL(())), KL(()))),
     Emit(FoldOp(ID_INT, Node(A, HOLE, KL(())), KL(())))),
]
# the hole of each context above: child positions from the term down
CONTEXT_PATHS = [(0,), (1,), (0,), (0, 1), (1,), (1,), (1,), (0,), (1,),
                 (0,), (0,), (0,), (1, 1)]


def fill(term, path, x):
    """`term` with `x` in the hole at `path`."""
    spine, _ = engine._descend(term, path)
    return engine._plug(spine, x)


class TestRedexSearch:
    @pytest.mark.parametrize("term,expected", REDEX_SEARCH)
    def test_rule_or_stuck_reason(self, term, expected):
        found = engine._find(term)
        if isinstance(found, engine.Stuck):
            assert found.reason == expected
        else:
            rule, label, path = found
            assert (rule, engine._descend(term, path)[1], path,
                    fill(term, path, HOLE)) == (expected, term, (), HOLE)
            assert label == (0 if rule == "Claim" else None)

    @pytest.mark.parametrize("term,filled", REDEX_CONTEXTS)
    def test_evaluation_context(self, term, filled):
        _, _, path = engine._find(term)
        assert fill(term, path, HOLE) == filled

    def test_hole_paths(self):
        assert [engine._find(term)[2]
                for term, _ in REDEX_CONTEXTS] == CONTEXT_PATHS

    def test_emit_context_keeps_its_location(self):
        term = Emit(AddOp(ARITH), loc=(3, 4))
        assert fill(term, engine._find(term)[2], HOLE).loc == (3, 4)

    @pytest.mark.parametrize("term,status,detail", [
        (App(Int(1), Int(2)), "stuck", "application of a non-function"),
        (Node(Int(1), Int(2), KL(())), "stuck", "malformed node"),
        (Claim(Int(1)), "stuck", "claim of a non-future"),
        (Arith("+", Var("x"), Int(1)), "stuck", "free name 'x'"),
        (Claim(Label(5)), "blocked", "frontend waits on label 5"),
    ])
    def test_reason_reaches_the_run_result(self, term, status, detail):
        for scheduler in ("eager", "random"):
            r = run(state.Configuration((), (), (), term), scheduler=scheduler)
            assert (r.status, r.steps, r.detail) == (status, 0, detail)

    def test_contractions(self):
        cases = [
            (App(Lam("x", INT, Arith("*", Var("x"), Var("x"))), Int(3)),
             Arith("*", Int(3), Int(3))),
            (Proj(3, Node(A, Int(1), KL((B,)))), KL((B,))),
            (Concat(KL((A,)), KL((B,))), KL((A, B))),
            (Subtract(KL((A, B, A)), KL((A,))), KL((B,))),
            (Arith("/", Int(-7), Int(2)), Int(-3)),
            (If0(Int(1), Int(2), Int(3)), Int(3)),
            (Len(KL((A, B))), Int(2)),
        ]
        for term, contractum in cases:
            config = state.Configuration((), (), (), term)
            config, _, _ = apply_redex(config, engine.frontend_redex(config))
            assert config.frontend == contractum

    def test_fix_unrolls_once(self):
        body = Lam("n", INT, App(Var("f"), Var("n")))
        fix = Fix(Lam("f", TFun(INT, False, INT), body))
        config = state.Configuration((), (), (), fix)
        config, rule, _ = apply_redex(config, engine.frontend_redex(config))
        assert rule == "Fix"
        assert config.frontend == Lam("n", INT, App(fix, Var("n")))


class TestRouting:
    def test_add_prepends_station_and_stores_key(self, run_cg):
        r = run_cg("graph [#old : 1 []]\n"
                   "let k = claim (add 9) in 0")
        assert r.status == "terminal"
        keys = [s.node.key.name for s in r.config.backend]
        assert keys == ["@k0", "old"]

    def test_generated_keys_fifo_across_adds(self, run_cg):
        r = run_cg("let a = claim (add 1) in let b = claim (add 2) in\n"
                   "payload(claim (queryNode b))")
        assert r.config.frontend == Int(2)

    def test_empty_backend_stores_directly(self, run_cg):
        r = run_cg("claim (map (fun x : node -> x) [#ghost])")
        assert r.status == "terminal"
        assert r.config.frontend == Int(0)

    def test_unmatched_fold_keeps_residual(self, run_cg):
        r = run_cg("graph [#a : 1 []]\n"
                   "claim (foldVal (fun n : node -> fun acc : int ->"
                   " payload(n) + acc) 0 [#a, #missing])")
        assert r.status == "terminal"
        assert r.config.frontend.payload == Int(1)
        assert any(e.residual == ("missing",) for _, e in r.config.store)


class TestClaims:
    def test_claim_blocks_until_result(self, init_cg):
        config = init_cg("claim (add 5)")
        fr = engine.frontend_redex(config)
        assert fr.rule == "Emit"
        config, _, _ = apply_redex(config, fr)
        # operation still in flight: the frontend cannot move
        assert isinstance(engine.frontend_redex(config), engine.Blocked)

    def test_claims_in_function_bodies_resolve(self, run_cg):
        r = run_cg("let f = fun x : int -> claim (add x) in f 1; 0",
                   fuel=1_000)
        assert r.status == "terminal"


ID_NODE = Lam("x", NODE, Var("x"))
KEEP_ACC = Lam("n", NODE, Lam("acc", INT, Var("acc")))
LOADED = Node(A, Int(1), KL(()))
UNLOADED = Node(A, Arith("+", Int(1), Int(1)), KL(()))
ON_A, ON_B, ON_NONE = KL((A,)), KL((B,)), KL(())


def with_head(node, *ops):
    """A station at `node` whose head unit holds `ops`, with one more unit
    behind it that no rule may read."""
    return Station(node, (Unit(tuple(enumerate(ops))), Unit(((9, ops[0]),))))


# station, then the rules it offers as an inner station and as the last one
STATION_RULES = {
    "map, loaded, key targeted": (
        with_head(LOADED, MapOp(ID_NODE, ON_A)), ["Map"], ["Map"]),
    "map, unloaded, key targeted": (
        with_head(UNLOADED, MapOp(ID_NODE, ON_A)), [], []),
    "map, loaded, key not targeted": (
        with_head(LOADED, MapOp(ID_NODE, ON_B)), ["Prop"], ["Last"]),
    "map, unloaded, key not targeted": (
        with_head(UNLOADED, MapOp(ID_NODE, ON_B)), ["Prop"], ["Last"]),
    "map, empty target": (
        with_head(LOADED, MapOp(ID_NODE, ON_NONE)),
        ["Complete", "Prop"], ["Complete", "Last"]),
    "fold, loaded, key targeted": (
        with_head(LOADED, FoldOp(KEEP_ACC, Int(0), ON_A)), ["Fold"], ["Fold"]),
    "fold, unloaded, key targeted": (
        with_head(UNLOADED, FoldOp(KEEP_ACC, Int(0), ON_A)), [], []),
    "fold, loaded, key not targeted": (
        with_head(LOADED, FoldOp(KEEP_ACC, Int(0), ON_B)), ["Prop"], ["Last"]),
    "fold, unloaded, key not targeted": (
        with_head(UNLOADED, FoldOp(KEEP_ACC, Int(0), ON_B)),
        ["Prop"], ["Last"]),
    "fold, empty target": (
        with_head(LOADED, FoldOp(KEEP_ACC, Int(0), ON_NONE)),
        ["Complete", "Prop"], ["Complete", "Last"]),
    "fold, base not a value, key targeted": (
        with_head(LOADED, FoldOp(KEEP_ACC, ARITH, ON_A)), ["Fold"], ["Fold"]),
    "fold, base not a value, key not targeted": (
        with_head(LOADED, FoldOp(KEEP_ACC, ARITH, ON_B)), ["Prop"], []),
    "fold, base not a value, empty target": (
        with_head(LOADED, FoldOp(KEEP_ACC, ARITH, ON_NONE)), ["Prop"], []),
    "map, key list not loaded": (
        with_head(LOADED, MapOp(ID_NODE, Concat(ON_A, ON_B))), [], []),
    "batched, key not targeted": (
        with_head(LOADED, MapOp(ID_NODE, ON_B),
                  FoldOp(KEEP_ACC, Int(0), ON_NONE)), ["Prop"], []),
    "batched, key targeted": (
        with_head(LOADED, MapOp(ID_NODE, ON_B), MapOp(ID_NODE, ON_A)),
        [], []),
    "batched, empty targets": (
        with_head(LOADED, MapOp(ID_NODE, ON_NONE),
                  FoldOp(KEEP_ACC, Int(0), ON_NONE)), ["Prop"], []),
    "empty streamlet": (Station(LOADED), [], []),
}


class TestStationRules:
    """The task rules `station_task_redexes` offers on hand-built stations:
    which apply, and in what order."""

    @pytest.mark.parametrize("name", STATION_RULES)
    def test_rules_offered(self, name):
        station, inner, last = STATION_RULES[name]
        for is_last, want in ((False, inner), (True, last)):
            got = engine.station_task_redexes(station, 4, is_last)
            assert [r.rule for r in got] == want, f"last={is_last}"
            assert all((r.site, r.station, r.unit, r.path)
                       == ("station:4", 4, None, ()) for r in got)

    @pytest.mark.parametrize("name", STATION_RULES)
    def test_eager_takes_complete_map_fold_last_prop(self, name):
        station, inner, last = STATION_RULES[name]
        if not station.loaded or any(
                isinstance(op, FoldOp) and not terms.is_value(op.base)
                for unit in station.streamlet for _, op in unit.entries):
            return
        idle = Station(Node(B, Int(2), KL(())))
        for backend, offered in (((station, idle), inner), ((station,), last)):
            config = state.Configuration(backend, (), (), Int(0),
                                         next_label=10)
            want = sorted(offered, key=("Complete", "Map", "Fold", "Last",
                                        "Prop").index)[:1]
            assert [r.rule for r in eager_enumerate(config)] == want


class TestApplyRedex:
    """`apply_redex` reports the rule of the redex it applied."""

    @staticmethod
    def assert_rules_kept(config, redexes):
        for r in redexes:
            assert apply_redex(config, r)[1] == r.rule, r

    def test_along_the_corpus_walks(self):
        rules = set()
        for k, name in enumerate(harness.RUNNABLE):
            config = state.init(harness.corpus_program(name))
            for ix in walk(config, k, tlo_on=True):
                redexes = enumerate_redexes(ix.config, tlo_on=True)
                self.assert_rules_kept(ix.config, redexes)
                rules.update(r.rule for r in redexes)
        assert {"Map", "Fold", "Complete", "Last", "Prop", "Load", "Opt",
                "Emit", "Add", "First", "Claim"} <= rules

    @pytest.mark.parametrize("scheduler", engine.SCHEDULERS)
    def test_along_the_runs(self, reached, scheduler):
        def checked(ix):
            self.assert_rules_kept(ix.config, eager_enumerate(ix.config))
            self.assert_rules_kept(ix.config, enumerate_redexes(ix.config,
                                                                tlo_on=True))

        for name in harness.RUNNABLE:
            seen = reached(checked)
            config = state.init(harness.corpus_program(name))
            r = run(config, scheduler=scheduler, seed=3)
            assert r.status == "terminal" and len(seen) == r.steps + 1

    def test_the_site_is_derived(self, init_cg):
        # a redex stores no site; each kind derives its text from its rule,
        # station, unit and rewrite
        assert "site" not in {f.name for f in dataclasses.fields(engine.Redex)}
        unit = Unit(((0, MapOp(ID_NODE, KL((A,)))),
                     (1, MapOp(ID_NODE, KL((B,))))))
        cases = [
            (engine.frontend_redex(init_cg("1 + 2")), "Arith", "frontend"),
            (engine.frontend_redex(init_cg("add 1")), "Emit", "frontend"),
            (engine.Redex("Claim", None, None, None, (0,)), "Claim",
             "frontend"),
            *[(engine.Redex(rule), rule, "top")
              for rule in ("Add", "Empty", "First")],
            *[(engine._plain_redex(4, rule), rule, "station:4")
              for rule in ("Map", "Fold", "Complete", "Last", "Prop")],
            (engine._plain_redex(4, (None, (1, 0))), "Load", "station:4/node"),
            (engine._plain_redex(4, (2, (0,))), "Load", "station:4/unit:2"),
            (engine._opt(tlo.candidate(("unbatch", 1), 3, 0, (unit,))), "Opt",
             "station:3:unbatch"),
        ]
        for r, rule, site in cases:
            assert (r.rule, r.site) == (rule, site)

    def test_unknown_rule_is_named(self):
        config = state.init(harness.corpus_program("core_social"))
        with pytest.raises(ValueError, match="Bogus"):
            apply_redex(config, engine.Redex("Bogus", 0))


def reference_eager_enumerate(config):
    """`eager_enumerate` as it was written over `_load_sites`: it tests the
    wet station's node through `Station.loaded` and builds every load site
    of a station with a loading fold base, taking the first where it is a
    lone head fold's."""
    tg = engine.tograph_redex(config)
    if tg is not None:
        return [tg]
    wet = [i for i, s in enumerate(config.backend) if not s.idle]
    if len(wet) > 1:
        return []
    if len(wet) == 1:
        (i,) = wet
        station = config.backend[i]
        if not station.loaded:
            step = engine._find(station.node)
            if not isinstance(step, engine.Stuck) and step[0] != "Emit" \
                    and engine._ready(config, step[1]):
                return [engine.Redex("Load", i, path=step[2])]
            return []
        if not all(not (isinstance(op, FoldOp) and not terms.is_value(op.base))
                   for unit in station.streamlet for _, op in unit.entries):
            loads = [entry for entry, label
                     in engine._load_sites(station, engine._find)
                     if engine._ready(config, label)]
            if loads and len(station.streamlet) == 1 and loads[0][0] == 0:
                return [engine._plain_redex(i, loads[0])]
            return []
        last = i == len(config.backend) - 1
        return engine.station_task_redexes(station, i, last)[:1]
    fr = engine.frontend_redex(config)
    return [fr] if isinstance(fr, engine.Redex) else []


class TestEagerPolicy:
    def test_equals_the_reference_on_walks(self):
        # every configuration the harness walks reach, with rewrites on and
        # off, over the corpus and four op mixes; among them are lone wet
        # stations with a ready load site at a fold after the head, where
        # eager takes nothing
        starts = [*[lambda n=n: state.init(harness.corpus_program(n))
                    for n in harness.RUNNABLE],
                  *[lambda s=s: mix_config(s) for s in range(4)]]
        waits = 0
        for k, start in enumerate(starts):
            for tlo_on in (True, False):
                for ix in walk(start(), k, tlo_on):
                    want = reference_eager_enumerate(ix.config)
                    got = eager_enumerate(ix.config)
                    assert got == want and eager_enumerate(ix.config,
                                                           ix.busy) == want
                    assert [r.site for r in got] == [r.site for r in want]
                    waits += not want and len(ix.busy) == 1 and any(
                        j and engine._ready(ix.config, label)
                        for i in ix.busy for (j, _), label in
                        engine._load_sites(ix.config.backend[i], engine._find))
        assert waits

    @pytest.mark.parametrize("name", harness.RUNNABLE)
    def test_at_most_one_redex(self, name):
        config = state.init(harness.corpus_program(name))
        for _ in range(200_000):
            if state.is_terminal(config):
                break
            redexes = eager_enumerate(config)
            assert len(redexes) <= 1, f"{name}: policy offered {len(redexes)}"
            assert redexes, f"{name}: eager policy wedged"
            config, _, _ = apply_redex(config, redexes[0])
        else:
            raise AssertionError("did not terminate")

    def test_one_unit_in_flight(self):
        # while any unit is wet the frontend must not emit
        config = state.init(harness.corpus_program("core_social"))
        for _ in range(200_000):
            if state.is_terminal(config):
                break
            (r,) = eager_enumerate(config)
            if r.rule == "Emit":
                assert state.is_dry(config) and not config.top
            config, _, _ = apply_redex(config, r)


class TestScheduleIndependence:
    @pytest.mark.parametrize("name", harness.RUNNABLE)
    def test_random_matches_eager(self, name):
        prog = harness.corpus_program(name)
        base = run(state.init(prog), scheduler="eager")
        assert base.status == "terminal"
        want = state.terminal_digest(base.config)
        for seed in (1, 2, 3):
            r = run(state.init(prog), scheduler="random", seed=seed)
            assert r.status == "terminal"
            assert state.terminal_digest(r.config) == want, f"seed {seed}"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_any_seed_matches_eager(self, seed):
        prog = harness.corpus_program("chronological_order")
        base = run(state.init(prog), scheduler="eager")
        r = run(state.init(prog), scheduler="tlo-random", seed=seed)
        assert r.status == "terminal"
        assert (state.terminal_digest(r.config)
                == state.terminal_digest(base.config))

    # sha256 over every seeded trace below; a change to the trace or digest
    # encoding updates it on purpose and says so
    GOLDEN_TRACES = (
        "041ca329aca1bac9560df79c62bb855faba9ff4221ce2c9a5f4bae76ce35a481")

    def test_seeded_traces_are_pinned(self):
        h = hashlib.sha256()
        for name in harness.RUNNABLE:
            prog = harness.corpus_program(name)
            for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                    ("tlo-random", 3)):
                r = run(state.init(prog), scheduler=scheduler, seed=seed,
                        trace=True)
                for rec in r.trace:
                    h.update(rec.to_json().encode() + b"\n")
                h.update(f"{r.status} {r.steps}\n".encode())
        assert h.hexdigest() == self.GOLDEN_TRACES

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            run(state.Configuration((), (), (), Int(0)), scheduler="bogus")

    def test_same_seed_same_trace(self):
        prog = harness.corpus_program("core_social")
        a = run(state.init(prog), scheduler="tlo-random", seed=5, trace=True)
        b = run(state.init(prog), scheduler="tlo-random", seed=5, trace=True)
        assert [r.to_json() for r in a.trace] == [r.to_json() for r in b.trace]


class TestStepRecordJson:
    """`StepRecord.to_json` formats a record itself; it must write what
    `json.dumps` of the record's fields with sorted keys writes."""

    @staticmethod
    def dumps(rec):
        return json.dumps({"step": rec.step, "rule": rec.rule,
                           "site": rec.site, "labels": list(rec.labels),
                           "digest": rec.digest}, sort_keys=True)

    @staticmethod
    def corpus_records():
        records = []
        for name in harness.RUNNABLE:
            prog = harness.corpus_program(name)
            for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                    ("tlo-random", 3)):
                records += run(state.init(prog), scheduler=scheduler,
                               seed=seed, trace=True).trace
        return records

    def test_corpus_records(self):
        records = self.corpus_records()
        assert [r.to_json() for r in records] == list(map(self.dumps, records))
        # rewrite sites (`station:i:rule`), no labels and several labels
        assert any(r.rule == "Opt" and r.site.count(":") == 2 for r in records)
        assert any(not r.labels for r in records)
        assert any(len(r.labels) > 2 for r in records)

    def test_text_is_escaped_as_json_dumps_escapes_it(self):
        rec = engine.StepRecord(0, 'a"b\\c', "station:0:\u00e9\u4e2d\n", (7,),
                                "0f")
        assert rec.to_json() == self.dumps(rec)

    def test_trace_file_is_one_dumps_line_per_record(self, tmp_path):
        records = self.corpus_records()
        path = tmp_path / "trace.jsonl"
        engine.write_trace(path, records)
        assert path.read_bytes() == "".join(
            self.dumps(r) + "\n" for r in records).encode()


class TestNoOvertaking:
    def test_streamlet_labels_stay_sorted(self):
        # emission order is label order; a streamlet must never hold a
        # younger unit ahead of an older one
        prog = harness.corpus_program("core_social")
        config = state.init(prog)
        rng = random.Random(13)
        for _ in range(100_000):
            if state.is_terminal(config):
                break
            redexes = enumerate_redexes(config)
            config, _, _ = apply_redex(config,
                                       redexes[rng.randrange(len(redexes))])
            for s in config.backend:
                heads = [min(l for l, _ in u.entries) for u in s.streamlet]
                assert heads == sorted(heads)


def bare(config):
    """`config` rebuilt term by term, station by station, with its store
    and top stream: equal, and carrying none of the values kept on
    stations, units, store entries and terms."""
    def term(e):
        cs = children(e)
        return (with_children(e, tuple(map(term, cs))) if cs
                else dataclasses.replace(e))

    def unit(u):
        return Unit(tuple((label, type(op)(*map(term, op_args(op))))
                          for label, op in u.entries))

    backend = tuple(Station(term(s.node), tuple(map(unit, s.streamlet)))
                    for s in config.backend)
    store = tuple((label, state.StoreEntry(term(e.value), e.residual))
                  for label, e in config.store)
    out = dataclasses.replace(config, backend=backend,
                              top=tuple(map(unit, config.top)), store=store,
                              frontend=term(config.frontend))
    assert out == config
    return out


KEPT = ("_step", "_sexpr", "_fv")


def reference_free_vars(e):
    """The names free in `e`, worked out afresh over the whole term: the
    oracle for the sets `terms.free_vars` keeps."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Lam):
        return reference_free_vars(e.body) - {e.param}
    out = frozenset()
    for c in children(e):
        out |= reference_free_vars(c)
    return out


def held_terms(config):
    """Every term `config` holds, subterms included, each object once: the
    station nodes, the arguments of every operation in a streamlet or the
    top stream, the store's values and the frontend."""
    units = [*config.top, *(u for s in config.backend for u in s.streamlet)]
    todo = [*(s.node for s in config.backend),
            *(a for u in units for _, op in u.entries for a in op_args(op)),
            *(e.value for _, e in config.store), config.frontend]
    seen = {}
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            todo.extend(children(e))
    return seen.values()


class TestKeptFreeNames:
    """The free names kept on a term are the ones the reference finds."""

    @pytest.mark.parametrize("name", harness.RUNNABLE)
    def test_kept_equal_reference_on_the_corpus(self, reached, name):
        prog = harness.corpus_program(name)
        for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                ("tlo-random", 3)):
            seen = reached(lambda ix: None)
            r = run(state.init(prog), scheduler=scheduler, seed=seed)
            assert r.status == "terminal"
            assert len(seen) == r.steps + 1
            # checked once the run is over, so sets kept late are included
            terms = {id(e): e for c in seen for e in held_terms(c)}.values()
            kept = 0
            for e in terms:
                want = reference_free_vars(e)
                if "_fv" in e.__dict__:
                    kept += 1
                    assert e.__dict__["_fv"] == want
                assert free_vars(e) == want
            assert kept


class TestKeptRedexes:
    """Redexes and rewrite candidates read through what terms keep equal
    what a bare copy of the configuration yields."""

    def run_compared(self, reached, prog, scheduler, seed, tlo_rules=None,
                     assume_set_adjacency=False):
        rewrite = dict(tlo_rules=tlo_rules,
                       assume_set_adjacency=assume_set_adjacency)

        def checked(ix):
            config = ix.config
            fresh = bare(config)
            for kw in (dict(tlo_on=False), dict(tlo_on=True, **rewrite)):
                assert (enumerate_redexes(config, **kw)
                        == enumerate_redexes(fresh, **kw))
            assert (tlo.candidates(config, tlo_rules, assume_set_adjacency)
                    == tlo.candidates(fresh, tlo_rules, assume_set_adjacency))

        seen = reached(checked)
        r = run(state.init(prog), scheduler=scheduler, seed=seed, **rewrite)
        assert r.status == "terminal"
        assert len(seen) == r.steps + 1
        return r

    @pytest.mark.parametrize("name", harness.RUNNABLE)
    def test_kept_equal_bare_on_the_corpus(self, reached, name):
        prog = harness.corpus_program(name)
        for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                ("tlo-random", 3)):
            self.run_compared(reached, prog, scheduler, seed)

    def test_kept_equal_bare_on_an_op_mix(self, monkeypatch, reached):
        # schedule 20 applies every rewrite rule, fusemid only under set
        # adjacency; a reorderrw puts `dcomp` terms into fold functions
        monkeypatch.syspath_prepend(str(PERFBENCH))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        import programs
        gen = programs.mix_program(8, 1, random.Random(1), random.Random(1))
        prog = parse_source(gen.source, "mix.cg")
        applied = []
        apply_rewrite = tlo.apply_rewrite

        def recorded(config, cand):
            applied.append(cand.rule)
            return apply_rewrite(config, cand)

        monkeypatch.setattr(tlo, "apply_rewrite", recorded)
        r = self.run_compared(reached, prog, "tlo-random", 20,
                              assume_set_adjacency=True)
        assert r.config.frontend == Int(gen.expected)
        assert set(applied) == set(tlo.RULE_NAMES)

    def test_an_add_shifts_the_kept_indices(self):
        config = state.init(parse_source(
            "graph [#a: 1 [], #b: 2 []]\n"
            "mapVal (fun v: node -> payload(v) + 1) [#b];\n"
            "mapVal (fun v: node -> payload(v) * 2) [#b];\n"
            "let k = claim (add 7) in 0\n", "add.cg"))
        # emit and route both maps, then emit the add
        while not (config.top
                   and isinstance(config.top[-1].entries[0][1], AddOp)):
            redex = engine.tograph_redex(config) or engine.frontend_redex(config)
            config, _, _ = apply_redex(config, redex)
        # both maps wait at #a, at index 0, until the Add puts a station first
        assert len(config.backend[0].streamlet) == 2
        before = enumerate_redexes(config, tlo_on=True)
        assert {r.station for r in before if r.rule == "Opt"} == {0}
        config, rule, _ = apply_redex(config, engine.tograph_redex(config))
        assert rule == "Add"
        after = enumerate_redexes(config, tlo_on=True)
        assert after == enumerate_redexes(bare(config), tlo_on=True)
        assert {r.station for r in after if r.rule in ("Opt", "Prop")} == {1}

    def test_eager_keeps_nothing_on_stations(self, reached):
        # every eager step replaces the wet station: nothing the redex
        # search finds would be read again, on the station, its units or
        # its load terms; an operation keeps only its target, which a Prop
        # carries on to the next station.  Each configuration is checked
        # once the run is over, after eager has looked into it, and the
        # untraced run writes no digest text.  Fields live in slots, so an
        # instance `__dict__` holds kept values only
        seen = reached(lambda ix: None)
        for name in harness.RUNNABLE:
            seen.clear()
            # a copy of its own: the cached corpus program carries what
            # other runs kept on its terms
            prog = parse_source(harness.corpus_text(name), f"{name}.cg")
            r = run(state.init(prog))
            assert r.status == "terminal"
            assert len(seen) == r.steps + 1
            for s in {id(s): s for c in seen for s in c.backend}.values():
                assert not set(KEPT) & set(s.__dict__)
                for u in s.streamlet:
                    assert u.__dict__ == {}
                    for _, op in u.entries:
                        assert set(op.__dict__) <= {"_target"}
                terms = [s.node] + [op.base for u in s.streamlet
                                    for _, op in u.entries
                                    if isinstance(op, FoldOp)]
                assert not any("_step" in e.__dict__ for e in terms)

    def test_kept_values_leave_equality_alone(self):
        # stations, like units and store entries, keep their digest text;
        # the terms they hold keep what the redex search found and their
        # printed form
        config = state.init(harness.corpus_program("chronological_order"))
        for _ in range(28):  # mid-run: the fold visits next
            config, _, _ = apply_redex(config, enumerate_redexes(config)[0])
        enumerate_redexes(config, tlo_on=True)
        state.config_digest(config)

        def ignored(x, names):
            fresh = type(x)(*(getattr(x, f.name)
                              for f in dataclasses.fields(x)))
            assert not set(names) & set(fresh.__dict__)
            assert fresh == x and hash(fresh) == hash(x)
            rebuilt = dataclasses.replace(x)
            assert not set(names) & set(rebuilt.__dict__)
            assert rebuilt == x and hash(rebuilt) == hash(x)

        terms = [config.frontend] + [s.node for s in config.backend] + [
            op.base for s in config.backend for u in s.streamlet
            for _, op in u.entries if isinstance(op, FoldOp)]
        kept = [e for e in terms if set(KEPT) <= set(e.__dict__)]
        assert kept
        for e in kept:
            ignored(e, KEPT)
        for s in config.backend:
            assert set(s.__dict__) <= {"_json"}
        holders = [*config.backend, *(u for s in config.backend
                                      for u in s.streamlet),
                   *(e for _, e in config.store)]
        assert {type(x) for x in holders} == {Station, Unit, state.StoreEntry}
        for x in holders:
            assert "_json" in x.__dict__
            ignored(x, ("_json",))


def plus(k):
    return Lam("x", NODE, Node(Proj(1, Var("x")),
                               Arith("+", Proj(2, Var("x")), Int(k)),
                               Proj(3, Var("x"))))


def batched_start():
    """A station whose head unit batches two maps: it admits no task rule,
    so det must unbatch it."""
    batched = Unit(((0, MapOp(plus(1), KL((A,)))),
                    (1, MapOp(plus(1), KL((A,))))))
    return state.Configuration(
        (Station(Node(A, Int(3), KL(())), (batched,)),), (), (), Int(0),
        next_label=2)


class TestRewriteCounts:
    """`run` counts the rewrites it applies by rule."""

    @pytest.mark.parametrize("scheduler", ("tlo-random", "det"))
    def test_counts_what_was_applied(self, monkeypatch, scheduler):
        applied = []
        apply_rewrite = tlo.apply_rewrite

        def recorded(config, cand):
            applied.append(cand.rule)
            return apply_rewrite(config, cand)

        monkeypatch.setattr(tlo, "apply_rewrite", recorded)
        # seed 3 applies every rule to the op mix; det unbatches only the
        # batched start
        configs = [state.init(harness.corpus_program(n))
                   for n in harness.RUNNABLE] + [mix_config(8),
                                                  batched_start()]
        counted = set()
        for config in configs:
            for seed in (0, 3):
                applied.clear()
                r = run(config, scheduler=scheduler, seed=seed,
                        assume_set_adjacency=True)
                assert r.status == "terminal"
                assert r.rewrites == dict(Counter(applied))
                counted |= r.rewrites.keys()
        assert counted == ({"unbatch"} if scheduler == "det"
                           else set(tlo.RULE_NAMES))


class TestDetScheduler:
    @pytest.mark.parametrize("scheduler", ("eager", "random", "det"))
    def test_only_tlo_random_builds_windows(self, monkeypatch, scheduler):
        # no scheduler but tlo-random draws a rewrite from the windows, so
        # no other index builds them; det's unbatch reads the streamlet
        def refused(*args, **kwargs):
            raise AssertionError(f"{scheduler} built rewrite windows")

        monkeypatch.setattr(tlo, "station_windows", refused)
        starts = [state.init(harness.corpus_program(n))
                  for n in harness.RUNNABLE] + [mix_config(1)]
        for config in starts:
            assert run(config, scheduler=scheduler, seed=3).status == "terminal"
        r = run(batched_start(), scheduler=scheduler, seed=3, trace=True)
        if scheduler == "det":
            assert r.status == "terminal"
            assert r.trace[0].site == "station:0:unbatch"
        else:  # only a rewrite splits the batched head
            assert (r.status, r.detail) == ("stuck", "no applicable rule")

    def test_fallback_reads_the_index(self, monkeypatch):
        # det finds its unbatch in the index's configuration, never by
        # `tlo.candidates`, and steps as the reference loop does
        configs = [state.init(harness.corpus_program(n))
                   for n in harness.RUNNABLE] + [mix_config(1), batched_start()]
        want = [reference_run(c, scheduler="det", trace=True) for c in configs]

        def refused(*args, **kwargs):
            raise AssertionError("det called tlo.candidates")

        monkeypatch.setattr(tlo, "candidates", refused)
        for config, ref in zip(configs, want):
            got = run(config, scheduler="det", trace=True)
            assert got.status == "terminal"
            assert ([r.to_json() for r in got.trace]
                    == [r.to_json() for r in ref.trace])
        assert any(r.rule == "Opt" for r in got.trace)


def undoes(prev, cand) -> bool:
    """`cand` undoes the rewrite `prev` just applied: batch and unbatch
    of the same labels at the same station."""
    return (prev is not None and {prev.rule, cand.rule} == {"batch", "unbatch"}
            and prev.station == cand.station and prev.labels == cand.labels)


def reference_draw(redexes, last_opt, rng):
    """tlo-random's choice among `redexes`: a candidate at weight 0.2, or
    always if no plain redex applies, never one that `undoes` `last_opt`
    unless nothing else applies."""
    opts_all = [r for r in redexes if r.rule == "Opt"]
    opts = [r for r in opts_all if not undoes(last_opt, r.rewrite)]
    plain = [r for r in redexes if r.rule != "Opt"]
    if opts and (not plain or rng.random() < 0.2):
        return opts[rng.randrange(len(opts))]
    if plain:
        return plain[rng.randrange(len(plain))]
    return opts_all[rng.randrange(len(opts_all))]


def reference_run(config, scheduler="eager", seed=0, fuel=1_000_000,
                  trace=False, tlo_rules=None, assume_set_adjacency=False,
                  seen=None):
    """`run` over the stateless functions: every step scans for a terminal
    and enumerates every redex and candidate afresh.  Each configuration
    reached is appended to `seen`, if given."""
    rng = random.Random(seed)
    records = []
    last_opt = None
    for step in range(fuel):
        if seen is not None:
            seen.append(config)
        if state.is_terminal(config):
            return engine.RunResult(config, "terminal", step, records)
        if scheduler == "eager":
            redexes = eager_enumerate(config)
        elif scheduler == "det":  # the first plain redex, else unbatch
            redexes = (enumerate_redexes(config, tlo_on=False)
                       or enumerate_redexes(config, tlo_on=True,
                                            tlo_rules=("unbatch",))[:1])
        elif scheduler == "random":
            redexes = enumerate_redexes(config, tlo_on=False)
        else:
            redexes = enumerate_redexes(
                config, tlo_on=True, tlo_rules=tlo_rules,
                assume_set_adjacency=assume_set_adjacency)
        if not redexes:
            fr = engine.frontend_redex(config)
            if isinstance(fr, engine.Blocked):
                return engine.RunResult(config, "blocked", step, records,
                                        f"frontend waits on label {fr.label}")
            if isinstance(fr, engine.Stuck):
                return engine.RunResult(config, "stuck", step, records,
                                        fr.reason)
            return engine.RunResult(config, "stuck", step, records,
                                    "no applicable rule")
        if scheduler == "tlo-random":
            choice = reference_draw(redexes, last_opt, rng)
        elif scheduler == "random":
            choice = redexes[rng.randrange(len(redexes))]
        else:
            choice = redexes[0]
        config, rule, labels = apply_redex(config, choice)
        last_opt = choice.rewrite if choice.rule == "Opt" else None
        if trace:
            records.append(engine.StepRecord(step, rule, choice.site,
                                             tuple(labels),
                                             state.config_digest(config)))
    if state.is_terminal(config):  # no step was taken at negative fuel
        return engine.RunResult(config, "terminal", max(fuel, 0), records)
    return engine.RunResult(config, "fuel", fuel, records, "fuel exhausted")


class TestFuelBoundary:
    """A run whose last allowed step reaches the terminal reports it, as
    does a run that starts there with no fuel; a step less reports fuel."""

    @pytest.mark.parametrize("scheduler", tuple(engine.SCHEDULERS))
    def test_fuel_of_the_steps_taken_reaches_the_terminal(self, scheduler):
        for name in harness.RUNNABLE:
            config = state.init(harness.corpus_program(name))
            steps = run(config, scheduler=scheduler, seed=7).steps
            for fuel, status in ((steps, "terminal"), (steps - 1, "fuel")):
                kw = dict(scheduler=scheduler, seed=7, fuel=fuel)
                got, want = run(config, **kw), reference_run(config, **kw)
                assert ((got.status, got.steps) == (want.status, want.steps)
                        == (status, fuel))

    def test_a_value_is_terminal_at_fuel_0(self):
        # and at negative fuel, which takes no step either
        config = state.init(parse_source("3", "value.cg"))
        for fuel in (0, -1):
            for r in (run(config, fuel=fuel), reference_run(config, fuel=fuel)):
                assert (r.status, r.steps) == ("terminal", 0), fuel

    @pytest.mark.parametrize("fuel", (0, -1))
    def test_no_fuel_stops_a_non_terminal_at_once(self, fuel):
        # a negative fuel is reported as given, as a run's steps
        config = state.init(harness.corpus_program("core_pr"))
        for r in (run(config, fuel=fuel), reference_run(config, fuel=fuel)):
            assert (r.status, r.steps, r.detail) == ("fuel", fuel,
                                                     "fuel exhausted")
            assert r.config is config


class TestDriver:
    """`run` and the harness walks consume one generator, `engine.steps`,
    which yields each configuration before it draws the next step."""

    def test_each_configuration_is_yielded_before_the_next_draw(self):
        events = []

        def choose(ix, rng):
            events.append("draw")
            return engine.uniform(ix, rng)

        config = state.init(harness.corpus_program("incremental_folding"))
        for ix, r, labels in engine.steps(config, choose, random.Random(0),
                                          (), False, apply_redex):
            if not events:
                assert (ix.config, r, labels) == (config, None, [])
            events.append("yield")
        assert ix.terminal()
        assert events == ["yield", "draw"] * (len(events) // 2)

    def test_uniform_is_no_scheduler(self):
        assert engine.uniform not in engine.SCHEDULERS.values()

    # a batched unit takes only Prop, so without unbatch core_pr wedged:
    # `run` ended blocked after 39 steps; an unknown name was ignored
    @pytest.mark.parametrize("rules, reason", [
        (("batch",), "'batch' needs 'unbatch'"),
        (("batch", "reorderd", "fusem"), "'batch' needs 'unbatch'"),
        (("batch", "unbatch", "nosuch"), "unknown rewrite rule 'nosuch'"),
    ])
    def test_a_rule_set_no_run_can_use_is_refused(self, rules, reason):
        config = state.init(harness.corpus_program("core_pr"))
        with pytest.raises(ValueError, match=reason):
            run(config, scheduler="tlo-random", seed=0, tlo_rules=rules)
        with pytest.raises(ValueError, match=reason):
            next(engine.steps(config, engine.uniform, random.Random(0), rules,
                              False, apply_redex))
        assert run(config, scheduler="tlo-random", seed=0,
                   tlo_rules=("batch", "unbatch")).status == "terminal"


def undo_start(*stations):
    """Loaded stations at keys a and b: station i's streamlet holds units
    of the sizes `stations[i]` lists, of maps on its key, labelled in
    order."""
    backend, label = [], 0
    for key, sizes in zip((A, B), stations):
        units = []
        for n in sizes:
            units.append(Unit(tuple((label + k, MapOp(plus(1), KL((key,))))
                                    for k in range(n))))
            label += n
        backend.append(Station(Node(key, Int(3), KL(())), tuple(units)))
    return state.Configuration(tuple(backend), (), (), Int(0),
                               next_label=label)


class TestUndoGuard:
    """tlo-random does not draw the rewrite that undoes the batch or
    unbatch just applied, unless nothing else applies; each draw is the
    one `reference_draw` makes over the bare enumeration, whose label-based
    `undoes` is the oracle."""

    @staticmethod
    def after(config, rule, station, start):
        """A tlo-random index over `config` after it applied the `rule`
        candidate at unit `start` of `station`, and that candidate."""
        ix = engine._Index(config, None, False)
        ix.refresh()
        prev, = [c for c in map(ix.cand_at, range(ix.derive()))
                 if (c.rule, c.station, c.start) == (rule, station, start)]
        r = engine._opt(prev)
        config, _, labels = apply_redex(ix.config, r)
        ix.advance(r, config, labels)
        ix.refresh()
        return ix, prev

    @staticmethod
    def drawn(ix, prev):
        """The rewrites drawn over 300 seeds, and how many draws were
        plain redexes."""
        redexes = enumerate_redexes(bare(ix.config), tlo_on=True)
        opts, plain = set(), 0
        for seed in range(300):
            got = engine._draw(ix, random.Random(seed))
            assert got == reference_draw(redexes, prev, random.Random(seed))
            if got.rule == "Opt":
                opts.add((got.rewrite.rule, got.station, got.rewrite.start))
            else:
                plain += 1
        return opts, plain

    def test_a_batch_is_not_unbatched_at_once(self):
        # the three-operation unit at unit 1 of station 1 offers two
        # unbatch splits, then a batch with the unit after it
        ix, prev = self.after(undo_start((1, 1), (1, 2, 1, 1)), "batch", 1, 1)
        ix.derive()
        assert ix.cands[1][1] == (("unbatch", 1), ("unbatch", 2),
                                  ("batch", 0))
        opts, plain = self.drawn(ix, prev)
        assert plain
        assert opts == {("batch", 0, 0), ("fusem", 0, 0), ("batch", 1, 0),
                        ("batch", 1, 1)}

    def test_an_unbatch_leaves_out_only_the_batch_of_its_window(self):
        ix, prev = self.after(undo_start((1, 1), (1, 2, 1)), "unbatch", 1, 1)
        opts, plain = self.drawn(ix, prev)
        assert plain
        assert ("batch", 1, 1) not in opts
        assert {("batch", 1, 0), ("batch", 1, 2), ("fusem", 1, 1)} <= opts

    def test_the_undo_is_drawn_when_nothing_else_applies(self):
        ix, prev = self.after(undo_start((1, 1)), "batch", 0, 0)
        opts, plain = self.drawn(ix, prev)
        assert (opts, plain) == ({("unbatch", 0, 0)}, 0)
        r = run(undo_start((1, 1)), scheduler="tlo-random", seed=3)
        assert r.status == "terminal"


ADD_SOURCE = ("graph [#a: 1 [], #b: 2 []]\n"
              "mapVal (fun v: node -> payload(v) + 1) [#b];\n"
              "mapVal (fun v: node -> payload(v) * 2) [#b];\n"
              "let k = claim (add 7) in payload(claim (queryNode k))\n")

# (scheduler, seed, tlo_rules, assume_set_adjacency)
SCHEDULES = (("eager", 0, None, False), ("det", 0, None, True),
             ("random", 3, None, False), ("tlo-random", 3, None, False),
             ("tlo-random", 4, None, True),
             ("tlo-random", 5, ("batch", "unbatch", "reuse"), False))


def end_states():
    """Configurations that end blocked or stuck: the frontend waits on a
    label nothing writes, or cannot step; a node load waits on a label
    nothing writes, or cannot step."""
    waits = Station(Node(A, Claim(Label(9)), KL(())))
    stuck = Station(Node(A, Arith("+", A, Int(1)), KL(())))
    return [state.Configuration((), (), (), Claim(Label(5))),
            state.Configuration((), (), (), App(Int(1), Int(2))),
            state.Configuration((waits,), (), (), Int(0)),
            state.Configuration((stuck, waits), (), (), Int(0))]


class TestIndex:
    """`run` keeps an index of what it chooses from; it must offer what the
    stateless enumeration offers, and `run` must step as the reference loop
    over the stateless functions does."""

    def test_index_offers_what_bare_enumeration_does(self, reached):
        starts = [(state.init(harness.corpus_program(n)), SCHEDULES)
                  for n in harness.RUNNABLE]
        starts.append((state.init(parse_source(ADD_SOURCE, "add.cg")),
                       SCHEDULES))
        # seed 35 applies every rewrite rule to this mix, fusemid only under
        # set adjacency, and reuse leaves a fold base waiting on a Claim
        starts.append((mix_config(8), [("tlo-random", 35, None, True)]))
        for config, schedules in starts:
            for scheduler, seed, rules, adjacency in schedules:
                def checked(ix):
                    n = ix.refresh()
                    offered = [ix.plain_at(k) for k in range(n)]
                    offered += [engine._opt(ix.cand_at(k))
                                for k in range(ix.derive())]
                    assert offered == enumerate_redexes(
                        bare(ix.config), tlo_on=(scheduler == "tlo-random"),
                        tlo_rules=rules, assume_set_adjacency=adjacency)

                seen = reached(checked)
                kw = dict(scheduler=scheduler, seed=seed, tlo_rules=rules,
                          assume_set_adjacency=adjacency)
                r = run(config, **kw)
                assert r.status == "terminal"
                assert len(seen) == r.steps + 1
                # looking into the index left the run as it would have been
                want = []
                reference_run(config, seen=want, **kw)
                assert seen == want
        assert set(r.rewrites) == set(tlo.RULE_NAMES)  # the mix's run

    def assert_same_run(self, config, scheduler, seed, rules, adjacency,
                        fuel=1_000_000):
        kw = dict(scheduler=scheduler, seed=seed, fuel=fuel, trace=True,
                  tlo_rules=rules, assume_set_adjacency=adjacency)
        want = reference_run(config, **kw)
        got = run(config, **kw)
        assert ([r.to_json() for r in got.trace]
                == [r.to_json() for r in want.trace])
        assert ((got.status, got.steps, got.detail, got.config)
                == (want.status, want.steps, want.detail, want.config))
        return got

    @pytest.mark.parametrize("name", harness.RUNNABLE)
    def test_run_matches_the_reference_on_the_corpus(self, name):
        config = state.init(harness.corpus_program(name))
        for schedule in SCHEDULES:
            assert self.assert_same_run(config, *schedule).status == "terminal"
            assert self.assert_same_run(config, *schedule,
                                        fuel=137).steps <= 137

    @pytest.mark.parametrize("shape", (1, 2, 8))
    def test_run_matches_the_reference_on_op_mixes(self, shape):
        config = mix_config(shape)
        for schedule in SCHEDULES:
            assert self.assert_same_run(config, *schedule).status == "terminal"

    def test_run_matches_the_reference_through_an_add(self):
        config = state.init(parse_source(ADD_SOURCE, "add.cg"))
        for schedule in SCHEDULES:
            r = self.assert_same_run(config, *schedule)
            assert r.status == "terminal" and r.config.frontend == Int(7)
            assert [rec.rule for rec in r.trace].count("Add") == 1

    def test_a_store_write_wakes_a_waiting_load(self):
        # station 0's node waits on label 0, which the map at station 1
        # writes when it completes; no step touches station 0 before that
        inc = Lam("x", NODE, Node(Proj(1, Var("x")),
                                  Arith("+", Proj(2, Var("x")), Int(1)),
                                  Proj(3, Var("x"))))
        waits = Station(Node(A, Claim(Label(0)), KL(())))
        maps = Station(Node(B, Int(2), KL(())),
                       (Unit(((0, MapOp(inc, KL((B,)))),)),))
        config = state.Configuration((waits, maps), (), (), Int(0),
                                     next_label=1)
        for schedule in SCHEDULES[1:]:  # eager admits one wet station only
            r = self.assert_same_run(config, *schedule)
            assert r.status == "terminal"
            assert r.config.backend[0].node == Node(A, Int(0), KL(()))

    def test_run_matches_the_reference_when_blocked_or_stuck(self):
        outcomes = set()
        for config in end_states():
            for schedule in SCHEDULES:
                r = self.assert_same_run(config, *schedule)
                outcomes.add((r.status, r.detail))
        assert outcomes == {("blocked", "frontend waits on label 5"),
                            ("stuck", "application of a non-function"),
                            ("stuck", "no applicable rule")}


class TestWalkIndex:
    """A harness walk draws from an `engine._Index` as `run` does; at
    every configuration it reaches, the index must offer what a
    fresh enumeration of an unkept copy offers, in order."""

    @pytest.mark.parametrize("tlo_on", (False, True))
    def test_walk_index_offers_what_bare_enumeration_does(self, tlo_on):
        reached = 0
        for k, name in enumerate(harness.RUNNABLE * 2):
            config = state.init(harness.corpus_program(name))
            for ix in walk(config, k, tlo_on):
                config = ix.config
                want = enumerate_redexes(bare(config), tlo_on=tlo_on)
                reached += 1
                assert ix.terminal() == state.is_terminal(config)
                n = ix.refresh()
                got = [ix.plain_at(j) for j in range(n)]
                got += [engine._opt(ix.cand_at(j))
                        for j in range(ix.derive())]
                assert got == want
            assert ix.terminal()
        assert reached > 600


def load_tags(r, old, config) -> set[str]:
    """What the Load `r` from `old` to `config` did: a node or a head, or
    another, fold base reached a value ("node-done", "head-done",
    "unit-done"); a node had no key before ("unkeyed"); the term now
    waits on an unfilled label ("waits"); a fold is next to the loaded one
    ("beside-fold")."""
    station, tags = config.backend[r.station], set()
    if r.unit is None:
        e, was = station.node, old.backend[r.station].node
        if not (isinstance(was, Node) and isinstance(was.key, Key)):
            tags.add("unkeyed")
    else:
        sl = station.streamlet
        e = sl[r.unit].entries[0][1].base
        if any(all(len(u.entries) == 1 and isinstance(u.entries[0][1], FoldOp)
                   for u in sl[k:k + 2])
               for k in (r.unit - 1, r.unit) if 0 <= k < len(sl) - 1):
            tags.add("beside-fold")
    if terms.is_value(e):
        tags.add("node-done" if r.unit is None
                 else "head-done" if r.unit == 0 else "unit-done")
    else:
        step = engine._find(e)
        if step[0] == "Claim" and config.store_get(step[1]) is None:
            tags.add("waits")
    return tags


def keyed_start():
    """A node whose key a Load finds, two steps before its payload: the map
    on #b ahead of it may propagate only from then."""
    node = App(Lam("v", NODE, Node(Proj(1, Var("v")), Arith("+", Int(1), Int(2)),
                                   KL(()))), Node(A, Int(0), KL(())))
    maps = Unit(((0, MapOp(plus(1), KL((B,)))),))
    return state.Configuration((Station(node, (maps,)),
                                Station(Node(B, Int(2), KL(())))), (), (),
                               Int(0), next_label=1)


def nested_folds(b1, b2):
    """A station of two commutative sum folds on bases `b1` and `b2`, the
    first's target inside the second's."""
    return Station(LOADED, (Unit(((0, FoldOp(SUM, b1, KL((A,)))),)),
                            Unit(((1, FoldOp(SUM, b2, KL((A, B)))),))))


def nested_folds_start():
    """`nested_folds` with bases that become equal once the second loads: a
    Load there adds `reuse` to their window."""
    return state.Configuration(
        (nested_folds(SUM_BASE, App(ID_NODE, SUM_BASE)),), (), (), Int(0),
        next_label=2)


# (start, walk seeds, rewrites on, set adjacency); between them the walks
# reach every kind of Load `load_tags` tells apart, and a Load that changes
# a window's entries
LOAD_WALKS = (
    *[(lambda n=n: state.init(harness.corpus_program(n)), (0, 1, 2), True,
       False) for n in harness.RUNNABLE],
    (lambda: state.init(harness.corpus_program("core_pr")), (0, 1), False,
     False),
    (lambda: mix_config(8), (0, 1, 2), True, True),
    (keyed_start, (0,), True, False),
    (nested_folds_start, (0, 1, 2, 3), True, False),
)

# a value base for the sum folds `SUM`
SUM_BASE = Node(Key("z"), Int(0), KL(()))


def derived(ix):
    """A copy of `ix`, refreshed, with every window derived; `ix` keeps its
    marks, so it goes on to derive what it would have derived."""
    ix.refresh()
    got = copy.copy(ix)
    got.cands, got.ncand = list(ix.cands), list(ix.ncand)
    got.underived = set(ix.underived)
    got.derive()
    return got


def assert_equals_a_fresh_index(ix):
    """`ix`, once derived, holds what a fresh index of its configuration
    holds, and its size count is the batch and unbatch entries of its
    windows."""
    got = derived(ix)
    fresh = engine._Index(ix.config, ix.rules, ix.adjacency)
    fresh.refresh()
    fresh.derive()
    for field in ("plain", "cands", "ncand", "nplain", "ncands", "nsized",
                  "nsizes", "busy", "front"):
        assert getattr(got, field) == getattr(fresh, field), field
    assert got.nsized == [sum(rule in ("batch", "unbatch")
                              for specs in windows for rule, _ in specs)
                          for windows in got.cands]
    assert got.nsizes == sum(got.nsized)
    # a woken station is rebuilt, so extra entries do no harm
    for label, stations in fresh.waiting.items():
        assert stations <= ix.waiting.get(label, set())


class TestLoadInPlace:
    """A Load step updates its station's entries in the index in place; the
    index must hold after every step what a fresh one built from the same
    configuration holds, and a Load must derive no window, only mark the
    windows of the fold it stepped."""

    @staticmethod
    def walks():
        """The index of every `walk` of `LOAD_WALKS` at every configuration
        reached.  A test sees each step by patching `_Index.advance`."""
        for start, seeds, tlo_on, adjacency in LOAD_WALKS:
            for seed in seeds:
                yield from walk(start(), seed, tlo_on, adjacency)

    def test_index_equals_a_fresh_one_after_every_step(self, monkeypatch):
        tags, offered = Counter(), Counter()
        advance = engine._Index.advance

        def step(ix, r, config, labels):
            old = ix.config
            advance(ix, r, config, labels)
            if r.rule == "Load":
                new = load_tags(r, old, config)
                tags.update(new)
                ix.refresh()
                rules = {ix.plain_at(k).rule for k in range(len(ix.front),
                                                               ix.nplain)
                         if ix.plain_at(k).station == r.station}
                for tag in new & {"node-done", "head-done"}:
                    offered[tag] += bool(rules & ({"Map", "Fold"}
                                                  if tag == "node-done"
                                                  else {"Complete", "Last"}))

        monkeypatch.setattr(engine._Index, "advance", step)
        for ix in self.walks():
            assert_equals_a_fresh_index(ix)
        assert set(tags) == {"node-done", "head-done", "unit-done", "unkeyed",
                             "waits", "beside-fold"}
        # a node that loads offers its visit, a head base its settling
        assert offered["node-done"] and offered["head-done"]

    def test_a_load_derives_no_window(self, monkeypatch):
        # a Load rebuilds no station, unless its node or its head fold's
        # base reaches a value or its node had no key; it derives no window,
        # and marks its station's windows only for a fold
        derived, rebuilt = [], []
        for name, seen in (("window_candidates", derived),
                           ("station_windows", rebuilt)):
            def counted(*a, _fn=getattr(tlo, name), _seen=seen):
                _seen.append(a)
                return _fn(*a)
            monkeypatch.setattr(tlo, name, counted)
        station_plain = engine._station_plain
        monkeypatch.setattr(engine, "_station_plain", lambda *a: (
            rebuilt.append(a), station_plain(*a))[1])
        advance = engine._Index.advance
        loads = Counter()

        def step(ix, r, config, labels):
            derived.clear()
            rebuilt.clear()
            old = ix.config
            advance(ix, r, config, labels)
            ix.refresh()
            if r.rule != "Load":
                return
            tags = load_tags(r, old, config)
            if tags & {"node-done", "unkeyed", "head-done"}:
                return
            assert rebuilt == [] and derived == []
            # a walk's draw derived every window before the Load
            assert ix.underived == ({r.station} if r.unit is not None
                                    and ix.rules else set())
            loads["node" if r.unit is None else "unit"] += 1
            loads["beside-fold"] += "beside-fold" in tags

        monkeypatch.setattr(engine._Index, "advance", step)
        for _ in self.walks():
            pass
        assert loads["node"] and loads["unit"] and loads["beside-fold"]

    @pytest.mark.parametrize("bases, stepped, reuse", [
        ((SUM_BASE, App(ID_NODE, SUM_BASE)), (SUM_BASE, SUM_BASE), True),
        ((App(ID_NODE, SUM_BASE),) * 2, (App(ID_NODE, SUM_BASE), SUM_BASE),
         False),
    ], ids=["adds-reuse", "drops-reuse"])
    def test_a_load_beside_a_fold_tests_reuse_again(self, bases, stepped,
                                                     reuse):
        # two commutative sum folds, the first's target inside the second's:
        # a Load of the second base makes the two bases equal, or unequal,
        # and so adds or drops reuse in their window
        config = state.Configuration((nested_folds(*bases),), (), (), Int(0),
                                     next_label=2)
        ix = engine._Index(config, None, False)
        ix.refresh()
        (r,) = [ix.plain_at(k) for k in range(ix.refresh())
                if ix.plain_at(k).unit == 1]
        after, _, labels = apply_redex(config, r)
        assert after.backend[0] == nested_folds(*stepped)
        ix.advance(r, after, labels)
        ix.refresh()
        ix.derive()
        assert (("reuse", 0) in ix.cands[0][0]) is reuse
        fresh = engine._Index(after, None, False)
        fresh.refresh()
        fresh.derive()
        assert (ix.cands, ix.ncand, ix.ncands) == (
            fresh.cands, fresh.ncand, fresh.ncands)


class TestLazyWindows:
    """tlo-random derives a station's windows only when a draw reads them:
    the size count, the batch and unbatch entries counted from unit sizes,
    decides whether a draw may take a rewrite whenever it exceeds the undo
    block, and a draw that then takes a plain redex derives no window."""

    STARTS = (lambda: mix_config(8),
              lambda: state.init(harness.corpus_program("core_pr")),
              lambda: state.init(harness.corpus_program("core_social")))

    def runs(self, choose=engine._draw):
        """The index of every seeded tlo-random run of `STARTS`, with set
        adjacency, at every configuration reached."""
        for start in self.STARTS:
            for seed in range(3):
                for ix, _, _ in engine.steps(start(), choose,
                                             random.Random(seed), None, True,
                                             apply_redex):
                    yield ix

    def test_run_index_equals_a_fresh_one_after_every_step(self):
        steps = 0
        for ix in self.runs():
            assert_equals_a_fresh_index(ix)
            steps += 1
        assert steps > 1000

    def test_a_plain_draw_over_the_size_count_derives_no_window(
            self, monkeypatch):
        # the undo guard too reads unit sizes alone; the undo block is
        # counted here in windows derived on a copy
        derived_now = []
        window_candidates = tlo.window_candidates
        monkeypatch.setattr(tlo, "window_candidates", lambda *a: (
            derived_now.append(a), window_candidates(*a))[1])
        draws = Counter()

        def choose(ix, rng):
            prev = ix.last_opt
            undo = {"batch": "unbatch", "unbatch": "batch"}.get(
                prev.rule if prev else None)
            nundo = undo and [rule for rule, _ in derived(ix).cands[
                prev.station][prev.start]].count(undo) or 0
            derived_now.clear()
            r = engine._draw(ix, rng)
            if r is not None and r.rule == "Opt":
                assert not ix.underived  # the draw read every window
                draws["rewrite"] += 1
            elif r is not None and ix.nsizes > nundo:
                assert derived_now == []
                draws["after an undo" if nundo else "plain"] += 1
            return r

        for _ in self.runs(choose):
            pass
        assert min(draws.values()) > 50 and len(draws) == 3


class TestExactCountDraws:
    """Without batch every unit holds one operation, so the size count is 0
    and every draw that may take a rewrite derives every marked window for
    the exact count.  Seeded runs under such rule sets are pinned by their
    steps (core_pr, then the op mix, seeds 0-2) and the sha256 of their
    traces; a draw that calls `rng` in another order moves them.  With no
    rule at all the runs replay the `("unbatch",)` ones, but derive no
    window, so only the latter are pinned."""

    PINNED = {
        ("unbatch",): ((236, 234, 233, 419, 423, 425),
                       "2dd916ff0bf1a2e61f772043b6460be9a7a74b3864fa80bb2b057eaf1457c82b"),
        ("reuse",): ((236, 234, 233, 366, 366, 406),
                     "87f3a3be877fdf18c9e98726f6e945b06d0c7c124fa7e454b6a157d39542f4e9"),
        ("reorderd", "reorderrr"): (
            (266, 271, 258, 518, 524, 509),
            "a1dac31db483464f987a4627552c2f5f15fe1fc3808dd5143dfed9bd0169b57d"),
    }

    @pytest.mark.parametrize("rules", PINNED)
    def test_seeded_runs_are_pinned(self, rules):
        h, steps = hashlib.sha256(), []
        for config in (state.init(harness.corpus_program("core_pr")),
                       mix_config(8)):
            for seed in range(3):
                r = run(config, scheduler="tlo-random", seed=seed, trace=True,
                        tlo_rules=rules, assume_set_adjacency=True)
                assert r.status == "terminal"
                steps.append(r.steps)
                for rec in r.trace:
                    h.update(rec.to_json().encode() + b"\n")
        assert (tuple(steps), h.hexdigest()) == self.PINNED[rules]


class TestCarriedOver:
    """A step builds only what its rule changes: each `Configuration` field
    and each station a step leaves as it was is the input's own object,
    which `state.DigestParts`, `types._ty_store` and `engine._Index` test
    with `is`."""

    def test_untouched_parts_are_the_inputs_own(self, monkeypatch):
        stepped = Counter()

        def checked(config, r):
            out = apply_redex(config, r)
            after = out[0]
            for f in dataclasses.fields(state.Configuration):
                was, now = getattr(config, f.name), getattr(after, f.name)
                assert now is was or now != was, (r.rule, f.name)
            stations = config.backend
            if r.rule == "Add":  # the new station comes first
                stations = (after.backend[0], *stations)
            assert len(stations) == len(after.backend)
            for i, (was, now) in enumerate(zip(stations, after.backend)):
                assert now is was or now != was, (r.rule, i)
            stepped[r.rule] += 1
            return out

        monkeypatch.setattr(harness, "apply_redex", checked)
        for k, name in enumerate(harness.RUNNABLE):
            config = state.init(harness.corpus_program(name))
            for _ in walk(config, k, tlo_on=True):
                pass
        assert {"Map", "Fold", "Complete", "Last", "Prop", "Load", "Opt",
                "Emit", "Add", "First", "Claim", "Beta"} <= set(stepped)

SUM = Lam("n", NODE, Lam("acc", NODE,
          Node(Proj(1, Var("acc")),
               Arith("+", Proj(2, Var("n")), Proj(2, Var("acc"))),
               Proj(3, Var("acc")))), commutative=True)
PROD = Lam("n", NODE, Lam("acc", NODE,
           Node(Proj(1, Var("acc")),
                Arith("*", Proj(2, Var("n")), Proj(2, Var("acc"))),
                Proj(3, Var("acc")))), commutative=True)


class TestVerdicts:
    """What the pair rules derive from operation functions and key lists
    alone is kept: a verdict in `tlo`'s table under the functions' canonical
    text, a compensation function on the map operation.  A step derives
    again only what a new function or fold function asks for."""

    @pytest.fixture
    def calls(self, monkeypatch, empty_verdicts):
        """The arguments of each `alpha_equiv` and `dcomp` call made
        through `tlo`'s globals, from an empty verdict table."""
        seen = {"alpha_equiv": [], "dcomp": []}
        for name, args in seen.items():
            def counted(*a, _fn=getattr(tlo, name), _args=args):
                _args.append(a)
                return _fn(*a)
            monkeypatch.setattr(tlo, name, counted)
        return seen

    def start(self):
        # two maps over one key (fusem), a map before a fold (reorderrw),
        # a fold whose base loads in one step and a fold with another
        # function (reuse's check), each fold over a superset of the keys
        loading = App(Lam("v", NODE, Var("v")), Node(B, Int(0), KL(())))
        units = (Unit(((0, MapOp(plus(1), KL((A,)))),)),
                 Unit(((1, MapOp(plus(2), KL((A,)))),)),
                 Unit(((2, FoldOp(SUM, loading, KL((A, B)))),)),
                 Unit(((3, FoldOp(PROD, Node(B, Int(1), KL(())),
                                  KL((A, B)))),)))
        config = state.Configuration((Station(Node(A, Int(3), KL(())), units),),
                                     (), (), Int(0), next_label=4)
        return engine._Index(config, None, False)

    def offered(self, ix):
        n = ix.refresh()
        got = ([ix.plain_at(k) for k in range(n)]
               + [engine._opt(ix.cand_at(k)) for k in range(ix.derive())])
        assert got == enumerate_redexes(bare(ix.config), tlo_on=True)
        return got

    def step(self, ix, redex):
        config, _, labels = apply_redex(ix.config, redex)
        ix.advance(redex, config, labels)

    def test_a_load_on_a_fold_unit_derives_nothing_again(self, calls):
        ix = self.start()
        offered = self.offered(ix)
        assert calls["dcomp"] and calls["alpha_equiv"]
        (load,) = [r for r in offered if r.rule == "Load"]
        assert load.unit == 2
        for args in calls.values():
            args.clear()
        self.step(ix, load)
        ix.refresh()
        assert calls == {"alpha_equiv": [], "dcomp": []}
        self.offered(ix)

    @pytest.mark.parametrize("rule", ("reorderrw", "fusem"))
    def test_a_new_function_is_derived_afresh(self, calls, rule):
        ix = self.start()
        (cand,) = [r for r in self.offered(ix)
                   if r.rule == "Opt" and r.rewrite.rule == rule]
        for args in calls.values():
            args.clear()
        self.step(ix, cand)
        # a candidate is built when drawn, and `offered` draws every one:
        # the new fold function is the outer one of the map before it; the
        # fused map function the inner one of the fold after it
        self.offered(ix)
        ((_, op),) = cand.rewrite.replacement[0].entries
        assert any(args[0 if rule == "reorderrw" else 2] is op.fn
                   for args in calls["dcomp"])


TWO_MAPS = ("graph [#a: 3 [#b], #b: 4 []]\n"
            "mapVal (fun v: node -> payload(v) * 2 + 1) [#a, #b];\n"
            "mapVal (fun v: node -> if0 payload(v) then 0"
            " else payload(v) - 1) [#a];\n"
            "0\n")

# a map whose function claims a fold's result, as core_social's
# `updatePayload (claim a) (claim nb)` does
CLAIMING_MAP = ("graph [#a: 1 [], #b: 7 []]\n"
                "let nb = queryNode #b in\n"
                "updatePayload #a (claim nb);\n"
                "payload(claim nb)\n")


def value_steps(e):
    """The steps `e` takes to a value on its own; it claims nothing."""
    empty = state.Configuration((), (), (), Int(0))
    n = 0
    while not terms.is_value(e):
        rule, label, path = engine._find(e)
        assert label is None
        e = engine._load_term(empty, e, path)
        n += 1
    return n


def run_steps(config, scheduler, seed, rules=None, adjacency=False,
              choose=None, apply=apply_redex):
    """Each step of a run from `config` under `scheduler` (or of a walk
    under `choose`): the configuration before, the redex, the one after."""
    before = config
    for ix, r, _ in engine.steps(
            config, choose or engine.SCHEDULERS[scheduler],
            random.Random(seed),
            rules if choose or scheduler == "tlo-random" else (), adjacency,
            apply):
        if r is not None:
            yield before, r, ix.config
        if ix.terminal():
            return
        before = ix.config


class TestSharedMapApplication:
    """A Map leaves the node `Node(k, proj2 a, proj3 a)`; node Loads step
    `a` once for both projections until it is a value."""

    def test_eager_evaluates_each_application_once(self):
        config = state.init(parse_source(TWO_MAPS, "two_maps.cg"))
        assert len(config.backend) == 2
        pending, visits = {}, []
        while not state.is_terminal(config):
            (r,) = eager_enumerate(config)
            before, (config, rule, _) = config, apply_redex(config, r)
            station = before.backend[r.station] if r.station is not None \
                else None
            if rule == "Map":
                ((_, op),) = station.streamlet[0].entries
                pending[r.station] = [value_steps(App(op.fn, station.node)), 0]
            elif rule == "Load" and r.unit is None:
                pending[r.station][1] += 1
                if terms.is_value(config.backend[r.station].node):
                    visits.append(tuple(pending.pop(r.station)))
        assert not pending and len(visits) == 3
        # eval(f n) + 2 Loads per visit: `a`, then each projection
        assert all(loads == evals + 2 for evals, loads in visits)
        assert all(evals > 0 for evals, _ in visits)
        assert config.backend[0].node == Node(A, Int(6), KL((B,)))
        assert config.backend[1].node == Node(B, Int(9), KL(()))

    @staticmethod
    def starts():
        """The corpus and an op mix, each under every schedule."""
        for name in harness.RUNNABLE:
            for schedule in SCHEDULES:
                yield state.init(harness.corpus_program(name)), schedule
        yield mix_config(1), ("tlo-random", 20, None, True)

    def test_projections_hold_one_term_until_it_is_a_value(self):
        shared = 0
        for config, (scheduler, seed, rules, adjacency) in self.starts():
            for _, r, after in run_steps(config, scheduler, seed, rules,
                                         adjacency):
                if r.rule != "Load" or r.unit is not None:
                    continue
                node = after.backend[r.station].node
                pay = node.payload
                if type(pay) is Proj and not terms.is_value(pay.arg):
                    assert node.adj == Proj(3, pay.arg)
                    assert node.adj.arg is pay.arg  # one object
                    shared += 1
        assert shared > 500

    def test_a_claiming_map_function_blocks_once(self):
        # station 0 (#a) steps first wherever it can, so the map visits #a
        # and its loads reach the claim before the fold at #b completes
        config = state.init(parse_source(CLAIMING_MAP, "claims.cg"))
        claims, blocks, waiting = 0, 0, False
        while not state.is_terminal(config):
            redexes = enumerate_redexes(config)
            mine = [r for r in redexes if r.station == 0]
            node = config.backend[0].node if config.backend else None
            if node is not None and not mine and type(node.adj) is Proj:
                # both projections wait on the fold's label
                rule, label, path = engine._find(node)
                assert (rule, path[:2]) == ("Claim", (1, 0))
                assert node.adj.arg is node.payload.arg
                assert config.store_get(label) is None
                if not waiting:
                    blocks += 1
                waiting = True
            r = (mine or redexes)[0]
            config, _, _ = apply_redex(config, r)
            if r.rule == "Load" and r.unit is None and r.station == 0 \
                    and isinstance(engine._descend(node, r.path)[1], Claim):
                assert waiting
                claims, waiting = claims + 1, False
                # one step put the claimed node under both projections
                loaded = config.backend[0].node
                assert loaded.adj.arg is loaded.payload.arg
                assert (engine._descend(loaded.payload.arg, r.path[2:])[1]
                        == Node(B, Int(7), KL(())))
        assert blocks == claims == 1
        assert config.backend[0].node == Node(A, Int(7), KL(()))
        assert config.frontend == Int(7)

    def test_a_bare_copy_steps_to_an_equal_configuration(self):
        # an unshared copy of a Map's node still steps `a` once: the share
        # is decided by term equality, not by object identity
        shared = 0
        runs = [(config, dict(scheduler=scheduler, seed=seed, rules=rules,
                              adjacency=adjacency))
                for config, (scheduler, seed, rules, adjacency)
                in self.starts()]
        runs += [(state.init(harness.corpus_program(name)),
                  dict(scheduler=None, seed=k, rules=None, adjacency=False,
                       choose=engine.uniform, apply=harness.apply_redex))
                 for k, name in enumerate(harness.RUNNABLE)]
        for config, kw in runs:
            for before, r, after in run_steps(config, **kw):
                got = apply_redex(bare(before), r)
                assert got == apply_redex(before, r)
                assert got[0] == after
                node = before.backend[r.station].node \
                    if r.rule == "Load" and r.unit is None else None
                shared += (type(node) is Node and type(node.adj) is Proj
                           and r.path[:2] == (1, 0))
        assert shared > 700


class TestDeepLetChain:
    # a Beta substitutes through every later `let`, one interpreter frame
    # per term level, so a chain that types also runs
    @pytest.mark.parametrize("scheduler", ("eager", "tlo-random"))
    def test_a_chain_reading_its_first_binding_runs(self, scheduler):
        n = 400
        source = "".join(f"let x{i} = {i} in\n" for i in range(n)) \
            + f"x0 + x{n - 1}"
        prog = parse_source(source, "lets.cg")
        assert type_of_expr(prog.expr) == (INT, False)
        r = run(state.init(prog), scheduler=scheduler, seed=0)
        assert (r.status, r.steps, r.config.frontend) == (
            "terminal", n + 1, Int(n - 1))
