"""Reduction behavior: emission order, routing, station processing,
claim blocking, the eager policy and schedule-independence."""

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
        if not state.station_is_load_free(station):
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
            for config, _, _ in harness._walk(
                    config, random.Random(k), tlo_on=True):
                redexes = enumerate_redexes(config, tlo_on=True)
                self.assert_rules_kept(config, redexes)
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

    def test_the_site_is_not_read(self, monkeypatch):
        # each step of the corpus walks steps, with its redex's site made
        # nonsense, to the same configuration: the rule alone dispatches
        stepped = []

        def checked(config, r):
            want = apply_redex(config, r)
            assert apply_redex(config, dataclasses.replace(r, site="?")) == want
            stepped.append(r.rule)
            return want

        monkeypatch.setattr(harness, "apply_redex", checked)
        for k, name in enumerate(harness.RUNNABLE):
            config = state.init(harness.corpus_program(name))
            for _ in harness._walk(config, random.Random(k), tlo_on=True):
                pass
        assert {"Map", "Fold", "Complete", "Last", "Prop", "Load", "Opt",
                "Emit", "Add", "First", "Claim", "Beta"} <= set(stepped)

    def test_unknown_rule_is_named(self):
        config = state.init(harness.corpus_program("core_social"))
        with pytest.raises(ValueError, match="Bogus"):
            apply_redex(config, engine.Redex("Bogus", "station:0", station=0))


class TestEagerPolicy:
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
        "8143980b37fb61283fbed01b76c254199ab6e89553664f04371ee270e7dd9730")

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
        # schedule 8 applies every rewrite rule, fusemid only under set
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
        r = self.run_compared(reached, prog, "tlo-random", 8,
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
        for _ in range(40):
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
            opts_all = [r for r in redexes if r.rule == "Opt"]
            opts = [r for r in opts_all if not undoes(last_opt, r.rewrite)]
            plain = [r for r in redexes if r.rule != "Opt"]
            if opts and (not plain or rng.random() < 0.2):
                choice = opts[rng.randrange(len(opts))]
            elif plain:
                choice = plain[rng.randrange(len(plain))]
            else:
                choice = opts_all[rng.randrange(len(opts_all))]
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
    return engine.RunResult(config, "fuel", fuel, records, "fuel exhausted")


ADD_SOURCE = ("graph [#a: 1 [], #b: 2 []]\n"
              "mapVal (fun v: node -> payload(v) + 1) [#b];\n"
              "mapVal (fun v: node -> payload(v) * 2) [#b];\n"
              "let k = claim (add 7) in payload(claim (queryNode k))\n")

# (scheduler, seed, tlo_rules, assume_set_adjacency)
SCHEDULES = (("eager", 0, None, False), ("det", 0, None, True),
             ("random", 3, None, False), ("tlo-random", 3, None, False),
             ("tlo-random", 4, None, True),
             ("tlo-random", 5, ("batch", "unbatch", "reuse"), False))


def mix_config(shape):
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import programs
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    gen = programs.mix_program(8, 1, random.Random(shape), random.Random(shape))
    return state.init(parse_source(gen.source, "mix.cg"))


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
        # seed 3 applies every rewrite rule to this mix, fusemid only under
        # set adjacency, and reuse leaves a fold base waiting on a Claim
        starts.append((mix_config(8), [("tlo-random", 3, None, True)]))
        for config, schedules in starts:
            for scheduler, seed, rules, adjacency in schedules:
                def checked(ix):
                    n = ix.refresh()
                    offered = [ix.plain_at(k) for k in range(n)]
                    offered += [engine._opt(ix.cand_at(k))
                                for k in range(ix.ncands)]
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
    """`harness._walk` draws from an `engine._Index` as `run` does; at
    every configuration it reaches, the index must offer what a
    fresh enumeration of an unkept copy offers, in order."""

    @pytest.mark.parametrize("tlo_on", (False, True))
    def test_walk_index_offers_what_bare_enumeration_does(self, tlo_on):
        reached = 0
        for k, name in enumerate(harness.RUNNABLE):
            config = state.init(harness.corpus_program(name))
            for config, _, ix in harness._walk(config, random.Random(k),
                                               tlo_on=tlo_on):
                want = enumerate_redexes(bare(config), tlo_on=tlo_on)
                reached += 1
                if ix is None:  # terminal
                    assert state.is_terminal(config) and want == []
                    continue
                assert ix.config is config
                n = ix.refresh()
                got = [ix.plain_at(j) for j in range(n)]
                got += [engine._opt(ix.cand_at(j)) for j in range(ix.ncands)]
                assert got == want
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
        if any(tlo._folds(*sl[k:k + 2]) for k in (r.unit - 1, r.unit)
               if 0 <= k < len(sl) - 1):
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


# (start, walk seeds, rewrite rules, set adjacency); between them the walks
# reach every kind of Load `load_tags` tells apart
LOAD_WALKS = (
    *[(lambda n=n: state.init(harness.corpus_program(n)), (0, 1, 2), None,
       False) for n in harness.RUNNABLE],
    (lambda: state.init(harness.corpus_program("core_pr")), (0, 1), (),
     False),
    (lambda: mix_config(8), (0, 1, 2), None, True),
    (keyed_start, (0,), None, False),
)


class TestLoadInPlace:
    """A Load step updates its station's entries in the index in place; the
    index must hold after every step what a fresh one built from the same
    configuration holds, and a Load must derive windows only where a base
    is read."""

    @staticmethod
    def walks(step=None):
        """Uniform draws among every plain redex and candidate from each
        of `LOAD_WALKS`; yields the index, refreshed, at every configuration
        reached, and calls `step(ix, r, config, labels)` to advance it, if
        given, in place of `ix.advance`."""
        for start, seeds, rules, adjacency in LOAD_WALKS:
            for seed in seeds:
                rng = random.Random(seed)
                ix = engine._Index(start(), rules, adjacency)
                while not ix.terminal():
                    n = ix.refresh()
                    yield ix
                    if not n + ix.ncands:
                        break
                    k = rng.randrange(n + ix.ncands)
                    r = (ix.plain_at(k) if k < n
                         else engine._opt(ix.cand_at(k - n)))
                    config, _, labels = apply_redex(ix.config, r)
                    (step or type(ix).advance)(ix, r, config, labels)

    def test_index_equals_a_fresh_one_after_every_step(self):
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

        for ix in self.walks(step):
            fresh = engine._Index(ix.config, ix.rules, ix.adjacency)
            fresh.refresh()
            for field in ("plain", "cands", "ncand", "nplain", "ncands",
                          "busy", "front"):
                assert getattr(ix, field) == getattr(fresh, field), field
            assert ([{key: hit[2] for key, hit in w.items()}
                     for w in ix.windows]
                    == [{key: hit[2] for key, hit in w.items()}
                        for w in fresh.windows])
            # a woken station is rebuilt, so extra entries do no harm
            for label, stations in fresh.waiting.items():
                assert stations <= ix.waiting.get(label, set())
        assert set(tags) == {"node-done", "head-done", "unit-done", "unkeyed",
                             "waits", "beside-fold"}
        # a node that loads offers its visit, a head base its settling
        assert offered["node-done"] and offered["head-done"]

    def test_a_load_derives_only_fold_pair_windows(self, monkeypatch):
        # a Load on a node derives no window and rebuilds no station; one on
        # a fold unit derives at most the windows of two folds next to it,
        # unless its base, at the head, reaches a value
        derived, rebuilt, reused = [], [], 0
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
            nonlocal reused
            derived.clear()
            rebuilt.clear()
            old = ix.config
            advance(ix, r, config, labels)
            ix.refresh()
            if r.rule != "Load" or not ix.rules or load_tags(r, old, config) \
                    & {"node-done", "unkeyed", "head-done"}:
                return
            assert rebuilt == []
            if r.unit is None:
                loads["node"] += 1
                assert derived == []
                return
            loads["unit"] += 1
            sl = config.backend[r.station].streamlet
            assert [(u, n) for u, n, *_ in derived] == [
                sl[k:k + 2] for k in (r.unit - 1, r.unit)
                if 0 <= k < len(sl) - 1 and tlo._folds(*sl[k:k + 2])]
            reused += len(derived)

        for _ in self.walks(step):
            pass
        assert loads["node"] and loads["unit"] and reused


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
               + [engine._opt(ix.cand_at(k)) for k in range(ix.ncands)])
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
