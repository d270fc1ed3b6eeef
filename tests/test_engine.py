"""Reduction behavior: emission order, routing, station processing,
claim blocking, the eager policy and schedule-independence."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationflow import engine, harness, state
from stationflow.engine import (
    apply_redex, eager_enumerate, enumerate_redexes, run,
)
from stationflow.terms import AddOp, FoldOp, Int, MapOp, Node


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

    def test_same_seed_same_trace(self):
        prog = harness.corpus_program("core_social")
        a = run(state.init(prog), scheduler="tlo-random", seed=5, trace=True)
        b = run(state.init(prog), scheduler="tlo-random", seed=5, trace=True)
        assert [r.to_json() for r in a.trace] == [r.to_json() for r in b.trace]


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
