"""Expected results of the bundled programs, pinned independently of the
harness fact checkers where the value admits a short direct assertion."""

from dataclasses import replace

import pytest

from stationflow import engine, harness, state
from stationflow.parser import SourceError, parse_source
from stationflow.terms import Int, Node
from stationflow.types import type_of_expr


def eager_terminal(name):
    r = engine.run(state.init(harness.corpus_program(name)))
    assert r.status == "terminal", r.detail
    return r.config


class TestTypechecks:
    @pytest.mark.parametrize("name", harness.RUNNABLE)
    def test_runnable_programs_type(self, name):
        prog = harness.corpus_program(name)
        type_of_expr(prog.expr, file=name)

    def test_phase_violation_rejected(self):
        prog = harness.corpus_program("phase_violation")
        with pytest.raises(SourceError) as ei:
            type_of_expr(prog.expr, file="phase_violation.cg")
        assert "T-Map" in str(ei.value)


class TestResults:
    def test_incremental_folding_sums_payloads(self):
        cfg = eager_terminal("incremental_folding")
        assert isinstance(cfg.frontend, Node)
        assert cfg.frontend.payload == Int(3)

    def test_social_query_sees_updated_payload(self):
        assert eager_terminal("core_social").frontend == Int(2)

    def test_rank_fixed_point(self):
        cfg = eager_terminal("core_pr")
        assert cfg.frontend == Int(5000)
        for s in cfg.backend:
            assert s.node.payload == Int(5000)

    def test_chronological_payload(self):
        assert eager_terminal("chronological_order").frontend == Int(12)

    def test_reuse_guard_distinct_folds(self):
        cfg = eager_terminal("reuse_guard")
        assert cfg.frontend == Int(1)

    @pytest.mark.parametrize("name", harness.RUNNABLE)
    def test_fact_checkers_agree(self, name):
        assert harness.check_facts(name, eager_terminal(name)) is None


class TestFactCheckersCatchWrongAnswers:
    # each failure names the field, the declared value and the actual one
    def test_chronological_detects_swap(self):
        bad = replace(eager_terminal("chronological_order"), frontend=Int(22))
        msg = harness.check_facts("chronological_order", bad)
        assert "frontend" in msg and "(int 12)" in msg and "(int 22)" in msg

    def test_reuse_checker_detects_sharing(self):
        bad = replace(eager_terminal("reuse_guard"), frontend=Int(-1))
        msg = harness.check_facts("reuse_guard", bad)
        assert "frontend" in msg and "(int 1)" in msg and "(int -1)" in msg

    def test_reuse_checker_detects_a_lost_residual(self):
        cfg = eager_terminal("reuse_guard")
        bad = replace(cfg, store=tuple((label, replace(e, residual=()))
                                       for label, e in cfg.store))
        msg = harness.check_facts("reuse_guard", bad)
        assert "residuals" in msg and "k3" in msg
