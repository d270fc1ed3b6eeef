"""End-to-end acceptance checks.  Each test covers one headline property,
records a single pass/fail line (shown in the terminal summary) and
enforces its time budget.

Run with `pytest tests/test_acceptance.py -v`.
"""

import time

import pytest

from stationflow import engine, harness, state
from stationflow.engine import apply_redex, eager_enumerate
from stationflow.parser import SourceError
from stationflow.terms import Int, Node
from stationflow.types import type_of_expr
from test_harness import eager_emission_kinds, reuse_never_offered


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.t0

    def line(self, text):
        return f"{text} [{self.elapsed:.2f}s / {self.limit:.0f}s]"

    @property
    def within(self):
        return self.elapsed < self.limit


def test_1_incremental_fold_result(acceptance_report):
    b = Budget(1)
    prog = harness.corpus_program("incremental_folding")
    runs = [engine.run(state.init(prog), scheduler="eager")]
    runs += [engine.run(state.init(prog), scheduler="random", seed=s)
             for s in range(20)]
    ok = all(r.status == "terminal"
             and isinstance(r.config.frontend, Node)
             and r.config.frontend.payload == Int(3) for r in runs)
    acceptance_report(
        ok and b.within,
        b.line("criterion 1: incremental fold sums to 3 on eager and 20 "
               "random schedules"))


def test_2_schedule_determinism(acceptance_report):
    b = Budget(30)
    rep = harness.check_determinism(schedules=50)
    detail = "; ".join(f"{v.program} {v.agreed}/{v.schedules}"
                       for v in rep.verdicts)
    acceptance_report(
        rep.ok and b.within,
        b.line(f"criterion 2: 4 programs x 50 schedules agree ({detail})"))


def test_3_phase_violation_diagnostic(acceptance_report):
    b = Budget(1)
    prog = harness.corpus_program("phase_violation")
    ok = False
    detail = "accepted"
    try:
        type_of_expr(prog.expr, file="phase_violation.cg")
    except SourceError as ex:
        msg = str(ex)
        ok = msg.startswith("phase_violation.cg:7:11:") and "T-Map" in msg
        detail = msg.split(": ", 1)[0]
    acceptance_report(
        ok and b.within,
        b.line(f"criterion 3: emitting map function rejected at {detail}"))


def test_4_rewrite_soundness(acceptance_report):
    b = Budget(60)
    rep = harness.check_rewrite_soundness(min_pairs=200)
    acceptance_report(
        rep.ok and rep.pairs >= 200 and b.within,
        b.line(f"criterion 4: {rep.agreed}/{rep.pairs} sampled rewrites "
               "preserve the deterministic completion"))


def test_5_reuse_guard(acceptance_report):
    b = Budget(1)
    never = reuse_never_offered(seeds=20)
    r = engine.run(state.init(harness.corpus_program("reuse_guard")))
    facts = harness.check_facts("reuse_guard", r.config)
    acceptance_report(
        never and r.status == "terminal" and facts is None and b.within,
        b.line("criterion 5: unmarked folds never reused, distinct results "
               "kept"))


def test_6_preservation_progress(acceptance_report):
    b = Budget(60)
    rep = harness.check_preservation_progress(total_steps=10_000)
    acceptance_report(
        rep.ok and rep.steps == 10_000 and b.within,
        b.line(f"criterion 6: {rep.steps} random steps, "
               f"{rep.type_changes} type changes, {rep.stuck_states} stuck "
               "states"))


def test_7_eager_policy_is_deterministic(acceptance_report):
    b = Budget(5)
    worst = 0
    for name in harness.RUNNABLE:
        config = state.init(harness.corpus_program(name))
        for _ in range(200_000):
            if state.is_terminal(config):
                break
            redexes = eager_enumerate(config)
            worst = max(worst, len(redexes))
            if len(redexes) != 1:
                break
            config, _, _ = apply_redex(config, redexes[0])
        else:
            worst = max(worst, 99)
        if worst > 1:
            break
    acceptance_report(
        worst == 1 and b.within,
        b.line("criterion 7: eager enumeration offers exactly one redex "
               "along all bundled runs"))


def test_8_rank_program_emission_order(acceptance_report):
    b = Budget(1)
    kinds = eager_emission_kinds("core_pr", limit=9)
    want = ["map", "fold", "fold", "map", "map", "fold", "fold", "map", "map"]
    acceptance_report(
        kinds == want and b.within,
        b.line(f"criterion 8: rank program emits {','.join(kinds)}"))
