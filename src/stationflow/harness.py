"""Validation harnesses over the bundled program corpus: schedule
determinism, checked against each program's `-- expect` terminal, and
preservation, progress and soundness checks on random walks.  A walk is
`engine.steps`, the driver `engine.run` consumes, with `engine.uniform`
drawing among every plain redex and candidate.  It steps through this
module's binding of `apply_redex`, so a probe that wraps that binding counts
the walks' steps apart from those of the runs they start.  Its index
rebuilds only what a step changed, and re-typing its configuration reads
the types kept on the terms the step carried over (see `state`)."""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache
from importlib import resources

from . import engine, state, tlo
# `enumerate_redexes` and `frontend_redex` are unused here, but
# perfbench/layers.py wraps these bindings
from .engine import (  # noqa: F401
    apply_redex, enumerate_redexes, frontend_redex)
from .parser import Program, SourceError, parse_source
from .state import Configuration, terminal_digest
from .types import type_of_config

RUNNABLE = ("incremental_folding", "core_social", "core_pr",
            "chronological_order", "reuse_guard")
REJECTED = ("phase_violation",)
DETERMINISM_SET = ("core_social", "core_pr", "chronological_order",
                   "incremental_folding")
SOUNDNESS_SET = ("core_social", "core_pr", "chronological_order",
                 "reuse_guard")


def corpus_text(name: str) -> str:
    return (resources.files("stationflow.corpus") / f"{name}.cg").read_text()


@cache  # a Program is immutable; what runs keep on it holds in any run
def corpus_program(name: str) -> Program:
    return parse_source(corpus_text(name), f"{name}.cg")


### expected terminal facts

_EXPECT = re.compile(r"^-- expect (\w+): (.*)$", re.MULTILINE)


def check_facts(name: str, config: Configuration) -> str | None:
    """None when the terminal `config` has every field that corpus program
    `name` declares in a line `-- expect FIELD: JSON`, FIELD a key of
    `state.canonical_terminal`; else what differs."""
    expected = _EXPECT.findall(corpus_text(name))
    if not expected:
        return f"{name}.cg declares no expected terminal"
    shape = state.canonical_terminal(config)
    for key, text in expected:
        want, got = json.loads(text), shape.get(key)
        if want != got:
            return f"{key}: expected {json.dumps(want)}, got {json.dumps(got)}"
    return None


### determinism across schedules

@dataclass
class ProgramVerdict:
    """One program's runs under the compared schedules."""
    program: str
    digest: str
    schedules: int
    agreed: int
    fact_error: str | None
    failures: list[str] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)  # eager's first
    rewrites: dict[str, int] = field(default_factory=dict)  # tlo-random's

    @property
    def ok(self) -> bool:
        return self.agreed == self.schedules and self.fact_error is None


@dataclass
class DeterminismReport:
    """The verdict of every program `check_determinism` ran."""
    verdicts: list[ProgramVerdict]
    # each way a run failed: its status, "diverged" or "facts"
    faults: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_json(self) -> dict:
        return {"ok": self.ok, "programs": [asdict(v) for v in self.verdicts]}


def check_determinism(programs=DETERMINISM_SET, schedules: int = 50,
                      strict_residuals: bool = False,
                      fuel: int = 1_000_000) -> DeterminismReport:
    """One eager run plus seeded rewriting runs per program; every schedule
    must land on the same canonical terminal.  A verdict counts the steps
    of each schedule and the rewrites of the rewriting runs by rule."""
    report = DeterminismReport([])
    for name in programs:
        prog = corpus_program(name)
        base = engine.run(state.init(prog), scheduler="eager", fuel=fuel)
        failures: list[str] = []
        steps, rewrites = [base.steps], Counter()
        agreed = 0
        if base.status != "terminal":
            digest, fact_error = "", "no eager terminal"
            failures.append(f"eager: {base.status} {base.detail}")
            report.faults.add(base.status)
        else:
            digest = terminal_digest(base.config, strict_residuals)
            agreed = 1
            fact_error = check_facts(name, base.config)
            if fact_error:
                report.faults.add("facts")
            for seed in range(schedules - 1):
                r = engine.run(state.init(prog), scheduler="tlo-random",
                               seed=seed, fuel=fuel)
                steps.append(r.steps)
                rewrites.update(r.rewrites)
                if r.status != "terminal":
                    failures.append(f"seed {seed}: {r.status} {r.detail}")
                    report.faults.add(r.status)
                elif terminal_digest(r.config, strict_residuals) != digest:
                    failures.append(f"seed {seed}: terminal diverged")
                    report.faults.add("diverged")
                else:
                    agreed += 1
        report.verdicts.append(ProgramVerdict(name, digest, schedules, agreed,
                                              fact_error, failures, steps,
                                              dict(rewrites.most_common())))
    return report


class _JSONReport:
    def to_json(self) -> dict:
        return {"ok": self.ok, **asdict(self)}


### preservation and progress

@dataclass
class MetatheoryReport(_JSONReport):
    """What the preservation and progress walks found."""
    steps: int
    type_changes: int
    effect_flips: int
    stuck_states: int
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.type_changes == 0 and self.effect_flips == 0
                and self.stuck_states == 0)


def check_preservation_progress(total_steps: int = 10_000) -> MetatheoryReport:
    """Randomly scheduled walks, re-typing the configuration after every
    step: the frontend type must never change, a pure frontend must stay
    pure, and a well-typed non-terminal must always offer a redex."""
    steps = type_changes = effect_flips = stuck_states = walk = 0
    notes: list[str] = []
    while steps < total_steps:
        name = RUNNABLE[walk % len(RUNNABLE)]
        rng = random.Random(1000 + walk)
        walk += 1
        config = state.init(corpus_program(name))
        ct = type_of_config(config)
        for ix, r, _ in engine.steps(config, engine.uniform, rng, (), False,
                                     apply_redex):
            if r is not None:
                steps += 1
                try:
                    ct2 = type_of_config(ix.config)
                except SourceError as ex:
                    type_changes += 1
                    notes.append(f"{name}: step {r.rule} broke typing: {ex}")
                    break
                if ct2.frontend != ct.frontend:
                    type_changes += 1
                    notes.append(f"{name}: type changed {ct.frontend} -> "
                                 f"{ct2.frontend} after {r.rule}")
                if not ct.effect and ct2.effect:
                    effect_flips += 1
                    notes.append(f"{name}: pure frontend turned emitting "
                                 f"after {r.rule}")
                ct = ct2
            if steps >= total_steps or ix.terminal():
                break
        else:  # the walk stopped short of the terminal
            stuck_states += 1
            status, detail = engine.stopped(ix.config)
            notes.append(f"{name}: no redex, {status}: {detail}")
    return MetatheoryReport(steps, type_changes, effect_flips, stuck_states,
                            notes[:20])


### rewrite soundness

@dataclass
class SoundnessReport(_JSONReport):
    """The sampled rewrites, and whether each left the terminal unchanged."""
    pairs: int
    agreed: int
    counterexamples: list[str] = field(default_factory=list)
    rules: dict[str, int] = field(default_factory=dict)  # rule -> pairs

    @property
    def ok(self) -> bool:
        return self.pairs == self.agreed and not self.counterexamples


def check_rewrite_soundness(min_pairs: int = 200) -> SoundnessReport:
    """Sample reachable configurations and single rewrite applications;
    completing with and without the rewrite must agree on the terminal.
    The report counts the sampled pairs by rule."""
    pairs = agreed = walk = 0
    rules = Counter()
    counterexamples: list[str] = []
    while pairs < min_pairs and walk < 400:
        name = SOUNDNESS_SET[walk % len(SOUNDNESS_SET)]
        rng = random.Random(5000 + walk)
        walk += 1
        for ix, _, _ in engine.steps(state.init(corpus_program(name)),
                                     engine.uniform, rng, None, False,
                                     apply_redex):
            if pairs >= min_pairs or ix.terminal():
                break
            ix.refresh()
            if not ix.derive():
                continue
            # drawn before the walk draws its next step, from the same rng
            cand = ix.cand_at(rng.randrange(ix.ncands))
            rewritten, _ = tlo.apply_rewrite(ix.config, cand)
            left = engine.run(ix.config, scheduler="det")
            right = engine.run(rewritten, scheduler="det")
            pairs += 1
            rules[cand.rule] += 1
            if (left.status == right.status == "terminal"
                    and terminal_digest(left.config)
                    == terminal_digest(right.config)):
                agreed += 1
            else:
                counterexamples.append(
                    f"{name}: {cand.rule} at station {cand.station} "
                    f"offset {cand.start} -> {left.status}/{right.status}")
    return SoundnessReport(pairs, agreed, counterexamples[:10],
                           dict(rules.most_common()))
