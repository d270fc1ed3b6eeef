"""Validation harnesses over the bundled program corpus: schedule
determinism, checked against each program's `-- expect` terminal, and
preservation, progress, soundness and reuse checks on one random `_walk`.
A walk draws from `engine.run`'s index, which rebuilds only what a step
changed, and re-typing its configuration reads the types kept on the terms
the step carried over (see `state`)."""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache
from importlib import resources

from . import engine, state, tlo
# `enumerate_redexes` is unused here, but perfbench/layers.py wraps this binding
from .engine import (  # noqa: F401
    Blocked, apply_redex, enumerate_redexes, frontend_redex)
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


### uniformly random walks

def _walk(config: Configuration, rng: random.Random, tlo_on: bool):
    """Steps drawn uniformly by `rng` from `config`, with rewrites of every
    rule if `tlo_on`.  Like `engine.run`, it draws from one `engine._Index`,
    advanced after each step.  Yields each configuration reached, the rule
    that led there (None at the start) and the refreshed index, None once it
    is terminal; ends there or where the index offers nothing."""
    ix, rule = engine._Index(config, None if tlo_on else (), False), None
    while not ix.terminal():
        n = ix.refresh()
        yield ix.config, rule, ix
        if not n + ix.ncands:
            return
        k = rng.randrange(n + ix.ncands)
        r = ix.plain_at(k) if k < n else engine._opt(ix.cand_at(k - n))
        config, rule, labels = apply_redex(ix.config, r)
        ix.advance(r, config, labels)
    yield ix.config, rule, None


class _JSONReport:
    def to_json(self) -> dict:
        return {"ok": self.ok, **asdict(self)}


### preservation and progress

@dataclass
class MetatheoryReport(_JSONReport):
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
    steps = type_changes = effect_flips = stuck_states = 0
    notes: list[str] = []
    walk = 0
    while steps < total_steps:
        name = RUNNABLE[walk % len(RUNNABLE)]
        rng = random.Random(1000 + walk)
        walk += 1
        config = state.init(corpus_program(name))
        ct = type_of_config(config)
        for config, rule, ix in _walk(config, rng, tlo_on=False):
            if rule is not None:
                steps += 1
                try:
                    ct2 = type_of_config(config)
                except SourceError as ex:
                    type_changes += 1
                    notes.append(f"{name}: step {rule} broke typing: {ex}")
                    break
                if ct2.frontend != ct.frontend:
                    type_changes += 1
                    notes.append(f"{name}: type changed {ct.frontend} -> "
                                 f"{ct2.frontend} after {rule}")
                if not ct.effect and ct2.effect:
                    effect_flips += 1
                    notes.append(f"{name}: pure frontend turned emitting "
                                 f"after {rule}")
                ct = ct2
            if steps >= total_steps:
                break
            if ix is not None and not ix.refresh():
                stuck_states += 1
                fr = frontend_redex(config)
                notes.append(f"{name}: no redex, frontend waits on label "
                             f"{fr.label}" if isinstance(fr, Blocked)
                             else f"{name}: no redex in non-terminal state")
    return MetatheoryReport(steps, type_changes, effect_flips, stuck_states,
                            notes[:20])


### rewrite soundness

@dataclass
class SoundnessReport(_JSONReport):
    pairs: int
    agreed: int
    counterexamples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.pairs == self.agreed and not self.counterexamples


def check_rewrite_soundness(min_pairs: int = 200) -> SoundnessReport:
    """Sample reachable configurations and single rewrite applications;
    completing with and without the rewrite must agree on the terminal."""
    pairs = agreed = 0
    counterexamples: list[str] = []
    walk = 0
    while pairs < min_pairs and walk < 400:
        name = SOUNDNESS_SET[walk % len(SOUNDNESS_SET)]
        rng = random.Random(5000 + walk)
        walk += 1
        for config, _, ix in _walk(state.init(corpus_program(name)),
                                   rng, tlo_on=True):
            if ix is None or pairs >= min_pairs:
                break
            if not ix.ncands:
                continue
            # drawn before the walk draws its next step, from the same rng
            cand = ix.cand_at(rng.randrange(ix.ncands))
            rewritten, _ = tlo.apply_rewrite(config, cand)
            left = engine.run(config, scheduler="det")
            right = engine.run(rewritten, scheduler="det")
            pairs += 1
            if (left.status == right.status == "terminal"
                    and terminal_digest(left.config)
                    == terminal_digest(right.config)):
                agreed += 1
            else:
                counterexamples.append(
                    f"{name}: {cand.rule} at station {cand.station} "
                    f"offset {cand.start} -> {left.status}/{right.status}")
    return SoundnessReport(pairs, agreed, counterexamples[:10])
