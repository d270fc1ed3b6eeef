"""Validation harnesses: schedule determinism, preservation and progress
walks, rewrite soundness sampling, and the bundled program corpus."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources

from . import engine, state, tlo
from .engine import Blocked, apply_redex, enumerate_redexes, frontend_redex
from .parser import Program, SourceError, parse_source
from .state import Configuration, terminal_digest
from .terms import OPERATIONS, Int, Node
from .types import type_of_config

RUNNABLE = ("incremental_folding", "core_social", "core_pr",
            "chronological_order", "reuse_guard")
REJECTED = ("phase_violation",)
DETERMINISM_SET = ("core_social", "core_pr", "chronological_order",
                   "incremental_folding")


def corpus_text(name: str) -> str:
    return (resources.files("stationflow.corpus") / f"{name}.cg").read_text()


def corpus_program(name: str) -> Program:
    return parse_source(corpus_text(name), f"{name}.cg")


### expected terminal facts, one checker per program

def _check_incremental_folding(config: Configuration) -> str | None:
    front = config.frontend
    if not (isinstance(front, Node) and isinstance(front.payload, Int)
            and front.payload.value == 3):
        return f"expected folded payload 3, got {state.to_sexpr(front)}"
    return None


def _check_core_social(config: Configuration) -> str | None:
    if config.frontend != Int(2):
        return f"expected queried payload 2, got {state.to_sexpr(config.frontend)}"
    return None


def _check_core_pr(config: Configuration) -> str | None:
    if config.frontend != Int(5000):
        return f"expected fixed-point rank 5000, got {state.to_sexpr(config.frontend)}"
    for s in config.backend:
        if not (isinstance(s.node, Node) and s.node.payload == Int(5000)):
            return f"station payload drifted: {state.to_sexpr(s.node)}"
    return None


def _check_chronological_order(config: Configuration) -> str | None:
    if config.frontend == Int(22):
        return "operations were reordered: payload 22"
    if config.frontend != Int(12):
        return f"expected payload 12, got {state.to_sexpr(config.frontend)}"
    return None


def _check_reuse_guard(config: Configuration) -> str | None:
    if config.frontend == Int(-1):
        return "fold result was wrongly shared: payload -1"
    if config.frontend != Int(1):
        return f"expected payload 1, got {state.to_sexpr(config.frontend)}"
    seconds = [e for _, e in config.store
               if isinstance(e.value, Node) and e.value.payload == Int(1)]
    if not any(e.residual == ("k3",) for e in seconds):
        return "second fold should retain the unmatched key k3 as residual"
    return None


FACT_CHECKS = {
    "incremental_folding": _check_incremental_folding,
    "core_social": _check_core_social,
    "core_pr": _check_core_pr,
    "chronological_order": _check_chronological_order,
    "reuse_guard": _check_reuse_guard,
}


def check_facts(name: str, config: Configuration) -> str | None:
    check = FACT_CHECKS.get(name)
    return check(config) if check else None


### determinism across schedules

@dataclass
class ProgramVerdict:
    program: str
    digest: str
    schedules: int
    agreed: int
    fact_error: str | None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.agreed == self.schedules and self.fact_error is None


@dataclass
class DeterminismReport:
    verdicts: list[ProgramVerdict]
    elapsed: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "programs": [{
                "program": v.program, "digest": v.digest,
                "schedules": v.schedules, "agreed": v.agreed,
                "fact_error": v.fact_error, "failures": v.failures,
            } for v in self.verdicts],
        }


def check_determinism(programs=DETERMINISM_SET, schedules: int = 50,
                      strict_residuals: bool = False,
                      fuel: int = 1_000_000) -> DeterminismReport:
    """One eager run plus seeded rewriting runs per program; every schedule
    must land on the same canonical terminal."""
    t0 = time.time()
    verdicts = []
    for name in programs:
        prog = corpus_program(name)
        base = engine.run(state.init(prog), scheduler="eager", fuel=fuel)
        failures: list[str] = []
        agreed = 0
        if base.status != "terminal":
            digest = ""
            failures.append(f"eager: {base.status} {base.detail}")
        else:
            digest = terminal_digest(base.config, strict_residuals)
            agreed = 1
            for seed in range(schedules - 1):
                r = engine.run(state.init(prog), scheduler="tlo-random",
                               seed=seed, fuel=fuel)
                if r.status != "terminal":
                    failures.append(f"seed {seed}: {r.status} {r.detail}")
                elif terminal_digest(r.config, strict_residuals) != digest:
                    failures.append(f"seed {seed}: terminal diverged")
                else:
                    agreed += 1
        fact_error = check_facts(name, base.config) if base.status == "terminal" \
            else "no eager terminal"
        verdicts.append(ProgramVerdict(name, digest, schedules, agreed,
                                       fact_error, failures))
    return DeterminismReport(verdicts, time.time() - t0)


### preservation and progress

@dataclass
class MetatheoryReport:
    steps: int
    type_changes: int
    effect_flips: int
    stuck_states: int
    notes: list[str] = field(default_factory=list)
    elapsed: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return (self.type_changes == 0 and self.effect_flips == 0
                and self.stuck_states == 0)

    def to_json(self) -> dict:
        return {"ok": self.ok, "steps": self.steps,
                "type_changes": self.type_changes,
                "effect_flips": self.effect_flips,
                "stuck_states": self.stuck_states, "notes": self.notes}


def check_preservation_progress(total_steps: int = 10_000,
                                programs=RUNNABLE) -> MetatheoryReport:
    """Randomly scheduled walks, re-typing the configuration after every
    step: the frontend type must never change, a pure frontend must stay
    pure, and a well-typed non-terminal must always offer a redex."""
    import random
    t0 = time.time()
    steps = type_changes = effect_flips = stuck_states = 0
    notes: list[str] = []
    walk = 0
    while steps < total_steps:
        name = programs[walk % len(programs)]
        rng = random.Random(1000 + walk)
        walk += 1
        config = state.init(corpus_program(name))
        ct = type_of_config(config)
        while steps < total_steps:
            if state.is_terminal(config):
                break
            redexes = enumerate_redexes(config, tlo_on=False)
            if not redexes:
                fr = frontend_redex(config)
                if isinstance(fr, Blocked):
                    stuck_states += 1
                    notes.append(f"{name}: no redex, frontend waits on "
                                 f"label {fr.label}")
                else:
                    stuck_states += 1
                    notes.append(f"{name}: no redex in non-terminal state")
                break
            config, rule, _ = apply_redex(
                config, redexes[rng.randrange(len(redexes))])
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
                notes.append(f"{name}: pure frontend turned emitting after {rule}")
            ct = ct2
    return MetatheoryReport(steps, type_changes, effect_flips, stuck_states,
                            notes[:20], time.time() - t0)


### rewrite soundness

@dataclass
class SoundnessReport:
    pairs: int
    agreed: int
    counterexamples: list[str] = field(default_factory=list)
    elapsed: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.pairs == self.agreed and not self.counterexamples

    def to_json(self) -> dict:
        return {"ok": self.ok, "pairs": self.pairs, "agreed": self.agreed,
                "counterexamples": self.counterexamples}


def _complete(config: Configuration, fuel: int = 1_000_000):
    return engine.run(config, scheduler="det", fuel=fuel)


def check_rewrite_soundness(min_pairs: int = 200,
                            programs=("core_social", "core_pr",
                                      "chronological_order", "reuse_guard"),
                            fuel: int = 200_000) -> SoundnessReport:
    """Sample reachable configurations and single rewrite applications;
    completing with and without the rewrite must agree on the terminal."""
    import random
    t0 = time.time()
    pairs = agreed = 0
    counterexamples: list[str] = []
    walk = 0
    while pairs < min_pairs and walk < 400:
        name = programs[walk % len(programs)]
        rng = random.Random(5000 + walk)
        walk += 1
        config = state.init(corpus_program(name))
        for _ in range(fuel):
            if state.is_terminal(config) or pairs >= min_pairs:
                break
            cands = tlo.candidates(config)
            if cands:
                cand = cands[rng.randrange(len(cands))]
                rewritten, _ = tlo.apply_rewrite(config, cand)
                left = _complete(config)
                right = _complete(rewritten)
                pairs += 1
                if (left.status == right.status == "terminal"
                        and terminal_digest(left.config)
                        == terminal_digest(right.config)):
                    agreed += 1
                else:
                    counterexamples.append(
                        f"{name}: {cand.rule} at station {cand.station} "
                        f"offset {cand.start} -> {left.status}/{right.status}")
            redexes = enumerate_redexes(config, tlo_on=True)
            if not redexes:
                break
            config, _, _ = apply_redex(
                config, redexes[rng.randrange(len(redexes))])
    return SoundnessReport(pairs, agreed, counterexamples[:10],
                           time.time() - t0)


### single-run helpers

def eager_emission_kinds(name: str, limit: int | None = None) -> list[str]:
    """Kinds of the operations the eager run emits, in order."""
    config = state.init(corpus_program(name))
    kinds: list[str] = []
    while not state.is_terminal(config):
        redexes = engine.eager_enumerate(config)
        if not redexes:
            break
        config, rule, _ = apply_redex(config, redexes[0])
        if rule == "Emit":
            _, op = config.top[-1].entries[0]
            kinds.append(OPERATIONS[type(op)].keyword)
            if limit is not None and len(kinds) >= limit:
                break
    return kinds


def reuse_never_offered(seeds: int = 20) -> bool:
    """Drive the guard program under rewriting schedules and watch the
    candidate lists: the non-commutative fold pair must never offer reuse."""
    import random
    prog = corpus_program("reuse_guard")
    for seed in range(seeds):
        rng = random.Random(seed)
        config = state.init(prog)
        for _ in range(5000):
            if state.is_terminal(config):
                break
            for cand in tlo.candidates(config):
                if cand.rule == "reuse":
                    return False
            redexes = enumerate_redexes(config, tlo_on=True)
            if not redexes:
                break
            config, _, _ = apply_redex(
                config, redexes[rng.randrange(len(redexes))])
    return True
