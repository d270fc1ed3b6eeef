"""The four benchmark workloads.

A workload has a `setup(seed)` that generates and prepares its inputs, and
a `run(prepared, probe, clock)` that drives the engine, checks every
outcome and returns a `Rep`.  One call of each, in a fresh process, is one
repetition; `worker.py` runs it.  All work between the first step and the
last verdict happens inside `clock.segment()` blocks, one engine run or
harness check each (see refclock.py).
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

# called through their modules, so the layer tracer sees these calls too
from stationflow import engine, harness, parser, state, tlo, types
from stationflow.terms import Int

import programs
from refclock import RefClock

# (stations, runs): small rings run more often so that every size gets
# enough steps for a per-step cost that is not mostly start-up
SCALE_SIZES = ((8, 4), (32, 2), (128, 1))
SCALE_MAPS = 3
MIX_STATIONS, MIX_BLOCKS = 8, 1
MIX_PROGRAMS, MIX_SCHEDULES = 16, 2
VERIFY_SCHEDULES, VERIFY_WALK_STEPS, VERIFY_PAIRS = 10, 2000, 20
# rewrite-mix and replay keep their program shapes and schedule seeds for
# every workload seed, which draws only payloads and constants: the steps
# then repeat exactly across seeds, and the cost does not swing with how
# much a random schedule happens to inflate the terms
SHAPE_SEED = 0


@dataclass
class Rep:
    """Outcome of one repetition: steps, terminal digests in run order, the
    number of checks made and the messages of those that failed."""
    steps: int = 0
    digests: list[str] = field(default_factory=list)
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(message)
        return ok


class Patches:
    """Attributes replaced on modules or classes; `restore` puts back the
    originals, last replaced first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, obj, attr: str, new) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def restore(self) -> None:
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()


class Probe(Patches):
    """Recorders at three bindings, cheap enough for the untraced pass: the
    rewrites applied, and the steps a harness takes inside and outside
    `engine.run`."""

    def __init__(self) -> None:
        super().__init__()
        self.applied: list[tuple[str, tuple[int, ...]]] = []
        self.steps = 0

    def install(self) -> None:
        apply_rewrite, run, apply_redex = (tlo.apply_rewrite, engine.run,
                                           harness.apply_redex)

        def applied(config, cand):
            self.applied.append((cand.rule, cand.labels))
            return apply_rewrite(config, cand)

        def counted_run(*args, **kwargs):
            result = run(*args, **kwargs)
            self.steps += result.steps
            return result

        def counted_step(*args, **kwargs):
            self.steps += 1
            return apply_redex(*args, **kwargs)

        self.patch(tlo, "apply_rewrite", applied)
        self.patch(engine, "run", counted_run)
        self.patch(harness, "apply_redex", counted_step)


@dataclass(frozen=True)
class Prepared:
    program: programs.GenProgram
    config: state.Configuration
    scheduler: str
    seeds: tuple[int, ...]


def _prepare(gen: programs.GenProgram, scheduler: str,
             seeds=(0,)) -> Prepared:
    prog = parser.parse_source(gen.source, f"{gen.name}.cg")
    types.type_of_expr(prog.expr, file=f"{gen.name}.cg")
    return Prepared(gen, state.init(prog), scheduler, tuple(seeds))


def _reduce(clock: RefClock, p: Prepared, seed: int, trace: bool):
    with clock.segment():
        return engine.run(p.config, scheduler=p.scheduler, seed=seed,
                          trace=trace,
                          assume_set_adjacency=p.scheduler == "tlo-random")


def _run_checked(rep: Rep, clock: RefClock, p: Prepared, seed: int,
                 trace: bool = False):
    """One engine run, checked against the program's reference value."""
    r = _reduce(clock, p, seed, trace)
    with clock.segment():
        rep.steps += r.steps
        where = f"{p.program.name} {p.scheduler} seed {seed}"
        if rep.check(r.status == "terminal", f"{where}: {r.status} {r.detail}"):
            rep.check(r.config.frontend == Int(p.program.expected),
                      f"{where}: value {state.to_sexpr(r.config.frontend)}, "
                      f"expected {p.program.expected}")
            rep.digests.append(state.terminal_digest(r.config))
    return r


### scale-eager

def scale_setup(seed: int) -> list[Prepared]:
    rng = random.Random(seed)
    return [_prepare(programs.scale_program(n, SCALE_MAPS, rng), "eager",
                     range(runs))
            for n, runs in SCALE_SIZES]


def scale_run(prepared: list[Prepared], probe: Probe, clock: RefClock) -> Rep:
    rep = Rep()
    us_per_step = []
    for p in prepared:
        steps, ref_s = rep.steps, clock.ref_s
        for seed in p.seeds:  # eager ignores the seed: identical runs
            _run_checked(rep, clock, p, seed)
        us_per_step.append((clock.ref_s - ref_s) * 1e6 / (rep.steps - steps))
    rep.extra["step_cost_growth"] = us_per_step[-1] / us_per_step[0]
    return rep


### rewrite-mix

def mix_setup(seed: int) -> list[Prepared]:
    shape, values = random.Random(SHAPE_SEED), random.Random(seed)
    out = []
    for _ in range(MIX_PROGRAMS):
        gen = programs.mix_program(MIX_STATIONS, MIX_BLOCKS, shape, values)
        seeds = [shape.randrange(2 ** 31) for _ in range(MIX_SCHEDULES)]
        out.append(_prepare(gen, "tlo-random", seeds))
    return out


def mix_run(prepared: list[Prepared], probe: Probe, clock: RefClock) -> Rep:
    rep = Rep()
    applied: set[str] = set()
    for p in prepared:
        first = len(rep.digests)
        for seed in p.seeds:
            probe.applied.clear()
            _run_checked(rep, clock, p, seed)
            for rule, labels in probe.applied:
                applied.add(rule)
                if rule == "reuse":
                    rep.check(not (set(labels) & p.program.noncomm_labels),
                              f"{p.program.name} seed {seed}: reuse applied "
                              f"to the non-commutative folds {labels}")
        rep.check(len(set(rep.digests[first:])) <= 1,
                  f"{p.program.name}: schedules reached different terminals")
    missing = sorted(set(tlo.RULE_NAMES) - applied)
    rep.check(not missing, f"rewrite rules never applied: {missing}")
    return rep


### verify

def verify_setup(seed: int) -> None:
    """The bundled corpus under the harness's own walk and schedule seeds;
    `seed` changes nothing here, so every run does the same work.  Every
    runnable program is type-checked first, as `stationflow typecheck`
    would."""
    for name in harness.RUNNABLE:
        prog = parser.parse_source(harness.corpus_text(name), f"{name}.cg")
        types.type_of_expr(prog.expr, file=f"{name}.cg")
        state.init(prog)


def verify_run(prepared: None, probe: Probe, clock: RefClock) -> Rep:
    rep = Rep()
    # one program per call: the same work as one call over all four
    for name in harness.DETERMINISM_SET:
        with clock.segment():
            det = harness.check_determinism((name,), schedules=VERIFY_SCHEDULES)
            rep.check(det.ok, f"check_determinism: {json.dumps(det.to_json())}")
            rep.digests.extend(v.digest for v in det.verdicts)
    with clock.segment():
        meta = harness.check_preservation_progress(VERIFY_WALK_STEPS)
        rep.check(meta.ok, f"check_preservation_progress: {meta.to_json()}")
    with clock.segment():
        sound = harness.check_rewrite_soundness(VERIFY_PAIRS)
        rep.check(sound.ok, f"check_rewrite_soundness: {sound.to_json()}")
    rep.steps = probe.steps
    return rep


### replay

def replay_setup(seed: int) -> list[Prepared]:
    shape, values = random.Random(SHAPE_SEED), random.Random(seed)
    return [
        _prepare(programs.scale_program(8, 2, shape, values), "eager"),
        _prepare(programs.scale_program(16, 2, shape, values), "eager"),
        *(_prepare(programs.mix_program(8, 1, shape, values), "tlo-random",
                   [shape.randrange(2 ** 31)])
          for _ in range(2)),
    ]


def _read_trace(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def replay_run(prepared: list[Prepared], probe: Probe, clock: RefClock) -> Rep:
    """Per program: an untraced run, a traced run written to disk, a traced
    re-run of the same seed, and a record-by-record trace comparison."""
    rep = Rep()
    plain_s = traced_s = 0.0
    # in the working directory: the benchmark writes nowhere else
    with tempfile.TemporaryDirectory(prefix=".perfbench_out-", dir=".") as tmp:
        out = Path(tmp)
        for k, p in enumerate(prepared):
            seed = p.seeds[0]
            ref_s = clock.ref_s
            base = _run_checked(rep, clock, p, seed)
            plain_s += clock.ref_s - ref_s
            ref_s = clock.ref_s
            first = _run_checked(rep, clock, p, seed, trace=True)
            traced_s += clock.ref_s - ref_s
            again = _run_checked(rep, clock, p, seed, trace=True)
            with clock.segment():
                paths = (out / f"{k}-a.jsonl", out / f"{k}-b.jsonl")
                engine.write_trace(paths[0], first.trace)
                engine.write_trace(paths[1], again.trace)
                a, b = _read_trace(paths[0]), _read_trace(paths[1])
                diverged = next((i for i, (ra, rb) in enumerate(zip(a, b))
                                 if ra != rb), min(len(a), len(b)))
                rep.check(len(a) == len(b) == base.steps == diverged,
                          f"{p.program.name}: traces differ at step {diverged}")
    rep.extra["trace_overhead"] = traced_s / plain_s
    return rep


WORKLOADS = {
    "scale-eager": (scale_setup, scale_run),
    "rewrite-mix": (mix_setup, mix_run),
    "verify": (verify_setup, verify_run),
    "replay": (replay_setup, replay_run),
}
