"""Command line front door.

Exit codes: 0 success, 1 a checked property failed, 2 usage, syntax or type
errors (an integer literal longer than the interpreter reads is a syntax
error), 3 inconclusive (fuel ran out, the run wedged, or a value `run` prints
has more digits than the interpreter converts to text).  Machine-readable
JSON goes to stdout, human summaries to stderr.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import engine, harness, state
from .parser import SourceError, parse_file
from .tlo import check_rules
from .types import type_of_expr

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _say(msg: str) -> None:
    click.echo(msg, err=True)


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _bounded(command):
    """`command`, ending with one stderr line where its input nests deeper
    than the interpreter's recursion limit (exit 2) or a value it prints has
    more digits than the interpreter converts to text (exit 3)."""
    @functools.wraps(command)
    def bounded(**params):
        try:
            return command(**params)
        except RecursionError:
            _say(f"{params['path']}: input nests too deeply to process")
            sys.exit(EXIT_USAGE)
        except ValueError as ex:
            if "integer string conversion" not in str(ex):
                raise
            _say(f"{params['path']}: a value has more than "
                 f"{sys.get_int_max_str_digits()} digits, too many to print")
            sys.exit(EXIT_INCONCLUSIVE)
    return bounded


@click.group()
def cli() -> None:
    """Continuous graph processing playground: typecheck and run programs,
    validate schedule determinism and the metatheory."""


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_bounded
def typecheck(path: str) -> None:
    """Parse and type a .cg program."""
    try:
        prog = parse_file(path)
        t, eff = type_of_expr(prog.expr, file=str(path))
    except SourceError as ex:
        _say(str(ex))
        sys.exit(EXIT_USAGE)
    _emit({"ok": True, "type": str(t), "effect": "T" if eff else "F"})
    _say(f"{path}: {t} ({'may emit' if eff else 'pure'})")


def _parse_rules(text: str | None):
    if text is None:
        return None
    rules = tuple(r.strip() for r in text.split(",") if r.strip())
    try:
        check_rules(rules)
    except ValueError as e:
        raise click.UsageError(str(e)) from None
    return rules


@cli.command(name="run")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--scheduler", default="eager",
              type=click.Choice(tuple(engine.SCHEDULERS)))
@click.option("--seed", default=0, show_default=True)
@click.option("--fuel", default=1_000_000, show_default=True,
              type=click.IntRange(min=0))
@click.option("--trace", "trace_path", default=None,
              type=click.Path(dir_okay=False), help="Write a JSONL step trace.")
@click.option("--tlo-rules", default=None,
              help="Comma list restricting the rewrite rules.")
@click.option("--assume-set-adjacency", is_flag=True,
              help="Let the identity prover treat adjacency as a set.")
@click.option("--strict-residuals", is_flag=True,
              help="Include residual targets in the reported digest.")
@_bounded
def run_cmd(path, scheduler, seed, fuel, trace_path, tlo_rules,
            assume_set_adjacency, strict_residuals) -> None:
    """Reduce a .cg program to its terminal configuration."""
    # no other scheduler draws rewrites, so it would ignore these options
    for name, given in (("--tlo-rules", tlo_rules is not None),
                        ("--assume-set-adjacency", assume_set_adjacency)):
        if given and scheduler != "tlo-random":
            raise click.UsageError(f"{name} applies only under --scheduler tlo-random")
    try:
        prog = parse_file(path)
        type_of_expr(prog.expr, file=str(path))
    except SourceError as ex:
        _say(str(ex))
        sys.exit(EXIT_USAGE)
    result = engine.run(state.init(prog), scheduler=scheduler, seed=seed,
                        fuel=fuel, trace=trace_path is not None,
                        tlo_rules=_parse_rules(tlo_rules),
                        assume_set_adjacency=assume_set_adjacency)
    if trace_path:
        engine.write_trace(trace_path, result.trace)
    terminal = result.status == "terminal"
    payload = {
        "status": result.status,
        "steps": result.steps,
        "rewrites": result.rewrites,
        "detail": result.detail,
        "frontend": state.to_sexpr(result.config.frontend) if terminal else None,
        "terminal": state.canonical_terminal(result.config) if terminal else None,
        "digest": state.terminal_digest(result.config, strict_residuals)
        if terminal else None,
    }
    _emit(payload)
    _say(f"{path}: {result.status} after {result.steps} steps"
         + (f" ({result.detail})" if result.detail else ""))
    sys.exit(EXIT_OK if terminal else EXIT_INCONCLUSIVE)


@cli.command(name="check-determinism")
@click.option("--schedules", default=50, show_default=True,
              type=click.IntRange(min=1))
@click.option("--programs", default=None,
              help="Comma list of corpus programs (default: the standard four).")
@click.option("--fuel", default=1_000_000, show_default=True,
              type=click.IntRange(min=0))
@click.option("--strict-residuals", is_flag=True)
def check_determinism_cmd(schedules, programs, fuel, strict_residuals) -> None:
    """Compare terminals across one eager and many rewriting schedules."""
    names = harness.DETERMINISM_SET if programs is None \
        else tuple(p.strip() for p in programs.split(","))
    for n in names:
        if n not in harness.RUNNABLE:
            raise click.UsageError(f"unknown corpus program {n!r}")
    report = harness.check_determinism(names, schedules=schedules,
                                       strict_residuals=strict_residuals,
                                       fuel=fuel)
    _emit(report.to_json())
    for v in report.verdicts:
        t = v.steps[1:]  # the rewriting runs'
        runs = (f"{min(t)}/{sum(t) / len(t):.1f}/{max(t)} (min/mean/max)"
                if t else "none")
        _say(f"{v.program}: {v.agreed}/{v.schedules} schedules agree"
             + (f"; facts: {v.fact_error}" if v.fact_error else "")
             + f"; steps eager {v.steps[0]}, tlo-random {runs}"
             f"; {sum(v.rewrites.values())} rewrites"
             + (": " + ", ".join(f"{r} {n}" for r, n in v.rewrites.items())
                if v.rewrites else ""))
    sys.exit(EXIT_OK if report.ok else EXIT_INCONCLUSIVE
             if report.faults == {"fuel"} else EXIT_PROPERTY)


@cli.command(name="check-metatheory")
@click.option("--steps", default=10_000, show_default=True,
              type=click.IntRange(min=0), help="Random-walk steps to re-type.")
@click.option("--soundness-pairs", default=200, show_default=True,
              type=click.IntRange(min=0),
              help="Rewrite soundness samples; 0 skips that phase.")
def check_metatheory_cmd(steps, soundness_pairs) -> None:
    """Preservation and progress on random walks, plus rewrite soundness."""
    meta = harness.check_preservation_progress(total_steps=steps)
    payload = {"metatheory": meta.to_json()}
    ok = meta.ok
    _say(f"walked {meta.steps} steps: {meta.type_changes} type changes, "
         f"{meta.effect_flips} effect flips, {meta.stuck_states} stuck states")
    if soundness_pairs:
        sound = harness.check_rewrite_soundness(min_pairs=soundness_pairs)
        payload["soundness"] = sound.to_json()
        ok = ok and sound.ok
        _say(f"rewrite soundness: {sound.agreed}/{sound.pairs} pairs agree"
             + (": " + ", ".join(f"{r} {n}" for r, n in sound.rules.items())
                if sound.rules else ""))
    _emit(payload)
    sys.exit(EXIT_OK if ok else EXIT_PROPERTY)


@cli.command(name="trace-diff")
@click.argument("left", type=click.Path(exists=True, dir_okay=False))
@click.argument("right", type=click.Path(exists=True, dir_okay=False))
def trace_diff(left, right) -> None:
    """Compare two JSONL step traces and report the first divergence."""
    def load(p):
        records = []
        with open(p, "rb") as fh:
            for n, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except (ValueError, RecursionError):
                    rec = None
                if not (isinstance(rec, dict) and {"rule", "site"} <= rec.keys()):
                    _say(f"{p}:{n}: not a trace record "
                         "(a JSON object with rule and site)")
                    sys.exit(EXIT_USAGE)
                records.append(rec)
        return records

    a, b = load(left), load(right)
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            _emit({"equal": False, "step": i, "left": ra, "right": rb})
            _say(f"traces diverge at step {i}: "
                 f"{ra['rule']}@{ra['site']} vs {rb['rule']}@{rb['site']}")
            sys.exit(EXIT_PROPERTY)
    if len(a) != len(b):
        i = min(len(a), len(b))
        _emit({"equal": False, "step": i,
               "left": a[i] if i < len(a) else None,
               "right": b[i] if i < len(b) else None})
        _say(f"traces diverge at step {i}: one trace ends")
        sys.exit(EXIT_PROPERTY)
    _emit({"equal": True, "steps": len(a)})
    _say(f"traces identical over {len(a)} steps")


def main() -> None:
    cli(prog_name="stationflow")


if __name__ == "__main__":
    main()
