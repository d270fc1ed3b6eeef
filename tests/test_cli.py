"""Command line behavior: exit codes, JSON on stdout, diagnostics on
stderr, trace files."""

import dataclasses
import itertools
import json
import sys

import pytest
from click.testing import CliRunner

from stationflow import engine, harness, state
from stationflow.cli import cli


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def prog_file(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.cg"
        p.write_text(harness.corpus_text(name))
        return str(p)
    return write


class TestTypecheck:
    def test_accepts_and_reports_type(self, runner, prog_file):
        r = runner.invoke(cli, ["typecheck", prog_file("incremental_folding")])
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert out == {"ok": True, "type": "node", "effect": "T"}

    def test_phase_violation_exits_2(self, runner, prog_file):
        r = runner.invoke(cli, ["typecheck", prog_file("phase_violation")])
        assert r.exit_code == 2
        assert "T-Map" in r.stderr
        # position points at the emission inside the operation function
        line = r.stderr.strip().splitlines()[-1]
        path, lineno, col, rest = line.split(":", 3)
        assert path.endswith("phase_violation.cg")
        assert int(lineno) > 0 and int(col) > 0

    def test_syntax_error_exits_2(self, runner, tmp_path):
        p = tmp_path / "bad.cg"
        p.write_text("let = 3")
        r = runner.invoke(cli, ["typecheck", str(p)])
        assert r.exit_code == 2
        assert r.stderr.startswith(str(p) + ":1:")

    def test_superscript_digit_exits_2(self, runner, tmp_path):
        p = tmp_path / "sup.cg"
        p.write_text("\u00b2 + 1", encoding="utf-8")
        r = runner.invoke(cli, ["typecheck", str(p)])
        assert r.exit_code == 2
        assert r.stderr == (f"{p}:1:1: syntax: unexpected character "
                            "'\u00b2'\n")

    def test_overlong_literal_exits_2(self, runner, tmp_path):
        # past the interpreter's limit on the digits `int` reads
        p = tmp_path / "big.cg"
        p.write_text("1" * 5000)
        r = runner.invoke(cli, ["typecheck", str(p)])
        assert r.exit_code == 2
        assert r.stderr == (f"{p}:1:1: syntax: integer literal of 5000"
                            " digits is too long\n")


class TestRun:
    def test_terminal_json(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("incremental_folding")])
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert out["status"] == "terminal"
        assert out["frontend"] == "(node (key _) (int 3) (kl))"
        assert out["digest"]
        assert out["rewrites"] == {}

    def test_rewrites_counted(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("core_pr"), "--scheduler",
                                "tlo-random", "--seed", "7"])
        assert r.exit_code == 0
        want = engine.run(state.init(harness.corpus_program("core_pr")),
                          scheduler="tlo-random", seed=7).rewrites
        assert json.loads(r.stdout)["rewrites"] == want != {}

    def test_schedulers_agree(self, runner, prog_file):
        p = prog_file("core_social")
        digests = set()
        for args in (["--scheduler", "eager"],
                     ["--scheduler", "random", "--seed", "4"],
                     ["--scheduler", "tlo-random", "--seed", "4"]):
            r = runner.invoke(cli, ["run", p] + args)
            assert r.exit_code == 0
            digests.add(json.loads(r.stdout)["digest"])
        assert len(digests) == 1

    def test_tlo_option_is_a_usage_error(self, runner, prog_file):
        # `--scheduler random` or `tlo-random` says whether rewriting is on
        p = prog_file("chronological_order")
        r = runner.invoke(cli, ["run", p, "--scheduler", "tlo-random",
                                "--tlo", "off"])
        assert r.exit_code == 2
        assert "--tlo" in r.stderr

    @pytest.mark.parametrize("scheduler", ["eager", "random", "det"])
    @pytest.mark.parametrize("option", [["--tlo-rules", "batch"],
                                        ["--assume-set-adjacency"]],
                             ids=["tlo-rules", "assume-set-adjacency"])
    def test_rewrite_option_needs_tlo_random(self, runner, prog_file,
                                             scheduler, option):
        # only `tlo-random` draws rewrites, so elsewhere the option would
        # be ignored
        r = runner.invoke(cli, ["run", prog_file("core_social"),
                                "--scheduler", scheduler] + option)
        assert r.exit_code == 2
        assert option[0] in r.stderr

    def test_unknown_rule_name_rejected(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("core_social"),
                                "--scheduler", "tlo-random",
                                "--tlo-rules", "nosuch"])
        assert r.exit_code == 2

    def test_rule_restriction_accepted(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("core_social"),
                                "--scheduler", "tlo-random",
                                "--tlo-rules", "batch,unbatch"])
        assert r.exit_code == 0

    def test_negative_fuel_is_a_usage_error(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("core_social"),
                                "--fuel", "-5"])
        assert r.exit_code == 2
        assert "Invalid value for '--fuel'" in r.stderr
        assert r.stdout == ""

    def test_fuel_exhaustion_exits_3(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("core_social"),
                                "--fuel", "5"])
        assert r.exit_code == 3
        assert json.loads(r.stdout)["status"] == "fuel"

    @pytest.mark.parametrize("source, fuel", [("1 + 2", 1), ("3", 0)],
                             ids=["last-step-terminal", "value-at-fuel-0"])
    def test_fuel_that_reaches_the_terminal_exits_0(self, runner, tmp_path,
                                                    source, fuel):
        p = tmp_path / "small.cg"
        p.write_text(source)
        r = runner.invoke(cli, ["run", str(p), "--fuel", str(fuel)])
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert (out["status"], out["steps"], out["frontend"]) == (
            "terminal", fuel, "(int 3)")
        if fuel:  # one step less runs out
            r = runner.invoke(cli, ["run", str(p), "--fuel", str(fuel - 1)])
            assert r.exit_code == 3
            assert json.loads(r.stdout)["status"] == "fuel"

    @pytest.mark.parametrize("trace", [False, True])
    def test_overlong_value_exits_3(self, runner, tmp_path, trace):
        # 10 squared 13 times has 8,193 digits, more than `str` prints
        p = tmp_path / "big.cg"
        p.write_text("let sq = fun x : int -> x * x in "
                     + "sq (" * 13 + "10" + ")" * 13)
        args = ["--trace", str(tmp_path / "t.jsonl")] if trace else []
        r = runner.invoke(cli, ["run", str(p), *args])
        assert r.exit_code == 3
        assert r.stderr.splitlines() == [
            f"{p}: a value has more than {sys.get_int_max_str_digits()}"
            " digits, too many to print"]


def let_chain(n):
    return "let x0 = 0 in\n" + "".join(
        f"let x{i} = x{i - 1} + 1 in\n" for i in range(1, n + 1)) + f"x{n}"


class TestDeepInput:
    # parsing, typing and reduction recurse over the term: nesting past the
    # interpreter's limit must end in one line on stderr, not a traceback
    @pytest.mark.parametrize("command, text", [
        ("typecheck", "1;" * 800 + "1"),
        ("typecheck", let_chain(800)),
        ("run", let_chain(800)),
    ], ids=["typecheck-seq", "typecheck-let-chain", "run-let-chain"])
    def test_exits_2_naming_the_file(self, runner, tmp_path, command, text):
        p = tmp_path / "deep.cg"
        p.write_text(text)
        r = runner.invoke(cli, [command, str(p)])
        assert r.exit_code == 2
        assert r.stderr.splitlines() == [
            f"{p}: input nests too deeply to process"]

    def test_runs_a_let_chain_of_400(self, runner, tmp_path):
        # each Beta descends only to the occurrence of its name, in the next
        # binding, and not through the rest of the chain
        p = tmp_path / "lets.cg"
        p.write_text(let_chain(400))
        r = runner.invoke(cli, ["run", str(p)])
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert (out["status"], out["steps"], out["frontend"]) == (
            "terminal", 801, "(int 400)")


class TestTraceDiff:
    def run_traced(self, runner, path, out, seed):
        r = runner.invoke(cli, ["run", path, "--scheduler", "tlo-random",
                                "--seed", str(seed), "--trace", out])
        assert r.exit_code == 0

    def test_equal_and_divergent(self, runner, prog_file, tmp_path):
        p = prog_file("chronological_order")
        a, b, c = (str(tmp_path / n) for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        self.run_traced(runner, p, a, seed=1)
        self.run_traced(runner, p, b, seed=1)
        self.run_traced(runner, p, c, seed=2)
        r = runner.invoke(cli, ["trace-diff", a, b])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["equal"] is True
        r = runner.invoke(cli, ["trace-diff", a, c])
        assert r.exit_code == 1
        out = json.loads(r.stdout)
        assert out["equal"] is False and "step" in out

    def test_det_traces_replay(self, runner, prog_file, tmp_path):
        p = prog_file("reuse_guard")
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for out in (a, b):
            r = runner.invoke(cli, ["run", p, "--scheduler", "det",
                                    "--trace", out])
            assert r.exit_code == 0
        r = runner.invoke(cli, ["trace-diff", a, b])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["equal"] is True

    @pytest.mark.parametrize("lines, bad_line", [
        (['{"rule": "Beta", "site": "frontend"}', "not json"], 2),
        (['{"step": 0}'], 1),
        (["[1, 2]"], 1),
        (["[" * 100_000], 1),
    ], ids=["not-json", "no-rule-or-site", "not-an-object", "too-deep"])
    def test_malformed_trace_exits_2(self, runner, tmp_path, lines, bad_line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        other = tmp_path / "other.jsonl"
        other.write_text('{"step": 1}\n')
        r = runner.invoke(cli, ["trace-diff", str(bad), str(other)])
        assert r.exit_code == 2
        assert r.stderr.splitlines() == [
            f"{bad}:{bad_line}: not a trace record "
            "(a JSON object with rule and site)"]

    def test_trace_record_fields(self, runner, prog_file, tmp_path):
        p = prog_file("incremental_folding")
        t = str(tmp_path / "t.jsonl")
        self.run_traced(runner, p, t, seed=0)
        with open(t) as fh:
            records = [json.loads(line) for line in fh]
        assert records, "trace is empty"
        for rec in records:
            assert set(rec) == {"step", "rule", "site", "labels", "digest"}


class TestCheckCommands:
    def test_check_determinism(self, runner):
        r = runner.invoke(cli, ["check-determinism", "--schedules", "3",
                                "--programs", "incremental_folding"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_check_determinism_reports_steps_and_rewrites(self, runner):
        r = runner.invoke(cli, ["check-determinism", "--schedules", "4",
                                "--programs", "core_social"])
        assert r.exit_code == 0
        (got,) = json.loads(r.stdout)["programs"]
        (v,) = harness.check_determinism(("core_social",), 4).verdicts
        assert (got["steps"], got["rewrites"]) == (v.steps, v.rewrites)
        assert len(v.steps) == 4 and v.rewrites
        assert r.stderr.startswith(
            f"core_social: 4/4 schedules agree; steps eager {v.steps[0]}, "
            f"tlo-random {min(v.steps[1:])}/")
        assert f"; {sum(v.rewrites.values())} rewrites: " in r.stderr
        for rule, n in v.rewrites.items():
            assert f" {rule} {n}" in r.stderr

    def test_check_determinism_out_of_fuel_exits_3(self, runner):
        r = runner.invoke(cli, ["check-determinism", "--fuel", "5",
                                "--programs", "incremental_folding",
                                "--schedules", "2"])
        assert r.exit_code == 3
        assert json.loads(r.stdout)["ok"] is False

    # seed -> the status its rewriting run is made to end with
    @pytest.mark.parametrize("statuses, code", [
        ({0: "fuel"}, 3), ({0: "fuel", 1: "fuel"}, 3), ({0: "stuck"}, 1),
        ({0: "blocked"}, 1), ({0: "fuel", 1: "stuck"}, 1),
    ], ids=["fuel", "fuel-twice", "stuck", "blocked", "fuel-and-stuck"])
    def test_check_determinism_exit_follows_run_status(
            self, runner, monkeypatch, statuses, code):
        run = engine.run

        def ended(config, scheduler="eager", seed=0, **kw):
            r = run(config, scheduler=scheduler, seed=seed, **kw)
            if scheduler == "tlo-random" and seed in statuses:
                return dataclasses.replace(r, status=statuses[seed])
            return r

        monkeypatch.setattr(engine, "run", ended)
        r = runner.invoke(cli, ["check-determinism", "--schedules", "3",
                                "--programs", "incremental_folding"])
        assert r.exit_code == code

    # every terminal digest differs, or the declared facts do
    @pytest.mark.parametrize("target, fake", [
        ("terminal_digest", lambda *a, n=itertools.count(): str(next(n))),
        ("check_facts", lambda *a: "payload: expected 1, got 2"),
    ], ids=["diverged", "facts-differ"])
    def test_check_determinism_property_failure_exits_1(
            self, runner, monkeypatch, target, fake):
        monkeypatch.setattr(harness, target, fake)
        r = runner.invoke(cli, ["check-determinism", "--schedules", "2",
                                "--programs", "incremental_folding"])
        assert r.exit_code == 1
        assert json.loads(r.stdout)["ok"] is False

    def test_check_metatheory(self, runner):
        r = runner.invoke(cli, ["check-metatheory", "--steps", "150",
                                "--soundness-pairs", "5"])
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert out["metatheory"]["ok"] and out["soundness"]["ok"]
        rules = out["soundness"]["rules"]
        assert sum(rules.values()) == out["soundness"]["pairs"]
        counts = ", ".join(f"{rule} {n}" for rule, n in rules.items())
        assert (f"pairs agree: {counts}\n") in r.stderr

    @pytest.mark.parametrize("args, option", [
        (["check-determinism", "--schedules", "0",
          "--programs", "incremental_folding"], "--schedules"),
        (["check-determinism", "--fuel", "-1",
          "--programs", "incremental_folding"], "--fuel"),
        (["check-metatheory", "--steps", "-3"], "--steps"),
        (["check-metatheory", "--steps", "0",
          "--soundness-pairs", "-2"], "--soundness-pairs"),
    ], ids=["schedules-0", "determinism-fuel-negative", "steps-negative",
            "soundness-pairs-negative"])
    def test_out_of_range_count_is_a_usage_error(self, runner, args, option):
        r = runner.invoke(cli, args)
        assert r.exit_code == 2
        assert f"Invalid value for '{option}'" in r.stderr
        assert "Traceback" not in r.stderr

    def test_zero_pairs_skips_soundness(self, runner):
        r = runner.invoke(cli, ["check-metatheory", "--steps", "0",
                                "--soundness-pairs", "0"])
        assert r.exit_code == 0
        assert set(json.loads(r.stdout)) == {"metatheory"}

    def test_unknown_program_rejected(self, runner):
        r = runner.invoke(cli, ["check-determinism", "--programs", "nope"])
        assert r.exit_code == 2
