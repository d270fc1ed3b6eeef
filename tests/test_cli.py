"""Command line behavior: exit codes, JSON on stdout, diagnostics on
stderr, trace files."""

import json

import pytest
from click.testing import CliRunner

from stationflow import harness
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


class TestRun:
    def test_terminal_json(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("incremental_folding")])
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert out["status"] == "terminal"
        assert out["frontend"] == "(node (key _) (int 3) (kl))"
        assert out["digest"]

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

    def test_tlo_off_downgrades(self, runner, prog_file):
        p = prog_file("chronological_order")
        r = runner.invoke(cli, ["run", p, "--scheduler", "tlo-random",
                                "--tlo", "off", "--trace", "/dev/null"])
        assert r.exit_code == 0

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

    def test_fuel_exhaustion_exits_3(self, runner, prog_file):
        r = runner.invoke(cli, ["run", prog_file("core_social"),
                                "--fuel", "5"])
        assert r.exit_code == 3
        assert json.loads(r.stdout)["status"] == "fuel"


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

    def test_check_metatheory(self, runner):
        r = runner.invoke(cli, ["check-metatheory", "--steps", "150",
                                "--soundness-pairs", "5"])
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert out["metatheory"]["ok"] and out["soundness"]["ok"]

    def test_unknown_program_rejected(self, runner):
        r = runner.invoke(cli, ["check-determinism", "--programs", "nope"])
        assert r.exit_code == 2
