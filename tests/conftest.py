import random

import pytest

from stationflow import engine, harness, state, tlo
from stationflow.parser import parse_source

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_report():
    """Record one pass/fail line per acceptance criterion and assert it."""
    def record(ok, line):
        _ACCEPTANCE_LINES.append(("PASS " if ok else "FAIL ") + line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def walk(config, seed, tlo_on, assume_set_adjacency=False):
    """The index, refreshed, at every configuration a harness walk from
    `config` reaches: `engine.steps` under `engine.uniform` with
    `random.Random(seed)`, drawing rewrites of every rule if `tlo_on`,
    through `harness.apply_redex`."""
    for ix, _, _ in engine.steps(config, engine.uniform, random.Random(seed),
                                 None if tlo_on else (), assume_set_adjacency,
                                 harness.apply_redex):
        ix.refresh()
        yield ix


@pytest.fixture
def run_cg():
    def go(text, scheduler="eager", seed=0, fuel=200_000, **kw):
        prog = parse_source(text, "test.cg")
        return engine.run(state.init(prog), scheduler=scheduler, seed=seed,
                          fuel=fuel, **kw)
    return go


@pytest.fixture
def init_cg():
    def go(text):
        return state.init(parse_source(text, "test.cg"))
    return go


@pytest.fixture
def reached(monkeypatch):
    """`reached(check)` has `engine.run` call `check(index)` at every
    configuration it reaches, where its index tests for a terminal, and
    returns the list those configurations are appended to.  A later call
    replaces the check."""
    terminal = engine._Index.terminal

    def install(check):
        seen = []

        def checked(ix):
            check(ix)
            seen.append(ix.config)
            return terminal(ix)

        monkeypatch.setattr(engine._Index, "terminal", checked)
        return seen
    return install


@pytest.fixture
def empty_verdicts(monkeypatch):
    """`tlo`'s verdict table, empty for this test; the process's table is
    put back after it.  Tests that count derivations start from it."""
    table = {}
    monkeypatch.setattr(tlo, "_VERDICTS", table)
    return table
