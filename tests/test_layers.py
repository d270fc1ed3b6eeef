"""The benchmark's layer tracer (perfbench/layers.py) wraps functions at the
module bindings their callers use; every one of those bindings must exist,
and `restore` must put the originals back."""

import sys
from pathlib import Path

import pytest

from stationflow import engine, harness, state

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing lands in perfbench/
    import layers
    return layers


def test_tracer_installs_and_restores(layers):
    wrapped = {**layers.SPANS, **layers.COUNTS}.values()
    bindings = [(mod, attr) for _, attr, mods, _ in wrapped for mod in mods]
    bindings.append((state.Configuration, "store_get"))
    before = [getattr(mod, attr) for mod, attr in bindings]
    tracer = layers.Tracer()
    tracer.install()
    try:
        r = engine.run(state.init(harness.corpus_program("core_social")))
    finally:
        tracer.restore()
    assert r.status == "terminal"
    metrics = tracer.metrics()
    assert sum(metrics[f"engine.steps.{rule}"]
               for rule in layers.STEP_RULES) == r.steps
    assert metrics["terms.substitute_calls"] > 0
    assert [getattr(mod, attr) for mod, attr in bindings] == before
