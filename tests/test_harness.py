"""The validation harness itself: report shapes, reduced-size runs of
every checker, and the bundled corpus registry."""

import hashlib
import json
from collections import Counter

import pytest

from stationflow import engine, harness, state, tlo
from stationflow.parser import parse_source
from stationflow.state import Station
from stationflow.terms import OPERATIONS
from conftest import walk


def eager_emission_kinds(name: str, limit: int | None = None) -> list[str]:
    """Kinds of the operations the eager run of corpus program `name`
    emits, in order."""
    config = state.init(harness.corpus_program(name))
    kinds: list[str] = []
    while not state.is_terminal(config):
        redexes = engine.eager_enumerate(config)
        if not redexes:
            break
        config, rule, _ = engine.apply_redex(config, redexes[0])
        if rule == "Emit":
            _, op = config.top[-1].entries[0]
            kinds.append(OPERATIONS[type(op)].keyword)
            if limit is not None and len(kinds) >= limit:
                break
    return kinds


def reuse_never_offered(seeds: int = 20) -> bool:
    """Drive the guard program under rewriting walks and watch the window
    entries: the non-commutative fold pair must never offer reuse."""
    prog = harness.corpus_program("reuse_guard")
    for seed in range(seeds):
        for ix in walk(state.init(prog), seed, tlo_on=True):
            if any(rule == "reuse" for windows in ix.cands
                   for _, _, specs in windows for rule, _ in specs):
                return False
    return True


class TestCorpusRegistry:
    def test_all_programs_load(self):
        for name in harness.RUNNABLE + harness.REJECTED:
            assert harness.corpus_program(name) is not None

    def test_runnable_declare_expected_terminals(self, monkeypatch):
        for name in harness.RUNNABLE:
            lines = harness.corpus_text(name).splitlines()
            assert any(ln.startswith("-- expect ") for ln in lines), name
        # a program that declares nothing fails the check
        result = engine.run(state.init(harness.corpus_program("core_social")))
        monkeypatch.setattr(harness, "corpus_text",
                            lambda name: "-- no declaration\n1")
        assert "declares no expected terminal" in harness.check_facts(
            "core_social", result.config)


class TestDeterminism:
    def test_small_sweep_passes(self):
        rep = harness.check_determinism(schedules=4)
        assert rep.ok
        for v in rep.verdicts:
            assert v.agreed == 4 and v.fact_error is None

    def test_verdicts_count_steps_and_rewrites(self):
        # each verdict holds the step counts of the runs it compared, eager
        # first, and the rewrites of its tlo-random runs by rule
        rep = harness.check_determinism(schedules=6)
        for v in rep.verdicts:
            prog = harness.corpus_program(v.program)
            tlo_runs = [engine.run(state.init(prog), scheduler="tlo-random",
                                   seed=seed) for seed in range(5)]
            eager = engine.run(state.init(prog))
            assert v.steps == [r.steps for r in [eager, *tlo_runs]]
            assert v.rewrites == dict(sum(
                (Counter(r.rewrites) for r in tlo_runs), Counter()))
        assert any(v.rewrites for v in rep.verdicts)

    def test_report_is_json_serializable(self):
        import json
        rep = harness.check_determinism(("incremental_folding",), schedules=2)
        blob = json.dumps(rep.to_json())
        assert "incremental_folding" in blob


class TestMetatheory:
    def test_short_walks_stay_typed(self):
        rep = harness.check_preservation_progress(total_steps=400)
        assert rep.ok
        assert rep.steps == 400
        assert rep.type_changes == 0
        assert rep.effect_flips == 0
        assert rep.stuck_states == 0


class TestStoppedWalk:
    """A walk that ends short of the terminal is a stuck state, noted with
    why it stopped."""

    def test_a_walk_that_stops_short_counts_as_stuck(self, monkeypatch):
        # the tenth draw finds nothing: the first walk stops where its
        # frontend waits on a label, and the walks after it go on
        uniform, drawn_at = engine.uniform, []

        def stops_once(ix, rng):
            drawn_at.append(ix.config)
            return None if len(drawn_at) == 10 else uniform(ix, rng)

        monkeypatch.setattr(engine, "uniform", stops_once)
        rep = harness.check_preservation_progress(total_steps=400)
        assert (rep.steps, rep.stuck_states, rep.ok) == (400, 1, False)
        status, detail = engine.stopped(drawn_at[9])
        assert (status, detail) == ("blocked", "frontend waits on label 0")
        assert rep.notes == [
            f"incremental_folding: no redex, {status}: {detail}"]


class TestUnsoundRewrite:
    """A rewrite that changes the terminal is a counterexample naming its
    rule, station and offset."""

    def test_a_rewrite_that_drops_a_unit_is_reported(self, monkeypatch):
        # the check applies its drawn candidate before the walk or a det
        # run applies any, so only the first application drops the unit it
        # wrote; both sides end terminal, one without the dropped results
        apply_rewrite, faulty = tlo.apply_rewrite, []

        def drops_a_unit(config, cand):
            config, labels = apply_rewrite(config, cand)
            if faulty:
                return config, labels
            faulty.append(cand)
            i, sl = cand.station, config.backend[cand.station].streamlet
            station = Station(config.backend[i].node,
                              sl[:cand.start] + sl[cand.start + 1:])
            backend = config.backend[:i] + (station,) + config.backend[i + 1:]
            return state.evolve(config, backend=backend), labels

        monkeypatch.setattr(tlo, "apply_rewrite", drops_a_unit)
        rep = harness.check_rewrite_soundness(min_pairs=20)
        (cand,) = faulty
        assert not rep.ok
        assert (rep.pairs, rep.agreed) == (20, 19)
        assert rep.counterexamples == [
            f"core_social: {cand.rule} at station {cand.station} offset "
            f"{cand.start} -> terminal/terminal"]


class TestRewriteSoundness:
    def test_sampled_pairs_agree(self):
        rep = harness.check_rewrite_soundness(min_pairs=20)
        assert rep.ok and rep.pairs >= 20

    def test_rule_counts_sum_to_pairs(self):
        rep = harness.check_rewrite_soundness(min_pairs=40)
        assert sum(rep.rules.values()) == rep.pairs
        assert set(rep.rules) <= set(tlo.RULE_NAMES) and len(rep.rules) > 1


class TestSingleRunHelpers:
    def test_emission_kind_replay(self):
        kinds = eager_emission_kinds("incremental_folding")
        assert kinds == ["fold"]

    def test_reuse_guard_never_offers(self):
        assert reuse_never_offered(seeds=4)


TWO_FOLDS = """graph [ #a: 5 [], #b: 3 [#a] ]
let r0 = foldVal commutative (fun n: node -> fun acc: int -> payload(n) + acc) 0 [#a, #b] in
let r1 = foldVal commutative (fun n: node -> fun acc: int -> payload(n) + acc) 0 [#b] in
payload(claim r0) * 100 + payload(claim r1)
"""


@pytest.mark.xfail(strict=True, reason=(
    "after reuse bases fold 0 on fold 1's label, a reorder of their empty "
    "targets puts fold 0 at the head waiting on the unit behind it, on the "
    "last station, and det ends blocked there without a terminal"))
def test_det_completes_every_walk_configuration():
    # the first of the walk's 76 configurations that det cannot complete
    # is its 12th; the loop stops there
    init = state.init(parse_source(TWO_FOLDS, "two_folds.cg"))
    for ix in walk(init, 23, tlo_on=True):
        r = engine.run(ix.config, scheduler="det", fuel=3000)
        assert (r.status, state.to_sexpr(r.config.frontend)) == (
            "terminal", "(int 803)")


def test_det_stops_at_the_wedge():
    # at that 12th configuration nothing but a rewrite applies and no unit
    # is batched, so det must end there rather than batch and unbatch
    init = state.init(parse_source(TWO_FOLDS, "two_folds.cg"))
    wedged = [ix.config for ix in walk(init, 23, tlo_on=True)][11]
    r = engine.run(wedged, scheduler="det", fuel=10)
    assert (r.status, r.detail) == ("blocked", "frontend waits on label 0")


# sha256 over every step, rewrite and completion the checks below take,
# and their reports
GOLDEN_WALKS = "bf83f4443fe738c86d3ba198fbf8a4ea8e2cfe1ff85d5a3e8f5587d951aafd3a"


def test_walks_are_pinned(monkeypatch):
    h = hashlib.sha256()

    def record(*fields):
        h.update(json.dumps(fields).encode() + b"\n")

    apply_redex, apply_rewrite, run = (harness.apply_redex, tlo.apply_rewrite,
                                       engine.run)

    def stepped(config, r):
        record("step", r.rule, r.site, r.station, r.unit)
        return apply_redex(config, r)

    def rewritten(config, cand):
        record("rewrite", cand.rule, cand.station, cand.start, cand.labels)
        return apply_rewrite(config, cand)

    def ran(config, scheduler="eager", seed=0, **kw):
        r = run(config, scheduler=scheduler, seed=seed, **kw)
        record("run", scheduler, seed, r.status, r.steps)
        return r

    monkeypatch.setattr(harness, "apply_redex", stepped)
    monkeypatch.setattr(tlo, "apply_rewrite", rewritten)
    monkeypatch.setattr(engine, "run", ran)
    for rep in (harness.check_determinism(schedules=4),
                harness.check_preservation_progress(400),
                harness.check_rewrite_soundness(20)):
        fields = rep.to_json()
        rules = fields.pop("rules", None)  # the soundness report's, below
        record("report", json.dumps(fields, sort_keys=True))
    record("reuse", reuse_never_offered(4))
    assert h.hexdigest() == GOLDEN_WALKS
    assert rules == {"batch": 2, "unbatch": 14, "reorderd": 3, "reorderrw": 1}
