"""The validation harness itself: report shapes, reduced-size runs of
every checker, and the bundled corpus registry."""

import hashlib
import json

from stationflow import engine, harness, state, tlo


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


class TestRewriteSoundness:
    def test_sampled_pairs_agree(self):
        rep = harness.check_rewrite_soundness(min_pairs=20)
        assert rep.ok and rep.pairs >= 20


class TestSingleRunHelpers:
    def test_emission_kind_replay(self):
        kinds = harness.eager_emission_kinds("incremental_folding")
        assert kinds == ["fold"]

    def test_reuse_guard_never_offers(self):
        assert harness.reuse_never_offered(seeds=4)


# sha256 over every step, rewrite and completion the checks below take,
# and their reports
GOLDEN_WALKS = "b069c31c0ed0cc62378e546dbf81cf2761470ac62a316eb83a3f296a52b86318"


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
        record("report", json.dumps(rep.to_json(), sort_keys=True))
    record("reuse", harness.reuse_never_offered(4))
    assert h.hexdigest() == GOLDEN_WALKS
