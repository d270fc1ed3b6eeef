"""Configuration plumbing: result finalization, canonical terminals
and digests."""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from stationflow import engine, harness, state
from stationflow.parser import parse_source
from stationflow.state import Station, StoreEntry, Unit, singleton
from stationflow.terms import (
    INT, App, FoldOp, Int, Key, KL, Lam, MapOp, Node, Var, is_value,
    with_children,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def kl(*names):
    return KL(tuple(Key(n) for n in names))


IDENT2 = Lam("x", None, Lam("y", None, Var("x")))


class TestFinalize:
    def test_map_result_is_zero(self):
        label, entry = state.finalize(4, MapOp(Lam("x", None, Var("x")), kl()))
        assert label == 4
        assert entry == StoreEntry(Int(0), ())

    def test_fold_result_is_base_with_residual(self):
        op = FoldOp(IDENT2, Node(Key("z"), Int(9), kl()), kl("a", "b"))
        _, entry = state.finalize(1, op)
        assert entry.value == Node(Key("z"), Int(9), kl())
        assert entry.residual == ("a", "b")

    def test_fold_base_must_be_a_value(self):
        from stationflow.terms import Arith
        op = FoldOp(IDENT2, Arith("+", Int(1), Int(1)), kl())
        with pytest.raises(AssertionError):
            state.finalize(1, op)


class TestStreams:
    def test_append_station_tail_needs_a_backend(self):
        prog = harness.corpus_program("incremental_folding")
        config = state.init(prog)
        empty = config.__class__(backend=(), top=config.top,
                                 store=config.store, frontend=config.frontend,
                                 next_label=0, next_key=0)
        with pytest.raises(ValueError):
            state.append_station_tail(empty, singleton(0, MapOp(IDENT2, kl())))

    def test_generated_keys_count_up(self):
        assert state.fresh_key_name(0) == "@k0"
        assert state.fresh_key_name(7) == "@k7"


def ring_source(n):
    keys = ", ".join(f"#k{i}" for i in range(n))
    graph = ", ".join(f"#k{i}: {i} [#k{(i + 1) % n}]" for i in range(n))
    return (f"graph [ {graph} ]\n"
            f"mapVal (fun v: node -> payload(v) + 1) [{keys}];\n"
            "payload(claim (foldVal commutative (fun n: node -> fun acc: int"
            f" -> payload(n) + acc) 0 [{keys}]))\n")


class TestStationFlags:
    def test_flags_match_their_definitions(self, monkeypatch):
        # `run` tests every configuration it reaches with `is_terminal`;
        # check the memoized flags there against the uncached definitions
        seen = []

        def checked(config):
            for s in config.backend:
                assert s.loaded == is_value(s.node)
                assert s.idle == (is_value(s.node) and not s.streamlet)
                fresh = Station(s.node, s.streamlet)
                assert fresh == s and hash(fresh) == hash(s)
            assert state.is_dry(config) == all(
                is_value(s.node) and not s.streamlet for s in config.backend)
            seen.append(config)
            return state.is_terminal(config)

        monkeypatch.setattr(engine, "is_terminal", checked)
        programs = [harness.corpus_program(n) for n in harness.RUNNABLE]
        programs.append(parse_source(ring_source(32), "ring.cg"))
        for prog in programs:
            for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                    ("tlo-random", 3)):
                seen.clear()
                r = engine.run(state.init(prog), scheduler=scheduler, seed=seed)
                assert r.status == "terminal"
                assert len(seen) == r.steps + 1


def reference_digest(config):
    """`config_digest` by its definition, every term printed afresh: a
    `depth` argument bypasses the text kept on terms."""
    def sexpr(e):
        return state.to_sexpr(e, {}, 0)

    def unit(u):
        return [[label, state.op_sexpr(op, {}, 0)] for label, op in u.entries]

    shape = {
        "backend": [[sexpr(s.node), [unit(u) for u in s.streamlet]]
                    for s in config.backend],
        "top": [unit(u) for u in config.top],
        "store": {str(l): [sexpr(e.value), list(e.residual)]
                  for l, e in config.store},
        "frontend": sexpr(config.frontend),
    }
    blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestConfigDigest:
    def run_checked(self, monkeypatch, prog, scheduler, seed, **kw):
        """Run with the trace on; at every configuration reached, the digest
        equals its reference, and so does the trace record of each step."""
        refs = []

        def checked(config):
            refs.append(reference_digest(config))
            assert state.config_digest(config) == refs[-1]
            return state.is_terminal(config)

        monkeypatch.setattr(engine, "is_terminal", checked)
        r = engine.run(state.init(prog), scheduler=scheduler, seed=seed,
                       trace=True, **kw)
        assert r.status == "terminal"
        assert len(refs) == r.steps + 1
        assert [rec.digest for rec in r.trace] == refs[1:]
        return r

    def test_digest_matches_its_definition_on_the_corpus(self, monkeypatch):
        for name in harness.RUNNABLE:
            prog = harness.corpus_program(name)
            for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                    ("tlo-random", 3)):
                self.run_checked(monkeypatch, prog, scheduler, seed)

    def test_digest_matches_its_definition_after_fusion(self, monkeypatch):
        # a generated op mix whose tlo-random run fuses maps and reorders a
        # fold past a map, so `dcomp`'d functions are printed
        monkeypatch.syspath_prepend(str(PERFBENCH))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        import programs
        gen = programs.mix_program(8, 1, random.Random(17), random.Random(17))
        r = self.run_checked(monkeypatch, parse_source(gen.source, "mix.cg"),
                             "tlo-random", 17, assume_set_adjacency=True)
        applied = {rec.site.rsplit(":", 1)[1]
                   for rec in r.trace if rec.rule == "Opt"}
        assert {"fusem", "reorderrw"} <= applied
        assert r.config.frontend == Int(gen.expected)

    def test_kept_text_leaves_equality_alone(self):
        text = harness.corpus_text("core_social")
        config = state.init(parse_source(text, "a.cg"))
        fresh = state.init(parse_source(text, "b.cg"))
        state.config_digest(config)
        assert "_sexpr" in config.frontend.__dict__
        assert "_sexpr" not in fresh.frontend.__dict__
        assert config == fresh and hash(config) == hash(fresh)
        assert hash(config.frontend) == hash(fresh.frontend)
        assert state.config_digest(config) == state.config_digest(fresh)

    def test_rebuilt_term_prints_its_own_text(self):
        e = App(Lam("x", INT, Var("x")), Int(1))
        assert state.to_sexpr(e) == "(app (lam int (bound 0)) (int 1))"
        rebuilt = with_children(e, (e.fn, Int(2)))
        assert state.to_sexpr(rebuilt) == "(app (lam int (bound 0)) (int 2))"
        replaced = dataclasses.replace(e, arg=Int(3))
        assert state.to_sexpr(replaced) == "(app (lam int (bound 0)) (int 3))"
        assert state.to_sexpr(e) == "(app (lam int (bound 0)) (int 1))"

    def test_subterm_text_under_binders_is_not_kept(self):
        body = App(Var("f"), Var("n"))
        e = Lam("f", None, Lam("n", INT, body))
        assert state.to_sexpr(e) == "(lam _ (lam int (app (bound 1) (bound 0))))"
        assert state.to_sexpr(body) == "(app (free f) (free n))"


class TestCanonicalTerminal:
    def run_terminal(self, name, scheduler="eager", seed=0):
        r = engine.run(state.init(harness.corpus_program(name)),
                       scheduler=scheduler, seed=seed)
        assert r.status == "terminal"
        return r.config

    def test_canonicalization_is_deterministic(self):
        a = state.canonical_terminal(self.run_terminal("core_social"))
        b = state.canonical_terminal(self.run_terminal("core_social"))
        assert a == b

    def test_schedule_independent(self):
        a = state.canonical_terminal(self.run_terminal("core_social"))
        b = state.canonical_terminal(
            self.run_terminal("core_social", "tlo-random", seed=11))
        assert a == b

    def test_digest_matches_canonical_form(self):
        cfg = self.run_terminal("core_social")
        assert (state.terminal_digest(cfg)
                == state.terminal_digest(self.run_terminal("core_social")))

    def test_strict_digest_sees_residuals(self):
        cfg = self.run_terminal("reuse_guard")
        # the second fold keeps an unmatched key; only strict mode reports it
        assert (state.terminal_digest(cfg, strict_residuals=True)
                != state.terminal_digest(cfg, strict_residuals=False))

    def test_strict_digest_equal_without_residuals(self):
        cfg = self.run_terminal("chronological_order")
        assert (state.terminal_digest(cfg, strict_residuals=True)
                == state.terminal_digest(cfg, strict_residuals=False))

    def test_config_digest_covers_in_flight_state(self):
        config = state.init(harness.corpus_program("core_social"))
        before = state.config_digest(config)
        redexes = engine.enumerate_redexes(config)
        config2, _, _ = engine.apply_redex(config, redexes[0])
        assert state.config_digest(config2) != before
