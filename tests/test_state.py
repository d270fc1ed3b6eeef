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
    INT, NODE, AddOp, App, Arith, Claim, Concat, Emit, Fix, FoldOp, If0, Int,
    OPERATIONS, Key, KL, Label, Lam, Len, MapOp, Node, Proj, Subtract, TFun,
    Var, children, is_value, op_args, substitute, with_children,
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

    @pytest.mark.parametrize("size", [0, 1, 2, 5, 16])
    def test_store_get_finds_each_label_and_no_other(self, size):
        # the store is sorted by label, as `merge_results` leaves it
        config = state.init(harness.corpus_program("incremental_folding"))
        labels = random.Random(size).sample(range(3 * size), size)
        for label in labels:
            config = state.merge_results(
                config, {label: StoreEntry(Int(label), ())})
        for label in range(-1, 3 * size + 1):
            want = [e for l, e in config.store if l == label]
            assert config.store_get(label) == (want[0] if want else None)


def ring_source(n):
    keys = ", ".join(f"#k{i}" for i in range(n))
    graph = ", ".join(f"#k{i}: {i} [#k{(i + 1) % n}]" for i in range(n))
    return (f"graph [ {graph} ]\n"
            f"mapVal (fun v: node -> payload(v) + 1) [{keys}];\n"
            "payload(claim (foldVal commutative (fun n: node -> fun acc: int"
            f" -> payload(n) + acc) 0 [{keys}]))\n")


class TestStationFlags:
    def test_flags_match_their_definitions(self, reached):
        # at every configuration `run` reaches, check the memoized flags
        # against the uncached definitions
        def checked(ix):
            config = ix.config
            for s in config.backend:
                assert s.loaded == is_value(s.node)
                assert s.idle == (is_value(s.node) and not s.streamlet)
                fresh = Station(s.node, s.streamlet)
                assert fresh == s and hash(fresh) == hash(s)
            assert state.is_dry(config) == all(
                is_value(s.node) and not s.streamlet for s in config.backend)
            # the index's stations that are not idle, by their definition
            assert ix.busy == {i for i, s in enumerate(config.backend)
                               if not is_value(s.node) or s.streamlet}

        seen = reached(checked)
        programs = [harness.corpus_program(n) for n in harness.RUNNABLE]
        programs.append(parse_source(ring_source(32), "ring.cg"))
        for prog in programs:
            for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                    ("tlo-random", 3)):
                seen.clear()
                r = engine.run(state.init(prog), scheduler=scheduler, seed=seed)
                assert r.status == "terminal"
                assert len(seen) == r.steps + 1


REFERENCE_TAGS = {App: "app", Fix: "fix", KL: "kl", Node: "node",
                  Concat: "cat", Subtract: "sub", If0: "if0", Len: "len",
                  Claim: "claim"}


def reference_sexpr(e, depth=None, level=0):
    """`to_sexpr` (defined in `terms`, which decides alpha equivalence by
    its text; `state` imports it) by its definition, every subterm printed
    afresh under its binders, nothing read from or kept on a term."""
    depth = {} if depth is None else depth
    match e:
        case Var(name):
            idx = depth.get(name)
            return f"(bound {level - idx})" if idx is not None else f"(free {name})"
        case Int(v):
            return f"(int {v})"
        case Key(name):
            return f"(key {name})"
        case Label(i):
            return f"(label {i})"
        case Lam(param, ptype, body, comm):
            inner = reference_sexpr(body, {**depth, param: level + 1}, level + 1)
            t = str(ptype) if ptype is not None else "_"
            return f"({'lam!' if comm else 'lam'} {t} {inner})"
        case Emit(op):
            return f"(emit {reference_op_sexpr(op, depth, level)})"
        case Proj(i):
            tag = f"proj{i}"
        case Arith(op):
            tag = f"arith {op}"
        case _:
            tag = REFERENCE_TAGS[type(e)]
    return f"({tag}{''.join(' ' + reference_sexpr(c, depth, level) for c in children(e))})"


def reference_op_sexpr(op, depth=None, level=0):
    args = " ".join(reference_sexpr(a, depth, level) for a in op_args(op))
    return f"({OPERATIONS[type(op)].keyword} {args})"


def reference_digest(config):
    """`config_digest` by its definition: one `json.dumps` over the whole
    shape, every term printed afresh by `reference_sexpr`."""
    def unit(u):
        return [[label, reference_op_sexpr(op)] for label, op in u.entries]

    shape = {
        "backend": [[reference_sexpr(s.node), [unit(u) for u in s.streamlet]]
                    for s in config.backend],
        "top": [unit(u) for u in config.top],
        "store": {str(l): [reference_sexpr(e.value), list(e.residual)]
                  for l, e in config.store},
        "frontend": reference_sexpr(config.frontend),
    }
    blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestConfigDigest:
    def run_checked(self, reached, prog, scheduler, seed, **kw):
        """Run with the trace on; at every configuration reached, the digest
        equals its reference, and so does the trace record of each step."""
        refs = []

        def checked(ix):
            refs.append(reference_digest(ix.config))
            assert state.config_digest(ix.config) == refs[-1]

        reached(checked)
        r = engine.run(state.init(prog), scheduler=scheduler, seed=seed,
                       trace=True, **kw)
        assert r.status == "terminal"
        assert len(refs) == r.steps + 1
        assert [rec.digest for rec in r.trace] == refs[1:]
        return r

    def test_digest_matches_its_definition_on_the_corpus(self, reached):
        rules = set()
        for name in harness.RUNNABLE:
            prog = harness.corpus_program(name)
            for scheduler, seed in (("eager", 0), ("det", 0), ("random", 3),
                                    ("tlo-random", 3)):
                r = self.run_checked(reached, prog, scheduler, seed)
                rules.update(rec.rule for rec in r.trace)
        # a station added, a unit moved, a rewrite, and both store writes
        assert {"Add", "Prop", "Opt", "Complete", "Last"} <= rules

    def test_digest_matches_its_definition_after_fusion(self, monkeypatch,
                                                         reached):
        # a generated op mix whose tlo-random run fuses maps and reorders a
        # fold past a map, so `dcomp`'d functions are printed
        monkeypatch.syspath_prepend(str(PERFBENCH))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        import programs
        gen = programs.mix_program(8, 1, random.Random(17), random.Random(17))
        r = self.run_checked(reached, parse_source(gen.source, "mix.cg"),
                             "tlo-random", 4, assume_set_adjacency=True)
        assert {"fusem", "reorderrw"} <= r.rewrites.keys()
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
        assert "_sexpr" not in body.__dict__
        assert "_sexpr" not in e.body.__dict__
        assert state.to_sexpr(body) == "(app (free f) (free n))"
        assert "_sexpr" not in body.__dict__

    def test_closed_subterm_keeps_its_text_under_binders(self):
        # `inc` is closed, so it prints alike at top level and under the
        # three binders around it, whose names it also shadows
        inc = Lam("x", NODE, Node(Proj(1, Var("x")),
                                  Arith("+", Proj(2, Var("x")), Int(1)),
                                  Proj(3, Var("x"))))
        open_app = App(inc, Var("y"))
        e = Lam("x", NODE, Lam("y", NODE, Lam("z", INT,
                                                App(open_app, Var("x")))))
        text = state.to_sexpr(e)
        assert text == reference_sexpr(e)
        assert inc.__dict__["_sexpr"] == reference_sexpr(inc)
        assert inc.__dict__["_sexpr"] in text
        assert "_sexpr" not in open_app.__dict__
        assert "_sexpr" not in e.body.body.__dict__
        assert e.__dict__["_sexpr"] == text
        # what was kept under binders is what a top-level print gives
        assert state.to_sexpr(inc) == reference_sexpr(inc)
        assert state.to_sexpr(open_app) == reference_sexpr(open_app)

    def test_substitution_keeps_closed_parts(self):
        fn = Lam("n", NODE, Node(Proj(1, Var("n")), Int(0), Proj(3, Var("n"))))
        body = App(fn, Var("v"))
        state.to_sexpr(fn)
        out = substitute(body, Node(Key("a"), Int(1), KL(())), "v")
        assert out.fn is fn and "_sexpr" in out.fn.__dict__


X = Var("x")
NODE_A = Node(Key("a"), Int(1), KL((Key("b"),)))


class TestDigestParts:
    """One `DigestParts` carried through a hand-built sequence of
    configurations, as `engine.run` carries one through a traced run."""

    INC = Lam("n", NODE, Node(Proj(1, Var("n")),
                              Arith("+", Proj(2, Var("n")), Int(1)),
                              Proj(3, Var("n"))))

    def configs(self):
        """Each configuration, with what changed since the one before."""
        a = Station(Node(Key("a"), Int(1), kl("b")),
                    (singleton(0, MapOp(self.INC, kl("a"))),))
        b = Station(Node(Key("b"), Int(2), kl()))
        c = state.Configuration(
            (a, b), (singleton(1, FoldOp(IDENT2, Int(0), kl("a", "b"))),),
            ((2, StoreEntry(Int(5), ("a",))),),
            App(Lam("x", INT, Var("x")), Int(3)), next_label=3)
        yield "start", c
        c = state.evolve(c, next_label=4)
        yield "no part changed", c
        c = state.evolve(c, backend=(Station(a.node, a.streamlet), b))
        yield "a station replaced by an equal new one", c
        c = state.append_station_tail(c, c.top[0])
        c = state.evolve(c, top=c.top[1:])
        yield "a unit popped from top and appended at station 0", c
        c = state.evolve(c, backend=(b,) + c.backend[1:])
        yield "station 0 replaced by another", c
        c = state.evolve(c, backend=(Station(Node(Key("@k0"), Int(7), kl())),)
                         + c.backend)
        yield "a station prepended, as an Add does", c
        # label 10 comes before label 2 in text order
        c = state.merge_results(c, {10: StoreEntry(Key("@k0"), ())})
        yield "a store write", c
        c = state.evolve(c, top=c.top + (singleton(3, AddOp(Int(4))),))
        yield "a unit pushed to top", c
        c = state.evolve(c, top=c.top[1:])
        yield "a unit popped from top", c
        c = state.evolve(c, frontend=Int(3))
        yield "a frontend step", c

    def test_digest_with_parts_matches_its_definition(self):
        parts = state.DigestParts()
        for what, config in self.configs():
            digest = state.config_digest(config, parts)
            assert digest == state.config_digest(config), what
            assert digest == reference_digest(config), what


class TestSexprText:
    """The printed form of one term of each of the 17 expression forms."""

    @pytest.mark.parametrize("term, text", [
        (Var("x"), "(free x)"),
        (Lam("x", INT, Lam("y", None, App(App(X, Var("y")), Var("z")))),
         "(lam int (lam _ (app (app (bound 1) (bound 0)) (free z))))"),
        (Int(-3), "(int -3)"),
        (Key("a"), "(key a)"),
        (Label(4), "(label 4)"),
        (Lam("x", TFun(NODE, False, NODE), Lam("y", NODE, X), True),
         "(lam! (node -> node) (lam node (bound 1)))"),
        (App(Lam("x", None, X), Int(1)), "(app (lam _ (bound 0)) (int 1))"),
        (Fix(Lam("f", TFun(INT, False, INT),
                 Lam("n", INT, App(Var("f"), Var("n"))))),
         "(fix (lam (int -> int) (lam int (app (bound 1) (bound 0)))))"),
        (KL(()), "(kl)"),
        (KL((Key("a"), Var("k"))), "(kl (key a) (free k))"),
        (NODE_A, "(node (key a) (int 1) (kl (key b)))"),
        (Proj(1, NODE_A), "(proj1 (node (key a) (int 1) (kl (key b))))"),
        (Proj(2, NODE_A), "(proj2 (node (key a) (int 1) (kl (key b))))"),
        (Proj(3, NODE_A), "(proj3 (node (key a) (int 1) (kl (key b))))"),
        (Concat(kl("a"), kl()), "(cat (kl (key a)) (kl))"),
        (Subtract(kl("a"), kl("a")), "(sub (kl (key a)) (kl (key a)))"),
        *[(Arith(op, Int(1), Int(2)), f"(arith {op} (int 1) (int 2))")
          for op in "+-*/"],
        (If0(Int(0), Int(1), Int(2)), "(if0 (int 0) (int 1) (int 2))"),
        (Len(kl("a")), "(len (kl (key a)))"),
        (Claim(Label(0)), "(claim (label 0))"),
        (Emit(AddOp(Int(3))), "(emit (add (int 3)))"),
        (Emit(MapOp(Lam("x", NODE, X), kl("a"))),
         "(emit (map (lam node (bound 0)) (kl (key a))))"),
        (Emit(FoldOp(Lam("x", NODE, Lam("y", NODE, X)),
                     Node(Key("_"), Int(0), kl()), kl("a"))),
         "(emit (fold (lam node (lam node (bound 1)))"
         " (node (key _) (int 0) (kl)) (kl (key a))))"),
        (Lam("y", INT, Emit(MapOp(Lam("x", NODE, App(Var("y"), X)),
                                  Var("k")))),
         "(lam int (emit (map (lam node (app (bound 1) (bound 0)))"
         " (free k))))"),
    ])
    def test_each_form(self, term, text):
        assert state.to_sexpr(term) == text


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
