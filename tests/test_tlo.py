"""Stream rewriting: candidate enumeration per rule, soundness of each
rewrite against deterministic completion, and the equivalence provers."""

import random
import sys
import typing
from pathlib import Path

import pytest

from conftest import mix_config, walk
from stationflow import engine, harness, state, terms, tlo
from stationflow.parser import parse_source
from stationflow.state import Station, Unit, singleton
from stationflow.terms import (
    App, Arith, Claim, Concat, FoldOp, Int, Key, KL, Label, Lam, MapOp, Node,
    NODE, Proj, Subtract, Var,
    compose, kl_value,
)


def kl(*names):
    return KL(tuple(Key(n) for n in names))


def mknode(name, payload=0, adj=()):
    return Node(Key(name), Int(payload), kl(*adj))


def station(name, payload, *units):
    return Station(mknode(name, payload), tuple(units))


def config_with(backend, frontend=Int(0), store=(), next_label=100):
    return state.Configuration(backend=tuple(backend), top=(),
                               store=tuple(store), frontend=frontend,
                               next_label=next_label, next_key=0)


INC = Lam("x", NODE, Node(Proj(1, Var("x")),
                          Arith("+", Proj(2, Var("x")), Int(1)),
                          Proj(3, Var("x"))))
DOUBLE = Lam("x", NODE, Node(Proj(1, Var("x")),
                             Arith("*", Proj(2, Var("x")), Int(2)),
                             Proj(3, Var("x"))))
IDENT = Lam("x", NODE, Var("x"))
SUM = Lam("n", NODE,
          Lam("acc", NODE,
              Node(Proj(1, Var("acc")),
                   Arith("+", Proj(2, Var("n")), Proj(2, Var("acc"))),
                   Proj(3, Var("acc")))),
          commutative=True)
SUM_UNMARKED = Lam("n", NODE, Lam("acc", NODE,
                   Node(Proj(1, Var("acc")),
                        Arith("+", Proj(2, Var("n")), Proj(2, Var("acc"))),
                        Proj(3, Var("acc")))))
BASE = Node(Key("_"), Int(0), KL(()))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def rules_at(config, *rules, **kw):
    return [c for c in tlo.candidates(config, **kw) if c.rule in rules]


def complete_digest(config):
    r = engine.run(config, scheduler="det")
    assert r.status == "terminal", r.detail
    return state.terminal_digest(r.config)


def assert_sound(config, cand):
    rewritten, _ = tlo.apply_rewrite(config, cand)
    assert complete_digest(config) == complete_digest(rewritten), cand.rule


class TestBatchUnbatch:
    def cfg(self):
        u1 = singleton(0, MapOp(INC, kl("a")))
        u2 = singleton(1, MapOp(DOUBLE, kl("a")))
        return config_with([station("a", 3, u1, u2)])

    def test_batch_merges_adjacent_units(self):
        config = self.cfg()
        (cand,) = rules_at(config, "batch")
        out, _ = tlo.apply_rewrite(config, cand)
        (merged,) = out.backend[0].streamlet
        assert [l for l, _ in merged.entries] == [0, 1]

    def test_unbatch_splits_at_every_point(self):
        config = self.cfg()
        (cand,) = rules_at(config, "batch")
        out, _ = tlo.apply_rewrite(config, cand)
        splits = rules_at(out, "unbatch")
        assert len(splits) == 1
        back, _ = tlo.apply_rewrite(out, splits[0])
        assert back.backend[0].streamlet == config.backend[0].streamlet

    def test_sound(self):
        config = self.cfg()
        for cand in tlo.candidates(config):
            assert_sound(config, cand)


class TestReorders:
    def test_disjoint_targets_commute(self):
        u1 = singleton(0, MapOp(INC, kl("a")))
        u2 = singleton(1, MapOp(DOUBLE, kl("b")))
        config = config_with([station("a", 3, u1, u2), station("b", 5)])
        (cand,) = rules_at(config, "reorderd")
        assert_sound(config, cand)

    def test_overlapping_targets_do_not(self):
        u1 = singleton(0, MapOp(INC, kl("a")))
        u2 = singleton(1, MapOp(DOUBLE, kl("a", "b")))
        config = config_with([station("a", 3, u1, u2), station("b", 5)])
        assert not rules_at(config, "reorderd")

    def test_two_folds_commute_unconditionally(self):
        u1 = singleton(0, FoldOp(SUM, BASE, kl("a", "b")))
        u2 = singleton(1, FoldOp(SUM_UNMARKED, BASE, kl("a")))
        config = config_with([station("a", 3, u1, u2), station("b", 5)])
        (cand,) = rules_at(config, "reorderrr")
        assert_sound(config, cand)

    def test_map_fold_swap_compensates(self):
        # the fold moved ahead of the map applies the map's function on the
        # keys the map had not reached yet
        u1 = singleton(0, MapOp(INC, kl("a", "b")))
        u2 = singleton(1, FoldOp(SUM, BASE, kl("a", "b")))
        config = config_with([station("a", 3, u1, u2), station("b", 5)])
        (cand,) = rules_at(config, "reorderrw")
        assert_sound(config, cand)

    @pytest.mark.parametrize("keys", [(), ("a",), ("a", "b"), ("c", "b", "a")])
    def test_compensation_tests_membership_once(self, keys):
        # the map's function is applied to a node exactly when its key is
        # in the map's list, by one zero test however long that list is
        fn = tlo.dcomp(SUM, kl(*keys).items, INC)
        assert terms.to_sexpr(fn).count("(if0 ") == 1
        for name in ("a", "b", "z"):
            node = mknode(name, 5)
            seen = App(INC, node) if name in keys else node
            assert (terms.normalize(App(App(fn, node), BASE))
                    == terms.normalize(App(App(SUM, seen), BASE)))

    def test_map_fold_swap_partial_overlap(self):
        u1 = singleton(0, MapOp(INC, kl("b")))
        u2 = singleton(1, FoldOp(SUM, BASE, kl("a", "b")))
        config = config_with([station("a", 3, u1, u2), station("b", 5)])
        (cand,) = rules_at(config, "reorderrw")
        assert_sound(config, cand)


class TestFusion:
    def test_composed_maps_fuse(self):
        u1 = singleton(0, MapOp(INC, kl("a")))
        u2 = singleton(1, MapOp(DOUBLE, kl("a")))
        config = config_with([station("a", 3, u1, u2)])
        (cand,) = rules_at(config, "fusem")
        out, _ = tlo.apply_rewrite(config, cand)
        (fused,) = out.backend[0].streamlet
        ((label, op),) = fused.entries
        assert label == 0 and isinstance(op, MapOp)
        # the dropped emission resolves to the usual map result
        assert dict(out.store)[1].value == Int(0)
        assert_sound(config, cand)

    def test_different_targets_do_not_fuse(self):
        u1 = singleton(0, MapOp(INC, kl("a")))
        u2 = singleton(1, MapOp(DOUBLE, kl("b")))
        config = config_with([station("a", 3, u1, u2), station("b", 5)])
        assert not rules_at(config, "fusem") + rules_at(config, "fusemid")

    def test_inverse_maps_cancel(self):
        # append then remove composes to the identity only under the
        # set-adjacency assumption
        app = Lam("x", NODE, Node(Proj(1, Var("x")), Proj(2, Var("x")),
                                  Concat(Proj(3, Var("x")), kl("z"))))
        rem = Lam("x", NODE, Node(Proj(1, Var("x")), Proj(2, Var("x")),
                                  Subtract(Proj(3, Var("x")), kl("z"))))
        u1 = singleton(0, MapOp(app, kl("a")))
        u2 = singleton(1, MapOp(rem, kl("a")))
        config = config_with([station("a", 3, u1, u2)])
        assert not rules_at(config, "fusemid")
        (cand,) = rules_at(config, "fusemid", assume_set_adjacency=True)
        out, _ = tlo.apply_rewrite(config, cand)
        assert not out.backend[0].streamlet
        assert dict(out.store)[0].value == Int(0)
        assert dict(out.store)[1].value == Int(0)
        assert_sound(config, cand)

    def test_identity_composition_erases_both(self):
        u1 = singleton(0, MapOp(IDENT, kl("a")))
        u2 = singleton(1, MapOp(IDENT, kl("a")))
        config = config_with([station("a", 3, u1, u2)])
        (cand,) = rules_at(config, "fusemid")
        assert_sound(config, cand)


class TestReuse:
    def pair(self, fn1, fn2, ks1=("a",), ks2=("a", "b")):
        u1 = singleton(0, FoldOp(fn1, BASE, kl(*ks1)))
        u2 = singleton(1, FoldOp(fn2, BASE, kl(*ks2)))
        return config_with([station("a", 3, u1, u2), station("b", 5)])

    def test_commutative_subset_reuses(self):
        config = self.pair(SUM, SUM)
        (cand,) = rules_at(config, "reuse")
        out, _ = tlo.apply_rewrite(config, cand)
        _, second = out.backend[0].streamlet
        ((label, op),) = second.entries
        assert label == 1
        assert op.base == Claim(Label(0))
        assert op.ks == kl("b")
        assert_sound(config, cand)

    def test_unmarked_function_never_reused(self):
        config = self.pair(SUM_UNMARKED, SUM_UNMARKED)
        assert not rules_at(config, "reuse")

    def test_superset_target_not_reused(self):
        config = self.pair(SUM, SUM, ks1=("a", "b"), ks2=("a",))
        assert not rules_at(config, "reuse")

    def test_different_bases_not_reused(self):
        u1 = singleton(0, FoldOp(SUM, BASE, kl("a")))
        u2 = singleton(1, FoldOp(SUM, Node(Key("_"), Int(9), KL(())),
                                 kl("a", "b")))
        config = config_with([station("a", 3, u1, u2), station("b", 5)])
        assert not rules_at(config, "reuse")

    def test_noncommutative_marked_function_refuted(self):
        # annotation lies: probing finds a distinguishing input pair
        sub = Lam("n", NODE, Lam("acc", NODE,
                  Node(Proj(1, Var("acc")),
                       Arith("-", Proj(2, Var("n")), Proj(2, Var("acc"))),
                       Proj(3, Var("acc")))),
                  commutative=True)
        config = self.pair(sub, sub)
        assert not rules_at(config, "reuse")


def sum_fn(n="n", acc="acc", marked=True, payload=None, loc=None):
    """`SUM` with other binder names and source positions, or another
    payload expression."""
    if payload is None:
        payload = Arith("+", Proj(2, Var(n, loc)), Proj(2, Var(acc, loc)), loc)
    return Lam(n, NODE, Lam(acc, NODE, Node(Proj(1, Var(acc, loc)), payload,
                                            Proj(3, Var(acc, loc)), loc)),
               commutative=marked, loc=loc)


class TestVerdictTable:
    """`window_candidates` keeps the pair rules' prover verdicts in `tlo`'s
    table for the process, keyed by the canonical text of the functions
    they read; reorderrw's `dcomp` is built with each candidate."""

    def reuse(self, f1, f2):
        u1 = singleton(0, FoldOp(f1, BASE, kl("a")))
        u2 = singleton(1, FoldOp(f2, BASE, kl("a", "b")))
        got = tlo.window_candidates(u1, u2, tlo.RULE_NAMES, False)
        return "reuse" in [c[0] for c in got]

    def counted(self, monkeypatch, name):
        calls = []
        prove = getattr(tlo, name)
        monkeypatch.setattr(tlo, name, lambda *a: calls.append(a) or prove(*a))
        return calls

    def test_no_verdict_for_another_second_function(self, empty_verdicts):
        assert self.reuse(SUM, SUM)
        assert not self.reuse(SUM, SUM_UNMARKED)

    def test_no_verdict_for_another_key_list(self, monkeypatch,
                                            empty_verdicts):
        # the compensation is not kept: each candidate built for a key
        # list and a fold function builds it, a fold function met before too
        dcomp = tlo.dcomp
        built = self.counted(monkeypatch, "dcomp")
        for ks in (kl("a"), kl("b"), kl("a", "b")):
            unit = singleton(0, MapOp(INC, ks))
            for fn in (SUM, SUM_UNMARKED, SUM):
                fold = singleton(1, FoldOp(fn, BASE, kl("a", "b")))
                (spec,) = tlo.window_candidates(unit, fold, ("reorderrw",),
                                                False)
                moved, _ = tlo.candidate(spec, 0, 0, (unit, fold)).replacement
                ((_, op),) = moved.entries
                assert op.fn == dcomp(fn, ks.items, INC)
        assert [(fn, ks) for fn, ks, _ in built] == [
            (fn, ks.items) for ks in (kl("a"), kl("b"), kl("a", "b"))
            for fn in (SUM, SUM_UNMARKED, SUM)]

    def test_no_verdict_for_a_function_built_after_one_was_freed(
            self, empty_verdicts):
        for k in range(40):
            marked = k % 3 == 0
            fn = sum_fn(marked=marked)
            assert self.reuse(fn, fn) == marked
            del fn

    def test_alpha_equivalent_twins_cost_one_proof(self, monkeypatch,
                                                   empty_verdicts):
        commutative = self.counted(monkeypatch, "prove_commutative")
        identity = self.counted(monkeypatch, "prove_identity")
        twin = sum_fn("m", "b", loc=(4, 2))
        assert self.reuse(SUM, SUM) and self.reuse(twin, twin)
        assert self.reuse(SUM, twin) and self.reuse(twin, SUM)
        assert len(commutative) == 1
        inc = Lam("y", NODE, Node(Proj(1, Var("y")),
                                  Arith("+", Proj(2, Var("y")), Int(1)),
                                  Proj(3, Var("y"))), loc=(7, 1))
        for f1, f2 in ((INC, DOUBLE), (inc, DOUBLE), (INC, DOUBLE)):
            units = (singleton(0, MapOp(f1, kl("a"))),
                     singleton(1, MapOp(f2, kl("a"))))
            got = tlo.window_candidates(*units, ("fusem",), False)
            assert [c[0] for c in got] == ["fusem"]
        assert len(identity) == 1

    def test_a_full_table_is_emptied(self, empty_verdicts):
        # an unmarked function is refused before any probe
        for k in range(tlo._VERDICT_BOUND):
            fn = sum_fn(marked=False, payload=Int(k))
            assert not self.reuse(fn, fn)
        assert len(empty_verdicts) == tlo._VERDICT_BOUND
        assert self.reuse(SUM, SUM)
        assert len(empty_verdicts) == 1
        assert not self.reuse(SUM, SUM_UNMARKED)
        assert not self.reuse(SUM_UNMARKED, SUM_UNMARKED)
        assert self.reuse(sum_fn("p", "q"), SUM)
        assert len(empty_verdicts) == 3

    def test_no_term_is_hashed(self, monkeypatch, empty_verdicts):
        # a tlo-random run of an op mix that applies every rule, and the
        # soundness check, decide term sameness by text alone
        monkeypatch.syspath_prepend(str(PERFBENCH))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        import programs
        hashed = []
        for cls in (*typing.get_args(terms.Expr), *terms.OPERATIONS):
            def counted(self, _hash=cls.__hash__):
                hashed.append(type(self))
                return _hash(self)
            monkeypatch.setattr(cls, "__hash__", counted)
        gen = programs.mix_program(8, 1, random.Random(1), random.Random(1))
        r = engine.run(state.init(parse_source(gen.source, "mix.cg")),
                       scheduler="tlo-random", seed=8,
                       assume_set_adjacency=True)
        assert r.config.frontend == Int(gen.expected)
        assert harness.check_rewrite_soundness(20).ok
        assert hashed == []


class TestRuleSelection:
    def test_rules_filter_restricts(self):
        u1 = singleton(0, MapOp(INC, kl("a")))
        u2 = singleton(1, MapOp(DOUBLE, kl("a")))
        config = config_with([station("a", 3, u1, u2)])
        got = tlo.candidates(config, rules=("batch",))
        assert {c.rule for c in got} == {"batch"}

    def test_all_rules_known(self):
        # in the order a window's entries are emitted
        assert tlo.RULE_NAMES == ("batch", "unbatch", *tlo.PAIR_RULES) == (
            "batch", "unbatch", "reorderd", "reorderrr", "reorderrw",
            "fusem", "fusemid", "reuse")


class TestKeptCandidates:
    def test_one_station_under_every_key(self):
        # append then remove: fusemid under set adjacency only; a fold
        # behind them gives reorderrw and dcomp
        app = Lam("x", NODE, Node(Proj(1, Var("x")), Proj(2, Var("x")),
                                  Concat(Proj(3, Var("x")), kl("z"))))
        rem = Lam("x", NODE, Node(Proj(1, Var("x")), Proj(2, Var("x")),
                                  Subtract(Proj(3, Var("x")), kl("z"))))
        units = (singleton(0, MapOp(app, kl("a"))),
                 singleton(1, MapOp(rem, kl("a"))),
                 singleton(2, FoldOp(SUM, BASE, kl("a"))))
        config = config_with([station("a", 3, *units)])
        # each key differs from the one before in one part
        keys = [(None, False), (None, True), (("batch", "fusemid"), True),
                (("batch", "fusemid"), False), (("reorderrw",), False),
                (None, False)]
        seen = []
        for rules, adjacency in keys:
            got = tlo.candidates(config, rules, adjacency)
            bare = config_with([station("a", 3, *units)])
            assert got == tlo.candidates(bare, rules, adjacency)
            seen.append(sorted(c.rule for c in got))
        assert "fusemid" in seen[1] and "fusemid" not in seen[0]
        assert seen[2] == ["batch", "batch", "fusemid"]
        assert seen[3] == ["batch", "batch"]
        assert seen[4] == ["reorderrw"]
        assert seen[5] == seen[0]


### the per-rule chains `PAIR_RULES` replaced, kept as its oracle

def _single(unit):
    return unit.entries[0] if len(unit.entries) == 1 else None


def chained_window_candidates(unit, nxt, enabled, assume_set_adjacency):
    out = []
    if "unbatch" in enabled and len(unit.entries) >= 2:
        out.extend(("unbatch", split) for split in range(1, len(unit.entries)))
    if nxt is None:
        return tuple(out)
    if "batch" in enabled:
        out.append(("batch", 0))
    a, b = _single(unit), _single(nxt)
    if a is None or b is None:
        return tuple(out)
    (_, o1), (_, o2) = a, b
    t1, t2 = state.target(o1), state.target(o2)
    if "reorderd" in enabled and t1 is not None and t2 is not None \
            and not (set(t1) & set(t2)):
        out.append(("reorderd", 0))
    if "reorderrr" in enabled and isinstance(o1, FoldOp) and isinstance(o2, FoldOp):
        out.append(("reorderrr", 0))
    if "reorderrw" in enabled and isinstance(o1, MapOp) \
            and isinstance(o2, FoldOp) and t1 is not None:
        out.append(("reorderrw", 0))
    if ({"fusem", "fusemid"} & set(enabled)) and isinstance(o1, MapOp) \
            and isinstance(o2, MapOp) and o1.ks == o2.ks:
        verdict = tlo._verdict(tlo._fused, o2.fn, o1.fn, assume_set_adjacency)
        if "fusem" in enabled and verdict == "refuted":
            out.append(("fusem", 0))
        if "fusemid" in enabled and verdict == "proved":
            out.append(("fusemid", 0))
    if "reuse" in enabled and isinstance(o1, FoldOp) and isinstance(o2, FoldOp):
        if (t1 is not None and t2 is not None and set(t1) <= set(t2)
                and tlo._verdict(tlo._reusable, o1.fn, o2.fn)
                and terms.alpha_equiv(o1.base, o2.base)):
            out.append(("reuse", 0))
    return tuple(out)


def chained_candidate(spec, station, start, sl):
    rule, split = spec
    unit, nxt = sl[start], sl[start + 1] if start + 1 < len(sl) else None
    results = ()
    if rule == "unbatch":
        replacement = Unit(unit.entries[:split]), Unit(unit.entries[split:])
    elif rule == "batch":
        replacement = Unit(unit.entries + nxt.entries),
    else:
        (l1, o1), (l2, o2) = unit.entries[0], nxt.entries[0]
        if rule in ("reorderd", "reorderrr"):
            replacement = nxt, unit
        elif rule == "reorderrw":
            comp = tlo.dcomp(o2.fn, o1.ks.items, o1.fn)
            replacement = singleton(l2, FoldOp(comp, o2.base, o2.ks)), unit
        elif rule == "fusem":
            replacement = singleton(l1, MapOp(compose(o2.fn, o1.fn), o1.ks)),
            results = (l2, state.StoreEntry(Int(0), ())),
        elif rule == "fusemid":
            replacement = ()
            results = ((l1, state.StoreEntry(Int(0), ())),
                       (l2, state.StoreEntry(Int(0), ())))
        else:  # reuse
            shrunk = KL(terms.kl_subtract(o2.ks.items, o1.ks.items))
            replacement = unit, singleton(l2, FoldOp(o2.fn, Claim(Label(l1)),
                                                     shrunk))
    length = 1 if rule == "unbatch" else 2
    labels = tuple(l for u in sl[start:start + length] for l, _ in u.entries)
    return tlo.Candidate(rule, station, start, length, replacement, results,
                         labels, split)


@pytest.fixture(scope="module")
def reached_windows():
    """Each distinct window (a unit and the unit after it, None at the
    tail) of every streamlet reached by walks with every rule, with and
    without set adjacency, over the runnable corpus and two op mixes, and
    each pair of seven units built here, for windows no walk reaches: two
    have key lists still loading, a fold's target holds another's, and two
    identity maps have different key lists."""
    configs = [*(state.init(harness.corpus_program(n)) for n in harness.RUNNABLE),
               mix_config(1), mix_config(2)]
    windows = {}
    for k, config in enumerate(configs):
        for adjacency in (False, True):
            for ix in walk(config, k, True, adjacency):
                for station in ix.config.backend:
                    sl = station.streamlet
                    for j, unit in enumerate(sl):
                        nxt = sl[j + 1] if j + 1 < len(sl) else None
                        windows.setdefault((id(unit), id(nxt)), (unit, nxt))
    loading = Concat(kl("a"), kl("b"))
    built = (singleton(0, MapOp(INC, loading)), singleton(1, MapOp(INC, kl("a"))),
             singleton(2, FoldOp(SUM, BASE, loading)),
             singleton(3, FoldOp(SUM, BASE, kl("a"))),
             singleton(4, FoldOp(SUM, BASE, kl("a", "b"))),
             singleton(5, MapOp(IDENT, kl("a"))), singleton(6, MapOp(IDENT, kl("b"))))
    return [*windows.values(), *((u, v) for u in built for v in built)]


def table_disagreements(windows):
    """The (window, rules, adjacency) where the table's specs or built
    candidates differ from the chains', for each rule alone and all rules,
    with and without set adjacency."""
    out = []
    for rules in (*((r,) for r in tlo.RULE_NAMES), tlo.RULE_NAMES):
        for adjacency in (False, True):
            for unit, nxt in windows:
                sl = (unit,) if nxt is None else (unit, nxt)
                got = tlo.window_candidates(unit, nxt, rules, adjacency)
                want = chained_window_candidates(unit, nxt, rules, adjacency)
                if got != want or any(
                        tlo.candidate(spec, 0, 0, sl)
                        != chained_candidate(spec, 0, 0, sl) for spec in got):
                    out.append(((unit, nxt), rules, adjacency))
    return out


class TestRuleTable:
    """`PAIR_RULES` offers and builds what the per-rule chains did."""

    def test_agrees_with_the_chains_on_reached_windows(self, reached_windows):
        assert len(reached_windows) > 1000
        fired = {spec[0] for unit, nxt in reached_windows
                 for spec in tlo.window_candidates(unit, nxt, tlo.RULE_NAMES,
                                                   True)}
        assert fired == set(tlo.RULE_NAMES)
        assert table_disagreements(reached_windows) == []

    @pytest.mark.parametrize("rule", ("reorderd", "reorderrw", "fusem",
                                      "fusemid", "reuse"))
    def test_a_dropped_condition_disagrees(self, monkeypatch, reached_windows,
                                           rule):
        # reorderrr's condition is already always true
        rows = {kinds: tuple((r, (lambda *_: True) if r == rule else holds)
                             for r, holds in row)
                for kinds, row in tlo._ROWS.items()}
        monkeypatch.setattr(tlo, "_ROWS", rows)
        assert table_disagreements(reached_windows)

    def test_the_documented_table_lists_the_rules_in_order(self):
        text = (Path(__file__).resolve().parent.parent / "docs"
                / "language.md").read_text()
        section = text.split("## Stream rewrites\n")[1].split("\n## ")[0]
        rows = [line.split("|")[1].strip() for line in section.splitlines()
                if line.startswith("| `")]
        assert tuple(r.strip("`") for r in rows) == tlo.RULE_NAMES


# a map function holding an unapplied `fix` that recurses outside any
# conditional: the identity prover normalizes it while the maps can fuse
FIX_IN_MAP = """graph [ #k1: 1 [], #k2: 2 [] ]
let m1 = map (fun n: node -> let g = fun u: int ->
  (fix (fun f: (int -> int) -> fun x: int -> f x)) u in n) [#k1] in
let m2 = map (fun n: node -> node(key(n), payload(n) + 1, adj(n))) [#k1] in
claim m2
"""


def test_fix_in_a_map_reaches_the_eager_terminal():
    prog = parse_source(FIX_IN_MAP, "fix.cg")
    base = engine.run(state.init(prog))
    r = engine.run(state.init(prog), scheduler="tlo-random", seed=1)
    assert base.status == r.status == "terminal"
    assert state.terminal_digest(r.config) == state.terminal_digest(base.config)


SHADOWED_FOLDS = """
graph [ #a: 5 [], #b: 3 [] ]
let f1 = fold (commutative fun n: node -> fun acc: node -> let n = acc in let z = node(key(n), payload(n) + 1, adj(n)) in n) node(#_, 0, []) [#a, #b] in
let f2 = fold (commutative fun n: node -> fun acc: node -> let n = acc in let z = node(key(n), payload(n) + 1, adj(n)) in z) node(#_, 0, []) [#a, #b] in
payload(claim f1) * 100 + payload(claim f2)
"""


def test_folds_differing_under_a_shadowed_name_are_not_reused():
    # the functions differ only in returning the shadowing `n` or `z`;
    # `reuse` read them as alpha-equivalent and ran one fold for both
    prog = parse_source(SHADOWED_FOLDS, "shadow.cg")
    base = engine.run(state.init(prog))
    assert base.status == "terminal"
    assert base.config.frontend == Int(2)
    for seed in range(41):
        r = engine.run(state.init(prog), scheduler="tlo-random", seed=seed)
        assert r.status == "terminal"
        assert r.config.frontend == Int(2), f"seed {seed}"


class TestProvers:
    def test_plain_identity_proved(self):
        assert tlo.prove_identity(IDENT) == "proved"

    def test_projection_rebuild_proved(self):
        rebuild = Lam("x", NODE, Node(Proj(1, Var("x")), Proj(2, Var("x")),
                                      Proj(3, Var("x"))))
        assert tlo.prove_identity(compose(rebuild, IDENT)) == "proved"

    def test_payload_change_refuted(self):
        assert tlo.prove_identity(INC) == "refuted"

    def test_append_remove_needs_assumption(self):
        app = Lam("x", NODE, Node(Proj(1, Var("x")), Proj(2, Var("x")),
                                  Concat(Proj(3, Var("x")), kl("z"))))
        rem = Lam("x", NODE, Node(Proj(1, Var("x")), Proj(2, Var("x")),
                                  Subtract(Proj(3, Var("x")), kl("z"))))
        h = compose(rem, app)
        assert tlo.prove_identity(h) != "proved"
        assert tlo.prove_identity(h, assume_set_adjacency=True) == "proved"

    def test_commutative_requires_annotation(self):
        assert tlo.prove_commutative(SUM_UNMARKED) == "unknown"
        assert tlo.prove_commutative(SUM) == "proved"

    DIFFERENCE = Lam("a", NODE, Lam("b", NODE,
                     Node(Proj(1, Var("b")),
                          Arith("-", Proj(2, Var("a")), Proj(2, Var("b"))),
                          Proj(3, Var("b")))),
                     commutative=True)

    def test_annotation_downgraded_by_probe(self):
        assert tlo.prove_commutative(self.DIFFERENCE) == "refuted"

    def test_each_interchange_side_is_normalized_once(self, monkeypatch):
        # f x (f y z) for every x != y and z among the three probes: 18
        # sides, each read twice; x == y gives one term on both sides
        calls = []
        normalize = tlo.normalize
        monkeypatch.setattr(tlo, "normalize",
                            lambda e: calls.append(e) or normalize(e))
        assert tlo.prove_commutative(SUM) == "proved"
        assert len(calls) == len({terms.to_sexpr(e) for e in calls}) == 18
        calls.clear()
        # refuted by the first triple with x != y, probes 0, 1 and 0
        assert tlo.prove_commutative(self.DIFFERENCE) == "refuted"
        p = tlo._PROBES
        fn = self.DIFFERENCE
        assert calls == [App(App(fn, p[0]), App(App(fn, p[1]), p[0])),
                         App(App(fn, p[1]), App(App(fn, p[0]), p[0]))]
