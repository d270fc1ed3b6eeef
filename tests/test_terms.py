"""Term-level operations: substitution, alpha equivalence, key list
arithmetic, normalization and the equivalence oracle."""

import dataclasses
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import pytest

from stationflow import engine, harness, state, terms, tlo, types
from stationflow.state import to_sexpr
from stationflow.terms import (
    INT, NODE, AddOp, App, Arith, Claim, Concat, Emit, Fix, FoldOp, If0, Int,
    Key, KL, Label, Lam, Len, MapOp, Node, Proj, Subtract, TFun, Var,
    alpha_equiv, arith_eval, children, compose, eta_contract, free_vars,
    is_value, kl_subtract, kl_value, normalize, substitute, term_equiv,
)
from conftest import walk

IDENT = Lam("x", NODE, Var("x"))


def keys(*names):
    return tuple(Key(n) for n in names)


class TestSubstitution:
    def test_replaces_free_occurrences(self):
        e = substitute(Arith("+", Var("x"), Var("x")), Int(2), "x")
        assert e == Arith("+", Int(2), Int(2))

    def test_shadowed_binder_untouched(self):
        inner = Lam("x", NODE, Var("x"))
        assert substitute(inner, Int(1), "x") == inner

    def test_capture_avoided(self):
        # substituting y := x under a binder named x must rename the binder
        e = Lam("x", NODE, App(Var("y"), Var("x")))
        out = substitute(e, Var("x"), "y")
        assert isinstance(out, Lam)
        assert out.param != "x"
        assert out.body == App(Var("x"), Var(out.param))

    def test_result_closed_when_value_closed(self):
        e = App(Lam("y", None, Var("y")), Var("x"))
        assert free_vars(substitute(e, Int(5), "x")) == frozenset()

    def test_unchanged_subterms_are_returned_as_is(self):
        fn = Lam("n", NODE, Node(Proj(1, Var("n")), Int(0), Proj(3, Var("n"))))
        e = App(App(fn, Var("x")), fn)
        assert substitute(e, Int(5), "y") is e
        assert substitute(fn, Int(5), "n") is fn
        out = substitute(e, Int(5), "x")
        assert out == App(App(fn, Int(5)), fn)
        assert out.fn.fn is fn and out.arg is fn

    def test_descends_only_along_the_path_to_the_occurrence(self,
                                                            monkeypatch):
        fn = Lam("n", NODE, Node(Proj(1, Var("n")), Int(0), Proj(3, Var("n"))))
        one, ks = Int(1), KL((Var("k"),))
        e = If0(Var("y"), App(fn, Arith("+", Len(Var("x")), one)), ks)
        free_vars(e)  # kept before the count starts
        opened, rebuilt = [], []
        for name, seen in (("children", opened), ("with_children", rebuilt)):
            def counted(t, *args, walk=getattr(terms, name), seen=seen):
                seen.append(type(t).__name__)
                return walk(t, *args)
            monkeypatch.setattr(terms, name, counted)
        out = substitute(e, KL(()), "x")
        assert out == If0(Var("y"), App(fn, Arith("+", Len(KL(())), one)), ks)
        assert opened == ["If0", "App", "Arith", "Len"]
        assert rebuilt == opened[::-1]
        assert out.scrut is e.scrut and out.els is ks
        assert out.then.fn is fn and out.then.arg.right is one

    def test_free_names_are_kept_and_shared(self):
        # one set per name, one empty set, and a node with one open child
        # keeps that child's set
        x = free_vars(Var("x"))
        assert free_vars(Var("x")) is x
        e = App(Int(1), Lam("y", None, Len(Var("x"))))
        assert free_vars(e) is x and e.__dict__["_fv"] is x
        assert free_vars(Lam("x", None, e)) is free_vars(Int(0)) == frozenset()
        assert free_vars(Concat(Var("x"), Var("y"))) == {"x", "y"}


class TestAlphaEquiv:
    def test_renamed_binders_equal(self):
        assert alpha_equiv(IDENT, Lam("y", NODE, Var("y")))

    def test_commutative_marker_distinguishes(self):
        a = Lam("x", NODE, Var("x"), commutative=True)
        assert not alpha_equiv(a, IDENT)

    def test_free_variables_compared_by_name(self):
        assert not alpha_equiv(Var("a"), Var("b"))
        assert alpha_equiv(Var("a"), Var("a"))

    def test_locations_ignored(self):
        assert alpha_equiv(Int(3, loc=(1, 1)), Int(3, loc=(9, 9)))

    def test_shadowing_binder_gets_its_own_level(self):
        # the second `x` shadows the first, so the bodies name the third
        # and the fourth binder
        def lams(body):
            return Lam("x", INT, Lam("y", INT, Lam("x", INT,
                                                   Lam("z", INT, body))))
        assert not alpha_equiv(lams(Var("x")), lams(Var("z")))
        assert alpha_equiv(lams(Var("x")), Lam("a", INT, Lam("b", INT, Lam(
            "c", INT, Lam("d", INT, Var("c"))))))

    @pytest.mark.parametrize("a, b, equal", [
        (Lam("x", INT, Lam("x", INT, Var("x"))),
         Lam("x", INT, Lam("y", INT, Var("y"))), True),
        (Lam("x", INT, Lam("x", INT, Var("x"))),
         Lam("x", INT, Lam("y", INT, Var("x"))), False),
        (Lam("x", INT, Lam("y", INT, Var("x"))),
         Lam("y", INT, Lam("x", INT, Var("y"))), True),
        (Lam("x", INT, Var("y")), Lam("y", INT, Var("y")), False),
        (Lam("x", INT, Var("x")), Var("x"), False),
        (App(Lam("x", INT, Var("x")), Var("x")),
         App(Lam("y", INT, Var("y")), Var("x")), True),
        (Lam("x", None, Var("x")), Lam("x", INT, Var("x")), False),
        (Lam("x", TFun(NODE, False, NODE), Var("x")),
         Lam("x", TFun(NODE, True, NODE), Var("x")), False),
        (Lam("x", NODE, Var("x"), commutative=True), IDENT, False),
        (Proj(1, Var("n")), Proj(2, Var("n")), False),
        (Arith("+", Int(1), Int(2)), Arith("*", Int(1), Int(2)), False),
        (Emit(MapOp(IDENT, KL(()))), Emit(AddOp(Int(0))), False),
        (Emit(FoldOp(IDENT, Var("b"), KL(()))),
         Emit(FoldOp(Lam("z", NODE, Var("z")), Var("b"), KL(()))), True),
        (Label(1), Label(1, loc=(3, 3)), True),
        (Key("a"), Var("a"), False),
    ], ids=repr)
    def test_binders_marks_and_fields(self, a, b, equal):
        assert alpha_equiv(a, b) == alpha_oracle(a, b) == equal
        assert alpha_equiv(b, a) == equal


def alpha_oracle(a, b, la=None, lb=None, depth=0) -> bool:
    """Alpha equivalence by a walk over binder levels, the definition the
    comparison of printed text replaced.  `la`/`lb` map each name in scope
    to the nesting level of its binder; `depth` binders enclose `a` and
    `b`.  A level, unlike the count of names in scope, grows when a binder
    shadows a name."""
    la, lb = la or {}, lb or {}
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        if (a.name in la) != (b.name in lb):
            return False
        return la[a.name] == lb[b.name] if a.name in la else a.name == b.name
    if isinstance(a, Lam):
        if a.ptype != b.ptype or a.commutative != b.commutative:
            return False
        return alpha_oracle(a.body, b.body, {**la, a.param: depth},
                            {**lb, b.param: depth}, depth + 1)
    if (isinstance(a, Proj) and a.index != b.index
            or isinstance(a, Arith) and a.op != b.op
            or isinstance(a, Emit) and type(a.op) is not type(b.op)):
        return False
    ca, cb = children(a), children(b)
    if not ca:
        return a == b  # Int, Key and Label compare their value
    return len(ca) == len(cb) and all(alpha_oracle(x, y, la, lb, depth)
                                      for x, y in zip(ca, cb))


def renamed_apart(e):
    """`e` with every binder renamed, a capture-avoiding substitution
    putting the new name in for the old."""
    def fix(x):
        if isinstance(x, Lam):
            new = x.param + "'"
            return Lam(new, x.ptype, substitute(x.body, Var(new), x.param),
                       x.commutative, x.loc)
        return x
    return terms.transform(e, fix)


def swapped(e):
    """A curried function `e` with its two binders trading names, `e`
    itself for any other term."""
    if not (isinstance(e, Lam) and isinstance(e.body, Lam)):
        return e
    inner = e.body
    return Lam(inner.param, e.ptype, Lam(e.param, inner.ptype, inner.body,
                                         inner.commutative, inner.loc),
               e.commutative, e.loc)


class TestAlphaOracle:
    """Comparing printed text agrees with the binder-level walk on the
    subterms the harness walks of the runnable corpus reach, paired with
    each other and with copies whose binders are renamed or swapped."""

    def test_agrees_along_the_corpus_walks(self):
        by_class = {}
        for k, name in enumerate(harness.RUNNABLE):
            for ix in walk(state.init(harness.corpus_program(name)), k, True):
                for e in config_terms(ix.config):
                    if not isinstance(e, (AddOp, MapOp, FoldOp)):
                        by_class.setdefault(type(e), {})[id(e)] = e
        rng = random.Random(0)
        pairs = equal = 0
        for found in by_class.values():
            found = list(found.values())
            for a in rng.sample(found, min(len(found), 150)):
                for b in (renamed_apart(a), swapped(a),
                          *rng.sample(found, 8)):
                    got = alpha_equiv(a, b)
                    assert got == alpha_oracle(a, b), (a, b)
                    pairs += 1
                    equal += got
        assert pairs > 10_000 and 0.1 < equal / pairs < 0.9


class TestKlSubtract:
    def test_removes_all_occurrences(self):
        out = kl_subtract(keys("a", "b", "a", "c"), keys("a"))
        assert out == keys("b", "c")

    def test_right_multiplicity_irrelevant(self):
        assert kl_subtract(keys("a", "b"), keys("b", "b")) == keys("a")

    @given(st.lists(st.sampled_from("abcd"), max_size=8),
           st.lists(st.sampled_from("abcd"), max_size=4))
    def test_no_survivor_from_right(self, left, right):
        out = kl_subtract(keys(*left), keys(*right))
        assert not set(k.name for k in out) & set(right)

    @given(st.lists(st.sampled_from("abcd"), max_size=8),
           st.lists(st.sampled_from("abcd"), max_size=4))
    def test_left_order_preserved(self, left, right):
        out = [k.name for k in kl_subtract(keys(*left), keys(*right))]
        kept = [n for n in left if n not in right]
        assert out == kept


class TestNormalize:
    def test_arithmetic(self):
        e, done = normalize(Arith("*", Int(6), Arith("+", Int(3), Int(4))))
        assert done and e == Int(42)

    def test_division_truncates_toward_zero(self):
        assert arith_eval("/", -7, 2) == -3
        assert arith_eval("/", 7, -2) == -3

    def test_division_by_zero_is_zero(self):
        e, done = normalize(Arith("/", Int(5), Int(0)))
        assert done and e == Int(0)

    def test_beta_and_projection(self):
        n = Node(Key("k"), Int(7), KL(()))
        e, done = normalize(App(Lam("x", NODE, Proj(2, Var("x"))), n))
        assert done and e == Int(7)

    def test_if0_branches(self):
        e, _ = normalize(If0(Int(0), Int(1), Int(2)))
        assert e == Int(1)
        e, _ = normalize(If0(Int(3), Int(1), Int(2)))
        assert e == Int(2)

    def test_len(self):
        e, done = normalize(Len(KL(keys("a", "b"))))
        assert done and e == Int(2)

    def test_open_terms_stop(self):
        e, done = normalize(Arith("+", Var("x"), Int(1)))
        assert done and e == Arith("+", Var("x"), Int(1))

    def test_claim_blocks_normalization(self):
        e, done = normalize(Claim(Var("f")))
        assert done and isinstance(e, Claim)


_A, _B = Key("a"), Key("b")
_COUNTDOWN = Fix(Lam("f", TFun(INT, False, INT), Lam("n", INT, If0(
    Var("n"), Int(0), App(Var("f"), Arith("-", Var("n"), Int(1)))))))

# term, the least fuel that completes, and a fuel that runs out with the
# partial term it leaves; pins how much fuel each rule spends
FUEL_PINS = [
    (App(Lam("x", INT, Arith("+", Var("x"), Int(1))), Int(2)), 9,
     1, "(arith + (int 2) (int 1))"),
    (App(_COUNTDOWN, Int(3)), 55, 28,
     "(if0 (arith - (int 2) (int 1)) (int 0) (app (fix (lam (int -> int) "
     "(lam int (if0 (bound 0) (int 0) (app (bound 1) (arith - (bound 0) "
     "(int 1))))))) (arith - (arith - (int 2) (int 1)) (int 1))))"),
    (Proj(3, Node(_A, Int(1), Concat(KL((_A,)), KL((_B,))))), 12,
     1, "(cat (kl (key a)) (kl (key b)))"),
    (Len(Subtract(KL((_A, _B, _A)), KL((_A,)))), 8,
     1, "(len (sub (kl (key a) (key b) (key a)) (kl (key a))))"),
    (Lam("x", INT, App(Lam("y", INT, Var("y")), Var("x"))), 6,
     1, "(lam int (app (lam int (bound 0)) (bound 0)))"),
    (Emit(FoldOp(Lam("x", NODE, Lam("y", NODE, Var("y"))),
                 Node(_A, Arith("*", Int(2), Int(3)), KL(())),
                 Concat(KL((_A,)), KL(())))), 14,
     7, "(emit (fold (lam node (lam node (bound 0))) (node (key a) (int 6) "
        "(kl)) (cat (kl (key a)) (kl))))"),
    # a stuck scrutinee still has its branches normalized
    (If0(Var("z"), App(Lam("x", INT, Var("x")), Int(1)), Int(2)), 8,
     1, "(if0 (free z) (app (lam int (bound 0)) (int 1)) (int 2))"),
]


class TestNormalizeFuel:
    @pytest.mark.parametrize("term,needed,short,partial", FUEL_PINS)
    def test_fuel_spent(self, term, needed, short, partial):
        assert normalize(term, needed)[1]
        assert not normalize(term, needed - 1)[1]
        out, done = normalize(term, short)
        assert (to_sexpr(out), done) == (partial, False)

    def test_fix_under_a_stuck_conditional_does_not_complete(self):
        # the open countdown unrolls once per level with nothing to stop it
        out, done = normalize(Lam("m", INT, App(_COUNTDOWN, Var("m"))))
        assert not done
        assert to_sexpr(out).startswith("(lam int (if0 (bound 0) (int 0) (app (fix")

    @pytest.mark.parametrize("arg", [None, Int(1)])
    def test_unrolling_under_a_binder_is_cut_not_overflowed(self, arg):
        # the body applies f outside any conditional: every unrolled copy
        # nests one level deeper, so the depth budget, not fuel, stops it
        term = Fix(Lam("f", TFun(INT, False, INT),
                       Lam("n", INT, App(Var("f"), Var("n")))))
        assert normalize(term if arg is None else App(term, arg))[1] is False

    def test_normal_form_on_the_last_unit_completes(self):
        term = App(Lam("x", INT, Arith("+", Var("x"), Int(1))), Int(2))
        assert normalize(term, 9) == (Int(3), True)
        assert normalize(term, 8)[1] is False


class TestTermEquiv:
    def test_equal_after_reduction(self):
        a = App(Lam("x", NODE, Var("x")), Int(3))
        assert term_equiv(a, Int(3)) == "equal"

    def test_distinct_values(self):
        assert term_equiv(Int(1), Int(2)) == "distinct"

    def test_alpha_equal(self):
        assert term_equiv(IDENT, Lam("z", NODE, Var("z"))) == "equal"

    def test_branches_under_a_stuck_scrutinee_compare(self):
        a = Lam("z", INT, If0(Var("z"), App(Lam("x", INT, Var("x")), Int(1)),
                              Int(2)))
        b = Lam("z", INT, If0(Var("z"), Int(1), Int(2)))
        assert term_equiv(a, b) == "equal"
        assert normalize(a) == (b, True)

    def test_unknown_on_fuel_exhaustion(self):
        loop = App(Lam("f", None, App(Var("f"), Var("f"))),
                   Lam("f", None, App(Var("f"), Var("f"))))
        assert term_equiv(loop, Int(0), fuel=50) == "unknown"


class TestEtaCompose:
    def test_eta_contracts_wrapper(self):
        wrapped = Lam("y", NODE, App(Var("f"), Var("y")))
        assert eta_contract(wrapped) == Var("f")

    def test_eta_keeps_escaping_binder(self):
        e = Lam("y", NODE, App(Var("y"), Var("y")))
        assert eta_contract(e) == e

    def test_compose_applies_right_first(self):
        add1 = Lam("n", None, Arith("+", Var("n"), Int(1)))
        dbl = Lam("n", None, Arith("*", Var("n"), Int(2)))
        h = compose(dbl, add1)  # dbl after add1
        got, done = normalize(App(h, Int(5)))
        assert done and got == Int(12)


class TestValues:
    def test_values(self):
        assert is_value(Int(1))
        assert is_value(kl_value(["a"]))
        assert is_value(Node(Key("k"), Int(0), KL(())))
        assert is_value(IDENT)

    def test_non_values(self):
        assert not is_value(Arith("+", Int(1), Int(1)))
        assert not is_value(Node(Key("k"), Arith("+", Int(1), Int(1)), KL(())))
        assert not is_value(Claim(Var("x")))


def is_value_oracle(e) -> bool:
    """`is_value` as a match over class patterns, the definition its class
    dispatch replaced."""
    match e:
        case Int() | Key() | Label() | Lam():
            return True
        case KL(items):
            return all(isinstance(i, Key) for i in items)
        case Node(k, p, a):
            return (isinstance(k, Key) and isinstance(p, Int)
                    and isinstance(a, KL) and is_value_oracle(a))
        case _:
            return False


def config_terms(config):
    """Every term of a configuration and every subterm of it, operations
    included."""
    ops = [op for units in ([s.streamlet for s in config.backend]
                            + [config.top]) for u in units for _, op in u.entries]
    todo = [s.node for s in config.backend] + [e.value for _, e in config.store]
    todo += [config.frontend, *ops]
    todo += [a for op in ops for a in terms.op_args(op)]
    while todo:
        e = todo.pop()
        yield e
        if not isinstance(e, (AddOp, MapOp, FoldOp)):
            todo.extend(children(e))


class TestIsValueOracle:
    """`is_value` by class dispatch gives what the class-pattern match gave,
    on everything the harness walks reach and on malformed forms no
    well-typed run builds."""

    def test_agrees_along_the_corpus_walks(self):
        seen = 0
        for k, name in enumerate(harness.RUNNABLE):
            for tlo_on in (False, True):
                for ix in walk(state.init(harness.corpus_program(name)), k,
                               tlo_on):
                    for e in config_terms(ix.config):
                        assert is_value(e) == is_value_oracle(e), e
                        seen += 1
        assert seen > 10_000

    @pytest.mark.parametrize("e", [
        KL((Key("a"), Int(1))),
        KL((Var("k"),)),
        KL((Key("a"), KL(()))),
        Node(Key("k"), Proj(1, Var("n")), KL(())),
        Node(Key("k"), Int(0), Concat(KL(()), KL(()))),
        Node(Key("k"), Int(0), KL((Key("a"), Int(2)))),
        Node(Key("k"), Int(0), Var("a")),
        Node(Int(0), Int(0), KL(())),
        Node(Key("k"), Label(0), KL(())),
        Node(Key("k"), Int(0), Node(Key("k"), Int(0), KL(()))),
        Claim(Label(0)),
        Var("x"),
        AddOp(Int(1)),
        None,
    ], ids=repr)
    def test_malformed_forms_are_no_values(self, e):
        assert not is_value(e) and not is_value_oracle(e)

    @pytest.mark.parametrize("e", [
        KL(()), KL((Key("a"), Key("a"))), Node(Key("_"), Int(-1), KL(())),
        Node(Key("k"), Int(0), kl_value("abc")), Lam("x", None, Var("y")),
        Label(3),
    ], ids=repr)
    def test_values(self, e):
        assert is_value(e) and is_value_oracle(e)


RECORD_MODULES = (terms, state, engine, tlo, types)

RECORDS = sorted(
    (c for m in RECORD_MODULES for c in vars(m).values()
     if isinstance(c, type) and c.__module__ == m.__name__
     and dataclasses.is_dataclass(c) and c.__dataclass_params__.frozen),
    key=lambda c: (c.__module__, c.__name__))


def plain_twin(cls):
    """A plain `dataclass(frozen=True)` with `cls`'s fields."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default, repr=f.repr,
                                           compare=f.compare))
        for f in dataclasses.fields(cls)], frozen=True)


def sample_values(cls, k=0):
    """A distinct term for every field of `cls`."""
    return [1 if (cls, f.name) == (Proj, "index") else Int(k + j)
            for j, f in enumerate(dataclasses.fields(cls))]


def sample(cls, k=0):
    """An instance of `cls` with a distinct term in every field."""
    return cls(*sample_values(cls, k))


class TestRecord:
    """`terms.record` keeps the `dataclass(frozen=True)` contract and its
    memory per instance, on every frozen dataclass of the modules whose
    records a step builds."""

    def test_every_frozen_dataclass_is_a_record(self):
        assert {c.__name__ for c in RECORDS} == {
            "Var", "Int", "Key", "Label", "Lam", "App", "Fix", "KL", "Node",
            "Proj", "Concat", "Subtract", "Arith", "If0", "Len", "Emit",
            "Claim", "AddOp", "MapOp", "FoldOp", "TBase", "TFuture", "TFun",
            "OpKind", "Contraction", "StoreEntry", "Unit", "Station",
            "Configuration", "Blocked", "Stuck", "Redex", "StepRecord",
            "Candidate", "ConfigType"}
        for c in RECORDS:
            # fields in slots, kept values in a `__dict__` made on first
            # use, and no `__weakref__`
            names = [f.name for f in dataclasses.fields(c)]
            assert c.__slots__ == (*names, "__dict__"), c
            assert c.__weakrefoffset__ == 0, c
            # stored through each slot's bound setter, not the generated
            # __init__ or `object.__setattr__`
            setters = c.__init__.__globals__
            assert [setters[f"_s{i}"] for i in range(len(names))] \
                == [vars(c)[n].__set__ for n in names], c
            assert object.__setattr__ not in setters.values(), c

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_fields_and_signature(self, cls):
        twin = plain_twin(cls)
        sig = [(p.name, p.kind, p.default)
               for p in inspect.signature(cls.__init__).parameters.values()]
        assert sig == [(p.name, p.kind, p.default)
                       for p in inspect.signature(twin.__init__).parameters.values()]
        fs = dataclasses.fields(cls)
        x = sample(cls)
        assert [getattr(x, f.name) for f in fs] == sample_values(cls)
        assert all(f.name in cls.__slots__ for f in fs)
        assert x.__dict__ == {}  # nothing kept yet
        assert cls(**{f.name: getattr(x, f.name) for f in fs}) == x
        defaults = {f.name: f.default for f in fs
                    if f.default is not dataclasses.MISSING}
        short = cls(*(getattr(x, f.name) for f in fs if f.name not in defaults))
        assert {n: getattr(short, n) for n in defaults} == defaults
        assert repr(x) == repr(twin(*(getattr(x, f.name) for f in fs)))

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_frozen_compared_and_replaced(self, cls):
        x, y = sample(cls), sample(cls, 100)
        first = next(f.name for f in dataclasses.fields(cls)
                     if getattr(x, f.name) != getattr(y, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, first, getattr(y, first))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, first)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.other = 1  # no field, and not kept with `state.keep`
        assert x == sample(cls) and hash(x) == hash(sample(cls)) and x != y
        state.keep(x, "_probe", lambda: "kept")
        again = dataclasses.replace(x)
        assert again == x and "_probe" not in again.__dict__
        assert dataclasses.replace(x, **{first: getattr(y, first)}) != x
        if "loc" in (f.name for f in dataclasses.fields(cls)):
            moved = dataclasses.replace(x, loc=(3, 4))
            assert moved.loc == (3, 4) and moved == x and hash(moved) == hash(x)

    def test_a_class_without_a_docstring_is_built_without_a_signature(
            self, monkeypatch):
        # `dataclass` derives a missing docstring through
        # `inspect.signature`, which costs more than the rest of the build
        def refuse(*args, **kwargs):
            raise AssertionError("inspect.signature called")

        monkeypatch.setattr(inspect, "signature", refuse)

        @terms.record
        class Pair:
            left: int
            right: int = 0

        assert Pair(1) == Pair(1, 0) != Pair(2)
        assert Pair.__doc__ == "Pair(left, right)"
        assert terms.App.__doc__ == "App(fn, arg, loc)"

    def test_post_init_still_checks(self):
        with pytest.raises(ValueError, match="projection index 4"):
            Proj(4, Var("n"))
        with pytest.raises(ValueError, match="projection index 0"):
            dataclasses.replace(Proj(1, Var("n")), index=0)

    @pytest.mark.parametrize("kept", [
        0,
        # the slotted record's `__dict__`, made for its first kept value,
        # costs more than the room the plain record's dict had for it on
        # 3.10, which has no managed instance dicts (176 B against 160), and
        # on 3.13, which sizes its values for the class's shared keys (424
        # B against 168); 3.11 and 3.12 keep the contract
        pytest.param(1, marks=pytest.mark.xfail(
            sys.version_info[:2] in ((3, 10), (3, 13)), strict=True,
            reason="a kept value costs a slotted record a whole dict")),
    ], ids=["bare", "one-kept"])
    def test_no_more_memory_than_a_plain_dataclass(self, kept):
        # in a fresh interpreter: what a process did with `App`s before can
        # change the size of later instances, whatever builds them
        code = f"""if True:
            import dataclasses, tracemalloc
            from stationflow.state import keep
            from stationflow.terms import App, Int, Var
            twin = dataclasses.make_dataclass("App", [
                (f.name, f.type, dataclasses.field(
                    default=f.default, repr=f.repr, compare=f.compare))
                for f in dataclasses.fields(App)], frozen=True)

            def traced(cls):
                fn, arg = Var("f"), Int(0)
                tracemalloc.start()
                xs = [cls(fn, arg) for _ in range(10_000)]
                for x in xs[:{kept} * len(xs)]:
                    keep(x, "_sexpr", tuple)  # the shared empty tuple
                size = tracemalloc.get_traced_memory()[0]
                tracemalloc.stop()
                return size

            traced(App), traced(twin)  # both classes warmed up
            print(traced(App), traced(twin))
        """
        src = str(Path(terms.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        ours, twins = map(int, out.split())
        assert ours <= twins
