"""Term-level operations: substitution, alpha equivalence, key list
arithmetic, normalization and the equivalence oracle."""

from hypothesis import given
from hypothesis import strategies as st

import pytest

from stationflow.state import to_sexpr
from stationflow.terms import (
    INT, NODE, App, Arith, Claim, Concat, Emit, Fix, FoldOp, If0, Int, Key,
    KL, Lam, Len, Node, Proj, Subtract, TFun, Var, alpha_equiv, arith_eval,
    compose, eta_contract, free_vars, is_value, kl_subtract, kl_value,
    normalize, substitute, term_equiv,
)

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
