"""Static typing of programs and runtime typing of configurations,
including the emission-effect discipline on operation functions."""

import random

import pytest

from stationflow import engine, state
from stationflow.engine import apply_redex, enumerate_redexes
from stationflow.parser import SourceError, parse_source
from stationflow.terms import INT, KEY, KL_T, NODE, TFun, TFuture
from stationflow.types import type_of_config, type_of_expr


def ty(text):
    return type_of_expr(parse_source(text, "t.cg").expr, file="t.cg")


def err_of(text):
    with pytest.raises(SourceError) as ei:
        ty(text)
    return str(ei.value)


class TestExpressions:
    def test_int(self):
        assert ty("1 + 2") == (INT, False)

    def test_annotated_identity(self):
        t, eff = ty("fun x : node -> x")
        assert t == TFun(NODE, False, NODE) and not eff

    def test_let_propagates_bound_type(self):
        assert ty("let x = [#a] in len(x)") == (INT, False)

    def test_unannotated_application_is_let(self):
        # indistinguishable from a let binding, so it types as one
        assert ty("(fun x -> x) 1") == (INT, False)

    def test_annotation_required_outside_let(self):
        msg = err_of("let f = fun x -> x in f 1")
        assert "annotation" in msg

    def test_claim_strips_future(self):
        assert ty("claim (add 1)") == (KEY, True)

    def test_emission_types(self):
        assert ty("add 1")[0] == TFuture(KEY)
        assert ty("map (fun x : node -> x) [#a]")[0] == TFuture(INT)
        assert ty("fold (fun x : node -> fun y : node -> x) node(#_, 0, [])"
                  " [#a]")[0] == TFuture(NODE)

    def test_emission_is_effectful(self):
        assert ty("add 1")[1] is True
        assert ty("1 + 1")[1] is False

    def test_effect_flows_through_let(self):
        assert ty("let k = claim (add 1) in 0")[1] is True

    def test_if0_joins_branches(self):
        assert ty("if0 0 then [#a] else []") == (KL_T, False)
        msg = err_of("if0 0 then 1 else [#a]")
        assert "T-If0" in msg

    def test_if0_effect_any_arm(self):
        assert ty("if0 0 then claim (map (fun x : node -> x) [#a]) else 0")[1]

    def test_node_projections(self):
        assert ty("key(node(#a, 1, []))")[0] == KEY
        assert ty("payload(node(#a, 1, []))")[0] == INT
        assert ty("adj(node(#a, 1, []))")[0] == KL_T

    def test_arith_requires_ints(self):
        assert "T-Arith" in err_of("#a + 1")

    @pytest.mark.parametrize("src", [
        "1 + #b",
        "foreach k in [#a] { 1 + #b }",
        "foreach k in [#a, #b] { k + 1 }",
        "[1 + #b | k in [#a]]",
        "[k + 1 | k in [#a]]",
    ])
    def test_sugar_keeps_diagnostic_position(self, src):
        # foreach and comprehensions expand by substitution, which must
        # carry the operator's position into every instance
        col = src.index("+") + 1
        assert err_of(src).startswith(f"t.cg:1:{col}: T-Arith:")

    def test_fix_unrolls_function_type(self):
        t, _ = ty("fix (fun f : (int -> int) -> fun n : int ->"
                  " if0 n then 0 else f (n - 1))")
        assert t == TFun(INT, False, INT)


class TestPhaseDiscipline:
    def test_map_function_must_not_emit(self):
        msg = err_of("map (fun v : node -> let q = add 9 in v) [#a]")
        assert "T-Map" in msg

    def test_fold_function_must_not_emit(self):
        msg = err_of("fold (fun v : node -> fun acc : node ->"
                     " let q = add 9 in acc) node(#_, 0, []) [#a]")
        assert "T-Fold" in msg

    def test_diagnostic_points_at_inner_emission(self):
        src = ("map (fun v : node ->\n"
               "       let q = add 9 in v)\n"
               "    [#a]")
        msg = err_of(src)
        # the add sits on line 2 column 16
        assert msg.startswith("t.cg:2:16:"), msg

    def test_claim_inside_operation_function_is_fine(self):
        t, eff = ty("let q = queryNode #a in"
                    " mapVal (fun v : node -> payload(v) + payload(claim q))"
                    " [#b]")
        assert t == TFuture(INT) and eff

    def test_pure_function_accepted(self):
        t, _ = ty("map (fun v : node -> node(key(v), payload(v) + 1, adj(v)))"
                  " [#a]")
        assert t == TFuture(INT)


class TestConfigTyping:
    def test_initial_config_types(self):
        prog = parse_source("graph [#a : 1 [#b], #b : 2 []]\n"
                            "payload(claim (queryNode #a))", "t.cg")
        ct = type_of_config(state.init(prog))
        assert ct.frontend == INT and ct.effect

    def test_preserved_along_a_random_run(self):
        prog = parse_source(
            "graph [#a : 1 [], #b : 2 []]\n"
            "let q = queryNode #a in\n"
            "let r = foldVal commutative"
            " (fun v : node -> fun acc : int -> payload(v) + acc) 0 [#a, #b] in\n"
            "payload(claim r) + payload(claim q)", "t.cg")
        config = state.init(prog)
        first = type_of_config(config)
        rng = random.Random(7)
        for _ in range(300):
            if state.is_terminal(config):
                break
            redexes = enumerate_redexes(config)
            if not redexes:
                break
            config, _, _ = apply_redex(config,
                                       redexes[rng.randrange(len(redexes))])
            ct = type_of_config(config)
            assert ct.frontend == first.frontend

    def test_terminal_stays_typed(self, run_cg):
        r = run_cg("graph [#a : 5 []]\npayload(claim (queryNode #a))")
        assert r.status == "terminal"
        ct = type_of_config(r.config)
        assert ct.frontend == INT and not ct.effect
