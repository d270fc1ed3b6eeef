"""Static typing of programs and runtime typing of configurations,
including the emission-effect discipline on operation functions."""

import dataclasses
import hashlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from stationflow import engine, harness, state
from stationflow.engine import apply_redex, enumerate_redexes
from stationflow.parser import (
    INFIX, SourceError, Token, _check_closed, _Parser, parse_source, tokenize,
)
from stationflow.terms import (
    INT, KEY, KL_T, NODE, AddOp, Claim, FoldOp, Int, Key, KL, Label, Lam,
    MapOp, Node, TFun, TFuture, Var,
)
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

    @pytest.mark.parametrize("op, rule", [
        ("mapVal (fun n: node -> n) [#a]", "T-Node"),
        ("foldVal (fun n: node -> fun acc: int -> n) 0 [#a]", "T-Node"),
        ("updatePayload #a 5", "T-ENode2"),
    ])
    def test_sugared_form_reports_its_keyword(self, op, rule):
        # the error lies in a term the desugaring built, not in an argument
        src = "graph [ #a: 1 [] ]\nlet k = 0 in\n  " + op
        assert err_of(src).startswith(f"t.cg:3:3: {rule}:")

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

    # a label may be bound once in the whole configuration
    @pytest.mark.parametrize("store, streamlet, top, msg", [
        ((), (), (state.Unit(((0, AddOp(Int(1))), (0, AddOp(Int(2))))),),
         "label %0 appears in both the top stream"),
        (((3, state.StoreEntry(Int(5), ())),),
         (state.singleton(3, MapOp(Lam("x", NODE, Var("x")), KL(()))),), (),
         "label %3 appears in both a streamlet"),
        ((), (), tuple(state.singleton(i, AddOp(Int(i))) for i in (1, 2, 1)),
         "label %1 appears in both the top stream"),
    ], ids=["one-unit", "store-and-streamlet", "top-stream"])
    def test_repeated_label(self, store, streamlet, top, msg):
        station = state.Station(Node(Key("a"), Int(1), KL(())), streamlet)
        config = state.Configuration((station,), top, store, Int(0))
        with pytest.raises(SourceError) as ei:
            type_of_config(config)
        assert str(ei.value) == (f"<config>:0:0: RT-Configuration: {msg}"
                                 " and an older zone")


class TestOperationDiagnostics:
    """The full text of every operation diagnostic, one case per emit rule
    and argument role, statically and in a configuration's streams."""

    @pytest.mark.parametrize("src, msg", [
        ("add #a",
         "t.cg:1:5: T-Add: add takes an int payload, got key"),
        ("add (claim (add 1))",
         "t.cg:1:6: T-Add: add takes an int payload, got key"),
        ("map (fun x : int -> x) [#a]",
         "t.cg:1:6: T-Map: map function has type (int -> int),"
         " expected (node -> node)"),
        ("map 1 [#a]",
         "t.cg:1:5: T-Map: map function has type int, expected (node -> node)"),
        # the function is checked before the target is typed
        ("map (fun x : int -> x) (1 + #a)",
         "t.cg:1:6: T-Map: map function has type (int -> int),"
         " expected (node -> node)"),
        ("map (fun v : node -> let q = add 9 in v) [#a]",
         "t.cg:1:30: T-Map: map function may emit;"
         " graph operations must be emission-free"),
        ("map (fun x : int -> let q = add 9 in x) [#a]",
         "t.cg:1:6: T-Map: map function has type (int ->! int),"
         " expected (node -> node)"),
        # no emit inside the argument itself: the argument's position
        ("let g = fun v : node -> let q = add 9 in v in map g [#a]",
         "t.cg:1:51: T-Map: map function may emit;"
         " graph operations must be emission-free"),
        ("map (fun x : node -> x) 1",
         "t.cg:1:25: T-Map: map target has type int, expected kl"),
        ("fold (fun x : node -> x) node(#_, 0, []) [#a]",
         "t.cg:1:7: T-Fold: fold function has type (node -> node),"
         " expected (node -> (node -> node))"),
        ("fold (fun v : node -> let q = add 9 in fun acc : node -> acc)"
         " node(#_, 0, []) [#a]",
         "t.cg:1:31: T-Fold: fold function may emit;"
         " graph operations must be emission-free"),
        ("fold (fun v : node -> fun acc : node -> let q = add 9 in acc)"
         " node(#_, 0, []) [#a]",
         "t.cg:1:49: T-Fold: fold function may emit;"
         " graph operations must be emission-free"),
        ("fold (fun v : node -> let p = add 8 in"
         " fun acc : node -> let q = add 9 in acc) node(#_, 0, []) [#a]",
         "t.cg:1:31: T-Fold: fold function may emit;"
         " graph operations must be emission-free"),
        ("fold (fun v : node -> let q = add 9 in v) node(#_, 0, []) [#a]",
         "t.cg:1:7: T-Fold: fold function has type (node ->! node),"
         " expected (node -> (node -> node))"),
        ("fold (fun x : node -> fun y : node -> x) 1 [#a]",
         "t.cg:1:42: T-Fold: fold base has type int, expected node"),
        ("fold (fun x : node -> fun y : node -> x) node(#_, 0, []) 1",
         "t.cg:1:58: T-Fold: fold target has type int, expected kl"),
    ])
    def test_emit_rules(self, src, msg):
        assert err_of(src) == msg

    GOOD = {AddOp: ["1"],
            MapOp: ["fun x : node -> x", "[#a]"],
            FoldOp: ["fun x : node -> fun y : node -> x", "node(#_, 0, [])",
                     "[#a]"]}
    EMITS = "claim (add 1); "

    @staticmethod
    def config_error(op, in_station):
        node = Node(Key("a"), Int(1), KL(()))
        unit = state.singleton(0, op)
        if in_station:
            config = state.Configuration((state.Station(node, (unit,)),),
                                         (), (), Int(0))
        else:
            config = state.Configuration((state.Station(node),), (unit,), (),
                                         Int(0))
        with pytest.raises(SourceError) as ei:
            type_of_config(config)
        return str(ei.value)

    @pytest.mark.parametrize("in_station", [False, True])
    @pytest.mark.parametrize("kind, i, role, bad, has_type", [
        (AddOp, 0, "add payload", "#a", "key, expected int"),
        (MapOp, 0, "map function", "fun x : int -> x",
         "(int -> int), expected (node -> node)"),
        (MapOp, 1, "map target", "1", "int, expected kl"),
        (FoldOp, 0, "fold function", "fun x : node -> x",
         "(node -> node), expected (node -> (node -> node))"),
        (FoldOp, 1, "fold base", "1", "int, expected node"),
        (FoldOp, 2, "fold target", "1", "int, expected kl"),
    ])
    def test_stream_units(self, in_station, kind, i, role, bad, has_type):
        where = "a station streamlet" if in_station else "the top stream"
        for arg, pos, msg in (
                (bad, "1:1", f"{role} in {where} has type {has_type}"),
                (self.EMITS + self.GOOD[kind][i], "1:14",
                 f"{role} in {where} may emit")):
            args = [parse_source(a, "t.cg").expr for a in self.GOOD[kind]]
            args[i] = parse_source(arg, "t.cg").expr
            text = self.config_error(kind(*args), in_station)
            if kind is AddOp and in_station:
                assert text == ("<config>:0:0: RT-Stream: add operation"
                                " found inside a station streamlet")
            else:
                assert text == f"<config>:{pos}: RT-StreamUnit: {msg}"


# sha256 over `type_of_expr`'s result or diagnostic for every corpus program,
# small benchmark programs and token-level mutations of them, and over
# `type_of_config`'s result or diagnostic at each configuration of seeded
# walks with rewrites on, also with the frontend swapped for a claim of a
# drawn label; a change to a type rule or to a diagnostic's wording or position
# updates it on purpose and says so
GOLDEN_TYPING = (
    "adc272cb100059a44c609292c09560e3877e6f8496c07f6413f75d9769c0c23e")


def _typing_sources():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import programs
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = dont_write
    sources = [harness.corpus_text(n)
               for n in harness.RUNNABLE + harness.REJECTED]
    sources += [programs.scale_program(4, 2, random.Random(0)).source,
                programs.mix_program(4, 1, random.Random(1)).source]
    return sources


def _mutations(sources, rng, count):
    """`count` programs that parse, each from one source's tokens with one
    token deleted, doubled, swapped with the next or replaced by a token of
    its class in any source: operands, infix operators, keywords."""
    streams = [tokenize(s, "m.cg") for s in sources]

    def kind(k):
        return ("operand" if k in ("INT", "KEYLIT", "IDENT")
                else "infix" if k in INFIX else k)

    vocab: dict[str, list] = {}
    for k, text in sorted({(t.kind, t.text) for toks in streams for t in toks}):
        vocab.setdefault(kind(k), []).append((k, text))
    made = 0
    while made < count:
        toks = list(rng.choice(streams))
        i = rng.randrange(len(toks) - 1)  # never the end-of-input token
        how = rng.randrange(4)
        if how == 0:
            del toks[i]
        elif how == 1:
            toks.insert(i, toks[i])
        elif how == 2:
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        else:
            t = toks[i]
            toks[i] = Token(*rng.choice(vocab[kind(t.kind)]), t.line, t.col)
        try:
            # the parser behind `parse_source`, on the tokens directly
            prog = _Parser(toks, "m.cg").program()
            _check_closed(prog.expr, "m.cg")
        except SourceError:
            continue
        made += 1
        yield prog


def test_typing_is_pinned():
    h = hashlib.sha256()

    def record(typed, *args):
        try:
            text = str(typed(*args))
        except SourceError as ex:
            text = str(ex)
        h.update(text.encode() + b"\n")

    def expr_type(prog):
        t, eff = type_of_expr(prog.expr, file="m.cg")
        return f"{t} {eff}"

    def config_type(config):
        ct = type_of_config(config)
        return f"{ct.frontend} {ct.effect}"

    sources = _typing_sources()
    for src in sources:
        record(expr_type, parse_source(src, "m.cg"))
    for prog in _mutations(sources, random.Random(13), 3000):
        record(expr_type, prog)
    walked = [*map(harness.corpus_text, harness.RUNNABLE), *sources[-2:]]
    claims = random.Random(14)
    for src in walked:
        for seed in range(2):
            walk = harness._walk(state.init(parse_source(src, "m.cg")),
                                 random.Random(seed), tlo_on=True)
            for config, _, _ in itertools.islice(walk, 120):
                record(config_type, config)
                label = claims.randrange(config.next_label + 1)
                record(config_type, dataclasses.replace(
                    config, frontend=Claim(Label(label))))
    assert h.hexdigest() == GOLDEN_TYPING
