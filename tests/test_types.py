"""Static typing of programs and runtime typing of configurations,
including the emission-effect discipline on operation functions."""

import dataclasses
import hashlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from stationflow import engine, harness, state, types
from stationflow.engine import apply_redex, enumerate_redexes
from stationflow.parser import (
    INFIX, SourceError, Token, _check_closed, _Parser, parse_source, tokenize,
)
from stationflow.terms import (
    INT, KEY, KL_T, NODE, AddOp, App, Arith, Claim, FoldOp, If0, Int, Key, KL,
    Label, Lam, MapOp, Node, Proj, TFun, TFuture, Var, children,
)
from stationflow.types import type_of_config, type_of_expr
from conftest import walk
from test_engine import bare


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


def _all_terms(e):
    yield e
    for c in children(e):
        yield from _all_terms(c)


def _typed(config):
    try:
        ct = type_of_config(config)
    except SourceError as ex:
        return str(ex)
    return f"{ct.frontend} {ct.effect}"


class TestKeptTypes:
    """`type_of_config` keeps each term's type with the labels the term
    mentions and their types; a kept type may never hide an error."""

    @staticmethod
    def type_as_unkept_copies_do(configs):
        # typed in the order reached, as a check would, so each reads what
        # the configurations before it kept on the terms, stations and
        # store they share; then each unkept copy, none sharing anything
        kept = [_typed(c) for c in configs]
        assert kept == [_typed(bare(c)) for c in configs]

    def test_walks_type_as_unkept_copies_do(self):
        # the walks `test_typing_is_pinned` records
        walked = [*map(harness.corpus_text, harness.RUNNABLE),
                  *_typing_sources()[-2:]]
        claims = random.Random(14)
        for src in walked:
            for seed in range(2):
                start = state.init(parse_source(src, "m.cg"))
                configs = []
                for ix in itertools.islice(walk(start, seed, True), 120):
                    label = claims.randrange(ix.config.next_label + 1)
                    configs += [ix.config, dataclasses.replace(
                        ix.config, frontend=Claim(Label(label)))]
                self.type_as_unkept_copies_do(configs)

    def test_checked_walks_and_runs_type_as_unkept_copies_do(self, reached):
        # the walks `check_preservation_progress(2000)` takes, without
        # rewrites, then every configuration eager and det reach
        steps, k = 0, 0
        while steps < 2000:
            name = harness.RUNNABLE[k % len(harness.RUNNABLE)]
            config = state.init(parse_source(harness.corpus_text(name),
                                             f"{name}.cg"))
            configs = [ix.config for ix in walk(config, 1000 + k,
                                                tlo_on=False)]
            self.type_as_unkept_copies_do(configs)
            steps, k = steps + len(configs) - 1, k + 1
        seen = reached(lambda ix: None)
        for name in harness.RUNNABLE:
            prog = parse_source(harness.corpus_text(name), f"{name}.cg")
            for scheduler in ("eager", "det"):
                seen.clear()
                r = engine.run(state.init(prog), scheduler=scheduler)
                assert r.status == "terminal" and len(seen) == r.steps + 1
                self.type_as_unkept_copies_do(seen)

    def configs(self, frontend):
        # label 0 a future[int] in the store, then a future[node] in the
        # top stream
        fold = FoldOp(Lam("x", NODE, Lam("y", NODE, Var("x"))),
                      Node(Key("a"), Int(1), KL(())), KL(()))
        stored = ((0, state.StoreEntry(Int(5), ())),)
        return (state.Configuration((), (), stored, frontend, next_label=1),
                state.Configuration((), (state.singleton(0, fold),), (),
                                    frontend, next_label=1))

    def test_a_kept_type_is_not_read_under_another_label_type(self):
        term = Arith("+", Claim(Label(0)), Int(1))
        as_int, as_node = self.configs(term)
        assert _typed(as_int) == "int False"
        assert "_ty" in term.__dict__
        assert _typed(as_node) == _typed(bare(as_node)) == (
            "<config>:0:0: T-Arith: '+' applied to node and int")
        # and the other way round, a term first typed under another binding
        term = Proj(2, Claim(Label(0)))
        as_int, as_node = self.configs(term)
        assert _typed(as_node) == "int False"
        assert _typed(as_int) == _typed(bare(as_int)) == (
            "<config>:0:0: T-ENode2: projection argument has type int,"
            " expected node")

    def test_a_body_is_not_read_under_another_binding(self):
        # one body, bound first to an int and then to a node: kept with the
        # type of its free name, it is typed again under the other
        body = If0(Int(0), Var("x"), Var("x"))
        as_int, as_node = (
            state.Configuration((), (), (), App(Lam("x", None, body), bound))
            for bound in (Int(5), Node(Key("a"), Int(1), KL(()))))
        assert _typed(as_int) == "int False"
        assert "_ty" in body.__dict__
        assert _typed(as_node) == _typed(bare(as_node)) == "node False"
        wrong = App(Lam("x", None, Arith("+", body, Int(1))),
                    Node(Key("a"), Int(1), KL(())))
        assert _typed(dataclasses.replace(as_int, frontend=wrong)) == (
            "<config>:0:0: T-Arith: '+' applied to node and int")

    @staticmethod
    def station_configs(station):
        # `station` under label 0 stored as an int, then as a node
        return [state.Configuration((station,), (), ((0, state.StoreEntry(
            value, ())),), Int(0), next_label=2)
            for value in (Int(5), Node(Key("b"), Int(1), KL(())))]

    def test_a_kept_station_is_not_read_after_a_label_changes_type(self):
        # the node's payload reads label 0: an int one way, a node's
        # payload the other
        payload = If0(Int(0), Claim(Label(0)), Int(1))
        station = state.Station(Node(Key("a"), payload, KL(())))
        as_int, as_node = self.station_configs(station)
        assert _typed(as_int) == "int False"
        assert "_ty" in station.__dict__
        assert _typed(as_node) == _typed(bare(as_node)) == (
            "<config>:0:0: T-If0: branches disagree: node versus int")

    def test_a_station_whose_unit_turns_ill_typed_raises_as_bare(self):
        # a map function that returns what label 0 holds: a node is a map
        # function, an int is not
        fn = Lam("n", NODE, Claim(Label(0)))
        station = state.Station(Node(Key("a"), Int(1), KL(())), (
            state.singleton(1, MapOp(fn, KL((Key("a"),)))),))
        as_int, as_node = self.station_configs(station)
        assert _typed(as_node) == "int False"
        assert "_ty" in station.__dict__
        assert _typed(as_int) == _typed(bare(as_int)) == (
            "<config>:0:0: RT-StreamUnit: map function in a station streamlet"
            " has type (node -> int), expected (node -> node)")
        # and the station is read again where the label has its old type,
        # with its labels claimed against the older zones
        assert _typed(as_node) == "int False"
        clash = dataclasses.replace(as_node, store=(
            *as_node.store, (1, state.StoreEntry(Int(0), ()))))
        assert _typed(clash) == _typed(bare(clash)) == (
            "<config>:0:0: RT-Configuration: label %1 appears in both a"
            " streamlet and an older zone")

    def test_a_failure_is_not_kept_and_a_type_is_read_again(self, monkeypatch):
        term = Arith("+", Claim(Label(0)), Int(1))
        as_int, as_node = self.configs(term)
        assert _typed(as_node).endswith("'+' applied to node and int")
        assert "_ty" not in term.__dict__
        assert _typed(as_int) == "int False"
        calls = []
        ty = types._ty
        monkeypatch.setattr(types, "_ty", lambda *a: calls.append(a) or ty(*a))
        assert _typed(as_int) == "int False" and not calls

    def test_type_of_expr_keeps_nothing(self):
        for src in _typing_sources():
            prog = parse_source(src, "m.cg")
            try:
                type_of_expr(prog.expr, file="m.cg")
            except SourceError:  # the rejected corpus program
                pass
            assert not any("_ty" in e.__dict__ for e in _all_terms(prog.expr))


# sha256 over `type_of_expr`'s result or diagnostic for every corpus program,
# small benchmark programs and token-level mutations of them, and over
# `type_of_config`'s result or diagnostic at each configuration of seeded
# walks with rewrites on, also with the frontend swapped for a claim of a
# drawn label; a change to a type rule or to a diagnostic's wording or position
# updates it on purpose and says so
GOLDEN_TYPING = (
    "cf227c55fe2e426fa938eb329a8c1d76e6eebe17a29cf73a96d7c302f12989fb")


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
            start = state.init(parse_source(src, "m.cg"))
            for ix in itertools.islice(walk(start, seed, True), 120):
                record(config_type, ix.config)
                label = claims.randrange(ix.config.next_label + 1)
                record(config_type, dataclasses.replace(
                    ix.config, frontend=Claim(Label(label))))
    assert h.hexdigest() == GOLDEN_TYPING
