"""Surface syntax: lexing, parsing, desugaring, the pretty printer
round trip, and source error positions."""

import hashlib
from pathlib import Path

import pytest

from stationflow import parser
from stationflow.parser import SourceError, parse_source, to_source as pretty
from stationflow.terms import (
    NODE, AddOp, App, Arith, Claim, Concat, Emit, FoldOp, HOLE_KEY, Int, Key,
    KL, Lam, MapOp, Node, Proj, Var, alpha_equiv, free_vars,
)

CORPUS_FILES = sorted((Path(parser.__file__).parent / "corpus").glob("*.cg"))


def parse1(text):
    return parse_source(text, "t.cg").expr


def err_of(text):
    with pytest.raises(SourceError) as ei:
        parse_source(text, "t.cg")
    return str(ei.value)


class TestBasics:
    def test_let_is_application(self):
        e = parse1("let x = 1 in x + x")
        assert free_vars(e) == frozenset()

    def test_comments_and_layout(self):
        e = parse1("-- leading\n1 + 2  -- trailing\n")
        assert e is not None

    def test_key_literals(self):
        assert parse1("#amy") == Key("amy")

    def test_hole_key_parses_as_expression(self):
        assert parse1("#_") == HOLE_KEY

    def test_precedence(self):
        from stationflow.terms import Arith
        assert parse1("1 + 2 * 3") == Arith("+", Int(1),
                                            Arith("*", Int(2), Int(3)))

    def test_infix_operators_associate_left(self):
        from stationflow.terms import Subtract
        assert parse1("8 / 4 * 2 - 1 - 3") == Arith(
            "-", Arith("-", Arith("*", Arith("/", Int(8), Int(4)), Int(2)),
                       Int(1)), Int(3))
        a, b, c = (KL((Key(k),)) for k in "abc")
        assert parse1("[#a] ++ [#b] \\\\ [#c]") == Subtract(Concat(a, b), c)

    def test_non_ascii_digits(self):
        # literals take every decimal digit `int` reads; names take any
        # digit after their first character
        assert parse1("٣١ + 1") == Arith("+", Int(31), Int(1))
        assert alpha_equiv(parse1("let x² = 1 in x²"),
                           parse1("let x = 1 in x"))

    def test_foreach_unrolls(self):
        e = parse1("foreach k in [#a, #b] { add 1 }")
        # two emissions sequenced; both must appear in the tree
        emits = []

        def walk(x):
            if isinstance(x, Emit):
                emits.append(x)
            for f in getattr(x, "__dataclass_fields__", {}):
                v = getattr(x, f)
                if hasattr(v, "__dataclass_fields__"):
                    walk(v)
        walk(e)
        assert len(emits) == 2

    def test_comprehension_unrolls(self):
        e = parse1("[k | k in [#a, #b]]")
        assert e == KL((Key("a"), Key("b")))


class TestGraphPreamble:
    def test_stations_in_declaration_order(self):
        p = parse_source("graph [#a : 1 [], #b : 2 [#a]]\n0", "t.cg")
        assert [d.key for d in p.graph] == ["a", "b"]

    def test_duplicate_station_rejected(self):
        msg = err_of("graph [#a : 1 [], #a : 2 []]\n0")
        assert "duplicate" in msg

    def test_hole_station_rejected(self):
        msg = err_of("graph [#_ : 1 []]\n0")
        assert "#_" in msg or "hole" in msg


class TestDesugar:
    def test_query_node_shape(self):
        e = parse1("queryNode #a")
        assert isinstance(e, Emit) and isinstance(e.op, FoldOp)
        assert e.op.base == Node(HOLE_KEY, Int(0), KL(()))
        assert e.op.ks == KL((Key("a"),))

    def test_query_fn_keeps_visited(self):
        e = parse1("queryNode #a")
        fn = e.op.fn
        assert isinstance(fn, Lam) and isinstance(fn.body, Lam)
        assert fn.body.body == Var(fn.param)

    def test_update_payload_takes_payload_of_node(self):
        e = parse1("updatePayload #a node(#z, 9, [])")
        assert isinstance(e.op, MapOp)
        body = e.op.fn.body
        assert isinstance(body, Node)
        assert body.payload == Proj(2, Node(Key("z"), Int(9), KL(())))
        assert isinstance(body.key, Proj) and body.key.index == 1

    def test_add_relationship_appends(self):
        from stationflow.terms import Concat
        e = parse1("addRelationship #a #b")
        body = e.op.fn.body
        assert isinstance(body.adj, Concat)

    def test_delete_relationship_subtracts(self):
        from stationflow.terms import Subtract
        e = parse1("deleteRelationship #a #b")
        assert isinstance(e.op.fn.body.adj, Subtract)

    def test_foldval_commutative_marks_outer_lambda(self):
        e = parse1("foldVal commutative (fun a : int -> fun b : int -> a + b)"
                   " 0 [#a]")
        assert isinstance(e.op, FoldOp) and e.op.fn.commutative

    def test_plain_foldval_unmarked(self):
        e = parse1("foldVal (fun a : int -> fun b : int -> a + b) 0 [#a]")
        assert not e.op.fn.commutative

    def test_desugar_avoids_capture(self):
        # the user variable x must not collide with the generated binder
        e = parse1("fun x : key -> updatePayload x 1")
        op = e.body.op
        assert isinstance(op, MapOp)
        assert "x" not in free_vars(op.fn)


class TestErrors:
    def test_position_format(self):
        msg = err_of("let x = in x")
        assert msg.startswith("t.cg:1:")

    def test_unbound_variable(self):
        msg = err_of("x + 1")
        assert "unbound" in msg and "x" in msg

    # a `let` is `App(Lam(body), bound)`: the name reported is the one
    # first in the source, not the first the term's children reach
    @pytest.mark.parametrize("text, col", [
        ("let a = y in z", 9),
        ("let a = 1 in let b = y in z", 22),
        ("(fun x : int -> z) y", 17),
    ])
    def test_first_unbound_name_in_source(self, text, col):
        name = text[col - 1]
        assert err_of(text) == (f"t.cg:1:{col}: unbound-name: name {name!r}"
                                " is not in scope")

    def test_a_closed_program_is_not_searched_for_unbound_names(
            self, monkeypatch):
        # its free names, none, are kept on the term and tell it closed
        def refuse(*args):
            raise AssertionError("_first_unbound called")

        monkeypatch.setattr(parser, "_first_unbound", refuse)
        for path in CORPUS_FILES:
            parser.parse_file(path)
        parse1("let a = 1 in fun x : int -> a + x")

    def test_reserved_dollar_names(self):
        msg = err_of("let $z = 1 in $z")
        assert "$" in msg

    def test_generated_key_namespace(self):
        msg = err_of("#@k0")
        assert msg.startswith("t.cg:1:")

    # the lexer has no primes in names and no negative literals
    @pytest.mark.parametrize("text, msg", [
        ("let x' = 1 in x'", "t.cg:1:6: syntax: unexpected character \"'\""),
        ("-5", "t.cg:1:1: syntax: unexpected '-'"),
        # a digit `int` cannot read is no integer literal
        ("\u00b2 + 1", "t.cg:1:1: syntax: unexpected character '\u00b2'"),
    ])
    def test_lexical_rejections(self, text, msg):
        assert err_of(text) == msg

    def test_preamble_must_lead(self):
        msg = err_of("0 ; graph [#a : 1 []]")
        assert "graph" in msg


class TestRoundTrip:
    SNIPPETS = [
        "1 + 2 * 3 - 4 / 5",
        "let x = 1 in x + x",
        "fun x : node -> payload(x)",
        "commutative fun a : int -> fun b : int -> a + b",
        "if0 len([#a] \\\\ [#b]) then 1 else 0",
        "[#a, #b] ++ [#c]",
        "node(#a, 1, [#b])",
        "claim (add 3)",
        "map (fun x : node -> x) [#a]",
        "fold (fun x : node -> fun y : node -> x) node(#_, 0, []) [#a, #b]",
        "queryNode #a",
        "updatePayload #a (1 + 2)",
        "mapVal (fun v : int -> v * 2) [#a]",
        "foldVal commutative (fun v : int -> fun acc : int -> v + acc) 0 [#a]",
        "(fun x : int -> x) 1; 2",
        "fix (fun f : (int -> int) -> fun n : int -> if0 n then 0 else f (n - 1))",
        "fun x : node -> key(x)",
        "fun x : node -> adj(x) ++ [key(x)]",
        "fun a : int -> fun b : int -> fun c : int -> a - (b - c)",
        "fun a : kl -> fun b : kl -> fun c : kl -> a ++ (b \\\\ c)",
        "fun f : (int -> int) -> fun g : ((int -> int) -> int -> int) -> f (fix g)",
        "1 + claim (add 2) * 3",
        "fun f : future[int] -> fun g : (int -> kl -> node) -> g",
        "fun h : (node ->! future[kl]) -> h",
    ]

    @pytest.mark.parametrize("src", SNIPPETS)
    def test_parse_print_parse(self, src):
        one = parse1(src)
        two = parse1(pretty(one))
        assert alpha_equiv(one, two), pretty(one)

    def test_corpus_round_trips(self):
        from stationflow import harness
        for name in harness.RUNNABLE + harness.REJECTED:
            prog = harness.corpus_program(name)
            again = parse1(pretty(prog.expr))
            assert alpha_equiv(prog.expr, again), name

    @pytest.mark.parametrize("op, text", [
        (AddOp(Int(3)), "add 3"),
        (AddOp(Arith("+", Int(1), Int(2))), "add (1 + 2)"),
        (MapOp(Lam("x", NODE, Var("x")), KL((Key("a"),))),
         "map (fun x: node -> x) [#a]"),
        (MapOp(Var("f"), Concat(KL((Key("a"),)), KL(()))),
         "map f ([#a] ++ [])"),
        (FoldOp(Lam("x", NODE, Lam("y", NODE, Var("x"))),
                Node(HOLE_KEY, Int(0), KL(())), KL((Key("a"),))),
         "fold (fun x: node -> fun y: node -> x) node(#_, 0, []) [#a]"),
    ])
    def test_operations(self, op, text):
        assert pretty(Emit(op)) == text
        assert pretty(App(Var("g"), Emit(op))) == f"g ({text})"
        assert pretty(Concat(Emit(op), KL(()))) == f"{text} ++ []"

    def test_label_has_no_surface_form(self):
        from stationflow.terms import Label
        with pytest.raises(ValueError):
            pretty(Label(0))


# printed text of well-formed inputs whose forms the corpus lacks
PRINTED = [
    "fun f : future[int -> kl] -> f",
    "fun f : (int -> int) -> fun g : (node ->! (kl -> int)) -> g",
    "fun f : ((int ->! int) -> future[node]) -> f",
    "fun n : int -> (n - (n - 1)) * (n / (2 + n))",
    "fun a : kl -> a ++ (a \\\\ [#b]) \\\\ a",
    "let f = fun n : int -> n in f (fix f) + claim (add 1) * 2",
    "queryNode (claim (add 0)); [k | k in [#a, #b]]",
]

# malformed inputs, one per way a form can be written wrong
MALFORMED = [
    "node(#a, 1)", "node(#a, 1, [], 2)", "node #a", "node(#a 1, [])",
    "key(#a", "len()", "payload 1", "adj(node(#a, 1, []), 2)",
    "[#a, #b", "[#a, ]", "[x | x in #a]", "[x | x in [#a]",
    "1 +", "[#a] ++", "2 *", "1 - ", "[#a] \\\\", "1 + * 2", "(1", "1 )",
    "claim", "fix", "add", "map (fun x : node -> x)", "foldVal commutative",
    "let x = 1 x", "let = 1 in 2", "if0 1 then 2", "foreach x in [#a] 1",
    "fun -> 1", "fun x : int 1", "commutative 1",
    "fun x : foo -> x", "fun x : future int -> x", "fun x : future[int -> x",
    "fun x : (int -> int -> x", "fun x : int ->! -> x", "fun x : -> x",
    "graph [#a 1 []]\n0", "graph [#a : x []]\n0", "graph #a\n0",
    "graph [#a : 1 [] #b : 2 []]\n0", "graph [#a : 1 [#b #c]]\n0",
    "graph [#a : 1 []\n0", "graph [#a : 1 [#b]\n0", "graph [#a : 1 [1]]\n0",
    "graph [#a : 1 [#_]]\n0", "graph [#a : 1 [], #a : 2 []]\n0",
    "graph [#a : 1 []]", "0 ; graph [#a : 1 []]",
    "let x' = 1 in x'", "-5", "#", "$x", "", "x", "let y = z in y", "1 ; ",
]

# sha256 over the printed text of every corpus program and of PRINTED, and
# over the diagnostic of every MALFORMED input; a change to the printer or
# to a diagnostic's wording or position updates it on purpose and says so
GOLDEN_SURFACE = (
    "f60f7baa46b2d8dbdc8a3607d13204cf109b03f02f7b65faa7fb5a399a0218d1")


def test_printer_and_diagnostics_are_pinned():
    from stationflow import harness
    h = hashlib.sha256()
    for name in harness.RUNNABLE + harness.REJECTED:
        h.update(pretty(harness.corpus_program(name).expr).encode() + b"\n")
    for src in PRINTED:
        h.update(pretty(parse1(src)).encode() + b"\n")
    for src in MALFORMED:
        h.update(err_of(src).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_SURFACE

# sha256 over the kind, text, line and column of every token of every corpus
# file; a change to what the lexer yields updates it on purpose and says so
GOLDEN_TOKENS = (
    "c6e3afd3020b0696d9fdd8143cb4f0164e445835ed4ab98b280ef046fb7bec36")


def test_token_streams_are_pinned():
    h = hashlib.sha256()
    for path in CORPUS_FILES:
        for t in parser.tokenize(path.read_text(encoding="utf-8"), path.name):
            h.update(f"{t.kind}\t{t.text}\t{t.line}\t{t.col}\n".encode())
    assert len(CORPUS_FILES) == 6 and h.hexdigest() == GOLDEN_TOKENS
