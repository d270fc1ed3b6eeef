"""Surface syntax: lexer, recursive-descent parser, desugaring, pretty-printer.

Files use the .cg extension. A program is an optional `graph [...]` preamble
describing the initial backend, followed by one frontend expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    INT, KEY, KL_T, NODE,
    AddOp, App, Arith, Claim, Concat, Emit, Expr, Fix, FoldOp, If0, Int, KL,
    Key, Label, Lam, Len, MapOp, Node, Operation, Proj, Subtract, TFun, TFuture,
    Type, Var, _fresh_name, children, free_vars,
)


class SourceError(Exception):
    """Diagnostic with a stable file:line:col: rule: message rendering."""

    def __init__(self, file: str, line: int, col: int, rule: str, msg: str) -> None:
        self.file = file
        self.line = line
        self.col = col
        self.rule = rule
        self.msg = msg
        super().__init__(str(self))

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.rule}: {self.msg}"


### lexer

KEYWORDS = {
    "let", "in", "fun", "fix", "if0", "then", "else", "foreach",
    "claim", "add", "map", "fold", "mapVal", "foldVal", "queryNode",
    "addRelationship", "deleteRelationship", "updatePayload",
    "commutative", "graph", "node", "key", "payload", "adj", "len",
    "int", "kl", "future",
}

_PUNCT = [
    "->!", "->", "++", "\\\\", "(", ")", "[", "]", "{", "}",
    ",", ":", ";", "|", "+", "-", "*", "/", "=",
]


@dataclass(frozen=True)
class Token:
    kind: str  # INT, IDENT, KEYLIT, KW, punct literal, EOF
    text: str
    line: int
    col: int


def tokenize(src: str, file: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c == "$":
            raise SourceError(file, line, col, "syntax", "names starting with '$' are reserved")
        if c == "#":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            name = src[i + 1:j]
            if not name:
                raise SourceError(file, line, col, "syntax", "'#' must introduce a key literal")
            toks.append(Token("KEYLIT", name, line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("INT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            kind = "KW" if word in KEYWORDS else "IDENT"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise SourceError(file, line, col, "syntax", f"unexpected character {c!r}")
    toks.append(Token("EOF", "", line, col))
    return toks


### parse results

@dataclass(frozen=True)
class StationDecl:
    key: str
    payload: int
    adj: tuple[str, ...]
    loc: tuple[int, int]


@dataclass(frozen=True)
class Program:
    graph: tuple[StationDecl, ...]
    expr: Expr


### parser

class _Parser:
    def __init__(self, toks: list[Token], file: str) -> None:
        self.toks = toks
        self.file = file
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, tok: Token, msg: str) -> SourceError:
        return SourceError(self.file, tok.line, tok.col, "syntax", msg)

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.next()
        if t.kind != kind and not (t.kind == "KW" and t.text == kind):
            raise self.err(t, f"expected {what or kind}, found {t.text!r}" if t.text else
                           f"expected {what or kind}, found end of input")
        return t

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "KW" and t.text == word

    def eat_kw(self, word: str) -> Token:
        t = self.next()
        if not (t.kind == "KW" and t.text == word):
            raise self.err(t, f"expected {word!r}")
        return t

    ### graph preamble

    def program(self) -> Program:
        stations: tuple[StationDecl, ...] = ()
        if self.at_kw("graph"):
            stations = self.graph_block()
        e = self.expr()
        t = self.peek()
        if t.kind != "EOF":
            raise self.err(t, f"trailing input {t.text!r}")
        return Program(stations, e)

    def graph_block(self) -> tuple[StationDecl, ...]:
        self.eat_kw("graph")
        self.expect("[")
        out: list[StationDecl] = []
        if self.peek().kind != "]":
            out.append(self.station_decl())
            while self.peek().kind == ",":
                self.next()
                out.append(self.station_decl())
        self.expect("]")
        return tuple(out)

    def station_decl(self) -> StationDecl:
        k = self.expect("KEYLIT", "a key literal")
        self.expect(":")
        p = self.expect("INT", "an integer payload")
        self.expect("[")
        adj: list[str] = []
        if self.peek().kind != "]":
            adj.append(self.expect("KEYLIT", "a key literal").text)
            while self.peek().kind == ",":
                self.next()
                adj.append(self.expect("KEYLIT", "a key literal").text)
        self.expect("]")
        return StationDecl(k.text, int(p.text), tuple(adj), (k.line, k.col))

    ### expressions, loosest binding first

    def expr(self) -> Expr:
        t = self.peek()
        if t.kind == "KW" and t.text == "let":
            return self.let_expr()
        if t.kind == "KW" and t.text in ("fun", "commutative"):
            return self.fun_expr()
        if t.kind == "KW" and t.text == "if0":
            return self.if_expr()
        if t.kind == "KW" and t.text == "foreach":
            return self.foreach_expr()
        return self.seq_expr()

    def let_expr(self) -> Expr:
        kw = self.eat_kw("let")
        name = self.expect("IDENT", "a name").text
        self.expect("=")
        bound = self.expr()
        self.eat_kw("in")
        body = self.expr()
        return App(Lam(name, None, body), bound, loc=(kw.line, kw.col))

    def fun_expr(self) -> Expr:
        comm = False
        if self.at_kw("commutative"):
            self.next()
            comm = True
        kw = self.eat_kw("fun")
        name = self.expect("IDENT", "a parameter name").text
        ptype: Type | None = None
        if self.peek().kind == ":":
            self.next()
            ptype = self.type_atom()
        self.expect("->")
        body = self.expr()
        return Lam(name, ptype, body, comm, loc=(kw.line, kw.col))

    def if_expr(self) -> Expr:
        kw = self.eat_kw("if0")
        scrut = self.expr()
        self.eat_kw("then")
        then = self.expr()
        self.eat_kw("else")
        els = self.expr()
        return If0(scrut, then, els, loc=(kw.line, kw.col))

    def foreach_expr(self) -> Expr:
        kw = self.eat_kw("foreach")
        name = self.expect("IDENT", "a name").text
        self.eat_kw("in")
        items = self.literal_list()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        out: Expr | None = None
        for item in items:
            inst = _subst_syntactic(body, item, name)
            out = inst if out is None else App(Lam("_", None, inst), out)
        return Int(0, loc=(kw.line, kw.col)) if out is None else out

    def literal_list(self) -> list[Expr]:
        self.expect("[")
        items: list[Expr] = []
        if self.peek().kind != "]":
            items.append(self.expr())
            while self.peek().kind == ",":
                self.next()
                items.append(self.expr())
        self.expect("]")
        return items

    def seq_expr(self) -> Expr:
        left = self.kl_expr()
        if self.peek().kind == ";":
            t = self.next()
            right = self.expr()
            return App(Lam("_", None, right), left, loc=(t.line, t.col))
        return left

    def kl_expr(self) -> Expr:
        left = self.add_expr()
        while self.peek().kind in ("++", "\\\\"):
            t = self.next()
            right = self.add_expr()
            cls = Concat if t.kind == "++" else Subtract
            left = cls(left, right, loc=(t.line, t.col))
        return left

    def add_expr(self) -> Expr:
        left = self.mul_expr()
        while self.peek().kind in ("+", "-"):
            t = self.next()
            right = self.mul_expr()
            left = Arith(t.kind, left, right, loc=(t.line, t.col))
        return left

    def mul_expr(self) -> Expr:
        left = self.app_expr()
        while self.peek().kind in ("*", "/"):
            t = self.next()
            right = self.app_expr()
            left = Arith(t.kind, left, right, loc=(t.line, t.col))
        return left

    def app_expr(self) -> Expr:
        e = self.prefix_expr()
        while self._starts_prefix():
            arg = self.prefix_expr()
            e = App(e, arg, loc=e.loc)
        return e

    def _starts_prefix(self) -> bool:
        t = self.peek()
        if t.kind in ("INT", "IDENT", "KEYLIT", "(", "["):
            return True
        return t.kind == "KW" and t.text in (
            "claim", "fix", "add", "map", "fold", "mapVal", "foldVal", "queryNode",
            "addRelationship", "deleteRelationship", "updatePayload",
            "node", "key", "payload", "adj", "len",
        )

    def prefix_expr(self) -> Expr:
        t = self.peek()
        if t.kind != "KW":
            return self.atom()
        loc = (t.line, t.col)
        if t.text == "claim":
            self.next()
            return Claim(self.prefix_expr(), loc=loc)
        if t.text == "fix":
            self.next()
            return Fix(self.prefix_expr(), loc=loc)
        if t.text == "add":
            self.next()
            return Emit(AddOp(self.prefix_expr()), loc=loc)
        if t.text == "map":
            self.next()
            fn = self.prefix_expr()
            ks = self.prefix_expr()
            return Emit(MapOp(fn, ks), loc=loc)
        if t.text == "fold":
            self.next()
            fn = self.prefix_expr()
            base = self.prefix_expr()
            ks = self.prefix_expr()
            return Emit(FoldOp(fn, base, ks), loc=loc)
        if t.text in ("mapVal", "foldVal", "queryNode", "addRelationship",
                      "deleteRelationship", "updatePayload"):
            return self.graph_op()
        return self.atom()

    def graph_op(self) -> Expr:
        t = self.next()
        loc = (t.line, t.col)
        name = t.text
        comm = False
        if name == "foldVal" and self.at_kw("commutative"):
            self.next()
            comm = True
        arity = {"mapVal": 2, "foldVal": 3, "queryNode": 1, "addRelationship": 2,
                 "deleteRelationship": 2, "updatePayload": 2}[name]
        args = [self.prefix_expr() for _ in range(arity)]
        return Emit(desugar_graph_op(name, args, commutative=comm), loc=loc)

    def atom(self) -> Expr:
        t = self.next()
        loc = (t.line, t.col)
        if t.kind == "INT":
            return Int(int(t.text), loc=loc)
        if t.kind == "IDENT":
            return Var(t.text, loc=loc)
        if t.kind == "KEYLIT":
            return Key(t.text, loc=loc)
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "[":
            return self.bracket_rest(loc)
        if t.kind == "KW":
            if t.text == "node":
                self.expect("(")
                a = self.expr()
                self.expect(",")
                b = self.expr()
                self.expect(",")
                c = self.expr()
                self.expect(")")
                return Node(a, b, c, loc=loc)
            if t.text in ("key", "payload", "adj"):
                idx = {"key": 1, "payload": 2, "adj": 3}[t.text]
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return Proj(idx, e, loc=loc)
            if t.text == "len":
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return Len(e, loc=loc)
        raise self.err(t, f"unexpected {t.text!r}" if t.text else "unexpected end of input")

    def bracket_rest(self, loc: tuple[int, int]) -> Expr:
        # called just past "["; either a list literal or a comprehension
        if self.peek().kind == "]":
            self.next()
            return KL((), loc=loc)
        first = self.expr()
        if self.peek().kind == "|":
            self.next()
            name = self.expect("IDENT", "a name").text
            self.eat_kw("in")
            items = self.literal_list()
            self.expect("]")
            return KL(tuple(_subst_syntactic(first, i, name) for i in items), loc=loc)
        items = [first]
        while self.peek().kind == ",":
            self.next()
            items.append(self.expr())
        self.expect("]")
        return KL(tuple(items), loc=loc)

    ### types

    def type_atom(self) -> Type:
        t = self.next()
        if t.kind == "KW" and t.text == "int":
            return INT
        if t.kind == "KW" and t.text == "key":
            return KEY
        if t.kind == "KW" and t.text == "kl":
            return KL_T
        if t.kind == "KW" and t.text == "node":
            return NODE
        if t.kind == "KW" and t.text == "future":
            self.expect("[")
            inner = self.type_full()
            self.expect("]")
            return TFuture(inner)
        if t.kind == "(":
            ty = self.type_full()
            self.expect(")")
            return ty
        raise self.err(t, f"expected a type, found {t.text!r}")

    def type_full(self) -> Type:
        left = self.type_atom()
        t = self.peek()
        if t.kind in ("->", "->!"):
            self.next()
            right = self.type_full()
            return TFun(left, t.kind == "->!", right)
        return left


def _subst_syntactic(e: Expr, item: Expr, name: str) -> Expr:
    # foreach/comprehension instantiation; item is surface syntax, not a value
    from .terms import substitute
    return substitute(e, item, name)


### desugaring of the graph-operation forms

def desugar_graph_op(name: str, args: list[Expr], commutative: bool = False) -> Operation:
    """Expand a surface graph operation to its core map/fold encoding."""
    avoid = frozenset()
    for a in args:
        avoid |= free_vars(a)
    x = "x" if "x" not in avoid else _fresh_name("x", avoid)
    y = "y" if "y" not in avoid and x != "y" else _fresh_name("y", avoid | {x})
    vx = Var(x)
    if name == "addRelationship":
        e, e2 = args
        fn = Lam(x, NODE, Node(Proj(1, vx), Proj(2, vx), Concat(Proj(3, vx), KL((e2,)))))
        return MapOp(fn, KL((e,)))
    if name == "deleteRelationship":
        e, e2 = args
        fn = Lam(x, NODE, Node(Proj(1, vx), Proj(2, vx), Subtract(Proj(3, vx), KL((e2,)))))
        return MapOp(fn, KL((e,)))
    if name == "updatePayload":
        e, e2 = args
        fn = Lam(x, NODE, Node(Proj(1, vx), Proj(2, e2), Proj(3, vx)))
        return MapOp(fn, KL((e,)))
    if name == "queryNode":
        (e,) = args
        fn = Lam(x, NODE, Lam(y, NODE, vx))
        return FoldOp(fn, Node(Key("_"), Int(0), KL(())), KL((e,)))
    if name == "mapVal":
        e, e2 = args
        fn = Lam(x, NODE, Node(Proj(1, vx), App(e, vx), Proj(3, vx)))
        return MapOp(fn, e2)
    if name == "foldVal":
        e, e2, e3 = args
        vy = Var(y)
        fn = Lam(x, NODE,
                 Lam(y, NODE, Node(Proj(1, vy), App(App(e, vx), Proj(2, vy)), Proj(3, vy))),
                 commutative)
        return FoldOp(fn, Node(Key("_"), e2, KL(())), e3)
    raise ValueError(f"unknown surface operation {name!r}")


### entry points

def parse_source(text: str, file: str = "<string>") -> Program:
    """Parse a .cg program: optional graph preamble plus one closed expression."""
    p = _Parser(tokenize(text, file), file)
    prog = p.program()
    _check_closed(prog.expr, file)
    seen: set[str] = set()
    for st in prog.graph:
        if st.key == "_" or "_" in st.adj:
            raise SourceError(file, st.loc[0], st.loc[1], "syntax",
                              "'#_' is the placeholder key and cannot name a station")
        if st.key in seen:
            raise SourceError(file, st.loc[0], st.loc[1], "duplicate-key",
                              f"station key '#{st.key}' declared twice")
        seen.add(st.key)
    return prog


def parse_file(path) -> Program:
    from pathlib import Path
    path = Path(path)
    return parse_source(path.read_text(encoding="utf-8"), str(path))


def _check_closed(e: Expr, file: str) -> None:
    unbound = _first_unbound(e, frozenset())
    if unbound is not None:
        name, loc = unbound
        line, col = loc if loc else (0, 0)
        raise SourceError(file, line, col, "unbound-name", f"name {name!r} is not in scope")


def _first_unbound(e: Expr, bound: frozenset[str]):
    if isinstance(e, Var):
        return None if e.name in bound else (e.name, e.loc)
    if isinstance(e, Lam):
        return _first_unbound(e.body, bound | {e.param})
    for c in children(e):
        bad = _first_unbound(c, bound)
        if bad:
            return bad
    return None


### pretty-printer

def to_source(e: Expr) -> str:
    """Parseable surface text for a label-free term; round-trips through parse."""
    return _pp(e, 0)


# precedence levels: 0 expr, 1 seq, 2 kl, 3 add, 4 mul, 5 app, 6 atom

def _pp(e: Expr, level: int) -> str:
    match e:
        case Var(name):
            return name
        case Int(v):
            return str(v) if v >= 0 else f"(0 - {-v})"
        case Key(name):
            return f"#{name}"
        case Label(i):
            raise ValueError(f"labels have no surface form (label {i})")
        case App(Lam(p, None, body), bound) if p == "_":
            s = f"{_pp(bound, 2)}; {_pp(body, 0)}"
            return s if level <= 1 else f"({s})"
        case App(Lam(p, None, body), bound):
            s = f"let {p} = {_pp(bound, 0)} in {_pp(body, 0)}"
            return s if level == 0 else f"({s})"
        case Lam(p, t, body, comm):
            ann = f": {_pp_type_atom(t)} " if t is not None else ""
            s = f"fun {p}{ann}-> {_pp(body, 0)}"
            if comm:
                s = f"commutative {s}"
            return s if level == 0 else f"({s})"
        case If0(s0, t0, f0):
            s = f"if0 {_pp(s0, 0)} then {_pp(t0, 0)} else {_pp(f0, 0)}"
            return s if level == 0 else f"({s})"
        case App(fn, arg):
            s = f"{_pp(fn, 5)} {_pp(arg, 6)}"
            return s if level <= 5 else f"({s})"
        case Fix(fn):
            s = f"fix {_pp(fn, 6)}"
            return s if level <= 5 else f"({s})"
        case Concat(l, r):
            s = f"{_pp(l, 2)} ++ {_pp(r, 3)}"
            return s if level <= 2 else f"({s})"
        case Subtract(l, r):
            s = f"{_pp(l, 2)} \\\\ {_pp(r, 3)}"
            return s if level <= 2 else f"({s})"
        case Arith(op, l, r):
            if op in "+-":
                s = f"{_pp(l, 3)} {op} {_pp(r, 4)}"
                return s if level <= 3 else f"({s})"
            s = f"{_pp(l, 4)} {op} {_pp(r, 5)}"
            return s if level <= 4 else f"({s})"
        case KL(items):
            return "[" + ", ".join(_pp(i, 0) for i in items) + "]"
        case Node(k, p, a):
            return f"node({_pp(k, 0)}, {_pp(p, 0)}, {_pp(a, 0)})"
        case Proj(i, arg):
            kw = {1: "key", 2: "payload", 3: "adj"}[i]
            return f"{kw}({_pp(arg, 0)})"
        case Len(arg):
            return f"len({_pp(arg, 0)})"
        case Claim(arg):
            s = f"claim {_pp(arg, 6)}"
            return s if level <= 5 else f"({s})"
        case Emit(op):
            return _pp_emit(op, level)
    raise TypeError(e)


def _pp_emit(op: Operation, level: int) -> str:
    match op:
        case AddOp(arg):
            s = f"add {_pp(arg, 6)}"
        case MapOp(fn, ks):
            s = f"map {_pp(fn, 6)} {_pp(ks, 6)}"
        case FoldOp(fn, base, ks):
            s = f"fold {_pp(fn, 6)} {_pp(base, 6)} {_pp(ks, 6)}"
        case _:
            raise TypeError(op)
    return s if level <= 5 else f"({s})"


def _pp_type_atom(t: Type) -> str:
    if isinstance(t, TFun):
        arrow = "->!" if t.eff else "->"
        return f"({_pp_type_atom(t.param)} {arrow} {_pp_type_rhs(t.result)})"
    if isinstance(t, TFuture):
        return f"future[{_pp_type_rhs(t.inner)}]"
    return str(t)


def _pp_type_rhs(t: Type) -> str:
    if isinstance(t, TFun):
        arrow = "->!" if t.eff else "->"
        return f"{_pp_type_atom(t.param)} {arrow} {_pp_type_rhs(t.result)}"
    return _pp_type_atom(t)
