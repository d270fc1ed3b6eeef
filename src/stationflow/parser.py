"""Surface syntax: lexer, recursive-descent parser, desugaring, pretty-printer.

Files use the .cg extension. A program is an optional `graph [...]` preamble
describing the initial backend, followed by one frontend expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .terms import (
    INT, KEY, KL_T, NODE, OPERATIONS,
    App, Arith, Claim, Concat, Emit, Expr, Fix, FoldOp, If0, Int, KL, Key,
    Label, Lam, Len, MapOp, Node, Operation, Proj, Subtract, TFun, TFuture,
    Type, Var, children, free_vars, fresh_names, op_args, substitute,
    with_children,
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


### surface forms

# Each table below holds a form as a term of it with blank (`None`)
# subterms.  The parser builds a term through its form (`_build`), and the
# printer finds a term's form by blanking its subterms (`_shape`).

# infix operator -> (binding level, form); all associate to the left
INFIX = {
    "++": (2, Concat(None, None)), "\\\\": (2, Subtract(None, None)),
    "+": (3, Arith("+", None, None)), "-": (3, Arith("-", None, None)),
    "*": (4, Arith("*", None, None)), "/": (4, Arith("/", None, None)),
}

# keyword -> form whose arguments follow as operands
PREFIX = {
    "claim": Claim(None), "fix": Fix(None),
    **{kind.keyword: Emit(cls(*(None for _ in kind.args)))
       for cls, kind in OPERATIONS.items()},
}

# keyword -> form whose arguments follow in parentheses
CALLS = {
    "node": Node(None, None, None), "key": Proj(1, None),
    "payload": Proj(2, None), "adj": Proj(3, None), "len": Len(None),
}

# keyword -> base type
BASE_TYPES = {str(t): t for t in (INT, KEY, KL_T, NODE)}


def _shape(e: Expr) -> Expr:
    """The form of `e`: `e` with its subterms blank."""
    return with_children(e, (None,) * len(children(e)))


def _build(form: Expr, args, tok: Token) -> Expr:
    """A term of `form` around `args`, at the position of `tok`."""
    e = with_children(form, args)
    # the term is new and in no other term yet, so its position is set in place
    object.__setattr__(e, "loc", (tok.line, tok.col))
    return e


### desugaring of the graph-operation forms

# surface graph operation -> (arity, builder): the builder makes the core
# map or fold from the variables `x` and `y` its functions bind, the
# `commutative` mark and the arguments
GRAPH_OPS = {
    "addRelationship": (2, lambda x, y, comm, e, e2: MapOp(Lam(x.name, NODE, Node(
        Proj(1, x), Proj(2, x), Concat(Proj(3, x), KL((e2,))))), KL((e,)))),
    "deleteRelationship": (2, lambda x, y, comm, e, e2: MapOp(Lam(x.name, NODE, Node(
        Proj(1, x), Proj(2, x), Subtract(Proj(3, x), KL((e2,))))), KL((e,)))),
    "updatePayload": (2, lambda x, y, comm, e, e2: MapOp(Lam(x.name, NODE, Node(
        Proj(1, x), Proj(2, e2), Proj(3, x))), KL((e,)))),
    "queryNode": (1, lambda x, y, comm, e: FoldOp(
        Lam(x.name, NODE, Lam(y.name, NODE, x)),
        Node(Key("_"), Int(0), KL(())), KL((e,)))),
    "mapVal": (2, lambda x, y, comm, e, e2: MapOp(Lam(x.name, NODE, Node(
        Proj(1, x), App(e, x), Proj(3, x))), e2)),
    "foldVal": (3, lambda x, y, comm, e, e2, e3: FoldOp(
        Lam(x.name, NODE, Lam(y.name, NODE, Node(
            Proj(1, y), App(App(e, x), Proj(2, y)), Proj(3, y))), comm),
        Node(Key("_"), e2, KL(())), e3)),
}


def desugar_graph_op(name: str, args: list[Expr], commutative: bool = False,
                     loc: tuple[int, int] | None = None) -> Operation:
    """Expand a surface graph operation to its core map/fold encoding, with
    `loc` on every term the expansion adds around the arguments."""
    x, y = fresh_names(("x", "y"), *args)
    op = GRAPH_OPS[name][1](Var(x), Var(y), commutative, *args)
    parsed = {id(a) for a in args}

    def stamp(e: Expr) -> None:
        # the expansion's terms are new and in no other term yet, so their
        # position is set in place; the arguments keep their own
        if id(e) not in parsed:
            object.__setattr__(e, "loc", loc)
            for c in children(e):
                stamp(c)

    for a in op_args(op):
        stamp(a)
    return op


### lexer

# keywords that begin an operand of application
_OPERAND_KEYWORDS = {*PREFIX, *CALLS, *GRAPH_OPS}

KEYWORDS = {
    "let", "in", "fun", "if0", "then", "else", "foreach", "commutative",
    "graph", "future", *_OPERAND_KEYWORDS, *BASE_TYPES,
}

_PUNCT = [
    "->!", "->", "++", "\\\\", "(", ")", "[", "]", "{", "}",
    ",", ":", ";", "|", "+", "-", "*", "/", "=",
]
# first character -> the punctuation starting with it, longest first
_PUNCT_AT = {p[0]: [q for q in _PUNCT if q[0] == p[0]] for p in _PUNCT}


class Token(NamedTuple):
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
        if c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(Token("INT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        # a key literal is `#` and a name
        if c.isalpha() or c in "_#":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            if word == "#":
                raise SourceError(file, line, col, "syntax", "'#' must introduce a key literal")
            kind = "KEYLIT" if c == "#" else "KW" if word in KEYWORDS else "IDENT"
            toks.append(Token(kind, word.removeprefix("#"), line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT_AT.get(c, ()):
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
    """A station of the `graph` preamble, at the position of its key."""
    key: str
    payload: int
    adj: tuple[str, ...]
    loc: tuple[int, int]


@dataclass(frozen=True)
class Program:
    """A parsed program: its preamble's stations and its expression."""
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

    def integer(self, t: Token) -> int:
        """The value of INT token `t`."""
        try:
            return int(t.text)
        except ValueError:  # more digits than the interpreter converts
            msg = f"integer literal of {len(t.text)} digits is too long"
            raise self.err(t, msg) from None

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.next()
        if t.kind != kind and not (t.kind == "KW" and t.text == kind):
            raise self.err(t, f"expected {what or kind}, found {t.text!r}" if t.text else
                           f"expected {what or kind}, found end of input")
        return t

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "KW" and t.text == word

    def at_kw_in(self, table) -> bool:
        t = self.peek()
        return t.kind == "KW" and t.text in table

    def eat_kw(self, word: str) -> Token:
        t = self.next()
        if not (t.kind == "KW" and t.text == word):
            raise self.err(t, f"expected {word!r}")
        return t

    def comma_list(self, item, first=None) -> list:
        """The `item`s of a list whose `[` is read, through its `]`; `first`
        is its first item if the caller has read that already."""
        if first is None:
            if self.peek().kind == "]":
                self.next()
                return []
            first = item()
        out = [first]
        while self.peek().kind == ",":
            self.next()
            out.append(item())
        self.expect("]")
        return out

    ### graph preamble

    def program(self) -> Program:
        stations: tuple[StationDecl, ...] = ()
        if self.at_kw("graph"):
            self.next()
            self.expect("[")
            stations = tuple(self.comma_list(self.station_decl))
        e = self.expr()
        t = self.peek()
        if t.kind != "EOF":
            raise self.err(t, f"trailing input {t.text!r}")
        return Program(stations, e)

    def station_decl(self) -> StationDecl:
        k = self.expect("KEYLIT", "a key literal")
        self.expect(":")
        p = self.expect("INT", "an integer payload")
        self.expect("[")
        adj = self.comma_list(lambda: self.expect("KEYLIT", "a key literal").text)
        return StationDecl(k.text, self.integer(p), tuple(adj), (k.line, k.col))

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
        comm = self.at_kw("commutative")
        if comm:
            self.next()
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
        self.expect("[")
        items = self.comma_list(self.expr)
        self.expect("{")
        body = self.expr()
        self.expect("}")
        out: Expr | None = None
        for item in items:
            inst = substitute(body, item, name)
            out = inst if out is None else App(Lam("_", None, inst), out)
        return Int(0, loc=(kw.line, kw.col)) if out is None else out

    def seq_expr(self) -> Expr:
        left = self.infix_expr(2)
        if self.peek().kind == ";":
            t = self.next()
            right = self.expr()
            return App(Lam("_", None, right), left, loc=(t.line, t.col))
        return left

    def infix_expr(self, level: int) -> Expr:
        """Applications joined by the infix operators of `level` or tighter."""
        left = self.app_expr()
        while (op := INFIX.get(self.peek().kind)) and op[0] >= level:
            t = self.next()
            right = self.infix_expr(op[0] + 1)
            left = _build(op[1], (left, right), t)
        return left

    def app_expr(self) -> Expr:
        e = self.prefix_expr()
        while self._starts_prefix():
            arg = self.prefix_expr()
            e = App(e, arg, loc=e.loc)
        return e

    def _starts_prefix(self) -> bool:
        return (self.peek().kind in ("INT", "IDENT", "KEYLIT", "(", "[")
                or self.at_kw_in(_OPERAND_KEYWORDS))

    def prefix_expr(self) -> Expr:
        t = self.peek()
        if self.at_kw_in(PREFIX):
            self.next()
            form = PREFIX[t.text]
            return _build(form, [self.prefix_expr() for _ in children(form)], t)
        if self.at_kw_in(GRAPH_OPS):
            self.next()
            comm = t.text == "foldVal" and self.at_kw("commutative")
            if comm:
                self.next()
            args = [self.prefix_expr() for _ in range(GRAPH_OPS[t.text][0])]
            loc = (t.line, t.col)
            return Emit(desugar_graph_op(t.text, args, comm, loc), loc=loc)
        return self.atom()

    def atom(self) -> Expr:
        t = self.next()
        loc = (t.line, t.col)
        if t.kind == "INT":
            return Int(self.integer(t), loc=loc)
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
        if t.kind == "KW" and t.text in CALLS:
            form = CALLS[t.text]
            self.expect("(")
            args = [self.expr()]
            for _ in children(form)[1:]:
                self.expect(",")
                args.append(self.expr())
            self.expect(")")
            return _build(form, args, t)
        raise self.err(t, f"unexpected {t.text!r}" if t.text else "unexpected end of input")

    def bracket_rest(self, loc: tuple[int, int]) -> Expr:
        # called just past "["; either a list literal or a comprehension
        first = None if self.peek().kind == "]" else self.expr()
        if first is not None and self.peek().kind == "|":
            self.next()
            name = self.expect("IDENT", "a name").text
            self.eat_kw("in")
            self.expect("[")
            items = self.comma_list(self.expr)
            self.expect("]")
            return KL(tuple(substitute(first, i, name) for i in items), loc=loc)
        return KL(tuple(self.comma_list(self.expr, first)), loc=loc)

    ### types

    def type_atom(self) -> Type:
        t = self.next()
        if t.kind == "KW" and t.text in BASE_TYPES:
            return BASE_TYPES[t.text]
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
    path = Path(path)
    return parse_source(path.read_text(encoding="utf-8"), str(path))


def _check_closed(e: Expr, file: str) -> None:
    """Refuse `e` if a name in it is unbound.  The free names are kept on
    the term for `substitute` and the printer; only an open term is
    searched for the unbound name that comes first in the source."""
    if not free_vars(e):
        return
    (line, col), name = _first_unbound(e, frozenset())
    raise SourceError(file, line, col, "unbound-name", f"name {name!r} is not in scope")


def _first_unbound(e: Expr, bound: frozenset[str]):
    """The position and name of the unbound name in `e` that comes first in
    the source; a `let` is `App(Lam(body), bound)`, so the children of a
    term are not in source order."""
    if isinstance(e, Var):
        return None if e.name in bound else (e.loc or (0, 0), e.name)
    if isinstance(e, Lam):
        return _first_unbound(e.body, bound | {e.param})
    first = None
    for c in children(e):
        bad = _first_unbound(c, bound)
        if bad and (first is None or bad < first):
            first = bad
    return first


### pretty-printer

def to_source(e: Expr) -> str:
    """Parseable surface text for a label-free term; round-trips through parse."""
    return _pp(e, 0)


# the tables inverted: a form -> how it is written
_INFIX_OF = {form: (op, level) for op, (level, form) in INFIX.items()}
_PREFIX_OF = {form: kw for kw, form in PREFIX.items()}
_CALL_OF = {form: kw for kw, form in CALLS.items()}

# precedence levels: 0 expr, 1 seq, 2-4 the INFIX levels, 5 app, 6 atom

def _pp(e: Expr, level: int) -> str:
    form = _shape(e)
    if form in _INFIX_OF:
        op, at = _INFIX_OF[form]
        left, right = children(e)
        s = f"{_pp(left, at)} {op} {_pp(right, at + 1)}"
        return s if level <= at else f"({s})"
    if form in _PREFIX_OF:
        s = " ".join([_PREFIX_OF[form], *(_pp(a, 6) for a in children(e))])
        return s if level <= 5 else f"({s})"
    if form in _CALL_OF:
        return f"{_CALL_OF[form]}({', '.join(_pp(a, 0) for a in children(e))})"
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
            ann = f": {_pp_type(t)} " if t is not None else ""
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
        case KL(items):
            return "[" + ", ".join(_pp(i, 0) for i in items) + "]"
    raise TypeError(e)


def _pp_type(t: Type, bare: bool = False) -> str:
    """`t` as written in an annotation; an arrow type is parenthesised
    unless `bare`, as it may be right of an arrow or inside `future[...]`."""
    if isinstance(t, TFun):
        arrow = "->!" if t.eff else "->"
        s = f"{_pp_type(t.param)} {arrow} {_pp_type(t.result, True)}"
        return s if bare else f"({s})"
    if isinstance(t, TFuture):
        return f"future[{_pp_type(t.inner, True)}]"
    return str(t)
