"""Term language: expressions, values, operations, substitution, normalization.

`OPERATIONS` gives each operation kind its keyword, the role and type of each
argument and the future it yields; no other module spells these out.  The
canonical printer `to_sexpr` writes bound variables as de Bruijn indices, and
its text is the one notion of term sameness: `alpha_equiv` compares it, and
`tlo` keys its prover verdicts by it.  A term is closed when the free names
`free_vars` keeps on it are none: the printer keeps the text of closed terms,
and `substitute` visits only the subterms that hold the name it replaces.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from reprlib import recursive_repr


def record(cls):
    """A frozen dataclass with each field in a slot and a `__dict__` slot,
    made on first use, for what is kept (see `state`).  `dataclass` only
    collects the fields; the class, built again with the slots and marked
    frozen, gets from one `exec` the six methods `dataclass(frozen=True)`
    would generate: `__init__` stores through each slot's `__set__`, bound
    once here; `__eq__` and `__hash__` read the compared fields as a tuple;
    `__repr__` shows the shown ones; `__setattr__` and `__delattr__` raise
    `FrozenInstanceError`.  Fields take plain defaults only, and the class
    defines none of the six; a `__post_init__` still runs.  A class without
    a docstring gets its name and field names as one: `dataclass` would
    derive one through `inspect.signature`, a large share of the cost of
    building the class."""
    if cls.__doc__ is None:
        names = ", ".join(vars(cls).get("__annotations__", ()))
        cls.__doc__ = f"{cls.__name__}({names})"
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    attrs = {k: v for k, v in vars(cls).items()
             if k not in (*names, "__dict__", "__weakref__")}
    cls = type(cls)(cls.__name__, cls.__bases__, {
        **attrs, "__qualname__": cls.__qualname__,
        "__slots__": (*names, "__dict__")})
    p = cls.__dataclass_params__
    p.init = p.repr = p.eq = p.frozen = True
    ns = {"cls": cls, "FrozenInstanceError": FrozenInstanceError,
          "recursive_repr": recursive_repr}
    params, body = "", ""
    for i, f in enumerate(fs):
        ns[f"_d{i}"], ns[f"_s{i}"] = f.default, vars(cls)[f.name].__set__
        params += f", {f.name}" if f.default is MISSING else f", {f.name}=_d{i}"
        body += f"\n _s{i}(self, {f.name})"
    if hasattr(cls, "__post_init__"):
        body += "\n self.__post_init__()"
    key = "".join(f"self.{f.name}," for f in fs if f.compare)
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fs if f.repr)
    exec(f"""def __init__(self{params}):{body}
def __eq__(self, other):
 if other.__class__ is self.__class__:
  return ({key}) == ({key.replace("self.", "other.")})
 return NotImplemented
def __hash__(self):
 return hash(({key}))
@recursive_repr()
def __repr__(self):
 return self.__class__.__qualname__ + f"({shown})"
def __setattr__(self, name, value):
 if type(self) is cls or name in {names}:
  raise FrozenInstanceError(f"cannot assign to field {{name!r}}")
 super(cls, self).__setattr__(name, value)
def __delattr__(self, name):
 if type(self) is cls or name in {names}:
  raise FrozenInstanceError(f"cannot delete field {{name!r}}")
 super(cls, self).__delattr__(name)""", ns)
    for name in ("__init__", "__eq__", "__hash__", "__repr__",
                 "__setattr__", "__delattr__"):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, ns[name])
    return cls


### types

@record
class TBase:
    name: str  # int, key, kl or node

    def __str__(self) -> str:
        return self.name


@record
class TFuture:
    inner: "Type"

    def __str__(self) -> str:
        return f"future[{self.inner}]"


@record
class TFun:
    param: "Type"
    eff: bool  # latent emittability of the body
    result: "Type"

    def __str__(self) -> str:
        arrow = "->!" if self.eff else "->"
        return f"({self.param} {arrow} {self.result})"


Type = TBase | TFuture | TFun

INT = TBase("int")
KEY = TBase("key")
KL_T = TBase("kl")
NODE = TBase("node")

Loc = tuple[int, int]


def _loc_field():
    return field(default=None, compare=False, repr=False)


### expressions

@record
class Var:
    name: str
    loc: Loc | None = _loc_field()


@record
class Int:
    value: int
    loc: Loc | None = _loc_field()


@record
class Key:
    # either a programmer literal or a generated "@k<i>" name
    name: str
    loc: Loc | None = _loc_field()


@record
class Label:
    # future handle; allocated by a monotone counter at emission
    index: int
    loc: Loc | None = _loc_field()


@record
class Lam:
    param: str
    # None only on lambdas produced by let/sequence desugaring
    ptype: Type | None
    body: "Expr"
    # surface `commutative` annotation, threaded onto fold functions
    commutative: bool = False
    loc: Loc | None = _loc_field()


@record
class App:
    fn: "Expr"
    arg: "Expr"
    loc: Loc | None = _loc_field()


@record
class Fix:
    fn: "Expr"
    loc: Loc | None = _loc_field()


@record
class KL:
    items: tuple["Expr", ...]
    loc: Loc | None = _loc_field()


@record
class Node:
    key: "Expr"
    payload: "Expr"
    adj: "Expr"
    loc: Loc | None = _loc_field()


@record
class Proj:
    index: int  # 1, 2, or 3
    arg: "Expr"
    loc: Loc | None = _loc_field()

    def __post_init__(self) -> None:
        if self.index not in (1, 2, 3):
            raise ValueError(f"projection index {self.index}")


@record
class Concat:
    left: "Expr"
    right: "Expr"
    loc: Loc | None = _loc_field()


@record
class Subtract:
    left: "Expr"
    right: "Expr"
    loc: Loc | None = _loc_field()


@record
class Arith:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    loc: Loc | None = _loc_field()


@record
class If0:
    # zero-test conditional on an int scrutinee
    scrut: "Expr"
    then: "Expr"
    els: "Expr"
    loc: Loc | None = _loc_field()


@record
class Len:
    arg: "Expr"
    loc: Loc | None = _loc_field()


@record
class AddOp:
    arg: "Expr"


@record
class MapOp:
    fn: "Expr"
    ks: "Expr"


@record
class FoldOp:
    fn: "Expr"
    base: "Expr"
    ks: "Expr"


Operation = AddOp | MapOp | FoldOp


@record
class OpKind:
    keyword: str
    args: tuple[tuple[str, Type], ...]  # (role, type) of each field, in order
    future: Type  # the type of the label an emission yields


# operation class -> its signature
OPERATIONS = {
    AddOp: OpKind("add", (("add payload", INT),), TFuture(KEY)),
    MapOp: OpKind("map", (("map function", TFun(NODE, False, NODE)),
                          ("map target", KL_T)), TFuture(INT)),
    FoldOp: OpKind("fold", (
        ("fold function", TFun(NODE, False, TFun(NODE, False, NODE))),
        ("fold base", NODE), ("fold target", KL_T)), TFuture(NODE)),
}


@record
class Emit:
    op: Operation
    loc: Loc | None = _loc_field()


@record
class Claim:
    arg: "Expr"
    loc: Loc | None = _loc_field()


Expr = (
    Var | Int | Key | Label | Lam | App | Fix | KL | Node | Proj
    | Concat | Subtract | Arith | If0 | Len | Emit | Claim
)

# key reserved for the unnamed hole in desugared fold bases
HOLE_KEY = Key("_")


### value predicates

# the forms all of whose instances are values; tested by exact class, as no
# term class has subclasses
ATOMS = frozenset((Int, Key, Label, Lam))
_KEY = frozenset((Key,))


def is_value(e: Expr) -> bool:
    t = type(e)
    if t in ATOMS:
        return True
    if t is Node and type(e.key) is Key and type(e.payload) is Int:
        e = e.adj  # such a node is a value when its adjacency is
        t = type(e)
    return t is KL and _KEY.issuperset(map(type, e.items))


# operation class -> its arguments, in field order
_OP_ARGS = {
    AddOp: lambda op: (op.arg,),
    MapOp: lambda op: (op.fn, op.ks),
    FoldOp: lambda op: (op.fn, op.base, op.ks),
}


def op_args(op: Operation) -> tuple[Expr, ...]:
    return _OP_ARGS[type(op)](op)


### generic traversal

def _leaf(e):
    return ()


def _same(e, cs):
    return e


# type -> (subexpressions in evaluation order, rebuild from new ones).  The
# rebuild keeps every other field: binders, annotations, the Proj index, the
# Arith op, the operation kind, and the source location.
_SHAPES = {
    Var: (_leaf, _same),
    Int: (_leaf, _same),
    Key: (_leaf, _same),
    Label: (_leaf, _same),
    Lam: (lambda e: (e.body,),
          lambda e, cs: Lam(e.param, e.ptype, cs[0], e.commutative, e.loc)),
    App: (lambda e: (e.fn, e.arg), lambda e, cs: App(cs[0], cs[1], e.loc)),
    Fix: (lambda e: (e.fn,), lambda e, cs: Fix(cs[0], e.loc)),
    KL: (lambda e: e.items, lambda e, cs: KL(tuple(cs), e.loc)),
    Node: (lambda e: (e.key, e.payload, e.adj),
           lambda e, cs: Node(cs[0], cs[1], cs[2], e.loc)),
    Proj: (lambda e: (e.arg,), lambda e, cs: Proj(e.index, cs[0], e.loc)),
    Concat: (lambda e: (e.left, e.right),
             lambda e, cs: Concat(cs[0], cs[1], e.loc)),
    Subtract: (lambda e: (e.left, e.right),
               lambda e, cs: Subtract(cs[0], cs[1], e.loc)),
    Arith: (lambda e: (e.left, e.right),
            lambda e, cs: Arith(e.op, cs[0], cs[1], e.loc)),
    If0: (lambda e: (e.scrut, e.then, e.els),
          lambda e, cs: If0(cs[0], cs[1], cs[2], e.loc)),
    Len: (lambda e: (e.arg,), lambda e, cs: Len(cs[0], e.loc)),
    # every field of an operation is an argument
    Emit: (lambda e: op_args(e.op), lambda e, cs: Emit(type(e.op)(*cs), e.loc)),
    Claim: (lambda e: (e.arg,), lambda e, cs: Claim(cs[0], e.loc)),
}


def children(e: Expr) -> tuple[Expr, ...]:
    """The immediate subexpressions of `e`, left to right."""
    return _SHAPES[type(e)][0](e)


def with_children(e: Expr, cs) -> Expr:
    """`e` rebuilt around new subexpressions, all other fields kept."""
    return _SHAPES[type(e)][1](e, cs)


### free variables and substitution

_CLOSED: frozenset[str] = frozenset()
_VAR_NAMES: dict[str, frozenset[str]] = {}
_LEAVES = frozenset((Int, Key, Label))


def free_vars(e: Expr) -> frozenset[str]:
    """The names free in `e`, kept on a compound term as `_fv` (see `state`).
    Sets are shared: one per name, one empty, and a lone open child's."""
    t = type(e)
    if t is Var:
        fv = _VAR_NAMES.get(e.name)
        return fv or _VAR_NAMES.setdefault(e.name, frozenset((e.name,)))
    if t in _LEAVES:
        return _CLOSED
    memo = e.__dict__
    fv = memo.get("_fv")
    if fv is not None:
        return fv
    if t is Lam:
        fv = free_vars(e.body)
        if e.param in fv:
            fv = fv - {e.param} or _CLOSED
    else:
        fv = _CLOSED
        for c in children(e):
            cfv = free_vars(c)
            if not cfv <= fv:
                fv = fv | cfv if fv else cfv
    memo["_fv"] = fv
    return fv


def fresh_names(bases: tuple[str, ...], *terms: Expr) -> Iterator[str]:
    """A name for each of `bases`, free in none of `terms` and distinct
    from each other: the base itself, else the base with the smallest
    unused `$i` suffix (deterministic, no global counter)."""
    avoid = set().union(*map(free_vars, terms))
    for base in bases:
        name, i = base, 0
        while name in avoid:
            name, i = f"{base}${i}", i + 1
        avoid.add(name)
        yield name


def substitute(e: Expr, v: Expr, x: str) -> Expr:
    """Capture-avoiding substitution of x by v in e.  It visits only the
    subterms that hold x free and returns every other one itself, so a
    closed part keeps its identity and what is kept on it (see `state`)."""
    if x not in free_vars(e):
        return e
    t = type(e)
    if t is Var:
        return v
    if t is Lam:
        param, body = e.param, e.body
        if param in free_vars(v):
            param, = fresh_names((param,), body, v)
            body = substitute(body, Var(param), e.param)
        return Lam(param, e.ptype, substitute(body, v, x), e.commutative,
                   e.loc)
    return with_children(e, tuple([substitute(c, v, x) for c in children(e)]))


def transform(e: Expr, fn) -> Expr:
    """Bottom-up rewrite: fn is applied to every node after its children."""
    cs = children(e)
    if cs:
        e = with_children(e, tuple(transform(c, fn) for c in cs))
    return fn(e)


### key list helpers

def kl_subtract(ks: tuple[Key, ...], ks2: tuple[Key, ...]) -> tuple[Key, ...]:
    """Remove every occurrence of every element of ks2, preserving survivor order."""
    drop = {k.name for k in ks2}
    return tuple(k for k in ks if k.name not in drop)


def kl_value(names) -> KL:
    return KL(tuple(Key(n) for n in names))


### canonical serialization, which decides alpha equivalence

# the forms printed as their tag followed by their children
_TAGS = {App: "app", Fix: "fix", KL: "kl", Node: "node", Concat: "cat",
         Subtract: "sub", If0: "if0", Len: "len", Claim: "claim"}


def to_sexpr(e: Expr) -> str:
    """Deterministic s-expression; bound variables become de Bruijn indices
    so alpha-equivalent terms print identically.

    A form prints as `(tag child ...)`, where the tag of a projection is
    `proj1`..`proj3` and of arithmetic `arith` and its operator, except a
    variable, a literal, a lambda and an emission, `(emit (keyword arg ...))`.

    The text of every closed compound term, one with no `free_vars`, is
    kept in the immutable term's instance `__dict__` (which `__eq__` and
    `__hash__` do not read).  That is sound because every variable in a
    closed term is bound inside it and prints as the distance to its
    binder, so the term prints the same at top level and under any
    binders.  An open term keeps nothing: its text depends on its context.
    A term carried over by a step, or left unchanged by a substitution
    (see `substitute`), is printed once."""
    return _sexpr(e, {}, 0)


def _sexpr(e: Expr, depth: dict[str, int], level: int) -> str:
    """The text of `e` under `level` binders, `depth` giving the level of
    the binder of each name in scope."""
    t = type(e)
    if t is Var:
        idx = depth.get(e.name)
        if idx is None:
            return f"(free {e.name})"
        return f"(bound {level - idx})"
    if t is Int:
        return f"(int {e.value})"
    if t is Key:
        return f"(key {e.name})"
    if t is Label:
        return f"(label {e.index})"
    memo = e.__dict__
    text = memo.get("_sexpr")
    if text is not None:
        return text
    if t is Lam:
        inner = _sexpr(e.body, {**depth, e.param: level + 1}, level + 1)
        ptype = str(e.ptype) if e.ptype is not None else "_"
        text = f"({'lam!' if e.commutative else 'lam'} {ptype} {inner})"
    elif t is Emit:
        text = f"(emit {_op_sexpr(e.op, depth, level)})"
    else:
        tag = _TAGS.get(t)
        if tag is None:
            tag = f"proj{e.index}" if t is Proj else f"arith {e.op}"
        text = _form(tag, children(e), depth, level)
    if not free_vars(e):
        memo["_sexpr"] = text
    return text


def _op_sexpr(op: Operation, depth: dict[str, int], level: int) -> str:
    return _form(OPERATIONS[type(op)].keyword, op_args(op), depth, level)


def _form(tag: str, subterms, depth: dict[str, int], level: int) -> str:
    return f"({' '.join([tag, *[_sexpr(c, depth, level) for c in subterms]])})"


def alpha_equiv(a: Expr, b: Expr) -> bool:
    """Equal up to the names of bound variables and source positions: the
    text prints every field but `loc`, a bound variable as the distance to
    its binder."""
    return to_sexpr(a) == to_sexpr(b)


### the pure reduction rules

@record
class Contraction:
    """One pure rule of the calculus.  The small-step engine and `normalize`
    both read it, so the two evaluators cannot disagree on a contraction."""

    rule: str
    applies: Callable[[Expr], bool]  # shape test once the strict children are reduced
    contract: Callable[[Expr], Expr]
    normal: bool  # contractum of normal children is normal; `_norm` spends no fuel on it
    stuck: str    # why a term of this form whose strict children are values cannot step
    strict: int | None = None  # leading children reduced before the test; None: all


def _kl_value(e: Expr) -> bool:
    return isinstance(e, KL) and is_value(e)


# type -> its rule; Claim and Emit touch the store and the stream, so the
# engine contracts them itself
CONTRACTIONS = {
    App: Contraction(
        "Beta", lambda e: isinstance(e.fn, Lam),
        lambda e: substitute(e.fn.body, e.arg, e.fn.param), False,
        "application of a non-function"),
    # cbv unrolling, restricted to the double-lambda shape
    Fix: Contraction(
        "Fix", lambda e: isinstance(e.fn, Lam) and isinstance(e.fn.body, Lam),
        lambda e: substitute(e.fn.body, e, e.fn.param), False,
        "fix needs a function that returns a function"),
    Proj: Contraction(
        "Node", lambda e: isinstance(e.arg, Node),
        lambda e: children(e.arg)[e.index - 1], False,
        "projection from a non-node"),
    Concat: Contraction(
        "KSA", lambda e: isinstance(e.left, KL) and isinstance(e.right, KL),
        lambda e: KL(e.left.items + e.right.items), True,
        "concatenation of non-key-lists"),
    Subtract: Contraction(
        "KSS", lambda e: _kl_value(e.left) and _kl_value(e.right),
        lambda e: KL(kl_subtract(e.left.items, e.right.items)), True,
        "subtraction of non-key-lists"),
    Arith: Contraction(
        "Arith", lambda e: isinstance(e.left, Int) and isinstance(e.right, Int),
        lambda e: Int(arith_eval(e.op, e.left.value, e.right.value)), True,
        "arithmetic on non-integers"),
    # branches stay unevaluated until the scrutinee picks one
    If0: Contraction(
        "If0", lambda e: isinstance(e.scrut, Int),
        lambda e: e.then if e.scrut.value == 0 else e.els, False,
        "conditional on a non-integer", strict=1),
    Len: Contraction(
        "Len", lambda e: _kl_value(e.arg), lambda e: Int(len(e.arg.items)), True,
        "len of a non-key-list"),
}


### bounded normalization

class _Fuel:
    __slots__ = ("left", "cut", "unroll")

    # nesting `_norm` may reach, two interpreter frames a level: a `fix`
    # unrolled under a binder is cut here, not by RecursionError
    DEPTH = 200

    def __init__(self, n: int) -> None:
        self.left = n
        self.cut = False    # some reduction was refused
        self.unroll = True  # Fix may unroll

    def spend(self, depth: int) -> bool:
        """Pay for one reduction at nesting `depth`, or refuse it."""
        if self.left <= 0 or depth > self.DEPTH:
            self.cut = True
            return False
        self.left -= 1
        return True


def normalize(e: Expr, fuel: int = 10_000) -> tuple[Expr, bool]:
    """Reduce pure redexes (beta, projection, list ops, arithmetic, if0, len, fix)
    to normal form, going under binders and into the branches of a conditional
    stuck on its scrutinee. Returns (term, completed); completed is False when
    some reduction was cut off for want of fuel, so a term that reaches normal
    form on the last unit completes, because a fix would unroll inside such a
    branch, or because it lies deeper than `_Fuel.DEPTH`. Emit, Claim, and
    Label redexes are left in place."""
    f = _Fuel(fuel)
    out = _norm(e, f)
    if not f.cut:
        # nothing bounds a fix unrolled where no scrutinee picks a branch
        f.unroll = False
        out = _norm_branches(out, f)
    return out, not f.cut


def _norm(e: Expr, f: _Fuel, depth: int = 0) -> Expr:
    while True:
        if not f.spend(depth):
            return e
        cs = children(e)
        if not cs:
            return e
        rule = CONTRACTIONS.get(type(e))
        strict = cs[:rule.strict] if rule else cs
        e = with_children(e, tuple(_norm(c, f, depth + 1) for c in strict)
                          + cs[len(strict):])
        if rule is None or not rule.applies(e):
            return e
        if not f.unroll and type(e) is Fix:
            f.cut = True
            return e
        e = rule.contract(e)
        if rule.normal:
            return e


def _norm_branches(e: Expr, f: _Fuel, depth: int = 0) -> Expr:
    """`e`, a `_norm` result, with the branches of every conditional in it
    normalized.  `_norm` leaves only conditionals stuck on their scrutinee,
    and a new branch makes no redex above it."""
    cs = children(e)
    if not cs:
        return e
    if isinstance(e, If0):
        cs = cs[:1] + tuple(_norm(c, f, depth + 1) for c in cs[1:])
    return with_children(e, tuple(_norm_branches(c, f, depth + 1) for c in cs))


def arith_eval(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        # truncation toward zero; division by zero yields zero rather than a crash
        if b == 0:
            return 0
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    raise ValueError(f"arithmetic op {op!r}")


def term_equiv(a: Expr, b: Expr, fuel: int = 10_000) -> str:
    """'equal' when both sides normalize within fuel to alpha-equivalent forms,
    'unknown' when fuel runs out, 'distinct' otherwise."""
    na, oka = normalize(a, fuel)
    nb, okb = normalize(b, fuel)
    if not (oka and okb):
        return "unknown"
    return "equal" if alpha_equiv(na, nb) else "distinct"


def eta_contract(e: Expr) -> Expr:
    """One outer eta step: λx. f x becomes f when x is not free in f."""
    match e:
        case Lam(p, _, App(fn, Var(arg)), _) if arg == p and p not in free_vars(fn):
            return fn
        case _:
            return e


def compose(f: Expr, g: Expr) -> Lam:
    """Function composition λz. f (g z) with a fresh z drawn from the reserved namespace."""
    z, = fresh_names(("$z",), f, g)
    ptype = g.ptype if isinstance(g, Lam) and g.ptype is not None else NODE
    return Lam(z, ptype, App(f, App(g, Var(z))), False)
