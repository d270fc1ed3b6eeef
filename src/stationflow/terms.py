"""Term language: expressions, values, operations, substitution, normalization."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field


### types

@dataclass(frozen=True)
class TInt:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TKey:
    def __str__(self) -> str:
        return "key"


@dataclass(frozen=True)
class TKl:
    def __str__(self) -> str:
        return "kl"


@dataclass(frozen=True)
class TNode:
    def __str__(self) -> str:
        return "node"


@dataclass(frozen=True)
class TFuture:
    inner: "Type"

    def __str__(self) -> str:
        return f"future[{self.inner}]"


@dataclass(frozen=True)
class TFun:
    param: "Type"
    eff: bool  # latent emittability of the body
    result: "Type"

    def __str__(self) -> str:
        arrow = "->!" if self.eff else "->"
        return f"({self.param} {arrow} {self.result})"


Type = TInt | TKey | TKl | TNode | TFuture | TFun

INT = TInt()
KEY = TKey()
KL_T = TKl()
NODE = TNode()

Loc = tuple[int, int]


def _loc_field():
    return field(default=None, compare=False, repr=False)


### expressions

@dataclass(frozen=True)
class Var:
    name: str
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Int:
    value: int
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Key:
    # either a programmer literal or a generated "@k<i>" name
    name: str
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Label:
    # future handle; allocated by a monotone counter at emission
    index: int
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Lam:
    param: str
    # None only on lambdas produced by let/sequence desugaring
    ptype: Type | None
    body: "Expr"
    # surface `commutative` annotation, threaded onto fold functions
    commutative: bool = False
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class App:
    fn: "Expr"
    arg: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Fix:
    fn: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class KL:
    items: tuple["Expr", ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Node:
    key: "Expr"
    payload: "Expr"
    adj: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Proj:
    index: int  # 1, 2, or 3
    arg: "Expr"
    loc: Loc | None = _loc_field()

    def __post_init__(self) -> None:
        if self.index not in (1, 2, 3):
            raise ValueError(f"projection index {self.index}")


@dataclass(frozen=True)
class Concat:
    left: "Expr"
    right: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Subtract:
    left: "Expr"
    right: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Arith:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class If0:
    # zero-test conditional on an int scrutinee
    scrut: "Expr"
    then: "Expr"
    els: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Len:
    arg: "Expr"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class AddOp:
    arg: "Expr"


@dataclass(frozen=True)
class MapOp:
    fn: "Expr"
    ks: "Expr"


@dataclass(frozen=True)
class FoldOp:
    fn: "Expr"
    base: "Expr"
    ks: "Expr"


Operation = AddOp | MapOp | FoldOp


@dataclass(frozen=True)
class Emit:
    op: Operation
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
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

def is_value(e: Expr) -> bool:
    match e:
        case Int() | Key() | Label() | Lam():
            return True
        case KL(items):
            return all(isinstance(i, Key) for i in items)
        case Node(k, p, a):
            return isinstance(k, Key) and isinstance(p, Int) and isinstance(a, KL) and is_value(a)
        case _:
            return False


def op_args(op: Operation) -> tuple[Expr, ...]:
    match op:
        case AddOp(arg):
            return (arg,)
        case MapOp(fn, ks):
            return (fn, ks)
        case FoldOp(fn, base, ks):
            return (fn, base, ks)
    raise TypeError(op)


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

def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Lam):
        return free_vars(e.body) - {e.param}
    out: frozenset[str] = frozenset()
    for c in children(e):
        out |= free_vars(c)
    return out


def _fresh_name(base: str, avoid: frozenset[str]) -> str:
    # deterministic: smallest unused index, no global counter
    i = 0
    while f"{base}${i}" in avoid:
        i += 1
    return f"{base}${i}"


def substitute(e: Expr, v: Expr, x: str) -> Expr:
    """Capture-avoiding substitution of x by v in e."""
    if isinstance(e, Var):
        return v if e.name == x else e
    if isinstance(e, Lam):
        param, body = e.param, e.body
        if param == x:
            return e
        if param in free_vars(v) and x in free_vars(body):
            renamed = _fresh_name(param, free_vars(body) | free_vars(v))
            body = substitute(body, Var(renamed), param)
            param = renamed
        return Lam(param, e.ptype, substitute(body, v, x), e.commutative, e.loc)
    cs = children(e)
    if not cs:
        return e
    return with_children(e, tuple(substitute(c, v, x) for c in cs))


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


### alpha equivalence

def alpha_equiv(a: Expr, b: Expr) -> bool:
    return _alpha(a, b, {}, {})


def _alpha(a: Expr, b: Expr, la: dict[str, int], lb: dict[str, int]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        if (a.name in la) != (b.name in lb):
            return False
        return la[a.name] == lb[b.name] if a.name in la else a.name == b.name
    if isinstance(a, Lam):
        if a.ptype != b.ptype or a.commutative != b.commutative:
            return False
        depth = len(la)
        return _alpha(a.body, b.body, {**la, a.param: depth},
                      {**lb, b.param: depth})
    if (isinstance(a, Proj) and a.index != b.index
            or isinstance(a, Arith) and a.op != b.op
            or isinstance(a, Emit) and type(a.op) is not type(b.op)):
        return False
    ca, cb = children(a), children(b)
    if not ca:
        return a == b  # Int, Key and Label compare their value
    return len(ca) == len(cb) and all(_alpha(x, y, la, lb) for x, y in zip(ca, cb))


### the pure reduction rules

@dataclass(frozen=True)
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
    avoid = free_vars(f) | free_vars(g)
    i = 0
    while f"$z{i}" in avoid:
        i += 1
    z = f"$z{i}"
    ptype = g.ptype if isinstance(g, Lam) and g.ptype is not None else NODE
    return Lam(z, ptype, App(f, App(g, Var(z))), False)
