"""Effect-annotated type checking for expressions and whole configurations.

Every judgment carries an effect flag: False means the term cannot emit
(phase F), True means it may (phase T).  Graph-operation functions must be
emission-free; that single restriction is what keeps the backend closed
under its own evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .parser import SourceError
from .terms import (
    INT, KEY, KL_T, NODE, OPERATIONS,
    AddOp, App, Arith, Claim, Concat, Emit, Expr, Fix, If0, Int, KL, Key,
    Label, Lam, Len, Node, Proj, Subtract, TFun, TFuture, Type, Var,
    children, op_args,
)

F = False
T = True


@dataclass(frozen=True)
class Env:
    """Name bindings (right-most wins) plus the cached label typing."""

    names: tuple[tuple[str, Type], ...] = ()
    labels: tuple[tuple[int, Type], ...] = ()

    def bind(self, name: str, t: Type) -> "Env":
        return replace(self, names=self.names + ((name, t),))

    def lookup(self, name: str) -> Type | None:
        for n, t in reversed(self.names):
            if n == name:
                return t
        return None

    def lookup_label(self, label: int) -> Type | None:
        for l, t in self.labels:
            if l == label:
                return t
        return None


def cached_env_insert(env: Env, label: int, value_type: Type) -> Env:
    """Record a label at the future of its eventual value type."""
    future = value_type if isinstance(value_type, TFuture) else TFuture(value_type)
    return replace(env, labels=env.labels + ((label, future),))


def _err(file: str, loc, rule: str, msg: str) -> SourceError:
    line, col = loc if loc else (0, 0)
    return SourceError(file, line, col, rule, msg)


def _find_emit_loc(e: Expr):
    # the emission that comes first in the source, for phase diagnostics; a
    # `let` is `App(Lam(body), bound)`, so the children of a term are not
    # in source order
    return min(_emit_locs(e), default=None)


def _emit_locs(e: Expr):
    if isinstance(e, Emit) and e.loc:
        yield e.loc
    for c in children(e):
        yield from _emit_locs(c)


def type_of_expr(e: Expr, env: Env | None = None, file: str = "<program>") -> tuple[Type, bool]:
    """Type and effect of an expression, or a SourceError diagnostic."""
    if env is None:
        env = Env()
    return _ty(e, env, file)


def _ty(e: Expr, env: Env, file: str) -> tuple[Type, bool]:
    match e:
        case Int():
            return INT, F
        case Key():
            return KEY, F
        case Var(name):
            t = env.lookup(name)
            if t is None:
                raise _err(file, e.loc, "T-Var", f"name {name!r} is not in scope")
            return t, F
        case Label(index):
            t = env.lookup_label(index)
            if t is None:
                raise _err(file, e.loc, "RT-Future",
                           f"label %{index} is not bound here (forward reference?)")
            return t, F
        case App(Lam(param, None, body), bound):
            # let-binding: the abstraction exists only to be applied right here
            bt, be = _ty(bound, env, file)
            rt, re_ = _ty(body, env.bind(param, bt), file)
            return rt, be or re_
        case Lam(param, ptype, body):
            if ptype is None:
                raise _err(file, e.loc, "T-Abs",
                           f"parameter {param!r} needs a type annotation")
            rt, re_ = _ty(body, env.bind(param, ptype), file)
            return TFun(ptype, re_, rt), F
        case App(fn, arg):
            ft, fe = _ty(fn, env, file)
            at, ae = _ty(arg, env, file)
            if not isinstance(ft, TFun):
                raise _err(file, e.loc, "T-App",
                           f"cannot apply a value of type {ft}")
            if ft.param != at:
                raise _err(file, arg.loc or e.loc, "T-App",
                           f"argument has type {at}, expected {ft.param}")
            return ft.result, ft.eff or fe or ae
        case Fix(fn):
            ft, fe = _ty(fn, env, file)
            if not (isinstance(ft, TFun) and ft.param == ft.result):
                raise _err(file, e.loc, "T-Fix",
                           f"fix needs a function from a type to itself, got {ft}")
            return ft.param, ft.eff or fe
        case KL(items):
            eff = F
            for item in items:
                it, ie = _ty(item, env, file)
                if it != KEY:
                    raise _err(file, item.loc or e.loc, "T-KS",
                               f"key list element has type {it}, expected key")
                eff = eff or ie
            return KL_T, eff
        case Node(k, p, a):
            kt, ke = _ty(k, env, file)
            pt, pe = _ty(p, env, file)
            at, ae = _ty(a, env, file)
            if kt != KEY:
                raise _err(file, k.loc or e.loc, "T-Node",
                           f"node key has type {kt}, expected key")
            if pt != INT:
                raise _err(file, p.loc or e.loc, "T-Node",
                           f"node payload has type {pt}, expected int")
            if at != KL_T:
                raise _err(file, a.loc or e.loc, "T-Node",
                           f"node adjacency has type {at}, expected kl")
            return NODE, ke or pe or ae
        case Proj(index, arg):
            at, ae = _ty(arg, env, file)
            if at != NODE:
                raise _err(file, e.loc, f"T-ENode{index}",
                           f"projection argument has type {at}, expected node")
            return (KEY, INT, KL_T)[index - 1], ae
        case Concat(l, r) | Subtract(l, r):
            rule = "T-KSA" if isinstance(e, Concat) else "T-KSS"
            lt, le = _ty(l, env, file)
            rt, re_ = _ty(r, env, file)
            if lt != KL_T or rt != KL_T:
                raise _err(file, e.loc, rule,
                           f"key-list operator applied to {lt} and {rt}")
            return KL_T, le or re_
        case Arith(op, l, r):
            lt, le = _ty(l, env, file)
            rt, re_ = _ty(r, env, file)
            if lt != INT or rt != INT:
                raise _err(file, e.loc, "T-Arith",
                           f"'{op}' applied to {lt} and {rt}")
            return INT, le or re_
        case If0(s, th, el):
            st, se = _ty(s, env, file)
            if st != INT:
                raise _err(file, s.loc or e.loc, "T-If0",
                           f"condition has type {st}, expected int")
            tt, te = _ty(th, env, file)
            et, ee = _ty(el, env, file)
            if tt != et:
                raise _err(file, e.loc, "T-If0",
                           f"branches disagree: {tt} versus {et}")
            return tt, se or te or ee
        case Len(arg):
            at, ae = _ty(arg, env, file)
            if at != KL_T:
                raise _err(file, e.loc, "T-Len",
                           f"len argument has type {at}, expected kl")
            return INT, ae
        case Claim(arg):
            at, ae = _ty(arg, env, file)
            if not isinstance(at, TFuture):
                raise _err(file, e.loc, "T-Claim",
                           f"claim argument has type {at}, expected a future")
            return at.inner, ae
        case Emit():
            return _ty_emit(e, env, file)
    raise TypeError(e)


def _ty_emit(e: Emit, env: Env, file: str) -> tuple[Type, bool]:
    kind = OPERATIONS[type(e.op)]
    rule = f"T-{kind.keyword.capitalize()}"
    for arg, (role, want) in zip(op_args(e.op), kind.args):
        t, _ = _ty(arg, env, file)
        if t == want:
            continue
        if _without_effects(t) == want:
            raise _err(file, _find_emit_loc(arg) or arg.loc or e.loc, rule,
                       f"{role} may emit; graph operations must be emission-free")
        raise _err(file, arg.loc or e.loc, rule,
                   f"add takes an int payload, got {t}" if isinstance(e.op, AddOp)
                   else f"{role} has type {t}, expected {want}")
    return kind.future, T


def _without_effects(t: Type) -> Type:
    """`t` with every arrow marked emission-free."""
    if isinstance(t, TFun):
        return TFun(_without_effects(t.param), F, _without_effects(t.result))
    return t


### whole-configuration typing

@dataclass(frozen=True)
class ConfigType:
    frontend: Type
    effect: bool
    env: Env = field(compare=False, default=Env())


def _ty_stream(units, env: Env, file: str, where: str, allow_add: bool) -> Env:
    for unit in units:
        for label, op in unit.entries:
            if isinstance(op, AddOp) and not allow_add:
                raise _err(file, None, "RT-Stream",
                           f"add operation found inside {where}")
            # operation arguments sit in the graph; they must be phase-F
            for arg, (role, want) in zip(op_args(op), OPERATIONS[type(op)].args):
                t, eff = _ty(arg, env, file)
                if t != want:
                    raise _err(file, arg.loc, "RT-StreamUnit",
                               f"{role} in {where} has type {t}, expected {want}")
                if eff:
                    raise _err(file, arg.loc, "RT-StreamUnit",
                               f"{role} in {where} may emit")
        for label, op in unit.entries:
            if env.lookup_label(label) is not None:
                raise _err(file, None, "RT-Stream",
                           f"label %{label} bound twice in {where}")
            env = cached_env_insert(env, label, OPERATIONS[type(op)].future)
    return env


def type_of_config(config, file: str = "<config>") -> ConfigType:
    """Type a whole configuration, oldest zone first: store, back stations,
    forward stations, top stream, frontend.  Raises on ill-typed input."""
    env = Env()
    seen_labels: set[int] = set()

    def claim_label(label: int, where: str) -> None:
        if label in seen_labels:
            raise _err(file, None, "RT-Configuration",
                       f"label %{label} appears in both {where} and an older zone")
        seen_labels.add(label)

    for label, entry in config.store:
        claim_label(label, "the store")
        vt, ve = _ty(entry.value, Env(), file)
        if ve:
            raise _err(file, None, "RT-Configuration",
                       f"stored value at %{label} may emit")
        env = cached_env_insert(env, label, vt)

    keys_seen: set[str] = set()
    for station in config.backend:
        n = station.node
        if isinstance(n, Node) and isinstance(n.key, Key):
            if n.key.name in keys_seen:
                raise _err(file, None, "RT-Configuration",
                           f"station key #{n.key.name} duplicated")
            keys_seen.add(n.key.name)

    for station in reversed(config.backend):
        n = station.node
        kt, ke = _ty(n.key, env, file)
        pt, pe = _ty(n.payload, env, file)
        at, ae = _ty(n.adj, env, file)
        if kt != KEY or pt != INT or at != KL_T or ke or pe or ae:
            raise _err(file, None, "RT-Station",
                       f"station node components must be key/int/kl without emits, "
                       f"got {kt}/{pt}/{at}")
        for unit in station.streamlet:
            for label, _ in unit.entries:
                claim_label(label, "a streamlet")
        env = _ty_stream(station.streamlet, env, file, "a station streamlet",
                         allow_add=False)

    for unit in config.top:
        for label, _ in unit.entries:
            claim_label(label, "the top stream")
    env = _ty_stream(config.top, env, file, "the top stream", allow_add=True)

    ft, fe = _ty(config.frontend, env, file)
    return ConfigType(ft, fe, env)
