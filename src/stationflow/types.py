"""Effect-annotated type checking for expressions and whole configurations.

Every judgment carries an effect flag: False means the term cannot emit
(phase F), True means it may (phase T).  Graph-operation functions must be
emission-free; that single restriction is what keeps the backend closed
under its own evaluation.
"""

from __future__ import annotations

from .parser import SourceError
from .terms import (
    INT, KEY, KL_T, NODE, OPERATIONS,
    AddOp, App, Arith, Claim, Concat, Emit, Expr, Fix, If0, Int, KL, Key,
    Label, Lam, Len, Node, Proj, Subtract, TFun, TFuture, Type, Var,
    children, free_vars, op_args, record,
)

F = False
T = True

# An environment maps each name (a str) and label (an int) in scope to its
# type; a binder extends it as `{**env, name: type}`, leaving `env` as it was.
# Under `type_of_config`, `_READ` maps to a log of the labels read, each with
# its type, in the order read; `_ty_kept` and `_ty_station` take the slice a
# term or a station added.  Typing a term that succeeds reads every label in
# it.  Only `type_of_config` and `_ty_store` put it in `env`.
_READ = None
_LEAVES = frozenset((Var, Int, Key, Label))  # typed afresh, nothing kept


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


def type_of_expr(e: Expr, file: str = "<program>") -> tuple[Type, bool]:
    """Type and effect of a closed expression, or a SourceError diagnostic."""
    return _ty(e, {}, file)


# form -> (rule, the type each operand must have, result type, diagnostic).
# Every operand is typed, left to right, before the first is checked; the
# first one of the wrong type fails with the diagnostic formatted with the
# term `e` and the operand types in order.  A tuple holds one diagnostic per
# operand, placed at that operand; a string serves every operand and is
# placed at the term.
_FIXED = {
    Node: ("T-Node", (KEY, INT, KL_T), NODE, (
        "node key has type {0}, expected key",
        "node payload has type {1}, expected int",
        "node adjacency has type {2}, expected kl")),
    Concat: ("T-KSA", (KL_T, KL_T), KL_T,
             "key-list operator applied to {0} and {1}"),
    Subtract: ("T-KSS", (KL_T, KL_T), KL_T,
               "key-list operator applied to {0} and {1}"),
    Arith: ("T-Arith", (INT, INT), INT, "'{e.op}' applied to {0} and {1}"),
    Len: ("T-Len", (KL_T,), INT, "len argument has type {0}, expected kl"),
}


def _ty(e: Expr, env: dict, file: str) -> tuple[Type, bool]:
    # every form recurses from here: one frame per term level, and one more
    # through `_ty_kept` under `type_of_config`
    cls = type(e)
    if cls is Var:
        t = env.get(e.name)
        if t is None:
            raise _err(file, e.loc, "T-Var", f"name {e.name!r} is not in scope")
        return t, F
    if cls is Int:
        return INT, F
    if cls is Key:
        return KEY, F
    if cls is Label:
        t = env.get(e.index)
        if t is None:
            raise _err(file, e.loc, "RT-Future",
                       f"label %{e.index} is not bound here (forward reference?)")
        log = env.get(_READ)
        if log is not None:
            log.append((e.index, t))
        return t, F
    # a compound term types its subterms with `ty`, which under
    # `type_of_config` reads and keeps each one's type
    ty = _ty_kept if _READ in env else _ty
    if cls is App:
        fn, arg = e.fn, e.arg
        if type(fn) is Lam and fn.ptype is None:
            # let-binding: the abstraction exists only to be applied right here
            bt, be = ty(arg, env, file)
            rt, re_ = ty(fn.body, {**env, fn.param: bt}, file)
            return rt, be or re_
        ft, fe = ty(fn, env, file)
        at, ae = ty(arg, env, file)
        if not isinstance(ft, TFun):
            raise _err(file, e.loc, "T-App", f"cannot apply a value of type {ft}")
        if ft.param != at:
            raise _err(file, arg.loc or e.loc, "T-App",
                       f"argument has type {at}, expected {ft.param}")
        return ft.result, ft.eff or fe or ae
    row = _FIXED.get(cls)
    if row is not None:
        rule, wants, result, diagnostic = row
        operands = children(e)
        types: list[Type] = []
        eff = F
        for c in operands:
            t, ce = ty(c, env, file)
            types.append(t)
            eff = eff or ce
        for i, (c, t, want) in enumerate(zip(operands, types, wants)):
            if t != want:
                at_operand = isinstance(diagnostic, tuple)
                raise _err(file, at_operand and c.loc or e.loc, rule,
                           (diagnostic[i] if at_operand else diagnostic)
                           .format(*types, e=e))
        return result, eff
    if cls is Lam:
        if e.ptype is None:
            raise _err(file, e.loc, "T-Abs",
                       f"parameter {e.param!r} needs a type annotation")
        rt, re_ = ty(e.body, {**env, e.param: e.ptype}, file)
        return TFun(e.ptype, re_, rt), F
    if cls is Proj:
        at, ae = ty(e.arg, env, file)
        if at != NODE:
            raise _err(file, e.loc, f"T-ENode{e.index}",
                       f"projection argument has type {at}, expected node")
        return (KEY, INT, KL_T)[e.index - 1], ae
    if cls is KL:
        eff = F
        for item in e.items:
            it, ie = ty(item, env, file)
            if it != KEY:
                raise _err(file, item.loc or e.loc, "T-KS",
                           f"key list element has type {it}, expected key")
            eff = eff or ie
        return KL_T, eff
    if cls is Claim:
        at, ae = ty(e.arg, env, file)
        if not isinstance(at, TFuture):
            raise _err(file, e.loc, "T-Claim",
                       f"claim argument has type {at}, expected a future")
        return at.inner, ae
    if cls is If0:
        st, se = ty(e.scrut, env, file)
        if st != INT:
            raise _err(file, e.scrut.loc or e.loc, "T-If0",
                       f"condition has type {st}, expected int")
        tt, te = ty(e.then, env, file)
        et, ee = ty(e.els, env, file)
        if tt != et:
            raise _err(file, e.loc, "T-If0", f"branches disagree: {tt} versus {et}")
        return tt, se or te or ee
    if cls is Fix:
        ft, fe = ty(e.fn, env, file)
        if not (isinstance(ft, TFun) and ft.param == ft.result):
            raise _err(file, e.loc, "T-Fix",
                       f"fix needs a function from a type to itself, got {ft}")
        return ft.param, ft.eff or fe
    if cls is Emit:
        kind = OPERATIONS[type(e.op)]
        rule = f"T-{kind.keyword.capitalize()}"
        for arg, (role, want) in zip(op_args(e.op), kind.args):
            t, _ = ty(arg, env, file)
            if t == want:
                continue
            if _without_effects(t) == want:
                raise _err(file, _find_emit_loc(arg) or arg.loc or e.loc, rule,
                           f"{role} may emit; graph operations must be emission-free")
            raise _err(file, arg.loc or e.loc, rule,
                       f"add takes an int payload, got {t}" if isinstance(e.op, AddOp)
                       else f"{role} has type {t}, expected {want}")
        return kind.future, T
    raise TypeError(e)


def _ty_kept(e: Expr, env: dict, file: str) -> tuple[Type, bool]:
    """`_ty(e, env, file)` for a term of a configuration and each of its
    subterms.  A compound term keeps its type and effect (see `state`) with
    the labels it reads, in the order read, then its free names, sorted,
    and the types `env` gave them, and is read again wherever `env` gives
    them the same types: nothing else in `env` reaches the term.  Either
    way the labels it reads join the log, each with its type.  A failure
    is not kept."""
    if type(e) in _LEAVES:
        return _ty(e, env, file)
    log = env[_READ]
    memo = e.__dict__
    hit = memo.get("_ty")
    if hit is not None:
        keys, types, read, out = hit
        if tuple(map(env.get, keys)) == types:
            log += read
            return out
    start = len(log)
    out = _ty(e, env, file)
    labels = dict(log[start:])
    names = sorted(free_vars(e))
    memo["_ty"] = ((*labels, *names), (*labels.values(), *map(env.get, names)),
                   tuple(labels.items()), out)
    return out


def _without_effects(t: Type) -> Type:
    """`t` with every arrow marked emission-free."""
    if isinstance(t, TFun):
        return TFun(_without_effects(t.param), F, _without_effects(t.result))
    return t


### whole-configuration typing

@record
class ConfigType:
    frontend: Type
    effect: bool


def _ty_stream(units, env: dict, file: str, where: str, allow_add: bool) -> None:
    """Type each unit's operations under `env`, then bind its labels there."""
    for unit in units:
        for label, op in unit.entries:
            if isinstance(op, AddOp) and not allow_add:
                raise _err(file, None, "RT-Stream",
                           f"add operation found inside {where}")
            # operation arguments sit in the graph; they must be phase-F
            for arg, (role, want) in zip(op_args(op), OPERATIONS[type(op)].args):
                t, eff = _ty_kept(arg, env, file)
                if t != want:
                    raise _err(file, arg.loc, "RT-StreamUnit",
                               f"{role} in {where} has type {t}, expected {want}")
                if eff:
                    raise _err(file, arg.loc, "RT-StreamUnit",
                               f"{role} in {where} may emit")
        for label, op in unit.entries:
            env[label] = OPERATIONS[type(op)].future


def _claim(seen: set[int], labels, where: str, file: str) -> None:
    """Add `labels` to the labels `seen` in older zones, none twice."""
    for label in labels:
        if label in seen:
            raise _err(file, None, "RT-Configuration",
                       f"label %{label} appears in both {where} and an older zone")
        seen.add(label)


# the store tuple `type_of_config` typed last, with the type each of its
# labels is bound at; a step that writes no result carries the tuple over,
# and holding it here keeps its identity from passing to another tuple
_store_typed: tuple = ((), {})


def _ty_store(store, file: str) -> dict:
    """The type each label of `store` is bound at, derived once per store."""
    global _store_typed
    if store is _store_typed[0]:
        return _store_typed[1]
    env: dict = {}
    seen: set[int] = set()
    for label, entry in store:
        _claim(seen, (label,), "the store", file)
        vt, ve = _ty_kept(entry.value, {_READ: []}, file)
        if ve:
            raise _err(file, None, "RT-Configuration",
                       f"stored value at %{label} may emit")
        env[label] = vt if isinstance(vt, TFuture) else TFuture(vt)
    _store_typed = store, env
    return env


def _ty_station(station, env: dict, seen: set[int], file: str) -> None:
    """Type a back station under `env`, then claim its labels and bind them
    there.  Kept on the immutable station (see `state`) with the labels it
    reads from older zones, their types and the future each of its labels
    is bound at, and read again wherever `env` gives those labels the same
    types; the labels are claimed on every call."""
    hit = station.__dict__.get("_ty")
    if hit is not None and tuple(map(env.get, hit[0])) == hit[1]:
        _claim(seen, hit[2], "a streamlet", file)
        env.update(hit[2])
        return
    log = env[_READ]
    start = len(log)
    n = station.node
    kt, ke = _ty_kept(n.key, env, file)
    pt, pe = _ty_kept(n.payload, env, file)
    at, ae = _ty_kept(n.adj, env, file)
    if kt != KEY or pt != INT or at != KL_T or ke or pe or ae:
        raise _err(file, None, "RT-Station",
                   f"station node components must be key/int/kl without emits, "
                   f"got {kt}/{pt}/{at}")
    units = station.streamlet
    _claim(seen, [label for unit in units for label, _ in unit.entries],
           "a streamlet", file)
    _ty_stream(units, env, file, "a station streamlet", allow_add=False)
    binds = {label: OPERATIONS[type(op)].future
             for unit in units for label, op in unit.entries}
    read = dict(log[start:])
    older = [label for label in read if label not in binds]
    station.__dict__["_ty"] = (
        tuple(older), tuple(map(read.get, older)), binds)


def type_of_config(config, file: str = "<config>") -> ConfigType:
    """Type a whole configuration, oldest zone first: store, back stations,
    forward stations, top stream, frontend.  Raises on ill-typed input.
    Each label is bound at the future of its eventual value type.  The
    store, each back station and each compound term keeps what typing it
    found, so a call after a step types only what the step built."""
    env = dict(_ty_store(config.store, file))
    seen = set(env)
    env[_READ] = []

    keys_seen: set[str] = set()
    for station in config.backend:
        n = station.node
        if isinstance(n, Node) and isinstance(n.key, Key):
            if n.key.name in keys_seen:
                raise _err(file, None, "RT-Configuration",
                           f"station key #{n.key.name} duplicated")
            keys_seen.add(n.key.name)

    for station in reversed(config.backend):
        _ty_station(station, env, seen, file)

    _claim(seen, [label for unit in config.top for label, _ in unit.entries],
           "the top stream", file)
    _ty_stream(config.top, env, file, "the top stream", allow_add=True)

    ft, fe = _ty_kept(config.frontend, env, file)
    return ConfigType(ft, fe)
