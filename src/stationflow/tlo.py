"""Stream rewriting inside station streamlets.

Every rewrite acts on a contiguous window of one streamlet and may settle
some labels directly into the store.  Candidates are discovered in a fixed
order so seeded schedulers replay exactly.  `candidates` builds them afresh
on every call.  The provers are pure and a window's candidates read only its
two units, so `engine.run` keeps them window by window and rebuilds only the
windows a step changed.  A pair rule's verdict depends on operation functions
only up to the names of bound variables, so it is kept for the process in one
bounded table keyed by their `to_sexpr` text (`_verdict`); the compensation
function reorderrw builds is kept on the map operation (`_dcomp_kept`).
"""

from __future__ import annotations

from .state import (
    Configuration, Station, StoreEntry, Unit, evolve, merge_results, singleton,
    target,
)
from .terms import (
    NODE, App, Claim, Concat, Expr, FoldOp, If0, Int, KL, Key, Label, Lam,
    Len, MapOp, Node, Proj, Subtract, Var, alpha_equiv, compose,
    eta_contract, fresh_names, kl_subtract, normalize, record, term_equiv,
    to_sexpr, transform,
)
# unused here, but perfbench/layers.py counts the calls at this binding
from .terms import free_vars  # noqa: F401

RULE_NAMES = ("batch", "unbatch", "reorderd", "reorderrr", "reorderrw",
              "fusem", "fusemid", "reuse")


@record
class Candidate:
    rule: str
    station: int
    start: int          # window offset in the streamlet
    length: int         # window width in units
    replacement: tuple[Unit, ...]
    results: tuple[tuple[int, StoreEntry], ...]
    labels: tuple[int, ...]
    split: int = 0      # unbatch only


def _single(unit: Unit):
    return unit.entries[0] if len(unit.entries) == 1 else None


def candidates(config: Configuration, rules: tuple[str, ...] | None = None,
               assume_set_adjacency: bool = False) -> list[Candidate]:
    """Every rewrite that applies now, station by station in backend order."""
    enabled = RULE_NAMES if rules is None else tuple(rules)
    out: list[Candidate] = []
    for si, station in enumerate(config.backend):
        found = station_windows(station, enabled, assume_set_adjacency, {})
        out.extend(Candidate(rule, si, j, *rest)
                   for j, window in enumerate(found) for rule, *rest in window)
    return out


def station_windows(station: Station, enabled: tuple[str, ...],
                    assume_set_adjacency: bool, windows: dict) -> list[tuple]:
    """`window_candidates` of the window at each unit of the streamlet.
    `windows` maps a window's two unit identities to the units, so no other
    unit takes those, and what they gave under the same rules and adjacency
    setting; this streamlet's entries are reused, all others dropped."""
    old = windows.copy()
    windows.clear()
    out = []
    sl = station.streamlet
    for j, unit in enumerate(sl):
        nxt = sl[j + 1] if j + 1 < len(sl) else None
        key = (id(unit), id(nxt))
        hit = old.get(key)
        if hit is None:
            hit = unit, nxt, window_candidates(unit, nxt, enabled,
                                               assume_set_adjacency)
        windows[key] = hit
        out.append(hit[2])
    return out


# (prover, argument texts) -> verdict, for the process; emptied when full
_VERDICTS: dict[tuple, object] = {}
_VERDICT_BOUND = 4096


def _verdict(prove, *args):
    """`prove(*args)`, kept under `prove` and the `to_sexpr` text of each
    term argument; a bool argument enters the key as it is."""
    key = (prove, *[a if type(a) is bool else to_sexpr(a) for a in args])
    hit = _VERDICTS.get(key)
    if hit is None:
        if len(_VERDICTS) >= _VERDICT_BOUND:
            _VERDICTS.clear()
        hit = _VERDICTS[key] = prove(*args)
    return hit


def _reusable(f1: Expr, f2: Expr) -> bool:
    """The fold-function half of `reuse`'s condition."""
    return alpha_equiv(f1, f2) and prove_commutative(f1) == "proved"


def _fused(f2: Expr, f1: Expr, assume_set_adjacency: bool) -> str:
    """`prove_identity` of the map `f1` then `f2`, keyed by the two texts
    rather than the longer one of their composition."""
    return prove_identity(compose(f2, f1), assume_set_adjacency)


def _dcomp_kept(m: MapOp, outer: Expr) -> Expr:
    """`dcomp` of `outer` around map `m`, kept on `m` (see `state`) for each
    fold function it meets, by identity; an entry holds its `outer`, so no
    other term takes that identity."""
    kept = m.__dict__.setdefault("_dcomp", {})
    hit = kept.get(id(outer))
    if hit is None:
        hit = kept[id(outer)] = outer, dcomp(outer, m.ks.items, m.fn)
    return hit[1]


def window_candidates(unit: Unit, nxt: Unit | None, enabled: tuple[str, ...],
                      assume_set_adjacency: bool) -> tuple[tuple, ...]:
    """The rewrites of the window at `unit`, `nxt` the unit after it (None
    at the tail): `unit`'s unbatch splits, then the pair rules, each as the
    `Candidate` fields after station and start, which it does not read."""
    out: list[tuple] = []
    if "unbatch" in enabled and len(unit.entries) >= 2:
        for split in range(1, len(unit.entries)):
            left = Unit(unit.entries[:split])
            right = Unit(unit.entries[split:])
            out.append(("unbatch", 1, (left, right), (), unit.labels(), split))
    if nxt is None:
        return tuple(out)
    if "batch" in enabled:
        out.append(("batch", 2, (Unit(unit.entries + nxt.entries),), (),
                    unit.labels() + nxt.labels()))
    a, b = _single(unit), _single(nxt)
    if a is None or b is None:
        return tuple(out)
    (l1, o1), (l2, o2) = a, b
    t1, t2 = target(o1), target(o2)
    if "reorderd" in enabled and t1 is not None and t2 is not None \
            and not (set(t1) & set(t2)):
        out.append(("reorderd", 2, (nxt, unit), (), (l1, l2)))
    if "reorderrr" in enabled and isinstance(o1, FoldOp) and isinstance(o2, FoldOp):
        out.append(("reorderrr", 2, (nxt, unit), (), (l1, l2)))
    if "reorderrw" in enabled and isinstance(o1, MapOp) and isinstance(o2, FoldOp):
        if t1 is not None:
            comp = _dcomp_kept(o1, o2.fn)
            new_fold = singleton(l2, FoldOp(comp, o2.base, o2.ks))
            out.append(("reorderrw", 2, (new_fold, unit), (), (l1, l2)))
    if ({"fusem", "fusemid"} & set(enabled)) and isinstance(o1, MapOp) \
            and isinstance(o2, MapOp) and o1.ks == o2.ks:
        verdict = _verdict(_fused, o2.fn, o1.fn, assume_set_adjacency)
        if "fusem" in enabled and verdict == "refuted":
            fused = singleton(l1, MapOp(compose(o2.fn, o1.fn), o1.ks))
            out.append(("fusem", 2, (fused,),
                        ((l2, StoreEntry(Int(0), ())),), (l1, l2)))
        if "fusemid" in enabled and verdict == "proved":
            out.append(("fusemid", 2, (),
                        ((l1, StoreEntry(Int(0), ())),
                         (l2, StoreEntry(Int(0), ()))), (l1, l2)))
    if "reuse" in enabled and isinstance(o1, FoldOp) and isinstance(o2, FoldOp):
        if (t1 is not None and t2 is not None and set(t1) <= set(t2)
                and _verdict(_reusable, o1.fn, o2.fn)
                and alpha_equiv(o1.base, o2.base)):
            shrunk = KL(kl_subtract(o2.ks.items, o1.ks.items))
            second = singleton(l2, FoldOp(o2.fn, Claim(Label(l1)), shrunk))
            out.append(("reuse", 2, (unit, second), (), (l1, l2)))
    return tuple(out)


def apply_rewrite(config: Configuration,
                  cand: Candidate) -> tuple[Configuration, list[int]]:
    station = config.backend[cand.station]
    sl = station.streamlet
    new_sl = sl[:cand.start] + cand.replacement + sl[cand.start + cand.length:]
    station = Station(station.node, new_sl)
    backend = (config.backend[:cand.station] + (station,)
               + config.backend[cand.station + 1:])
    config = evolve(config, backend=backend)
    return merge_results(config, dict(cand.results)), list(cand.labels)


### the compensation combinator

def dcomp(outer: Expr, keys: tuple[Key, ...], inner: Expr) -> Expr:
    """Fold function that first applies `inner` to nodes whose key lies in
    `keys`, then runs `outer`; key membership compiles to one zero test,
    the length of the node's key minus `keys`."""
    x, y = fresh_names(("x", "y"), outer, inner)
    vx = Var(x)
    test = Len(Subtract(KL((Proj(1, vx),)), KL(keys)))
    body = App(App(outer, If0(test, App(inner, vx), vx)), Var(y))
    return Lam(x, NODE, Lam(y, NODE, body))


### oracles

_PROBES = (
    Node(Key("@p0"), Int(17), KL((Key("@p1"),))),
    Node(Key("@p1"), Int(0), KL(())),
    Node(Key("@p2"), Int(-3), KL((Key("@p0"), Key("@p1")))),
)

_IDENTITY = Lam("x", NODE, Var("x"))


def _collapse_rebuild(e: Expr) -> Expr:
    # a node rebuilt from its own projections is that node
    def fix(x: Expr) -> Expr:
        match x:
            case Node(Proj(1, a), Proj(2, b), Proj(3, c)) if a == b == c:
                return a
        return x

    return transform(e, fix)


def _drop_set_adjacency(e: Expr) -> Expr:
    # (ks ++ [k..]) \ [k..] collapses when adjacency is read as a set
    def fix(x: Expr) -> Expr:
        match x:
            case Subtract(Concat(a, KL(ks)), KL(ks2)) if ks == ks2:
                return a
        return x

    return transform(e, fix)


def _simplify(e: Expr, assume_set_adjacency: bool) -> Expr:
    for _ in range(8):
        nxt = _collapse_rebuild(eta_contract(e))
        if assume_set_adjacency:
            nxt = _drop_set_adjacency(nxt)
        if nxt == e:
            return e
        e = nxt
    return e


def prove_identity(fn: Expr, assume_set_adjacency: bool = False) -> str:
    """proved / refuted / unknown for `fn` being the node identity."""
    norm, done = normalize(fn)
    cand = _simplify(norm if done else fn, assume_set_adjacency)
    verdict = term_equiv(cand, _IDENTITY)
    if verdict == "equal":
        return "proved"
    for probe in _PROBES:
        out, ok = normalize(App(fn, probe))
        if ok and out != probe:
            return "refuted"
    return "unknown"


def prove_commutative(fn: Expr) -> str:
    """The annotation carries the claim; probing can only take it away."""
    if not (isinstance(fn, Lam) and fn.commutative):
        return "unknown"
    # visit-order invariance is the interchange law f x (f y z) = f y (f x z);
    # the literal swap f x y = f y x is too strong, a payload fold threads the
    # base node through its accumulator and always differs on the key slot
    for a in _PROBES:
        for b in _PROBES:
            for z in _PROBES:
                lhs, ok1 = normalize(App(App(fn, a), App(App(fn, b), z)))
                rhs, ok2 = normalize(App(App(fn, b), App(App(fn, a), z)))
                if ok1 and ok2 and lhs != rhs:
                    return "refuted"
    return "proved"
