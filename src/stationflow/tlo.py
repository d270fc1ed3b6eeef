"""Stream rewriting inside station streamlets.

Every rewrite acts on a contiguous window of one streamlet and may settle
some labels directly into the store.  Batch and unbatch read only unit
sizes; the six rules of two single-operation units are the rows of
`PAIR_RULES`.  A window's entries are specs, a rule name with the split for
unbatch, in a fixed order so seeded schedulers replay: `window_candidates`
decides only the side conditions, and `candidate` builds the one
`Candidate` a scheduler draws, its replacement, results and labels, those
of the units it reads; `candidates` builds them all afresh.  A rewrite is
named by its window's position, a station and a start unit.  The provers
are pure and a window's entries read only its two units, so `engine.steps`
keeps a list of windows per station, each with its units
(`station_windows`), and derives again only those whose units a step
replaced; a Load gives a fold a new base, which only reuse's side condition
reads (`rebase_windows`).  A pair rule's verdict depends on operation
functions only up to the names of bound variables, so it is kept for the
process in one bounded table keyed by their `to_sexpr` text (`_verdict`);
reorderrw's `dcomp` is not kept.
"""

from __future__ import annotations

from .state import (
    Configuration, Station, StoreEntry, Unit, merge_results, singleton, target,
    with_backend,
)
from .terms import (
    NODE, OPERATIONS, App, Claim, Concat, Expr, FoldOp, If0, Int, KL, Key,
    Label, Lam, Len, MapOp, Node, Proj, Subtract, Var, alpha_equiv, compose,
    eta_contract, fresh_names, kl_subtract, normalize, record, term_equiv,
    to_sexpr, transform,
)
# unused here, but perfbench/layers.py counts the calls at this binding
from .terms import free_vars  # noqa: F401


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


def candidates(config: Configuration, rules: tuple[str, ...] | None = None,
               assume_set_adjacency: bool = False) -> list[Candidate]:
    """Every rewrite that applies now, station by station in backend order."""
    enabled = RULE_NAMES if rules is None else tuple(rules)
    out: list[Candidate] = []
    for si, station in enumerate(config.backend):
        windows = station_windows(station, enabled, assume_set_adjacency)
        out.extend(candidate(spec, si, j, station.streamlet)
                   for j, (_, _, specs) in enumerate(windows) for spec in specs)
    return out


def _window(sl: tuple[Unit, ...], j: int) -> tuple[Unit, Unit | None]:
    """The units of the window at unit `j` of `sl`; None past the tail."""
    return sl[j], sl[j + 1] if j + 1 < len(sl) else None


def station_windows(station: Station, enabled: tuple[str, ...],
                    assume_set_adjacency: bool, old=()) -> list[tuple]:
    """The window at each unit of the streamlet, in order: its unit, the
    unit after it (None at the tail) and their `window_candidates`.  An
    entry of `old`, this list for an earlier streamlet of the station under
    the same rules and adjacency setting, is reused where its two units are
    the same objects; `old` holds them, so no other unit takes those
    identities."""
    kept = {(id(w[0]), id(w[1])): w for w in old}
    sl = station.streamlet
    return [kept.get((id(unit), id(nxt))) or (unit, nxt, window_candidates(
                unit, nxt, enabled, assume_set_adjacency))
            for unit, nxt in zip(sl, sl[1:] + (None,))]


def rebase_windows(sl: tuple[Unit, ...], j: int, enabled: tuple[str, ...],
                   assume_set_adjacency: bool, found: list[tuple]) -> int:
    """Carry `station_windows`' result `found` over a Load that gave the
    fold at unit `j` of streamlet `sl` a new base.  Of the side conditions
    only reuse's reads a base, and reuse is the last row of `PAIR_RULES`,
    so a window of two folds keeps its entries but a trailing reuse, which
    is tested again; returns the change in the number of entries."""
    added = 0
    for k in (j - 1, j) if j else (j,):
        unit, nxt = _window(sl, k)
        specs = found[k][2]
        if nxt is not None and "reuse" in enabled and _folds(unit, nxt):
            (_, o1), (_, o2) = unit.entries[0], nxt.entries[0]
            had = specs[-1:] == (("reuse", 0),)
            if had != PAIR_RULES["reuse"][1](o1, o2, target(o1), target(o2),
                                             assume_set_adjacency):
                specs = specs[:-1] if had else specs + (("reuse", 0),)
                added += -1 if had else 1
        found[k] = unit, nxt, specs
    return added


def _folds(*units: Unit) -> bool:
    """Each unit holds one fold."""
    return all(len(u.entries) == 1 and isinstance(u.entries[0][1], FoldOp)
               for u in units)


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


def _swap(u1, u2, *_):
    return (u2, u1), ()


# rule -> (the classes of its two operations, None for any; its side
# condition on them, their targets and the adjacency setting; its function
# from the two units and their entries to the replacement and the results)
PAIR_RULES = {
    "reorderd": ((None, None), lambda o1, o2, t1, t2, _: (
        t1 is not None and t2 is not None and not (set(t1) & set(t2))), _swap),
    "reorderrr": ((FoldOp, FoldOp), lambda *_: True, _swap),
    "reorderrw": ((MapOp, FoldOp), lambda o1, o2, t1, t2, _: t1 is not None,
                  lambda u1, u2, l1, o1, l2, o2: ((singleton(l2, FoldOp(
                      dcomp(o2.fn, o1.ks.items, o1.fn), o2.base, o2.ks)), u1), ())),
    "fusem": ((MapOp, MapOp), lambda o1, o2, t1, t2, adj: o1.ks == o2.ks
              and _verdict(_fused, o2.fn, o1.fn, adj) == "refuted",
              lambda u1, u2, l1, o1, l2, o2: (
                  (singleton(l1, MapOp(compose(o2.fn, o1.fn), o1.ks)),),
                  ((l2, StoreEntry(Int(0), ())),))),
    "fusemid": ((MapOp, MapOp), lambda o1, o2, t1, t2, adj: o1.ks == o2.ks
                and _verdict(_fused, o2.fn, o1.fn, adj) == "proved",
                lambda u1, u2, l1, o1, l2, o2: ((), (
                    (l1, StoreEntry(Int(0), ())), (l2, StoreEntry(Int(0), ()))))),
    "reuse": ((FoldOp, FoldOp), lambda o1, o2, t1, t2, _: (
        t1 is not None and t2 is not None and set(t1) <= set(t2)
        and _verdict(_reusable, o1.fn, o2.fn) and alpha_equiv(o1.base, o2.base)),
        lambda u1, u2, l1, o1, l2, o2: ((u1, singleton(l2, FoldOp(
            o2.fn, Claim(Label(l1)), KL(kl_subtract(o2.ks.items, o1.ks.items))))), ())),
}
RULE_NAMES = ("batch", "unbatch", *PAIR_RULES)


def check_rules(rules: tuple[str, ...]) -> None:
    """Raise ValueError unless a run can draw from `rules`: each is one of
    `RULE_NAMES`, and `batch` comes with `unbatch`."""
    for r in rules:
        if r not in RULE_NAMES:
            raise ValueError(
                f"unknown rewrite rule {r!r}; known: {', '.join(RULE_NAMES)}")
    if "batch" in rules and "unbatch" not in rules:
        raise ValueError(
            "rewrite rule 'batch' needs 'unbatch': a batched unit takes only "
            "Prop, so at the last station only an unbatch lets it settle")

# (class, class) -> (rule, side condition) of each row taking the two in turn
_ROWS = {(k1, k2): tuple((r, holds) for r, ((c1, c2), holds, _) in PAIR_RULES.items()
                         if c1 in (None, k1) and c2 in (None, k2))
         for k1 in OPERATIONS for k2 in OPERATIONS}


def window_candidates(unit: Unit, nxt: Unit | None, enabled: tuple[str, ...],
                      assume_set_adjacency: bool) -> tuple[tuple[str, int], ...]:
    """The rewrites of the window at `unit`, `nxt` the unit after it (None
    at the tail): `unit`'s unbatch splits, batch, then in order the rows of
    `PAIR_RULES` whose side condition holds.  Each is an entry for
    `candidate`, its rule and split (0 but for unbatch)."""
    out: list[tuple[str, int]] = []
    if "unbatch" in enabled and len(unit.entries) >= 2:
        out.extend(("unbatch", split) for split in range(1, len(unit.entries)))
    if nxt is None:
        return tuple(out)
    if "batch" in enabled:
        out.append(("batch", 0))
    if len(unit.entries) == 1 == len(nxt.entries):
        (_, o1), (_, o2) = unit.entries[0], nxt.entries[0]
        t1, t2 = target(o1), target(o2)
        for name, holds in _ROWS[type(o1), type(o2)]:
            if name in enabled and holds(o1, o2, t1, t2, assume_set_adjacency):
                out.append((name, 0))
    return tuple(out)


def candidate(spec: tuple[str, int], station: int, start: int,
              sl: tuple[Unit, ...]) -> Candidate:
    """The candidate of window entry `spec` at unit `start` of `sl`, the
    streamlet of station `station`."""
    rule, split = spec
    unit, nxt = _window(sl, start)
    results = ()
    if rule == "unbatch":
        replacement = Unit(unit.entries[:split]), Unit(unit.entries[split:])
    elif rule == "batch":
        replacement = Unit(unit.entries + nxt.entries),
    else:
        replacement, results = PAIR_RULES[rule][2](
            unit, nxt, *unit.entries[0], *nxt.entries[0])
    length = 1 if rule == "unbatch" else 2
    labels = tuple(l for u in sl[start:start + length] for l, _ in u.entries)
    return Candidate(rule, station, start, length, replacement, results,
                     labels, split)


def apply_rewrite(config: Configuration,
                  cand: Candidate) -> tuple[Configuration, list[int]]:
    station = config.backend[cand.station]
    sl = station.streamlet
    new_sl = sl[:cand.start] + cand.replacement + sl[cand.start + cand.length:]
    station = Station(station.node, new_sl)
    backend = (config.backend[:cand.station] + (station,)
               + config.backend[cand.station + 1:])
    config = with_backend(config, backend)
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
    # base node through its accumulator and always differs on the key slot.
    # Each side is normalized once, keyed by the probes' positions, and the
    # two sides are one term where x and y are one probe.
    sides: dict[tuple[int, int, int], tuple[Expr, bool]] = {}

    def side(x: int, y: int, z: int) -> tuple[Expr, bool]:
        out = sides.get((x, y, z))
        if out is None:
            out = sides[x, y, z] = normalize(
                App(App(fn, _PROBES[x]), App(App(fn, _PROBES[y]), _PROBES[z])))
        return out

    probes = range(len(_PROBES))
    for a in probes:
        for b in probes:
            if a == b:
                continue
            for z in probes:
                lhs, ok1 = side(a, b, z)
                rhs, ok2 = side(b, a, z)
                if ok1 and ok2 and lhs != rhs:
                    return "refuted"
    return "proved"
