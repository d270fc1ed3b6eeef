"""Seeded program generators for the benchmark.

Every generator returns the `.cg` source together with the frontend value
the program must end with.  That value is computed here by plain Python
arithmetic over the generated payloads, never by the engine, so a run is
checked against a reference that shares no code with what it checks.

Generated graphs are rings: station k<i> has the single neighbour
k<i+1>.  No adjacency list repeats a key, and a relationship added by a
program never names a key already in the list it extends, which is the
precondition under which `assume_set_adjacency` is sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SUM_FOLD = "(fun n: node -> fun acc: int -> payload(n) + acc)"
# claimed commutative, but n - acc is not: the prover must refute the claim
DIFF_FOLD = "(fun n: node -> fun acc: int -> payload(n) - acc)"


@dataclass(frozen=True)
class GenProgram:
    name: str
    source: str
    expected: int  # frontend value, from plain arithmetic
    noncomm_labels: frozenset = frozenset()  # labels of the unsound reuse pair


def _key(i: int) -> str:
    return f"#k{i}"


def _keys(idx) -> str:
    return "[" + ", ".join(_key(i) for i in idx) + "]"


def _ring(payloads: list[int]) -> str:
    n = len(payloads)
    entries = ", ".join(f"{_key(i)}: {p} [{_key((i + 1) % n)}]"
                        for i, p in enumerate(payloads))
    return f"graph [ {entries} ]"


def _map_source(op: str, c: int, idx) -> str:
    return f"mapVal (fun v: node -> payload(v) {op} {c}) {_keys(idx)}"


def _apply(op: str, c: int, p: int) -> int:
    return p + c if op == "+" else p * c


class _Emitter:
    """Frontend statements in emission order; each statement emits exactly
    one operation, so a statement's position is the label it receives."""

    def __init__(self) -> None:
        self.stmts: list[str] = []
        self.results: list[str] = []  # names whose claimed payloads are summed

    def effect(self, text: str) -> int:
        self.stmts.append(f"{text};")
        return len(self.stmts) - 1

    def bind(self, text: str) -> int:
        name = f"r{len(self.results)}"
        self.results.append(name)
        self.stmts.append(f"let {name} = {text} in")
        return len(self.stmts) - 1

    def source(self, graph: str) -> str:
        total = " + ".join(f"payload(claim {r})" for r in self.results) or "0"
        return "\n".join([graph, *self.stmts, total]) + "\n"


def scale_program(n: int, maps: int, rng: random.Random,
                  value_rng: random.Random | None = None) -> GenProgram:
    """A ring of n stations, `maps` mapVal passes over every key, then one
    commutative sum fold over every key.  `rng` draws the shape, `value_rng`
    (default: `rng`) the payloads and constants."""
    value_rng = value_rng or rng
    payloads = [value_rng.randrange(100) for _ in range(n)]
    everyone = range(n)
    em = _Emitter()
    values = list(payloads)
    for _ in range(maps):
        op = "+" if rng.random() < 0.5 else "*"
        c = value_rng.randrange(1, 10) if op == "+" else value_rng.randrange(2, 4)
        em.effect(_map_source(op, c, everyone))
        values = [_apply(op, c, p) for p in values]
    em.bind(f"foldVal commutative {SUM_FOLD} 0 {_keys(everyone)}")
    return GenProgram(f"scale-n{n}", em.source(_ring(payloads)), sum(values))


def mix_program(n: int, blocks: int, rng: random.Random,
                value_rng: random.Random | None = None) -> GenProgram:
    """Operation mix that offers every rewrite rule a window.

    Each block holds three maps over one key subset (fusem), a map over a
    disjoint subset (reorderd), three nested commutative sum folds right
    after it (reorderrw, reuse, reorderrr) and an add/delete relationship
    pair on one key (fusemid under set adjacency).  The program adds one
    overlapping pair of difference folds, claimed commutative but not, on
    which reuse must never fire, and two queries of one node.  `rng` draws
    the shape, `value_rng` (default: `rng`) the payloads and constants."""
    assert n >= 4
    value_rng = value_rng or rng
    payloads = [value_rng.randrange(100) for _ in range(n)]
    values = list(payloads)
    em = _Emitter()
    expected = 0
    noncomm: set[int] = set()

    def do_map(op: str, c: int, idx) -> None:
        em.effect(_map_source(op, c, idx))
        for i in idx:
            values[i] = _apply(op, c, values[i])

    for _ in range(blocks):
        order = list(range(n))
        rng.shuffle(order)
        s1 = sorted(order[:n // 4])
        s2 = sorted(order[n // 4:n // 2])
        do_map("+", value_rng.randrange(1, 10), s1)
        do_map("*", value_rng.randrange(2, 4), s1)
        do_map("+", value_rng.randrange(1, 10), s1)
        do_map("+", value_rng.randrange(1, 10), s2)
        t3 = sorted(rng.sample(range(n), 3 * n // 4))
        t2 = sorted(rng.sample(t3, n // 2))
        t1 = sorted(rng.sample(t2, n // 4))
        for t in (t1, t2, t3):
            em.bind(f"foldVal commutative {SUM_FOLD} 0 {_keys(t)}")
            expected += sum(values[i] for i in t)
        a = rng.randrange(n)
        b = (a + 2 + rng.randrange(n - 3)) % n  # never a's ring neighbour
        em.effect(f"addRelationship {_key(a)} {_key(b)}")
        em.effect(f"deleteRelationship {_key(a)} {_key(b)}")

    u2 = sorted(rng.sample(range(n), n // 2))
    u1 = sorted(rng.sample(u2, n // 4))
    for u in (u1, u2):
        noncomm.add(em.bind(f"foldVal commutative {DIFF_FOLD} 0 {_keys(u)}"))
        acc = 0
        for i in u:  # a fold visits stations in backend order
            acc = values[i] - acc
        expected += acc

    q = rng.randrange(n)
    for _ in range(2):
        em.bind(f"queryNode {_key(q)}")
        expected += values[q]
    return GenProgram(f"mix-n{n}", em.source(_ring(payloads)), expected,
                      frozenset(noncomm))
