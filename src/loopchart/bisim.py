"""Bisimulation checking, partition refinement, collapse, and a brute-force oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .charts import Chart, UnknownVertex, reach, reachable


class CapExceeded(Exception):
    pass


Pair = tuple[int, int]


@dataclass
class BisimReport:
    ok: bool
    clause: Optional[str] = None  # "start" | "termination" | "forth" | "back"
    pair: Optional[Pair] = None
    detail: str = ""


def check_relation_bisim(c1: Chart, c2: Chart, pairs: set[Pair]) -> BisimReport:
    """Check that `pairs` relates the start vertices of c1 and c2 and meets
    the forth/back/termination clauses between them."""
    for u, v in pairs:
        if u not in c1.vertices or v not in c2.vertices:
            raise UnknownVertex((u, v))
    if (c1.start, c2.start) not in pairs:
        return BisimReport(False, "start", (c1.start, c2.start),
                           "start vertices not related")
    for u, v in sorted(pairs):
        if (u in c1.terminating) != (v in c2.terminating):
            return BisimReport(False, "termination", (u, v),
                               "termination flags differ")
        out1, out2 = c1.out(u), c2.out(v)
        for _, label, u1 in out1:
            if not any(label == l2 and (u1, v1) in pairs for _, l2, v1 in out2):
                return BisimReport(False, "forth", (u, v),
                                   f"no matching {label}-step on the right")
        for _, label, v1 in out2:
            if not any(label == l1 and (u1, v1) in pairs for _, l1, u1 in out1):
                return BisimReport(False, "back", (u, v),
                                   f"no matching {label}-step on the left")
    return BisimReport(True)


def _refine(charts: list[Chart]) -> dict[tuple[int, int], int]:
    """Partition refinement on the disjoint union of `charts`.

    Vertices are tagged (chart index, id); the initial split is by the
    termination flag; blocks are refined by step signatures until stable.
    Returns vertex -> block id for the coarsest bisimulation equivalence.
    """
    verts = [(i, v) for i, c in enumerate(charts) for v in sorted(c.vertices)]
    outs = {(i, v): [(label, (i, w)) for _, label, w in charts[i].out(v)]
            for i, v in verts}
    block = {x: int(x[1] in charts[x[0]].terminating) for x in verts}
    while True:
        signatures = {
            x: (block[x], frozenset((label, block[y]) for label, y in outs[x]))
            for x in verts
        }
        renumber: dict = {}
        new_block = {}
        for x in verts:
            sig = signatures[x]
            if sig not in renumber:
                renumber[sig] = len(renumber)
            new_block[x] = renumber[sig]
        if len(set(new_block.values())) == len(set(block.values())):
            return new_block
        block = new_block


def bisimilar(c1: Chart, c2: Chart) -> Optional[set[Pair]]:
    """A bisimulation relating the start vertices, or None."""
    block = _refine([c1, c2])
    if block[(0, c1.start)] != block[(1, c2.start)]:
        return None
    return {(u, v)
            for u in c1.vertices for v in c2.vertices
            if block[(0, u)] == block[(1, v)]}


def check_functional_bisim(c1: Chart, c2: Chart,
                           f: dict[int, int]) -> BisimReport:
    """Check that the graph of the (partial) map f is a bisimulation: the
    report `check_relation_bisim` gives on it, in time linear in the
    transitions, since a step from u matches only a step to f's image."""
    if not all(u in c1.vertices and v in c2.vertices for u, v in f.items()):
        return check_relation_bisim(c1, c2, set(f.items()))  # raises alike
    if f.get(c1.start) != c2.start:
        return BisimReport(False, "start", (c1.start, c2.start),
                           "start vertices not related")
    for u in sorted(f):
        v = f[u]
        if (u in c1.terminating) != (v in c2.terminating):
            return BisimReport(False, "termination", (u, v),
                               "termination flags differ")
        out1 = c1.out(u)
        for _, label, u1 in out1:
            if u1 not in f or (v, label, f[u1]) not in c2.transitions:
                return BisimReport(False, "forth", (u, v),
                                   f"no matching {label}-step on the right")
        images = {(label, f[u1]) for _, label, u1 in out1 if u1 in f}
        for _, label, v1 in c2.out(v):
            if (label, v1) not in images:
                return BisimReport(False, "back", (u, v),
                                   f"no matching {label}-step on the left")
    return BisimReport(True)


def collapse(c: Chart) -> tuple[Chart, dict[int, int]]:
    """Quotient of reachable(c) by its coarsest self-bisimulation.

    Returns the collapsed chart and the vertex map onto it.
    """
    r = reachable(c)
    block = _refine([r])
    # dense new ids in BFS discovery order of block representatives
    order = dict.fromkeys(block[(0, v)] for v in reach(r.out_index().get, [r.start]))
    new_id = {b: i for i, b in enumerate(order)}
    qmap = {v: new_id[block[(0, v)]] for v in r.vertices}
    quotient = Chart(
        alphabet=r.alphabet,
        start=qmap[r.start],
        vertices=frozenset(new_id.values()),
        transitions=frozenset((qmap[v], label, qmap[w])
                              for v, label, w in r.transitions),
        terminating=frozenset(qmap[v] for v in r.terminating),
        annotations={qmap[v]: a for v, a in sorted(r.annotations.items())},
    )
    return quotient, qmap


def naive_bisim_oracle(c1: Chart, c2: Chart, cap: int = 60) -> set[Pair]:
    """Greatest bisimulation between c1 and c2 by iterated pruning of the
    full relation.  Independent of the refinement implementation."""
    if len(c1.vertices) + len(c2.vertices) > cap:
        raise CapExceeded(f"{len(c1.vertices)} + {len(c2.vertices)} vertices > {cap}")
    pairs = {(u, v)
             for u in c1.vertices for v in c2.vertices
             if (u in c1.terminating) == (v in c2.terminating)}
    changed = True
    while changed:
        changed = False
        for u, v in sorted(pairs):
            out1, out2 = c1.out(u), c2.out(v)
            ok = all(any(l2 == label and (u1, v1) in pairs for _, l2, v1 in out2)
                     for _, label, u1 in out1) and \
                 all(any(l1 == label and (u1, v1) in pairs for _, l1, u1 in out1)
                     for _, label, v1 in out2)
            if not ok:
                pairs.discard((u, v))
                changed = True
    return pairs
