"""Reference filter: try every map V(g) -> V(t) in lexicographic order and
keep the valid ones.

This is the independent oracle the solver is checked against.  It shares no
search machinery or constraint tables with the solver: it reads the arcs and
the mode's neighbourhood sets directly, and tests each arc and each pair
that must differ once both of its ends are coloured, so a failed test drops
every map that extends the prefix.  Intended for small instances only (there
are |V(t)|^|V(g)| maps).
"""
from __future__ import annotations

from itertools import chain, combinations

from .catalog import Target
from .digraph import Mode, OrientedGraph

MAX_TABLE = 4_000_000


def naive_witnesses(g: OrientedGraph, t: Target, mode: Mode) -> list[tuple[int, ...]]:
    """All valid total colourings, lexicographically sorted."""
    n, tn = g.n, t.graph.n
    if tn**n > MAX_TABLE:
        raise ValueError(f"map table {tn}^{n} too large for the naive filter")

    # the tests that become decidable when vertex v, the later end, is coloured
    arcs = [[(a, b) for a, b in g.arcs if max(a, b) == v] for v in range(n)]
    differ: list[set[int]] = [set() for _ in range(n)]
    for members in chain.from_iterable(g.mode_sets(mode)):
        for u, v in combinations(sorted(members), 2):
            differ[v].add(u)

    target_arcs = t.graph.arcs
    colour = [0] * n
    found: list[tuple[int, ...]] = []

    def valid(v: int) -> bool:
        for a, b in arcs[v]:
            if (colour[a], colour[b]) not in target_arcs:
                return False
        for u in differ[v]:
            if colour[u] == colour[v]:
                return False
        return True

    def extend(v: int) -> None:
        if v == n:
            found.append(tuple(colour))
            return
        for c in range(tn):
            colour[v] = c
            if valid(v):
                extend(v + 1)

    extend(0)
    return found
