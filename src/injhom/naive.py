"""Reference filter: materialize every map V(g) -> V(t) and keep the valid ones.

This is the independent oracle the solver is checked against.  It shares no
search machinery with the solver; validity is decided by direct table lookups
over the full map table, vectorised with numpy so exhaustive batteries stay
fast.  Intended for small instances only (the table has |V(t)|^|V(g)| rows).
"""
from __future__ import annotations

import numpy as np

from .catalog import Target
from .digraph import Mode, OrientedGraph

MAX_TABLE = 4_000_000


def naive_witnesses(g: OrientedGraph, t: Target, mode: Mode) -> list[tuple[int, ...]]:
    """All valid total colourings, lexicographically sorted."""
    n, tn = g.n, t.graph.n
    if n == 0:
        return [()]
    if tn == 0:
        return []
    if tn**n > MAX_TABLE:
        raise ValueError(f"map table {tn}^{n} too large for the naive filter")

    rows = tn**n
    maps = np.empty((rows, n), dtype=np.int64)
    for v in range(n):
        period = tn ** (n - 1 - v)
        maps[:, v] = (np.arange(rows) // period) % tn

    adj = np.zeros((tn, tn), dtype=bool)
    for u, v in t.graph.arcs:
        adj[u, v] = True

    keep = np.ones(rows, dtype=bool)
    for u, v in sorted(g.arcs):
        keep &= adj[maps[:, u], maps[:, v]]
    seen: set[tuple[int, int]] = set()
    for vertex_sets in zip(*g.mode_sets(mode)):
        for members in vertex_sets:
            ms = sorted(members)
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    pair = (ms[i], ms[j])
                    if pair not in seen:
                        seen.add(pair)
                        keep &= maps[:, pair[0]] != maps[:, pair[1]]

    return [tuple(int(c) for c in row) for row in maps[keep]]
