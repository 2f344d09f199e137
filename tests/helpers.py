"""Helpers that more than one test module uses."""
import hashlib
import itertools

from injhom.digraph import OrientedGraph


def all_oriented(max_n):
    """Every oriented graph on 0..max_n vertices, loops included.

    The order (loop bits with vertex 0 lowest, then none / u->v / v->u for
    each pair u < v) is pinned by the digests the tests record over it."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for loops in range(1 << n):
            for code in itertools.product(range(3), repeat=len(pairs)):
                arcs = [(v, v) for v in range(n) if loops >> v & 1]
                arcs += [(u, v) if k == 1 else (v, u) for (u, v), k in zip(pairs, code) if k]
                yield OrientedGraph(n, arcs)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
