"""Helpers that more than one test module uses."""
import hashlib
import itertools

from injhom.digraph import OrientedGraph
from injhom.solver import verify_colouring


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


def planted(rng, n, target, mode):
    """A loopless graph grown arc by arc around a random colouring that stays
    valid, and that colouring; a graph on fewer than 2 vertices has no arc."""
    col = [rng.randrange(target.n) for _ in range(n)]
    arcs: list[tuple[int, int]] = []
    for _ in range(2 * n if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        if (u, v) in arcs or (v, u) in arcs:
            continue
        if not target.graph.has_arc(col[u], col[v]):
            u, v = v, u
        trial = arcs + [(u, v)]
        if verify_colouring(OrientedGraph(n, trial), target, col, mode)[0]:
            arcs = trial
    return OrientedGraph(n, arcs), dict(enumerate(col))
