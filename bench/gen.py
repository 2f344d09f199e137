"""Seeded input generators for the benchmark workloads.

Every generator draws from the `random.Random` it is given, so one workload
seed fixes every input.  The benchmark keeps its own generators, rather than
the acceptance battery's, so its inputs stay the same when the package
changes.  Sources with a planted solution return the solution
with the graph; callers check it with an independent checker before any
timing starts.
"""
from __future__ import annotations

import itertools
import random

from injhom import Mode, OrientedGraph, Target
from injhom.reductions import EDGE_COLOURS, UndirectedGraph


def oriented_graph_count(n: int) -> int:
    """Oriented graphs on n labelled vertices, loops included."""
    return 2**n * 3 ** (n * (n - 1) // 2)


def oriented_graph(n: int, k: int) -> OrientedGraph:
    """The k-th of the oriented_graph_count(n) graphs: loop bits, then one of
    none / u->v / v->u for each pair u < v."""
    k, loops = divmod(k, 2**n)
    arcs = [(v, v) for v in range(n) if loops >> v & 1]
    for u, v in itertools.combinations(range(n), 2):
        k, state = divmod(k, 3)
        if state == 1:
            arcs.append((u, v))
        elif state == 2:
            arcs.append((v, u))
    return OrientedGraph(n, arcs)


def random_oriented_graph(
    rng: random.Random, n: int, arc_p: float = 0.35, loop_p: float = 0.15
) -> OrientedGraph:
    """Each pair gets an arc u->v or v->u with probability arc_p each; loops with loop_p."""
    arcs = []
    for u in range(n):
        if rng.random() < loop_p:
            arcs.append((u, u))
        for v in range(u + 1, n):
            r = rng.random()
            if r < arc_p:
                arcs.append((u, v))
            elif r < 2 * arc_p:
                arcs.append((v, u))
    return OrientedGraph(n, arcs)


def random_subcubic(rng: random.Random, n: int, edge_p: float = 0.6) -> UndirectedGraph:
    """Pairs in random order, each kept with probability edge_p while both degrees stay <= 3."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if degree[u] < 3 and degree[v] < 3 and rng.random() < edge_p:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return UndirectedGraph(n, edges)


def planted_cubic(rng: random.Random, m: int) -> tuple[UndirectedGraph, dict]:
    """A cubic graph on m (even) vertices as three edge-disjoint perfect matchings.

    The index of the matching an edge comes from is a proper 3-edge-colouring.
    """
    if m < 4 or m % 2:
        raise ValueError(f"planted cubic graph needs an even m >= 4, got {m}")
    colouring: dict[tuple[int, int], int] = {}
    for colour in EDGE_COLOURS:
        while True:
            perm = list(range(m))
            rng.shuffle(perm)
            matching = [
                (min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1]))
                for i in range(0, m, 2)
            ]
            if not any(e in colouring for e in matching):
                break
        for e in matching:
            colouring[e] = colour
    return UndirectedGraph(m, colouring.keys()), colouring


def planted_oriented(
    rng: random.Random, n: int, target: Target, mode: Mode, arc_tries: int
) -> tuple[OrientedGraph, tuple[int, ...]]:
    """A loopless oriented graph built around a random colouring that stays valid.

    Each of `arc_tries` random vertex pairs becomes an arc, oriented along the
    target, when the colouring remains a `mode`-injective homomorphism.
    """
    tg = target.graph
    col = tuple(int(rng.random() * tg.n) for _ in range(n))
    in_cols = [set() for _ in range(n)]
    out_cols = [set() for _ in range(n)]
    arcs: set[tuple[int, int]] = set()
    for _ in range(arc_tries):
        u, v = int(rng.random() * n), int(rng.random() * (n - 1))
        v += v >= u  # a uniform pair of distinct vertices
        if (u, v) in arcs or (v, u) in arcs:
            continue
        if not tg.has_arc(col[u], col[v]):
            u, v = v, u
            if not tg.has_arc(col[u], col[v]):
                continue
        if mode is Mode.IN:
            ok = col[u] not in in_cols[v]
        elif mode is Mode.IOS:
            ok = col[u] not in in_cols[v] and col[v] not in out_cols[u]
        else:
            ok = (
                col[u] not in in_cols[v] | out_cols[v]
                and col[v] not in in_cols[u] | out_cols[u]
            )
        if ok:
            arcs.add((u, v))
            out_cols[u].add(col[v])
            in_cols[v].add(col[u])
    return OrientedGraph(n, arcs), col


def overloaded(rng: random.Random, g: OrientedGraph) -> OrientedGraph:
    """g plus one new vertex with three in-arcs: no injective map into two colours."""
    z = g.n
    tails = rng.sample(range(g.n), 3)
    return OrientedGraph(g.n + 1, set(g.arcs) | {(u, z) for u in tails})
