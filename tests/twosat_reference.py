"""The reference the tests check the 2-colour decider (`injhom.poly`) against.

`twosat_solve` is a general implication-graph 2-SAT solver (Tarjan's
strongly connected components); it shares nothing with the decider, which
builds no clause list.  Literal convention: nonzero ints, +v / -v for
variable v in 1..nvars.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TwoSatInstance:
    nvars: int
    clauses: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.nvars
        seen = set()
        for a, b in self.clauses:
            for lit in (a, b):
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range")
            if (a, b) in seen:
                raise ValueError(f"duplicate clause ({a}, {b})")
            seen.add((a, b))


def twosat_solve(ins: TwoSatInstance) -> list[bool] | None:
    """A satisfying assignment (index 0 = variable 1) or None.

    Tarjan SCC over the implication graph; a variable is set true iff the
    component of its positive literal is closer to the sinks than that of its
    negation.  Deterministic: nodes are visited in a fixed order.
    """
    # literal +v is node 2v - 1 and -v is node 2v - 2, so -v comes before +v
    # (the all-unconstrained assignment decodes to all-false) and a literal's
    # negation is its node ^ 1
    size = 2 * ins.nvars
    adj: list[list[int]] = [[] for _ in range(size)]
    for a, b in ins.clauses:
        na = 2 * a - 1 if a > 0 else -2 * a - 2
        nb = 2 * b - 1 if b > 0 else -2 * b - 2
        adj[na ^ 1].append(nb)
        adj[nb ^ 1].append(na)

    # a visited node is on the Tarjan stack until it gets a component
    index = [-1] * size
    low = [0] * size
    comp = [-1] * size
    scc_stack: list[int] = []
    counter = 0
    comp_count = 0

    for root in range(size):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, arcs = work[-1]
            for u in arcs:
                if index[u] == -1:
                    index[u] = low[u] = counter
                    counter += 1
                    scc_stack.append(u)
                    work.append((u, iter(adj[u])))
                    break
                elif comp[u] == -1 and index[u] < low[v]:
                    low[v] = index[u]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        u = scc_stack.pop()
                        comp[u] = comp_count
                        if u == v:
                            break
                    comp_count += 1
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]

    neg, pos = comp[0::2], comp[1::2]
    if any(map(int.__eq__, pos, neg)):
        return None
    return list(map(int.__lt__, pos, neg))  # smaller component id = closer to a sink
