"""Polynomial-time decider for targets on at most two vertices.

A reflexive tournament on <= 2 vertices gives every instance vertex a binary
colour domain, so arc preservation and pairwise difference both become 2-SAT
clauses.  The decider is independent of the backtracking solver: degree
screening first, then an implication-graph strongly-connected-components
2-SAT solve.

Literal convention: nonzero ints, +v / -v for variable v in 1..nvars.

The witness is fixed by the order in which Tarjan's algorithm visits the
implication graph: roots in node order, each node's arcs in the order of the
sorted clause list.  Any change to that order (the clause encoding, their
sort, the node numbering or the traversal) can change the witness returned,
though never the answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .catalog import Target
from .digraph import Mode, OrientedGraph
from .errors import TargetTooLarge
from .solver import SAT, UNSAT, SolveResult, pigeonhole_unsat


@dataclass(frozen=True)
class TwoSatInstance:
    nvars: int
    clauses: tuple[tuple[int, int], ...]

    def __post_init__(self):
        clauses, n = self.clauses, self.nvars
        # linear accept; anything else (including clauses that are not pairs of
        # ints) goes through the loop below, which raises on the first violation
        try:
            lits = list(chain.from_iterable(clauses))
            if (
                set(map(len, clauses)) <= {2}
                and (not lits or (-n <= min(lits) and max(lits) <= n and 0 not in lits))
                and len(set(clauses)) == len(clauses)
            ):
                return
        except TypeError:
            pass
        seen = set()
        for a, b in clauses:
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
        if not adj[root]:
            comp[root] = comp_count
            comp_count += 1
            continue
        scc_stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, arcs = work[-1]
            for u in arcs:
                if index[u] == -1:
                    index[u] = low[u] = counter
                    counter += 1
                    if adj[u]:
                        scc_stack.append(u)
                        work.append((u, iter(adj[u])))
                        break
                    # no out-arcs: its own component at once, as Tarjan would
                    comp[u] = comp_count
                    comp_count += 1
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


def decide_small_target(
    g: OrientedGraph, t: Target, mode: Mode
) -> SolveResult:
    """Polynomial decider for reflexive tournaments on 1 or 2 vertices.

    Agrees with solver.decide; runs in time polynomial in the instance size.
    """
    tn = t.graph.n
    if tn > 2:
        raise TargetTooLarge(f"small-target decider needs <= 2 colours, got {tn}")
    if not (t.reflexive and t.is_tournament):
        raise TargetTooLarge("small-target decider needs a reflexive tournament")
    if tn == 0:
        if g.n == 0:
            return SolveResult(status=SAT, witnesses=[()])
        return SolveResult(status=UNSAT)

    if pigeonhole_unsat(g, t, mode):
        return SolveResult(status=UNSAT)

    if tn == 1:
        return SolveResult(status=SAT, witnesses=[tuple([0] * g.n)])

    # two colours: one boolean per vertex, true = the strict arc's head colour
    (p, q) = next((u, v) for u, v in t.graph.arcs if u != v)  # the strict arc p->q
    # literal v + 1 asserts "vertex v takes q", -(v + 1) "vertex v takes p".
    # Arc preservation forbids (q, p), the single non-arc of the target (both
    # colours carry loops); members of a shared neighbourhood differ, one
    # clause pair per vertex pair.  No two of these clauses coincide.
    pairs: set[tuple[int, int]] = set()
    for members in chain.from_iterable(g.mode_sets(mode)):
        if len(members) > 1:
            pairs.update(combinations(sorted(members), 2))
    clauses = [(-u - 1, v + 1) for u, v in g.arcs if u != v]
    for x, y in pairs:
        clauses.append((x + 1, y + 1))
        clauses.append((-x - 1, -y - 1))
    clauses.sort()

    ins = TwoSatInstance(nvars=g.n, clauses=tuple(clauses))
    assignment = twosat_solve(ins)
    if assignment is None:
        return SolveResult(status=UNSAT)
    witness = tuple(map((p, q).__getitem__, assignment))
    return SolveResult(status=SAT, witnesses=[witness])
