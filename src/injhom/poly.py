"""Polynomial-time decider for targets on at most two vertices.

A reflexive tournament on <= 2 vertices gives every instance vertex a binary
colour domain, so arc preservation and pairwise difference both become 2-SAT
clauses.  The decider is independent of the backtracking solver: degree
screening first, then an implication-graph strongly-connected-components
2-SAT solve.

Literal convention: nonzero ints, +v / -v for variable v in 1..nvars.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalog import Target
from .digraph import Mode, OrientedGraph
from .errors import TargetTooLarge
from .solver import SAT, UNSAT, SolveResult, difference_pairs, pigeonhole_unsat


@dataclass(frozen=True)
class TwoSatInstance:
    nvars: int
    clauses: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for a, b in self.clauses:
            for lit in (a, b):
                if lit == 0 or abs(lit) > self.nvars:
                    raise ValueError(f"literal {lit} out of range")
            if (a, b) in seen:
                raise ValueError(f"duplicate clause ({a}, {b})")
            seen.add((a, b))


def _node(lit: int) -> int:
    # -v before +v so that the all-unconstrained assignment decodes to all-false
    v = abs(lit) - 1
    return 2 * v + (1 if lit > 0 else 0)


def twosat_solve(ins: TwoSatInstance) -> list[bool] | None:
    """A satisfying assignment (index 0 = variable 1) or None.

    Tarjan SCC over the implication graph; a variable is set true iff the
    component of its positive literal is closer to the sinks than that of its
    negation.  Deterministic: nodes are visited in a fixed order.
    """
    size = 2 * ins.nvars
    adj: list[list[int]] = [[] for _ in range(size)]
    for a, b in ins.clauses:
        adj[_node(-a)].append(_node(b))
        adj[_node(-b)].append(_node(a))

    index = [-1] * size
    low = [0] * size
    comp = [-1] * size
    on_stack = [False] * size
    scc_stack: list[int] = []
    counter = 0
    comp_count = 0

    for root in range(size):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                u = adj[v][pi]
                pi += 1
                if index[u] == -1:
                    work[-1] = (v, pi)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    u = scc_stack.pop()
                    on_stack[u] = False
                    comp[u] = comp_count
                    if u == v:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    assignment = []
    for v in range(ins.nvars):
        pos, neg = comp[_node(v + 1)], comp[_node(-(v + 1))]
        if pos == neg:
            return None
        assignment.append(pos < neg)  # smaller component id = closer to a sink
    return assignment


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

    def lit(v: int, colour: int) -> int:
        # literal asserting "vertex v takes `colour`"
        return (v + 1) if colour == q else -(v + 1)

    clauses: set[tuple[int, int]] = set()
    # arc preservation: forbid (q, p), the single non-arc of the target
    for u, v in g.arcs:
        if u == v:
            continue  # both colours carry loops
        clauses.add((-lit(u, q), -lit(v, p)))
    # injectivity: members of a shared neighbourhood differ
    for x, y in sorted(difference_pairs(g, mode)):
        clauses.add((lit(x, q), lit(y, q)))
        clauses.add((-lit(x, q), -lit(y, q)))

    ins = TwoSatInstance(nvars=g.n, clauses=tuple(sorted(clauses)))
    assignment = twosat_solve(ins)
    if assignment is None:
        return SolveResult(status=UNSAT)
    witness = tuple(q if assignment[v] else p for v in range(g.n))
    return SolveResult(status=SAT, witnesses=[witness])
