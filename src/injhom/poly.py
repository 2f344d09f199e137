"""Polynomial-time decider for targets on at most two vertices.

A reflexive tournament on <= 2 vertices gives every instance vertex a binary
colour domain, so arc preservation and pairwise difference both become 2-SAT
constraints.  The decider is independent of the backtracking solver: degree
screening first, then paired propagation (Even, Itai and Shamir, SIAM J.
Comput. 5(4), 1976) straight on the graph's neighbourhoods, with no clause
list and no implication graph.

With the strict arc p->q of the target, an arc u->v means "u takes q implies
v takes q" and "v takes p implies u takes p"; two members of one mode set
must differ (after the screen no mode set has more than two).  Vertices are
taken in id order.  One with no arc takes p.  Any other vertex still free
starts two sides, "takes p" and "takes q", which propagate in lockstep:
rounds of F, 2F, 4F, ... implications each, p's side first in every round.
The first side to run out of implications without a conflict is committed
with everything it implied; a side that conflicts is dropped, and if both
do the instance is unsatisfiable.  So the witness gives each free vertex the
value whose implications close in the earlier round (p within one round)
unless that value conflicts; it depends on the graph alone, not on the order
in which the arcs were given.

An implication is one neighbour or partner looked at: the in-neighbours of a
vertex taking p or the out-neighbours of one taking q, and each mode set the
vertex belongs to.  `SolveResult.propagations` counts them on both sides,
abandoned sides included.  Status and witness are functions of the graph, but
the count is not quite: a side that conflicts stops where it meets the
conflict, and where that is follows the iteration order of the neighbourhood
frozensets, which for equal graphs built from reordered arcs can differ.
Making it a function of the graph would cost a sort on every graph build or a
bound that no longer counts abandoned sides.  A committed vertex is never read again; an arc is
read as a neighbour from at most one committed end, and a vertex belongs to
at most two mode sets per arc (one in mode in).  The losing side of a start
looks at no more than twice the winner's implications plus F.  So a
satisfiable instance costs at most F * n + 9 * arcs implications (F * n +
6 * arcs in mode in), below 9 * (n + arcs) with F = 8; an unsatisfiable one
adds the two failing sides of its last start, each reading every vertex at
most once.

The tests check the decider against a general 2-SAT solver (Tarjan's
strongly connected components over the clause encoding), which lives with
them, apart from the code it checks.
"""
from __future__ import annotations

from .catalog import Target
from .digraph import Mode, OrientedGraph
from .errors import TargetTooLarge
from .solver import SAT, UNSAT, SolveResult, pigeonhole_unsat


# F: the implications a side may look at in its first round; each later
# round doubles them
FIRST_ROUND = 8


def decide_small_target(
    g: OrientedGraph, t: Target, mode: Mode
) -> SolveResult:
    """Polynomial decider for reflexive tournaments on 1 or 2 vertices.

    Agrees with solver.decide; runs in time linear in n + arcs, as the
    module docstring says.
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

    # two colours: value 0 is p and 1 is q, for the strict arc p->q
    (p, q) = next((u, v) for u, v in t.graph.arcs if u != v)
    nin, nout = g.mode_sets(Mode.IOS)
    families = g.mirrored_mode_sets(mode)
    same = (nin, nout)  # same[c][x]: the vertices x taking value c forces to c
    value = [-1] * g.n
    looked = 0
    for v in range(g.n):
        if value[v] >= 0:
            continue
        if not (nin[v] or nout[v]):
            value[v] = 0
            continue
        local, spent = _lockstep(v, value, same, families)
        looked += spent
        if local is None:
            return SolveResult(status=UNSAT, propagations=looked)
        for x, c in local.items():
            value[x] = c
    witness = tuple(map((p, q).__getitem__, value))
    return SolveResult(status=SAT, witnesses=[witness], propagations=looked)


def _lockstep(v, value, same, families):
    """Both sides of the free vertex v in doubling rounds, p's side first:
    (the assignment of the first side to finish, or None when both conflict;
    the implications looked at)."""
    sides = [_side(v, 0, value, same, families)]
    looked = 0
    first = True
    while sides:
        side = sides.pop(0)
        try:
            looked += next(side)
        except StopIteration as end:
            local, spent = end.value
            looked += spent
            if local is not None:
                return local, looked
        else:
            sides.append(side)
        if first:
            # q's side joins after p's first round, ahead of p's second: most
            # starts end in p's first round and never make it
            first = False
            sides.insert(0, _side(v, 1, value, same, families))
    return None, looked


def _side(start, colour, value, same, families):
    """One side of a start: propagate "start takes colour" over the vertices
    not yet committed in value.  A generator: each next() runs one round and
    yields the implications it looked at, FIRST_ROUND in the first round and
    twice the round before in each later one.  It returns (assignment, the
    implications of its last round) when nothing is left to imply, or
    (None, ...) at the first conflict."""
    budget = left = FIRST_ROUND
    local = {start: colour}
    todo = [start]
    while todo:
        x = todo.pop()
        c = local[x]
        for y in same[c][x]:
            if not left:
                yield budget
                budget *= 2
                left = budget
            left -= 1
            have = value[y]
            if have < 0:
                have = local.get(y, -1)
                if have < 0:
                    local[y] = c
                    todo.append(y)
                    continue
            if have != c:
                return None, budget - left
        c = 1 - c  # x's partners take the other value
        for members, mirror in families:
            for w in mirror[x]:
                if not left:
                    yield budget
                    budget *= 2
                    left = budget
                left -= 1
                pair = members[w]
                if len(pair) == 1:
                    continue
                a, y = pair
                if y == x:
                    y = a
                have = value[y]
                if have < 0:
                    have = local.get(y, -1)
                    if have < 0:
                        local[y] = c
                        todo.append(y)
                        continue
                if have != c:
                    return None, budget - left
    return local, budget - left
