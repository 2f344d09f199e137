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

Each side is a plain loop on the one list of values, with a trail of the
vertices it set that it frees on a conflict or a pause.  A paused side
restarts from its start at its next turn with the budget of all its rounds
so far (F, 3F, 7F, ...) and, as the neighbourhood frozensets iterate in the
same order every time, repeats its looks.  Once one side has conflicted, the
other runs to its end.

An implication is one neighbour or partner looked at: the in-neighbours of a
vertex taking p or the out-neighbours of one taking q, and each mode set the
vertex belongs to.  `SolveResult.propagations` counts them on both sides,
abandoned sides included, and a look a restart repeats once.  Status and
witness are functions of the graph, but the count is not quite: a side that
conflicts stops where it meets the conflict, and where that is follows the
iteration order of the neighbourhood frozensets, which for equal graphs
built from reordered arcs can differ.  Making it a function of the graph
would cost a sort on every graph build or a bound that no longer counts
abandoned sides.  A committed vertex is never read again; an arc is read as
a neighbour from at most one committed end, and a vertex belongs to at most
two mode sets per arc (one in mode in).  The losing side of a start looks at
no more than twice the winner's implications plus F.  So a satisfiable
instance costs at most F * n + 9 * arcs implications (F * n + 6 * arcs in
mode in), below 9 * (n + arcs) with F = 8; an unsatisfiable one adds the two
failing sides of its last start, each reading every vertex at most once.
The restarts of a side repeat fewer looks than twice the budget it last
paused at, which it is counted for, so the sides look at fewer than 3 times
the implications counted.

The tests check the decider against a general 2-SAT solver (Tarjan's
strongly connected components over the clause encoding) and against the
generator decider this one replaced; both live with the tests.
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
    value = [-1 if i or o else 0 for i, o in zip(nin, nout)]  # no arc: p
    looked = 0
    for v in range(g.n):
        if value[v] >= 0:
            continue
        spent = _side(v, 0, FIRST_ROUND, value, same, families)
        if spent is None or spent < 0:
            spent = _race(v, spent, value, same, families)
            if spent < 0:
                return SolveResult(status=UNSAT, propagations=looked + ~spent)
        looked += spent
    witness = tuple(value) if p == 0 else tuple(map((p, q).__getitem__, value))
    return SolveResult(status=SAT, witnesses=[witness], propagations=looked)


def _race(start, first, value, same, families):
    """The rounds after p's first one at the free vertex start (first: that
    round's result, None or ~count): q1, p2, q2, p3, ..., the last side left
    running to its end.  The implications counted, with the winner's
    assignment left in value, or ~that count when both sides conflict."""
    spent = [FIRST_ROUND if first is None else ~first, 0]
    turns = [1, 0] if first is None else [1]
    while turns:
        c = turns.pop(0)
        limit = 2 * spent[c] + FIRST_ROUND if turns else None
        got = _side(start, c, limit, value, same, families)
        if got is None:
            spent[c] = limit
            turns.append(c)
        elif got >= 0:
            return spent[1 - c] + got
        else:
            spent[c] = ~got
    return ~(spent[0] + spent[1])


def _side(start, colour, limit, value, same, families):
    """One side of a start: propagate "start takes colour" over the free
    vertices of value, looking at no more than limit implications (None: no
    limit).  The implications looked at when nothing is left to imply, with
    the assignment left in value; ~that count at the first conflict, or None
    when it would need more than limit, with value restored in both cases."""
    value[start] = colour
    trail, todo = [start], [start]
    looked = 0
    while todo:
        x = todo.pop()
        c = value[x]
        for y in same[c][x]:
            if looked == limit:
                return _undone(value, trail, None)
            looked += 1
            have = value[y]
            if have < 0:
                value[y] = c
                trail.append(y)
                todo.append(y)
            elif have != c:
                return _undone(value, trail, ~looked)
        c = 1 - c  # x's partners take the other value
        for members, mirror in families:
            for w in mirror[x]:
                if looked == limit:
                    return _undone(value, trail, None)
                looked += 1
                pair = members[w]
                if len(pair) == 1:
                    continue
                a, y = pair
                if y == x:
                    y = a
                have = value[y]
                if have < 0:
                    value[y] = c
                    trail.append(y)
                    todo.append(y)
                elif have != c:
                    return _undone(value, trail, ~looked)
    return looked


def _undone(value, trail, result):
    """result, once the vertices of trail are free again in value."""
    for x in trail:
        value[x] = -1
    return result
