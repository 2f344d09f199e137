"""The generator decider that `injhom.poly.decide_small_target` is tested against.

It is the paired propagation the `injhom.poly` docstring describes, with each
side a generator that keeps its own assignment in a dict and runs one round
per `next()`: rounds of F, 2F, 4F, ... implications, p's side first.  Its
status, witness and `propagations` are the ones the decider must reproduce.
"""
from injhom.catalog import Target
from injhom.digraph import Mode, OrientedGraph
from injhom.errors import TargetTooLarge
from injhom.poly import FIRST_ROUND
from injhom.solver import SAT, UNSAT, SolveResult, pigeonhole_unsat


def reference_decide_small_target(
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
