"""How the 2-colour decider runs its two sides.

`decide_small_target` must give the status, witness and `propagations` of the
generator decider kept in poly_reference.py, on graphs whose instances close,
conflict and pause in every combination.  The reversed two-vertex target, whose
strict arc is 1 -> 0, makes colour 1 the decider's value p.  A paused side
restarts from its start, so the implications the sides look at exceed the
ones `propagations` counts, but by less than a factor of 3.
"""
import random

import pytest

from injhom import poly
from injhom.catalog import Target
from injhom.digraph import MODES, Mode, OrientedGraph
from injhom.naive import naive_witnesses
from injhom.poly import decide_small_target
from injhom.solver import decide, pigeonhole_unsat, verify_colouring

from helpers import all_oriented
from poly_reference import reference_decide_small_target
from test_poly import TT2, _chain, _hub, _planted_tt2, _with_extra_arcs

# TT2 with its strict arc turned round
REVERSED = Target(OrientedGraph(2, [(0, 0), (1, 1), (1, 0)]))


def _same_as_reference(g, t, mode):
    """decide_small_target's result, asserted equal to the reference's in
    status, witnesses and propagations."""
    got = decide_small_target(g, t, mode)
    want = reference_decide_small_target(g, t, mode)
    assert (got.status, got.witnesses, got.propagations) == (
        want.status, want.witnesses, want.propagations)
    return got


def _seeded_graphs(seed, count):
    """(graph, mode) pairs of planted graphs with extra arcs that pass the
    pigeonhole screen, most of them unsatisfiable."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(30, 300)
        for mode in MODES:
            g = _with_extra_arcs(rng, _planted_tt2(rng, n, mode), mode, rng.randint(1, n // 4))
            yield g, mode


def test_decider_matches_reference_on_seeded_graphs():
    answers = []
    for g, mode in _seeded_graphs(29, 300):
        assert not pigeonhole_unsat(g, TT2, mode)
        for t in (TT2, REVERSED):
            answers.append(_same_as_reference(g, t, mode).sat)
    # the screen passes every graph, so the propagation answers both ways
    assert answers.count(False) >= len(answers) // 2 and answers.count(True) >= 100


@pytest.mark.parametrize("family, size", [
    (_chain, 1_000), (_chain, 4_000), (_hub, 250), (_hub, 1_000)])
def test_decider_matches_reference_on_chain_and_hub(family, size):
    g = family(size)
    for t in (TT2, REVERSED):
        for mode in MODES:
            _same_as_reference(g, t, mode)


def test_reversed_target_agrees_with_decide_naive_and_reference():
    # test_poly.py pins TT1 and TT2 on these graphs
    for g in all_oriented(4):
        for mode in MODES:
            got = _same_as_reference(g, REVERSED, mode)
            want = naive_witnesses(g, REVERSED, mode)
            assert got.sat == decide(g, REVERSED, mode).sat == bool(want)
            if got.sat:
                assert got.witnesses[0] in want
                ok, why = verify_colouring(g, REVERSED, got.witnesses[0], mode)
                assert ok, why


def _looked_and_counted(monkeypatch, graphs):
    """(the implications every run of a side looked at, propagations) for
    each (graph, mode) of graphs."""
    side, looked = poly._side, []

    def counted(start, colour, limit, *rest):
        got = side(start, colour, limit, *rest)
        looked.append(limit if got is None else got if got >= 0 else ~got)
        return got

    monkeypatch.setattr(poly, "_side", counted)
    for g, mode in graphs:
        looked.clear()
        propagations = decide_small_target(g, TT2, mode).propagations
        yield sum(looked), propagations


@pytest.mark.parametrize("family, size", [(_chain, 4_000), (_hub, 1_000)])
def test_restarted_sides_look_at_under_three_times_the_count(monkeypatch, family, size):
    graphs = [(family(n), Mode.IN) for n in (size, 4 * size)]
    for looked, counted in _looked_and_counted(monkeypatch, graphs):
        assert counted <= looked <= 3 * counted


def test_restarted_sides_on_seeded_graphs_look_at_under_three_times_the_count(monkeypatch):
    for looked, counted in _looked_and_counted(monkeypatch, _seeded_graphs(31, 100)):
        assert counted <= looked <= 3 * counted
