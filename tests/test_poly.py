import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injhom.catalog import named_target
from injhom.digraph import MODES, Mode, OrientedGraph
from injhom.errors import TargetTooLarge
from injhom.naive import naive_witnesses
from injhom.poly import TwoSatInstance, decide_small_target, twosat_solve
from injhom.solver import decide, verify_colouring

TT1 = named_target("TT1")
TT2 = named_target("TT2")


def _brute_twosat(ins):
    for bits in itertools.product((False, True), repeat=ins.nvars):
        ok = True
        for a, b in ins.clauses:
            va = bits[abs(a) - 1] == (a > 0)
            vb = bits[abs(b) - 1] == (b > 0)
            if not (va or vb):
                ok = False
                break
        if ok:
            return True
    return False


def test_twosat_empty_all_false():
    assert twosat_solve(TwoSatInstance(3, ())) == [False, False, False]


def test_twosat_forced_contradiction():
    assert twosat_solve(TwoSatInstance(1, ((1, 1), (-1, -1)))) is None


def test_twosat_duplicate_clause_rejected():
    with pytest.raises(ValueError):
        TwoSatInstance(1, ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        TwoSatInstance(1, ((2, 1),))


@pytest.mark.parametrize("clauses, message", [
    (((1, 1), (1, 1), (5, 1)), "duplicate clause (1, 1)"),
    (((-3, 1), (1, 1), (1, 1)), "literal -3 out of range"),
    (((1, 2), (2, 0)), "literal 0 out of range"),
])
def test_twosat_first_violation_is_reported(clauses, message):
    with pytest.raises(ValueError) as err:
        TwoSatInstance(2, clauses)
    assert str(err.value) == message


def test_twosat_random_vs_brute_force():
    rng = random.Random(10)
    for _ in range(200):
        nvars = 10
        clauses = set()
        for _ in range(rng.randint(0, 25)):
            a = rng.choice([1, -1]) * rng.randint(1, nvars)
            b = rng.choice([1, -1]) * rng.randint(1, nvars)
            clauses.add((a, b))
        ins = TwoSatInstance(nvars, tuple(sorted(clauses)))
        got = twosat_solve(ins)
        want = _brute_twosat(ins)
        assert (got is not None) == want
        if got is not None:
            for a, b in ins.clauses:
                va = got[abs(a) - 1] == (a > 0)
                vb = got[abs(b) - 1] == (b > 0)
                assert va or vb


def test_small_target_path_single_colour():
    path = OrientedGraph(3, [(0, 1), (1, 2)])
    assert decide_small_target(path, TT1, Mode.IOS).sat


def test_small_target_in_star_pigeonhole():
    star = OrientedGraph(3, [(1, 0), (2, 0)])
    assert not decide_small_target(star, TT1, Mode.IN).sat


def test_small_target_too_large():
    with pytest.raises(TargetTooLarge):
        decide_small_target(OrientedGraph(1), named_target("TT3"), Mode.IOS)
    with pytest.raises(TargetTooLarge):
        from injhom.catalog import Target
        decide_small_target(OrientedGraph(1), Target(OrientedGraph(2)), Mode.IOS)


def test_small_target_agrees_with_solver_random():
    rng = random.Random(17)
    for _ in range(250):
        n = rng.randint(0, 7)
        arcs = []
        for u in range(n):
            if rng.random() < 0.2:
                arcs.append((u, u))
            for v in range(u + 1, n):
                r = rng.random()
                if r < 0.3:
                    arcs.append((u, v))
                elif r < 0.6:
                    arcs.append((v, u))
        g = OrientedGraph(n, arcs)
        for t in (TT1, TT2):
            for mode in MODES:
                fast = decide_small_target(g, t, mode)
                assert fast.sat == decide(g, t, mode).sat
                if fast.sat:
                    ok, why = verify_colouring(g, t, fast.witnesses[0], mode)
                    assert ok, why


@st.composite
def _small_oriented_graphs(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    loops = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    states = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(v, v) for v in range(n) if loops[v]]
    arcs += [(u, v) if k == 1 else (v, u) for (u, v), k in zip(pairs, states) if k]
    return OrientedGraph(n, arcs)


@settings(max_examples=500, deadline=None)
@given(_small_oriented_graphs())
def test_small_target_agrees_with_decide_and_naive(g):
    for t in (TT1, TT2):
        for mode in MODES:
            fast = decide_small_target(g, t, mode)
            want = naive_witnesses(g, t, mode)
            assert fast.sat == decide(g, t, mode).sat == bool(want)
            if fast.sat:
                assert fast.witnesses[0] in want
                ok, why = verify_colouring(g, t, fast.witnesses[0], mode)
                assert ok, why


def test_small_target_scales_along_a_size_ladder():
    # clause growth is quadratic in degrees, so the 1k and 10k rungs must
    # both finish comfortably (smoke check, no timing assertions)
    for n in (1_000, 10_000):
        g = OrientedGraph(n, [(i, i + 1) for i in range(n - 1)])
        res = decide_small_target(g, TT2, Mode.IOS)
        assert res.sat
        ok, _ = verify_colouring(g, TT2, res.witnesses[0], Mode.IOS)
        assert ok


# -- pinned answers and witnesses ---------------------------------------------
#
# The 2-SAT witness is fixed by Tarjan's visit order over the sorted clause
# list, so a change to the clause encoding, the implication-graph layout or
# the SCC traversal shows here.  The values were recorded before the decider
# was optimised.


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _all_oriented(max_n):
    """Every oriented graph on 0..max_n vertices, loops included."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for loops in range(1 << n):
            for code in itertools.product(range(3), repeat=len(pairs)):
                arcs = [(v, v) for v in range(n) if loops >> v & 1]
                arcs += [(u, v) if k == 1 else (v, u) for (u, v), k in zip(pairs, code) if k]
                yield OrientedGraph(n, arcs)


def _planted_tt2(rng, n, mode):
    """A loopless graph of about n arcs grown around a random TT2 colouring
    that stays a `mode`-injective homomorphism (linear time)."""
    tg = TT2.graph
    col = [rng.randrange(2) for _ in range(n)]
    in_cols = [set() for _ in range(n)]
    out_cols = [set() for _ in range(n)]
    arcs = set()
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        if (u, v) in arcs or (v, u) in arcs:
            continue
        if not tg.has_arc(col[u], col[v]):
            u, v = v, u
        if mode is Mode.IN:
            ok = col[u] not in in_cols[v]
        elif mode is Mode.IOS:
            ok = col[u] not in in_cols[v] and col[v] not in out_cols[u]
        else:
            ok = (col[u] not in in_cols[v] | out_cols[v]
                  and col[v] not in in_cols[u] | out_cols[u])
        if ok:
            arcs.add((u, v))
            out_cols[u].add(col[v])
            in_cols[v].add(col[u])
    return OrientedGraph(n, arcs)


def _overloaded(rng, g):
    """g plus one vertex with three in-arcs: no injective map into two colours."""
    z = g.n
    return OrientedGraph(g.n + 1, set(g.arcs) | {(u, z) for u in rng.sample(range(g.n), 3)})


GOLDEN_POLY_SMALL = "a94af7f46ba8f9a8"
# (n, mode) -> digest of the planted and the overloaded graph's results
GOLDEN_POLY_LARGE = {
    (1000, "in"): "b3c0b820af714d7a", (1000, "ios"): "53827bce3ae8a37a",
    (1000, "iot"): "c441f4f3a5693303", (3162, "in"): "e02d6fccf4c1f68c",
    (3162, "ios"): "a7e21e6663589909", (3162, "iot"): "0879da9c55156480",
    (10000, "in"): "77d6c15a14523bc7", (10000, "ios"): "0544114a7372b418",
    (10000, "iot"): "e82f1db9431c4e6f",
}
GOLDEN_TWOSAT = "1da32a3c009acdb0"
LARGE_SIZES = (1_000, 3_162, 10_000)


def test_pinned_small_target_all_small_graphs():
    results = [repr(decide_small_target(g, t, mode))
               for g in _all_oriented(4) for t in (TT1, TT2) for mode in MODES]
    assert _digest(results) == GOLDEN_POLY_SMALL


def test_pinned_small_target_planted_large_graphs():
    got = {}
    for n in LARGE_SIZES:
        for mode in MODES:
            rng = random.Random(n + len(mode.value))
            g = _planted_tt2(rng, n, mode)
            sat = decide_small_target(g, TT2, mode)
            assert sat.sat
            unsat = decide_small_target(_overloaded(rng, g), TT2, mode)
            assert not unsat.sat
            got[n, mode.value] = _digest((repr(sat), repr(unsat)))
    assert got == GOLDEN_POLY_LARGE


def _random_twosat(rng, nvars):
    clauses = set()
    for _ in range(rng.randint(0, 3 * nvars)):
        clauses.add((rng.choice((1, -1)) * rng.randint(1, nvars),
                     rng.choice((1, -1)) * rng.randint(1, nvars)))
    return TwoSatInstance(nvars, tuple(sorted(clauses)))


def test_pinned_twosat_assignments():
    rng = random.Random(2024)
    got = [twosat_solve(_random_twosat(rng, rng.randint(1, 40))) for _ in range(600)]
    assert sum(a is not None for a in got) > 100  # both answers well represented
    assert _digest(got) == GOLDEN_TWOSAT
