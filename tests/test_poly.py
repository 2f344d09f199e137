import itertools
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injhom.catalog import named_target
from injhom.digraph import MODES, Mode, OrientedGraph
from injhom.errors import TargetTooLarge
from injhom.naive import naive_witnesses
from injhom.poly import FIRST_ROUND, decide_small_target
from injhom.solver import decide, pigeonhole_unsat, verify_colouring

from helpers import all_oriented, digest
from twosat_reference import TwoSatInstance, twosat_solve

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
    # a path at 1k and 10k vertices, decided in one pass over its arcs
    # (smoke check; test_propagations_are_linear_* bound the work)
    for n in (1_000, 10_000):
        g = OrientedGraph(n, [(i, i + 1) for i in range(n - 1)])
        res = decide_small_target(g, TT2, Mode.IOS)
        assert res.sat
        ok, _ = verify_colouring(g, TT2, res.witnesses[0], Mode.IOS)
        assert ok


# -- pinned answers and witnesses ---------------------------------------------
#
# The 2-colour witness is fixed by the paired propagation's rule (see the
# injhom.poly docstring): vertices in id order, each free one taking the value
# whose implications close in the earlier round.  A change to the rule, the
# round schedule or the screen shows in the witness digests; the answer
# digest pins only the statuses, recorded under the earlier Tarjan decider.


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


GOLDEN_POLY_SMALL = "693fe2cae91e0592"
# (n, mode) -> digest of the planted and the overloaded graph's results
GOLDEN_POLY_LARGE = {
    (1000, "in"): "2dd562b9f94ccba7", (1000, "ios"): "a456246d3b03e2c3",
    (1000, "iot"): "b4bc1a24822da385", (3162, "in"): "27a0e4e91f169165",
    (3162, "ios"): "2b1bf3c9a7e745cd", (3162, "iot"): "6e76f4f315012f74",
    (10000, "in"): "2cbb6fda231fa707", (10000, "ios"): "d857417113f455e5",
    (10000, "iot"): "0fc35a1c1fb536a0",
}
# the status of every result above, small graphs then large; pins the answers
# alone, so it holds across any change to the witness rule
GOLDEN_POLY_ANSWERS = "13ee10a8de6c5d81"
GOLDEN_TWOSAT = "1da32a3c009acdb0"
LARGE_SIZES = (1_000, 3_162, 10_000)


def _checked(g, t, mode):
    """decide_small_target's result, its witness checked when it has one."""
    res = decide_small_target(g, t, mode)
    if res.sat:
        ok, why = verify_colouring(g, t, res.witnesses[0], mode)
        assert ok, why
    return res


def test_pinned_small_target_all_small_graphs():
    results = [repr(_checked(g, t, mode))
               for g in all_oriented(4) for t in (TT1, TT2) for mode in MODES]
    assert digest(results) == GOLDEN_POLY_SMALL


def test_pinned_small_target_planted_large_graphs():
    got = {}
    for n in LARGE_SIZES:
        for mode in MODES:
            rng = random.Random(n + len(mode.value))
            g = _planted_tt2(rng, n, mode)
            sat = _checked(g, TT2, mode)
            assert sat.sat
            unsat = decide_small_target(_overloaded(rng, g), TT2, mode)
            assert not unsat.sat
            got[n, mode.value] = digest((repr(sat), repr(unsat)))
    assert got == GOLDEN_POLY_LARGE


def test_pinned_small_target_answers():
    small = [decide_small_target(g, t, mode).status
             for g in all_oriented(4) for t in (TT1, TT2) for mode in MODES]
    large = []
    for n in LARGE_SIZES:
        for mode in MODES:
            rng = random.Random(n + len(mode.value))
            g = _planted_tt2(rng, n, mode)
            large.append(decide_small_target(g, TT2, mode).status)
            large.append(decide_small_target(_overloaded(rng, g), TT2, mode).status)
    assert digest((small, large)) == GOLDEN_POLY_ANSWERS


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
    assert digest(got) == GOLDEN_TWOSAT


# -- cross-check against the clause encoding ----------------------------------


def _reference_instance(g, mode):
    """The 2-colour instance as 2-SAT clauses, literal v + 1 for "vertex v
    takes q" and -(v + 1) for "takes p": each arc forbids (q, p), the target's
    one non-arc, and members of a shared neighbourhood differ."""
    pairs: set[tuple[int, int]] = set()
    for members in chain.from_iterable(g.mode_sets(mode)):
        if len(members) > 1:
            pairs.update(combinations(sorted(members), 2))
    clauses = [(-u - 1, v + 1) for u, v in g.arcs if u != v]
    for x, y in pairs:
        clauses.append((x + 1, y + 1))
        clauses.append((-x - 1, -y - 1))
    return TwoSatInstance(nvars=g.n, clauses=tuple(sorted(clauses)))


def _with_extra_arcs(rng, g, mode, tries):
    """g plus random arcs that keep every mode set at <= 2 members, so the
    pigeonhole screen passes and the propagation has to answer."""
    arcs = set(g.arcs)
    nin = [len(g.in_set(v)) for v in range(g.n)]
    nout = [len(g.out_set(v)) for v in range(g.n)]
    for _ in range(tries):
        u, v = rng.sample(range(g.n), 2)
        if (u, v) in arcs or (v, u) in arcs:
            continue
        if mode is Mode.IN:
            ok = nin[v] < 2
        elif mode is Mode.IOS:
            ok = nin[v] < 2 and nout[u] < 2
        else:
            ok = nin[v] + nout[v] < 2 and nin[u] + nout[u] < 2
        if ok:
            arcs.add((u, v))
            nout[u] += 1
            nin[v] += 1
    return OrientedGraph(g.n, arcs)


def test_small_target_agrees_with_the_clause_encoding():
    rng = random.Random(19)
    answers = []
    for _ in range(300):
        n = rng.randint(30, 300)
        for mode in MODES:
            g = _with_extra_arcs(rng, _planted_tt2(rng, n, mode), mode, rng.randint(1, n // 4))
            assert not pigeonhole_unsat(g, TT2, mode)
            res = _checked(g, TT2, mode)
            assert res.sat == (twosat_solve(_reference_instance(g, mode)) is not None)
            answers.append(res.sat)
    # both answers well represented; every unsat one passed the screen
    assert answers.count(False) >= 100 and answers.count(True) >= 100


def test_small_target_witness_ignores_arc_order():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(10, 60)
        for mode in MODES:
            g = _with_extra_arcs(rng, _planted_tt2(rng, n, mode), mode, rng.randint(1, n // 4))
            arcs = sorted(g.arcs, reverse=True)
            rng.shuffle(arcs)
            want = decide_small_target(g, TT2, mode)
            got = decide_small_target(OrientedGraph(n, arcs), TT2, mode)
            assert (got.status, got.witnesses) == (want.status, want.witnesses)


# -- linear time, counted in implications --------------------------------------


def _chain(n):
    """Arcs i+1 -> i down to 0, then a = n and c = n + 1 with a -> n-1, a -> c
    and n-1 -> c: in mode in, a and n-1 share c's in-set, so the whole path
    takes q, which trying p first from each vertex finds only at its end."""
    a, c = n, n + 1
    return OrientedGraph(n + 2, [(i + 1, i) for i in range(n - 1)]
                         + [(a, n - 1), (a, c), (n - 1, c)])


def _hub(k):
    """For each i < k, arcs s_i -> y_i, h -> w_i and y_i -> w_i and a path of
    FIRST_ROUND arcs into s_i; all s come first, then all y, all w and the
    paths, and h last.  s_i taking p must climb its whole path, so q's side
    of every s_i start reaches h and its k out-arcs: rounds that counted
    popped vertices instead of implications would read them k times."""
    h = (3 + FIRST_ROUND) * k
    arcs = []
    for i in range(k):
        s, y, w = i, k + i, 2 * k + i
        path = [3 * k + FIRST_ROUND * i + j for j in range(FIRST_ROUND)] + [s]
        arcs += [(s, y), (h, w), (y, w)] + list(zip(path, path[1:]))
    return OrientedGraph(h + 1, arcs)


def _work_ratio(g):
    res = _checked(g, TT2, Mode.IN)
    assert res.sat
    (sets,) = g.mode_sets(Mode.IN)
    pairs = sum(len(members) == 2 for members in sets)
    size = g.n + len(g.arcs) + pairs
    # the bound in the injhom.poly docstring for a satisfiable instance
    assert res.propagations <= FIRST_ROUND * g.n + 9 * len(g.arcs)
    return res.propagations / size


@pytest.mark.parametrize("family, size", [(_chain, 4_000), (_hub, 1_000)])
def test_propagations_are_linear(family, size):
    small, large = _work_ratio(family(size)), _work_ratio(family(4 * size))
    assert large <= small * 1.05
