import hashlib
import itertools
import random

import pytest

from injhom.catalog import (
    TT_MAX,
    Target,
    _enumerate_values,
    automorphisms,
    canonical_form,
    degree_profile,
    enumerate_reflexive_tournaments,
    is_vertex_transitive,
    named_target,
    serialize_target,
)
from injhom.digraph import OrientedGraph, parse_graph
from injhom.errors import BoundExceeded
from injhom.solver import _target_table


def test_c3_arcs():
    c3 = named_target("C3").graph
    assert c3.arcs == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)}


def test_t4_neighbourhood_structure():
    t4 = named_target("T4").graph
    # out-neighbourhoods, loops included
    assert t4.out_set(0) == {0, 1, 2}
    assert t4.out_set(1) == {1, 2, 3}
    assert t4.out_set(2) == {2, 3}
    assert t4.out_set(3) == {3, 0}
    assert t4.in_set(1) == {0, 1}
    assert t4.in_set(2) == {0, 1, 2}
    assert t4.in_set(3) == {1, 2, 3}


def test_t5_neighbourhood_structure():
    t5 = named_target("T5").graph
    assert t5.out_set(0) == {0, 1, 2}
    assert t5.out_set(3) == {3, 4, 0}
    # b, d, e induce a directed three-cycle
    assert t5.has_arc(1, 3) and t5.has_arc(3, 4) and t5.has_arc(4, 1)


def test_ttn():
    tt6 = named_target("TT6")
    assert tt6.graph.arc_count == 6 + 15
    assert degree_profile(tt6).out_degrees[0] == 6  # source dominates everything


def test_named_targets_are_reflexive_tournaments():
    for name in ("C3", "TT3", "T4", "T5", "TT1", "TT7"):
        t = named_target(name)
        assert t.reflexive and t.is_tournament


def test_named_target_is_shared_per_name():
    t5 = named_target("T5")
    assert named_target(" T5 ") is t5
    table = t5.graph._memoised(_target_table)
    assert table is named_target("T5").graph._memoised(_target_table)
    assert named_target("TT3") is named_target("TT3") is not named_target("TT4")
    with pytest.raises(AttributeError):
        t5.name = "other"
    assert named_target("T5").name == "T5"
    for bad in ("T9", "TT0"):
        with pytest.raises(ValueError):
            named_target(bad)


def test_named_tt_is_bounded():
    big = named_target(f"TT{TT_MAX}")
    assert big.graph.n == TT_MAX and big.graph.arc_count == TT_MAX * (TT_MAX + 1) // 2
    # the bound is checked before any arc is built
    for bad in (f"TT{TT_MAX + 1}", "TT99999999"):
        with pytest.raises(ValueError, match=f"1 <= n <= {TT_MAX}"):
            named_target(bad)


def test_kind_rows_combine_out_into_differ():
    # the solver's target table, rows[c][kind]: bit 1 = arc to the partner,
    # 2 = arc from it, 4 = differ
    for name in ("C3", "TT1", "TT2", "TT3", "TT5", "TT7", "T4", "T5"):
        t = named_target(name)
        g, masks = t.graph, t.graph._memoised(_target_table)
        colours = range(g.n)
        full = (1 << g.n) - 1
        out = tuple(sum(1 << d for d in colours if g.has_arc(c, d)) for c in colours)
        into = tuple(sum(1 << d for d in colours if g.has_arc(d, c)) for c in colours)
        differ = tuple(full ^ (1 << c) for c in colours)
        assert len(masks.rows) == g.n and {len(rc) for rc in masks.rows} == {8}, name
        rows = {kind: tuple(rc[kind] for rc in masks.rows) for kind in range(8)}
        assert rows.pop(1) == out and rows.pop(2) == into and rows.pop(4) == differ, name
        assert rows.pop(5) == tuple(map(int.__and__, out, differ)), name
        assert rows.pop(6) == tuple(map(int.__and__, into, differ)), name
        # no constraint, and the two kinds only a digon could give
        assert rows.pop(0) == (full,) * g.n, name
        assert rows.pop(3) == tuple(map(int.__and__, out, into)), name
        assert rows.pop(7) == tuple(o & i & d for o, i, d in zip(out, into, differ)), name
        assert not rows, name


def test_enumeration_counts():
    assert [len(enumerate_reflexive_tournaments(n)) for n in range(1, 6)] == [
        1, 1, 2, 4, 12,
    ]


def test_enumeration_bounds():
    with pytest.raises(BoundExceeded):
        enumerate_reflexive_tournaments(0)
    with pytest.raises(BoundExceeded):
        enumerate_reflexive_tournaments(8)


def test_enumeration_members_are_reflexive_tournaments():
    for t in enumerate_reflexive_tournaments(4):
        assert t.reflexive and t.is_tournament


def test_enumeration_degree_sums():
    # strict out-degrees of a tournament sum to n(n-1)/2; reflexive average
    # out-degree is (n-1)/2 + 1
    for n in (3, 4, 5, 6):
        for t in enumerate_reflexive_tournaments(n):
            prof = degree_profile(t)
            assert sum(prof.out_degrees) - n == n * (n - 1) // 2
            assert sum(prof.out_degrees) / n == (n - 1) / 2 + 1


def test_enumeration_pairwise_non_isomorphic():
    keys = [canonical_form(t) for t in enumerate_reflexive_tournaments(5)]
    assert len(keys) == len(set(keys))


# (count, sha256 prefix of the comma-joined canonical values) per n, recorded
# from the brute-force enumeration the extension recurrence replaced
ENUMERATION_DIGESTS = {
    1: (1, "5feceb66ffc86f38"),
    2: (1, "5feceb66ffc86f38"),
    3: (2, "a7841ea775e1dff3"),
    4: (4, "21a2da57824e40a9"),
    5: (12, "8d09d31f53579130"),
    6: (56, "950b73ced113460a"),
    7: (456, "eeff7374e07aa56c"),
}


@pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
def test_enumeration_values_pinned(n):
    values = _enumerate_values(n)
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]
    assert (len(values), digest) == ENUMERATION_DIGESTS[n]


@pytest.mark.slow
def test_enumeration_seven_vertices():
    assert len(enumerate_reflexive_tournaments(7)) == 456


def test_canonical_form_invariance():
    t4 = named_target("T4").graph
    for pi in itertools.permutations(range(4)):
        relabelled = OrientedGraph(4, [(pi[u], pi[v]) for u, v in t4.arcs])
        assert canonical_form(relabelled) == canonical_form(t4)


def test_canonical_form_distinguishes():
    assert canonical_form(named_target("C3")) != canonical_form(named_target("TT3"))


def test_canonical_form_stable():
    key = canonical_form(named_target("T5"))
    assert key == canonical_form(named_target("T5"))
    assert isinstance(key, bytes)


# canonical_form bytes recorded when every relabelling was gathered and packed
CANONICAL_BYTES = {
    "C3": "b980", "TT3": "9b80", "T4": "9ce7", "T5": "9e78e380",
    "loopless, not a tournament": "00610300", "loops on some vertices": "15a2",
}
OTHER_GRAPHS = {
    "loopless, not a tournament": OrientedGraph(5, [(0, 1), (1, 2), (3, 2), (0, 3), (4, 0)]),
    "loops on some vertices": OrientedGraph(4, [(0, 0), (2, 2), (0, 1), (1, 2), (3, 1), (2, 3)]),
}


def test_canonical_form_bytes_pinned():
    graphs = {name: named_target(name).graph for name in ("C3", "TT3", "T4", "T5")}
    got = {name: canonical_form(g).hex() for name, g in {**graphs, **OTHER_GRAPHS}.items()}
    assert got == CANONICAL_BYTES


def _random_digraph(rng, n):
    # a density per graph, so sparse, dense and highly symmetric graphs all occur
    p, loops = rng.random(), rng.random()
    arcs = [(v, v) for v in range(n) if rng.random() < loops]
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, arcs)


def test_canonical_form_and_automorphisms_match_brute_force():
    rng = random.Random(16)
    for _ in range(120):
        g = _random_digraph(rng, rng.randint(0, 6))
        perms = list(itertools.permutations(range(g.n)))
        strings = ["".join("01"[(p[a], p[b]) in g.arcs] for a in range(g.n) for b in range(g.n))
                   for p in perms]
        least = min(strings) + "0" * (-g.n * g.n % 8)
        packed = bytes(int(least[i:i + 8], 2) for i in range(0, len(least), 8))
        assert canonical_form(g) == packed, g
        auts = [p for p in perms if {(p[u], p[v]) for u, v in g.arcs} == g.arcs]
        assert automorphisms(g) == tuple(auts), g
        pi = rng.sample(range(g.n), g.n)
        assert canonical_form(OrientedGraph(g.n, [(pi[u], pi[v]) for u, v in g.arcs])) == packed


def test_canonical_form_bound():
    with pytest.raises(BoundExceeded):
        canonical_form(OrientedGraph(9))


def test_automorphisms_tt3_trivial():
    assert automorphisms(named_target("TT3")) == ((0, 1, 2),)


def test_automorphisms_t5():
    auts = automorphisms(named_target("T5"))
    assert len(auts) == 5
    assert any(pi[0] == 2 and pi[2] == 4 for pi in auts)  # a->c and c->e
    # group closure under composition and inverse
    as_set = set(auts)
    for p in auts:
        for q in auts:
            assert tuple(p[q[v]] for v in range(5)) in as_set
        assert tuple(sorted(range(5), key=lambda v: p[v])) in as_set


def test_automorphisms_c3():
    assert len(automorphisms(named_target("C3"))) == 3


def test_automorphism_preserves_arcs():
    t = named_target("T5")
    arcs = t.graph.arcs
    for pi in automorphisms(t):
        assert {(pi[u], pi[v]) for u, v in arcs} == arcs


def test_vertex_transitivity():
    assert is_vertex_transitive(named_target("T5"))
    assert not is_vertex_transitive(named_target("T4"))
    assert is_vertex_transitive(Target(OrientedGraph(1, [(0, 0)])))


def test_degree_profile_t5():
    prof = degree_profile(named_target("T5"))
    assert prof.in_degrees == (3, 3, 3, 3, 3)
    assert prof.out_degrees == (3, 3, 3, 3, 3)
    assert prof.high_vertices == ()


def test_degree_profile_t4():
    prof = degree_profile(named_target("T4"))
    assert prof.out_degrees == (3, 3, 2, 2)
    assert prof.high_vertices == ()


def test_t4_t5_unique_without_degree_four_vertices():
    # on 4 and 5 vertices exactly one tournament has no vertex of in- or
    # out-degree >= 4 (loops counted), and it is the named one
    four = [t for t in enumerate_reflexive_tournaments(4)
            if not degree_profile(t).high_vertices]
    assert len(four) == 1
    assert canonical_form(four[0]) == canonical_form(named_target("T4"))
    five = [t for t in enumerate_reflexive_tournaments(5)
            if not degree_profile(t).high_vertices]
    assert len(five) == 1
    assert canonical_form(five[0]) == canonical_form(named_target("T5"))


def test_serialize_target_header_and_round_trip():
    t5 = named_target("T5")
    text = serialize_target(t5)
    assert text.startswith("# target T5\n")
    assert parse_graph(text) == t5.graph


def test_degree_profile_reflexive_degree_identity():
    for t in enumerate_reflexive_tournaments(5):
        prof = degree_profile(t)
        for v in range(5):
            assert prof.in_degrees[v] + prof.out_degrees[v] == 5 + 1
