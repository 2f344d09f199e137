import itertools
import random

import pytest

from injhom.catalog import Target, named_target
from injhom.digraph import MODES, Mode, OrientedGraph
from injhom.errors import InjhomError, InvalidFixedAssignment, PartialColouring
from injhom.gadgets import load_gadget
from injhom.naive import naive_witnesses
from injhom.poly import decide_small_target
from injhom.reductions import (
    UndirectedGraph,
    build_ios_collapse,
    build_ios_t4,
    build_ios_t5,
    build_iot_collapse,
    build_iot_t4,
    build_iot_t5,
    collapse_target,
    extract_edge_colouring,
    extract_inner_colouring,
    lift_colouring,
    three_edge_colouring_oracle,
)
from injhom.solver import (
    _Engine,
    _instance_table,
    _target_table,
    decide,
    enumerate_colourings,
    enumerate_mod_aut,
    pigeonhole_unsat,
    verify_colouring,
)

from helpers import all_oriented, digest, planted

C3 = named_target("C3")
TT3 = named_target("TT3")
T4 = named_target("T4")
T5 = named_target("T5")
TT5 = named_target("TT5")

THREE_CYCLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])


def _random_graph(rng, n, loop_p=0.2):
    arcs = []
    for u in range(n):
        if rng.random() < loop_p:
            arcs.append((u, u))
        for v in range(u + 1, n):
            r = rng.random()
            if r < 0.3:
                arcs.append((u, v))
            elif r < 0.6:
                arcs.append((v, u))
    return OrientedGraph(n, arcs)


# -- verify_colouring --------------------------------------------------------


def test_verify_identity_cycle():
    ok, why = verify_colouring(THREE_CYCLE, C3, (0, 1, 2), Mode.IOT)
    assert ok and why is None


def test_verify_reflexive_absorbs_constant_map():
    g = OrientedGraph(2, [(0, 1)])
    ok, _ = verify_colouring(g, T4, (0, 0), Mode.IOS)
    assert ok


def test_verify_reports_injectivity_violation():
    # two in-neighbours of vertex 2 both coloured a
    g = OrientedGraph(3, [(0, 2), (1, 2)])
    ok, why = verify_colouring(g, T4, (0, 0, 1), Mode.IN)
    assert not ok and "in-neighbourhood of 2" in why


def test_verify_reports_out_and_both_violations():
    # arcs 1 -> 0 -> 2, every vertex coloured a; T4 is reflexive, so no arc fails
    g = OrientedGraph(3, [(1, 0), (0, 2)])
    ok, why = verify_colouring(g, T4, (0, 0, 0), Mode.IOT)
    assert not ok and why == "vertices 1 and 2 in the both-neighbourhood of 0 both take colour 0"
    assert verify_colouring(g, T4, (0, 0, 0), Mode.IOS) == (True, None)
    fork = OrientedGraph(3, [(0, 1), (0, 2)])
    ok, why = verify_colouring(fork, T4, (0, 0, 0), Mode.IOS)
    assert not ok and why == "vertices 1 and 2 in the out-neighbourhood of 0 both take colour 0"
    assert verify_colouring(fork, T4, (0, 0, 0), Mode.IN) == (True, None)


def test_verify_reports_arc_violation():
    g = OrientedGraph(2, [(0, 1)])
    ok, why = verify_colouring(g, C3, (0, 2), Mode.IOS)  # a->c is not a C3 arc
    assert not ok and "arc (0, 1)" in why


def test_verify_reports_the_least_bad_arc_before_any_clash():
    # both arcs leave C3 and the out-neighbours of 0 share a colour
    g = OrientedGraph(3, [(0, 2), (0, 1)])
    assert verify_colouring(g, C3, (0, 2, 2), Mode.IOS) == (
        False, "arc (0, 1) maps to (0, 2), not an arc of the target"
    )


# sha256 prefix of every (ok, why) below, recorded while the checker still
# sorted every arc and neighbourhood on each call: which violation it names
# must not depend on how it finds one
VERIFY_DIGEST = "3e5fa1685f1eee4a"


def test_verify_names_the_same_violation():
    rng = random.Random(2024)
    tt2 = named_target("TT2")
    outcomes = []
    for _ in range(200):
        # past 8 vertices a frozenset can iterate out of sorted order
        n = rng.randrange(20)
        p = rng.choice((0.05, 0.1, 0.3, 0.6))
        arcs = []
        for u in range(n):
            for v in range(u, n):
                r = rng.random()
                if r < p / 2:
                    arcs.append((u, v))
                elif r < p and u != v:
                    arcs.append((v, u))
        g = OrientedGraph(n, arcs)
        for t in (C3, T4, tt2):
            for mode in MODES:
                colours = t.graph.n + (rng.random() < 0.05)  # now and then one too many
                f = [rng.randrange(colours) for _ in range(n)]
                outcomes.append(verify_colouring(g, t, f, mode))
    kinds = {why.split()[0] if why else "ok" for _, why in outcomes}
    assert kinds == {"ok", "arc", "vertices", "colour"}
    assert digest(outcomes) == VERIFY_DIGEST


def test_verify_partial_rejected():
    with pytest.raises(PartialColouring):
        verify_colouring(THREE_CYCLE, C3, {0: 0, 1: 1}, Mode.IOS)
    with pytest.raises(PartialColouring):
        verify_colouring(THREE_CYCLE, C3, (0, 1), Mode.IOS)


# -- decide ------------------------------------------------------------------


def test_decide_out_star_pigeonhole():
    star = OrientedGraph(5, [(0, i) for i in range(1, 5)])
    res = decide(star, T4, Mode.IOS)
    assert res.status == "unsat"


def test_decide_single_vertex():
    g = OrientedGraph(1)
    for t in (C3, TT3, T4, T5):
        for mode in MODES:
            assert decide(g, t, mode).sat


def test_decide_hx_forced_values():
    hx = load_gadget("Hx")
    res = decide(hx.graph, T4, Mode.IOS)
    assert res.sat
    w = res.witnesses[0]
    assert w[3] == w[13] == w[23] == 0  # colour a
    assert w[31] == 3  # colour d


def test_decide_fixed_validation():
    g = OrientedGraph(2, [(0, 1)])
    with pytest.raises(InvalidFixedAssignment):
        decide(g, C3, Mode.IOS, fixed={0: 0, 1: 2})  # a->c not an arc
    with pytest.raises(InvalidFixedAssignment):
        decide(g, C3, Mode.IOS, fixed={0: 7})
    sibs = OrientedGraph(3, [(0, 2), (1, 2)])
    with pytest.raises(InvalidFixedAssignment):
        decide(sibs, T4, Mode.IN, fixed={0: 1, 1: 1})


def test_decide_fixed_reports_first_violation():
    # bad arcs (0, 1), (5, 4) and (6, 4); 5 and 6 share 4's in-set, 7 and 8 share 2's
    g = OrientedGraph(9, [(0, 1), (5, 4), (6, 4), (7, 2), (8, 2)])
    cases = [
        # the head earliest in fixed order wins, then the tail earliest in fixed order
        ({7: 0, 8: 0, 4: 0, 6: 1, 5: 1, 1: 2, 0: 0},
         "fixed arc (6, 4) maps to non-arc (1, 0)"),
        ({1: 2, 0: 0, 4: 0, 6: 1, 5: 1, 7: 0, 8: 0},
         "fixed arc (0, 1) maps to non-arc (0, 2)"),
        # arcs are checked before shared neighbourhoods
        ({8: 1, 7: 1, 1: 2, 0: 0}, "fixed arc (0, 1) maps to non-arc (0, 2)"),
        ({8: 1, 7: 1},
         "vertices 7 and 8 share a neighbourhood but are both fixed to colour 1"),
    ]
    for fixed, message in cases:
        with pytest.raises(InvalidFixedAssignment) as err:
            decide(g, C3, Mode.IN, fixed=fixed)
        assert str(err.value) == message


def test_decide_fixed_reports_least_clashing_pair():
    # in-sets: 0 <- {3, 5}, 1 <- {2, 4, 6}, 7 <- {1, 8}; no arc joins two fixed vertices
    g = OrientedGraph(9, [(3, 0), (5, 0), (2, 1), (4, 1), (6, 1), (1, 7), (8, 7)])
    cases = [
        # the least pair wins whatever the fixed order
        (Mode.IN, {5: 0, 3: 0, 6: 2, 4: 2, 2: 2}, (2, 4, 2)),
        (Mode.IN, {5: 4, 3: 4, 8: 1, 1: 1}, (1, 8, 1)),
        (Mode.IN, {6: 2, 4: 2, 5: 1, 3: 1}, (3, 5, 1)),
        (Mode.IN, {6: 0, 2: 0, 4: 1}, (2, 6, 0)),
        # in iot mode 7 shares 1's neighbourhood with 2, 4 and 6
        (Mode.IOT, {7: 3, 6: 3}, (6, 7, 3)),
    ]
    for mode, fixed, (x, y, c) in cases:
        with pytest.raises(InvalidFixedAssignment) as err:
            decide(g, T5, mode, fixed=fixed)
        assert str(err.value) == (
            f"vertices {x} and {y} share a neighbourhood but are both fixed to colour {c}")
    assert decide(g, T5, Mode.IN, fixed={7: 3, 6: 3}).sat


def test_decide_fixed_loop_on_loopless_colour():
    # a non-reflexive target: colour 0 has no loop, colour 1 has one
    t = Target(OrientedGraph(2, [(0, 1), (1, 1)]))
    g = OrientedGraph(2, [(0, 0), (0, 1)])
    with pytest.raises(InvalidFixedAssignment) as err:
        decide(g, t, Mode.IOS, fixed={0: 0})
    assert str(err.value) == "fixed arc (0, 0) maps to non-arc (0, 0)"
    # the loop restricts vertex 0 to colour 1, whose out-set is too small
    assert decide(g, t, Mode.IOS, fixed={0: 1}).status == "unsat"
    assert decide(g, t, Mode.IN).status == "sat"


def test_decide_fixed_pair_in_shared_neighbourhood():
    # 0 and 1 share 2's in-set and are both fixed, so no table joins them
    sibs = OrientedGraph(3, [(0, 2), (1, 2)])
    res = decide(sibs, T4, Mode.IN, fixed={1: 2, 0: 1})
    assert (res.status, res.witnesses, res.nodes, res.propagations) == (
        "sat", [(1, 2, 2)], 3, 2
    )
    every = enumerate_colourings(sibs, T4, Mode.IN, fixed={1: 2, 0: 1}).witnesses
    assert every == [w for w in naive_witnesses(sibs, T4, Mode.IN) if w[:2] == (1, 2)]
    assert every == [(1, 2, 2), (1, 2, 3)]


def test_collapse_lift_with_a_thousand_fixed_vertices():
    ri, base = _lift_case("ios-collapse", 140, 7)
    assert ri.graph.n == 980  # the lift fixes every instance vertex
    full = lift_colouring(ri, base)
    assert digest(full) == "7ee4e817ea1baf5d"


def test_decide_budget_exhaustion():
    g = _random_graph(random.Random(1), 6)
    res = decide(g, T5, Mode.IN, node_budget=1)
    assert res.status in ("budget_exhausted", "sat")
    res0 = decide(g, T5, Mode.IN, node_budget=0)
    assert res0.status == "budget_exhausted" and not res0.complete


# -- enumerate ---------------------------------------------------------------


def test_enumerate_single_vertex_c3():
    res = enumerate_colourings(OrientedGraph(1), C3, Mode.IOS)
    assert res.witnesses == [(0,), (1,), (2,)]


def test_enumerate_single_arc_c3():
    # brute force over the 9 maps: the three "reversed" pairs break arc
    # preservation, leaving 6 witnesses
    g = OrientedGraph(2, [(0, 1)])
    ref = naive_witnesses(g, C3, Mode.IOS)
    assert len(ref) == 6
    res = enumerate_colourings(g, C3, Mode.IOS)
    assert res.witnesses == ref


def test_enumerate_matches_naive_filter():
    rng = random.Random(2024)
    for _ in range(80):
        g = _random_graph(rng, rng.randint(0, 5))
        for t in (C3, TT3, T4, T5):
            for mode in MODES:
                assert (
                    enumerate_colourings(g, t, mode).witnesses
                    == naive_witnesses(g, t, mode)
                )


def test_enumerate_limit_is_lex_prefix():
    g = OrientedGraph(1)
    res = enumerate_colourings(g, T5, Mode.IOS, limit=2)
    assert res.witnesses == [(0,), (1,)] and not res.complete


def test_bad_limit_and_budget_rejected():
    one = OrientedGraph(1)
    for limit in (0, -3):
        with pytest.raises(InjhomError, match="limit"):
            enumerate_colourings(one, C3, Mode.IOS, limit=limit)
        with pytest.raises(InjhomError, match="limit"):
            enumerate_mod_aut(one, C3, Mode.IOS, limit=limit)
    for budget in (-1, -5):
        with pytest.raises(InjhomError, match="budget"):
            decide(one, C3, Mode.IOS, node_budget=budget)
        with pytest.raises(InjhomError, match="budget"):
            enumerate_colourings(one, C3, Mode.IOS, node_budget=budget)
        with pytest.raises(InjhomError, match="budget"):
            enumerate_mod_aut(one, C3, Mode.IOS, node_budget=budget)
    assert enumerate_colourings(one, C3, Mode.IOS, limit=1).witnesses == [(0,)]
    assert enumerate_colourings(one, C3, Mode.IOS, node_budget=0).status == "budget_exhausted"


def test_mode_monotonicity_random():
    rng = random.Random(77)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(1, 5))
        for t in (C3, T4, T5):
            w_in = set(enumerate_colourings(g, t, Mode.IN).witnesses)
            w_ios = set(enumerate_colourings(g, t, Mode.IOS).witnesses)
            w_iot = set(enumerate_colourings(g, t, Mode.IOT).witnesses)
            assert w_iot <= w_ios <= w_in


def test_automorphism_closure():
    rng = random.Random(99)
    for _ in range(20):
        g = _random_graph(rng, 4)
        wits = set(enumerate_colourings(g, T5, Mode.IOS).witnesses)
        for pi in T5.automorphisms():
            for w in wits:
                assert tuple(pi[c] for c in w) in wits


def test_every_witness_verifies():
    rng = random.Random(5)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 5))
        for mode in MODES:
            for w in enumerate_colourings(g, T4, mode).witnesses:
                ok, why = verify_colouring(g, T4, w, mode)
                assert ok, why


def test_determinism():
    g = _random_graph(random.Random(3), 5)
    a = enumerate_colourings(g, T4, Mode.IOS)
    b = enumerate_colourings(g, T4, Mode.IOS)
    assert a.witnesses == b.witnesses
    assert repr(a.witnesses) == repr(b.witnesses)


def test_empty_instance():
    g = OrientedGraph(0)
    assert decide(g, T4, Mode.IOS).sat
    assert enumerate_colourings(g, T4, Mode.IOS).witnesses == [()]


# -- enumerate_mod_aut -------------------------------------------------------


def test_mod_aut_vertex_transitive_target():
    res = enumerate_mod_aut(OrientedGraph(1), T5, Mode.IOS)
    assert res.orbits == 1


def test_mod_aut_trivial_group():
    res = enumerate_mod_aut(OrientedGraph(1), TT3, Mode.IOS)
    assert res.orbits == 3


def test_mod_aut_orbit_sizes_sum():
    rng = random.Random(11)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 4))
        full = set(enumerate_colourings(g, T5, Mode.IOS).witnesses)
        reps = enumerate_mod_aut(g, T5, Mode.IOS).witnesses
        auts = T5.automorphisms()
        orbit_union = set()
        for w in reps:
            orbit_union |= {tuple(pi[c] for c in w) for pi in auts}
        assert orbit_union == full


# a reflexive 3-vertex target with no strict arcs (Aut = S3), and a reflexive
# 4-vertex target with arcs 0->1 and 2->3 (Aut = Z2, two orbits): groups that
# do not act regularly, unlike those of C3 and T5
LOOPS3 = Target(OrientedGraph(3, [(v, v) for v in range(3)]), "loops3")
TWO_ARCS = Target(OrientedGraph(4, [(v, v) for v in range(4)] + [(0, 1), (2, 3)]), "two-arcs")


def _brute_automorphisms(tg):
    return [p for p in itertools.permutations(range(tg.n))
            if all((p[u], p[v]) in tg.arcs for u, v in tg.arcs)]


def test_root_symmetry():
    assert C3.root_symmetry() == (0b1, ((), (), ()))
    assert T5.root_symmetry() == (0b1, ((),) * 5)
    assert TT3.root_symmetry() == (0b111, ((),) * 3)
    assert T4.root_symmetry() == (0b1111, ((),) * 4)
    assert LOOPS3.root_symmetry() == (0b1, (((0, 2, 1),), (), ()))
    assert TWO_ARCS.root_symmetry() == (0b11, ((),) * 4)


def test_mod_aut_is_the_lex_least_orbit_representatives():
    # the full witness set, folded by brute force, on every graph of at most 4
    # vertices; acceptance criterion 4 checks C3, TT3, T4 and T5 on the same graphs
    targets = (LOOPS3, TWO_ARCS)
    auts = {t.name: _brute_automorphisms(t.graph) for t in targets}
    for g in all_oriented(4):
        for t in targets:
            for mode in MODES:
                full = enumerate_colourings(g, t, mode).witnesses
                want = sorted({min(tuple(p[c] for c in w) for p in auts[t.name]) for w in full})
                res = enumerate_mod_aut(g, t, mode)
                assert (res.witnesses, res.orbits, res.complete) == (want, len(want), True), (
                    g, t, mode)


def test_mod_aut_limit_is_incomplete():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    every = enumerate_mod_aut(g, T5, Mode.IOS)
    assert every.complete and every.orbits > 2
    res = enumerate_mod_aut(g, T5, Mode.IOS, limit=2)
    assert res.witnesses == every.witnesses[:2]
    assert (res.status, res.orbits, res.complete) == ("sat", 2, False)


def test_mod_aut_budget():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    res = enumerate_mod_aut(g, T5, Mode.IOS, node_budget=1)
    assert (res.status, res.complete) == ("budget_exhausted", False)


def test_decide_past_the_automorphism_bound():
    # no automorphisms past CANONICAL_MAX colours, so no root rule either
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    tt9 = named_target("TT9")
    res = decide(g, tt9, Mode.IOS)
    assert res.sat and verify_colouring(g, tt9, res.witnesses[0], Mode.IOS)[0]


# -- pinned search policy ----------------------------------------------------
#
# Node and propagation counts, witnesses and enumeration order are part of the
# solver's contract: a change to the branching rule or the propagation order
# must show here.  The values were recorded with the linear-scan selection
# that the per-domain-size buckets replaced; the decide values were
# re-recorded when the root rule came in (C3 and T5 decide calls changed,
# enumeration did not).  The TT3/T4 profile was recorded before the root
# rule: it must not move for targets with a trivial group.


def _search_profile(graphs, targets=(C3, TT3, T4, T5)):
    """Summed decide/enumerate counts and a digest of every answer, in order."""
    totals = {"decide_nodes": 0, "decide_props": 0, "enum_nodes": 0, "enum_props": 0}
    answers = []
    for g in graphs:
        for t in targets:
            for mode in MODES:
                d = decide(g, t, mode)
                e = enumerate_colourings(g, t, mode)
                totals["decide_nodes"] += d.nodes
                totals["decide_props"] += d.propagations
                totals["enum_nodes"] += e.nodes
                totals["enum_props"] += e.propagations
                answers.append((d.status, d.witnesses, e.status, e.witnesses))
    totals["answers"] = digest(answers)
    return totals


GOLDEN_SMALL = {
    "decide_nodes": 8257, "decide_props": 6026, "enum_nodes": 69678,
    "enum_props": 26014, "answers": "265a8f8a061ea32b",
}
GOLDEN_SIX = {
    0: {"decide_nodes": 42, "decide_props": 95, "enum_nodes": 242,
        "enum_props": 381, "answers": "ff05b9b1ecc0e1a5"},
    1: {"decide_nodes": 26, "decide_props": 68, "enum_nodes": 229,
        "enum_props": 403, "answers": "2d359d695252947d"},
    3: {"decide_nodes": 43, "decide_props": 79, "enum_nodes": 920,
        "enum_props": 312, "answers": "be7691890b658095"},
    5: {"decide_nodes": 25, "decide_props": 35, "enum_nodes": 709,
        "enum_props": 1099, "answers": "f1149e1e9e718839"},
    6: {"decide_nodes": 78, "decide_props": 209, "enum_nodes": 630,
        "enum_props": 942, "answers": "1e8fa3fd850b814a"},
}
GOLDEN_TRIVIAL_GROUP = {
    "decide_nodes": 4523, "decide_props": 3342, "enum_nodes": 27122,
    "enum_props": 10454, "answers": "08a5ccbf1473d3ce",
}
# kind -> (instance vertices, digest of the lifted colouring)
GOLDEN_LIFT = {
    "ios-t4": (120, "58e49e3a52c59891"),
    "iot-t4": (114, "7374cc2d5192da62"),
    "ios-t5": (105, "23f34dbd857a18eb"),
    "iot-t5": (121, "58ee89e04d13f382"),
    "ios-collapse": (98, "81752c521a8881ae"),
    "iot-collapse": (121, "afc291ca9226322e"),
}


def test_pinned_search_all_small_graphs():
    assert _search_profile(all_oriented(3)) == GOLDEN_SMALL


def test_pinned_search_trivial_group_targets():
    assert _search_profile(all_oriented(3), (TT3, T4)) == GOLDEN_TRIVIAL_GROUP


def test_pinned_search_seeded_six_vertex_graphs():
    for seed, want in GOLDEN_SIX.items():
        assert _search_profile([_random_graph(random.Random(seed), 6)]) == want, seed


# -- the constraint compile -------------------------------------------------
# The engine's dom0 and cons, against the global table build it replaced:
# every difference pair, then one (v, u)-keyed table per arc and pair, sorted.
# Equal tables give equal searches, so this pins answers and counts too.

LOOPY = Target(OrientedGraph(4, [(0, 0), (0, 1), (1, 2), (2, 0), (2, 3), (3, 3)]), "loopy")


def _oracle_pairs(g, mode):
    pairs = set()
    for members in itertools.chain.from_iterable(zip(*g.mode_sets(mode))):
        pairs.update(itertools.combinations(sorted(members), 2))
    return pairs


def _oracle_compile(g, t, mode, fixed, pairs):
    masks = t.graph._memoised(_target_table)
    full = (1 << t.n) - 1
    out = tuple(sum(1 << d for d in t.graph.out_set(c)) for c in range(t.n))
    into = tuple(sum(1 << d for d in t.graph.in_set(c)) for c in range(t.n))
    dom = []
    for v, sets in enumerate(zip(*g.mode_sets(mode))):
        m = masks.loops if g.has_loop(v) else full
        for members, cap in zip(sets, masks.capacity[mode]):
            m &= cap[len(members)] if len(members) < len(cap) else 0
        dom.append(m)
    for v, c in fixed.items():
        dom[v] &= 1 << c
    tables = {}
    for u, v in g.arcs:
        if u != v and not (u in fixed and v in fixed):
            tables[u, v] = out
            tables[v, u] = into
    differ = tuple(full ^ (1 << c) for c in range(t.n))
    for x, y in pairs:
        if not (x in fixed and y in fixed):
            for key in ((x, y), (y, x)):
                row = tables.get(key)
                tables[key] = differ if row is None else tuple(map(int.__and__, row, differ))
    cons = [[] for _ in range(g.n)]
    for (v, u), row in sorted(tables.items()):
        cons[v].append((u, row))
    return dom, cons


def _valid_fixing(rng, g, t, pairs):
    """A random fixing of one or two vertices that the engine accepts, or {}."""
    for _ in range(10):
        fixed = {v: rng.randrange(t.n) for v in rng.sample(range(g.n), min(g.n, 2))}
        if all(t.graph.has_arc(fixed[u], fixed[v]) for u, v in g.arcs
               if u in fixed and v in fixed) and not any(
                x in fixed and y in fixed and fixed[x] == fixed[y] for x, y in pairs):
            return fixed
    return {}


def _check_compile(rng, graphs, targets):
    """Compare the engine with the oracle, unfixed and with a random valid
    fixing; returns how many cases got a non-empty fixing."""
    fixings = 0
    for g in graphs:
        for mode in MODES:
            pairs = _oracle_pairs(g, mode)
            for t in targets:
                fixed = _valid_fixing(rng, g, t, pairs)
                fixings += bool(fixed)
                # the engine's kinds, mapped through the colour-major rows to
                # the per-colour tables the oracle builds
                rows = t.graph._memoised(_target_table).rows
                by_kind = [tuple(rc[k] for rc in rows) for k in range(8)]
                for f in ({}, fixed):
                    eng = _Engine(g, t, mode, f)
                    cons = [[(u, by_kind[k]) for u, k in cv] for cv in eng.cons]
                    assert (eng.dom0, cons) == _oracle_compile(g, t, mode, f, pairs), (
                        g, t, mode, f)
    return fixings


def test_compile_matches_global_tables_on_all_small_graphs():
    fixings = _check_compile(random.Random(9), all_oriented(4), (C3, TT3, T4, T5, LOOPY))
    assert fixings > 150_000  # most cases get a non-empty fixing


def test_compile_matches_global_tables_on_larger_graphs():
    graphs = [_random_graph(random.Random(seed), 30, loop_p=0.1) for seed in range(4)]
    assert _check_compile(random.Random(30), graphs, (C3, T5, LOOPY)) > 24


# -- both halves of the compile, in the graph's one cache ---------------------


def _engine_tables(g, t, mode, fixed):
    try:
        eng = _Engine(g, t, mode, fixed)
    except InvalidFixedAssignment as exc:
        return str(exc)
    return eng.dom0, eng.cons, decide(g, t, mode, fixed)


def test_constraint_table_memo_matches_a_fresh_graph():
    """One graph warmed in every mode, under several targets and fixings, gives
    the engine what a fresh equal graph gives, and its tables stay as built."""
    rng = random.Random(12)
    # 3 and 4 share 2's in-set, so {0: 0, 3: 1, 4: 1} is joined at 0 and then
    # raises at 3, partway through the join
    hand = OrientedGraph(6, [(0, 1), (3, 2), (4, 2), (0, 3), (5, 5), (1, 5)])
    raised = 0
    for g in (hand, _random_graph(rng, 7)):
        for mode in (Mode.IOT, Mode.IN, Mode.IOS, Mode.IN):
            pairs = _oracle_pairs(g, mode)
            for t in (C3, T4, LOOPY):
                for fixed in ({}, _valid_fixing(rng, g, t, pairs), {0: 0, 3: 1, 4: 1}):
                    got = _engine_tables(g, t, mode, fixed)
                    assert got == _engine_tables(OrientedGraph(g.n, g.arcs), t, mode, fixed)
                    raised += isinstance(got, str)
        fresh = OrientedGraph(g.n, g.arcs)
        tables = [g._memoised(_instance_table, mode) for mode in MODES]
        assert tables == [fresh._memoised(_instance_table, mode) for mode in MODES]
        # the modes differ here, so a memo blind to the mode would show
        assert all(a != b for a, b in itertools.combinations(tables, 2))
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert raised >= 12  # the hand fixing, in every mode and target


def test_screen_and_poly_leave_the_partner_table_unbuilt():
    # the 2-colour decider runs on 10^3-10^4-vertex graphs that never reach the search
    g = _random_graph(random.Random(3), 8)
    for mode in MODES:
        pigeonhole_unsat(g, T4, mode)
        decide_small_target(g, named_target("TT2"), mode)
    assert g.mode_sets(Mode.IOT) is g.mode_sets(Mode.IOT)
    assert not any((_instance_table, mode) in g._memo for mode in MODES)


def test_a_graph_that_is_instance_and_target_shares_one_cache():
    """A graph solved against itself keeps the instance's half, the target's
    half and its automorphisms in its one cache; it answers as fresh equal
    graphs do in every mode, whichever half was built first."""
    for t, run in ((T5, decide), (LOOPY, enumerate_colourings), (C3, enumerate_mod_aut)):
        for mode in MODES:
            n, arcs = t.graph.n, t.graph.arcs
            want = run(OrientedGraph(n, arcs), Target(OrientedGraph(n, arcs)), mode)
            assert run(t.graph, t, mode) == want, (t.name, mode)
            # the target's half first, then the instance's
            g = OrientedGraph(n, arcs)
            pigeonhole_unsat(THREE_CYCLE, Target(g), mode)
            assert run(g, Target(g), mode) == want, (t.name, mode)
            assert run(g, Target(g), mode) == want, (t.name, mode)
            assert Target(g).root_symmetry() == t.root_symmetry()


@pytest.mark.parametrize("bad", ["in", "iot", None, 1])
def test_a_mode_that_is_not_a_mode_raises(bad):
    path = OrientedGraph(3, [(0, 1), (1, 2)])
    assert len(naive_witnesses(path, C3, Mode.IN)) == 12
    calls = (
        lambda: naive_witnesses(path, C3, bad),
        lambda: decide(path, C3, bad),
        lambda: enumerate_colourings(path, C3, bad),
        lambda: verify_colouring(path, C3, (0, 1, 2), bad),
        lambda: pigeonhole_unsat(path, C3, bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"mode {bad!r} is not a Mode"):
            call()


def test_naive_filter_edge_cases_and_size_guard():
    empty = Target(OrientedGraph(0))
    assert naive_witnesses(OrientedGraph(0), empty, Mode.IN) == [()]
    assert naive_witnesses(OrientedGraph(2), empty, Mode.IN) == []
    assert naive_witnesses(OrientedGraph(0), T5, Mode.IOT) == [()]
    # a loop maps only onto a looped colour; every named target is reflexive
    one_loop = Target(OrientedGraph(2, [(0, 1), (1, 1)]))
    assert naive_witnesses(OrientedGraph(1, [(0, 0)]), one_loop, Mode.IN) == [(1,)]
    with pytest.raises(ValueError, match=r"^map table 5\^10 too large for the naive filter$"):
        naive_witnesses(OrientedGraph(10), T5, Mode.IN)


def _oracle_pigeonhole(g, t, mode):
    """The screen as it compared neighbourhood sizes of graph and target."""
    return any(
        max(map(len, sets), default=0) > max(map(len, caps), default=0)
        for sets, caps in zip(g.mode_sets(mode), t.graph.mode_sets(mode))
    )


def test_pigeonhole_matches_size_comparison_on_all_small_graphs():
    targets = [named_target(name) for name in ("C3", "TT1", "TT2", "TT3", "T4", "T5")]
    targets += [LOOPY, Target(OrientedGraph(0), "empty")]
    screened = 0
    for g in all_oriented(4):
        for t in targets:
            for mode in MODES:
                want = _oracle_pigeonhole(g, t, mode)
                assert pigeonhole_unsat(g, t, mode) == want, (g, t.name, mode)
                screened += want
    assert 0 < screened < 11_895 * len(targets) * len(MODES)


def _lift_case(kind, n, seed):
    """A reduction instance of the given kind from an n-vertex source, with a base."""
    rng = random.Random(seed)
    if kind.endswith("t4"):
        # a cycle, with its long diagonals when n > 3: K3 for n = 3, K3,3 for n = 6
        src = UndirectedGraph(
            n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                if abs(u - v) in (1, n - 1) or (n > 3 and abs(u - v) == n // 2)]
        )
        build = build_ios_t4 if kind == "ios-t4" else build_iot_t4
        return build(src), three_edge_colouring_oracle(src)
    mode = Mode.IOS if kind.startswith("ios") else Mode.IOT
    if kind.endswith("t5"):
        g, base = planted(rng, n, C3, mode)
        return (build_ios_t5 if mode is Mode.IOS else build_iot_t5)(g), base
    g, base = planted(rng, n, collapse_target(TT5, 0, "out")[0], mode)
    build = build_ios_collapse if mode is Mode.IOS else build_iot_collapse
    return build(g, TT5, 0, "out"), base


# kind -> (source vertices, seed); every instance has about 100 vertices
LIFT_CASES = {
    "ios-t4": (3, 1),
    "iot-t4": (6, 2),
    "ios-t5": (5, 3),
    "iot-t5": (11, 4),
    "ios-collapse": (14, 5),
    "iot-collapse": (11, 6),
}


def test_pinned_lift_per_reduction_kind():
    got = {}
    for kind, (n, seed) in LIFT_CASES.items():
        ri, base = _lift_case(kind, n, seed)
        got[kind] = (ri.graph.n, digest(lift_colouring(ri, base)))
    assert got == GOLDEN_LIFT


# per LIFT_CASES kind: the lift succeeds, the instance size, and whether
# extract(lift(base)) == base.  A new witness rule moves GOLDEN_LIFT, never this
GOLDEN_LIFT_ANSWERS = "d6337e3a28ec641d"


def test_pinned_lift_answers_per_reduction_kind():
    got = []
    for kind, (n, seed) in LIFT_CASES.items():
        ri, base = _lift_case(kind, n, seed)
        extract = extract_edge_colouring if kind.endswith("t4") else extract_inner_colouring
        try:
            answer = (True, extract(ri, lift_colouring(ri, base)) == base)
        except InjhomError:
            answer = (False, False)
        got.append((kind, ri.graph.n, answer))
    assert digest(got) == GOLDEN_LIFT_ANSWERS
