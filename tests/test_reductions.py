import hashlib
import itertools
import random
from pathlib import Path

import pytest

from injhom.acceptance import petersen_graph, subcubic_graphs_upto_iso
from injhom.catalog import canonical_form, named_target
from injhom.digraph import MAX_VERTICES, Mode, OrientedGraph
from injhom.errors import (
    BoundExceeded,
    BudgetExhausted,
    DegreeTooHigh,
    DegreeTooLow,
    DuplicateArc,
    InjhomError,
    MalformedLine,
    NormalizationFailed,
    PortColourMismatch,
    TemplateNotFound,
    VertexOutOfRange,
)
from injhom.gadgets import asset_dir, load_gadget, ring, ring_links
from injhom.reductions import (
    EDGE_COLOURS,
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
    is_proper_edge_colouring,
    _vertex_fixing,
    lift_colouring,
    parse_undirected,
    three_edge_colouring_oracle,
)
from injhom.solver import decide, enumerate_colourings, verify_colouring

from helpers import planted
from lift_reference import reference_lift

K3 = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
K4 = UndirectedGraph(4, list(itertools.combinations(range(4), 2)))
C3 = named_target("C3")
TT4 = named_target("TT4")
TT5 = named_target("TT5")


def _random_oriented(rng, n):
    arcs = []
    for u in range(n):
        if rng.random() < 0.15:
            arcs.append((u, u))
        for v in range(u + 1, n):
            r = rng.random()
            if r < 0.35:
                arcs.append((u, v))
            elif r < 0.7:
                arcs.append((v, u))
    return OrientedGraph(n, arcs)


# -- plumbing ----------------------------------------------------------------


def test_parse_undirected():
    g = parse_undirected("n 3\na 2 0\na 0 1")
    assert g.edges == {(0, 2), (0, 1)}


@pytest.mark.parametrize("text, error, message", [
    ("n x", MalformedLine, "line 1: bad vertex count 'x'"),
    ("n -1", MalformedLine, "line 1: negative vertex count"),
    ("n 3\n# c\nn 4", MalformedLine, "line 3: duplicate vertex-count line"),
    ("n 3\na 0 x", MalformedLine, "line 2: bad edge 'a 0 x'"),
    ("n 3\na 0 1\na 1 3", VertexOutOfRange, "line 3: edge (1, 3) outside 0..2"),
    ("n 3\na -1 0", VertexOutOfRange, "line 2: edge (-1, 0) outside 0..2"),
    ("n 3\na 2 2", MalformedLine, "line 2: loop at 2 not allowed in a simple graph"),
    ("n 3\na 0 1\na 1 0", DuplicateArc, "line 3: edge (0, 1) listed twice"),
    ("a 0 1\nn 3", MalformedLine, "line 1: edge before vertex-count line"),
    (f"# huge\nn {MAX_VERTICES + 1}", MalformedLine,
     f"line 2: vertex count {MAX_VERTICES + 1} exceeds the limit {MAX_VERTICES}"),
])
def test_parse_undirected_errors(text, error, message):
    with pytest.raises(error) as err:
        parse_undirected(text)
    assert str(err.value) == message


def test_oracle_k4_sat():
    col = three_edge_colouring_oracle(K4)
    assert col is not None and is_proper_edge_colouring(K4, col)


def test_oracle_single_edge_first_colour():
    g = UndirectedGraph(2, [(0, 1)])
    assert three_edge_colouring_oracle(g) == {(0, 1): 1}  # colour b


# sha256 prefix of the oracle's colourings (None where there is none) over
# every subcubic graph on at most 6 vertices and the Petersen graph, recorded
# while the oracle still recursed once per edge: the first colouring it finds
# must not depend on how it backtracks
ORACLE_DIGEST = "9f2965aea9a77cb6"


def test_oracle_first_colourings_pinned():
    graphs = [g for n in range(7) for g in subcubic_graphs_upto_iso(n)] + [petersen_graph()]
    results = [three_edge_colouring_oracle(g) for g in graphs]
    # no colouring: Petersen, and K4 with a subdivided edge, alone, with an
    # isolated vertex and with a pendant edge
    assert sum(r is None for r in results) == 4
    assert hashlib.sha256(repr(results).encode()).hexdigest()[:16] == ORACLE_DIGEST


def test_oracle_colours_a_path_longer_than_the_recursion_limit():
    path = UndirectedGraph(1_501, [(i, i + 1) for i in range(1_500)])
    colouring = three_edge_colouring_oracle(path)
    assert colouring is not None and is_proper_edge_colouring(path, colouring)


def test_oracle_degree_bound():
    star = UndirectedGraph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(DegreeTooHigh):
        three_edge_colouring_oracle(star)


def test_oracle_budget_keeps_the_colouring():
    for g in (K4, petersen_graph()):
        want = three_edge_colouring_oracle(g)
        assert three_edge_colouring_oracle(g, node_budget=100_000) == want
    # K4 needs one node per edge and no backtracking
    assert three_edge_colouring_oracle(K4, node_budget=6) == three_edge_colouring_oracle(K4)
    with pytest.raises(BudgetExhausted, match=r"^no 3-edge-colouring found within 5 nodes$"):
        three_edge_colouring_oracle(K4, node_budget=5)
    with pytest.raises(BudgetExhausted):
        three_edge_colouring_oracle(K4, node_budget=0)
    assert three_edge_colouring_oracle(UndirectedGraph(3, []), node_budget=0) == {}
    with pytest.raises(InjhomError, match=r"^node budget -1 is negative$"):
        three_edge_colouring_oracle(K4, node_budget=-1)


def test_max_degree_of_a_star():
    star = UndirectedGraph(5, [(0, i) for i in range(1, 5)])
    assert star.max_degree() == 4
    with pytest.raises(DegreeTooHigh, match=r"^max degree 4 > 3$"):
        build_ios_t4(star)


def test_edge_colouring_check_on_a_large_planted_cubic_graph():
    # three edge-disjoint perfect matchings; the matching index is a proper colouring
    rng, m = random.Random(8), 2_000
    colouring = {}
    for colour in EDGE_COLOURS:
        while True:
            perm = rng.sample(range(m), m)
            matching = [tuple(sorted(perm[i:i + 2])) for i in range(0, m, 2)]
            if not any(e in colouring for e in matching):
                break
        colouring.update(dict.fromkeys(matching, colour))
    g = UndirectedGraph(m, colouring)
    assert g.max_degree() == 3
    assert is_proper_edge_colouring(g, colouring)
    edge = min(colouring)
    recoloured = dict(colouring)
    recoloured[edge] = next(c for c in EDGE_COLOURS if c != colouring[edge])
    assert not is_proper_edge_colouring(g, recoloured)


def test_oracle_class_two_graph():
    # K4 with one subdivided edge is subcubic but needs four colours
    g = UndirectedGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert g.max_degree() == 3
    assert three_edge_colouring_oracle(g) is None


# -- T4 builders -------------------------------------------------------------


def test_build_ios_t4_single_edge_bookkeeping():
    g = UndirectedGraph(2, [(0, 1)])
    ri = build_ios_t4(g)
    assert len(ri.vertex_gadget) == 2 and len(ri.edge_gadget) == 1
    assert ri.graph.n == 2 * 32 + 10 - 2  # two identifications
    # four of the six squares stay unused
    used = {v for pair in ri.squares_used.values() for v in pair}
    assert len(ri.squares_used) == 1 and len(used) <= 2


def test_build_ios_t4_k4_uses_every_square():
    ri = build_ios_t4(K4)
    assert len(ri.vertex_gadget) == 4 and len(ri.edge_gadget) == 6
    claimed = [
        (x, s)
        for e, (su, sv) in ri.squares_used.items()
        for x, s in zip(e, (su, sv))
    ]
    assert len(claimed) == 12 and len(set(claimed)) == 12  # 4 vertices x 3 squares


def test_builders_bound_the_instance_before_building_it(monkeypatch):
    def no_build(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("injhom.reductions.compose", no_build)
    monkeypatch.setattr("injhom.reductions.ring", no_build)
    # 32 Hx vertices per source vertex: 32 * 32 769 = 1 048 608 > 2^20
    with pytest.raises(BoundExceeded, match=r"^the ios-t4 instance would have 1048608 vertices, "
                                            rf"over the limit {MAX_VERTICES}$"):
        build_ios_t4(UndirectedGraph(32_769))
    # 1 + 20 vertices per source vertex: 21 * 49 933 = 1 048 593
    with pytest.raises(BoundExceeded, match="1048593 vertices"):
        build_ios_t5(OrientedGraph(49_933))


def test_build_t4_determinism():
    a, b = build_ios_t4(K3), build_ios_t4(K3)
    assert a.graph == b.graph and a.map_lines() == b.map_lines()


def test_build_t4_degree_bound():
    star = UndirectedGraph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(DegreeTooHigh):
        build_ios_t4(star)


def test_k3_sat_both_t4_kinds():
    for build in (build_ios_t4, build_iot_t4):
        ri = build(K3)
        assert decide(ri.graph, ri.target, ri.mode).sat


def test_class_two_graph_unsat_both_t4_kinds():
    g = UndirectedGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    for build in (build_ios_t4, build_iot_t4):
        ri = build(g)
        assert not decide(ri.graph, ri.target, ri.mode).sat


def test_extract_edge_colouring_proper_and_lift_round_trip():
    base = three_edge_colouring_oracle(K3)
    for build in (build_ios_t4, build_iot_t4):
        ri = build(K3)
        full = lift_colouring(ri, base)
        ok, why = verify_colouring(ri.graph, ri.target, full, ri.mode)
        assert ok, why
        assert extract_edge_colouring(ri, full) == base


def test_extract_every_witness_is_proper():
    ri = build_iot_t4(K3)
    res = enumerate_colourings(ri.graph, ri.target, ri.mode)
    assert res.witnesses
    for w in res.witnesses:
        assert is_proper_edge_colouring(K3, extract_edge_colouring(ri, w))


def test_port_colour_mismatch_detected():
    ri = build_ios_t4(K3)
    w = list(decide(ri.graph, ri.target, ri.mode).witnesses[0])
    p, q = next(iter(ri.ports.values()))
    w[p] = w[q] % 3 + 1  # rotate within {b, c, d}: always differs from w[q]
    with pytest.raises(PortColourMismatch):
        extract_edge_colouring(ri, w)


def test_lift_rejects_improper_base():
    ri = build_ios_t4(K3)
    bad = {e: 1 for e in K3.edges}  # all edges coloured b: not proper
    with pytest.raises(ValueError):
        lift_colouring(ri, bad)


def test_lift_raises_package_error_on_invalid_witness(monkeypatch):
    # a raised check, unlike an assert, survives python -O
    monkeypatch.setattr("injhom.reductions.verify_colouring", lambda *args: (False, "planted"))
    with pytest.raises(InjhomError, match="invalid witness: planted"):
        lift_colouring(build_ios_t4(K3), three_edge_colouring_oracle(K3))


# -- T5 builders -------------------------------------------------------------


def test_build_ios_t5_padding():
    g = OrientedGraph(1)
    ri = build_ios_t5(g)
    assert ri.padded == 1 and len(ri.vertex_gadget) == 2
    assert ri.graph.n == 2 + 2 * 20
    # one attachment arc per ring slot, including the dummy
    attach = ri.vertex_gadget[0][11]
    assert ri.graph.has_arc(attach, ri.inner[0])


@pytest.mark.parametrize("build, name", [(build_ios_t5, "Jv"), (build_iot_t5, "Dv")])
def test_t5_ring_is_the_lemma_ring(build, name):
    # the reduction wires its copies exactly as the ring lemma checks them
    spec = load_gadget(name)
    for n in (2, 3, 4):
        ri = build(_random_oriented(random.Random(n), n))
        among_copies = {(u - n, v - n) for u, v in ri.graph.arcs if u >= n and v >= n}
        lemma_ring, _ = ring(OrientedGraph(0), [spec.graph], n, ring_links(spec))
        assert among_copies == set(lemma_ring.arcs)


def test_build_t5_three_cycle_sat():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    for build in (build_ios_t5, build_iot_t5):
        ri = build(g)
        assert decide(ri.graph, ri.target, ri.mode).sat


def test_build_t5_out_star_unsat():
    star = OrientedGraph(5, [(0, i) for i in range(1, 5)])
    for build in (build_ios_t5, build_iot_t5):
        ri = build(star)
        assert not decide(ri.graph, ri.target, ri.mode).sat


def test_t5_equivalence_random():
    rng = random.Random(123)
    for _ in range(15):
        g = _random_oriented(rng, rng.randint(1, 4))
        for build, mode in ((build_ios_t5, Mode.IOS), (build_iot_t5, Mode.IOT)):
            want = decide(g, C3, mode).sat
            ri = build(g)
            assert decide(ri.graph, ri.target, ri.mode).sat == want


def test_t5_lift_and_extract_round_trip():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    base = {0: 0, 1: 1, 2: 2}
    for build, mode in ((build_ios_t5, Mode.IOS), (build_iot_t5, Mode.IOT)):
        ri = build(g)
        full = lift_colouring(ri, base)
        ok, why = verify_colouring(ri.graph, ri.target, full, ri.mode)
        assert ok, why
        assert extract_inner_colouring(ri, full) == base


def test_t5_chains_rotated_to_the_builder_anchor():
    # Jv's chain a, c, e, b, d at labels 0, 4, 8, 12, 16, rotated so that the
    # anchor label 8 takes a; Dv's d, a, c at 0, 4, 8 already has 0 at d
    cycle = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    ri = build_ios_t5(cycle)
    assert ri.copy_colours == {0: 1, 4: 3, 8: 0, 12: 2, 16: 4}
    assert build_iot_t5(cycle).copy_colours == {0: 3, 4: 0, 8: 2}
    fixed = _vertex_fixing(ri, {0: 0, 1: 1, 2: 2})
    assert fixed[ri.anchor_vertex] == ri.anchor_colour
    assert all(fixed[labels[8]] == 0 for labels in ri.vertex_gadget.values())


@pytest.mark.parametrize("build, mode", [(build_ios_t5, Mode.IOS), (build_iot_t5, Mode.IOT)])
def test_t5_lift_fixings_on_every_ring_length(build, mode):
    # the reference lift fixes every copy's chain, which leaves its search
    # nearly backtrack free on rings of 2 to 40 copies; the budget, linear in
    # the instance, makes a fixing that leaves the search to backtrack fail fast
    rng = random.Random(40)
    for n in range(41):
        for _ in range(3):
            g, base = planted(rng, n, C3, mode)
            ri = build(g)
            res = reference_lift(ri, base, node_budget=10 * ri.graph.n + 100)
            assert res.sat, (n, res.status, res.nodes)
            assert verify_colouring(ri.graph, ri.target, res.witnesses[0], ri.mode)[0]
            assert extract_inner_colouring(ri, res.witnesses[0]) == base


def test_t5_extract_lands_in_c3():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    ri = build_ios_t5(g)
    for w in [decide(ri.graph, ri.target, ri.mode).witnesses[0]]:
        inner = extract_inner_colouring(ri, w)
        ok, why = verify_colouring(g, C3, inner, Mode.IOS)
        assert ok, why


# -- collapse ----------------------------------------------------------------


def test_collapse_target_tt5():
    source, cmap = collapse_target(TT5, 0, "out")
    assert canonical_form(source) == canonical_form(TT4)
    assert cmap == {1: 0, 2: 1, 3: 2, 4: 3}
    sink, _ = collapse_target(TT5, 4, "in")
    assert canonical_form(sink) == canonical_form(TT4)


def test_collapse_target_degree_too_low():
    with pytest.raises(DegreeTooLow):
        collapse_target(named_target("T4"), 0, "out")


def test_collapse_vertex_counts():
    g = OrientedGraph(3, [(0, 1)])
    ri = build_ios_collapse(g, TT5, 0, "out")
    assert ri.graph.n == 3 + 3 + 3 * 5
    ri2 = build_iot_collapse(g, TT5, 0, "out")
    assert ri2.graph.n == 3 + 2 * 3 * 5


def test_collapse_star_copy_arc_count():
    # removing the pivot's strict out-arcs leaves 10 - 4 = 6 arcs per T* copy
    g = OrientedGraph(2, [(0, 1)])
    ri = build_iot_collapse(g, TT5, 0, "out")
    star = ri.star_gadget[0]
    ids = set(star.values())
    inside = [(u, v) for u, v in ri.graph.arcs if u in ids and v in ids]
    assert len(inside) == 6


def test_collapse_single_vertex_padded():
    g = OrientedGraph(1)
    ri = build_ios_collapse(g, TT5, 0, "out")
    assert ri.padded == 1 and len(ri.vertex_gadget) == 2
    assert decide(ri.graph, ri.target, ri.mode).sat  # isolated vertex colourable


def test_collapse_equivalence_random():
    rng = random.Random(321)
    for _ in range(10):
        g = _random_oriented(rng, rng.randint(1, 4))
        for pivot, direction in ((0, "out"), (4, "in")):
            for build, mode in (
                (build_ios_collapse, Mode.IOS),
                (build_iot_collapse, Mode.IOT),
            ):
                want = decide(g, TT4, mode).sat
                ri = build(g, TT5, pivot, direction)
                assert decide(ri.graph, ri.target, ri.mode).sat == want


def test_collapse_lift_extract_identity():
    g = OrientedGraph(2, [(0, 1)])
    base = {0: 0, 1: 1}
    for build, mode in (
        (build_ios_collapse, Mode.IOS),
        (build_iot_collapse, Mode.IOT),
    ):
        ri = build(g, TT5, 0, "out")
        full = lift_colouring(ri, base)
        ok, why = verify_colouring(ri.graph, ri.target, full, ri.mode)
        assert ok, why
        assert extract_inner_colouring(ri, full) == base


def test_collapse_extract_witness_valid_for_small_target():
    g = OrientedGraph(2, [(0, 1)])
    ri = build_ios_collapse(g, TT5, 0, "out")
    w = decide(ri.graph, ri.target, ri.mode).witnesses[0]
    inner = extract_inner_colouring(ri, w)
    ok, why = verify_colouring(g, ri.source_target, inner, Mode.IOS)
    assert ok, why


def test_normalization_failure_reported():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    ri = build_ios_t5(g)
    w = list(decide(ri.graph, ri.target, ri.mode).witnesses[0])
    # force a source vertex to the anchor colour, which C3 extraction rejects
    fake = dict(enumerate(w))
    fake[ri.inner[0]] = fake[ri.anchor_vertex]
    with pytest.raises(NormalizationFailed):
        extract_inner_colouring(ri, [fake[v] for v in range(ri.graph.n)])


def test_map_lines_deterministic_and_complete():
    ri = build_ios_t5(OrientedGraph(2, [(0, 1)]))
    lines = ri.map_lines()
    assert lines == ri.map_lines()
    assert any(line.startswith("inner.0=") for line in lines)
    assert any(line.startswith("kind=ios-t5") for line in lines)


def test_lift_rejects_invalid_base_for_t5_and_collapse():
    cycle = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    ri = build_ios_t5(cycle)
    with pytest.raises(ValueError):
        lift_colouring(ri, {0: 0, 1: 2, 2: 1})  # 0->1 maps onto the non-arc a->c
    g = OrientedGraph(3, [(0, 1), (0, 2)])
    ri2 = build_ios_collapse(g, TT5, 0, "out")
    with pytest.raises(ValueError):
        lift_colouring(ri2, {0: 0, 1: 1, 2: 1})  # 1 and 2 share 0's out-set


def _random_subcubic(rng, n):
    edges = []
    deg = [0] * n
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < 3 and deg[v] < 3 and rng.random() < 0.6:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return UndirectedGraph(n, edges)


@pytest.mark.slow
def test_t4_reduction_equivalence_larger_random_sample():
    # beyond the exhaustive <= 6 sweep: a seeded sample at 8-10 vertices
    rng = random.Random(88)
    for _ in range(10):
        g = _random_subcubic(rng, rng.randint(8, 10))
        want = three_edge_colouring_oracle(g) is not None
        for build in (build_ios_t4, build_iot_t4):
            ri = build(g)
            assert decide(ri.graph, ri.target, ri.mode).sat == want


def test_second_build_reads_no_file(monkeypatch):
    square = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    first = build_ios_t4(square)
    reads = []
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    second = build_ios_t4(square)
    assert reads == []
    assert second.graph == first.graph and second.map_lines() == first.map_lines()
    (asset_dir() / "Hx.graph").read_text()  # the counter does see a read
    assert reads == ["Hx.graph"]
