"""The lift as an assembly from copy tables: checked against the decide-based
reference lift on planted sources, and every table entry against every entry
it can meet in an instance."""
import itertools
import random

import pytest

from injhom.acceptance import subcubic_graphs_upto_iso
from injhom.catalog import named_target
from injhom.digraph import Mode, OrientedGraph
from injhom.gadgets import (
    EDGE_GADGETS,
    chain_links,
    chain_table,
    compose,
    edge_tables,
    load_gadget,
    ring,
)
from injhom.reductions import (
    C3_EMBEDDING,
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
    lift_colouring,
)
from injhom.naive import naive_witnesses
from injhom.solver import verify_colouring

from helpers import all_oriented, planted
from lift_reference import reference_lift

C3 = named_target("C3")
TT5 = named_target("TT5")

# collapse kind -> (builder, mode, pivot, direction)
COLLAPSES = {
    "collapse-ios": (build_ios_collapse, Mode.IOS, 0, "out"),
    "collapse-iot": (build_iot_collapse, Mode.IOT, 4, "in"),
}
T4_BUILDS = {"ios-t4": build_ios_t4, "iot-t4": build_iot_t4}
# t5 kind -> (builder, mode, chain gadget)
T5_BUILDS = {"ios-t5": (build_ios_t5, Mode.IOS, "Jv"), "iot-t5": (build_iot_t5, Mode.IOT, "Dv")}
KINDS = (*T4_BUILDS, *T5_BUILDS, *COLLAPSES)


def _planted_edges(rng, n):
    """A subcubic graph grown edge by edge around a proper 3-edge-colouring
    that stays proper, and that colouring."""
    colouring: dict[tuple[int, int], int] = {}
    used: list[set[int]] = [set() for _ in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        c = rng.choice(EDGE_COLOURS)
        if (u, v) in colouring or c in used[u] or c in used[v]:
            continue
        colouring[(u, v)] = c
        used[u].add(c)
        used[v].add(c)
    return UndirectedGraph(n, colouring), colouring


def _planted_case(kind, rng, n):
    """An instance of `kind` from a planted n-vertex source, with its base."""
    if kind in T4_BUILDS:
        g, base = _planted_edges(rng, n)
        return T4_BUILDS[kind](g), base
    if kind in T5_BUILDS:
        build, mode, _ = T5_BUILDS[kind]
        g, base = planted(rng, n, C3, mode)
        return build(g), base
    build, mode, pivot, direction = COLLAPSES[kind]
    g, base = planted(rng, n, collapse_target(TT5, pivot, direction)[0], mode)
    return build(g, TT5, pivot, direction), base


def _round_trip(ri, base):
    lifted = lift_colouring(ri, base)
    ok, why = verify_colouring(ri.graph, ri.target, lifted, ri.mode)
    assert ok, why
    extract = extract_edge_colouring if ri.kind in T4_BUILDS else extract_inner_colouring
    assert extract(ri, lifted) == base


@pytest.mark.parametrize("kind", KINDS)
def test_lift_agrees_with_the_reference_on_planted_sources(kind):
    # 3 sources per size from 0 to 40 vertices; sizes 0 and 1 pad the rings
    rng = random.Random(kind)
    for n in range(41):
        for _ in range(3):
            ri, base = _planted_case(kind, rng, n)
            assert reference_lift(ri, base).sat, n
            _round_trip(ri, base)


def test_lift_every_base_of_every_small_source():
    # loops included, and every colouring of each source, not one planted
    lifts = 0
    for g in all_oriented(3):
        instances = [build(g) for build, _, _ in T5_BUILDS.values()]
        instances += [build(g, TT5, pivot, direction)
                      for build, _, pivot, direction in COLLAPSES.values()]
        for ri in instances:
            for w in naive_witnesses(g, ri.source_target, ri.mode):
                _round_trip(ri, dict(enumerate(w)))
                lifts += 1
    for g in (g for n in range(6) for g in subcubic_graphs_upto_iso(n)):
        edges = sorted(g.edges)
        for colours in itertools.product(EDGE_COLOURS, repeat=len(edges)):
            base = dict(zip(edges, colours))
            if is_proper_edge_colouring(g, base):
                for build in T4_BUILDS.values():
                    _round_trip(build(g), base)
                    lifts += 1
    assert lifts == 9152


def test_lift_runs_no_search_once_its_tables_are_filled(monkeypatch):
    cases = [_planted_case(kind, random.Random(kind), 12) for kind in KINDS]
    first = [lift_colouring(ri, base) for ri, base in cases]

    def no_search(*args, **kwargs):
        raise AssertionError("decide called")

    monkeypatch.setattr("injhom.gadgets.decide", no_search)
    assert [lift_colouring(ri, base) for ri, base in cases] == first


def _paint(f, scope, copy, entry):
    for lbl, c in enumerate(entry):
        assert f[scope[(copy, lbl)]] in (None, c)  # a merged port gets one colour
        f[scope[(copy, lbl)]] = c


@pytest.mark.parametrize("name", sorted(EDGE_GADGETS))
def test_t4_tables_compose(name):
    # Every arc of a t4 instance lies in one gadget copy.  A vertex that is
    # not a merged port has all its neighbours in its own copy; a merged port
    # is shared by one vertex copy, at a used square, and one edge copy, at
    # either end.  So an instance assembled from the tables is valid if every
    # entry is valid alone and every vertex entry is valid glued at each used
    # square to the edge entry of that square's colour, by either end.  Keys
    # range over every set of squares with distinct colours.
    edge, vertex = load_gadget(name), load_gadget(EDGE_GADGETS[name].vertex)
    target, mode = named_target(edge.contract.target), edge.contract.mode
    vertex_table, edge_table = edge_tables(name)
    for colour in EDGE_COLOURS:
        assert verify_colouring(edge.graph, target, edge_table[colour], mode)[0]
    glued = 0
    for k in range(4):
        for squares in itertools.combinations(("s1", "s2", "s3"), k):
            for colours in itertools.permutations(EDGE_COLOURS, k):
                key = tuple(zip(squares, colours))
                assert verify_colouring(vertex.graph, target, vertex_table[key], mode)[0]
                for (square, colour), end in itertools.product(key, EDGE_GADGETS[name].ends):
                    graph, scope = compose([vertex, edge], [((0, square), (1, end))])
                    f = [None] * graph.n
                    _paint(f, scope, 0, vertex_table[key])
                    _paint(f, scope, 1, edge_table[colour])
                    assert f[scope[(0, vertex.port(square))]] == colour
                    ok, why = verify_colouring(graph, target, f, mode)
                    assert ok, (key, end, why)
                    glued += 1
    assert glued == 2 * (3 * 3 + 3 * 6 * 2 + 6 * 3)


@pytest.mark.parametrize("kind", sorted(T5_BUILDS))
def test_t5_tables_compose(kind):
    # A source vertex's neighbours are source vertices and its copy's attach
    # port; a copy vertex's lie in its own copy, the copies before and after
    # it and its source vertex.  So an instance assembled from the chain table
    # is valid if the base is and every ordered pair of keys is valid in a
    # ring of two copies, each source vertex joined to one vertex per colour
    # of its key's set.  A source vertex at C3 colour b has mode-set members
    # of distinct colours, each a neighbour of b in C3 in that set's sense,
    # so the keys below are every key an instance can hold.
    build, mode, name = T5_BUILDS[kind]
    ri, spec = build(OrientedGraph(2)), load_gadget(name)
    table = chain_table(spec.name, tuple(ri.copy_colours.items()))
    keys = [
        (C3_EMBEDDING[b], frozenset(C3_EMBEDDING[c] for c in subset))
        for b in range(3)
        for k in range(4)
        for subset in itertools.combinations(sorted(C3.graph.mode_sets(mode)[0][b]), k)
    ]
    assert len(keys) == (12 if mode is Mode.IOS else 24)
    for pair in itertools.product(keys, repeat=2):
        colours = [colour for colour, _ in pair]
        arcs = []
        for u, (colour, others) in enumerate(pair):
            for c in sorted(others):
                arcs.append((len(colours), u) if ri.target.graph.has_arc(c, colour)
                            else (u, len(colours)))
                colours.append(c)
        graph, starts = ring(OrientedGraph(len(colours), arcs), [spec.graph], 2,
                             chain_links(spec))
        f = colours + [c for key in pair for c in table[key]]
        assert all(f[off + lbl] == c for off in starts[1] for lbl, c in ri.copy_colours.items())
        ok, why = verify_colouring(graph, ri.target, f, mode)
        assert ok, (pair, why)
