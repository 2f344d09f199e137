import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injhom.digraph import (
    MAX_VERTICES,
    MODES,
    Mode,
    OrientedGraph,
    induced_subgraph,
    is_strongly_connected,
    parse_document,
    parse_graph,
    serialize_graph,
)
from injhom.catalog import named_target
from injhom.errors import (
    DigonViolation,
    DuplicateArc,
    InjhomError,
    MalformedLine,
    VertexOutOfRange,
)
from injhom.gadgets import parse_contract
from injhom.reductions import parse_undirected


def test_parse_simple_arc():
    g = parse_graph("n 2\na 0 1")
    assert g.n == 2 and g.arcs == {(0, 1)}


def test_parse_loop_gives_self_in_neighbourhood():
    g = parse_graph("n 1\na 0 0")
    assert g.in_set(0) == {0}
    assert g.out_set(0) == {0}


def test_parse_digon_rejected():
    with pytest.raises(DigonViolation):
        parse_graph("n 2\na 0 1\na 1 0")


def test_parse_errors():
    with pytest.raises(MalformedLine):
        parse_graph("a 0 1")
    with pytest.raises(MalformedLine):
        parse_graph("n 2\nxyzzy")
    with pytest.raises(VertexOutOfRange):
        parse_graph("n 2\na 0 5")
    with pytest.raises(DuplicateArc):
        parse_graph("n 2\na 0 1\na 0 1")
    # a count past the limit is refused before any vertex is allocated
    with pytest.raises(MalformedLine, match=f"^line 2: vertex count {MAX_VERTICES + 1} exceeds"):
        parse_graph(f"# huge\nn {MAX_VERTICES + 1}\na 0 1")


def test_parse_comments_and_ports_tolerated():
    g = parse_graph("# a comment\nn 2\na 0 1\nport left 0")
    assert g.arcs == {(0, 1)}


def test_serialize_empty():
    assert serialize_graph(OrientedGraph(0)) == "n 0"


def test_serialize_loop_round_trip():
    g = OrientedGraph(1, [(0, 0)])
    assert serialize_graph(g) == "n 1\na 0 0"
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_orders_arcs():
    g = OrientedGraph(3, [(2, 0), (0, 1), (1, 2)])
    assert serialize_graph(g) == "n 3\na 0 1\na 1 2\na 2 0"


def test_neighbourhood_directions():
    g = OrientedGraph(2, [(0, 1)])
    assert g.in_set(1) == {0}
    g2 = OrientedGraph(2, [(0, 0), (0, 1)])
    assert g2.out_set(0) == {0, 1}
    assert g2.mode_sets(Mode.IOT)[0][0] == {0, 1}
    with pytest.raises(VertexOutOfRange):
        g.in_set(5)


def test_mode_sets_loop_convention():
    g = OrientedGraph(2, [(0, 0), (0, 1)])
    (both,) = g.mode_sets(Mode.IOT)
    assert both[0] == {0, 1}
    nin, nout = g.mode_sets(Mode.IOS)
    assert nin[0] == {0} and nout[0] == {0, 1}


def test_induced_subgraph_examples():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    empty, _ = induced_subgraph(g, [])
    assert empty.n == 0
    same, relabel = induced_subgraph(g, range(3))
    assert same == g and relabel == {0: 0, 1: 1, 2: 2}


def test_induced_t4_strict_out_neighbourhood():
    t4 = named_target("T4").graph
    strict_out_a = sorted(t4.out_set(0) - {0})
    sub, _ = induced_subgraph(t4, strict_out_a)
    # b and c with loops and the arc b->c: a reflexive 2-vertex tournament
    assert sub == OrientedGraph(2, [(0, 0), (1, 1), (0, 1)])


def test_strongly_connected():
    assert is_strongly_connected(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_strongly_connected(named_target("TT3").graph)
    assert is_strongly_connected(named_target("T4").graph)
    assert is_strongly_connected(OrientedGraph(0))
    assert is_strongly_connected(OrientedGraph(1))


def _random_graph(rng, n):
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
    return OrientedGraph(n, arcs)


def test_property_serialize_parse_identity():
    rng = random.Random(42)
    for _ in range(200):
        g = _random_graph(rng, rng.randint(0, 8))
        assert parse_graph(serialize_graph(g)) == g


def test_property_loop_membership():
    rng = random.Random(44)
    for _ in range(100):
        g = _random_graph(rng, rng.randint(1, 6))
        for v in range(g.n):
            has = g.has_loop(v)
            assert (v in g.in_set(v)) == has
            assert (v in g.out_set(v)) == has


# -- neighbourhood storage ----------------------------------------------------


def test_property_neighbourhoods_match_arcs():
    rng = random.Random(45)
    for _ in range(200):
        n = rng.randint(0, 12)
        g = _random_graph(rng, n)
        arcs = list(g.arcs)
        # repeated arcs in the input collapse; the n // 2 added vertices stay isolated
        g = OrientedGraph(n + n // 2, arcs + rng.sample(arcs, len(arcs) // 3))
        assert g.arcs == frozenset(arcs)
        assert g.mode_sets(Mode.IN) == (g.mode_sets(Mode.IOS)[0],)
        for v in range(g.n):
            nin = {u for u, w in arcs if w == v}
            nout = {w for u, w in arcs if u == v}
            assert g.in_set(v) == nin and g.out_set(v) == nout
            assert g.mode_sets(Mode.IOS)[0][v] == nin
            assert g.mode_sets(Mode.IOS)[1][v] == nout
            both = g.mode_sets(Mode.IOT)[0][v]
            assert both == nin | nout
            assert all(type(s) is frozenset for s in (g.in_set(v), g.out_set(v), both))
        for mode in MODES:
            families = g.mirrored_mode_sets(mode)
            assert tuple(sets for sets, _ in families) == g.mode_sets(mode)
            for sets, mirror in families:
                assert {(v, w) for w in range(g.n) for v in sets[w]} == {
                    (v, w) for v in range(g.n) for w in mirror[v]}


def test_empty_neighbourhoods_are_one_object():
    rng = random.Random(46)
    graphs = [OrientedGraph(0), OrientedGraph(3), OrientedGraph(5, [(0, 1), (1, 2)])]
    graphs += [_random_graph(rng, rng.randint(1, 8)) for _ in range(50)]
    empties = [
        s
        for g in graphs
        for v in range(g.n)
        for s in (g.in_set(v), g.out_set(v), g.mode_sets(Mode.IOT)[0][v])
        if not s
    ]
    assert empties and len({id(s) for s in empties}) == 1
    path = OrientedGraph(3, [(0, 1), (1, 2)])
    (both,) = path.mode_sets(Mode.IOT)
    assert both[0] is path.out_set(0) and both[2] is path.in_set(2)


def _retained_bytes(build):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()  # held, so the measurement counts it
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_neighbourhood_storage_size():
    # one 216-byte frozenset per empty neighbourhood made these 4.48 MB and 2.24 MB
    assert _retained_bytes(lambda: OrientedGraph(10_000)) < 1_000_000
    path = OrientedGraph(10_000, [(v, v + 1) for v in range(0, 9_999, 3)])
    assert _retained_bytes(lambda: path.mode_sets(Mode.IOT)) < 500_000


# -- every parser on arbitrary text -------------------------------------------

# graph and contract documents: mostly a good header, then well-formed lines
# on four vertices, so that loops, duplicates and digons come up, then a line
# or two that may be out of range, misplaced or token soup
_JUNK = st.lists(st.sampled_from([
    "a", "n", "port", "range", "-1", "1048577", "99999999999999999999", "1.5", "x", "b",
    "z", "b,c,d", "1=b,1=c", "0=", "=", ",", "T5", "ios", "#",
]), max_size=4).map(" ".join)
_VERTEX = st.integers(0, 3)
_COLOUR = st.sampled_from("abez")


def _document(header, bad_headers, line, extra):
    return st.builds(
        lambda header, lines, extras: "\n".join([header, *lines, *extras]),
        st.one_of(st.just(header), st.sampled_from(bad_headers)),
        st.lists(line, max_size=8),
        st.lists(st.one_of(extra, _JUNK), max_size=2),
    )


_GRAPHS = _document(
    "n 4", ["n 0", "n -1", "n 1048577", "n x", ""],
    st.builds("a {} {}".format, _VERTEX, _VERTEX),
    st.one_of(
        st.builds("a {} {}".format, st.sampled_from([-1, 4]), _VERTEX),
        st.builds("port {} {}".format, st.sampled_from(["in0", "x"]), st.integers(-1, 4)),
        st.just("n 4"),
    ),
)
_CONTRACTS = _document(
    "target T5\nmode ios", ["target C3\nmode iot", "mode in\ntarget T4", "target TT99", ""],
    st.one_of(
        st.builds("{} {} {}".format, st.sampled_from(["forced", "range", "anchor"]), _VERTEX,
                  st.one_of(_COLOUR, st.just("b,c"))),
        st.builds("equal {} {}".format, _VERTEX, _VERTEX),
        st.builds("extends {}={},{}={}".format, _VERTEX, _COLOUR, _VERTEX, _COLOUR),
    ),
    st.sampled_from(["nonempty", "mode x", "target T4", "forced -1 a"]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_GRAPHS, _CONTRACTS, st.text(max_size=60)))
def test_parsers_return_or_raise_a_package_error(text):
    for parse in (parse_document, parse_undirected, parse_contract):
        try:
            parse(text)
        except InjhomError:
            pass
