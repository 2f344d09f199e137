import dataclasses
import random
import shutil
from collections import Counter
from typing import Iterable, Sequence

import pytest

from injhom.catalog import named_target
from injhom.digraph import Arc, Mode, OrientedGraph, random_oriented_graph
from injhom.errors import (
    AssetMissing,
    ContractMalformed,
    DigonViolation,
    InjhomError,
    SelfMergeCycle,
    UnknownPort,
)
from injhom.gadgets import (
    ALL_LEMMAS,
    ASSET_NAMES,
    Contract,
    GadgetSpec,
    asset_dir,
    compose,
    lemma_reports,
    load_gadget,
    parse_contract,
    ring,
    ring_links,
    verify_contract,
    verify_gadget,
)
from injhom.solver import verify_colouring


def test_load_hx_ports():
    hx = load_gadget("Hx")
    assert {hx.port("s1"), hx.port("s2"), hx.port("s3")} == {1, 11, 21}
    assert hx.port("d") == 31


def test_load_fe_ports():
    fe = load_gadget("Fe")
    assert fe.port("e0") == 0 and fe.port("e6") == 6


def test_load_missing_asset():
    with pytest.raises(AssetMissing):
        load_gadget("Nope")


def test_unknown_port():
    with pytest.raises(UnknownPort):
        load_gadget("Hx").port("zz")


def test_parse_contract_assets():
    hx = parse_contract((asset_dir() / "Hx.contract").read_text())
    assert hx == Contract(
        target="T4", mode=Mode.IOS, anchor=None,
        facts=(("nonempty",), ("forced", 3, 0), ("forced", 13, 0), ("forced", 23, 0),
               ("forced", 31, 3), ("extends", {1: 1, 11: 2, 21: 3})),
    )
    dv = parse_contract((asset_dir() / "Dv.contract").read_text())
    assert dv == Contract(
        target="T5", mode=Mode.IOT, anchor=(0, 3),
        facts=(("nonempty",), ("forced", 4, 0), ("forced", 8, 2)),
    )


def test_contract_malformed():
    with pytest.raises(ContractMalformed):
        parse_contract("mode ios\nnonempty")  # no target
    with pytest.raises(ContractMalformed):
        parse_contract("target T4\nmode ios\nforced x a")
    with pytest.raises(ContractMalformed):
        parse_contract("target T4\nmode ios\nwibble 3")


@pytest.mark.parametrize("text, lineno", [
    ("mode ios\nforced 1 a", 2),
    ("# no target yet\nmode ios\n\nanchor 0 a\ntarget T5", 4),
    ("mode iot\nrange 0 b,c", 2),
    ("mode ios\nextends 1=b", 2),
])
def test_contract_colour_before_target_has_line_number(text, lineno):
    with pytest.raises(ContractMalformed) as err:
        parse_contract(text)
    assert str(err.value).startswith(f"line {lineno}: ")
    assert "colour before target line" in str(err.value)


@pytest.mark.parametrize("text, lineno, header", [
    # a second target would reread the colours of the facts before it
    ("target T5\nmode ios\nforced 0 e\ntarget C3\nmode iot", 4, "target"),
    ("target T4\nmode ios\nnonempty\n\nmode iot", 5, "mode"),
    ("target T5\nmode ios\nanchor 0 a\nanchor 8 a", 4, "anchor"),
])
def test_contract_header_lines_appear_once(text, lineno, header):
    with pytest.raises(ContractMalformed) as err:
        parse_contract(text)
    assert str(err.value).startswith(f"line {lineno}: ")
    assert f"second {header} line" in str(err.value)


def test_load_gadget_validates_spec_invariants(tmp_path, monkeypatch):
    monkeypatch.setenv("INJHOM_ASSET_DIR", str(tmp_path))
    (tmp_path / "Bad.graph").write_text("n 2\na 0 1\nport p 0\nport q 0\n")
    (tmp_path / "Bad.contract").write_text("target T4\nmode ios\nnonempty\n")
    with pytest.raises(ContractMalformed):
        load_gadget("Bad")
    (tmp_path / "Worse.graph").write_text("n 2\na 0 1\n")
    (tmp_path / "Worse.contract").write_text("target T4\nmode ios\nforced 9 a\n")
    with pytest.raises(ContractMalformed):
        load_gadget("Worse")


def test_load_gadget_parses_once_per_asset_directory(tmp_path, monkeypatch):
    jv = load_gadget("Jv")
    assert load_gadget("Jv") is jv
    for suffix in (".graph", ".contract"):
        shutil.copy(asset_dir() / f"Jv{suffix}", tmp_path)
    monkeypatch.setenv("INJHOM_ASSET_DIR", str(tmp_path))
    other = load_gadget("Jv")
    assert other is not jv and other == jv
    assert load_gadget("Jv") is other


def test_failed_load_is_retried(tmp_path, monkeypatch):
    monkeypatch.setenv("INJHOM_ASSET_DIR", str(tmp_path))
    with pytest.raises(AssetMissing):
        load_gadget("G")
    (tmp_path / "G.graph").write_text("n 2\na 0 1\nport p 0\nport q 0\n")
    (tmp_path / "G.contract").write_text("target T4\nmode ios\nnonempty\n")
    with pytest.raises(ContractMalformed):
        load_gadget("G")
    (tmp_path / "G.graph").write_text("n 2\na 0 1\nport p 0\nport q 1\n")
    assert load_gadget("G").port("q") == 1


def test_gadget_specs_are_read_only():
    spec = load_gadget("Hx")
    with pytest.raises(TypeError):
        spec.ports["s1"] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "other"
    assert load_gadget("Hx").port("s1") == 1


def test_compose_plain_union():
    he = load_gadget("He")
    graph, scope = compose([he, he])
    assert graph.n == 20
    assert scope[(1, 0)] == 10
    edge = _spec(2, [(0, 1)], {"p": 0})
    assert compose([]) == (OrientedGraph(0), {})
    graph, scope = compose([edge, edge])
    assert graph == OrientedGraph(4, [(0, 1), (2, 3)])
    assert scope == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    graph, _ = compose([edge] * 5)
    assert graph.n == 10 and graph.arc_count == 5


def test_compose_identification_scope():
    he, hx = load_gadget("He"), load_gadget("Hx")
    graph, scope = compose(
        [he, hx, hx], [((1, "s1"), (0, "e0")), ((2, "s1"), (0, "e9"))]
    )
    assert graph.n == 10 + 32 + 32 - 2
    assert scope[(0, 0)] == scope[(1, 1)]  # He vertex 0 merged into square s1
    assert scope[(0, 9)] == scope[(2, 1)]


def test_compose_order_insensitive_up_to_relabelling():
    he, hx = load_gadget("He"), load_gadget("Hx")
    g1, s1 = compose([he, hx], [((1, "s1"), (0, "e0"))])
    g2, s2 = compose([hx, he], [((0, "s1"), (1, "e0"))])
    assert g1.n == g2.n and g1.arc_count == g2.arc_count
    # the scoped maps agree arc-by-arc after relabelling
    relabel = {s1[(0, v)]: s2[(1, v)] for v in range(he.graph.n)}
    relabel.update({s1[(1, v)]: s2[(0, v)] for v in range(hx.graph.n)})
    assert {(relabel[u], relabel[v]) for u, v in g1.arcs} == set(g2.arcs)


# -- compose against the construction it replaced -----------------------------
# Copied verbatim from digraph.py and gadgets.py as they were before compose
# laid the copies out in one pass: a disjoint union, then a union-find merge
# of the ports and a second build.  compose must give the same graph and scope.


def disjoint_union(gs: Sequence[OrientedGraph]) -> tuple[OrientedGraph, list[int]]:
    """Disjoint union; returns the union and the vertex-id offset of each part."""
    offsets: list[int] = []
    total = 0
    arcs: list[Arc] = []
    for g in gs:
        offsets.append(total)
        arcs.extend((u + total, v + total) for u, v in g.arcs)
        total += g.n
    return OrientedGraph(total, arcs), offsets


def identify_vertices(
    g: OrientedGraph, pairs: Iterable[tuple[int, int]]
) -> tuple[OrientedGraph, list[int]]:
    """Merge each (keep, merge) pair, compact ids, and return the relabelling map.

    Duplicate arcs created by a merge collapse silently (set semantics); a digon
    created by a merge is an error.  The merge pairs must form a forest.
    """
    parent: dict[int, int] = {}

    def root(x: int) -> int:
        seen = []
        while x in parent:
            seen.append(x)
            x = parent[x]
            if x in seen:
                raise SelfMergeCycle(f"merge pairs form a cycle through vertex {x}")
        return x

    for keep, merge in pairs:
        g._check(keep)
        g._check(merge)
        rk, rm = root(keep), root(merge)
        if rk == rm:
            raise SelfMergeCycle(f"pair ({keep}, {merge}) merges a vertex with itself")
        parent[rm] = rk

    survivors = sorted(v for v in range(g.n) if v not in parent)
    compact = {v: i for i, v in enumerate(survivors)}
    relabel = [compact[root(v)] for v in range(g.n)]

    arcs: set[Arc] = set()
    for u, v in g.arcs:
        a, b = relabel[u], relabel[v]
        if a != b and (b, a) in arcs:
            raise DigonViolation(
                f"merging created a digon between {a} and {b} (from arc ({u}, {v}))"
            )
        arcs.add((a, b))
    return OrientedGraph(len(survivors), arcs), relabel


def reference_compose(specs, identifications=()):
    union, offsets = disjoint_union([s.graph for s in specs])
    pairs = []
    for (i, pa), (j, pb) in identifications:
        pairs.append((offsets[i] + specs[i].port(pa), offsets[j] + specs[j].port(pb)))
    merged, relabel = identify_vertices(union, pairs)
    scope = {}
    for i, spec in enumerate(specs):
        for v in range(spec.graph.n):
            scope[(i, v)] = relabel[offsets[i] + v]
    return merged, scope


def _spec(n, arcs, ports):
    return GadgetSpec("G", OrientedGraph(n, arcs), ports, Contract("T4", Mode.IOS, None, ()))


def _star_identifications(rng, specs):
    """Random disjoint stars over the copies' ports: each leaf port merged into
    its star's centre, so no port is merged twice or into a merged port."""
    ports = [(i, p) for i, spec in enumerate(specs) for p in spec.ports]
    rng.shuffle(ports)
    del ports[rng.randint(0, len(ports)):]
    out = []
    while len(ports) >= 2:
        centre, leaves = ports[0], ports[1:rng.randint(2, min(4, len(ports)))]
        out += [(centre, leaf) for leaf in leaves]
        del ports[:1 + len(leaves)]
    rng.shuffle(out)
    return out


def test_compose_matches_union_then_identify():
    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(200):
        kinds = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 5)
            g = random_oriented_graph(rng, n)
            kinds.append(_spec(n, g.arcs, {f"p{k}": v for k, v in enumerate(
                rng.sample(range(n), rng.randint(1, min(3, n))))}))
        specs = [rng.choice(kinds) for _ in range(rng.randint(1, 4))]
        identifications = _star_identifications(rng, specs)
        try:
            want = reference_compose(specs, identifications)
        except DigonViolation:
            with pytest.raises(DigonViolation):
                compose(specs, identifications)
            outcomes["digon"] += 1
            continue
        got = compose(specs, identifications)
        assert got == want and list(got[1]) == list(want[1])  # scope key order too
        arcs_in = sum(s.graph.arc_count for s in specs)
        outcomes["collapsed" if want[0].arc_count < arcs_in else "distinct"] += 1
        outcomes["merged"] += bool(identifications)
    # every branch is exercised: plain unions and merges, duplicate arcs
    # that collapse, and digons rejected on both sides
    assert min(outcomes[k] for k in ("digon", "collapsed", "distinct", "merged")) >= 5, outcomes


def test_compose_merges_collapse_duplicate_arcs_and_reject_digons():
    # x->u and x->w: merging u into w leaves one arc
    fork = _spec(3, [(0, 1), (0, 2)], {"u": 1, "w": 2})
    graph, scope = compose([fork], [((0, "w"), (0, "u"))])
    assert graph == OrientedGraph(2, [(0, 1)])
    assert scope == {(0, 0): 0, (0, 1): 1, (0, 2): 1}
    # u->x and x->w: merging u into w makes the digon w->x->w
    path = _spec(3, [(0, 1), (1, 2)], {"u": 0, "w": 2})
    with pytest.raises(DigonViolation):
        compose([path], [((0, "w"), (0, "u"))])
    # a port merged into a port of a later copy takes that port's id
    graph, scope = compose([path, fork], [((1, "u"), (0, "w"))])
    assert graph == OrientedGraph(5, [(0, 1), (1, 3), (2, 3), (2, 4)])
    assert scope[(0, 2)] == scope[(1, 1)] == 3


@pytest.mark.parametrize("identifications", [
    pytest.param([((0, "p"), (0, "p"))], id="into-itself"),
    pytest.param([((0, "p"), (1, "p")), ((2, "p"), (1, "p"))], id="twice"),
    pytest.param([((0, "p"), (1, "p")), ((1, "p"), (2, "p"))], id="into-a-merged-port"),
    pytest.param([((1, "p"), (2, "p")), ((0, "p"), (1, "p"))], id="into-a-merged-port-listed-first"),
    pytest.param([((0, "p"), (1, "p")), ((1, "p"), (0, "p"))], id="cycle"),
])
def test_compose_rejects_chained_identifications(identifications):
    edge = _spec(2, [(0, 1)], {"p": 0})
    with pytest.raises(SelfMergeCycle):
        compose([edge] * 3, identifications)


def test_all_assets_pass_contracts():
    for name in ASSET_NAMES:
        report = verify_gadget(load_gadget(name))
        assert report.passed, (name, [f.fact for f in report.facts if not f.passed])
        assert report.witness_count > 0


@pytest.mark.parametrize("lemma", ALL_LEMMAS)
def test_lemma_reports_pass(lemma):
    for report in lemma_reports(lemma):
        assert report.passed, (lemma, report.subject)


def test_hx_witness_set_is_the_six_square_permutations():
    report = verify_gadget(load_gadget("Hx"))
    assert report.witness_count == 6


BROKEN_HX = Contract(
    target="T4",
    mode=Mode.IOS,
    anchor=None,
    facts=(("nonempty",), ("forced", 31, 0)),  # 31 is really forced to d
)


def test_failing_fact_produces_valid_counterexample():
    hx = load_gadget("Hx")
    report = verify_contract(hx.graph, BROKEN_HX)
    assert not report.passed
    assert report.counterexample is not None
    ok, _ = verify_colouring(hx.graph, named_target("T4"), report.counterexample, Mode.IOS)
    assert ok


def test_invalid_counterexample_raises_package_error(monkeypatch):
    # a raised check, unlike an assert, survives python -O
    monkeypatch.setattr("injhom.gadgets.verify_colouring", lambda *args: (False, "planted"))
    with pytest.raises(InjhomError, match="invalid witness: planted"):
        verify_contract(load_gadget("Hx").graph, BROKEN_HX)


def test_forced_fact_never_passes_vacuously():
    # an out-star with four leaves has no ios T4 colouring at all
    star = OrientedGraph(5, [(0, i) for i in range(1, 5)])
    contract = Contract("T4", Mode.IOS, None, (("forced", 0, 0),))
    report = verify_contract(star, contract)
    assert not report.passed
    assert "vacuous" in report.facts[0].detail


def test_anchored_contract_requires_transitive_target():
    contract = Contract("T4", Mode.IOS, (0, 0), (("nonempty",),))
    with pytest.raises(ContractMalformed):
        verify_contract(OrientedGraph(1), contract)


def test_budget_exhaustion_is_not_a_pass():
    he = load_gadget("He")
    contract = Contract("T4", Mode.IOS, None, (("nonempty",),))
    report = verify_contract(he.graph, contract, node_budget=1)
    assert not report.complete
    assert not report.passed


@pytest.mark.parametrize("name, budget", [("Hx", 181), ("He", 19), ("Fx", 37), ("Fe", 46)])
def test_partial_witness_set_is_not_a_pass(name, budget):
    # the budget runs out after the first witnesses; the extends facts that
    # follow must not make the report look complete
    spec = load_gadget(name)
    report = verify_contract(spec.graph, spec.contract, node_budget=budget)
    assert 0 < report.witness_count
    assert not report.complete
    assert not report.passed
    assert "BUDGET EXHAUSTED" in report.lines()[0]


def test_ring_shape():
    jv = load_gadget("Jv")
    graph, starts = ring(OrientedGraph(0), [jv.graph], 2, ring_links(jv))
    assert graph.n == 40 and starts == [[0, 1], [0, 20]]
    assert graph.has_arc(17, 20) and graph.has_arc(39, 0)
    # four copies: copy i's three out ports feed copy i+1's in port, and the
    # last copy closes the ring onto the first
    graph, starts = ring(OrientedGraph(0), [jv.graph], 4, ring_links(jv))
    assert graph.n == 80 and starts[1] == [0, 20, 40, 60]
    for off, nxt in zip(starts[1], [20, 40, 60, 0]):
        assert all(graph.has_arc(off + p, nxt) for p in (17, 18, 19))
    assert graph.arc_count == 4 * (jv.graph.arc_count + 3)
