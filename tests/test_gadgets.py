import dataclasses
import shutil

import pytest

from injhom.catalog import named_target
from injhom.digraph import Mode, OrientedGraph
from injhom.errors import AssetMissing, ContractMalformed, UnknownPort
from injhom.gadgets import (
    ALL_LEMMAS,
    ASSET_NAMES,
    Contract,
    asset_dir,
    compose,
    lemma_reports,
    load_gadget,
    parse_contract,
    ring,
    ring_links,
    serialize_contract,
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


def test_contract_round_trip():
    hx = load_gadget("Hx")
    text = serialize_contract(hx.contract)
    assert parse_contract(text) == hx.contract


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


def test_failing_fact_produces_valid_counterexample():
    hx = load_gadget("Hx")
    broken = Contract(
        target="T4",
        mode=Mode.IOS,
        anchor=None,
        facts=(("nonempty",), ("forced", 31, 0)),  # 31 is really forced to d
    )
    report = verify_contract(hx.graph, broken)
    assert not report.passed
    assert report.counterexample is not None
    ok, _ = verify_colouring(hx.graph, named_target("T4"), report.counterexample, Mode.IOS)
    assert ok


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
