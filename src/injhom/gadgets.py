"""Gadgets as verified data assets.

Each gadget ships as two files in the asset directory (the package's
`assets/`, or the directory named by the INJHOM_ASSET_DIR environment
variable, the only override):

  <name>.graph       edge-list format with `port <name> <vertex>` lines
  <name>.contract    the machine-checkable content of its forced-colouring
                     lemma, one fact per line:

                         target T4
                         mode ios
                         anchor 0 a
                         nonempty
                         forced 31 d
                         equal 0 9
                         range 0 b,c,d
                         extends 1=b,11=c,21=d

Contract verification is oracle grade: it enumerates the complete witness set
(node-budget checked, never the pruned decide path) and evaluates every fact
against it.  FORCED/EQUAL/RANGE facts additionally require a nonempty witness
set, so they can never pass vacuously.  EXTENDS facts are checked by decide
with the stated partial colouring fixed; the contract anchor is deliberately
not added to EXTENDS partials (a partial assignment already breaks the
symmetry the anchor relies on).

Assets are read once per process per asset directory: `load_gadget` reads
INJHOM_ASSET_DIR on every call, but returns the spec parsed on the first call
for that directory, shared by every build (so a spec is read-only).  An asset
edited on disk is picked up by a new process.

When a contract carries an anchor, the witness set is enumerated with the
anchor fixed.  That is the `enumerate modulo automorphisms` semantics for the
vertex-transitive targets the anchored lemmas use, at a fifth of the cost;
vertex-transitivity is checked.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .catalog import colour_letter, is_vertex_transitive, named_target, parse_colour
from .digraph import Mode, OrientedGraph, disjoint_union, identify_vertices, parse_document
from .errors import AssetMissing, ContractMalformed, UnknownPort
from .solver import decide, enumerate_colourings, verify_colouring

ASSET_NAMES = ("Hx", "He", "Fx", "Fe", "Jv", "Dv")

Fact = tuple  # ("nonempty",) | ("forced", v, c) | ("equal", u, v) | ("range", v, frozenset) | ("extends", Mapping)


@dataclass(frozen=True)
class Contract:
    target: str
    mode: Mode
    anchor: tuple[int, int] | None
    facts: tuple[Fact, ...]


@dataclass(frozen=True)
class GadgetSpec:
    name: str
    graph: OrientedGraph
    ports: Mapping[str, int]  # read-only: a loaded spec is shared by every build
    contract: Contract

    def __post_init__(self):
        object.__setattr__(self, "ports", MappingProxyType(dict(self.ports)))

    def port(self, name: str) -> int:
        if name not in self.ports:
            raise UnknownPort(f"gadget {self.name} has no port {name!r}")
        return self.ports[name]


_PACKAGE_ASSETS = Path(__file__).parent / "assets"


def asset_dir() -> Path:
    env = os.environ.get("INJHOM_ASSET_DIR")
    return Path(env) if env else _PACKAGE_ASSETS


def parse_contract(text: str) -> Contract:
    target_name: str | None = None
    mode: Mode | None = None
    anchor: tuple[int, int] | None = None
    facts: list[Fact] = []
    tn: int | None = None

    def colour(tok: str) -> int:
        if tn is None:
            raise ValueError("colour before target line")
        return parse_colour(tok, tn)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "target" and len(parts) == 2:
                target_name = parts[1]
                tn = named_target(target_name).graph.n
            elif parts[0] == "mode" and len(parts) == 2:
                mode = Mode.parse(parts[1])
            elif parts[0] == "anchor" and len(parts) == 3:
                anchor = (int(parts[1]), colour(parts[2]))
            elif parts[0] == "nonempty" and len(parts) == 1:
                facts.append(("nonempty",))
            elif parts[0] == "forced" and len(parts) == 3:
                facts.append(("forced", int(parts[1]), colour(parts[2])))
            elif parts[0] == "equal" and len(parts) == 3:
                facts.append(("equal", int(parts[1]), int(parts[2])))
            elif parts[0] == "range" and len(parts) == 3:
                cols = frozenset(colour(tok) for tok in parts[2].split(","))
                facts.append(("range", int(parts[1]), cols))
            elif parts[0] == "extends" and len(parts) == 2:
                partial = {}
                for item in parts[1].split(","):
                    v, _, c = item.partition("=")
                    vid = int(v)
                    if vid in partial and partial[vid] != colour(c):
                        raise ValueError(f"vertex {vid} pre-coloured twice")
                    partial[vid] = colour(c)
                facts.append(("extends", MappingProxyType(partial)))
            else:
                raise ValueError("unrecognised")
        except (ValueError, KeyError) as exc:
            raise ContractMalformed(f"line {lineno}: {line!r} ({exc})")
    if target_name is None or mode is None:
        raise ContractMalformed("contract needs target and mode lines")
    return Contract(target=target_name, mode=mode, anchor=anchor, facts=tuple(facts))


def serialize_contract(contract: Contract) -> str:
    tn = named_target(contract.target).graph.n

    def letter(c: int) -> str:
        return colour_letter(c) if tn <= 26 else str(c)

    lines = [f"target {contract.target}", f"mode {contract.mode.value}"]
    if contract.anchor is not None:
        lines.append(f"anchor {contract.anchor[0]} {letter(contract.anchor[1])}")
    for fact in contract.facts:
        kind = fact[0]
        if kind == "nonempty":
            lines.append("nonempty")
        elif kind == "forced":
            lines.append(f"forced {fact[1]} {letter(fact[2])}")
        elif kind == "equal":
            lines.append(f"equal {fact[1]} {fact[2]}")
        elif kind == "range":
            lines.append(f"range {fact[1]} {','.join(letter(c) for c in sorted(fact[2]))}")
        elif kind == "extends":
            items = ",".join(f"{v}={letter(c)}" for v, c in sorted(fact[1].items()))
            lines.append(f"extends {items}")
        else:
            raise ContractMalformed(f"unknown fact kind {kind!r}")
    return "\n".join(lines)


def _fact_vertices(fact: Fact) -> tuple[int, ...]:
    """The gadget vertices a contract fact names."""
    if fact[0] in ("forced", "range"):
        return (fact[1],)
    if fact[0] == "equal":
        return fact[1:3]
    if fact[0] == "extends":
        return tuple(fact[1])
    return ()


def load_gadget(name: str) -> GadgetSpec:
    """The named gadget of the current asset directory, parsed once per process."""
    return _load(asset_dir(), name)


@lru_cache(maxsize=None)
def _load(base: Path, name: str) -> GadgetSpec:
    graph_path = base / f"{name}.graph"
    contract_path = base / f"{name}.contract"
    if not graph_path.is_file():
        raise AssetMissing(f"no gadget asset {graph_path}")
    if not contract_path.is_file():
        raise AssetMissing(f"no contract sidecar {contract_path}")
    graph, ports = parse_document(graph_path.read_text())
    contract = parse_contract(contract_path.read_text())
    if len(set(ports.values())) != len(ports):
        raise ContractMalformed(f"gadget {name}: ports must name distinct vertices")
    if contract.anchor is not None and not 0 <= contract.anchor[0] < graph.n:
        raise ContractMalformed(f"gadget {name}: anchor vertex out of range")
    for v in (v for fact in contract.facts for v in _fact_vertices(fact)):
        if not 0 <= v < graph.n:
            raise ContractMalformed(
                f"gadget {name}: contract references vertex {v} outside 0..{graph.n - 1}"
            )
    return GadgetSpec(name=name, graph=graph, ports=ports, contract=contract)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

ScopeMap = dict[tuple[int, int], int]  # (copy index, original vertex) -> final id


def compose(
    specs: Sequence[GadgetSpec],
    identifications: Sequence[tuple[tuple[int, str], tuple[int, str]]] = (),
) -> tuple[OrientedGraph, ScopeMap]:
    """Disjoint union of gadget copies, then identify ports pairwise.

    Each identification ((i, port_a), (j, port_b)) merges port_b of copy j
    into port_a of copy i.  The scope map sends (copy, original vertex) to
    the vertex id in the composed graph.
    """
    union, offsets = disjoint_union([s.graph for s in specs])
    pairs = []
    for (i, pa), (j, pb) in identifications:
        pairs.append((offsets[i] + specs[i].port(pa), offsets[j] + specs[j].port(pb)))
    merged, relabel = identify_vertices(union, pairs)
    scope: ScopeMap = {}
    for i, spec in enumerate(specs):
        for v in range(spec.graph.n):
            scope[(i, v)] = relabel[offsets[i] + v]
    return merged, scope


Link = tuple[int, int, int, int, int]  # (layer a, label p, layer b, label q, step)


def ring(
    prefix: OrientedGraph, units: Sequence[OrientedGraph], copies: int, links: Sequence[Link]
) -> tuple[OrientedGraph, list[list[int]]]:
    """Copies of each unit chained into a ring behind `prefix`.

    Layer 0 is `prefix`, whose vertex i stands for copy i.  Layer k >= 1 holds
    `copies` copies of `units[k-1]`, numbered in that order after the layers
    before it.  Each link (a, p, b, q, step) adds, for every copy i, the arc
    from label p of copy i in layer a to label q of copy (i + step) mod
    `copies` in layer b.  Returns the graph and, per layer, the first vertex
    id of each copy.
    """
    arcs = list(prefix.arcs)
    starts = [list(range(copies))]
    total = prefix.n
    for unit in units:
        offs = [total + i * unit.n for i in range(copies)]
        arcs.extend((off + u, off + v) for off in offs for u, v in unit.arcs)
        starts.append(offs)
        total += copies * unit.n
    arcs.extend(
        (starts[a][i] + p, starts[b][(i + step) % copies] + q)
        for a, p, b, q, step in links
        for i in range(copies)
    )
    return OrientedGraph(total, arcs), starts


# the chain gadgets' ring wiring: each copy's out ports feed the next copy's in0
RING_OUT_PORTS = {"Jv": ("out17", "out18", "out19"), "Dv": ("out8",)}


def ring_links(spec: GadgetSpec) -> list[Link]:
    """The links of a ring of `spec` copies in layer 1."""
    into = spec.port("in0")
    return [(1, spec.port(p), 1, into, 1) for p in RING_OUT_PORTS[spec.name]]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class FactReport:
    fact: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    subject: str
    target: str
    mode: str
    facts: list[FactReport]
    witness_count: int
    complete: bool
    counterexample: tuple[int, ...] | None = None

    @property
    def passed(self) -> bool:
        return self.complete and all(f.passed for f in self.facts)

    def lines(self) -> list[str]:
        out = [
            f"{self.subject}: {self.witness_count} witnesses"
            + ("" if self.complete else " (BUDGET EXHAUSTED, inconclusive)")
        ]
        for f in self.facts:
            status = "pass" if f.passed else "FAIL"
            detail = f" ({f.detail})" if f.detail else ""
            out.append(f"  [{status}] {f.fact}{detail}")
        return out


def _fact_label(fact: Fact) -> str:
    kind = fact[0]
    if kind == "nonempty":
        return "nonempty"
    if kind == "forced":
        return f"forced {fact[1]} = {colour_letter(fact[2])}"
    if kind == "equal":
        return f"equal {fact[1]} {fact[2]}"
    if kind == "range":
        return f"range {fact[1]} in {{{','.join(sorted(colour_letter(c) for c in fact[2]))}}}"
    if kind == "extends":
        items = ",".join(f"{v}={colour_letter(c)}" for v, c in sorted(fact[1].items()))
        return f"extends {items}"
    return repr(fact)


def verify_contract(
    graph: OrientedGraph,
    contract: Contract,
    subject: str = "gadget",
    node_budget: int | None = 50_000_000,
) -> VerificationReport:
    """Enumerate every valid colouring and evaluate the contract facts."""
    target = named_target(contract.target)
    mode = contract.mode

    fixed = None
    if contract.anchor is not None:
        if not is_vertex_transitive(target):
            raise ContractMalformed(
                f"anchored contract needs a vertex-transitive target, {contract.target} is not"
            )
        fixed = {contract.anchor[0]: contract.anchor[1]}

    found = enumerate_colourings(graph, target, mode, fixed=fixed, node_budget=node_budget)
    witnesses = found.witnesses

    reports: list[FactReport] = []
    counterexample = None

    def record_counterexample(w):
        nonlocal counterexample
        if counterexample is None:
            ok, _ = verify_colouring(graph, target, w, mode)
            assert ok, "solver produced an invalid witness"
            counterexample = w

    for fact in contract.facts:
        kind = fact[0]
        label = _fact_label(fact)
        if kind == "nonempty":
            reports.append(
                FactReport(label, bool(witnesses), "" if witnesses else "no colourings")
            )
            continue
        if kind == "extends":
            res = decide(graph, target, mode, fixed=fact[1], node_budget=node_budget)
            reports.append(
                FactReport(label, res.sat, "" if res.sat else f"decide: {res.status}")
            )
            continue
        if not witnesses:
            reports.append(FactReport(label, False, "vacuous: witness set empty"))
            continue
        if kind == "forced":
            v, c = fact[1], fact[2]
            bad = next((w for w in witnesses if w[v] != c), None)
        elif kind == "equal":
            u, v = fact[1], fact[2]
            bad = next((w for w in witnesses if w[u] != w[v]), None)
        elif kind == "range":
            v, allowed = fact[1], fact[2]
            bad = next((w for w in witnesses if w[v] not in allowed), None)
        else:
            raise ContractMalformed(f"unknown fact kind {kind!r}")
        if bad is not None:
            record_counterexample(bad)
            reports.append(FactReport(label, False, f"violated by witness {bad}"))
        else:
            reports.append(FactReport(label, True))

    return VerificationReport(
        subject=subject,
        target=contract.target,
        mode=mode.value,
        facts=reports,
        witness_count=len(witnesses),
        complete=found.complete,
        counterexample=counterexample,
    )


def verify_gadget(spec: GadgetSpec) -> VerificationReport:
    return verify_contract(spec.graph, spec.contract, subject=spec.name)


# ---------------------------------------------------------------------------
# the lemma registry: which compositions realize which forced-colouring lemma
# ---------------------------------------------------------------------------

ALL_LEMMAS = ("3.1", "3.2", "3.4", "4.1", "4.2", "4.3", "4.5")

# lemmas that are one asset's own contract
_ASSET_LEMMAS = {"3.1": "Hx", "4.1": "Fx", "4.2": "Fe"}

# edge-gadget lemmas: the edge gadget with a vertex gadget glued at each end
# port, square by square; both end ports are equal and coloured from b, c, d.
# lemma -> (edge gadget, vertex gadget, end ports, mode)
_EDGE_LEMMAS = {
    "3.2": ("He", "Hx", ("e0", "e9"), Mode.IOS),
    "4.3": ("Fe", "Fx", ("e0", "e6"), Mode.IOT),
}
_SQUARES = ("s1", "s2", "s3")

# ring lemmas, checked on rings (wired by `ring_links`) of 2 and 3 copies with
# vertex 0 of copy 0 as the anchor.  lemma -> (gadget, mode, the forced chain
# of every copy as label -> colour with the anchor label 0 first, and the
# `extends` pre-colouring: a pinned (label, colour) plus the label that takes
# each of a, b, c in turn)
_RING_LEMMAS = {
    "3.4": ("Jv", Mode.IOS, {0: 0, 4: 2, 8: 4, 12: 1, 16: 3}, (8, 0), 11),  # a; c, e, b, d
    "4.5": ("Dv", Mode.IOT, {0: 3, 4: 0, 8: 2}, (0, 3), 5),  # d, a, c
}


def lemma_reports(lemma: str) -> list[VerificationReport]:
    """Run the contract checks realizing one forced-colouring lemma."""
    if lemma in _ASSET_LEMMAS:
        return [verify_gadget(load_gadget(_ASSET_LEMMAS[lemma]))]
    if lemma in _EDGE_LEMMAS:
        return _edge_lemma(*_EDGE_LEMMAS[lemma])
    if lemma in _RING_LEMMAS:
        return _ring_lemma(*_RING_LEMMAS[lemma])
    raise ValueError(f"unknown lemma {lemma!r}; known: {', '.join(ALL_LEMMAS)}")


def _edge_lemma(edge_name, vertex_name, ends, mode) -> list[VerificationReport]:
    edge = load_gadget(edge_name)
    vertex = load_gadget(vertex_name)
    a, b = (edge.port(p) for p in ends)
    out = []
    for sa in _SQUARES:
        for sb in _SQUARES:
            graph, scope = compose(
                [edge, vertex, vertex], [((1, sa), (0, ends[0])), ((2, sb), (0, ends[1]))]
            )
            facts = (
                ("nonempty",),
                ("equal", scope[(0, a)], scope[(0, b)]),
                ("range", scope[(0, a)], frozenset({1, 2, 3})),
            )
            out.append(verify_contract(
                graph, Contract("T4", mode, None, facts), subject=f"{edge_name}'[{sa},{sb}]"
            ))
    return out


def _ring_lemma(name, mode, chain, pinned, free) -> list[VerificationReport]:
    spec = load_gadget(name)
    out = []
    for copies in (2, 3):
        graph, starts = ring(OrientedGraph(0), [spec.graph], copies, ring_links(spec))
        first = starts[1][0]
        facts: list[Fact] = [("nonempty",)]
        for i, off in enumerate(starts[1]):
            facts.extend(("forced", off + v, c) for v, c in chain.items() if i > 0 or v > 0)
        # forward-direction pre-colourings: with the pinned vertex fixed, the
        # free vertex of copy 0 can take each of a, b and c
        for c in (0, 1, 2):
            facts.append(("extends", {first + pinned[0]: pinned[1], first + free: c}))
        contract = Contract("T5", mode, (first, chain[0]), tuple(facts))
        out.append(verify_contract(graph, contract, subject=f"{name[0]}_{copies}"))
    return out
