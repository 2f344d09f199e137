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

The chain gadgets Jv and Dv (lemmas 3.4 and 4.5) state their forced chain
in their contracts: the anchor and the `forced` facts (`Contract.chain`).
What a contract cannot say, the ring lemma, the ring wiring and the anchor
of the t5 builder, is in one table, `CHAIN_GADGETS`; the ring lemma check,
the t5 builders and the lift read the chain, the mode and the attach port
from the loaded spec.  `EDGE_GADGETS` holds the same for the edge gadgets He
and Fe: the edge lemma, the vertex gadget and the end ports.  Next to them
are the copy tables a lift assembles an instance colouring from
(`edge_tables`, `chain_table`).

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
from typing import Mapping, NamedTuple, Sequence

from .catalog import colour_letter, is_vertex_transitive, named_target, parse_colour
from .digraph import Mode, OrientedGraph, parse_document
from .errors import (
    AssetMissing,
    ContractMalformed,
    InvalidWitness,
    SelfMergeCycle,
    TemplateNotFound,
    UnknownPort,
)
from .solver import decide, enumerate_colourings, verify_colouring

ASSET_NAMES = ("Hx", "He", "Fx", "Fe", "Jv", "Dv")

Fact = tuple  # ("nonempty",) | ("forced", v, c) | ("equal", u, v) | ("range", v, frozenset) | ("extends", Mapping)


@dataclass(frozen=True)
class Contract:
    target: str
    mode: Mode
    anchor: tuple[int, int] | None
    facts: tuple[Fact, ...]

    def chain(self) -> dict[int, int]:
        """The anchor and the forced facts as label -> colour, anchor first."""
        chain = dict([self.anchor]) if self.anchor else {}
        chain.update((fact[1], fact[2]) for fact in self.facts if fact[0] == "forced")
        return chain


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

    headers: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] in ("target", "mode", "anchor"):
                if parts[0] in headers:
                    raise ValueError(f"second {parts[0]} line")
                headers.add(parts[0])
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
    """Copies of the gadgets with ports glued, laid out in one pass.

    Each identification ((i, port_a), (j, port_b)) merges port_b of copy j
    into port_a of copy i.  Every vertex that is not a merged port takes the
    next id, copy by copy and label by label; a merged port takes the id of
    the port it is merged into.  The scope map sends (copy, original vertex)
    to that id.  Arcs that a merge makes equal collapse into one; a merge
    that makes a digon raises DigonViolation.  SelfMergeCycle rejects a port
    merged into itself, a port merged twice and a port merged into a port
    that is itself merged.
    """
    into: dict[tuple[int, int], tuple[int, int]] = {}  # merged port -> the port it joins
    for (i, pa), (j, pb) in identifications:
        keep, merge = (i, specs[i].port(pa)), (j, specs[j].port(pb))
        if merge == keep or merge in into:
            raise SelfMergeCycle(f"port {pb!r} of copy {j} is merged twice or into itself")
        into[merge] = keep
    for (j, v), (i, u) in into.items():
        if (i, u) in into:
            raise SelfMergeCycle(f"copy {j} vertex {v} is merged into copy {i} vertex {u}, "
                                 "which is itself merged")
    ids: list[list[int]] = []  # per copy, the id of each label
    n = 0
    for i, spec in enumerate(specs):
        row = []
        for v in range(spec.graph.n):
            if (i, v) in into:
                row.append(-1)  # set below, once every kept port has its id
            else:
                row.append(n)
                n += 1
        ids.append(row)
    for (j, v), (i, u) in into.items():
        ids[j][v] = ids[i][u]
    arcs = [(row[u], row[v]) for row, spec in zip(ids, specs) for u, v in spec.graph.arcs]
    scope: ScopeMap = {(i, v): vid for i, row in enumerate(ids) for v, vid in enumerate(row)}
    return OrientedGraph(n, arcs), scope


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


class ChainGadget(NamedTuple):
    """What a chain gadget's contract does not say: the ring lemma it realizes,
    the out ports that feed the next copy's in0 port, and the label and colour
    at which the t5 builder anchors its instance."""

    lemma: str
    out_ports: tuple[str, ...]
    anchor_label: int
    anchor_colour: int


# the chain gadgets of the t5 reductions.  The rest is read from the loaded
# spec: the chain and the mode from its contract, the free label from its
# attach port
CHAIN_GADGETS = {
    "Jv": ChainGadget("3.4", ("out17", "out18", "out19"), 8, 0),  # anchor 8 at a
    "Dv": ChainGadget("4.5", ("out8",), 0, 3),  # anchor 0 at d
}


def ring_links(spec: GadgetSpec) -> list[Link]:
    """The links of a ring of `spec` copies in layer 1."""
    into = spec.port("in0")
    return [(1, spec.port(p), 1, into, 1) for p in CHAIN_GADGETS[spec.name].out_ports]


def chain_links(spec: GadgetSpec) -> list[Link]:
    """The links of a t5 ring: `ring_links`, and an arc from each copy's attach
    port to the vertex of layer 0 that stands for that copy."""
    return ring_links(spec) + [(1, spec.port("attach"), 0, 0, 0)]


class EdgeGadget(NamedTuple):
    """An edge gadget of the t4 reductions: the lemma its composition realizes,
    the vertex gadget glued at its ends and its two end ports."""

    lemma: str
    vertex: str
    ends: tuple[str, str]


# the edge gadgets of the t4 reductions; the mode and the target are read from
# the edge gadget's contract
EDGE_GADGETS = {
    "He": EdgeGadget("3.2", "Hx", ("e0", "e9")),
    "Fe": EdgeGadget("4.3", "Fx", ("e0", "e6")),
}


# ---------------------------------------------------------------------------
# copy tables: the colouring a lift gives each gadget copy
# ---------------------------------------------------------------------------


class CopyTable(dict):
    """Colourings of one gadget's copies, one colour per label, by key.

    A missing entry is solved by `solve(key)` on first use and kept for the
    life of the process, so its cost falls on the first lift that needs it,
    never on importing the package or on `load_gadget`.  Every key space is
    finite, and `tests/test_lift.py` checks every entry against every entry
    it can meet in an instance."""

    __slots__ = ("_solve",)

    def __init__(self, solve):
        super().__init__()
        self._solve = solve

    def __missing__(self, key):
        entry = self[key] = self._solve(key)
        return entry


def _solve_copy(graph, target, mode, fixed, labels) -> tuple[int, ...]:
    """The colours that decide's witness of `graph` with `fixed` gives `labels`."""
    res = decide(graph, target, mode, fixed=fixed)
    if not res.sat:
        raise TemplateNotFound(f"no {target.name} colouring of the copy extends {fixed}")
    return tuple(res.witnesses[0][v] for v in labels)


def edge_tables(name: str) -> tuple[CopyTable, CopyTable]:
    """The vertex and edge copy tables of a t4 instance of edge gadget `name`.

    The edge table maps an edge colour to a colouring of the edge gadget,
    solved with a vertex gadget glued at each end and both ends at that
    colour.  The vertex table maps the used squares of a vertex gadget and
    their colours, ((square, colour), ...) in square order, to a colouring of
    the vertex gadget, solved with the edge table's colouring glued at each
    used square by its first end.
    """
    return _edge_tables(asset_dir(), name)


@lru_cache(maxsize=None)
def _edge_tables(base: Path, name: str) -> tuple[CopyTable, CopyTable]:
    edge, gadget = _load(base, name), EDGE_GADGETS[name]
    vertex = _load(base, gadget.vertex)
    target, mode = named_target(edge.contract.target), edge.contract.mode

    def edge_copy(colour: int) -> tuple[int, ...]:
        graph, scope = compose(
            [edge, vertex, vertex], [((i, "s1"), (0, end)) for i, end in enumerate(gadget.ends, 1)]
        )
        ends = {scope[(0, edge.port(end))]: colour for end in gadget.ends}
        return _solve_copy(graph, target, mode, ends,
                           [scope[(0, lbl)] for lbl in range(edge.graph.n)])

    edges = CopyTable(edge_copy)

    def vertex_copy(ports: tuple[tuple[str, int], ...]) -> tuple[int, ...]:
        graph, scope = compose(
            [vertex] + [edge] * len(ports),
            [((0, square), (i, gadget.ends[0])) for i, (square, _) in enumerate(ports, 1)],
        )
        fixed = {scope[(i, lbl)]: c for i, (_, colour) in enumerate(ports, 1)
                 for lbl, c in enumerate(edges[colour])}
        return _solve_copy(graph, target, mode, fixed,
                           [scope[(0, lbl)] for lbl in range(vertex.graph.n)])

    return CopyTable(vertex_copy), edges


def chain_table(name: str, chain: tuple[tuple[int, int], ...]) -> CopyTable:
    """The copy table of a t5 instance of chain gadget `name` whose copies all
    carry `chain`, (label, colour) pairs.

    A copy's key is the colour of the source vertex it attaches to and the set
    of colours of the other members of that vertex's first mode set (its
    in-neighbours, or all its neighbours in mode iot), the set that holds the
    attach port.  An entry is solved in a ring of two copies, both carrying
    the chain, with copy 0's source vertex at the colour and joined to one
    more vertex per colour of the set.
    """
    return _chain_table(asset_dir(), name, chain)


@lru_cache(maxsize=None)
def _chain_table(base: Path, name: str, chain: tuple[tuple[int, int], ...]) -> CopyTable:
    spec = _load(base, name)
    target, mode = named_target(spec.contract.target), spec.contract.mode
    links = chain_links(spec)

    def chain_copy(key: tuple[int, frozenset[int]]) -> tuple[int, ...]:
        colour, others = key
        # vertices 0 and 1 stand for copies 0 and 1; a vertex per colour of
        # `others` joins vertex 0, into it wherever the target has that arc
        members = dict(enumerate(sorted(others), 2))
        arcs = [(x, 0) if target.graph.has_arc(c, colour) else (0, x) for x, c in members.items()]
        graph, starts = ring(OrientedGraph(2 + len(members), arcs), [spec.graph], 2, links)
        fixed = {0: colour, **members}
        fixed.update((off + lbl, c) for off in starts[1] for lbl, c in chain)
        first = starts[1][0]
        return _solve_copy(graph, target, mode, fixed, range(first, first + spec.graph.n))

    return CopyTable(chain_copy)


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
            ok, why = verify_colouring(graph, target, w, mode)
            if not ok:
                raise InvalidWitness(f"solver produced an invalid witness: {why}")
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

# lemmas that are one asset's own contract
_ASSET_LEMMAS = {"3.1": "Hx", "4.1": "Fx", "4.2": "Fe"}

# edge-gadget lemmas: lemma -> edge gadget, checked by `_edge_lemma`
_EDGE_LEMMAS = {edge.lemma: name for name, edge in EDGE_GADGETS.items()}
_SQUARES = ("s1", "s2", "s3")

# ring lemmas: lemma -> chain gadget, checked by `_ring_lemma`
_RING_LEMMAS = {chain.lemma: name for name, chain in CHAIN_GADGETS.items()}

ALL_LEMMAS = tuple(sorted(
    [*_ASSET_LEMMAS, *_EDGE_LEMMAS, *_RING_LEMMAS],
    key=lambda lemma: tuple(map(int, lemma.split("."))),
))


def lemma_reports(lemma: str) -> list[VerificationReport]:
    """Run the contract checks realizing one forced-colouring lemma."""
    if lemma in _ASSET_LEMMAS:
        return [verify_gadget(load_gadget(_ASSET_LEMMAS[lemma]))]
    if lemma in _EDGE_LEMMAS:
        return _edge_lemma(load_gadget(_EDGE_LEMMAS[lemma]))
    if lemma in _RING_LEMMAS:
        return _ring_lemma(load_gadget(_RING_LEMMAS[lemma]))
    raise ValueError(f"unknown lemma {lemma!r}; known: {', '.join(ALL_LEMMAS)}")


def contract_reports() -> list[tuple[str, VerificationReport]]:
    """Every contract check: each lemma's reports, then each asset's own,
    labelled "lemma ID / subject" and "asset NAME"."""
    out = [(f"lemma {lemma} / {report.subject}", report)
           for lemma in ALL_LEMMAS for report in lemma_reports(lemma)]
    out += [(f"asset {name}", verify_gadget(load_gadget(name))) for name in ASSET_NAMES]
    return out


def _edge_lemma(edge: GadgetSpec) -> list[VerificationReport]:
    """The edge gadget with a vertex gadget glued at each end port, square by
    square: both end ports are equal and coloured from b, c, d."""
    ends = EDGE_GADGETS[edge.name].ends
    vertex = load_gadget(EDGE_GADGETS[edge.name].vertex)
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
            contract = Contract(edge.contract.target, edge.contract.mode, None, facts)
            out.append(verify_contract(graph, contract, subject=f"{edge.name}'[{sa},{sb}]"))
    return out


def _ring_lemma(spec: GadgetSpec) -> list[VerificationReport]:
    """Rings of 2 and 3 copies (wired by `ring_links`), anchored at copy 0's
    contract anchor: every copy's chain is forced, and with the builder's
    anchor fixed, copy 0's attach port can take each of a, b and c."""
    chain = spec.contract.chain()
    anchor_label, anchor_colour = spec.contract.anchor
    gadget = CHAIN_GADGETS[spec.name]
    free = spec.port("attach")
    out = []
    for copies in (2, 3):
        graph, starts = ring(OrientedGraph(0), [spec.graph], copies, ring_links(spec))
        first = starts[1][0]
        facts: list[Fact] = [("nonempty",)]
        for i, off in enumerate(starts[1]):
            facts.extend(
                ("forced", off + v, c) for v, c in chain.items() if i > 0 or v != anchor_label
            )
        for c in (0, 1, 2):
            facts.append(
                ("extends", {first + gadget.anchor_label: gadget.anchor_colour, first + free: c})
            )
        contract = Contract(spec.contract.target, spec.contract.mode,
                            (first + anchor_label, anchor_colour), tuple(facts))
        out.append(verify_contract(graph, contract, subject=f"{spec.name[0]}_{copies}"))
    return out
