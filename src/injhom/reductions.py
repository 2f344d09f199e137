"""Mechanical builders for the hardness reductions, plus projection and lifting.

Four gadget reductions and two collapse reductions are provided:

  ios-t4 / iot-t4    3-edge-colouring of a subcubic graph  ->  T4 instance
  ios-t5 / iot-t5    C3-colourability of an oriented graph ->  T5 instance
  collapse-ios/iot   T'-colourability -> T-colourability, T' induced by the
                     strict out-(or in-)neighbourhood of a high-degree pivot

Builders are deterministic: identical inputs give identical instances, and a
ReductionInstance carries complete bookkeeping in typed fields (gadget copy
offsets, port identifications, inner-vertex images, and for the t5 and
collapse kinds the source graph and target, the colour embedding, the anchor,
the pivot and the collapse map), so solutions can be projected back to the
source problem and source solutions lifted to full instance colourings.  The
kinds differ only in those fields: the t4 kinds share one edge-colouring lift
rule, the t5 and collapse kinds one vertex-colouring lift and extract rule.

The t5 and collapse kinds are rings built by `gadgets.ring`: a ring kind is
its units (the graphs copied once per source vertex: a chain gadget, or the
target's copies with the x-vertices or the T* copies) plus its links (the arcs
from each copy to its successor and to the source vertex it stands for).
Rings on fewer than two source vertices are padded with isolated dummy
vertices: a one-copy ring would close an arc pair into a digon, and an
isolated dummy is always colourable, so padding preserves the yes/no answer.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

from .catalog import Target, named_target
from .digraph import Mode, OrientedGraph, induced_subgraph
from .errors import (
    DegreeTooHigh,
    DegreeTooLow,
    DuplicateArc,
    MalformedLine,
    NormalizationFailed,
    PortColourMismatch,
    TemplateNotFound,
    VertexOutOfRange,
)
from .gadgets import GadgetSpec, Link, compose, load_gadget, ring, ring_links
from .solver import decide, verify_colouring

Edge = tuple[int, int]

# colours b, c, d of T4 double as the three edge colours
EDGE_COLOURS = (1, 2, 3)

# the vertices b, d, e induce the directed three-cycle inside T5;
# C3's letters a, b, c correspond to them in that cyclic order
C3_EMBEDDING = {0: 1, 1: 3, 2: 4}

EDGE_KINDS = ("ios-t4", "iot-t4")


class UndirectedGraph:
    """Simple undirected graph (no loops, no multi-edges)."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise VertexOutOfRange(f"vertex count {n} is negative")
        es: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise MalformedLine(f"loop at {u} not allowed in a simple graph")
            es.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(es)

    def max_degree(self) -> int:
        return max(Counter(chain.from_iterable(self.edges)).values(), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, UndirectedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, edges={sorted(self.edges)})"


def parse_undirected(text: str) -> UndirectedGraph:
    """Edge-list format read with undirected semantics ('a u v' is an edge)."""
    n: int | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            if n is not None:
                raise MalformedLine(f"line {lineno}: duplicate vertex-count line")
            try:
                n = int(parts[1])
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 0:
                raise MalformedLine(f"line {lineno}: negative vertex count")
        elif parts[0] == "a" and len(parts) == 3:
            if n is None:
                raise MalformedLine(f"line {lineno}: edge before vertex-count line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad edge {line!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"line {lineno}: edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise MalformedLine(f"line {lineno}: loop at {u} not allowed in a simple graph")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise DuplicateArc(f"line {lineno}: edge {e} listed twice")
            seen.add(e)
            edges.append(e)
        else:
            raise MalformedLine(f"line {lineno}: unrecognised line {line!r}")
    if n is None:
        raise MalformedLine("missing vertex-count line 'n <count>'")
    return UndirectedGraph(n, edges)


def orient_edges(g: UndirectedGraph) -> OrientedGraph:
    """The fixed arbitrary orientation: every edge {u, v} becomes min -> max."""
    return OrientedGraph(g.n, sorted(g.edges))


# ---------------------------------------------------------------------------
# 3-edge-colouring oracle (exhaustive backtracking, independent of the solver)
# ---------------------------------------------------------------------------


def three_edge_colouring_oracle(g: UndirectedGraph) -> dict[Edge, int] | None:
    """A proper 3-edge-colouring with colours {b, c, d} = {1, 2, 3}, or None."""
    degree = g.max_degree()
    if degree > 3:
        raise DegreeTooHigh(f"max degree {degree} > 3")
    edges = sorted(g.edges)
    touching: list[list[int]] = [[] for _ in range(len(edges))]
    for i, (u, v) in enumerate(edges):
        for j in range(i):
            a, b = edges[j]
            if u in (a, b) or v in (a, b):
                touching[i].append(j)
    colours = [0] * len(edges)

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        for c in EDGE_COLOURS:
            if all(colours[j] != c for j in touching[i]):
                colours[i] = c
                if rec(i + 1):
                    return True
                colours[i] = 0
        return False

    if not rec(0):
        return None
    return {e: colours[i] for i, e in enumerate(edges)}


def is_proper_edge_colouring(g: UndirectedGraph, colouring: Mapping[Edge, int]) -> bool:
    if set(colouring) != set(g.edges):
        return False
    if any(c not in EDGE_COLOURS for c in colouring.values()):
        return False
    # proper iff no (end vertex, colour) pair repeats
    ends = [(x, c) for e, c in colouring.items() for x in e]
    return len(ends) == len(set(ends))


# ---------------------------------------------------------------------------
# reduction instances
# ---------------------------------------------------------------------------


@dataclass
class ReductionInstance:
    kind: str
    graph: OrientedGraph
    target: Target
    mode: Mode
    source_n: int
    padded: int = 0
    # source vertex / edge -> {gadget label -> final instance vertex}
    vertex_gadget: dict[int, dict[int, int]] = field(default_factory=dict)
    edge_gadget: dict[Edge, dict[int, int]] = field(default_factory=dict)
    # collapse-iot only: the T* copy attached to each ring position
    star_gadget: dict[int, dict[int, int]] = field(default_factory=dict)
    # source edge -> the two merged port vertices and the squares they used
    ports: dict[Edge, tuple[int, int]] = field(default_factory=dict)
    squares_used: dict[Edge, tuple[str, str]] = field(default_factory=dict)
    # image of each original source vertex inside the instance
    inner: dict[int, int] = field(default_factory=dict)
    # the source problem: a graph and, for the t5 and collapse kinds, the target
    # a base colouring of it is checked against (C3, or the collapsed target)
    source: OrientedGraph | UndirectedGraph | None = None
    source_target: Target | None = None
    # t5 and collapse kinds: source-target colour -> instance colour, and the
    # instance vertex whose colour picks the normalizing automorphism
    embedding: Mapping[int, int] = field(default_factory=dict)
    anchor_vertex: int | None = None
    anchor_colour: int | None = None
    # collapse kinds: the pivot, its neighbourhood direction and the map from
    # target colours to collapsed ids.  The ring copies are copies of the
    # target, so a lift pins each at its own labels (`pin_copies`) and every
    # x-vertex (collapse-ios only) at the pivot.
    pivot: int | None = None
    direction: str | None = None
    collapse_map: dict[int, int] = field(default_factory=dict)
    x_vertices: dict[int, int] = field(default_factory=dict)
    pin_copies: bool = False

    def map_lines(self) -> list[str]:
        """Deterministic key=value bookkeeping lines for the .map sidecar."""
        lines = [
            f"kind={self.kind}",
            f"mode={self.mode.value}",
            f"target={self.target.name or 'custom'}",
            f"source_n={self.source_n}",
            f"padded={self.padded}",
        ]
        lines += _entries("inner", self.inner)
        for name, copies, key in (
            ("vgadget", self.vertex_gadget, str),
            ("egadget", self.edge_gadget, _pair),
            ("star", self.star_gadget, str),
        ):
            for k in sorted(copies):
                lines += _entries(f"{name}.{key(k)}", copies[k])
        lines += _entries("port", self.ports, _pair, _pair)
        lines += _entries("square", self.squares_used, _pair, _pair)
        if self.anchor_vertex is not None:
            lines += [f"anchor_colour={self.anchor_colour}", f"anchor_vertex={self.anchor_vertex}"]
        lines += _entries("collapse_map", self.collapse_map)
        if self.pivot is not None:
            lines += [f"direction={self.direction}", f"pivot={self.pivot}"]
        lines += _entries("x_vertices", self.x_vertices)
        return lines


def _pair(x) -> str:
    return f"{x[0]},{x[1]}"


def _entries(prefix: str, table: Mapping, key=str, value=str) -> list[str]:
    return [f"{prefix}.{key(k)}={value(v)}" for k, v in sorted(table.items())]


# -- T4 reductions (from 3-edge-colouring) ----------------------------------


def _build_t4(
    g: UndirectedGraph,
    kind: str,
    mode: Mode,
    vertex_spec: GadgetSpec,
    edge_spec: GadgetSpec,
    port_a: str,
    port_b: str,
) -> ReductionInstance:
    """One vertex gadget per source vertex, then one edge gadget per arc of the
    fixed orientation, its end ports merged into a free square at each end."""
    degree = g.max_degree()
    if degree > 3:
        raise DegreeTooHigh(f"max degree {degree} > 3")
    arcs = sorted(orient_edges(g).arcs)
    # degree <= 3, so no vertex runs out of squares
    free_squares = [iter(("s1", "s2", "s3")) for _ in range(g.n)]
    squares_used: dict[Edge, tuple[str, str]] = {}
    identifications = []
    for i, (u, v) in enumerate(arcs, start=g.n):
        su, sv = next(free_squares[u]), next(free_squares[v])
        squares_used[(u, v)] = (su, sv)
        identifications += [((u, su), (i, port_a)), ((v, sv), (i, port_b))]

    graph, scope = compose([vertex_spec] * g.n + [edge_spec] * len(arcs), identifications)
    edge_gadget = {
        e: {lbl: scope[(i, lbl)] for lbl in range(edge_spec.graph.n)}
        for i, e in enumerate(arcs, start=g.n)
    }
    a, b = edge_spec.port(port_a), edge_spec.port(port_b)
    return ReductionInstance(
        kind=kind,
        graph=graph,
        target=named_target("T4"),
        mode=mode,
        source_n=g.n,
        vertex_gadget={
            x: {lbl: scope[(x, lbl)] for lbl in range(vertex_spec.graph.n)}
            for x in range(g.n)
        },
        edge_gadget=edge_gadget,
        ports={e: (labels[a], labels[b]) for e, labels in edge_gadget.items()},
        squares_used=squares_used,
        source=g,
    )


def build_ios_t4(g: UndirectedGraph) -> ReductionInstance:
    return _build_t4(
        g, "ios-t4", Mode.IOS, load_gadget("Hx"), load_gadget("He"), "e0", "e9"
    )


def build_iot_t4(g: UndirectedGraph) -> ReductionInstance:
    return _build_t4(
        g, "iot-t4", Mode.IOT, load_gadget("Fx"), load_gadget("Fe"), "e0", "e6"
    )


# -- ring reductions: T5 from C3-colourability, and the collapse kinds -------


def _ring_instance(
    kind: str, mode: Mode, g: OrientedGraph, target: Target, units: Mapping[str, OrientedGraph],
    links: list[Link], anchor_label: int, anchor_colour: int, **fields,
) -> ReductionInstance:
    """A t5 or collapse instance: a `ring` with one copy of each unit per source
    vertex, behind the source padded to 2 vertices, so the source keeps its ids.

    `units` maps the field that records each unit layer's copies to the unit;
    the one-vertex x-vertex layer is recorded as copy -> vertex.  The anchor is
    `anchor_label` of the first copy of the first unit.
    """
    extra = max(0, 2 - g.n)
    prefix = OrientedGraph(2, g.arcs) if extra else g
    graph, starts = ring(prefix, list(units.values()), prefix.n, links)
    for (name, unit), offs in zip(units.items(), starts[1:]):
        fields[name] = dict(enumerate(offs)) if name == "x_vertices" else {
            i: {lbl: off + lbl for lbl in range(unit.n)} for i, off in enumerate(offs)
        }
    return ReductionInstance(
        kind=kind,
        graph=graph,
        target=target,
        mode=mode,
        source_n=g.n,
        padded=extra,
        inner={v: v for v in range(g.n)},
        source=g,
        anchor_vertex=starts[1][0] + anchor_label,
        anchor_colour=anchor_colour,
        **fields,
    )


def _build_t5(
    g: OrientedGraph, kind: str, mode: Mode, spec: GadgetSpec,
    anchor_label: int, anchor_colour: int,
) -> ReductionInstance:
    """A ring of `spec` copies, copy i attached to source vertex i."""
    links = ring_links(spec) + [(1, spec.port("attach"), 0, 0, 0)]
    return _ring_instance(
        kind, mode, g, named_target("T5"), {"vertex_gadget": spec.graph}, links,
        anchor_label, anchor_colour,
        source_target=named_target("C3"), embedding=C3_EMBEDDING,
    )


def build_ios_t5(g: OrientedGraph) -> ReductionInstance:
    # vertex 8 of every copy is forced (up to automorphism) to colour a
    return _build_t5(g, "ios-t5", Mode.IOS, load_gadget("Jv"), anchor_label=8, anchor_colour=0)


def build_iot_t5(g: OrientedGraph) -> ReductionInstance:
    # vertex 0 of every copy is forced (up to automorphism) to colour d
    return _build_t5(g, "iot-t5", Mode.IOT, load_gadget("Dv"), anchor_label=0, anchor_colour=3)


# -- collapse reductions -----------------------------------------------------


def collapse_target(t: Target, v: int, direction: str) -> tuple[Target, dict[int, int]]:
    """Sub-tournament induced by the strict out-(or in-)neighbourhood of v.

    Returns the collapsed target and the map from original target vertices to
    collapsed ids.  Requires in/out-degree (loop included) at least 4.
    """
    g = t.graph
    if direction == "out":
        deg = len(g.out_set(v))
        strict = sorted(g.out_set(v) - {v})
    elif direction == "in":
        deg = len(g.in_set(v))
        strict = sorted(g.in_set(v) - {v})
    else:
        raise ValueError(f"direction must be out or in, got {direction!r}")
    if deg < 4:
        raise DegreeTooLow(
            f"vertex {v} has {direction}-degree {deg} (loop included), need >= 4"
        )
    sub, relabel = induced_subgraph(g, strict)
    name = f"{t.name or 'T'}/{v}:{direction}"
    return Target(sub, name=name), relabel


def _irreflexive(g: OrientedGraph) -> OrientedGraph:
    return OrientedGraph(g.n, [(u, v) for u, v in g.arcs if u != v])


def _collapse_fields(t: Target, v: int, direction: str) -> dict:
    """The collapse kinds' instance fields; raises DegreeTooLow before any build."""
    collapsed, cmap = collapse_target(t, v, direction)
    return dict(
        source_target=collapsed, embedding={cid: c for c, cid in cmap.items()},
        pivot=v, direction=direction, collapse_map=cmap, pin_copies=True,
    )


def build_ios_collapse(
    g: OrientedGraph, t: Target, v: int, direction: str = "out"
) -> ReductionInstance:
    """Ring of irreflexive target copies, an x-vertex between consecutive pivots."""
    fields = _collapse_fields(t, v, direction)
    # layer 1: the copies of T; layer 2: x_i, between the pivots of copies i
    # and i+1, and joined to source vertex i in the pivot's direction
    source_link = (2, 0, 0, 0, 0) if direction == "out" else (0, 0, 2, 0, 0)
    links = [source_link, (1, v, 2, 0, 0), (2, 0, 1, v, 1)]
    units = {"vertex_gadget": _irreflexive(t.graph), "x_vertices": OrientedGraph(1)}
    return _ring_instance("collapse-ios", Mode.IOS, g, t, units, links, v, v, **fields)


def build_iot_collapse(
    g: OrientedGraph, t: Target, v: int, direction: str = "out"
) -> ReductionInstance:
    """Paired rings of irreflexive T and T* copies chained vertex-wise."""
    fields = _collapse_fields(t, v, direction)
    if direction == "out":
        star_arcs = [(a, b) for a, b in t.graph.arcs if a != v]
    else:
        star_arcs = [(a, b) for a, b in t.graph.arcs if b != v]
    # layer 1: the copies of T; layer 2: the copies of T*.  Copy i's pivot
    # feeds T*_i's pivot, which is joined to source vertex i in the pivot's
    # direction; T*_i's other vertices feed the same vertices of copy i+1
    source_link = (2, v, 0, 0, 0) if direction == "out" else (0, 0, 2, v, 0)
    links = [(2, u, 1, u, 1) for u in range(t.graph.n) if u != v]
    links += [(1, v, 2, v, 0), source_link]
    units = {
        "vertex_gadget": _irreflexive(t.graph),
        "star_gadget": _irreflexive(OrientedGraph(t.graph.n, star_arcs)),
    }
    return _ring_instance("collapse-iot", Mode.IOT, g, t, units, links, v, v, **fields)


# ---------------------------------------------------------------------------
# projection and lifting
# ---------------------------------------------------------------------------


def _normalizing_automorphism(t: Target, have: int, want: int) -> tuple[int, ...]:
    for pi in t.automorphisms():
        if pi[have] == want:
            return pi
    raise NormalizationFailed(
        f"no automorphism of {t.name or 'target'} maps colour {have} to {want}"
    )


def extract_edge_colouring(ri: ReductionInstance, f) -> dict[Edge, int]:
    """Project an instance colouring to the edge colouring it encodes."""
    if ri.kind not in EDGE_KINDS:
        raise ValueError(f"extract_edge_colouring needs a t4 kind, got {ri.kind}")
    colouring = {}
    for e, (p, q) in sorted(ri.ports.items()):
        cp, cq = f[p], f[q]
        if cp != cq:
            raise PortColourMismatch(
                f"edge {e}: ports coloured {cp} and {cq}, gadget contract violated"
            )
        if cp not in EDGE_COLOURS:
            raise PortColourMismatch(f"edge {e}: port colour {cp} outside {{b,c,d}}")
        colouring[e] = cp
    return colouring


def extract_inner_colouring(ri: ReductionInstance, f) -> dict[int, int]:
    """Restrict to the source vertices, normalized by a target automorphism.

    For the t5 kinds the result is a C3 colouring (ids 0..2); for the collapse
    kinds it is a colouring in the collapsed target's ids.
    """
    if ri.source_target is None:
        raise ValueError(f"extract_inner_colouring does not apply to kind {ri.kind}")
    pi = _normalizing_automorphism(ri.target, f[ri.anchor_vertex], ri.anchor_colour)
    project = {c: sc for sc, c in ri.embedding.items()}
    out: dict[int, int] = {}
    for u, vid in sorted(ri.inner.items()):
        c = pi[f[vid]]
        if c not in project:
            raise NormalizationFailed(
                f"source vertex {u} coloured {c}, outside the embedded {ri.source_target.name}"
            )
        out[u] = project[c]
    return out


def _edge_fixing(ri: ReductionInstance, base) -> dict[int, int]:
    """t4 kinds: both ports of every edge gadget take the edge's colour."""
    if not is_proper_edge_colouring(ri.source, base):
        raise ValueError("base is not a proper {b,c,d} edge colouring")
    return {p: base[e] for e, ports in ri.ports.items() for p in ports}


def _vertex_fixing(ri: ReductionInstance, base) -> dict[int, int]:
    """t5 and collapse kinds: the embedded base on the source images, the
    anchor and, where the ring copies are target copies, the copies and the
    x-vertices."""
    ok, why = verify_colouring(ri.source, ri.source_target, base, ri.mode)
    if not ok:
        raise ValueError(
            f"base is not a valid {ri.source_target.name} colouring of the source: {why}"
        )
    fixed = {vid: ri.embedding[base[u]] for u, vid in ri.inner.items()}
    fixed[ri.anchor_vertex] = ri.anchor_colour
    if ri.pin_copies:
        for labels in (*ri.vertex_gadget.values(), *ri.star_gadget.values()):
            fixed.update((vid, lbl) for lbl, vid in labels.items())
    fixed.update(dict.fromkeys(ri.x_vertices.values(), ri.pivot))
    return fixed


def lift_colouring(ri: ReductionInstance, base) -> tuple[int, ...]:
    """Extend a source-problem solution to a full valid instance colouring."""
    rule = _edge_fixing if ri.kind in EDGE_KINDS else _vertex_fixing
    res = decide(ri.graph, ri.target, ri.mode, fixed=rule(ri, base))
    if not res.sat:
        raise TemplateNotFound(
            f"no completion of the fixed ports exists for kind {ri.kind}"
        )
    witness = res.witnesses[0]
    ok, why = verify_colouring(ri.graph, ri.target, witness, ri.mode)
    assert ok, why
    return witness
