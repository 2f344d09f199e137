"""Loop-aware oriented graphs, their edge-list text format and a few helpers.

An oriented graph is a directed graph in which two distinct vertices are
joined by at most one arc (no digons); loops are permitted.  A loop at v
puts v inside both its own in- and out-neighbourhood, which is what makes
the local injectivity modes sensitive to loops.

Graphs are immutable after construction, so they can be shared freely.
"""
from __future__ import annotations

import random
from enum import Enum
from typing import Iterable

from .errors import (
    DigonViolation,
    DuplicateArc,
    MalformedLine,
    VertexOutOfRange,
)

Arc = tuple[int, int]


class Mode(Enum):
    """Local injectivity mode: which neighbourhood(s) must be rainbow."""

    IN = "in"  # injective on N-(v)
    IOS = "ios"  # injective on N-(v) and on N+(v), separately
    IOT = "iot"  # injective on N-(v) union N+(v)

    # members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is a Python call on every lookup keyed by a mode
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "Mode":
        for m in cls:
            if m.value == text:
                return m
        raise ValueError(f"unknown mode {text!r} (expected in, ios or iot)")


MODES = (Mode.IN, Mode.IOS, Mode.IOT)


# every empty neighbourhood of every graph
_EMPTY: frozenset[int] = frozenset()


def _frozen(members: list[list[int]]) -> tuple[frozenset[int], ...]:
    return tuple([frozenset(vs) if vs else _EMPTY for vs in members])


class OrientedGraph:
    """Immutable digon-free directed graph on vertices 0..n-1.

    Each vertex's in- and out-neighbourhood is a frozenset, filled from lists
    collected in the pass that validates the arcs.  Every empty neighbourhood
    is the one shared _EMPTY, so an isolated vertex costs no set of its own."""

    __slots__ = ("n", "arcs", "_nin", "_nout", "_memo")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise VertexOutOfRange(f"vertex count {n} is negative")
        arcset: set[Arc] = set()
        # scratch lists, not sets: a list costs a quarter of a set's bytes; a
        # dict of only the vertices with arcs built the dense graphs that the
        # reductions make about a fifth slower
        nin: list[list[int]] = [[] for _ in range(n)]
        nout: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"arc ({u}, {v}) outside 0..{n - 1}")
            if u != v and (v, u) in arcset:
                raise DigonViolation(f"arcs ({u}, {v}) and ({v}, {u}) form a digon")
            arcset.add((u, v))
            nout[u].append(v)  # a repeated arc repeats here; frozenset drops it
            nin[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", frozenset(arcset))
        object.__setattr__(self, "_nin", _frozen(nin))
        object.__setattr__(self, "_nout", _frozen(nout))
        object.__setattr__(self, "_memo", None)  # see _memoised

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("OrientedGraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, OrientedGraph)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"OrientedGraph(n={self.n}, arcs={sorted(self.arcs)})"

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def has_loop(self, v: int) -> bool:
        return (v, v) in self.arcs

    def in_set(self, v: int) -> frozenset[int]:
        self._check(v)
        return self._nin[v]

    def out_set(self, v: int) -> frozenset[int]:
        self._check(v)
        return self._nout[v]

    def mode_sets(self, mode: Mode) -> tuple[tuple[frozenset[int], ...], ...]:
        """The neighbourhood sets whose members must take distinct colours: one
        tuple per set (in, out, or their union), each indexed by vertex."""
        if mode is Mode.IN:
            return (self._nin,)
        if mode is Mode.IOS:
            return (self._nin, self._nout)
        if mode is Mode.IOT:
            return self._memoised(_union_sets)
        raise ValueError(f"mode {mode!r} is not a Mode (Mode.IN, Mode.IOS or Mode.IOT)")

    def mirrored_mode_sets(self, mode: Mode) -> tuple[tuple[tuple, tuple], ...]:
        """Each family of mode_sets(mode) with its mirror: v is in sets[w] iff
        w is in mirror[v].  In-sets mirror out-sets; the iot union mirrors
        itself."""
        sets = self.mode_sets(mode)
        return tuple(zip(sets, sets if mode is Mode.IOT else (self._nout, self._nin)))

    def _memoised(self, build, *args):
        """build(self, *args), computed once per graph: the graph never changes.

        The one cache for data derived from a graph, whichever module derives
        it: the iot union sets here, the search's constraint tables in
        solver.py (both halves: a graph can be an instance and a target) and
        a target's automorphisms and root symmetry in catalog.py.  The key is
        the builder with its arguments, so two builders never share an entry.
        Equality, hashing and repr ignore the cache."""
        key = (build, *args) if args else build
        memo = self._memo
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        value = memo.get(key)
        if value is None:
            memo[key] = value = build(self, *args)
        return value

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")


def _union_sets(g: OrientedGraph) -> tuple[tuple[frozenset[int], ...]]:
    # a union with an empty side is the other side itself, not a copy
    return (tuple([a | b if a and b else a or b for a, b in zip(g._nin, g._nout)]),)


# ---------------------------------------------------------------------------
# edge-list text format
#
#   # comment
#   n <count>
#   a <u> <v>        (sorted by (u, v) when serialized)
#   port <name> <v>  (only gadget files carry ports)
# ---------------------------------------------------------------------------

# the largest vertex count a file may declare.  A graph holds two lists per
# vertex while it is built, so a 12-byte file could otherwise ask for
# gigabytes (`n 1000000` alone peaks at 177 MB of RSS).  2^20 is well above
# the largest instance measured so far: 360 448 vertices, the ios-t4 instance
# of a planted 8 192-vertex cubic source.
MAX_VERTICES = 1 << 20


def read_edge_list(text: str, word: str, on_pair, on_other=None) -> int:
    """Read the edge-list format in line order and return the vertex count.
    Each 'a u v' line with both ends in range goes to on_pair(lineno, u, v),
    named `word` ("arc" or "edge") in messages; any other line but 'n' goes
    to on_other(lineno, parts, n), which returns False for a line it does not know."""
    n: int | None = None
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
            if n > MAX_VERTICES:
                raise MalformedLine(
                    f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}"
                )
        elif parts[0] == "a" and len(parts) == 3:
            if n is None:
                raise MalformedLine(f"line {lineno}: {word} before vertex-count line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad {word} {line!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"line {lineno}: {word} ({u}, {v}) outside 0..{n - 1}")
            on_pair(lineno, u, v)
        elif on_other is None or not on_other(lineno, parts, n):
            raise MalformedLine(f"line {lineno}: unrecognised line {line!r}")
    if n is None:
        raise MalformedLine("missing vertex-count line 'n <count>'")
    return n


def parse_document(text: str) -> tuple[OrientedGraph, dict[str, int]]:
    """Parse the edge-list format; returns the graph and any declared ports."""
    arcs: set[Arc] = set()
    ports: dict[str, int] = {}

    def arc(lineno: int, u: int, v: int) -> None:
        if (u, v) in arcs:
            raise DuplicateArc(f"line {lineno}: arc ({u}, {v}) listed twice")
        if u != v and (v, u) in arcs:
            raise DigonViolation(f"line {lineno}: ({u}, {v}) closes a digon")
        arcs.add((u, v))

    def port(lineno: int, parts: list[str], n: int | None) -> bool:
        if parts[0] != "port" or len(parts) != 3:
            return False
        if n is None:
            raise MalformedLine(f"line {lineno}: port before vertex-count line")
        name = parts[1]
        try:
            v = int(parts[2])
        except ValueError:
            raise MalformedLine(f"line {lineno}: bad port vertex {parts[2]!r}")
        if not (0 <= v < n):
            raise VertexOutOfRange(f"line {lineno}: port vertex {v} out of range")
        if name in ports:
            raise MalformedLine(f"line {lineno}: duplicate port {name!r}")
        ports[name] = v
        return True

    n = read_edge_list(text, "arc", arc, port)
    return OrientedGraph(n, arcs), ports


def parse_graph(text: str) -> OrientedGraph:
    return parse_document(text)[0]


def serialize_graph(g: OrientedGraph, header: str | None = None) -> str:
    """Bit-exact serialization: header comment, count, arcs by (u, v)."""
    lines: list[str] = []
    if header:
        lines.append(f"# {header}")
    lines.append(f"n {g.n}")
    lines.extend(f"a {u} {v}" for u, v in sorted(g.arcs))
    return "\n".join(lines)


def induced_subgraph(
    g: OrientedGraph, vertices: Iterable[int]
) -> tuple[OrientedGraph, dict[int, int]]:
    """Subgraph induced on the given vertex set, relabelled densely; map returned."""
    vs = sorted(set(vertices))
    for v in vs:
        g._check(v)
    relabel = {v: i for i, v in enumerate(vs)}
    arcs = [
        (relabel[u], relabel[v]) for u, v in g.arcs if u in relabel and v in relabel
    ]
    return OrientedGraph(len(vs), arcs), relabel


def random_oriented_graph(rng: random.Random, n: int) -> OrientedGraph:
    """Seeded random oriented graph: a loop at each vertex with probability
    0.15, then for each pair u < v the arc u->v or v->u with 0.35 each."""
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


def is_strongly_connected(g: OrientedGraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if g.n <= 1:
        return True

    def reaches_all(neigh) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in neigh(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == g.n

    return reaches_all(g.out_set) and reaches_all(g.in_set)
