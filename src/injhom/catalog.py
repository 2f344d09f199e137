"""Named targets, exhaustive reflexive-tournament enumeration, automorphisms.

Colour letters a..h map to vertex ids 0..7 in all I/O.  The named targets:

  C3   reflexive directed three-cycle          a->b->c->a
  TTn  reflexive transitive tournament         i->j for i < j
  T4   the unique strongly connected reflexive tournament on 4 vertices
  T5   the unique reflexive tournament on 5 vertices with every in- and
       out-degree equal to 3 (loops counted)

Enumeration adds one vertex at a time: the n-vertex classes are the
canonical values of every (n-1)-vertex representative extended by each of the
2^(n-1) orientations of the new vertex's pairs.  This reaches every class,
because deleting a vertex from an n-vertex tournament leaves a copy of some
(n-1)-vertex representative.

Canonical forms are lexicographically minimal adjacency bit-strings over all
vertex relabellings, found by one individualisation-and-refinement search
that also names the enumerated classes, so they are usable as isomorphism
keys for any digraph on at most 8 vertices.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .digraph import OrientedGraph
from .errors import BoundExceeded

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

CANONICAL_MAX = 8

# The largest n a TTn name may ask for.  TTn's n(n+1)/2 arcs are built at once,
# so an unbounded name such as TT99999999 would exhaust memory instead of
# failing; the paper's targets have at most five vertices.
TT_MAX = 64


def colour_letter(i: int) -> str:
    return _LETTERS[i] if 0 <= i < len(_LETTERS) else str(i)


def parse_colour(text: str, n: int) -> int:
    """A colour given as a letter (a..) or an integer id."""
    if n == 0:
        raise ValueError(f"colour {text!r} given, but the target has no colours")
    t = text.strip().lower()
    if len(t) == 1 and t in _LETTERS and _LETTERS.index(t) < n:
        return _LETTERS.index(t)
    try:
        c = int(t)
    except ValueError:
        raise ValueError(
            f"colour {text!r} is not a letter a..{_LETTERS[min(n, len(_LETTERS)) - 1]} or an id"
        )
    if not 0 <= c < n:
        raise ValueError(f"colour id {c} outside 0..{n - 1}")
    return c


class RootSymmetry(NamedTuple):
    """A target's automorphisms in the form the search's root rule reads.

    A colouring post-composed with an automorphism is again a colouring, so
    the lexicographically least member of an orbit starts with a root
    colour, and only the stabiliser of that colour can map it lower.
    """

    roots: int  # the orbit-minimal colours: no automorphism maps c below c
    # stabilisers[c]: the non-identity automorphisms fixing root colour c;
    # empty for the other colours
    stabilisers: tuple[tuple[tuple[int, ...], ...], ...]


def _automorphism_group(g: OrientedGraph) -> tuple[tuple[int, ...], ...]:
    # a cache key that stays fixed when the module's `automorphisms` is rebound
    return automorphisms(g)


def _root_symmetry(g: OrientedGraph) -> RootSymmetry:
    auts = g._memoised(_automorphism_group)
    roots = [c for c in range(g.n) if all(pi[c] >= c for pi in auts)]
    identity = tuple(range(g.n))
    stabilisers = tuple(
        tuple(pi for pi in auts if pi[c] == c and pi != identity) if c in roots else ()
        for c in range(g.n)
    )
    return RootSymmetry(sum(1 << c for c in roots), stabilisers)


class Target:
    """A colour space: a digraph and an optional name, both read-only.  What
    is derived from the graph (automorphisms, root symmetry, the solver's
    table) is cached on the graph."""

    __slots__ = ("graph", "name")

    def __init__(self, graph: OrientedGraph, name: str | None = None):
        self.graph = graph
        self.name = name

    def __setattr__(self, attr, value):
        if hasattr(self, attr):
            raise AttributeError(f"Target.{attr} is read-only: named targets are shared")
        object.__setattr__(self, attr, value)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def reflexive(self) -> bool:
        return all(self.graph.has_loop(v) for v in range(self.graph.n))

    @property
    def is_tournament(self) -> bool:
        g = self.graph
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_arc(u, v) == g.has_arc(v, u):
                    return False
        return True

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        return self.graph._memoised(_automorphism_group)

    def root_symmetry(self) -> RootSymmetry:
        """Root colours and their stabilisers, from `automorphisms()`; like
        it, limited to CANONICAL_MAX vertices."""
        return self.graph._memoised(_root_symmetry)

    def __repr__(self):
        label = self.name or f"<{self.graph.n}-vertex target>"
        return f"Target({label})"

    def __eq__(self, other):
        return isinstance(other, Target) and self.graph == other.graph

    def __hash__(self):
        return hash(self.graph)


def _reflexive(n: int, strict_arcs) -> OrientedGraph:
    return OrientedGraph(n, [(v, v) for v in range(n)] + list(strict_arcs))


# T4's defining property (the unique strongly connected case) and T5's (the
# unique in/out-degree-3 case) are re-checked against the exhaustive
# enumeration by the test suite.
_T4_STRICT = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)]
_T5_STRICT = [(i, (i + k) % 5) for i in range(5) for k in (1, 2)]


def named_target(name: str) -> Target:
    """The named target; one shared Target per name, so what is derived from
    its graph is computed once per process."""
    return _named_target(name.strip())


@lru_cache(maxsize=None)
def _named_target(key: str) -> Target:
    if key == "C3":
        return Target(_reflexive(3, [(0, 1), (1, 2), (2, 0)]), "C3")
    if key == "T4":
        return Target(_reflexive(4, _T4_STRICT), "T4")
    if key == "T5":
        return Target(_reflexive(5, _T5_STRICT), "T5")
    m = re.fullmatch(r"TT(\d+)", key)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= TT_MAX:
            raise ValueError(f"TTn needs 1 <= n <= {TT_MAX}")
        return Target(
            _reflexive(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
            f"TT{n}",
        )
    raise ValueError(f"unknown target name {key!r} (C3, TTn, T4, T5)")


def serialize_target(t: Target) -> str:
    """Edge-list document with a '# target <name>' header comment."""
    from .digraph import serialize_graph

    return serialize_graph(t.graph, header=f"target {t.name or 'unnamed'}")


# ---------------------------------------------------------------------------
# canonical forms and automorphisms (n <= 8)
# ---------------------------------------------------------------------------


def _least_relabelling(rows: list[int], full: bool) -> tuple[int, list[list[int]]]:
    """The least adjacency bit string over all relabellings, as an integer,
    and every relabelling p (p[a] the vertex placed at a) that gives it.

    Bit y of rows[x] is the arc x->y.  Under p, bit (a, b) is bit p[b] of
    rows[p[a]]; the string lists row a = 0..n-1 in turn, each with its bits
    (a, b) for every b when `full`, for b > a only otherwise.

    The search places vertex a from the first of a list of ordered cells.
    It then splits every later cell into the vertices that p[a] has no arc
    to, followed by those it has: that order gives row a's later bits their
    least value, and leaves rows 0..a-1 as they are.  Of every partial
    relabelling and candidate, only those whose row is least go on
    (individualisation and refinement; McKay and Piperno, "Practical graph
    isomorphism, II", J. Symbolic Computation 60, 2014).
    """
    n = len(rows)
    value, level = 0, [([], [(1 << n) - 1])]  # (placed vertices, later cells)
    for a in range(n):
        least, chosen = None, []
        for placed, cells in level:
            for x in range(n):
                if not cells[0] >> x & 1:
                    continue
                row, later = 0, []
                if full:
                    for y in placed + [x]:
                        row = row << 1 | rows[x] >> y & 1
                for cell in [cells[0] & ~(1 << x)] + cells[1:]:
                    ones = cell & rows[x]
                    row = row << cell.bit_count() | (1 << ones.bit_count()) - 1
                    later += [part for part in (cell & ~ones, ones) if part]
                if least is None or row < least:
                    least, chosen = row, []
                if row == least:
                    chosen.append((placed + [x], later))
        value = value << (n if full else n - 1 - a) | least
        level = chosen
    return value, [placed for placed, _ in level]


def _least_full_relabelling(t: Target | OrientedGraph, caller: str):
    g = t.graph if isinstance(t, Target) else t
    if g.n > CANONICAL_MAX:
        raise BoundExceeded(f"{caller} limited to {CANONICAL_MAX} vertices")
    rows = [sum(1 << v for v in g.out_set(u)) for u in range(g.n)]
    return (g.n, *_least_relabelling(rows, full=True))


def canonical_form(t: Target | OrientedGraph) -> bytes:
    """Isomorphism key: the least n*n adjacency bit string over all
    relabellings, row by row, packed big-endian and zero-padded to bytes."""
    n, value, _ = _least_full_relabelling(t, "canonical_form")
    size = (n * n + 7) // 8
    return (value << 8 * size - n * n).to_bytes(size, "big")


def automorphisms(t: Target | OrientedGraph) -> tuple[tuple[int, ...], ...]:
    """All arc-preserving vertex permutations, as tuples pi with pi[v] the
    image, in lexicographic order."""
    n, _, relabellings = _least_full_relabelling(t, "automorphisms")
    first = relabellings[0]
    # the full string names the graph, so q gives the same string as `first`
    # exactly when q[a] = pi[first[a]] for an automorphism pi
    return tuple(sorted(tuple(q[first.index(v)] for v in range(n)) for q in relabellings))


def is_vertex_transitive(t: Target) -> bool:
    """True iff the automorphism group has a single vertex orbit."""
    if t.n == 0:
        return True
    # the group is closed under composition, so the orbit of 0 is one sweep
    orbit = {pi[0] for pi in t.automorphisms()}
    return len(orbit) == t.n


@dataclass(frozen=True)
class DegreeProfile:
    in_degrees: tuple[int, ...]  # loops counted
    out_degrees: tuple[int, ...]
    high_vertices: tuple[int, ...]  # in- or out-degree >= 4


def degree_profile(t: Target) -> DegreeProfile:
    g = t.graph
    ins = tuple(len(g.in_set(v)) for v in range(g.n))
    outs = tuple(len(g.out_set(v)) for v in range(g.n))
    high = tuple(v for v in range(g.n) if ins[v] >= 4 or outs[v] >= 4)
    return DegreeProfile(
        in_degrees=ins,
        out_degrees=outs,
        high_vertices=high,
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration of reflexive tournaments up to isomorphism
# ---------------------------------------------------------------------------

ENUMERATION_MAX = 7


def _pair_rows(value: int, n: int, flip: int) -> list[int]:
    """The arc rows (bit y of row x is the arc x->y) of the n-vertex graph
    whose pairs (i, j), i < j, read in order as a big-endian bit string,
    give `value`.  A set bit is the arc i->j, and the arc j->i is that bit
    xor `flip`: 1 for a tournament, 0 for an undirected graph."""
    rows = [0] * n
    k = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            k -= 1
            bit = value >> k & 1
            rows[i] |= bit << j
            rows[j] |= (bit ^ flip) << i
    return rows


@lru_cache(maxsize=None)
def classes_by_extension(n: int, flip: int, joins) -> tuple[int, ...]:
    """The least pair values, ascending, of the n-vertex graphs grown one
    vertex at a time: vertex m-1 joins each (m-1)-vertex class (read as
    `_pair_rows` reads it) in every way `joins(rows)` lists, as the mask of
    the old vertices whose pair with m-1 has bit 1.  In a family closed under
    vertex deletion, that reaches every class when `joins` lists every way a
    deleted vertex can have been joined.  `joins` is part of the cache key."""
    if n == 0:
        return (0,)
    found = set()
    new_row = flip * ((1 << n - 1) - 1)
    for value in classes_by_extension(n - 1, flip, joins):
        rows = _pair_rows(value, n - 1, flip)
        for join in joins(rows):
            grown = [row | (join >> i & 1) << n - 1 for i, row in enumerate(rows)]
            found.add(_least_relabelling(grown + [join ^ new_row], full=False)[0])
    return tuple(sorted(found))


def pair_arcs(value: int, n: int, flip: int) -> list[tuple[int, int]]:
    """The arcs x->y of `_pair_rows(value, n, flip)`."""
    rows = _pair_rows(value, n, flip)
    return [(x, y) for x in range(n) for y in range(n) if rows[x] >> y & 1]


def _every_orientation(rows: list[int]) -> range:
    return range(1 << len(rows))


def _enumerate_values(n: int) -> tuple[int, ...]:
    """Canonical orientation values of the n-vertex tournaments, ascending."""
    return classes_by_extension(n, 1, _every_orientation)


def enumerate_reflexive_tournaments(n: int) -> list[Target]:
    """All reflexive tournaments on n vertices, one per isomorphism class.

    Deterministic canonical order (sorted by canonical orientation value).
    """
    if not 1 <= n <= ENUMERATION_MAX:
        raise BoundExceeded(f"enumeration supported for 1 <= n <= {ENUMERATION_MAX}")
    return [Target(_reflexive(n, pair_arcs(v, n, 1))) for v in _enumerate_values(n)]
