"""Named targets, exhaustive reflexive-tournament enumeration, automorphisms.

Colour letters a..h map to vertex ids 0..7 in all I/O.  The named targets:

  C3   reflexive directed three-cycle          a->b->c->a
  TTn  reflexive transitive tournament         i->j for i < j
  T4   the unique strongly connected reflexive tournament on 4 vertices
  T5   the unique reflexive tournament on 5 vertices with every in- and
       out-degree equal to 3 (loops counted)

Enumeration adds one vertex at a time: the n-vertex classes are the
canonical values of every (n-1)-vertex representative extended by each of the
2^(n-1) orientations of the new vertex's pairs, deduplicated by np.unique.
This reaches every class, because deleting a vertex from an n-vertex
tournament leaves a copy of some (n-1)-vertex representative.

Canonical forms are lexicographically minimal adjacency bit-strings over all
vertex permutations, so they are usable as isomorphism keys for any digraph
on at most 8 vertices.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .digraph import OrientedGraph
from .errors import BoundExceeded

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

CANONICAL_MAX = 8


def colour_letter(i: int) -> str:
    return _LETTERS[i] if 0 <= i < len(_LETTERS) else str(i)


def parse_colour(text: str, n: int) -> int:
    """A colour given as a letter (a..) or an integer id."""
    t = text.strip().lower()
    if len(t) == 1 and t in _LETTERS and _LETTERS.index(t) < n:
        return _LETTERS.index(t)
    try:
        c = int(t)
    except ValueError:
        raise ValueError(f"colour {text!r} is not a letter a..{_LETTERS[n - 1]} or an id")
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
        if n < 1:
            raise ValueError("TTn needs n >= 1")
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
# canonical forms and automorphisms (brute force over S_n, n <= 8)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    """(n!, n) array of all permutations of range(n)."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


@lru_cache(maxsize=None)
def _perm_flat_index(n: int) -> np.ndarray:
    """(n!, n*n) gather table: row p lists flat source indices of A[p][:, p]."""
    perms = _perm_table(n)
    return (perms[:, :, None] * n + perms[:, None, :]).reshape(len(perms), n * n)


def _adjacency_bits(g: OrientedGraph) -> np.ndarray:
    bits = np.zeros(g.n * g.n, dtype=np.uint8)
    for u, v in g.arcs:
        bits[u * g.n + v] = 1
    return bits


def canonical_form(t: Target | OrientedGraph) -> bytes:
    """Isomorphism key: minimal adjacency bit-string over all relabellings."""
    g = t.graph if isinstance(t, Target) else t
    if g.n > CANONICAL_MAX:
        raise BoundExceeded(f"canonical_form limited to {CANONICAL_MAX} vertices")
    if g.n == 0:
        return b""
    bits = _adjacency_bits(g)
    packed = np.packbits(bits[_perm_flat_index(g.n)], axis=1)
    return min(row.tobytes() for row in packed)


def automorphisms(t: Target | OrientedGraph) -> tuple[tuple[int, ...], ...]:
    """All arc-preserving vertex permutations, as tuples pi with pi[v] the image."""
    g = t.graph if isinstance(t, Target) else t
    if g.n > CANONICAL_MAX:
        raise BoundExceeded(f"automorphisms limited to {CANONICAL_MAX} vertices")
    if g.n == 0:
        return ((),)
    bits = _adjacency_bits(g)
    mats = bits[_perm_flat_index(g.n)]
    mask = (mats == bits[None, :]).all(axis=1)
    return tuple(tuple(int(x) for x in p) for p in _perm_table(g.n)[mask])


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


def least_relabelling(above: np.ndarray, below: np.ndarray, n: int) -> np.ndarray:
    """Per row, the least value over all relabellings of the bits of the
    pairs (i, j), i < j, read in order as a big-endian bit string.

    Row r of `above` holds the bits of the pairs (i, j), i < j, in order, and
    row r of `below` those of the pairs (j, i): the complements for an
    orientation, the same bits for an undirected graph.  Relabelling reads
    both through one gather of the adjacency rows.
    """
    rows = len(above)
    adj = np.zeros((rows, n, n), dtype=np.uint8)
    i, j = np.triu_indices(n, 1)  # the pairs in combinations order
    adj[:, i, j] = above
    adj[:, j, i] = below
    adj = adj.reshape(rows, n * n)
    weights = (1 << np.arange(len(i), dtype=np.int64))[::-1]
    best = None
    for idx in _perm_flat_index(n)[:, i * n + j]:
        vals = adj[:, idx].astype(np.int64) @ weights
        best = vals if best is None else np.minimum(best, vals)
    return best


def _orientation_to_target(value: int, n: int) -> Target:
    pairs = list(itertools.combinations(range(n), 2))
    k = len(pairs)
    strict = []
    for bit, (i, j) in enumerate(pairs):
        if (value >> (k - 1 - bit)) & 1:
            strict.append((i, j))
        else:
            strict.append((j, i))
    return Target(_reflexive(n, strict))


@lru_cache(maxsize=None)
def _enumerate_values(n: int) -> tuple[int, ...]:
    """Canonical orientation values of the n-vertex tournaments, ascending."""
    if n == 1:
        return (0,)
    # extend every (n-1)-vertex representative by each orientation of the
    # pairs (i, n-1): its bits fill the pairs inside 0..n-2 in order, and bit
    # i of the pattern orients (i, n-1)
    pairs = list(itertools.combinations(range(n), 2))
    inner = [k for k, (_, j) in enumerate(pairs) if j < n - 1]
    outer = [k for k, (_, j) in enumerate(pairs) if j == n - 1]
    base = np.array(_enumerate_values(n - 1), dtype=np.int64)
    patterns = np.arange(1 << (n - 1), dtype=np.int64)
    bits = np.zeros((len(base), len(patterns), len(pairs)), dtype=np.uint8)
    bits[:, :, inner] = ((base[:, None] >> np.arange(len(inner))[::-1]) & 1)[:, None, :]
    bits[:, :, outer] = (patterns[:, None] >> np.arange(n - 1)) & 1
    bits = bits.reshape(-1, len(pairs))
    best = least_relabelling(bits, 1 - bits, n)
    return tuple(int(v) for v in np.unique(best))


def enumerate_reflexive_tournaments(n: int) -> list[Target]:
    """All reflexive tournaments on n vertices, one per isomorphism class.

    Deterministic canonical order (sorted by canonical orientation value).
    """
    if not 1 <= n <= ENUMERATION_MAX:
        raise BoundExceeded(f"enumeration supported for 1 <= n <= {ENUMERATION_MAX}")
    return [_orientation_to_target(v, n) for v in _enumerate_values(n)]
