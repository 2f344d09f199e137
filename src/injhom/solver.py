"""Decide and enumerate locally-injective homomorphisms.

Constraint tables (built, read and described only here).  The search joins
two halves, each compiled once per graph and kept in that graph's cache
(`OrientedGraph._memoised`), so a graph can serve as instance and target:

* the instance's half, `_instance_table(g, mode)` = (sizes, loops, pairs):
  sizes[i][v] is the size of v's i-th mode set (as in `mode_sets`),
  loops[v] whether v has a loop, and pairs[v] v's partners u, sorted by id,
  each as (u, kind).  The kind bits: 1 for an arc v -> u, 2 for an arc
  u -> v, 4 when u and v share a mode-relevant neighbourhood and must
  differ (in: the in-neighbours of v's out-neighbours; ios: also the
  out-neighbours of v's in-neighbours; iot: the neighbours of v's
  neighbours; v itself dropped);
* the target's half, `_target_table(t.graph)`, in bitmasks (bit c stands
  for colour c).  rows[c][kind] is the set of colours a partner of kind
  `kind` may take when v takes c, each set bit adding its condition, so
  rows[c][1] is c's out-set and rows[c][2] its in-set; kinds 3 and 7
  would need a digon, and kind 0 is no constraint.  Colour-major, so the
  search reads rows[c] once per node.  loops is the set of loop colours.
  capacity[mode][i][k] is the set of colours whose i-th mode set has at
  least k members: a mode set of size k fits some colour iff
  k < len(capacity[mode][i]), and a 0-vertex target gets (0,), which
  fits nothing.

Search policy (pinned for reproducibility):

* a fixed (pre-coloured) assignment is checked once.  The in-arcs of the
  fixed vertices come first, the first bad arc reported by fixed-order
  position of its head, then of its tail.  The join then checks
  each fixed vertex's fixed must-differ partners and reports the least
  pair (x, y), x < y, fixed to one colour.  Arcs and pairs between two
  fixed vertices then get no constraint: they could never narrow a domain;
* unary filtering up front: loop arcs restrict a vertex to loop colours, and
  a vertex whose mode-relevant neighbourhood is larger than any colour's
  matching neighbourhood gets an empty domain (the pigeonhole screen);
* the root rule breaks the target's symmetry (Crawford et al., KR 1996).
  With nothing fixed, decide() narrows its most-constrained vertex (the
  longest constraint list, ties by vertex id) to the orbit-minimal colours
  of Aut(target): any colouring post-composed with the automorphism that
  moves that vertex's colour to its orbit's least member is again a
  colouring, and the loop and capacity filters are Aut-invariant.
  enumerate_mod_aut() narrows vertex 0 the same way and keeps a witness
  only if no automorphism fixing its first colour maps it lexicographically
  lower, so it lists exactly the lex-least member of every orbit.  For a
  target with a trivial group (TTn, T4) every colour is orbit-minimal and
  the search is unchanged;
* decide() branches on the smallest current domain (ties by vertex id),
  values in ascending colour order.  The candidates live in one bitset per
  domain size, `bucket[k]`, updated wherever a domain is narrowed or
  restored, so a pick is the lowest bit of the first non-empty bucket;
* enumerate() assigns vertices in id order so witnesses stream out in
  lexicographic order, deduplicated for free.

Everything is single-threaded and deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

from .catalog import CANONICAL_MAX, Target
from .digraph import MODES, Mode, OrientedGraph
from .errors import InjhomError, InvalidFixedAssignment, PartialColouring

SAT = "sat"
UNSAT = "unsat"
BUDGET_EXHAUSTED = "budget_exhausted"

Witness = tuple[int, ...]


@dataclass
class SolveResult:
    status: str
    witnesses: list[Witness] = field(default_factory=list)
    nodes: int = 0
    # the search's propagations, or the 2-colour decider's implications; the
    # decider's count can differ between equal graphs built from reordered
    # arcs (see the injhom.poly docstring)
    propagations: int = 0
    complete: bool = True
    orbits: int | None = None

    @property
    def sat(self) -> bool:
        return self.status == SAT


def _instance_table(g: OrientedGraph, mode: Mode) -> tuple[tuple, tuple, tuple]:
    """The instance's half: (sizes, loops, pairs), as the module docstring says."""
    nin, nout = g.mode_sets(Mode.IOS)
    families = g.mirrored_mode_sets(mode)
    pairs = []
    for v in range(g.n):
        partners: set[int] = set()
        for s, mirror in families:
            for w in mirror[v]:
                partners |= s[w]
        nb = dict.fromkeys(partners, 4)
        for u in nout[v]:
            nb[u] = nb.get(u, 0) | 1
        for u in nin[v]:
            nb[u] = nb.get(u, 0) | 2
        nb.pop(v, None)
        pairs.append(tuple(sorted(nb.items())))
    sizes = tuple(tuple(map(len, s)) for s, _ in families)
    loops = tuple(v in out for v, out in enumerate(nout))
    return sizes, loops, tuple(pairs)


class _TargetTable(NamedTuple):
    """The target's half, as the module docstring says."""

    rows: tuple[tuple[int, ...], ...]
    loops: int
    capacity: dict[Mode, tuple[tuple[int, ...], ...]]


def _capacity(sizes: list[int]) -> tuple[int, ...]:
    return tuple(
        sum(1 << c for c, size in enumerate(sizes) if size >= k)
        for k in range(max(sizes, default=0) + 1)
    )


def _target_table(tg: OrientedGraph) -> _TargetTable:
    colours = range(tg.n)
    out = tuple(sum(1 << d for d in tg.out_set(c)) for c in colours)
    into = tuple(sum(1 << d for d in tg.in_set(c)) for c in colours)
    full = (1 << tg.n) - 1
    rows = tuple(
        tuple(
            (out[c] if kind & 1 else full)
            & (into[c] if kind & 2 else full)
            & (full ^ (1 << c) if kind & 4 else full)
            for kind in range(8)
        )
        for c in colours
    )
    loops = sum(1 << c for c in colours if tg.has_loop(c))
    capacity = {
        mode: tuple(_capacity([len(s) for s in sets]) for sets in tg.mode_sets(mode))
        for mode in MODES
    }
    return _TargetTable(rows, loops, capacity)


def pigeonhole_unsat(g: OrientedGraph, t: Target, mode: Mode) -> bool:
    """True when some mode-relevant neighbourhood cannot fit into the target."""
    # a set of size k fits some colour iff k < len(cap)
    return any(
        max(map(len, sets), default=0) >= len(cap)
        for sets, cap in zip(
            g.mode_sets(mode), t.graph._memoised(_target_table).capacity[mode]
        )
    )


class _Engine:
    """Shared constraint setup for one (instance, target, mode, fixed) problem."""

    def __init__(self, g: OrientedGraph, t: Target, mode: Mode, fixed=None):
        self.g = g
        self.t = t
        self.fixed = fixed = dict(fixed or {})
        if fixed:
            self._validate_fixed()
        sizes, looped, pairs = g._memoised(_instance_table, mode)
        table = t.graph._memoised(_target_table)
        self.rows = table.rows
        self.tn = t.n
        # dom0[v] is v's unary filter: loops, mode-set capacities, a fixed colour
        full = (1 << self.tn) - 1
        dom = [table.loops if loop else full for loop in looped]
        for cap, ks in zip(table.capacity[mode], sizes):
            dom = [m & cap[k] if k < len(cap) else 0 for m, k in zip(dom, ks)]
        # cons[v] is the graph's shared (u, kind) list; a fixed v gets a copy
        # without its fixed partners, after a check that none of its fixed
        # must-differ partners has its colour (the first clash is the least pair)
        cons = pairs
        if fixed:
            cons = list(pairs)
            for v in sorted(fixed):
                c = fixed[v]
                for u, k in pairs[v]:
                    if k & 4 and fixed.get(u) == c:
                        raise InvalidFixedAssignment(
                            f"vertices {v} and {u} share a neighbourhood but are "
                            f"both fixed to colour {c}"
                        )
                dom[v] &= 1 << c
                cons[v] = [(u, k) for u, k in pairs[v] if u not in fixed]
        self.dom0 = dom
        self.cons = cons

    def _validate_fixed(self) -> None:
        g, tg, fixed = self.g, self.t.graph, self.fixed
        for v, c in fixed.items():
            if not 0 <= v < g.n:
                raise InvalidFixedAssignment(f"fixed vertex {v} outside instance")
            if not 0 <= c < tg.n:
                raise InvalidFixedAssignment(f"fixed colour {c} outside target")
        # the first bad arc by the fixed-order position of its head, then of its
        # tail; a loop is an arc (v, v), so this covers loops on loopless colours
        position = {v: i for i, v in enumerate(fixed)}
        for v, c in fixed.items():
            bad = [u for u in g.in_set(v) if u in fixed and not tg.has_arc(fixed[u], c)]
            if bad:
                u = min(bad, key=position.__getitem__)
                raise InvalidFixedAssignment(
                    f"fixed arc ({u}, {v}) maps to non-arc ({fixed[u]}, {c})"
                )

    # -- the search ---------------------------------------------------------

    def run(
        self, static_order: bool, node_budget: int | None
    ) -> Iterator[Witness]:
        """Yield witnesses; sets self.nodes / self.propagations / self.exhausted."""
        self.nodes = 0
        self.propagations = 0
        self.exhausted = False
        n = self.g.n
        if n == 0:
            yield ()
            return
        dom = self.dom0[:]
        if not all(dom):
            return
        cons, rows = self.cons, self.rows
        col = [-1] * n
        unassigned = n
        # smallest-domain order: bucket[k] is the bitset of the vertices with k
        # colours left that no open frame branches on; a frame's vertex leaves
        # its bucket when the frame is pushed and returns when it is popped
        track = not static_order
        bucket = [0] * (self.tn + 1)
        if track:
            for u in range(n):
                bucket[dom[u].bit_count()] |= 1 << u

        def take() -> int:
            """The next branch vertex, taken out of its bucket."""
            if static_order:
                return n - unassigned
            for k, b in enumerate(bucket):  # bucket[0] is empty here
                if b:
                    low = b & -b
                    bucket[k] = b ^ low
                    return low.bit_length() - 1

        # frame: [vertex, untried-colour mask, trail of (u, saved-domain)]
        v0 = take()
        stack: list[list] = [[v0, dom[v0], []]]
        while stack:
            frame = stack[-1]
            v, rem, trail = frame
            for u, old in trail:
                if track:
                    b = 1 << u
                    bucket[dom[u].bit_count()] ^= b
                    bucket[old.bit_count()] |= b
                dom[u] = old
            trail.clear()
            if col[v] >= 0:
                col[v] = -1
                unassigned += 1
            if rem == 0:
                stack.pop()
                if track:
                    bucket[dom[v].bit_count()] |= 1 << v
                continue
            if node_budget is not None and self.nodes >= node_budget:
                self.exhausted = True
                return
            bit = rem & (-rem)
            frame[1] = rem ^ bit
            c = bit.bit_length() - 1
            self.nodes += 1
            col[v] = c
            unassigned -= 1
            dead = False
            rc = rows[c]
            for u, k in cons[v]:
                if col[u] >= 0:
                    continue
                old = dom[u]
                new = old & rc[k]
                if new != old:
                    trail.append((u, old))
                    dom[u] = new
                    self.propagations += 1
                    if track:
                        b = 1 << u
                        bucket[old.bit_count()] ^= b
                        bucket[new.bit_count()] |= b
                    if new == 0:
                        dead = True
                        break
            if dead:
                continue
            if unassigned == 0:
                yield tuple(col)
                continue
            w = take()
            stack.append([w, dom[w], []])


def decide(
    g: OrientedGraph,
    t: Target,
    mode: Mode,
    fixed: Mapping[int, int] | None = None,
    node_budget: int | None = None,
) -> SolveResult:
    """Sat with one witness iff a valid total colouring extending `fixed` exists."""
    _check_bounds(None, node_budget)
    eng = _Engine(g, t, mode, fixed)
    if not eng.fixed and g.n and t.n <= CANONICAL_MAX:
        root = max(range(g.n), key=lambda v: len(eng.cons[v]))
        eng.dom0[root] &= t.root_symmetry().roots
    first = next(eng.run(static_order=False, node_budget=node_budget), None)
    # the search stops at its first witness, so it never holds one together
    # with an exhausted budget
    return _result(eng, [] if first is None else [first])


def enumerate_colourings(
    g: OrientedGraph,
    t: Target,
    mode: Mode,
    fixed: Mapping[int, int] | None = None,
    limit: int | None = None,
    node_budget: int | None = None,
) -> SolveResult:
    """All valid total colourings extending `fixed`, in lexicographic order."""
    _check_bounds(limit, node_budget)
    return _collect(_Engine(g, t, mode, fixed), limit, node_budget, None)


def enumerate_mod_aut(
    g: OrientedGraph,
    t: Target,
    mode: Mode,
    limit: int | None = None,
    node_budget: int | None = None,
) -> SolveResult:
    """One representative per orbit of the witness set under Aut(target).

    Orbits are taken under post-composition; the representative is the
    lexicographically least member, and representatives are listed in order.
    The rule needs a witness set closed under Aut, so nothing can be fixed.
    """
    _check_bounds(limit, node_budget)
    eng = _Engine(g, t, mode)
    roots, stabilisers = t.root_symmetry()

    def lex_leader(w: Witness) -> bool:
        return not any(tuple(map(pi.__getitem__, w)) < w for pi in stabilisers[w[0]])

    keep = None
    if g.n:
        eng.dom0[0] &= roots
        # C3 and T5 act regularly: with trivial stabilisers, every witness
        # left after the narrowing is its orbit's least member
        if any(stabilisers):
            keep = lex_leader
    res = _collect(eng, limit, node_budget, keep)
    res.orbits = len(res.witnesses)
    return res


def _check_bounds(limit: int | None, node_budget: int | None) -> None:
    """Reject a limit below one witness and a negative node budget; a budget
    of 0 is valid and stops before the first node."""
    if limit is not None and limit < 1:
        raise InjhomError(f"enumeration limit {limit} is below 1")
    if node_budget is not None and node_budget < 0:
        raise InjhomError(f"node budget {node_budget} is negative")


def _collect(eng: _Engine, limit, node_budget, keep) -> SolveResult:
    """Run the static-order search, keeping the witnesses `keep` accepts."""
    witnesses: list[Witness] = []
    truncated = False
    for w in eng.run(static_order=True, node_budget=node_budget):
        if keep is not None and not keep(w):
            continue
        witnesses.append(w)
        if limit is not None and len(witnesses) >= limit:
            truncated = True
            break
    return _result(eng, witnesses, truncated)


def _result(eng: _Engine, witnesses: list[Witness], truncated: bool = False) -> SolveResult:
    """The one status rule: an exhausted budget, else sat iff a witness was
    found.  The result is complete unless the budget or a limit cut the run."""
    if eng.exhausted:
        status = BUDGET_EXHAUSTED
    elif witnesses:
        status = SAT
    else:
        status = UNSAT
    return SolveResult(
        status=status,
        witnesses=witnesses,
        nodes=eng.nodes,
        propagations=eng.propagations,
        complete=not (eng.exhausted or truncated),
    )


# ---------------------------------------------------------------------------
# independent checker (no shared machinery with the search above)
# ---------------------------------------------------------------------------


def verify_colouring(
    g: OrientedGraph,
    t: Target,
    colouring: Mapping[int, int] | Sequence[int],
    mode: Mode,
) -> tuple[bool, str | None]:
    """Check a total colouring; on failure, report one violating arc or pair:
    the least arc, else the first clash in vertex order."""
    sets = g.mode_sets(mode)
    f = _as_total(g, colouring)
    tg = t.graph
    for c in f:
        if not 0 <= c < tg.n:
            return False, f"colour {c} outside target"
    tarcs = tg.arcs
    for u, v in g.arcs:
        if (f[u], f[v]) not in tarcs:
            u, v = min(a for a in g.arcs if (f[a[0]], f[a[1]]) not in tarcs)
            return False, (
                f"arc ({u}, {v}) maps to ({f[u]}, {f[v]}), not an arc of the target"
            )
    labels = ("both",) if mode is Mode.IOT else ("in", "out")
    colour = f.__getitem__
    for v in range(g.n):
        for label, members in zip(labels, sets):
            s = members[v]
            if len(s) < 2 or len(set(map(colour, s))) == len(s):
                continue
            seen: dict[int, int] = {}
            for x in sorted(s):
                if f[x] in seen:
                    return False, (
                        f"vertices {seen[f[x]]} and {x} in the {label}-neighbourhood "
                        f"of {v} both take colour {f[x]}"
                    )
                seen[f[x]] = x
    return True, None


def _as_total(g: OrientedGraph, colouring) -> list[int]:
    if isinstance(colouring, Mapping):
        missing = [v for v in range(g.n) if v not in colouring]
        if missing:
            raise PartialColouring(f"vertices {missing} are uncoloured")
        return [colouring[v] for v in range(g.n)]
    seq = list(colouring)
    if len(seq) != g.n:
        raise PartialColouring(f"colouring has {len(seq)} entries for {g.n} vertices")
    return seq
