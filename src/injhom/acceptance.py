"""The acceptance battery: every gate criterion as one row of a table.

CRITERIA maps each criterion's number to its name and its check, a plain
function (seed, quick) -> (passed, detail).  run_criterion times one check
and turns a crash into a failure; run_all runs the table in order and is what
both `injhom selfcheck` and tests/test_acceptance.py drive.  All randomized
batteries are seeded (DEFAULT_SEED) and deterministic.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import lru_cache

from .catalog import (
    canonical_form,
    classes_by_extension,
    degree_profile,
    enumerate_reflexive_tournaments,
    is_vertex_transitive,
    named_target,
    pair_arcs,
)
from .digraph import MODES, Mode, OrientedGraph, is_strongly_connected, random_oriented_graph
from .gadgets import contract_reports
from .naive import naive_witnesses
from .poly import decide_small_target
from .reductions import (
    UndirectedGraph,
    build_ios_collapse,
    build_ios_t4,
    build_iot_collapse,
    build_iot_t4,
    build_ios_t5,
    build_iot_t5,
    extract_edge_colouring,
    is_proper_edge_colouring,
    lift_colouring,
    three_edge_colouring_oracle,
)
from .solver import decide, enumerate_colourings, enumerate_mod_aut, verify_colouring

DEFAULT_SEED = 2018

BATTERY_TARGETS = ("C3", "TT3", "T4", "T5")


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.seconds:.1f}s) {self.detail}"


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def all_oriented_graphs(n: int):
    """Every oriented graph on n labelled vertices (loops included)."""
    pairs = list(itertools.combinations(range(n), 2))
    for loops in itertools.product((False, True), repeat=n):
        base = [(v, v) for v in range(n) if loops[v]]
        for states in itertools.product((0, 1, 2), repeat=len(pairs)):
            arcs = list(base)
            for (u, v), s in zip(pairs, states):
                if s == 1:
                    arcs.append((u, v))
                elif s == 2:
                    arcs.append((v, u))
            yield OrientedGraph(n, arcs)


def _subcubic_joins(rows: list[int]) -> list[int]:
    """Every join of a new vertex to at most 3 old vertices of degree below 3."""
    low = [v for v, row in enumerate(rows) if row.bit_count() < 3]
    return [sum(1 << v for v in c) for k in range(4) for c in itertools.combinations(low, k)]


def subcubic_graphs_upto_iso(n: int) -> tuple[UndirectedGraph, ...]:
    """All simple graphs on n vertices with max degree <= 3, one per iso class,
    in the order of their least edge bit-string over all relabellings."""
    values = classes_by_extension(n, 0, _subcubic_joins)
    return tuple(UndirectedGraph(n, pair_arcs(value, n, 0)) for value in values)


def petersen_graph() -> UndirectedGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return UndirectedGraph(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# shared solver-vs-oracle battery (feeds criteria 4 and 5)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _solver_battery(seed: int) -> tuple[tuple[bool, str], tuple[bool, str]]:
    """Criterion 4's and criterion 5's (passed, detail), from one pass."""
    rng = random.Random(seed)
    instances = []
    for n in range(0, 5):
        instances.extend(all_oriented_graphs(n))
    exhaustive = len(instances)
    for _ in range(200):
        instances.append(random_oriented_graph(rng, rng.choice((5, 6))))
    targets = [named_target(name) for name in BATTERY_TARGETS]
    # the groups by brute force over S_n, independent of the solver's root rule
    auts = {
        t.name: [p for p in itertools.permutations(range(t.n))
                 if all((p[u], p[v]) in t.graph.arcs for u, v in t.graph.arcs)]
        for t in targets
    }

    checked = 0
    for g in instances:
        for t in targets:
            sets = {}
            for mode in MODES:
                ref = naive_witnesses(g, t, mode)
                sets[mode] = valid = set(ref)
                mismatch = None
                if enumerate_colourings(g, t, mode).witnesses != ref:
                    mismatch = "witness"
                else:
                    d = decide(g, t, mode)
                    if d.sat != bool(ref) or (d.sat and d.witnesses[0] not in valid):
                        mismatch = "decide"
                    elif enumerate_mod_aut(g, t, mode).witnesses != _lex_leaders(
                        ref, auts[t.name]
                    ):
                        mismatch = "mod-aut"
                if mismatch:
                    return (
                        (False, f"{mismatch} mismatch on {g!r} vs {t.name} ({mode.value})"),
                        (False, "not evaluated"),
                    )
                checked += 1
            if not (sets[Mode.IOT] <= sets[Mode.IOS] <= sets[Mode.IN]):
                return (
                    (True, f"{checked} checks"),
                    (False, f"mode nesting fails on {g!r} vs {t.name}"),
                )
    detail = (
        f"{checked} solver/oracle comparisons "
        f"({exhaustive} exhaustive graphs + 200 random)"
    )
    return (True, detail), (True, detail)


def _lex_leaders(witnesses, auts) -> list[tuple[int, ...]]:
    """The witnesses that no automorphism maps lexicographically lower.

    For a witness set closed under the group, in order, that is the least
    member of every orbit.  auts[0] is the identity.
    """
    return [w for w in witnesses if all(tuple(p[c] for c in w) >= w for p in auts[1:])]


# ---------------------------------------------------------------------------
# the checks: each takes (seed, quick) and returns (passed, detail)
# ---------------------------------------------------------------------------


def _catalog_counts(seed: int, quick: bool) -> tuple[bool, str]:
    counts = [len(enumerate_reflexive_tournaments(n)) for n in range(1, 6)]
    if counts != [1, 1, 2, 4, 12]:
        return False, f"counts {counts}"
    if counts[3] + counts[4] != 16:
        return False, "4+5 vertex total is not 16"
    return True, f"counts 1..5 = {counts}, 4- and 5-vertex total 16"


def _uniqueness_facts(seed: int, quick: bool) -> tuple[bool, str]:
    four = enumerate_reflexive_tournaments(4)
    strong = [t for t in four if is_strongly_connected(t.graph)]
    if len(strong) != 1:
        return False, f"{len(strong)} strongly connected 4-vertex tournaments"
    if canonical_form(strong[0]) != canonical_form(named_target("T4")):
        return False, "strongly connected 4-vertex tournament is not T4"
    five = enumerate_reflexive_tournaments(5)
    regular = [
        t
        for t in five
        if set(degree_profile(t).in_degrees) == {3}
        and set(degree_profile(t).out_degrees) == {3}
    ]
    if len(regular) != 1:
        return False, f"{len(regular)} degree-(3,3) 5-vertex tournaments"
    if canonical_form(regular[0]) != canonical_form(named_target("T5")):
        return False, "degree-(3,3) 5-vertex tournament is not T5"
    six = enumerate_reflexive_tournaments(6)
    if len(six) != 56:
        return False, f"{len(six)} tournaments on 6 vertices"
    low = [t for t in six if not degree_profile(t).high_vertices]
    if low:
        return False, f"{len(low)} 6-vertex tournaments without degree-4 vertex"
    return True, "T4/T5 unique as described; all 56 6-vertex tournaments have one"


def _t5_automorphisms(seed: int, quick: bool) -> tuple[bool, str]:
    t5 = named_target("T5")
    auts = t5.automorphisms()
    if len(auts) != 5:
        return False, f"|Aut(T5)| = {len(auts)}"
    if not is_vertex_transitive(t5):
        return False, "T5 not vertex-transitive"
    if not any(pi[0] == 2 and pi[2] == 4 for pi in auts):
        return False, "no automorphism with a->c and c->e"
    return True, "|Aut(T5)| = 5, vertex-transitive, contains a->c, c->e"


def _gadget_contracts(seed: int, quick: bool) -> tuple[bool, str]:
    reports = contract_reports()
    failures = [label for label, report in reports if not report.passed]
    if failures:
        return False, "; ".join(failures)
    return True, f"{len(reports)} contract verifications, all by full enumeration"


def _edge_colouring_reduction(seed: int, quick: bool) -> tuple[bool, str]:
    cases = 0
    for n in range(1, 7):
        for g in subcubic_graphs_upto_iso(n):
            want = three_edge_colouring_oracle(g) is not None
            for build in (build_ios_t4, build_iot_t4):
                ri = build(g)
                got = decide(ri.graph, ri.target, ri.mode).sat
                if got != want:
                    return False, f"{ri.kind} disagrees with the oracle on {g!r}"
                cases += 1
    detail = f"{cases} reduction instances vs oracle"
    if not quick:
        pet = petersen_graph()
        if three_edge_colouring_oracle(pet) is not None:
            return False, "oracle 3-colours the Petersen graph"
        for build in (build_ios_t4, build_iot_t4):
            ri = build(pet)
            if decide(ri.graph, ri.target, ri.mode).sat:
                return False, f"{ri.kind} instance for Petersen is satisfiable"
        detail += "; Petersen unsat on both reductions"
    return True, detail


def _c3_lift_reduction(seed: int, quick: bool) -> tuple[bool, str]:
    """The source's answer comes from the naive filter (at most 3^5 maps),
    independent of the search that decides the instance."""
    rng = random.Random(seed + 8)
    c3 = named_target("C3")
    for _ in range(100):
        g = random_oriented_graph(rng, rng.randint(1, 5))
        for build, mode in ((build_ios_t5, Mode.IOS), (build_iot_t5, Mode.IOT)):
            want = bool(naive_witnesses(g, c3, mode))
            ri = build(g)
            got = decide(ri.graph, ri.target, ri.mode).sat
            if got != want:
                return False, f"{ri.kind} disagrees on {g!r}"
    return True, "100 random graphs, ios and iot lifts agree with C3"


def _collapse_reduction(seed: int, quick: bool) -> tuple[bool, str]:
    """The source's answer comes from the naive filter (at most 4^4 maps),
    independent of the search that decides the instance."""
    rng = random.Random(seed + 9)
    tt5 = named_target("TT5")
    tt4 = named_target("TT4")
    configs = [(0, "out"), (4, "in")]  # source pivot and sink pivot
    for _ in range(100):
        g = random_oriented_graph(rng, rng.randint(1, 4))
        for pivot, direction in configs:
            for build, mode in (
                (build_ios_collapse, Mode.IOS),
                (build_iot_collapse, Mode.IOT),
            ):
                want = bool(naive_witnesses(g, tt4, mode))
                ri = build(g, tt5, pivot, direction)
                got = decide(ri.graph, ri.target, ri.mode).sat
                if got != want:
                    return False, (
                        f"{ri.kind} pivot={pivot} dir={direction} disagrees on {g!r}"
                    )
    return True, "100 random graphs, source/out and sink/in pivots, both modes"


def _poly_agreement(seed: int, quick: bool) -> tuple[bool, str]:
    rng = random.Random(seed + 10)
    targets = [named_target("TT1"), named_target("TT2")]
    exhaustive = (g for n in range(0, 5) for g in all_oriented_graphs(n))
    randoms = (random_oriented_graph(rng, rng.randint(5, 10)) for _ in range(500))
    checked = 0
    for g in itertools.chain(exhaustive, randoms):
        for t in targets:
            for mode in MODES:
                fast = decide_small_target(g, t, mode)
                slow = decide(g, t, mode)
                if fast.sat != slow.sat:
                    return False, f"disagree on {g!r} vs {t.name} {mode.value}"
                if fast.sat:
                    ok, why = verify_colouring(g, t, fast.witnesses[0], mode)
                    if not ok:
                        return False, f"invalid witness: {why}"
                checked += 1
    return True, f"{checked} comparisons (exhaustive <=4 plus 500 random <=10)"


def _round_trips(seed: int, quick: bool) -> tuple[bool, str]:
    k3 = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
    k4 = UndirectedGraph(4, list(itertools.combinations(range(4), 2)))
    for g in (k3, k4):
        base = three_edge_colouring_oracle(g)
        if base is None:
            return False, "oracle failed on a complete graph"
        for build in (build_ios_t4, build_iot_t4):
            ri = build(g)
            res = enumerate_colourings(ri.graph, ri.target, ri.mode)
            if not res.witnesses:
                return False, f"{ri.kind} instance unexpectedly unsat"
            for w in res.witnesses:
                ec = extract_edge_colouring(ri, w)
                if not is_proper_edge_colouring(g, ec):
                    return False, f"{ri.kind}: extracted colouring improper"
            lifted = lift_colouring(ri, base)
            ok, why = verify_colouring(ri.graph, ri.target, lifted, ri.mode)
            if not ok:
                return False, f"{ri.kind}: lifted colouring invalid ({why})"
            if extract_edge_colouring(ri, lifted) != base:
                return False, f"{ri.kind}: extract(lift) is not the identity"
    return True, "K3/K4 witnesses project properly; lift/extract round-trips"


# number -> (name, check), in the order run_all runs them
CRITERIA = {
    1: ("reflexive tournament catalog counts", _catalog_counts),
    2: ("T4/T5 uniqueness and 6-vertex degree facts", _uniqueness_facts),
    3: ("T5 automorphism group", _t5_automorphisms),
    4: ("solver equals the naive filter", lambda seed, quick: _solver_battery(seed)[0]),
    5: ("mode monotonicity iot <= ios <= in", lambda seed, quick: _solver_battery(seed)[1]),
    6: ("gadget contracts (lemmas 3.1-4.5)", _gadget_contracts),
    7: ("3-edge-colouring reduction equivalence", _edge_colouring_reduction),
    8: ("C3 -> T5 reduction equivalence", _c3_lift_reduction),
    9: ("collapse reduction equivalence (TT5 -> TT4)", _collapse_reduction),
    10: ("poly decider agrees with the search solver", _poly_agreement),
    11: ("projection and lift round-trips", _round_trips),
}


def run_criterion(number: int, seed: int, quick: bool) -> CriterionResult:
    name, check = CRITERIA[number]
    start = time.perf_counter()
    try:
        passed, detail = check(seed, quick)
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"exception: {exc!r}"
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def run_all(quick: bool = False, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [run_criterion(number, seed, quick) for number in CRITERIA]
