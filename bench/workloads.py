"""The three workloads as seeded streams of checked operations.

An operation is one closed-loop request.  Only `call` is timed; `check`
compares its answer with an independent oracle afterwards and returns None,
or a description of what is wrong.  Oracle answers are computed, and planted
solutions checked, while the stream generates an operation, which is also
outside the timed region.
"""
from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import injhom
from injhom import MODES, Mode, naive_witnesses, verify_colouring
from injhom.reductions import is_proper_edge_colouring, three_edge_colouring_oracle
from injhom.solver import SAT, UNSAT

import gen


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _api(name: str, *args):
    """Call injhom.<name>(*args), looked up when the operation runs so a tracer sees it."""
    return lambda: getattr(injhom, name)(*args)


# ---------------------------------------------------------------------------
# small-batch: thousands of tiny calls, as in acceptance criteria 4-6
# ---------------------------------------------------------------------------

SEARCH_TARGETS = ("C3", "TT3", "T4", "T5")
POLY_TARGETS = ("TT1", "TT2")
# reports each lemma's composition check yields: 25, plus one per asset makes 31
LEMMA_REPORTS = {"3.1": 1, "3.2": 9, "3.4": 2, "4.1": 1, "4.2": 1, "4.3": 9, "4.5": 2}
# one random 5-6 vertex graph after every 59 exhaustive ones: the battery's 200 in 11 895
EXHAUSTIVE_PER_RANDOM = 59


def small_batch(rng: random.Random, gadgets, targets) -> Iterator[Op]:
    for lemma, count in LEMMA_REPORTS.items():
        yield Op(f"lemma {lemma}", _api("lemma_reports", lemma), _reports_pass(count))
    for name, spec in gadgets.items():
        yield Op(f"gadget {name}", _api("verify_gadget", spec), _reports_pass(None))
    auts = {name: _automorphisms(targets[name].graph) for name in SEARCH_TARGETS}
    population = [(n, k) for n in range(5) for k in range(gen.oriented_graph_count(n))]
    rng.shuffle(population)
    for i, (n, k) in enumerate(population):
        yield from _graph_ops(gen.oriented_graph(n, k), targets, auts)
        if i % EXHAUSTIVE_PER_RANDOM == EXHAUSTIVE_PER_RANDOM - 1:
            g = gen.random_oriented_graph(rng, rng.choice((5, 6)))
            yield from _graph_ops(g, targets, auts)
    # a program fast enough to finish the population goes on with random
    # graphs, rather than repeat instances
    while True:
        yield from _graph_ops(gen.random_oriented_graph(rng, rng.choice((5, 6))), targets, auts)


def _graph_ops(g, targets, auts) -> Iterator[Op]:
    for name in SEARCH_TARGETS:
        t = targets[name]
        for mode in MODES:
            ref = naive_witnesses(g, t, mode)
            yield Op("decide", _api("decide", g, t, mode), _decide_check(ref))
            yield Op("enumerate", _api("enumerate_colourings", g, t, mode),
                     _enumerate_check(ref))
            yield Op("enumerate_mod_aut", _api("enumerate_mod_aut", g, t, mode),
                     _enumerate_check(_orbit_representatives(ref, auts[name])))
    for name in POLY_TARGETS:
        t = targets[name]
        for mode in MODES:
            ref = naive_witnesses(g, t, mode)
            yield Op("poly", _api("decide_small_target", g, t, mode), _decide_check(ref))


def _automorphisms(tg) -> list[tuple[int, ...]]:
    """Every arc-preserving permutation of a small target, by brute force."""
    return [p for p in itertools.permutations(range(tg.n))
            if all((p[u], p[v]) in tg.arcs for u, v in tg.arcs)]


def _orbit_representatives(witnesses, auts) -> list[tuple[int, ...]]:
    return sorted({min(tuple(p[c] for c in w) for p in auts) for w in witnesses})


def _decide_check(ref):
    valid = set(ref)

    def check(res):
        if res.status not in (SAT, UNSAT):
            return f"status {res.status}"
        if res.sat != bool(valid):
            return f"answered {res.status}; the naive filter finds {len(valid)} colourings"
        if res.sat and res.witnesses[0] not in valid:
            return f"witness {res.witnesses[0]} is not a valid colouring"
        return None

    return check


def _enumerate_check(ref):
    def check(res):
        if not res.complete or res.status != (SAT if ref else UNSAT):
            return f"status {res.status}, complete={res.complete}"
        if res.witnesses != ref:
            return f"{len(res.witnesses)} witnesses; the naive filter gives {len(ref)}"
        if res.orbits is not None and res.orbits != len(ref):
            return f"{res.orbits} orbits reported for {len(ref)} representatives"
        return None

    return check


def _reports_pass(count):
    def check(out):
        reports = out if isinstance(out, list) else [out]
        if count is not None and len(reports) != count:
            return f"{len(reports)} reports, expected {count}"
        failed = [r.subject for r in reports if not r.passed]
        return f"contracts failed: {failed}" if failed else None

    return check


# ---------------------------------------------------------------------------
# hard-decide: build and decide reduction instances from random sources
# ---------------------------------------------------------------------------

# Source sizes per builder; each round builds one instance per size.  Larger
# sources (t4 from 5-6 vertices, iot-t5 from 4, ios-t5 from 3) give single
# instances that search for seconds to minutes, which a run of 20 seconds
# cannot average.
HARD_LADDER = (
    ("build_ios_t4", (2, 3, 4)),
    ("build_iot_t4", (2, 3, 4)),
    ("build_ios_t5", (1, 2)),
    ("build_iot_t5", (1, 2, 3)),
    ("build_ios_collapse", (1, 2, 3, 4, 5)),
    ("build_iot_collapse", (1, 2, 3, 4, 5)),
)
# decide gives up after this many search nodes and reports budget_exhausted,
# which counts as a failed operation, so a heavy-tail instance the size caps
# miss shows in `failed` instead of stalling the closed loop
HARD_NODE_BUDGET = 200_000
# TT5's source vertex with its out-neighbourhood, and its sink with its in-neighbourhood;
# both collapse TT5 to TT4
PIVOTS = ((0, "out"), (4, "in"))


def _mode_of(build: str) -> Mode:
    return Mode.IOS if "_ios_" in build else Mode.IOT


def hard_decide(rng: random.Random, gadgets, targets) -> Iterator[Op]:
    c3, tt4, tt5 = targets["C3"], targets["TT4"], targets["TT5"]
    for rnd in itertools.count():
        ops = []
        for build, sizes in HARD_LADDER:
            mode = _mode_of(build)
            for n in sizes:
                if build.endswith("t4"):
                    src = gen.random_subcubic(rng, n)
                    args = (src,)
                    expect = three_edge_colouring_oracle(src) is not None
                elif build.endswith("t5"):
                    src = gen.random_oriented_graph(rng, n)
                    args = (src,)
                    expect = bool(naive_witnesses(src, c3, mode))
                else:
                    src = gen.random_oriented_graph(rng, n)
                    args = (src, tt5, *PIVOTS[(rnd + n) % 2])
                    expect = bool(naive_witnesses(src, tt4, mode))
                ops.append(Op(build[6:], _build_and_decide(build, args), _hard_check(expect)))
        rng.shuffle(ops)
        yield from ops


def _build_and_decide(build: str, args):
    def call():
        ri = getattr(injhom, build)(*args)
        return ri, injhom.decide(ri.graph, ri.target, ri.mode, node_budget=HARD_NODE_BUDGET)

    return call


def _hard_check(expect: bool):
    def check(out):
        ri, res = out
        if res.status not in (SAT, UNSAT):
            return f"status {res.status}"
        if res.sat != expect:
            return f"answered {res.status}; the source oracle says sat={expect}"
        if res.sat:
            ok, why = verify_colouring(ri.graph, ri.target, res.witnesses[0], ri.mode)
            if not ok:
                return f"invalid witness: {why}"
        return None

    return check


# ---------------------------------------------------------------------------
# large-lift: round trips and 2-colour decisions at 10^3-10^4 vertices
# ---------------------------------------------------------------------------

# Instance vertices per source vertex, from the gadget sizes: Hx 32 + 1.5 He 10
# - 3 merged ports; Fx 7 + 1.5 Fe 10 - 3; 1 + Dv 10; 1 + T5 copy 5 + x vertex;
# 1 + T copy 5 + T* copy 5.
ROUND_TRIPS = {
    "build_ios_t4": 44,
    "build_iot_t4": 19,
    "build_iot_t5": 11,
    "build_ios_collapse": 7,
    "build_iot_collapse": 11,
}
# Round-trip instance sizes span 1000-1300 vertices.  decide's cost grows
# about quadratically with size here, so larger instances would leave too
# few operations in a run.
ROUND_TRIP_MIN, ROUND_TRIP_SPAN = 1000, 300
# Per mode, six slots of satisfiable 2-colour decisions log-spaced across
# 10^3..10^4 vertices, and one slot of an overloaded graph of that range
POLY_SLOTS = 6
SLOTS = len(ROUND_TRIPS) + len(MODES) * (POLY_SLOTS + 1)
GOLDEN = 0.6180339887498949


def large_lift(rng: random.Random, gadgets, targets) -> Iterator[Op]:
    """Operation k takes its kind and size from x = frac(k * golden ratio).

    x picks one of SLOTS kinds and, within it, a size.  Every prefix of the
    stream then holds each kind and size range in nearly its share, so a run
    cut off after any number of operations has the same cost mix, and its
    latency quantiles do not depend on where the cut falls.  Sizes do not
    depend on the seed; the seed draws the graphs.
    """
    c3, tt2, tt4, tt5 = targets["C3"], targets["TT2"], targets["TT4"], targets["TT5"]
    builds = list(ROUND_TRIPS.items())
    for k in itertools.count():
        slot, y = divmod(k * GOLDEN % 1 * SLOTS, 1)
        slot = int(slot)
        if slot < len(builds):
            build, per_vertex = builds[slot]
            yield _round_trip_op(rng, build, round(ROUND_TRIP_MIN + ROUND_TRIP_SPAN * y)
                                 // per_vertex, PIVOTS[k % 2], c3, tt4, tt5)
            continue
        mode_slot, poly_slot = divmod(slot - len(builds), POLY_SLOTS + 1)
        mode = MODES[mode_slot]
        if poly_slot < POLY_SLOTS:
            n = round(10 ** (3 + (poly_slot + y) / POLY_SLOTS))
            g, col = gen.planted_oriented(rng, n, tt2, mode, n)
            _require_valid(g, tt2, col, mode)
            yield Op("poly", _api("decide_small_target", g, tt2, mode),
                     _poly_check(g, tt2, mode, True))
        else:
            n = round(10 ** (3 + y))
            g = gen.overloaded(rng, gen.planted_oriented(rng, n, tt2, mode, n)[0])
            # three in-neighbours of one vertex cannot take distinct colours out of two
            if max(len(g.in_set(v)) for v in range(g.n)) <= tt2.graph.n:
                raise RuntimeError("overloaded graph has no overfull in-neighbourhood")
            yield Op("poly", _api("decide_small_target", g, tt2, mode),
                     _poly_check(g, tt2, mode, False))


def _round_trip_op(rng, build: str, n: int, pivot, c3, tt4, tt5) -> Op:
    if build.endswith("t4"):
        src, base = gen.planted_cubic(rng, n - n % 2)
        if not is_proper_edge_colouring(src, base):
            raise RuntimeError("planted edge colouring is not proper")
        args, extract = (src,), "extract_edge_colouring"
    else:
        mode = _mode_of(build)
        target = c3 if build.endswith("t5") else tt4
        src, col = gen.planted_oriented(rng, n, target, mode, 2 * n)
        _require_valid(src, target, col, mode)
        base = dict(enumerate(col))
        args = (src,) if build.endswith("t5") else (src, tt5, *pivot)
        extract = "extract_inner_colouring"
    return Op(f"roundtrip {build[6:]}", _round_trip(build, args, extract, base),
              _round_trip_check(base))


def _require_valid(g, t, colouring, mode) -> None:
    ok, why = verify_colouring(g, t, colouring, mode)
    if not ok:
        raise RuntimeError(f"planted colouring is invalid: {why}")


def _round_trip(build: str, args, extract: str, base):
    """Build, serialize and parse back (reduce, then solve --input), lift, project."""
    def call():
        ri = getattr(injhom, build)(*args)
        parsed = injhom.parse_graph(injhom.serialize_graph(ri.graph))
        from_file = dataclasses.replace(ri, graph=parsed)
        lifted = injhom.lift_colouring(from_file, base)
        return ri, parsed, lifted, getattr(injhom, extract)(from_file, lifted)

    return call


def _round_trip_check(base):
    def check(out):
        ri, parsed, lifted, projected = out
        if parsed != ri.graph:
            return "parsed graph differs from the built one"
        ok, why = verify_colouring(ri.graph, ri.target, lifted, ri.mode)
        if not ok:
            return f"lifted colouring is invalid: {why}"
        if projected != base:
            return "extract(lift(base)) differs from base"
        return None

    return check


def _poly_check(g, t, mode, expect: bool):
    def check(res):
        if res.sat != expect:
            return f"answered {res.status}, expected sat={expect}"
        if res.sat:
            ok, why = verify_colouring(g, t, res.witnesses[0], mode)
            if not ok:
                return f"invalid witness: {why}"
        return None

    return check


WORKLOADS = {
    "small-batch": small_batch,
    "hard-decide": hard_decide,
    "large-lift": large_lift,
}
