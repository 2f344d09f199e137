"""Command-line surface: solve, reduce, verify-gadget, catalog, oracle, selfcheck.

Exit codes: 0 success / positive decision, 1 well-formed negative answer
(Unsat, a failed contract, a failed criterion), 2 errors.  Every command is a
thin wrapper over the library modules.
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import acceptance
from .catalog import (
    Target,
    automorphisms,
    colour_letter,
    degree_profile,
    enumerate_reflexive_tournaments,
    is_vertex_transitive,
    named_target,
    parse_colour,
)
from .digraph import Mode, is_strongly_connected, parse_graph, serialize_graph
from .errors import InjhomError
from .gadgets import ALL_LEMMAS, ASSET_NAMES, lemma_reports, load_gadget, verify_gadget
from .poly import decide_small_target
from .reductions import (
    build_ios_collapse,
    build_ios_t4,
    build_iot_collapse,
    build_iot_t4,
    build_ios_t5,
    build_iot_t5,
    parse_undirected,
    three_edge_colouring_oracle,
)
from .solver import decide, enumerate_colourings, enumerate_mod_aut

_NAMED = re.compile(r"C3|T4|T5|TT\d+")


def _load_target(spec: str) -> Target:
    if _NAMED.fullmatch(spec):
        return named_target(spec)
    return Target(parse_graph(Path(spec).read_text()), name=Path(spec).stem)


def _witness_line(witness) -> str:
    return " ".join(f"{v}={colour_letter(c)}" for v, c in enumerate(witness))


def cmd_solve(args) -> int:
    if args.mod_aut and args.enumerate is None:
        raise InjhomError("--mod-aut needs --enumerate")
    g = parse_graph(Path(args.input).read_text())
    target = _load_target(args.target)
    mode = Mode.parse(args.mode)
    fixed = {}
    for item in args.fixed or ():
        v, _, c = item.partition("=")
        fixed[int(v)] = parse_colour(c, target.graph.n)

    if args.enumerate is not None:
        limit = None if args.enumerate == "all" else int(args.enumerate)
        fn = enumerate_mod_aut if args.mod_aut else enumerate_colourings
        res = fn(g, target, mode, fixed=fixed, limit=limit, node_budget=args.budget)
    elif not fixed and target.graph.n <= 2 and target.reflexive and target.is_tournament:
        res = decide_small_target(g, target, mode)
    else:
        res = decide(g, target, mode, fixed=fixed, node_budget=args.budget)

    if res.status == "budget_exhausted":
        print("BudgetExhausted")
        return 2
    if not res.sat:
        print("Unsat")
        return 1
    print(f"Sat ({len(res.witnesses)} witness{'es' if len(res.witnesses) != 1 else ''}"
          + (f", {res.orbits} orbits" if res.orbits is not None else "") + ")")
    for w in res.witnesses:
        print(_witness_line(w))
    return 0


def _no_args(args) -> tuple:
    return ()


def _collapse_args(args) -> tuple:
    if args.target is None or args.pivot is None:
        raise InjhomError("collapse kinds need --target and --pivot")
    target = _load_target(args.target)
    return target, parse_colour(args.pivot, target.graph.n), args.direction


def _gadget_counts(vertex: str, edge: str):
    return lambda ri: f"{len(ri.vertex_gadget)} {vertex}, {len(ri.edge_gadget)} {edge}"


def _ring_copies(gadget: str):
    return lambda ri: f"{len(ri.vertex_gadget)} {gadget} copies" + (
        f" ({ri.padded} padded)" if ri.padded else ""
    )


def _collapse_ring(ri) -> str:
    return (f"ring of {len(ri.vertex_gadget)}, pivot {colour_letter(ri.pivot)} "
            f"({ri.direction}), collapsed target {ri.source_target.name}")


# kind -> (source parser, builder, the builder's arguments after the source,
# summary line of the built instance)
REDUCE_KINDS = {
    "ios-t4": (parse_undirected, build_ios_t4, _no_args, _gadget_counts("Hx", "He")),
    "iot-t4": (parse_undirected, build_iot_t4, _no_args, _gadget_counts("Fx", "Fe")),
    "ios-t5": (parse_graph, build_ios_t5, _no_args, _ring_copies("Jv")),
    "iot-t5": (parse_graph, build_iot_t5, _no_args, _ring_copies("Dv")),
    "collapse-ios": (parse_graph, build_ios_collapse, _collapse_args, _collapse_ring),
    "collapse-iot": (parse_graph, build_iot_collapse, _collapse_args, _collapse_ring),
}


def cmd_reduce(args) -> int:
    parse, build, build_args, summary = REDUCE_KINDS[args.kind]
    extra = build_args(args)
    ri = build(parse(Path(args.input).read_text()), *extra)
    out = Path(args.output)
    out.write_text(serialize_graph(ri.graph, header=f"reduction {ri.kind}") + "\n")
    out.with_suffix(out.suffix + ".map").write_text("\n".join(ri.map_lines()) + "\n")
    print(f"{ri.kind}: {summary(ri)}")
    print(f"instance: {ri.graph.n} vertices, {ri.graph.arc_count} arcs -> {out}")
    return 0


def cmd_verify_gadget(args) -> int:
    reports = []
    if args.all:
        for lemma in ALL_LEMMAS:
            reports.extend(lemma_reports(lemma))
        for name in ASSET_NAMES:
            reports.append(verify_gadget(load_gadget(name)))
    elif args.lemma:
        reports.extend(lemma_reports(args.lemma))
    elif args.gadget:
        reports.append(verify_gadget(load_gadget(args.gadget)))
    else:
        raise InjhomError("need --gadget NAME, --lemma ID or --all")
    ok = True
    for report in reports:
        for line in report.lines():
            print(line)
        ok = ok and report.passed
    print("all contracts pass" if ok else "CONTRACT FAILURES")
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    if args.list:
        m = re.fullmatch(r"n=(\d+)", args.list)
        if not m:
            raise InjhomError("--list expects n=<count>")
        n = int(m.group(1))
        targets = enumerate_reflexive_tournaments(n)
        print(f"{len(targets)} reflexive tournaments on {n} vertices")
        for i, t in enumerate(targets):
            strict = sorted((u, v) for u, v in t.graph.arcs if u != v)
            arcs = " ".join(f"{colour_letter(u)}{colour_letter(v)}" for u, v in strict)
            print(f"{i}: {arcs}")
        return 0
    name = args.show or args.aut
    t = named_target(name)
    if args.show:
        strict = sorted((u, v) for u, v in t.graph.arcs if u != v)
        print(f"{t.name}: {t.graph.n} vertices, reflexive tournament")
        print("strict arcs: " + " ".join(
            f"{colour_letter(u)}{colour_letter(v)}" for u, v in strict))
        prof = degree_profile(t)
        degs = " ".join(
            f"{colour_letter(v)}:({prof.in_degrees[v]},{prof.out_degrees[v]})"
            for v in range(t.graph.n)
        )
        print(f"degrees in/out (loops counted): {degs}")
        print(f"strongly connected: {str(is_strongly_connected(t.graph)).lower()}")
        print(f"vertex-transitive: {str(is_vertex_transitive(t)).lower()}")
        return 0
    auts = automorphisms(t)
    print(f"{len(auts)} automorphisms of {t.name}")
    for pi in auts:
        print(" ".join(f"{colour_letter(v)}->{colour_letter(pi[v])}" for v in range(t.graph.n)))
    return 0


def cmd_oracle(args) -> int:
    g = parse_undirected(Path(args.input).read_text())
    colouring = three_edge_colouring_oracle(g)
    if colouring is None:
        print("Unsat")
        return 1
    print("Sat")
    for (u, v), c in sorted(colouring.items()):
        print(f"{u} {v} {colour_letter(c)}")
    return 0


def cmd_selfcheck(args) -> int:
    results = acceptance.run_all(quick=args.quick, seed=args.seed)
    for r in results:
        print(r.line())
    if all(r.passed for r in results):
        print("selfcheck: all criteria pass")
        return 0
    failed = ", ".join(str(r.number) for r in results if not r.passed)
    print(f"selfcheck: FAILED criteria {failed}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="injhom",
        description="locally-injective homomorphisms to reflexive tournaments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="decide or enumerate colourings")
    s.add_argument("--input", required=True)
    s.add_argument("--target", required=True, help="C3, TTn, T4, T5 or a graph file")
    s.add_argument("--mode", required=True, choices=["in", "ios", "iot"])
    s.add_argument("--enumerate", metavar="N", help="enumerate N witnesses, or 'all'")
    s.add_argument("--mod-aut", action="store_true",
                   help="one witness per target-automorphism orbit")
    s.add_argument("--fixed", action="append", metavar="V=C",
                   help="pre-colour vertex V with colour C (repeatable)")
    s.add_argument("--budget", type=int, help="search node budget")
    s.set_defaults(fn=cmd_solve)

    r = sub.add_parser("reduce", help="build a reduction instance")
    r.add_argument("--kind", required=True, choices=list(REDUCE_KINDS))
    r.add_argument("--input", required=True)
    r.add_argument("--output", required=True)
    r.add_argument("--target", help="collapse kinds: the large target")
    r.add_argument("--pivot", help="collapse kinds: pivot vertex (letter or id)")
    r.add_argument("--direction", choices=["out", "in"], default="out")
    r.set_defaults(fn=cmd_reduce)

    v = sub.add_parser("verify-gadget", help="check gadget contracts")
    v.add_argument("--gadget", help="asset name, e.g. Hx")
    v.add_argument("--lemma", help="lemma id: " + ", ".join(ALL_LEMMAS))
    v.add_argument("--all", action="store_true", help="every lemma and asset")
    v.set_defaults(fn=cmd_verify_gadget)

    c = sub.add_parser("catalog", help="named targets and enumeration")
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", metavar="n=K", help="enumerate reflexive tournaments")
    group.add_argument("--show", metavar="NAME", help="print a named target")
    group.add_argument("--aut", metavar="NAME", help="print the automorphism group")
    c.set_defaults(fn=cmd_catalog)

    o = sub.add_parser("oracle", help="3-edge-colour a subcubic graph")
    o.add_argument("--input", required=True)
    o.set_defaults(fn=cmd_oracle)

    k = sub.add_parser("selfcheck", help="run the acceptance criteria")
    k.add_argument("--quick", action="store_true", help="skip Petersen-scale cases")
    k.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    k.set_defaults(fn=cmd_selfcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InjhomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
