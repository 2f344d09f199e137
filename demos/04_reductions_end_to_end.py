"""Running the hardness reductions forwards and backwards at desk scale.

Three families are exercised:

  1. subcubic 3-edge-colouring  ->  ios/iot T4-colouring (vertex and edge
     gadgets glued square-to-port);
  2. C3-colourability           ->  T5-colouring (rings of chain gadgets);
  3. collapse: TT4-colourability -> TT5-colourability (rings of irreflexive
     target copies around a high-degree pivot).

For each, the source instance is solved independently, the reduction output
is solved by the homomorphism solver, and the answers must agree; solutions
are projected back and forth to show the bookkeeping is faithful.
"""
import itertools

from injhom import (
    Mode,
    OrientedGraph,
    UndirectedGraph,
    build_ios_collapse,
    build_ios_t4,
    build_ios_t5,
    decide,
    extract_edge_colouring,
    extract_inner_colouring,
    lift_colouring,
    named_target,
    three_edge_colouring_oracle,
    verify_colouring,
)

print("=== 3-edge-colouring -> ios T4 ===")
k4 = UndirectedGraph(4, list(itertools.combinations(range(4), 2)))
base = three_edge_colouring_oracle(k4)
print(f"  K4 is 3-edge-colourable: {base is not None}")
ri = build_ios_t4(k4)
print(f"  instance: {len(ri.vertex_gadget)} Hx + {len(ri.edge_gadget)} He = "
      f"{ri.graph.n} vertices, {ri.graph.arc_count} arcs")
res = decide(ri.graph, ri.target, ri.mode)
print(f"  solver: {res.status} ({res.nodes} nodes)")
edges = extract_edge_colouring(ri, res.witnesses[0])
print("  projected edge colouring:",
      " ".join(f"{u}{v}:{'abcd'[c]}" for (u, v), c in sorted(edges.items())))
lifted = lift_colouring(ri, base)
print(f"  lifting the oracle colouring back: extract(lift) == oracle: "
      f"{extract_edge_colouring(ri, lifted) == base}")

bad = UndirectedGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
print(f"  subdivided K4 is 3-edge-colourable: {three_edge_colouring_oracle(bad) is not None}")
ri_bad = build_ios_t4(bad)
print(f"  its reduction instance: {decide(ri_bad.graph, ri_bad.target, ri_bad.mode).status}")

print()
print("=== C3-colourability -> ios T5 ===")
c3 = named_target("C3")
cycle = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
star = OrientedGraph(5, [(0, i) for i in range(1, 5)])
for g, label in ((cycle, "directed 3-cycle"), (star, "out-star with 4 leaves")):
    want = decide(g, c3, Mode.IOS).status
    ri = build_ios_t5(g)
    got = decide(ri.graph, ri.target, ri.mode).status
    print(f"  {label}: C3 says {want}, the {ri.graph.n}-vertex T5 instance says {got}")
ri = build_ios_t5(cycle)
w = decide(ri.graph, ri.target, ri.mode).witnesses[0]
inner = extract_inner_colouring(ri, w)
ok, _ = verify_colouring(cycle, c3, inner, Mode.IOS)
print(f"  witness restricted to the source is a valid C3-colouring: {ok}")

print()
print("=== collapse: TT5 with its source pivot ===")
tt5, tt4 = named_target("TT5"), named_target("TT4")
g = OrientedGraph(3, [(0, 1), (1, 2)])
ri = build_ios_collapse(g, tt5, 0, "out")
print(f"  collapsed target: {ri.source_target.name} "
      f"(isomorphic to TT4), instance has {ri.graph.n} vertices")
want = decide(g, tt4, Mode.IOS).status
got = decide(ri.graph, ri.target, ri.mode).status
print(f"  TT4 says {want}, the TT5 instance says {got}")
w = decide(ri.graph, ri.target, ri.mode).witnesses[0]
inner = extract_inner_colouring(ri, w)
ok, _ = verify_colouring(g, ri.source_target, inner, Mode.IOS)
print(f"  projected colouring valid for the collapsed target: {ok}")
