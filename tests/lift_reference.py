"""The decide-based lift, kept as the reference `lift_colouring` is tested against.

It fixes what the source solution determines and searches the rest of the
instance with `decide`.  The t4 kinds fix both ports of every edge gadget at
the edge's colour.  The t5 and collapse kinds fix the source images and, in
every ring copy, the labels of `copy_colours`: for the t5 kinds the chain of
the ring lemma rotated to the builder's anchor, for the collapse kinds every
label at itself, and every x-vertex at the pivot.
"""
from injhom.reductions import EDGE_KINDS, is_proper_edge_colouring
from injhom.solver import decide, verify_colouring


def partial_fixing(ri, base) -> dict[int, int]:
    """The vertices the reference lift fixes, with their colours."""
    if ri.kind in EDGE_KINDS:
        if not is_proper_edge_colouring(ri.source, base):
            raise ValueError("base is not a proper {b,c,d} edge colouring")
        return {p: base[e] for e, ports in ri.ports.items() for p in ports}
    ok, why = verify_colouring(ri.source, ri.source_target, base, ri.mode)
    if not ok:
        raise ValueError(
            f"base is not a valid {ri.source_target.name} colouring of the source: {why}"
        )
    fixed = {vid: ri.embedding[base[u]] for u, vid in ri.inner.items()}
    for labels in (*ri.vertex_gadget.values(), *ri.star_gadget.values()):
        fixed.update((labels[lbl], c) for lbl, c in ri.copy_colours.items())
    fixed.update(dict.fromkeys(ri.x_vertices.values(), ri.pivot))
    return fixed


def reference_lift(ri, base, node_budget=None):
    """decide's result on the instance with `partial_fixing(ri, base)` fixed."""
    return decide(ri.graph, ri.target, ri.mode, fixed=partial_fixing(ri, base),
                  node_budget=node_budget)
