"""Locally-injective homomorphisms of oriented graphs to reflexive tournaments.

Decide and enumerate in-, ios- and iot-injective homomorphisms, enumerate
reflexive tournaments with their automorphism groups, verify the forced-
colouring gadget lemmas by exhaustive enumeration, and build the hardness
reductions mechanically so their equivalences can be tested end to end.
"""

from .catalog import (
    DegreeProfile,
    Target,
    automorphisms,
    canonical_form,
    degree_profile,
    enumerate_reflexive_tournaments,
    is_vertex_transitive,
    named_target,
    serialize_target,
)
from .digraph import (
    Mode,
    MODES,
    OrientedGraph,
    induced_subgraph,
    is_strongly_connected,
    parse_graph,
    serialize_graph,
)
from .gadgets import (
    Contract,
    GadgetSpec,
    compose,
    lemma_reports,
    load_gadget,
    verify_contract,
    verify_gadget,
)
from .naive import naive_witnesses
from .poly import decide_small_target
from .reductions import (
    ReductionInstance,
    UndirectedGraph,
    build_ios_collapse,
    build_ios_t4,
    build_ios_t5,
    build_iot_collapse,
    build_iot_t4,
    build_iot_t5,
    collapse_target,
    extract_edge_colouring,
    extract_inner_colouring,
    lift_colouring,
    three_edge_colouring_oracle,
)
from .solver import (
    SolveResult,
    decide,
    enumerate_colourings,
    enumerate_mod_aut,
    verify_colouring,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
