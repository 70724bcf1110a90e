"""Exact invariants of binomial edge ideals for whisker and corona graphs.

The package computes depth, regularity, and Krull dimension data for the
binomial edge ideal of small graphs and of graphs built by attaching
subgraphs to the vertices of a base graph.  Closed-form bounds are evaluated
by the formulas module; a lex Groebner engine plus a simplicial homology
oracle verify them exactly at desk scale.
"""

from .betti import BettiTable, betti_table, lcm_lattice, oracle_depth_reg, sr_dimension
from .constructions import (
    ClassMembership,
    GenCoronaSpec,
    class_membership,
    spec_from_json_dict,
    whisker,
    whisker_on_set,
)
from .decomposition import (
    Cutset,
    classify_cm,
    decompose_at_vertex,
    dimension,
    enumerate_cutsets,
    is_unmixed,
    minimal_primes,
)
from .errors import CapError, InputError, ParseError, UsageError
from .formulas import (
    BoundReport,
    depth_equality_gprime,
    depth_lower_bound_g2_binom,
    depth_lower_bound_g2_gen,
    depth_lower_bound_general,
    depth_upper_bound_kappa,
    dim_g2prime,
    reg_gapfree_whisker,
    reg_upper_bound_g1,
)
from .graphs import (
    Graph,
    enumerate_connected_graphs,
    from_edge_list,
    from_graph6,
    graph_from_name,
    to_graph6,
)
from .groebner import (
    MonomialIdealSF,
    buchberger_oracle,
    initial_ideal,
    reduced_groebner_basis,
)
from .invariants import (
    InvariantReport,
    hypergraph_induced_matching_bound,
    induced_matching_number,
    invariant_report,
    vertex_connectivity,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BoundReport",
    "CapError",
    "ClassMembership",
    "Cutset",
    "GenCoronaSpec",
    "Graph",
    "InputError",
    "InvariantReport",
    "MonomialIdealSF",
    "ParseError",
    "UsageError",
    "betti_table",
    "buchberger_oracle",
    "class_membership",
    "classify_cm",
    "decompose_at_vertex",
    "depth_equality_gprime",
    "depth_lower_bound_g2_binom",
    "depth_lower_bound_g2_gen",
    "depth_lower_bound_general",
    "depth_upper_bound_kappa",
    "dim_g2prime",
    "dimension",
    "enumerate_connected_graphs",
    "enumerate_cutsets",
    "from_edge_list",
    "from_graph6",
    "graph_from_name",
    "hypergraph_induced_matching_bound",
    "induced_matching_number",
    "initial_ideal",
    "invariant_report",
    "is_unmixed",
    "lcm_lattice",
    "minimal_primes",
    "oracle_depth_reg",
    "reduced_groebner_basis",
    "reg_gapfree_whisker",
    "reg_upper_bound_g1",
    "spec_from_json_dict",
    "sr_dimension",
    "to_graph6",
    "vertex_connectivity",
    "whisker",
    "whisker_on_set",
]
