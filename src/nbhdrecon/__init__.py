"""Reconstruction of labeled graphs from closed neighborhoods and convexity.

The package provides:

* bitmask graphs and vertex sets (:mod:`nbhdrecon.graphs`),
* set-family algebra with union closures and bases (:mod:`nbhdrecon.families`),
* digital convexity (:mod:`nbhdrecon.convexity`),
* exact reconstruction from three invariants (:mod:`nbhdrecon.reconstruct`),
* exhaustive collision mining and verification (:mod:`nbhdrecon.miner`),
* graph6/DOT/JSON serialization (:mod:`nbhdrecon.formats`).
"""

__version__ = "0.1.0"

from .errors import (
    FormatError,
    InputError,
    NbhdReconError,
    ResourceLimitError,
    UnrealizableFamilyError,
    UnsupportedSizeError,
    VerificationError,
)
from .graphs import (
    Graph,
    INFINITE_GIRTH,
    MAX_UNIVERSE,
    VertexSet,
    contains_induced_c4,
    girth,
    induced_subgraph,
    is_isomorphic,
)
from .families import (
    NeighborhoodMultiset,
    SetFamily,
    base_vertices,
    closed_support,
    cn_equal,
    cn_subset,
    neighborhood_multiset,
    spans,
    union_basis,
    union_closure,
)
from .convexity import (
    AxiomReport,
    ConvexityWitness,
    check_convexity_axioms,
    complement_family,
    convexity_witness,
    digital_convexity,
    is_digitally_convex,
)
from .reconstruct import (
    EquivalenceClasses,
    ReconstructionResult,
    equivalence_classes,
    from_digital_convexity,
    from_multiset,
    from_support,
    quotient_family,
    realizes,
)
from .miner import (
    CollisionGroup,
    PairChecks,
    PermutationWitness,
    CollisionAuditReport,
    check_collision_pair,
    find_collisions,
    verify_collisions,
    witness_permutation,
)
from .formats import (
    family_from_json_dict,
    family_to_json_dict,
    from_graph6,
    graph_from_json_dict,
    graph_to_json_dict,
    multiset_from_json_dict,
    multiset_to_json_dict,
    to_dot,
    to_graph6,
)

__all__ = [name for name in dir() if not name.startswith("_")]
