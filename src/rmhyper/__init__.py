"""High-girth hypergraphs with unavoidable monochromatic or rainbow edges.

Constructions (amalgamation-based and probabilistic) together with exact
desk-scale verifiers: Berge girth with cycle witnesses, exhaustive short
cycle counting, and a canonical-partition coloring solver.
"""

__version__ = "0.1.0"

from .coloring import (
    Coloring,
    EdgeClass,
    Verdict,
    VerdictStatus,
    classify_edge,
    coloring_is_good,
    find_good_coloring,
    find_part_rainbow_bad,
)
from .core import (
    Hypergraph,
    HypergraphError,
    PartiteHypergraph,
    complete_hypergraph,
)
from .construct import (
    BuildLimits,
    SizeEstimate,
    SizeLimitError,
    SupplierError,
    amalgamate,
    attach_edge_markers,
    build_part_rainbow_forced,
    build_rm_unavoidable,
    complete_partite_factor,
    estimate_h_size,
    estimate_pr_size,
    supply_min_degree_girth,
)
from .girth import (
    CycleWitness,
    EnumerationBudgetError,
    Girth,
    GirthResult,
    count_cycles,
    cycle_count_bound_check,
    girth,
    girth_at_least,
)

# The probabilistic module loads on first use, so that the deterministic
# builders can be imported without it.
_RANDGEN = (
    "CarrierSample",
    "SearchOutcome",
    "ThresholdResult",
    "counting_inequality_holds",
    "counting_threshold",
    "random_high_girth",
    "random_search_unavoidable",
    "sample_subedges",
)


def __getattr__(name: str):
    if name in _RANDGEN:
        from . import randgen

        return getattr(randgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "BuildLimits",
    "CarrierSample",
    "Coloring",
    "CycleWitness",
    "EdgeClass",
    "EnumerationBudgetError",
    "Girth",
    "GirthResult",
    "Hypergraph",
    "HypergraphError",
    "PartiteHypergraph",
    "SearchOutcome",
    "SizeEstimate",
    "SizeLimitError",
    "SupplierError",
    "ThresholdResult",
    "Verdict",
    "VerdictStatus",
    "amalgamate",
    "attach_edge_markers",
    "build_part_rainbow_forced",
    "build_rm_unavoidable",
    "classify_edge",
    "coloring_is_good",
    "complete_hypergraph",
    "complete_partite_factor",
    "count_cycles",
    "counting_inequality_holds",
    "counting_threshold",
    "cycle_count_bound_check",
    "estimate_h_size",
    "estimate_pr_size",
    "find_good_coloring",
    "find_part_rainbow_bad",
    "girth",
    "girth_at_least",
    "random_high_girth",
    "random_search_unavoidable",
    "sample_subedges",
    "supply_min_degree_girth",
]
