"""Neighbor-locating colorings of pseudotrees.

A k-coloring is neighbor-locating when same-colored vertices always see
different color sets on their neighborhoods.  This package builds minimum
such colorings for paths, cycles, fans, wheels, combs and the extremal
unicyclic/caterpillar instances, verifies certificates, evaluates every
closed-form bound, and cross-checks it all against an exact search oracle.
"""

from .bounds import (
    BoundsReport,
    a1,
    a2,
    bounds_report,
    chi_closed_form,
    chi_lower_bound,
    class_order_bound,
    ell,
    max_order,
    tree_max_degree,
)
from .coloring import (
    Coloring,
    NLVerdict,
    color_degree,
    extremal_audit,
    is_1_paired,
    is_nl_coloring,
    neighbor_signature,
)
from .construct import (
    ColoredGraph,
    ConstructionError,
    base_small_coloring,
    caterpillar_extremal,
    comb_coloring,
    cone_coloring,
    cycle_coloring,
    generic_tree_coloring,
    one_paired_cycle_coloring,
    path_coloring,
    unicyclic_extremal,
)
from .graphs import (
    DegreeStats,
    FamilySpec,
    Graph,
    GraphError,
    classify,
    degree_stats,
    diameter,
    distances,
    family_graph,
    is_tree,
    twin_classes,
)
from .solver import SolveOptions, SolveResult, chi_nl_exact, exists_nl_coloring
from .sweeps import conjecture_sweep, connected_graphs, enumerate_trees

__version__ = "0.1.0"
