"""Neighbor-locating colorings of pseudotrees.

A k-coloring is neighbor-locating when same-colored vertices always see
different color sets on their neighborhoods.  This package builds minimum
such colorings for paths, cycles, fans, wheels, combs and the extremal
unicyclic/caterpillar instances, verifies certificates, evaluates every
closed-form bound, and cross-checks it all against an exact search oracle.

Importing the package loads none of its modules.  Each public name below,
and each module (``nlcoloring.solver`` and so on), is imported on first
use (PEP 562), so an ``nlc`` process loads only what its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("a1", "a2", "bounds_report", "chi_lower_bound", "class_order_bound",
                     "ell", "max_order", "tree_max_degree"), "bounds"),
    **dict.fromkeys(("Coloring", "NLVerdict", "color_degree", "is_nl_coloring",
                     "neighbor_signature"), "coloring"),
    **dict.fromkeys(("ColoredGraph", "ConstructionError", "base_small_coloring",
                     "caterpillar_extremal", "comb_coloring", "cone_coloring",
                     "cycle_coloring", "extremal_audit", "generic_tree_coloring",
                     "is_1_paired", "one_paired_cycle_coloring", "path_coloring",
                     "unicyclic_extremal"), "construct"),
    **dict.fromkeys(("FamilySpec", "chi_closed_form", "family_graph"), "families"),
    **dict.fromkeys(("DegreeStats", "Graph", "GraphError", "classify", "degree_stats",
                     "diameter", "distances", "is_tree", "twin_classes"), "graphs"),
    **dict.fromkeys(("SolveResult", "chi_nl_exact", "exists_nl_coloring"), "solver"),
    **dict.fromkeys(("conjecture_sweep", "connected_graphs", "enumerate_trees"), "sweeps"),
}
_MODULES = ("bounds", "cli", "coloring", "construct", "families", "formats", "graphs", "solver",
            "sweeps")

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
