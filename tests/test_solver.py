"""Exact solver: decision procedure, exact values, determinism."""

from __future__ import annotations

import pytest

from nlcoloring import (
    FamilySpec,
    Graph,
    SolveOptions,
    chi_closed_form,
    chi_lower_bound,
    chi_nl_exact,
    enumerate_trees,
    exists_nl_coloring,
    family_graph,
    is_nl_coloring,
)
from nlcoloring.solver import CHECK_EVERY


def test_exists_examples():
    assert exists_nl_coloring(family_graph(FamilySpec.cycle(6)), 3)[0] is False
    feasible, witness = exists_nl_coloring(family_graph(FamilySpec.path(9)), 3)
    assert feasible and witness.k == 3
    assert is_nl_coloring(family_graph(FamilySpec.path(9)), witness).ok
    assert exists_nl_coloring(family_graph(FamilySpec.star(5)), 4)[0] is False
    with pytest.raises(ValueError):
        exists_nl_coloring(family_graph(FamilySpec.path(2)), 0)


def test_exists_raises_timeout_when_the_budget_runs_out():
    # refuting k = 4 on C23 takes over a million nodes, far past 0.01 s
    g = family_graph(FamilySpec.cycle(23))
    with pytest.raises(TimeoutError):
        exists_nl_coloring(g, 4, SolveOptions(time_budget=0.01))


def test_exact_examples():
    assert chi_nl_exact(family_graph(FamilySpec.cycle(8))).chi == 4
    assert chi_nl_exact(family_graph(FamilySpec.wheel(9))).chi == 5
    assert chi_nl_exact(family_graph(FamilySpec.double_star(1, 2))).chi == 3


def test_exact_result_invariants():
    g = family_graph(FamilySpec.cycle(10))
    result = chi_nl_exact(g)
    assert result.status == "Exact"
    assert result.witness.k == result.chi
    assert is_nl_coloring(g, result.witness).ok
    assert result.nodes_explored > 0
    assert chi_lower_bound(g) <= result.chi


def test_capped_out():
    g = family_graph(FamilySpec.star(6))  # value 6
    result = chi_nl_exact(g, SolveOptions(max_k=4))
    assert result.status == "CappedOut"
    assert result.chi is None and result.witness is None


def test_timed_out():
    g = family_graph(FamilySpec.cycle(40))
    result = chi_nl_exact(g, SolveOptions(time_budget=0.0))
    assert result.status == "TimedOut"
    assert result.chi is None


@pytest.mark.parametrize("options", [
    {"max_k": 0}, {"max_k": -3}, {"time_budget": float("nan")}, {"time_budget": -1.0},
], ids=["max-k-0", "max-k-negative", "budget-nan", "budget-negative"])
def test_options_out_of_range_are_rejected(options):
    # nan would never expire, a negative budget would time out at once, and
    # no graph can meet a cap below one color
    with pytest.raises(ValueError, match="max_k" if "max_k" in options else "budget"):
        SolveOptions(**options)


def test_cap_of_one_color_is_accepted():
    result = chi_nl_exact(family_graph(FamilySpec.path(2)), SolveOptions(max_k=1))
    assert result.status == "CappedOut"


def test_timed_out_inside_the_search():
    # time_budget=0.0 trips the check before the search starts; this one
    # trips the check that the search makes every CHECK_EVERY nodes
    g = family_graph(FamilySpec.cycle(23))
    result = chi_nl_exact(g, SolveOptions(time_budget=0.05))
    assert result.status == "TimedOut"
    assert result.chi is None
    assert result.nodes_explored >= CHECK_EVERY


@pytest.mark.parametrize("spec", [FamilySpec.path(1100), FamilySpec.cycle(1100)],
                         ids=["P1100", "C1100"])
def test_deep_instances_match_closed_form(spec):
    # past ell(13) = 1014 the closed forms need orders above 1000, so the
    # search depth must not be bounded by the interpreter's recursion limit
    result = chi_nl_exact(family_graph(spec))
    assert (result.chi, result.status) == (14, "Exact")
    assert result.chi == chi_closed_form(spec)


def test_sequential_witness_is_deterministic():
    g = family_graph(FamilySpec.cycle(12))
    first = chi_nl_exact(g)
    second = chi_nl_exact(g)
    assert first.witness == second.witness


# the exact benchmark workload's order-20 anchors, written out so the tests
# do not depend on bench/: bench/workloads.py makes them with
# random_tree(random.Random("anchor-tree:4"), 20, 4) and
# random_unicyclic(random.Random("anchor-unicyclic:1"), 20, 4)
ANCHOR_TREE_20 = Graph(20, [
    (0, 8), (0, 9), (0, 17), (1, 6), (1, 14), (2, 3), (2, 7), (2, 8), (3, 5),
    (3, 14), (4, 6), (5, 16), (6, 19), (9, 13), (10, 16), (11, 19), (12, 16),
    (15, 18), (18, 19)])
ANCHOR_UNICYCLIC_20 = Graph(20, [
    (0, 15), (0, 17), (1, 3), (1, 9), (1, 12), (1, 18), (2, 3), (2, 15),
    (3, 19), (4, 7), (4, 13), (5, 8), (5, 13), (5, 16), (5, 18), (6, 8),
    (6, 17), (10, 16), (11, 15), (14, 16)])


@pytest.mark.parametrize("g,chi,nodes,colors", [
    (family_graph(FamilySpec.cycle(23)), 5, 1_336_994,  # refutes k = 4 exhaustively
     [1, 2, 1, 3, 1, 4, 1, 2, 4, 2, 4, 3, 5, 2, 3, 2, 4, 1, 4, 3, 1, 3, 2]),
    (family_graph(FamilySpec.wheel(12)), 5, 251,
     [2, 3, 2, 3, 4, 2, 3, 5, 2, 4, 5, 1]),
    (ANCHOR_TREE_20, 4, 111,
     [1, 1, 3, 1, 3, 3, 2, 1, 2, 2, 1, 3, 2, 4, 4, 2, 4, 2, 3, 4]),
    (ANCHOR_UNICYCLIC_20, 4, 457,
     [3, 1, 1, 2, 4, 4, 3, 2, 1, 2, 1, 4, 3, 1, 2, 2, 3, 4, 2, 3]),
], ids=["C23", "W12", "anchor-tree-20", "anchor-unicyclic-20"])
def test_node_counts_are_pinned(g, chi, nodes, colors):
    # a change to the search order or the prunes shows here; lower the pin
    # when a change makes the search smaller.  The witnesses are pinned too,
    # so a change that claims the same search must give the same answers.
    first = chi_nl_exact(g)
    assert first.to_dict() == {
        "chi": chi, "status": "Exact", "nodesExplored": nodes,
        "certificate": {"n": g.n, "k": chi, "colors": colors},
    }
    assert chi_nl_exact(g).to_dict() == first.to_dict()


def test_node_total_over_small_trees_is_pinned():
    # witness search on every tree up to order 11, where the search order
    # decides how soon signatures close; lower the pin when it shrinks
    total = sum(chi_nl_exact(g).nodes_explored
                for n in range(1, 12) for g in enumerate_trees(n))
    assert total == 18_995


def test_universal_vertex_law_small():
    for spec in (FamilySpec.path(5), FamilySpec.cycle(6), FamilySpec.star(4)):
        g = family_graph(spec)
        cone = Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in range(g.n)])
        assert chi_nl_exact(cone).chi == chi_nl_exact(g).chi + 1


def test_solver_agrees_with_formula_on_families():
    cases = [FamilySpec.fan(n) for n in range(4, 9)]
    cases += [FamilySpec.wheel(n) for n in range(4, 9)]
    cases += [FamilySpec.star(n) for n in range(3, 9)]
    cases += [FamilySpec.double_star(r, s)  # all double stars of order <= 9
              for s in range(1, 7) for r in range(1, s + 1) if 5 <= r + s + 2 <= 9]
    for spec in cases:
        g = family_graph(spec)
        assert chi_nl_exact(g).chi == chi_closed_form(spec), spec.label()
