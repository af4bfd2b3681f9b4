"""Exact solver: decision procedure, exact values, determinism."""

from __future__ import annotations

import pytest

from nlcoloring import (
    FamilySpec,
    SolveOptions,
    chi_closed_form,
    chi_lower_bound,
    chi_nl_exact,
    exists_nl_coloring,
    family_graph,
    is_nl_coloring,
)


def test_exists_examples():
    assert exists_nl_coloring(family_graph(FamilySpec.cycle(6)), 3)[0] is False
    feasible, witness = exists_nl_coloring(family_graph(FamilySpec.path(9)), 3)
    assert feasible and witness.k == 3
    assert is_nl_coloring(family_graph(FamilySpec.path(9)), witness).ok
    assert exists_nl_coloring(family_graph(FamilySpec.star(5)), 4)[0] is False
    with pytest.raises(ValueError):
        exists_nl_coloring(family_graph(FamilySpec.path(2)), 0)


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


def test_symmetry_breaking_changes_nodes_not_chi():
    for spec in (FamilySpec.cycle(8), FamilySpec.path(7), FamilySpec.star(5)):
        g = family_graph(spec)
        on = chi_nl_exact(g, SolveOptions(symmetry_breaking=True))
        off = chi_nl_exact(g, SolveOptions(symmetry_breaking=False))
        assert on.chi == off.chi


def test_sequential_witness_is_deterministic():
    g = family_graph(FamilySpec.cycle(12))
    first = chi_nl_exact(g)
    second = chi_nl_exact(g)
    assert first.witness == second.witness


@pytest.mark.parametrize("spec,chi,nodes", [
    (FamilySpec.cycle(23), 5, 1_337_045),  # refutes k = 4 exhaustively
    (FamilySpec.wheel(12), 5, 251),
], ids=["C23", "W12"])
def test_node_counts_are_pinned(spec, chi, nodes):
    # a change to the search order or the prunes shows here; lower the pin
    # when a change makes the search smaller
    g = family_graph(spec)
    first = chi_nl_exact(g)
    assert (first.chi, first.status, first.nodes_explored) == (chi, "Exact", nodes)
    assert chi_nl_exact(g).to_dict() == first.to_dict()


def test_universal_vertex_law_small():
    from nlcoloring import Graph

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
