"""Closed-form quantities, order bounds, and the derived lower bound."""

from __future__ import annotations

import time
from math import comb, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcoloring import (
    Coloring,
    FamilySpec,
    Graph,
    a1,
    a2,
    bounds_report,
    chi_closed_form,
    chi_lower_bound,
    chi_nl_exact,
    class_order_bound,
    ell,
    enumerate_trees,
    family_graph,
    is_nl_coloring,
    max_order,
    tree_max_degree,
    twin_classes,
)
from nlcoloring.bounds import _floor, bracket
from nlcoloring.graphs import cone


def test_capacity_values():
    assert ell(3) == 9 and ell(4) == 24 and a2(4) == 12
    assert (ell(5), ell(6), ell(7)) == (50, 90, 147)
    assert a1(5) == 20 and a2(5) == 30
    with pytest.raises(ValueError):
        a1(2)


def test_max_order_general():
    assert [max_order(k) for k in (3, 4, 5, 6, 7)] == [9, 28, 75, 186, 441]


def test_max_order_degree_bounded():
    assert max_order(5, 2) == 50
    # direct evaluation of the degree-bounded sum
    assert max_order(5, 3) == 5 * sum(comb(4, j) for j in (1, 2, 3)) == 70
    with pytest.raises(ValueError):
        max_order(5, 5)
    with pytest.raises(ValueError):
        max_order(5, 0)
    # the running product of binomials matches math.comb for every cap
    for k in range(2, 41):
        for delta in range(1, k):
            assert max_order(k, delta) == k * sum(comb(k - 1, j) for j in range(1, delta + 1))


def test_class_order_bounds():
    assert [class_order_bound(k, "tree") for k in (5, 6, 7)] == [68, 118, 187]
    assert class_order_bound(6, "unicyclic") == 120
    assert class_order_bound(5, "unicyclic") == 2 * a1(5) + a2(5) == 70
    with pytest.raises(ValueError):
        class_order_bound(5, "forest")


def test_tree_max_degree_floors_half_integers():
    assert tree_max_degree(3) == 5
    assert tree_max_degree(4) == floor(9 + 1.5) == 10
    assert tree_max_degree(5) == 16 + 2 == 18


def test_bounds_report_shape():
    report = bounds_report(5, 2)
    assert report["treeMaxOrder"] == report["unicyclicMaxOrder"] - 2
    assert report["ell"] == report["a1"] + report["a2"]
    assert report["degreeBoundedMaxOrder"] == 50
    assert list(report)[-1] == "degreeBoundedMaxOrder"
    assert "degreeBoundedMaxOrder" not in bounds_report(5)


@given(st.integers(3, 12))
@settings(deadline=None)
def test_bounds_strictly_increase(k):
    for fn in (lambda t: max_order(t), lambda t: ell(t), lambda t: a1(t),
               lambda t: a2(t), lambda t: class_order_bound(t, "tree"),
               lambda t: class_order_bound(t, "unicyclic")):
        assert fn(k + 1) > fn(k)


def test_chi_lower_bound_examples():
    assert chi_lower_bound(family_graph(FamilySpec.cycle(25))) == 5  # 25 > ell(4)
    assert chi_lower_bound(family_graph(FamilySpec.path(9))) == 3
    assert chi_lower_bound(family_graph(FamilySpec.path(2))) == 2
    assert chi_lower_bound(Graph(1, [])) == 1
    with pytest.raises(TypeError):  # the bound finds the twin classes itself
        chi_lower_bound(family_graph(FamilySpec.path(5)), [[0, 1, 2, 3, 4]])
    # a tree of order 119 needs at least 7 colors (tree bound at 6 is 118):
    # the spider with 6 legs of lengths 19 and 20, which has no twins and
    # whose maximum degree 6 lets no degree-bounded order bound apply at 6
    legs = Graph(119, [(0 if i in (1, 20, 39, 59, 79, 99) else i - 1, i) for i in range(1, 119)])
    assert twin_classes(legs) == [] and max(map(len, legs.adj)) == 6
    assert chi_lower_bound(legs) == 7
    # the spider with 59 legs of length 2 has the same order and no twins,
    # but its centre's 59 neighbours of degree 2 need cap(2) = (k - 1)^2
    # >= 59 by the neighbour bound, so k >= 9
    spider = Graph(119, [(0, i) for i in range(1, 60)] + [(i, i + 59) for i in range(1, 60)])
    assert twin_classes(spider) == []
    assert chi_lower_bound(spider) == 9
    # C_65 with three pendant 2-paths at vertex 0: n = m = 71 lies above the
    # unicyclic bound 70 at k = 5 but not the general one (75), and the
    # maximum degree 5 lets no degree-bounded bound apply at k = 5
    unicyclic = Graph(71, [(i, (i + 1) % 65) for i in range(65)]
                      + [e for v in (65, 67, 69) for e in ((0, v), (v, v + 1))])
    assert twin_classes(unicyclic) == []
    assert chi_lower_bound(unicyclic) == 6


@pytest.mark.parametrize("n", [3, 4, 9, 119])
def test_chi_lower_bound_of_a_star_is_its_order(n):
    # the n - 1 leaves are false twins: the twin bound proves the true value
    assert chi_lower_bound(family_graph(FamilySpec.star(n))) == n


def _complete(n: int, missing: tuple[tuple[int, int], ...] = ()) -> Graph:
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if (u, v) not in missing])


def _floor_of(g: Graph) -> int:
    """The lower bound of g without the cone step."""
    return _floor(g.n, len(g.edges), max(map(len, g.adj)),
                  max(map(len, twin_classes(g)), default=1), g.adj)


@pytest.mark.parametrize("universe", [
    [family_graph(FamilySpec.path(n)) for n in range(2, 61)],
    [family_graph(FamilySpec.cycle(n)) for n in range(3, 61)],
    [t for n in range(1, 11) for t in enumerate_trees(n)],
    # legs of length 2 on one centre: from 10 legs the neighbour bound sorts
    # the centre's neighbour degrees, below its hub in the cone
    [Graph(2 * legs + 1, [(0 if i % 2 else i - 1, i) for i in range(1, 2 * legs + 1)])
     for legs in range(3, 12)],
], ids=["paths", "cycles", "trees", "spiders"])
def test_a_universal_vertex_raises_the_lower_bound_by_one(universe):
    for h in universe:
        assert chi_lower_bound(cone(h)) >= 1 + chi_lower_bound(h), h.sorted_edges()


def test_lower_bound_is_the_value_of_every_path_cycle_fan_and_wheel():
    # the cycle bound settles each cycle of order ell(k) - 1 and, at k = 3,
    # C4 and C6, and the cone step carries them to the wheels: the lower
    # bound is the paper's value on every path, cycle, fan and wheel
    for family, orders in (("path", range(2, 401)), ("cycle", range(3, 401)),
                           ("fan", range(4, 121)), ("wheel", range(4, 121))):
        for n in orders:
            spec = FamilySpec(family, (n,))
            assert chi_lower_bound(family_graph(spec)) == chi_closed_form(spec), spec.label()


def test_cycle_bound_reads_only_cycles():
    # C7 with a pendant vertex is unicyclic of order 8 = ell(3) - 1, but has
    # a vertex of degree 3, so the cycle bound does not apply: its value is 3
    g = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7)])
    assert chi_lower_bound(g) == 3
    assert chi_nl_exact(g).chi == 3


def test_cone_step_examples():
    # W29 = cone(C28) and F29 = cone(P28): 28 > ell(4) = 24 needs 5 colors
    # below the hub, where the bound of the cone itself gives 5: its order
    # is above max_order(4) = 28, and its hub has no more neighbours of
    # degree <= 3 than cap(3) = 28 allows at k = 5
    for spec in (FamilySpec.wheel(29), FamilySpec.fan(29)):
        g = family_graph(spec)
        assert _floor_of(g) == 5
        assert chi_lower_bound(g) == chi_closed_form(spec) == 6


def test_neighbour_bound_is_tight():
    # a hub of color 1 with all 12 neighbours that 4 colors allow it: for
    # each color c of 2-4, a leaf (signature {1}), two vertices of the
    # edges between colors (signatures {1, x}) and a corner of a triangle
    # (signature {1, x, y}).  So its sorted neighbour degrees 1, 1, 1, 2 x 6,
    # 3 x 3 meet cap(d) = 3, 9, 12 at k = 4 with equality, and the bound,
    # the twin bound of the three leaves, is the value
    g = Graph(13, [(0, v) for v in range(1, 13)]
              + [(4, 5), (6, 7), (8, 9), (10, 11), (10, 12), (11, 12)])
    colors = (1, 2, 3, 4, 2, 3, 2, 4, 3, 4, 2, 3, 4)
    assert is_nl_coloring(g, Coloring(4, colors)).ok
    assert sorted(len(g.adj[w]) for w in g.adj[0]) == [1] * 3 + [2] * 6 + [3] * 3
    assert chi_lower_bound(g) == 4


def _friendship(blades: int) -> Graph:
    """Triangles sharing vertex 0."""
    return Graph(2 * blades + 1, [e for i in range(1, 2 * blades, 2)
                                  for e in ((0, i), (0, i + 1), (i, i + 1))])


def _broom(handle: int, bristles: int) -> Graph:
    """A hub joined to each vertex of a path of order ``handle`` and to
    ``bristles`` leaves: the fan of order handle + 1 with leaves on its hub."""
    n = handle + bristles + 1
    return Graph(n, [(i, i + 1) for i in range(handle - 1)] + [(v, n - 1) for v in range(n - 1)])


@pytest.mark.parametrize("g", [
    *(pytest.param(family_graph(FamilySpec.star(n)), id=f"star-{n}") for n in range(3, 21)),
    *(pytest.param(_friendship(b), id=f"friendship-{b}") for b in range(2, 9)),
    *(pytest.param(_broom(a, s), id=f"broom-{a}-{s}") for a in range(2, 12) for s in (1, 2, 3)),
])
def test_one_hub_over_a_disconnected_rest_leaves_the_bound(g):
    # one universal vertex u with g - u disconnected: the cone step peels
    # nothing, so the order and twin bounds decide
    assert chi_lower_bound(g) == _floor_of(g)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 400])
def test_complete_graph_less_an_edge_is_bounded_at_its_order(n):
    # n - 2 universal vertices over two non-adjacent ones: the step peels
    # n - 3 of them and leaves P_3, whose two leaves are twins (bound 3)
    g = _complete(n, ((0, 1),))
    assert (_floor_of(g), chi_lower_bound(g)) == (n - 1, n)


@pytest.mark.parametrize("missing", [(), ((0, 1),)], ids=["K400", "K400-edge"])
def test_lower_bound_of_large_dense_graphs_is_quick(missing):
    # 399 or 398 universal vertices: the step is one pass, not a recursion
    g = _complete(400, missing)
    start = time.perf_counter()
    assert chi_lower_bound(g) == 400
    assert time.perf_counter() - start < 0.1


def test_chi_closed_form_paths_cycles():
    assert chi_closed_form(FamilySpec.path(2)) == 2
    assert all(chi_closed_form(FamilySpec.path(n)) == 3 for n in range(3, 10))
    assert [chi_closed_form(FamilySpec.cycle(n)) for n in range(3, 10)] == [3, 4, 3, 4, 3, 4, 3]
    assert chi_closed_form(FamilySpec.path(10)) == 4
    assert chi_closed_form(FamilySpec.cycle(23)) == 5
    assert chi_closed_form(FamilySpec.cycle(24)) == 4


def test_chi_closed_form_fans_wheels_stars():
    assert chi_closed_form(FamilySpec.wheel(24)) == 6
    assert chi_closed_form(FamilySpec.wheel(25)) == 5
    assert chi_closed_form(FamilySpec.fan(10)) == 4
    assert chi_closed_form(FamilySpec.star(7)) == 7
    assert chi_closed_form(FamilySpec.double_star(1, 2)) == 3
    assert chi_closed_form(FamilySpec.unicyclic(6)) == 6
    assert chi_closed_form(FamilySpec.caterpillar(7)) == 7
    with pytest.raises(ValueError):
        chi_closed_form(FamilySpec.comb(6))


def test_bracket_is_total_and_monotone():
    with pytest.raises(ValueError, match="at least 10"):  # defined from n = 10 on
        bracket(9)
    prev = 3
    for n in range(10, ell(9) + 1):
        k = bracket(n)
        assert ell(k - 1) < n <= ell(k)
        assert k >= prev
        prev = k


def _bracket_by_walk(n):
    k = 4
    while ell(k) < n:
        k += 1
    return k


def test_bracket_agrees_with_the_walk_at_every_step():
    for k in range(4, 301):
        for n in (ell(k) - 1, ell(k), ell(k) + 1):
            assert bracket(n) == _bracket_by_walk(n)


def test_bracket_of_a_3000_digit_order():
    n = 10 ** 2999 + 7
    k = bracket(n)
    assert ell(k - 1) < n <= ell(k)
    assert chi_closed_form(FamilySpec.cycle(n)) == k


def test_cycle_path_relationship():
    plus_one = {4, 6, 8} | {ell(k) - 1 for k in range(4, 8)}
    for n in range(3, ell(7) + 1):
        path_value = chi_closed_form(FamilySpec.path(n))
        cycle_value = chi_closed_form(FamilySpec.cycle(n))
        assert cycle_value == path_value + (1 if n in plus_one else 0)


def test_cone_relationships():
    for n in range(4, 80):
        assert chi_closed_form(FamilySpec.fan(n)) == chi_closed_form(FamilySpec.path(n - 1)) + 1
        assert chi_closed_form(FamilySpec.wheel(n)) == chi_closed_form(FamilySpec.cycle(n - 1)) + 1
