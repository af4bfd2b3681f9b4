"""Generators, classification, and structural statistics."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcoloring import (
    DegreeStats,
    FamilySpec,
    Graph,
    GraphError,
    a1,
    a2,
    classify,
    class_order_bound,
    degree_stats,
    diameter,
    ell,
    family_graph,
)


def test_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicate edge
    with pytest.raises(GraphError):
        Graph(4, [(0, 1)])  # disconnected
    with pytest.raises(GraphError):
        Graph(3, [(0, 5), (0, 1), (1, 2)])  # out of range
    with pytest.raises(GraphError, match="not connected"):
        Graph(10**9, [(0, 1)])  # too few edges: rejected before anything of size n


def test_graph_equality_and_adjacency():
    g = Graph(3, [(2, 1), (0, 1)])
    assert g.adj == ((1,), (0, 2), (1,))
    assert g == Graph(3, [(0, 1), (1, 2)])
    assert g.sorted_edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize("g", [family_graph(FamilySpec.cycle(9)),
                               Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])])
def test_graph_pickle_roundtrip(g):
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert copy.adj == g.adj


def test_smallest_path():
    g = family_graph(FamilySpec.path(2))
    assert g.n == 2 and len(g.edges) == 1


def test_comb_20_shape():
    g = family_graph(FamilySpec.comb(20))
    assert g.n == 40
    stats = degree_stats(g)
    # direct recount: spine ends have degree 2, interior spine degree 3
    leaves = sum(1 for v in range(g.n) if g.degree(v) == 1)
    assert leaves == 20
    assert stats == DegreeStats(n1=20, n2=2, n_ge3=18, max_degree=3)


def test_wheel_4_is_complete():
    g = family_graph(FamilySpec.wheel(4))
    assert all(g.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))


def test_family_parameter_ranges():
    for bad in (FamilySpec.path, lambda n: FamilySpec.cycle(n)):
        with pytest.raises(ValueError):
            bad(1)
    with pytest.raises(ValueError):
        FamilySpec.double_star(2, 1)  # r must not exceed s
    with pytest.raises(ValueError):
        FamilySpec.double_star(1, 1)  # order below 5
    with pytest.raises(ValueError):
        FamilySpec("unicyclic", (4,))
    with pytest.raises(ValueError):
        FamilySpec("caterpillar", (5,))
    with pytest.raises(ValueError):
        FamilySpec("nonsense", (3,))


def test_classify_cycle():
    cls = classify(family_graph(FamilySpec.cycle(5)))
    assert cls.kind == "Cycle"
    assert len(cls.cycle_vertices) == 5
    assert cls.cycle_vertices[0] == 0


def test_classify_comb_is_caterpillar():
    assert classify(family_graph(FamilySpec.comb(6))).kind == "Caterpillar"


def test_classify_families():
    assert classify(family_graph(FamilySpec.path(7))).kind == "Path"
    assert classify(family_graph(FamilySpec.star(6))).kind == "Caterpillar"
    assert classify(family_graph(FamilySpec.double_star(2, 3))).kind == "Caterpillar"
    assert classify(family_graph(FamilySpec.wheel(7))).kind == "Other"
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert classify(spider).kind == "TreeGeneral"


def test_classify_unicyclic_extremal():
    # the unique cycle runs through the comb spine: a1(k) + a2(k) vertices
    cls = classify(family_graph(FamilySpec.unicyclic(5)))
    assert cls.kind == "Unicyclic"
    assert len(cls.cycle_vertices) == a1(5) + a2(5)


def test_diameter_values():
    assert diameter(family_graph(FamilySpec.path(9))) == 8
    assert diameter(family_graph(FamilySpec.star(7))) == 2
    assert diameter(family_graph(FamilySpec.wheel(10))) == 2


def test_degree_stats_cycle():
    assert degree_stats(family_graph(FamilySpec.cycle(9))) == DegreeStats(0, 9, 0, 2)


def test_degree_stats_unicyclic_6():
    g = family_graph(FamilySpec.unicyclic(6))
    assert g.n == 120
    assert degree_stats(g) == DegreeStats(30, 60, 30, 3)


def test_order_identities_against_bounds():
    for k in (5, 6, 7):
        assert family_graph(FamilySpec.unicyclic(k)).n == 2 * a1(k) + a2(k)
        assert family_graph(FamilySpec.unicyclic(k)).n == class_order_bound(k, "unicyclic")
    for k in (6, 7):
        assert family_graph(FamilySpec.caterpillar(k)).n == 2 * a1(k) + a2(k) - 2
        assert family_graph(FamilySpec.caterpillar(k)).n == class_order_bound(k, "tree")


EXPECTED_KIND = {
    "path": "Path",
    "cycle": "Cycle",
    "fan": "Other",
    "wheel": "Other",
    "comb": "Caterpillar",
    "star": "Caterpillar",
    "double-star": "Caterpillar",
    "unicyclic": "Unicyclic",
    "caterpillar": "Caterpillar",
}


def _spec_strategy():
    return st.one_of(
        st.integers(2, 40).map(FamilySpec.path),
        st.integers(3, 40).map(FamilySpec.cycle),
        st.integers(4, 40).map(FamilySpec.fan),
        st.integers(4, 40).map(FamilySpec.wheel),
        st.integers(3, 25).map(FamilySpec.comb),
        st.integers(3, 25).map(FamilySpec.star),
        st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
            lambda rs: rs[0] <= rs[1] and sum(rs) >= 3
        ).map(lambda rs: FamilySpec.double_star(*rs)),
        st.integers(5, 6).map(FamilySpec.unicyclic),
        st.integers(6, 7).map(FamilySpec.caterpillar),
    )


@given(_spec_strategy())
@settings(max_examples=60, deadline=None)
def test_family_graph_invariants(spec):
    g = family_graph(spec)
    # connected and simple are constructor guarantees; handshake re-checked
    assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges)
    kind = classify(g).kind
    expected = EXPECTED_KIND[spec.family]
    if spec.family == "star" and spec.args[0] == 3:
        expected = "Path"  # the order-3 star is the order-3 path
    if spec.family in ("fan", "wheel") and spec.args[0] == 4:
        expected = "Other"
    assert kind == expected
