"""Generators, classification, and structural statistics."""

from __future__ import annotations

import copy
import pickle
import time

import networkx as nx
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
    connected_graphs,
    degree_stats,
    diameter,
    distances,
    ell,
    enumerate_trees,
    family_graph,
    is_tree,
    twin_classes,
)


def test_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicate edge
    with pytest.raises(GraphError, match=r"duplicate edge \(0,1\)"):
        Graph(2, [(0, 1), (0, 1)])  # the same orientation twice
    with pytest.raises(GraphError, match="not connected"):
        # two triangles: n = m, so only the breadth-first search can tell
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(GraphError):
        Graph(4, [(0, 1)])  # disconnected
    with pytest.raises(GraphError):
        Graph(3, [(0, 5), (0, 1), (1, 2)])  # out of range
    with pytest.raises(GraphError, match="not connected"):
        Graph(10**9, [(0, 1)])  # too few edges: rejected before anything of size n
    with pytest.raises(GraphError, match="self-loop at vertex 1"):
        Graph(2, [(0, 1), (1, 1)])  # n <= m + 1, so only the loop check refuses it
    with pytest.raises(GraphError, match="at least one vertex"):
        Graph(0, [])


def test_replace_validates():
    # _replace builds through _make, which builds through the constructor
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        g._replace(edges=((0, 0),))
    with pytest.raises(GraphError, match="self-loop"):
        g._replace(edges=((0, 1), (1, 2), (2, 2)))
    triangle = g._replace(edges=((1, 2), (0, 2), (0, 1)))
    assert type(triangle) is Graph and triangle == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert triangle.adj == ((1, 2), (0, 2), (0, 1))  # read off the new edges
    spec = FamilySpec("cycle", (5,))
    with pytest.raises(ValueError, match="out of range"):
        spec._replace(args=(1,))
    with pytest.raises(ValueError, match="unknown family"):
        spec._replace(family="torus")
    assert spec._replace(args=(6,)) == FamilySpec.cycle(6)


def test_graph_equality_and_adjacency():
    g = Graph(3, [(2, 1), (0, 1)])
    assert g.adj == ((1,), (0, 2), (1,))
    assert g == Graph(3, [(0, 1), (1, 2)])
    assert g.sorted_edges() == [(0, 1), (1, 2)]
    # a named tuple, as Coloring is
    assert g == (3, ((0, 1), (1, 2)), ((1,), (0, 2), (1,))) and len(g) == 3
    assert (g.has_edge(1, 0), g.has_edge(0, 2), g.has_edge(5, 0)) == (True, False, False)
    assert repr(g) == "Graph(n=3, m=2)"


def test_duplicate_edge_is_refused_in_linear_time():
    n = 100_000
    edges = [(i, (i + 1) % n) for i in range(n)] + [(n - 1, 0)]
    start = time.monotonic()
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph(n, edges)
    assert time.monotonic() - start < 2


@st.composite
def _connected_edge_lists(draw):
    """A connected graph's edges: a random spanning tree plus extra pairs."""
    n = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pair = st.integers(0, n - 2).flatmap(
            lambda u: st.tuples(st.just(u), st.integers(u + 1, n - 1)))
        edges |= set(draw(st.lists(pair, max_size=10)))
    return n, sorted(edges)


@settings(max_examples=100, deadline=None)
@given(_connected_edge_lists(), st.data())
def test_edge_list_order_and_orientation_do_not_matter(graph, data):
    n, edges = graph
    g = Graph(n, edges)
    shuffled = data.draw(st.permutations(edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    h = Graph(n, [(v, u) if flip else (u, v) for (u, v), flip in zip(shuffled, flips)])
    assert h == g and h.edges == g.edges == tuple(edges) and hash(h) == hash(g)
    assert h.sorted_edges() == list(h.edges)


@pytest.mark.parametrize("g", [family_graph(FamilySpec.cycle(9)),
                               Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])])
def test_graph_pickle_roundtrip(g):
    # both rebuild through Graph.__new__, with the arguments of __getnewargs__
    for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert type(back) is Graph and back == g and back is not g
        assert back.adj == g.adj


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


@pytest.mark.parametrize("n", [4, 5, 9])
def test_fan_and_wheel_number_the_rim_first_and_the_hub_last(n):
    spokes = [(i, n - 1) for i in range(n - 1)]
    rim = [(i, i + 1) for i in range(n - 2)]
    assert family_graph(FamilySpec.fan(n)) == Graph(n, rim + spokes)
    assert family_graph(FamilySpec.wheel(n)) == Graph(n, rim + [(0, n - 2)] + spokes)


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
    with pytest.raises(ValueError):
        FamilySpec("path", (5, 6))  # one parameter too many
    with pytest.raises(ValueError):
        FamilySpec("double-star", (2,))  # one parameter too few


def test_classify_cycle():
    assert classify(family_graph(FamilySpec.cycle(5))) == "Cycle"


def test_classify_comb_is_caterpillar():
    assert classify(family_graph(FamilySpec.comb(6))) == "Caterpillar"


def test_classify_families():
    assert classify(family_graph(FamilySpec.path(7))) == "Path"
    assert classify(family_graph(FamilySpec.star(6))) == "Caterpillar"
    assert classify(family_graph(FamilySpec.double_star(2, 3))) == "Caterpillar"
    assert classify(family_graph(FamilySpec.wheel(7))) == "Other"
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert classify(spider) == "TreeGeneral"


def test_classify_unicyclic_extremal():
    # the unique cycle runs through the comb spine: a1(k) + a2(k) vertices
    g = family_graph(FamilySpec.unicyclic(5))
    assert classify(g) == "Unicyclic"
    (cycle,) = nx.cycle_basis(nx.Graph(list(g.edges)))
    assert len(cycle) == a1(5) + a2(5)


def test_diameter_values():
    assert diameter(family_graph(FamilySpec.path(9))) == 8
    assert diameter(family_graph(FamilySpec.star(7))) == 2
    assert diameter(family_graph(FamilySpec.wheel(10))) == 2
    assert diameter(Graph(1, [])) == 0


@pytest.mark.parametrize("universe", ["atlas", "trees", "families"])
def test_diameter_is_the_largest_distance(universe):
    # the balls grown together reach every vertex after as many rounds as
    # the largest breadth-first distance
    graphs = {
        "atlas": lambda: (g for n in range(1, 8) for g in connected_graphs(n)),
        "trees": lambda: (g for n in range(1, 13) for g in enumerate_trees(n)),
        "families": lambda: (family_graph(spec) for spec in (
            *(family(n) for n in range(4, 40) for family in (
                FamilySpec.path, FamilySpec.cycle, FamilySpec.fan, FamilySpec.wheel,
                FamilySpec.star, FamilySpec.comb)),
            *(FamilySpec.double_star(r, s) for s in range(2, 9) for r in range(1, s + 1)),
            FamilySpec.unicyclic(5), FamilySpec.unicyclic(6), FamilySpec.caterpillar(6))),
    }[universe]()
    for g in graphs:
        assert diameter(g) == max(max(distances(g, v)) for v in range(g.n)), g.sorted_edges()


def test_distances_from_a_source():
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert distances(spider, 0) == [0, 1, 2, 1, 2, 1, 2]
    assert distances(spider, 2) == [2, 1, 0, 3, 4, 3, 4]
    assert distances(family_graph(FamilySpec.cycle(6)), 4) == [2, 3, 2, 1, 0, 1]


def test_distances_without_some_vertices():
    # removed vertices are never entered and read -1, as unreached ones do
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert distances(spider, 1, [0]) == [-1, 0, 1, -1, -1, -1, -1]
    assert distances(spider, 2, [3, 5]) == [2, 1, 0, -1, -1, -1, -1]
    cycle = family_graph(FamilySpec.cycle(6))
    assert distances(cycle, 4, (3,)) == [2, 3, 4, -1, 0, 1]
    assert distances(cycle, 4) == [2, 3, 2, 1, 0, 1]  # the graph is unchanged


def test_twin_classes_examples():
    assert twin_classes(Graph(1, [])) == []
    assert twin_classes(family_graph(FamilySpec.path(2))) == [[0, 1]]  # true twins
    assert twin_classes(family_graph(FamilySpec.path(5))) == []
    assert twin_classes(family_graph(FamilySpec.star(5))) == [[0, 1, 2, 3]]
    assert twin_classes(family_graph(FamilySpec.cycle(4))) == [[0, 2], [1, 3]]
    assert twin_classes(family_graph(FamilySpec.wheel(4))) == [[0, 1, 2, 3]]  # K4
    # K4 without the edge 0-1: 0 and 1 are false twins, 2 and 3 true twins
    assert twin_classes(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])) == [[0, 1], [2, 3]]


def test_twin_classes_match_the_pairwise_definition():
    for n in range(1, 8):
        for g in connected_graphs(n):
            closed = [set(a) | {v} for v, a in enumerate(g.adj)]
            expected = []
            for v in range(n):
                twins = [u for u in range(n)
                         if set(g.adj[u]) == set(g.adj[v]) or closed[u] == closed[v]]
                if len(twins) > 1 and twins[0] == v:
                    expected.append(twins)
            assert sorted(twin_classes(g)) == expected, g.sorted_edges()


def test_degree_stats_cycle():
    assert degree_stats(family_graph(FamilySpec.cycle(9))) == DegreeStats(0, 9, 0, 2)


def test_degree_stats_single_vertex_is_in_no_class():
    # the counts partition the vertex set only from n = 2, where no degree is 0
    assert degree_stats(Graph(1, [])) == DegreeStats(0, 0, 0, 0)


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
    kind = classify(g)
    expected = EXPECTED_KIND[spec.family]
    if spec.family == "star" and spec.args[0] == 3:
        expected = "Path"  # the order-3 star is the order-3 path
    if spec.family in ("fan", "wheel") and spec.args[0] == 4:
        expected = "Other"
    assert kind == expected
    assert is_tree(g) == (kind in ("Path", "Caterpillar", "TreeGeneral"))
