"""Differential tests: the exact solver against a brute-force oracle.

The oracle shares no code with the solver's search.  It lists the set
partitions of the vertices as restricted growth strings and checks each
complete one with the independent verifier, so it has no capacity,
signature or symmetry prune that could hide a solver bug.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcoloring import (
    Coloring,
    FamilySpec,
    Graph,
    chi_lower_bound,
    chi_nl_exact,
    connected_graphs,
    enumerate_trees,
    exists_nl_coloring,
    family_graph,
    is_nl_coloring,
)
from nlcoloring import solver
from nlcoloring.families import cone


def _partition_colorings(g: Graph, k: int) -> Iterator[Coloring]:
    """Every proper coloring of g with exactly k colors, one per partition.

    A restricted growth string has a[0] = 0 and a[i] <= 1 + max(a[:i])
    (Knuth, TAOCP 4A, 7.2.1.5), so it names each set partition once.  A
    prefix is dropped as soon as an edge joins two vertices of one block or
    too few vertices remain to open the missing blocks.
    """
    a = [0] * g.n

    def extend(i: int, blocks: int) -> Iterator[Coloring]:
        if blocks + (g.n - i) < k:
            return
        if i == g.n:
            yield Coloring(k, tuple(b + 1 for b in a))
            return
        for b in range(min(blocks + 1, k)):
            if all(a[u] != b for u in g.adj[i] if u < i):
                a[i] = b
                yield from extend(i + 1, max(blocks, b + 1))

    return extend(0, 0)


def oracle_chi(g: Graph) -> int:
    """The least k for which some k-block partition is an NL-coloring."""
    k = 1
    while not any(is_nl_coloring(g, c).ok for c in _partition_colorings(g, k)):
        k += 1
    return k


def _search_order(g: Graph) -> list[int]:
    """The order in which ``solver._search`` colors the vertices."""
    return solver._schedule(g)[0]


def _check_against_oracle(g: Graph) -> None:
    chi = oracle_chi(g)
    result = chi_nl_exact(g)
    assert (result.chi, result.status) == (chi, "Exact"), g.sorted_edges()
    assert chi_lower_bound(g) <= chi
    if chi > 1:  # the search itself refutes chi - 1, whatever the lower bound
        assert exists_nl_coloring(g, chi - 1)[0] is False, g.sorted_edges()


def test_oracle_on_known_values():
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle_chi(path4) == 3
    assert oracle_chi(Graph(4, [(0, 1), (0, 2), (0, 3)])) == 4  # star K_{1,3}
    assert oracle_chi(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == 4  # C4
    assert oracle_chi(Graph(1, [])) == 1
    # P4: x(x-1)^3 = x^(4 falling) + 3 x^(3 falling) + x^(2 falling)
    assert sum(1 for _ in _partition_colorings(path4, 2)) == 1
    assert sum(1 for _ in _partition_colorings(path4, 3)) == 3


def _cones_over_trees(n: int) -> list[Graph]:
    """Every tree of order n with a universal vertex added (``cone``)."""
    return [cone(t) for t in enumerate_trees(n)]


def _spider(legs: tuple[int, ...]) -> Graph:
    """A centre (vertex 0) with one path of each given length hanging off it."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return Graph(n, edges)


def _caterpillar(leaves: tuple[int, ...]) -> Graph:
    """A spine path with ``leaves[i]`` leaves on its i-th vertex."""
    edges, n = [(i, i + 1) for i in range(len(leaves) - 1)], len(leaves)
    for i, count in enumerate(leaves):
        edges += [(i, n + j) for j in range(count)]
        n += count
    return Graph(n, edges)


def _spiders(n: int) -> list[Graph]:
    """Every spider of order at most n: three or more legs on one centre."""
    return [_spider(legs) for count in range(3, n) for legs in
            itertools.combinations_with_replacement(range(1, n - 2), count) if sum(legs) < n]


def _caterpillars(n: int) -> list[Graph]:
    """Every caterpillar of order at most n with a spine of 2-4 vertices and
    up to 3 leaves on each, both mirror images of each: they are labelled
    differently, so the search meets them in different orders."""
    return [_caterpillar(leaves) for spine in (2, 3, 4)
            for leaves in itertools.product(range(4), repeat=spine)
            if spine + sum(leaves) <= n]


def _stars(n: int) -> list[Graph]:
    """The stars K_{1,m} of order at most n, m >= 1."""
    return [_caterpillar((m,)) for m in range(1, n)]


def _double_stars(n: int) -> list[Graph]:
    """The double stars of order at most n, r and s >= 1 leaves on the two
    centres, both mirror images of each."""
    return [_caterpillar((r, s)) for r in range(1, n) for s in range(1, n - r - 1)]


def _brooms(n: int) -> list[Graph]:
    """The brooms of order at most n: a path of 3 or more vertices with 2 or
    more leaves on one end, both mirror images of each."""
    return [_caterpillar(leaves) for spine in range(2, n - 2) for b in range(2, n - spine)
            for leaves in ((0,) * spine + (b,), (b,) + (0,) * spine)]


def _combs(n: int) -> list[Graph]:
    """The combs of order at most n: one leaf on each vertex of a path."""
    return [_caterpillar((1,) * spine) for spine in range(1, n // 2 + 1)]


def _complete_binary_trees(n: int) -> list[Graph]:
    """The complete binary trees of order at most n."""
    return [Graph(2 ** levels - 1, [((v - 1) // 2, v) for v in range(1, 2 ** levels - 1)])
            for levels in range(2, (n + 1).bit_length())]


def _leafy(n: int) -> list:
    """Trees whose leaves crowd onto few vertices, where the leaf check of the
    search rejects colors early: the stars, double stars, brooms and combs
    up to order n."""
    return [pytest.param(universe, n, id=f"{universe.__name__[1:].replace('_', '-')}-{n}")
            for universe in (_stars, _double_stars, _brooms, _combs)]


# every tree up to order 9 (ids 1..9), every connected graph up to order 7
# (ids atlas-1..atlas-7, the networkx graph atlas), the cones over the
# trees of order 7 and 8 (ids cone-7, cone-8), where the cone step of
# chi_lower_bound applies, and the leafy trees up to order 9
UNIVERSES = [
    *(pytest.param(enumerate_trees, n, id=str(n)) for n in range(1, 10)),
    *(pytest.param(connected_graphs, n, id=f"atlas-{n}") for n in range(1, 8)),
    *(pytest.param(_cones_over_trees, n, id=f"cone-{n}") for n in (7, 8)),
    *_leafy(9),
]


@pytest.mark.parametrize("universe,n", UNIVERSES)
def test_solver_matches_oracle_on_all_trees(universe, n):
    for g in universe(n):
        _check_against_oracle(g)


def test_cycle_bound_matches_oracle():
    # C8 = C_{ell(3) - 1}, the smallest cycle that the cycle bound of
    # chi_lower_bound settles: it needs 4 colors
    _check_against_oracle(family_graph(FamilySpec.cycle(8)))


@pytest.mark.parametrize("n", [7, 8])
def test_a_universal_vertex_adds_one_color(n):
    # the cone step is exact: chi(cone(T)) = chi(T) + 1
    for t in enumerate_trees(n):
        assert chi_nl_exact(cone(t)).chi == chi_nl_exact(t).chi + 1, t.sorted_edges()


@pytest.mark.parametrize("universe,n", UNIVERSES)
def test_search_order_is_connected(universe, n):
    # every vertex after the first has a neighbour colored before it, so
    # the properness check and the signatures see colors from depth 1 on
    for g in universe(n):
        order = _search_order(g)
        assert sorted(order) == list(range(g.n))
        for d in range(1, g.n):
            assert set(g.adj[order[d]]) & set(order[:d]), (g.sorted_edges(), order)


def _least_in_search_order(g: Graph, k: int) -> tuple[int, ...]:
    """Colors (indexed by vertex) of the NL-coloring with k colors that is
    lexicographically least when read in ``_search_order``.  Among the
    colorings of one partition, the least names the blocks 1, 2, ... in the
    order the search meets them; the answer is the least of these over the
    partitions that are NL-colorings."""
    order = _search_order(g)
    best = None
    for c in _partition_colorings(g, k):
        if is_nl_coloring(g, c).ok:
            names: dict[int, int] = {}
            seq = tuple(names.setdefault(c.colors[v], len(names) + 1) for v in order)
            best = seq if best is None else min(best, seq)
    colors = [0] * g.n
    for v, color in zip(order, best):
        colors[v] = color
    return tuple(colors)


# every connected graph up to order 6, every tree of order 7 and 8, the
# spiders, caterpillars and complete binary trees up to order 10, where the
# search jumps back past legs and branches that a failure does not read,
# and the leafy trees up to order 10
WITNESS_UNIVERSES = [
    *(pytest.param(connected_graphs, n, id=f"atlas-{n}") for n in range(1, 7)),
    *(pytest.param(enumerate_trees, n, id=str(n)) for n in (7, 8)),
    pytest.param(_spiders, 10, id="spiders-10"),
    pytest.param(_caterpillars, 10, id="caterpillars-10"),
    pytest.param(_complete_binary_trees, 10, id="complete-binary-trees-10"),
    *_leafy(10),
]


@pytest.mark.parametrize("universe,n", WITNESS_UNIVERSES)
def test_witness_is_least_in_search_order(universe, n):
    # the symmetry prunes may only drop colorings that are not the least
    # of their class, so the first answer must be the least NL-coloring
    for g in universe(n):
        result = chi_nl_exact(g)
        assert result.witness.colors == _least_in_search_order(g, result.chi), \
            g.sorted_edges()


@pytest.fixture
def memo_from_the_first_node(monkeypatch):
    # a search switches its memo of failed states on once it passes
    # CHECK_EVERY nodes, which no search above reaches (they stop below
    # 700 nodes); at 1 the memo is on from the first node of every search
    monkeypatch.setattr(solver, "CHECK_EVERY", 1)


@pytest.mark.parametrize("universe,n", UNIVERSES)
@pytest.mark.usefixtures("memo_from_the_first_node")
def test_memo_keeps_the_oracle_values(universe, n):
    for g in universe(n):
        _check_against_oracle(g)


@pytest.mark.parametrize("universe,n", WITNESS_UNIVERSES)
@pytest.mark.usefixtures("memo_from_the_first_node")
def test_memo_keeps_the_least_witness(universe, n):
    # a hit may only skip subtrees without a solution, so the first answer
    # stays the least NL-coloring in search order
    for g in universe(n):
        result = chi_nl_exact(g)
        assert result.witness.colors == _least_in_search_order(g, result.chi), \
            g.sorted_edges()


def _complete(n: int, missing: tuple[tuple[int, int], ...] = ()) -> Graph:
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if (u, v) not in missing])


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def _friendship(blades: int) -> Graph:
    """Triangles sharing vertex 0; the two other corners of each are true twins."""
    return Graph(2 * blades + 1, [e for i in range(1, 2 * blades, 2)
                                  for e in ((0, i), (0, i + 1), (i, i + 1))])


# graphs whose twins are the point: every vertex but a few has a twin, so
# the twin prune and the twin bound decide most of each search.  Leaves on
# one vertex are false twins, and so is each pair of K_n minus a perfect
# matching; K_n, K_n minus an edge and the friendship graphs have true twins.
TWIN_RICH = [
    *(pytest.param(family_graph(FamilySpec.star(n)), id=f"star-{n}") for n in range(3, 10)),
    *(pytest.param(family_graph(FamilySpec.double_star(r, s)), id=f"double-star-{r}-{s}")
      for s in range(1, 7) for r in range(1, s + 1) if 5 <= r + s + 2 <= 9),
    *(pytest.param(_complete_bipartite(a, b), id=f"K{a},{b}")
      for b in range(1, 8) for a in range(1, b + 1) if a + b <= 8),
    *(pytest.param(_spider(legs), id="spider-" + "".join(map(str, legs)))
      for legs in [(1, 1, 2), (1, 1, 1, 2), (1, 1, 2, 2), (2, 2, 2), (1, 1, 1, 1, 2),
                   (1, 1, 1, 3), (2, 2, 3), (1, 2, 2, 2), (2, 2, 2, 2)]),
    *(pytest.param(_complete(n), id=f"K{n}") for n in range(1, 9)),
    *(pytest.param(_complete(n, tuple((i, i + 1) for i in range(0, n, 2))),
                   id=f"K{n}-perfect-matching") for n in (4, 6, 8)),
    *(pytest.param(_complete(n, ((0, 1),)), id=f"K{n}-edge") for n in range(3, 9)),
    *(pytest.param(_friendship(b), id=f"friendship-{b}") for b in (1, 2, 3)),
]


@pytest.mark.parametrize("g", TWIN_RICH)
def test_solver_matches_oracle_on_twin_rich_graphs(g):
    _check_against_oracle(g)


@pytest.mark.parametrize("g", TWIN_RICH)
@pytest.mark.usefixtures("memo_from_the_first_node")
def test_memo_keeps_the_oracle_values_on_twin_rich_graphs(g):
    # the twin order reads colors that the memo's key must hold
    _check_against_oracle(g)


# trees where the neighbour bound of chi_lower_bound fires (a centre of
# degree 5 with neighbours of degree 2 or more fails cap(2) = 4 at k = 3)
# and trees where it does not: every caterpillar of order <= 10 with a
# spine of 2-4 vertices and up to 3 leaves on each, and the complete
# binary trees of depth 1-3
BOUND_TREES = [
    pytest.param([_spider(legs) for legs in [(1, 1, 2, 2, 2), (1, 2, 2, 2, 2), (2, 2, 2, 2, 2),
                                             (1, 1, 1, 2, 2, 2), (2, 2, 2, 2), (1, 2, 3, 4)]],
                 id="spiders"),
    pytest.param(_caterpillars(10), id="caterpillars"),
    pytest.param(_complete_binary_trees(15), id="complete-binary-trees"),
]


@pytest.mark.parametrize("universe", BOUND_TREES)
def test_oracle_refutes_every_k_below_the_lower_bound(universe):
    # the lower bound is never above chi: no partition into fewer blocks
    # than it is an NL-coloring
    for g in universe:
        for k in range(1, chi_lower_bound(g)):
            assert not any(is_nl_coloring(g, c).ok for c in _partition_colorings(g, k)), \
                (g.sorted_edges(), k)


@st.composite
def _connected_graphs(draw, max_n: int = 8) -> Graph:
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # spanning tree
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), unique=True)))
    return Graph(n, sorted(edges))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_connected_graphs())
def test_solver_matches_oracle_on_connected_graphs(g):
    _check_against_oracle(g)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_chi_and_witness_survive_relabelling(data):
    # the search order, and with it which twin of a class comes first,
    # depends on the labels; the value must not, so a prune that cuts a
    # coloring it should keep shows here as a moved chi
    g = data.draw(_connected_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.sorted_edges()])
    result = chi_nl_exact(h)
    assert (result.chi, result.status) == (chi_nl_exact(g).chi, "Exact"), g.sorted_edges()
    assert is_nl_coloring(h, result.witness).ok
