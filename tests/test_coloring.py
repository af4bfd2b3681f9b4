"""Verifier semantics: signatures, verdicts, 1-pairedness, audits."""

from __future__ import annotations

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcoloring import (
    Coloring,
    FamilySpec,
    Graph,
    base_small_coloring,
    color_degree,
    comb_coloring,
    cone_coloring,
    cycle_coloring,
    extremal_audit,
    family_graph,
    is_1_paired,
    is_nl_coloring,
    neighbor_signature,
    one_paired_cycle_coloring,
)
from nlcoloring.construct import _op1

C9 = base_small_coloring(FamilySpec.cycle(9))


def test_coloring_type_invariants():
    with pytest.raises(ValueError):
        Coloring(3, (1, 2))  # color 3 unused
    with pytest.raises(ValueError):
        Coloring(2, (1, 2, 3))  # out of range
    c = Coloring(2, (2, 1, 2))
    assert c.n == 3 and c.color_class(2) == (0, 2)


def test_coloring_replace_validates():
    # _replace builds through _make, which builds through the constructor
    c = Coloring(2, (1, 2))
    with pytest.raises(ValueError, match="every color"):
        c._replace(k=7)
    with pytest.raises(ValueError, match="1..k"):
        c._replace(colors=(1, 3))
    with pytest.raises(ValueError, match="1..k"):  # two colors used, one of them 0
        c._replace(colors=(0, 2))
    assert c._replace(colors=(2, 1, 2)) == Coloring(2, (2, 1, 2))


def test_signature_on_cycle_base():
    g, c = C9.graph, C9.coloring
    # a vertex of color 1 whose neighbors are colored 2 and 3
    v = next(v for v in range(9) if c.colors[v] == 1
             and {c.colors[u] for u in g.adj[v]} == {2, 3})
    assert neighbor_signature(g, c, v) == (2, 3)
    assert color_degree(g, c, v) == 2


def test_leaf_signature_is_singleton():
    comb = comb_coloring(5)
    for v in range(comb.graph.n):
        if comb.graph.degree(v) == 1:
            (u,) = comb.graph.adj[v]
            assert neighbor_signature(comb.graph, comb.coloring, v) == (comb.coloring.colors[u],)


def test_hub_sees_all_colors():
    w = cone_coloring(cycle_coloring(9))
    hub = w.graph.n - 1
    assert neighbor_signature(w.graph, w.coloring, hub) == (1, 2, 3)


def test_comb_spine_color_degree_three():
    comb = comb_coloring(5)
    v = next(v for v in range(20)
             if len({comb.coloring.colors[u] for u in comb.graph.adj[v]}) == 3)
    assert color_degree(comb.graph, comb.coloring, v) == 3


def test_cycle9_base_coloring_verdict():
    verdict = is_nl_coloring(C9.graph, C9.coloring)
    assert verdict.ok and verdict.reason is None and verdict.witness is None


def test_not_proper_witness():
    g = family_graph(FamilySpec.path(2))
    verdict = is_nl_coloring(g, Coloring(1, (1, 1)))
    assert not verdict.ok
    assert verdict.reason == "NotProper"
    assert verdict.witness == (0, 1)


def test_c4_admits_no_3_coloring():
    g = family_graph(FamilySpec.cycle(4))
    for assignment in product((1, 2, 3), repeat=4):
        if len(set(assignment)) != 3:
            continue
        assert not is_nl_coloring(g, Coloring(3, assignment)).ok


def test_duplicate_signature_witness_is_lex_first():
    g = family_graph(FamilySpec.star(5))
    # all leaves share the signature {color of center}
    verdict = is_nl_coloring(g, Coloring(3, (1, 2, 1, 2, 3)))
    assert not verdict.ok
    assert verdict.reason == "DuplicateSignature"
    assert verdict.witness == (0, 2)


def test_duplicate_signature_witness_is_least_pair_not_first_found():
    # leaves 0..10 on center 11: classes {0, 10} and {3, 4} clash, and a scan
    # in vertex order closes (3, 4) before (0, 10)
    g = Graph(12, [(v, 11) for v in range(11)])
    colors = (1, 3, 4, 2, 2, 5, 6, 7, 8, 9, 1, 10)
    verdict = is_nl_coloring(g, Coloring(10, colors))
    assert verdict.reason == "DuplicateSignature"
    assert verdict.witness == (0, 10)


def test_is_1_paired():
    assert is_1_paired(C9.graph, C9.coloring)
    a2_state = one_paired_cycle_coloring(4, 12)
    assert is_1_paired(a2_state.graph, a2_state.coloring)  # vacuous: no color-degree 1
    g = family_graph(FamilySpec.path(2))
    with pytest.raises(ValueError):
        is_1_paired(g, Coloring(1, (1, 1)))


def test_op1_step_keeps_1_paired():
    seq = list(C9.coloring.colors)
    p = next(i for i in range(9) if seq[i] == 2 and seq[(i + 1) % 9] == 1)
    _op1(seq, p, 4)
    g, c = family_graph(FamilySpec.cycle(10)), Coloring(4, tuple(seq))
    assert is_nl_coloring(g, c).ok
    assert is_1_paired(g, c)


def test_extremal_audit_rejects_non_nl():
    g = family_graph(FamilySpec.path(2))
    with pytest.raises(ValueError):
        extremal_audit(g, Coloring(1, (1, 1)))


def test_extremal_audit_cycle9():
    for census in extremal_audit(C9.graph, C9.coloring):
        assert census.size == comb(3, 2)


def test_audit_c24():
    cg = one_paired_cycle_coloring(4, 24)
    for census in extremal_audit(cg.graph, cg.coloring):
        assert census.size == 6
        assert census.by_color_degree == {1: 3, 2: 3}


def test_audit_c12_no_color_degree_one():
    cg = one_paired_cycle_coloring(4, 12)
    for census in extremal_audit(cg.graph, cg.coloring):
        assert census.by_color_degree.get(1, 0) == 0


def test_class_capacity_check():
    # within a class, at most C(k-1, j) vertices have color-degree j ...
    for census in extremal_audit(C9.graph, C9.coloring):
        assert all(count <= comb(2, j) for j, count in census.by_color_degree.items())
    # ... and exceeding it forces a clash: three same-colored leaves of
    # color-degree 1 against the C(2,1) cap
    star = family_graph(FamilySpec.star(7))
    bad = Coloring(3, (1, 1, 1, 2, 2, 2, 3))
    assert is_nl_coloring(star, bad).reason == "DuplicateSignature"


@given(st.permutations(range(1, 4)), st.sampled_from([3, 5, 7, 9]))
@settings(deadline=None)
def test_color_permutation_invariance(perm, n):
    base = base_small_coloring(FamilySpec.cycle(n))
    relabeled = Coloring(3, tuple(perm[c - 1] for c in base.coloring.colors))
    assert is_nl_coloring(base.graph, relabeled).ok


@given(st.integers(10, 60))
@settings(deadline=None, max_examples=25)
def test_class_capacity_property(n):
    # within any class, at most C(k-1, j) vertices of color-degree j
    cg = cycle_coloring(n)
    g, c = cg.graph, cg.coloring
    for census in extremal_audit(g, c):
        for j, count in census.by_color_degree.items():
            assert count <= comb(c.k - 1, j)


@given(st.integers(10, 60))
@settings(deadline=None, max_examples=25)
def test_cycle_color_degree_one_has_degree_two_neighbor(n):
    # on cycles, a color-degree-1 vertex always borders a color-degree-2 vertex
    cg = cycle_coloring(n)
    g, c = cg.graph, cg.coloring
    cds = [color_degree(g, c, v) for v in range(g.n)]
    for v in range(g.n):
        if cds[v] == 1:
            assert any(cds[u] == 2 for u in g.adj[v])
