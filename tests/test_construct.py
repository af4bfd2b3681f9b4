"""Constructors: bases, insertion operations, the pipeline, and extremal graphs."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcoloring import (
    FamilySpec,
    Graph,
    InsertionSite,
    a2,
    base_small_coloring,
    caterpillar_extremal,
    chi_closed_form,
    classify,
    color_degree,
    comb_coloring,
    cone_coloring,
    cycle_coloring,
    degree_stats,
    ell,
    family_graph,
    generic_tree_coloring,
    is_1_paired,
    is_nl_coloring,
    neighbor_signature,
    one_paired_cycle_coloring,
    op1_insert,
    op2_insert,
    path_coloring,
    unicyclic_extremal,
)
from nlcoloring.construct import (
    _comb_spine_index,
    _splice_signature_table,
    comb_signature_table,
)


def _contains_run(colors, run):
    doubled = colors + colors
    runs = [doubled[i : i + len(run)] for i in range(len(colors))]
    return tuple(run) in runs or tuple(reversed(run)) in runs


def _cd_count(cg, value):
    return sum(1 for v in range(cg.graph.n)
               if color_degree(cg.graph, cg.coloring, v) == value)


# -- stored bases -----------------------------------------------------------

def test_base_colorings_are_minimum_and_verified():
    for n in range(2, 10):
        cg = base_small_coloring(FamilySpec.path(n))
        assert cg.k == chi_closed_form(FamilySpec.path(n))
    for n in range(3, 10):
        cg = base_small_coloring(FamilySpec.cycle(n))
        assert cg.k == chi_closed_form(FamilySpec.cycle(n))


def test_cycle9_base_properties():
    cg = base_small_coloring(FamilySpec.cycle(9))
    assert cg.coloring.colors == (1, 2, 1, 2, 3, 2, 3, 1, 3)
    assert is_1_paired(cg.graph, cg.coloring)
    assert _contains_run(cg.coloring.colors, (1, 2, 1, 2, 3, 2, 3))


def test_path2_base():
    assert base_small_coloring(FamilySpec.path(2)).coloring.colors == (1, 2)


def test_cycle4_base_uses_four_colors():
    cg = base_small_coloring(FamilySpec.cycle(4))
    assert cg.k == 4 and sorted(cg.coloring.colors) == [1, 2, 3, 4]


def test_base_rejects_out_of_range():
    with pytest.raises(ValueError):
        base_small_coloring(FamilySpec.path(10))
    with pytest.raises(ValueError):
        base_small_coloring(FamilySpec.cycle(10))


# -- insertion operations ----------------------------------------------------

def _cd1_pair_edge(cg, colors_wanted):
    seq = cg.coloring.colors
    n = len(seq)
    for p in range(n):
        q = (p + 1) % n
        if {seq[p], seq[q]} == colors_wanted:
            if (color_degree(cg.graph, cg.coloring, p) == 1
                    and color_degree(cg.graph, cg.coloring, q) == 1):
                return p, q
    raise AssertionError("pair not found")


def test_op1_on_cycle9():
    cg = base_small_coloring(FamilySpec.cycle(9))
    p, q = _cd1_pair_edge(cg, {1, 2})
    out = op1_insert(cg, InsertionSite(edge=(p, q), kind="OP1", colors=(2, 1), h=4))
    assert out.graph.n == 10 and out.k == 4
    assert is_nl_coloring(out.graph, out.coloring).ok


def test_op1_three_times_removes_all_color_degree_one():
    cg = base_small_coloring(FamilySpec.cycle(9))
    for pair in ({1, 2}, {1, 3}, {2, 3}):
        p, q = _cd1_pair_edge(cg, pair)
        cg = op1_insert(cg, InsertionSite(edge=(p, q), kind="OP1",
                                          colors=tuple(sorted(pair)), h=4))
    assert cg.graph.n == 12
    assert _cd_count(cg, 1) == 0


def test_op1_rejects_bad_h():
    cg = base_small_coloring(FamilySpec.cycle(9))
    p, q = _cd1_pair_edge(cg, {1, 2})
    with pytest.raises(ValueError):
        op1_insert(cg, InsertionSite(edge=(p, q), kind="OP1", colors=(2, 1), h=1))


def test_op2_on_a2_cycle():
    cg = one_paired_cycle_coloring(4, 12)
    seq = cg.coloring.colors
    p = next(t for t in range(12) if {seq[t], seq[(t + 1) % 12]} == {1, 2})
    out = op2_insert(cg, InsertionSite(edge=(p, (p + 1) % 12), kind="OP2", colors=(1, 2)))
    assert out.graph.n == 14
    assert _cd_count(out, 1) == 2  # exactly one adjacent color-degree-1 pair


def test_op2_rejects_realized_pair():
    cg = one_paired_cycle_coloring(4, 14)  # one insertion already done (pair {1,2})
    seq = cg.coloring.colors
    n = len(seq)
    eligible = next(
        t for t in range(n)
        if {seq[t], seq[(t + 1) % n]} == {1, 2}
        and color_degree(cg.graph, cg.coloring, t) == 2
        and color_degree(cg.graph, cg.coloring, (t + 1) % n) == 2
    )
    q = (eligible + 1) % n
    with pytest.raises(ValueError):
        op2_insert(cg, InsertionSite(edge=(eligible, q), kind="OP2", colors=(1, 2)))


def test_ops_require_matching_kind():
    cg = base_small_coloring(FamilySpec.cycle(9))
    p, q = _cd1_pair_edge(cg, {1, 2})
    with pytest.raises(ValueError):
        op2_insert(cg, InsertionSite(edge=(p, q), kind="OP1", colors=(2, 1), h=4))


# -- pipeline ----------------------------------------------------------------

def test_pipeline_a2_has_no_color_degree_one():
    cg = one_paired_cycle_coloring(4, 12)
    assert _cd_count(cg, 1) == 0


def test_pipeline_rejects_ell_minus_one():
    with pytest.raises(ValueError):
        one_paired_cycle_coloring(4, 23)
    with pytest.raises(ValueError):
        one_paired_cycle_coloring(4, 9)
    with pytest.raises(ValueError):
        one_paired_cycle_coloring(3, 9)


def test_pipeline_outputs_are_1_paired():
    for k, n in ((4, 13), (4, 18), (4, 24), (5, 25), (5, 31), (5, 50)):
        cg = one_paired_cycle_coloring(k, n)
        assert cg.k == k and cg.graph.n == n
        assert is_1_paired(cg.graph, cg.coloring)


def test_pipeline_full_order_contains_run():
    for k in (4, 5):
        cg = one_paired_cycle_coloring(k, ell(k))
        assert _contains_run(cg.coloring.colors, (1, 2, 1, 2, 3, 2, 3))


def test_op1_phase_decreases_cd1_by_two_per_step():
    lo = ell(3)
    counts = [_cd_count(one_paired_cycle_coloring(4, n), 1) for n in range(lo + 1, a2(4) + 1)]
    assert counts == [4, 2, 0]


def test_op2_phase_increases_cd1_by_two_per_step():
    counts = [_cd_count(one_paired_cycle_coloring(4, n), 1)
              for n in range(a2(4), ell(4) + 1, 2)]
    assert counts == [0, 2, 4, 6, 8, 10, 12]


# -- full path/cycle colorings ------------------------------------------------

def test_cycle_coloring_values():
    assert cycle_coloring(23).k == 5
    assert cycle_coloring(8).k == 4
    assert cycle_coloring(9).k == 3
    with pytest.raises(ValueError):
        cycle_coloring(2)


def test_path_coloring_values():
    assert path_coloring(23).k == 4
    assert path_coloring(12).k == 4
    assert path_coloring(9).k == 3
    with pytest.raises(ValueError):
        path_coloring(1)


@given(st.integers(2, 120))
@settings(deadline=None, max_examples=60)
def test_construction_matches_closed_form(n):
    assert path_coloring(n).k == chi_closed_form(FamilySpec.path(n))
    if n >= 3:
        assert cycle_coloring(n).k == chi_closed_form(FamilySpec.cycle(n))


# sha256 over one "<family> <n> <colors>" line per build, cycle then path,
# for orders 10..400 and every 17th order from 401 to 1536; recorded from the
# recursive pipeline that preceded the iterative one
PIPELINE_DIGEST = "258a49474debb2451c352e46dc63d893997bb4b9b482aa5755cd6073fb026778"


def test_pipeline_sequences_match_pinned_digest():
    digest = hashlib.sha256()
    for n in [*range(10, 401), *range(401, 1537, 17)]:
        for family, build in (("cycle", cycle_coloring), ("path", path_coloring)):
            colors = build(n).coloring.colors
            digest.update(f"{family} {n} {' '.join(map(str, colors))}\n".encode())
    assert digest.hexdigest() == PIPELINE_DIGEST


# -- cones ---------------------------------------------------------------------

def test_cone_small_fans_and_wheels():
    f10 = cone_coloring(path_coloring(9))
    assert f10.graph == family_graph(FamilySpec.fan(10)) and f10.k == 4
    w10 = cone_coloring(cycle_coloring(9))
    assert w10.graph == family_graph(FamilySpec.wheel(10)) and w10.k == 4
    w24 = cone_coloring(cycle_coloring(23))
    assert w24.graph == family_graph(FamilySpec.wheel(24)) and w24.k == 6


# -- comb ----------------------------------------------------------------------

def test_comb_orders_and_values():
    for k, order in ((5, 40), (6, 60), (7, 84)):
        cg = comb_coloring(k)
        assert cg.graph.n == order and cg.k == k
    with pytest.raises(ValueError):
        comb_coloring(4)


def test_comb_signature_table_cross_check():
    # every tabulated cell matches the built coloring (the constructor
    # enforces this too; asserting here keeps the oracle honest)
    for k in (5, 6, 7):
        cg = comb_coloring(k)
        for r in range(1, k + 1):
            for l in range(1, k + 1):
                if r == l:
                    continue
                expected = comb_signature_table(k, r, l)
                if expected is None:
                    continue
                v = _comb_spine_index(k, r, l)
                actual = frozenset(neighbor_signature(cg.graph, cg.coloring, v))
                assert actual == expected, (k, r, l)


def test_comb_nonleaf_census():
    for k in (5, 6):
        cg = comb_coloring(k)
        m = k * (k - 1)
        spine = cg.coloring.colors[:m]
        for color in range(1, k + 1):
            assert spine.count(color) == k - 1
        # same-color non-leaf signatures pairwise distinct
        for color in range(1, k + 1):
            sigs = [neighbor_signature(cg.graph, cg.coloring, v)
                    for v in range(m) if spine[v] == color]
            assert len(set(sigs)) == len(sigs)


# -- extremal unicyclic and caterpillar ----------------------------------------

def test_unicyclic_extremal():
    u6 = unicyclic_extremal(6)
    assert u6.graph.n == 120 and u6.k == 6
    assert degree_stats(u6.graph)[:3] == (30, 60, 30)
    u5 = unicyclic_extremal(5)
    assert u5.graph.n == 70
    with pytest.raises(ValueError):
        unicyclic_extremal(4)


def test_caterpillar_extremal():
    t6 = caterpillar_extremal(6)
    assert t6.graph.n == 118 and t6.k == 6
    assert classify(t6.graph) == "Caterpillar"
    assert caterpillar_extremal(7).graph.n == 187
    with pytest.raises(ValueError):
        caterpillar_extremal(5)


def test_caterpillar_modified_signatures():
    for k in (6, 7):
        # the four comb vertices whose neighborhoods the surgery touches
        t = caterpillar_extremal(k)
        table = _splice_signature_table(k)
        matched = 0
        for (r, l), expected in table.items():
            for v in range(t.graph.n):
                if (t.coloring.colors[v] == l
                        and frozenset(neighbor_signature(t.graph, t.coloring, v)) == expected):
                    matched += 1
                    break
        assert matched == len(table)


# -- generic trees ---------------------------------------------------------------

def test_generic_tree_star():
    cg = generic_tree_coloring(family_graph(FamilySpec.star(7)))
    assert cg.k == 7


def test_generic_tree_double_star():
    cg = generic_tree_coloring(family_graph(FamilySpec.double_star(2, 3)))
    assert cg.graph.n == 7 and cg.k == 4


def test_generic_tree_path5():
    cg = generic_tree_coloring(family_graph(FamilySpec.path(5)))
    assert cg.k == 3  # n - 2 via the shared-triple scheme


def test_generic_tree_rejects_small_or_cyclic():
    with pytest.raises(ValueError):
        generic_tree_coloring(family_graph(FamilySpec.path(4)))
    with pytest.raises(ValueError):
        generic_tree_coloring(family_graph(FamilySpec.cycle(6)))


def _prufer_tree(seq: list[int], n: int) -> Graph:
    """The labeled tree on 0..n-1 with Pruefer sequence seq (len n - 2)."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [u for u in range(n) if degree[u] == 1]
    return Graph(n, edges + [(u, w)])


# sha256 over one "<n>:<colors>" line per tree for 200 random labeled trees
# of order 5..40 (random.Random(2024)); 193 of them take the shared-triple
# coloring, so this pins the distance-4 pair and its midpoint.  Recorded from
# the version that found the midpoint through BFS parent pointers.
GENERIC_TREE_DIGEST = "bf549b63bac515399562e02b45aeed0e3d08e7e162c5970b0a161b5ae668151b"


def test_generic_tree_colorings_are_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(200):
        n = rng.randint(5, 40)
        tree = _prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
        colors = generic_tree_coloring(tree).coloring.colors
        digest.update(f"{n}:{','.join(map(str, colors))}\n".encode())
    assert digest.hexdigest() == GENERIC_TREE_DIGEST


@given(st.integers(5, 40))
@settings(deadline=None, max_examples=30)
def test_generic_tree_value_bound(n):
    cg = generic_tree_coloring(family_graph(FamilySpec.path(n)))
    assert cg.k == n - 2
