"""Constructors: bases, insertion operations, the pipeline, and extremal graphs."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlcoloring import (
    Coloring,
    ConstructionError,
    FamilySpec,
    Graph,
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
    distances,
    ell,
    enumerate_trees,
    family_graph,
    generic_tree_coloring,
    is_1_paired,
    is_nl_coloring,
    neighbor_signature,
    one_paired_cycle_coloring,
    path_coloring,
    unicyclic_extremal,
)
from nlcoloring import construct
from nlcoloring.families import FAMILIES, bracket
from nlcoloring.construct import (
    _comb_spine_index,
    _designated_vertex,
    _find_cd_pair_edge,
    _first_distance4_pair,
    _op1,
    _op2,
    _pipeline_sequence,
    _seq_color_degree,
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
#
# The pipeline's own _op1/_op2, driven on color lists from the stored order-9
# base; every result is certified by is_nl_coloring.

C9 = list(base_small_coloring(FamilySpec.cycle(9)).coloring.colors)


def _cycle_verdict(seq):
    return is_nl_coloring(family_graph(FamilySpec.cycle(len(seq))),
                          Coloring(max(seq), tuple(seq)))


def _cd_edges(seq, cd):
    """Edges p whose endpoints have distinct colors and both color-degree cd."""
    m = len(seq)
    return [p for p in range(m)
            if seq[p] != seq[(p + 1) % m]
            and _seq_color_degree(seq, p) == cd == _seq_color_degree(seq, (p + 1) % m)]


def _c12():
    """C9 grown by OP1 (h = 4) at each of its color-degree-1 pairs."""
    seq = list(C9)
    for p in reversed(_cd_edges(C9, 1)):  # right to left keeps lower positions valid
        _op1(seq, p, 4)
    return seq


def test_op1_on_cycle9():
    eligible = _cd_edges(C9, 1)
    assert [{C9[p], C9[p + 1]} for p in eligible] == [{1, 2}, {2, 3}, {1, 3}]
    for p in eligible:
        seq = list(C9)
        _op1(seq, p, 4)
        assert seq == C9[: p + 1] + [4] + C9[p + 1 :]
        assert _cycle_verdict(seq).ok


def test_op1_three_times_removes_all_color_degree_one():
    seq = _c12()
    assert len(seq) == 12 and _cycle_verdict(seq).ok
    assert all(_seq_color_degree(seq, p) == 2 for p in range(12))
    assert tuple(seq) == one_paired_cycle_coloring(4, 12).coloring.colors


def test_op1_rejects_bad_h():
    for h in (1, 2):  # edge 1 joins colors 2 and 1
        seq = list(C9)
        with pytest.raises(ConstructionError, match="OP1"):
            _op1(seq, 1, h)
        assert seq == C9


def test_op1_rejects_color_degree_two_endpoint():
    for p in (0, 2):  # edge 0 starts, edge 2 ends at a color-degree-2 vertex
        seq = list(C9)
        with pytest.raises(ConstructionError, match="OP1"):
            _op1(seq, p, 4)
        assert seq == C9


def _cd2_edge_colored_12(seq):
    return next(p for p in _cd_edges(seq, 2) if {seq[p], seq[(p + 1) % len(seq)]} == {1, 2})


def test_op2_on_a2_cycle():
    seq = _c12()
    p = _cd2_edge_colored_12(seq)
    _op2(seq, p)
    assert len(seq) == 14 and _cycle_verdict(seq).ok
    # exactly one adjacent color-degree-1 pair, the inserted one
    assert [t for t in range(14) if _seq_color_degree(seq, t) == 1] == [p + 1, p + 2]


def test_op2_rejects_realized_pair():
    # OP2 checks its endpoints only; a second {1,2} insertion clashes with the first
    seq = _c12()
    _op2(seq, _cd2_edge_colored_12(seq))
    _op2(seq, _cd2_edge_colored_12(seq))
    assert _cycle_verdict(seq).reason == "DuplicateSignature"


def test_op2_rejects_color_degree_one_pair():
    for p in _cd_edges(C9, 1):
        seq = list(C9)
        with pytest.raises(ConstructionError, match="OP2"):
            _op2(seq, p)
        assert seq == C9


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


# -- the pipeline's scans, against the linear scans they replaced ---------------

def _linear_cd_pair_edge(seq, pair, cd):
    """Lowest edge p whose endpoints have the colors of pair and both
    color-degree cd, or None: the scan from position 0 of the list."""
    m = len(seq)
    i, j = pair
    for p in range(m):
        q = (p + 1) % m
        if (((seq[p] == i and seq[q] == j) or (seq[p] == j and seq[q] == i))
                and _seq_color_degree(seq, p) == cd
                and _seq_color_degree(seq, q) == cd):
            return p
    return None


def _linear_designated_vertex(seq):
    m = len(seq)
    return next((p for p in range(m)
                 if seq[p] == 2 and {seq[p - 1], seq[(p + 1) % m]} == {1, 3}), None)


def test_pair_edge_scan_agrees_on_every_pipeline_query(monkeypatch):
    queries = {}
    find = construct._find_cd_pair_edge

    def recorded(seq, pair, cd):
        queries[bytes(seq), pair, cd] = p = find(seq, pair, cd)
        return p

    monkeypatch.setattr(construct, "_find_cd_pair_edge", recorded)
    for n in range(10, 401):
        k = bracket(n)
        if n != ell(k) - 1:  # the builds of that order run the pipeline to ell(k)-2 or ell(k)
            _pipeline_sequence(k, n)
    assert {cd for _, _, cd in queries} == {1, 2} and len(queries) > 300
    for (seq, pair, cd), p in queries.items():
        assert p == _linear_cd_pair_edge(seq, pair, cd), (seq, pair, cd)


@given(st.lists(st.integers(1, 4), min_size=3, max_size=30),
       st.sampled_from([(1, 2), (1, 3), (2, 3), (2, 4)]), st.sampled_from([1, 2]))
# only the closing edge 3 joins colors 1 and 2 at color-degree 2
@example([1, 3, 4, 2], (1, 2), 2)
# every edge joining 1 and 2 has color-degree-1 endpoints: no eligible edge
@example([1, 2, 1, 2], (1, 2), 2)
# edge 1 fails at its second endpoint only; edge 5 is the answer
@example([3, 1, 2, 1, 4, 1, 2, 3], (1, 2), 2)
# the orientation (2, 1) at edge 1 comes before (1, 2) at edge 4
@example([3, 2, 1, 4, 1, 2, 3, 4], (1, 2), 2)
@settings(deadline=None, max_examples=300)
def test_pair_edge_scan_agrees_on_drawn_color_lists(colors, pair, cd):
    expected = _linear_cd_pair_edge(colors, pair, cd)
    if expected is None:
        with pytest.raises(ConstructionError, match="no eligible edge"):
            _find_cd_pair_edge(bytearray(colors), pair, cd)
    else:
        assert _find_cd_pair_edge(bytearray(colors), pair, cd) == expected


@given(st.lists(st.integers(1, 3), min_size=3, max_size=30))
@example([2, 3, 1, 1])  # vertex 0, between the last and the second
@example([3, 1, 1, 2])  # the last vertex, between the one before and the first
@settings(deadline=None, max_examples=200)
def test_designated_vertex_agrees_on_drawn_color_lists(colors):
    expected = _linear_designated_vertex(colors)
    for seq in (colors, bytearray(colors), tuple(colors)):
        if expected is None:
            with pytest.raises(ConstructionError, match="no vertex colored 2"):
                _designated_vertex(seq)
        else:
            assert _designated_vertex(seq) == expected


class _Inserted(Exception):
    pass


def test_orders_past_one_byte_colors_are_refused_before_any_insertion(monkeypatch):
    # ell(255) = 8,258,175 is the largest order whose colors fit in a byte;
    # no insertion may run before the refusal, and the largest order allowed
    # gets as far as its first one
    def insertion(*args):
        raise _Inserted

    monkeypatch.setattr(construct, "_op1", insertion)
    for build in (cycle_coloring, path_coloring):
        with pytest.raises(ValueError, match=r"256 colors .* ell\(255\) = 8258175"):
            build(8_258_176)
        with pytest.raises(_Inserted):
            build(8_258_175)
    with pytest.raises(ValueError, match="256 colors"):
        one_paired_cycle_coloring(256, ell(256))


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
                if r == l:  # no such cell
                    with pytest.raises(ValueError, match="own leaf color"):
                        comb_signature_table(k, r, l)
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
    # a star of any order, the family's orders 3 and 4 included, takes n colors
    stars = [Graph(1, []), Graph(2, [(0, 1)])]
    stars += [family_graph(FamilySpec.star(n)) for n in (3, 4, 7)]
    for star in stars:
        cg = generic_tree_coloring(star)
        assert cg.coloring.colors == tuple(range(1, star.n + 1)), star.n


def test_generic_tree_double_star():
    cg = generic_tree_coloring(family_graph(FamilySpec.double_star(2, 3)))
    assert cg.graph.n == 7 and cg.k == 4


def test_generic_tree_path5():
    cg = generic_tree_coloring(family_graph(FamilySpec.path(5)))
    assert cg.k == 3  # n - 2 via the shared-triple scheme


def test_generic_tree_rejects_small_or_cyclic():
    # P4, the one tree of order below 5 that is not a star, would take the
    # double-star rule's two colors, and chi(P4) = 3
    with pytest.raises(ValueError, match="stars and to trees of order >= 5"):
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


def _subdivided_star(m: int) -> Graph:
    """K_{1,m} with every edge subdivided, labelled center 0, then the m
    inner vertices, then the m leaves: only the leaves have eccentricity 4."""
    return Graph(2 * m + 1, [(0, i) for i in range(1, m + 1)]
                 + [(i, m + i) for i in range(1, m + 1)])


def _distance4_pair_by_brute_force(t: Graph):
    dist = [distances(t, v) for v in range(t.n)]
    for x in range(t.n):
        for y in range(t.n):
            if dist[x][y] == 4:
                b = next(v for v in range(t.n) if dist[x][v] == dist[v][y] == 2)
                return x, b, y
    return None


def test_first_distance4_pair_matches_brute_force():
    trees = [t for n in range(5, 11) for t in enumerate_trees(n)]
    for t in trees + [_subdivided_star(60)]:
        expected = _distance4_pair_by_brute_force(t)
        if expected is None:
            with pytest.raises(ValueError, match="diameter below 4"):
                _first_distance4_pair(t)
        else:
            assert _first_distance4_pair(t) == expected, t.sorted_edges()


@given(st.integers(5, 40))
@settings(deadline=None, max_examples=30)
def test_generic_tree_value_bound(n):
    cg = generic_tree_coloring(family_graph(FamilySpec.path(n)))
    assert cg.k == n - 2


# -- the named families --------------------------------------------------------

FAMILY_SAMPLES = [FamilySpec.path(14), FamilySpec.cycle(24), FamilySpec.fan(11),
                  FamilySpec.wheel(25), FamilySpec.comb(20), FamilySpec.star(6),
                  FamilySpec.double_star(2, 3), FamilySpec.unicyclic(5),
                  FamilySpec.caterpillar(6)]


def test_family_samples_cover_every_family():
    assert {spec.family for spec in FAMILY_SAMPLES} == set(FAMILIES)


@pytest.mark.parametrize("spec", FAMILY_SAMPLES, ids=FamilySpec.label)
def test_family_coloring_colors_the_family_graph(spec):
    cg = construct.family_coloring(spec)
    assert cg.graph == family_graph(spec) and is_nl_coloring(cg.graph, cg.coloring).ok
    assert cg.k == (5 if spec.family == "comb" else chi_closed_form(spec))


@pytest.mark.parametrize("m", [3, 6, 12, 19, 21, 31, 10**300 + 1])
def test_family_coloring_refuses_comb_sizes_not_k_k_minus_1(m):
    # k(k-1) for k = 3 and 4, the neighbours of 20 and 30, and a size that a
    # scan over k would take forever to reject
    with pytest.raises(ValueError, match=r"spine sizes k\(k-1\) with k >= 5"):
        construct.family_coloring(FamilySpec.comb(m))


# sha256 over one "<label> <edges> <colors>" line per build of family_coloring,
# the edges as u-v in wire order: the combs for k = 5..9, the extremal
# unicyclic graphs for k = 5..9 and caterpillars for k = 6..9, and stars,
# double stars, fans and wheels at a few orders (a stored base, the order
# ell(4)-1 and a pipeline order for the cones).  Recorded from the version
# whose constructions also returned a trace of their insertions.
FAMILY_DIGEST_SPECS = ([FamilySpec.comb(k * (k - 1)) for k in range(5, 10)]
                       + [FamilySpec.unicyclic(k) for k in range(5, 10)]
                       + [FamilySpec.caterpillar(k) for k in range(6, 10)]
                       + [FamilySpec.star(n) for n in (3, 4, 7)]
                       + [FamilySpec.double_star(r, s) for r, s in ((1, 2), (2, 3), (3, 3))]
                       + [FamilySpec.fan(n) for n in (6, 24, 51)]
                       + [FamilySpec.wheel(n) for n in (7, 24, 51)])
FAMILY_DIGEST = "db52cc5fb65e4d797a3db8b844ddadc21005e157b4a10fd8ce9c47f5a95b7759"

# the same lines for the comb, the extremal unicyclic graph and the
# caterpillar at k = 10, 11 and 12, recorded from the version that built the
# caterpillar by surgery on the finished unicyclic graph
SPLICE_DIGEST_SPECS = ([FamilySpec.comb(k * (k - 1)) for k in (10, 11, 12)]
                       + [FamilySpec.unicyclic(k) for k in (10, 11, 12)]
                       + [FamilySpec.caterpillar(k) for k in (10, 11, 12)])
SPLICE_DIGEST = "c5ff69a452bccfb0a7f5b0b18bd9c5cd5c67fc21b7dedbe217692e4d4686c612"


def _family_digest(specs):
    digest = hashlib.sha256()
    for spec in specs:
        cg = construct.family_coloring(spec)
        edges = " ".join(f"{u}-{v}" for u, v in cg.graph.edges)
        colors = ",".join(map(str, cg.coloring.colors))
        digest.update(f"{spec.label()} {edges} {colors}\n".encode())
    return digest.hexdigest()


def test_family_colorings_are_pinned():
    assert _family_digest(FAMILY_DIGEST_SPECS) == FAMILY_DIGEST


def test_splices_past_k_9_are_pinned():
    assert _family_digest(SPLICE_DIGEST_SPECS) == SPLICE_DIGEST


# -- the constructions' self-checks ---------------------------------------------
#
# Each check fires on a broken input or on a monkeypatched table, so a
# construction that stops checking fails here.

def test_certified_refuses_a_coloring_that_is_not_neighbor_locating():
    with pytest.raises(ConstructionError,
                       match=r"^self-verification failed \(DuplicateSignature at \(\d+, \d+\)\)$"):
        construct._colored("cycle", (1, 2) * 3)


def test_comb_refuses_a_signature_off_its_table(monkeypatch):
    table = construct.comb_signature_table
    monkeypatch.setattr(construct, "comb_signature_table",
                        lambda k, r, l: frozenset() if (r, l) == (2, 1) else table(k, r, l))
    with pytest.raises(ConstructionError,
                       match=r"comb signature mismatch at group 2, color 1: built \[2, 3, 5\], "
                             r"expected \[\]"):
        comb_coloring(5)


def test_caterpillar_refuses_a_signature_off_its_table(monkeypatch):
    table = construct._splice_signature_table
    monkeypatch.setattr(construct, "_splice_signature_table",
                        lambda k: {**table(k), (2, k): frozenset({1})})
    with pytest.raises(ConstructionError,
                       match=r"caterpillar signature mismatch at group 2, color 6: "
                             r"built \[1, 2, 4\], expected \[1\]"):
        caterpillar_extremal(6)


def test_unicyclic_refuses_a_splice_of_another_class(monkeypatch):
    monkeypatch.setattr(construct, "classify", lambda graph: "Other")
    with pytest.raises(ConstructionError, match="splice did not produce a unicyclic graph"):
        unicyclic_extremal(5)
