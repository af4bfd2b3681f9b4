"""Exact solver: decision procedure, exact values, determinism."""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from nlcoloring import (
    FamilySpec,
    Graph,
    chi_closed_form,
    chi_lower_bound,
    chi_nl_exact,
    conjecture_sweep,
    connected_graphs,
    enumerate_trees,
    exists_nl_coloring,
    family_graph,
    is_nl_coloring,
    twin_classes,
)
from nlcoloring import solver
from nlcoloring.solver import CHECK_EVERY, _Budget


def test_exists_examples():
    assert exists_nl_coloring(family_graph(FamilySpec.cycle(6)), 3)[0] is False
    feasible, witness = exists_nl_coloring(family_graph(FamilySpec.path(9)), 3)
    assert feasible and witness.k == 3
    assert is_nl_coloring(family_graph(FamilySpec.path(9)), witness).ok
    assert exists_nl_coloring(family_graph(FamilySpec.star(5)), 4)[0] is False
    with pytest.raises(ValueError):
        exists_nl_coloring(family_graph(FamilySpec.path(2)), 0)


def test_exists_raises_timeout_when_the_budget_runs_out():
    # k = 5 on the comb of spine 20 gets no answer in 7 million nodes
    # (20 s), so the budget runs out on any host
    g = family_graph(FamilySpec.comb(20))
    with pytest.raises(TimeoutError):
        exists_nl_coloring(g, 5, budget=_Budget(0.01))


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
    result = chi_nl_exact(g, max_k=4)
    assert result.status == "CappedOut"
    assert result.chi is None and result.witness is None


def test_timed_out():
    g = family_graph(FamilySpec.cycle(40))
    result = chi_nl_exact(g, time_budget=0.0)
    assert result.status == "TimedOut"
    assert result.chi is None


@pytest.mark.parametrize("solve,error,match", [
    (lambda g: chi_nl_exact(g, max_k=0), ValueError, "max_k"),
    (lambda g: chi_nl_exact(g, max_k=-3), ValueError, "max_k"),
    (lambda g: chi_nl_exact(g, time_budget=float("nan")), ValueError, "budget"),
    (lambda g: chi_nl_exact(g, time_budget=-1.0), ValueError, "budget"),
    (lambda g: conjecture_sweep("delta", 4, time_budget=float("nan")), TypeError, "budget"),
    (lambda g: conjecture_sweep("diameter", 4, time_budget=-1.0), TypeError, "budget"),
], ids=["max-k-0", "max-k-negative", "budget-nan", "budget-negative",
        "sweep-budget-nan", "sweep-budget-negative"])
def test_options_out_of_range_are_rejected(solve, error, match, monkeypatch):
    # nan would never expire, a negative budget would time out at once, and
    # no graph can meet a cap below one color.  Each is refused before any
    # search: a search that starts fails the test.  A sweep takes no budget
    # at all, so its call is refused whatever the value
    def no_search(*args):
        raise AssertionError("searched with a cap or budget out of range")

    monkeypatch.setattr(solver, "_search", no_search)
    with pytest.raises(error, match=match):
        solve(family_graph(FamilySpec.cycle(7)))


def test_cap_of_one_color_is_accepted():
    result = chi_nl_exact(family_graph(FamilySpec.path(2)), max_k=1)
    assert result.status == "CappedOut"


def test_timed_out_inside_the_search():
    # time_budget=0.0 trips the check before the search starts; this one
    # trips the check that the search makes every CHECK_EVERY nodes.  The
    # comb of spine 20 has lower bound 5, and k = 5 gets no answer in
    # 7 million nodes (20 s), so the budget runs out on any host
    g = family_graph(FamilySpec.comb(20))
    assert chi_lower_bound(g) == 5
    result = chi_nl_exact(g, time_budget=0.05)
    assert result.status == "TimedOut"
    assert result.chi is None
    assert result.nodes_explored >= CHECK_EVERY


@pytest.mark.parametrize("spec,chi,nodes,digest", [
    (FamilySpec.path(1100), 14, 8_254,
     "a0bce12b6ba123e08e8fde79a330c88a2045b363b257004acd72baa5d0baeb06"),
    # the memo files 452 states here, each with up to 1,104 pairs in used,
    # and has no hit
    (FamilySpec.cycle(1100), 14, 7_943,
     "42d073e5f75022f573551bc35254f09a0ef33614066ea6002d791388d80fb040"),
    (FamilySpec.path(3000), 19, 29_959,
     "1f83a0c53f7344da4851445b5204d4a73d04c78c55229344c526f1302657731f"),
], ids=["P1100", "C1100", "P3000"])
def test_deep_instances_match_closed_form(spec, chi, nodes, digest):
    # past ell(13) = 1014 the closed forms need orders above 1000, so the
    # search depth must not be bounded by the interpreter's recursion limit.
    # The node counts and the witnesses (a sha256 of the colors joined by
    # commas) are pinned like the small searches below
    result = chi_nl_exact(family_graph(spec))
    assert (result.chi, result.status, result.nodes_explored) == (chi, "Exact", nodes)
    assert result.chi == chi_closed_form(spec)
    colors = ",".join(map(str, result.witness.colors))
    assert hashlib.sha256(colors.encode()).hexdigest() == digest


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
# a tree whose lower bound (4) is one below its value: 814 of its 844
# nodes refute k = 4
TREE_16 = Graph(16, [
    (0, 6), (1, 4), (1, 11), (1, 15), (2, 7), (3, 6), (5, 11), (6, 7), (6, 12),
    (6, 13), (7, 10), (8, 12), (9, 12), (11, 13), (11, 14)])
ANCHOR_UNICYCLIC_20 = Graph(20, [
    (0, 15), (0, 17), (1, 3), (1, 9), (1, 12), (1, 18), (2, 3), (2, 15),
    (3, 19), (4, 7), (4, 13), (5, 8), (5, 13), (5, 16), (5, 18), (6, 8),
    (6, 17), (10, 16), (11, 15), (14, 16)])
# the spider of 7 legs of length 3: its lower bound (4) is one below its
# value, and refuting k = 4 passes CHECK_EVERY nodes, so the memo is on for
# most of it
SPIDER_7X3 = Graph(22, [(0 if i % 3 == 1 else i - 1, i) for i in range(1, 22)])


@pytest.mark.parametrize("g,chi,nodes,colors", [
    (family_graph(FamilySpec.cycle(23)), 5, 58,  # the lower bound starts it at k = 5
     [1, 2, 1, 3, 1, 4, 1, 2, 4, 2, 4, 3, 5, 2, 3, 2, 4, 1, 4, 3, 1, 3, 2]),
    (family_graph(FamilySpec.wheel(12)), 5, 41,
     [2, 3, 2, 3, 4, 2, 3, 5, 2, 4, 5, 1]),
    (family_graph(FamilySpec.path(24)), 4, 28_671,
     [3, 1, 2, 1, 2, 3, 1, 4, 1, 2, 4, 1, 4, 3, 2, 3, 2, 4, 2, 4, 3, 4, 3, 1]),
    (family_graph(FamilySpec.fan(30)), 6, 142,
     [6, 2, 3, 2, 3, 4, 2, 3, 5, 2, 3, 6, 2, 4, 2, 4, 5, 2, 4, 6, 2, 5, 2, 5, 6, 3, 4, 3,
      5, 1]),
    (ANCHOR_TREE_20, 4, 73,
     [1, 1, 3, 1, 3, 3, 2, 1, 2, 2, 1, 3, 2, 4, 4, 2, 4, 2, 3, 4]),
    (ANCHOR_UNICYCLIC_20, 4, 56,
     [3, 1, 1, 2, 4, 4, 3, 2, 1, 2, 1, 4, 3, 1, 2, 2, 3, 4, 2, 3]),
    (TREE_16, 5, 844,  # refutes k = 4 exhaustively
     [2, 1, 1, 3, 4, 1, 1, 2, 4, 5, 3, 4, 2, 2, 2, 5]),
    (SPIDER_7X3, 5, 143_675,  # refutes k = 4 exhaustively, with the memo on
     [1, 2, 1, 4, 2, 3, 2, 2, 4, 1, 2, 5, 1, 3, 1, 5, 3, 2, 4, 3, 4, 2]),
], ids=["C23", "W12", "P24", "F30", "anchor-tree-20", "anchor-unicyclic-20", "tree-16",
        "spider-7x3"])
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


# three order-14 graphs of the exact benchmark workload (a tree of seed 4,
# a unicyclic graph of seed 37 and a tree of seed 26), written out like the
# anchors: a leaf check whose rejections read neither the holders of the
# pairs in use (the first two) nor the depths of the waiting leaves'
# neighbours (the third) jumps back past the first witness on them
LEAF_JUMPS = [
    Graph(14, [(0, 11), (1, 8), (1, 9), (1, 11), (2, 6), (3, 7), (3, 11), (4, 6), (5, 8),
               (6, 10), (8, 13), (9, 12), (10, 13)]),
    Graph(14, [(0, 3), (1, 2), (2, 10), (3, 4), (3, 12), (4, 9), (5, 7), (6, 10), (7, 10),
               (7, 11), (8, 13), (9, 11), (10, 11), (11, 13)]),
    Graph(14, [(0, 10), (0, 12), (1, 2), (1, 10), (1, 11), (2, 4), (2, 9), (3, 4), (4, 6),
               (5, 6), (6, 8), (7, 12), (12, 13)]),
]


@pytest.mark.parametrize("g", LEAF_JUMPS, ids=["tree-4", "unicyclic-37", "tree-26"])
def test_leaf_check_keeps_the_first_witness(g, monkeypatch):
    # the leaf check cuts only subtrees without a solution, and so do the
    # jumps back from its rejections: the search without it, its schedule
    # listing no waiting leaf, finds the same chi and witness
    found = chi_nl_exact(g)
    schedule = solver._schedule

    def without_leaves(g, twins=None):
        return (*schedule(g, twins)[:-1], [[]] * g.n)

    monkeypatch.setattr(solver, "_schedule", without_leaves)
    assert chi_nl_exact(g)[:3] == found[:3]


def test_node_total_over_small_trees_is_pinned():
    # witness search on every tree up to order 11, where the search order
    # decides how soon signatures close; lower the pin when it shrinks
    total = sum(chi_nl_exact(g).nodes_explored
                for n in range(1, 12) for g in enumerate_trees(n))
    assert total == 10_815


def test_node_total_over_small_connected_graphs_is_pinned():
    # the diameter sweep's universe, every connected graph of order 2 to 7,
    # where dense graphs make the properness prune fire
    total = sum(chi_nl_exact(g).nodes_explored
                for n in range(2, 8) for g in connected_graphs(n))
    assert total == 31_016


@pytest.mark.parametrize("legs,nodes", [(10, 57), (11, 64)], ids=["10-legs", "11-legs"])
def test_spiders_start_at_their_value(legs, nodes):
    # the spider of 10 or 11 legs of length 2 has order <= max_order(4),
    # but its centre has more neighbours of degree 2 than cap(2) = 9 allows
    # at k = 4, so the neighbour bound starts the search at chi = 5.  The
    # witness search jumps back past the legs that a clash does not read,
    # and the leaf check keeps each color on at most k - 1 legs' middles
    g = Graph(2 * legs + 1, [(0 if i % 2 else i - 1, i) for i in range(1, 2 * legs + 1)])
    result = chi_nl_exact(g)
    assert (chi_lower_bound(g), result.chi, result.status) == (5, 5, "Exact")
    assert result.nodes_explored == nodes


@pytest.mark.parametrize("legs", [10, 11], ids=["10-legs", "11-legs"])
def test_search_alone_refutes_four_colors_on_the_spiders(legs):
    # exists_nl_coloring reads no lower bound.  The tips on the middles of
    # one color need distinct other colors, so the leaf check rejects a
    # fourth middle of a color at its own depth; without the check the
    # refutation took 1,230,889 / 3,684,567 nodes
    g = Graph(2 * legs + 1, [(0 if i % 2 else i - 1, i) for i in range(1, 2 * legs + 1)])
    budget = _Budget(None)
    assert exists_nl_coloring(g, 4, budget=budget) == (False, None)
    assert budget.nodes == 3_504


@pytest.mark.parametrize("m", range(1, 12))
def test_leaves_on_one_vertex_fill_its_pairs(m):
    # the m leaves of K_{1,m} all have the signature {c}, c the centre's
    # color, so they need m distinct colors other than c: k = m + 1 is
    # just enough, and at k = m the leaf check rejects the centre's one
    # color at depth 0, in one node (m + 1 without the check)
    g = Graph(m + 1, [(0, leaf) for leaf in range(1, m + 1)])
    budget = _Budget(None)
    assert exists_nl_coloring(g, m, budget=budget) == (False, None)
    assert budget.nodes == 1
    found, witness = exists_nl_coloring(g, m + 1)
    assert found and witness.k == m + 1 and is_nl_coloring(g, witness).ok


def test_leaf_check_memory_stays_linear_in_k():
    # the twin bound starts K_{1,1499} at k = 1500, where the leaf check
    # counts 1,499 pairs ({c}, x) at depth 0.  It builds each pair as it
    # reads it: a table of all k(k - 1) pairs would hold about 2.2M ints of
    # up to 3,000 bits (over 500 MB), where this solve peaks near 2 MB
    n = 1_500
    g = Graph(n, [(0, leaf) for leaf in range(1, n)])
    tracemalloc.start()
    try:
        result = chi_nl_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.chi, result.status, result.nodes_explored) == (n, "Exact", n + 1)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("g,nodes", [
    (family_graph(FamilySpec.wheel(12)), (41, 41)), (family_graph(FamilySpec.cycle(12)), (26, 26)),
    (family_graph(FamilySpec.fan(9)), (95, 91)), (family_graph(FamilySpec.cycle(23)), (58, 58)),
    (family_graph(FamilySpec.cycle(8)), (17, 17)),
    (Graph(6, [(u, 3 + v) for u in range(3) for v in range(3)]), (27, 27)),
    (TREE_16, (844, 844)),
], ids=["W12", "C12", "F9", "C23", "C8", "K3,3", "tree-16"])
def test_attempts_share_one_node_count(g, nodes, monkeypatch):
    # one exists_nl_coloring per k from the lower bound up, on one budget,
    # is the same search as chi_nl_exact: the per-k replay of the benchmark
    # depends on that.  K3,3 refutes two k first (lower bound 4, value 6)
    # and the order-16 tree one (the lower bound starts the others at their
    # value).  No search here passes CHECK_EVERY nodes, so each runs once
    # as it is and once with the memo of failed states on from the first node
    for check_every, pinned in zip((solver.CHECK_EVERY, 1), nodes):
        monkeypatch.setattr(solver, "CHECK_EVERY", check_every)
        result = chi_nl_exact(g)
        budget = _Budget(None)
        found = [exists_nl_coloring(g, k, budget=budget)
                 for k in range(chi_lower_bound(g), result.chi + 1)]
        assert [ok for ok, _ in found] == [False] * (len(found) - 1) + [True]
        assert found[-1][1] == result.witness
        assert budget.nodes == result.nodes_explored == pinned


@pytest.mark.parametrize("spec", [
    *(FamilySpec.cycle(n) for n in range(3, 41)),
    *(FamilySpec.path(n) for n in range(2, 31)),
    *(FamilySpec.fan(n) for n in range(4, 31)),
    *(FamilySpec.wheel(n) for n in range(4, 31)),
], ids=lambda spec: spec.label())
def test_memo_keeps_the_closed_forms(spec, monkeypatch):
    # with the memo on from the first node (it switches on once a search
    # passes CHECK_EVERY nodes), the paper's values still come out
    monkeypatch.setattr(solver, "CHECK_EVERY", 1)
    g = family_graph(spec)
    result = chi_nl_exact(g)
    assert (result.chi, result.status) == (chi_closed_form(spec), "Exact")


@pytest.mark.parametrize("spec", [
    *(FamilySpec.fan(n) for n in range(4, 31)),
    *(FamilySpec.wheel(n) for n in range(4, 31)),
], ids=lambda spec: spec.label())
def test_search_alone_refutes_one_color_below_fans_and_wheels(spec):
    # chi_nl_exact starts fans and wheels at their value, by the cone step
    # of the lower bound; exists_nl_coloring reads no lower bound, so the
    # paper's values are still checked by an exhausted search
    assert exists_nl_coloring(family_graph(spec), chi_closed_form(spec) - 1)[0] is False


@pytest.mark.parametrize("check_every", [solver.CHECK_EVERY, 1], ids=["memo", "memo-first"])
@pytest.mark.parametrize("n,k,nodes", [
    (4, 3, (6, 6)), (6, 3, (42, 42)), (8, 3, (96, 96)), (23, 4, (271_336, 267_584)),
], ids=["C4", "C6", "C8", "C23"])
def test_search_alone_refutes_the_exceptional_cycles(n, k, nodes, check_every, monkeypatch):
    # chi_nl_exact starts the cycle of order ell(k) - 1, and at k = 3 each
    # cycle of even order, at k + 1, by the cycle bound of the lower bound;
    # exists_nl_coloring reads no lower bound, so the paper's value is
    # still checked by an exhausted search, with the memo of failed states
    # on past CHECK_EVERY nodes and from the first node
    monkeypatch.setattr(solver, "CHECK_EVERY", check_every)
    budget = _Budget(None)
    assert exists_nl_coloring(family_graph(FamilySpec.cycle(n)), k, budget=budget) == (False, None)
    assert budget.nodes == nodes[check_every == 1]


# every connected graph up to order 6: stars, complete and complete
# bipartite graphs among them, so twin classes of every kind
SMALL_GRAPHS = [pytest.param(g, id=f"atlas-{n}-{i}")
                for n in range(1, 7) for i, g in enumerate(connected_graphs(n))]


@pytest.mark.parametrize("g", SMALL_GRAPHS)
def test_a_color_cap_decides_as_exists_does(g):
    # exists_nl_coloring takes no time budget; chi_nl_exact with the cap k
    # is the same decision, and Exact exactly when k colors suffice
    chi = chi_nl_exact(g).chi
    for k in (chi - 1, chi):
        if k >= 1:
            assert (chi_nl_exact(g, max_k=k).status == "Exact") == exists_nl_coloring(g, k)[0]


def _schedule_by_definition(g: Graph) -> solver._Schedule:
    """``_schedule(g)`` recomputed from its definition, vertex by vertex."""
    key = {v: (-len(g.adj[v]), v) for v in range(g.n)}  # descending degree, then index
    order = [min(range(g.n), key=key.__getitem__)]
    for v in order:  # breadth-first; grows while it is walked
        order += [u for u in sorted(g.adj[v], key=key.__getitem__) if u not in order]
    pos = {v: d for d, v in enumerate(order)}
    earlier = [[u for u in g.adj[v] if pos[u] < d] for d, v in enumerate(order)]
    final_at = [[] for _ in range(g.n)]
    for w in range(g.n):  # increasing w, so each list is in increasing order
        final_at[max(pos[u] for u in (w, *g.adj[w]))].append(w)
    twin_class = {v: members for members in twin_classes(g) for v in members}
    twin = []
    for d, v in enumerate(order):
        before = [u for u in twin_class.get(v, ()) if pos[u] < d]
        twin.append(max(before, key=pos.__getitem__) if before else g.n)
    closed = [sum(1 << pos[u] for u in (w, *g.adj[w])) for w in range(g.n)]
    reasons = []
    for d in range(g.n):
        depths = {d, *(pos[u] for u in earlier[d])}
        if twin[d] < g.n:
            depths.add(pos[twin[d]])
        reasons.append(sum(1 << e for e in depths))
    leaves = [(pos[g.adj[w][0]], pos[w]) for w in range(g.n)  # (neighbour's depth, own)
              if len(g.adj[w]) == 1 and pos[g.adj[w][0]] < pos[w]]
    waiting = [sorted(e for e, f in leaves if e <= d < f) if any(e == d for e, _ in leaves)
               else [] for d in range(g.n)]
    return order, earlier, final_at, twin, closed, reasons, waiting


@pytest.mark.parametrize("universe", ["atlas", "trees", "C23", "F30", "P3000"])
def test_schedule_matches_its_definition(universe):
    # order: breadth-first from the highest-degree vertex, lowest index on
    # ties, each vertex's neighbours by descending degree, then index;
    # earlier[d]: the neighbours of order[d] placed before depth d, in
    # increasing order; final_at[d]: the vertices, in increasing order,
    # whose closed neighbourhood has its largest position at d; twin[d]:
    # the twin of order[d] last before it in the order, or n; closed[w]: the
    # depths of w's closed neighbourhood as a mask; reasons[d]: the depths of
    # order[d], its earlier neighbours and its earlier twin; waiting[d], where a leaf
    # placed after order[d] hangs on it: the neighbour's depth of each leaf
    # placed after depth d whose neighbour is placed by then, in increasing
    # order, and empty elsewhere
    graphs = {
        "atlas": [g for n in range(1, 8) for g in connected_graphs(n)],
        "trees": [g for n in range(1, 11) for g in enumerate_trees(n)],
        "C23": [family_graph(FamilySpec.cycle(23))],
        "F30": [family_graph(FamilySpec.fan(30))],
        "P3000": [family_graph(FamilySpec.path(3000))],
    }[universe]
    for g in graphs:
        assert solver._schedule(g) == _schedule_by_definition(g), g.sorted_edges()


def _front_by_definition(g: Graph) -> list[set[int]]:
    """The memo's front at each depth, from its definition: each vertex from
    the first depth after one that touches it (colors it or a neighbour) to
    the last that reads it, where its signature closes or where its next
    twin checks its color."""
    order = solver._schedule(g)[0]
    pos = {v: d for d, v in enumerate(order)}
    checked_at = {}
    for members in twin_classes(g):
        members = sorted(members, key=pos.__getitem__)
        checked_at.update((u, pos[w]) for u, w in zip(members, members[1:]))
    reach = {w: [pos[u] for u in (w, *g.adj[w])] for w in range(g.n)}
    return [{w for w in range(g.n)
             if min(reach[w]) < d <= max(max(reach[w]), checked_at.get(w, 0))}
            for d in range(g.n)]


@pytest.mark.parametrize("g", SMALL_GRAPHS)
def test_memo_schedule_reads_the_twins(g):
    _, _, _, twin, closed, _, _ = solver._schedule(g)
    front = solver._Memo(g.adj, g.n, closed, twin).front  # k sets only the pair shift
    assert list(map(set, front)) == _front_by_definition(g)


@pytest.mark.parametrize("g", SMALL_GRAPHS)
def test_memo_keys_straddled_depths_as_they_are(g, monkeypatch):
    # a state hits the memo exactly when a state of the same call with the
    # same depth, limit, used and (signature so far, color) pairs of the
    # front was filed before it.  The colors are compared as they are at
    # every depth: where a twin class straddles the depth, twin order reads
    # color values, so a key up to renaming the colors would be unsound
    front, seen, filed = _front_by_definition(g), solver._Memo.seen, {}

    def checked(memo, depth, bits, top, used):
        pairs = []
        for w in sorted(front[depth]):
            sig = 0
            for u in g.adj[w]:
                sig |= bits[u]
            pairs.append((sig, bits[w]))
        key = (depth, top, used, tuple(pairs))
        met = filed.setdefault(memo, set())
        hit = seen(memo, depth, bits, top, used)
        assert hit == (key in met), (depth, g.sorted_edges())
        met.add(key)
        return hit

    monkeypatch.setattr(solver._Memo, "seen", checked)
    monkeypatch.setattr(solver, "CHECK_EVERY", 1)
    chi_nl_exact(g)
    assert filed or g.n == 1  # a single vertex enters no depth past the first


@pytest.mark.parametrize("g", [Graph(21, [(0 if i % 2 else i - 1, i) for i in range(1, 21)]),
                               TREE_16, ANCHOR_UNICYCLIC_20],
                         ids=["spider-10", "tree-16", "anchor-unicyclic-20"])
def test_memo_reads_no_color_at_or_past_its_depth(g, monkeypatch):
    # the memo keys the state entering a depth by, among others, the
    # signatures so far of vertices colored from that depth on, so those
    # must all be uncolored: a jump back clears the colors of the depths it
    # skips.  These searches jump, and the memo is on from the first node
    order = solver._schedule(g)[0]
    seen, depths = solver._Memo.seen, []

    def checked(memo, depth, bits, top, used):
        assert not any(bits[v] for v in order[depth:]), (depth, g.sorted_edges())
        depths.append(depth)
        return seen(memo, depth, bits, top, used)

    monkeypatch.setattr(solver._Memo, "seen", checked)
    monkeypatch.setattr(solver, "CHECK_EVERY", 1)
    chi_nl_exact(g)
    assert depths


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
