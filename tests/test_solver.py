"""Exact solver: decision procedure, exact values, determinism."""

from __future__ import annotations

import hashlib

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
from nlcoloring import _memo, solver
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


@pytest.mark.parametrize("solve,match", [
    (lambda g: chi_nl_exact(g, max_k=0), "max_k"),
    (lambda g: chi_nl_exact(g, max_k=-3), "max_k"),
    (lambda g: chi_nl_exact(g, time_budget=float("nan")), "budget"),
    (lambda g: chi_nl_exact(g, time_budget=-1.0), "budget"),
    (lambda g: conjecture_sweep("delta", 4, time_budget=float("nan")), "budget"),
    (lambda g: conjecture_sweep("diameter", 4, time_budget=-1.0), "budget"),
], ids=["max-k-0", "max-k-negative", "budget-nan", "budget-negative",
        "sweep-budget-nan", "sweep-budget-negative"])
def test_options_out_of_range_are_rejected(solve, match, monkeypatch):
    # nan would never expire, a negative budget would time out at once, and
    # no graph can meet a cap below one color.  Each is refused before any
    # search: a search that starts fails the test
    def no_search(*args):
        raise AssertionError("searched with a cap or budget out of range")

    monkeypatch.setattr(solver, "_search", no_search)
    with pytest.raises(ValueError, match=match):
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
    # the one pinned search whose memo renames a large used (821 pairs)
    (FamilySpec.cycle(1100), 14, 7_915,
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
# a tree whose lower bound (4) is one below its value: 2,892 of its 2,922
# nodes refute k = 4
TREE_16 = Graph(16, [
    (0, 6), (1, 4), (1, 11), (1, 15), (2, 7), (3, 6), (5, 11), (6, 7), (6, 12),
    (6, 13), (7, 10), (8, 12), (9, 12), (11, 13), (11, 14)])
ANCHOR_UNICYCLIC_20 = Graph(20, [
    (0, 15), (0, 17), (1, 3), (1, 9), (1, 12), (1, 18), (2, 3), (2, 15),
    (3, 19), (4, 7), (4, 13), (5, 8), (5, 13), (5, 16), (5, 18), (6, 8),
    (6, 17), (10, 16), (11, 15), (14, 16)])


@pytest.mark.parametrize("g,chi,nodes,colors", [
    (family_graph(FamilySpec.cycle(23)), 5, 58,  # the lower bound starts it at k = 5
     [1, 2, 1, 3, 1, 4, 1, 2, 4, 2, 4, 3, 5, 2, 3, 2, 4, 1, 4, 3, 1, 3, 2]),
    (family_graph(FamilySpec.wheel(12)), 5, 41,
     [2, 3, 2, 3, 4, 2, 3, 5, 2, 4, 5, 1]),
    (family_graph(FamilySpec.path(24)), 4, 20_375,
     [3, 1, 2, 1, 2, 3, 1, 4, 1, 2, 4, 1, 4, 3, 2, 3, 2, 4, 2, 4, 3, 4, 3, 1]),
    (family_graph(FamilySpec.fan(30)), 6, 142,
     [6, 2, 3, 2, 3, 4, 2, 3, 5, 2, 3, 6, 2, 4, 2, 4, 5, 2, 4, 6, 2, 5, 2, 5, 6, 3, 4, 3,
      5, 1]),
    (ANCHOR_TREE_20, 4, 87,
     [1, 1, 3, 1, 3, 3, 2, 1, 2, 2, 1, 3, 2, 4, 4, 2, 4, 2, 3, 4]),
    (ANCHOR_UNICYCLIC_20, 4, 98,
     [3, 1, 1, 2, 4, 4, 3, 2, 1, 2, 1, 4, 3, 1, 2, 2, 3, 4, 2, 3]),
    (TREE_16, 5, 2_922,  # refutes k = 4 exhaustively
     [2, 1, 1, 3, 4, 1, 1, 2, 4, 5, 3, 4, 2, 2, 2, 5]),
], ids=["C23", "W12", "P24", "F30", "anchor-tree-20", "anchor-unicyclic-20", "tree-16"])
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
    assert total == 15_148


def test_node_total_over_small_connected_graphs_is_pinned():
    # the diameter sweep's universe, every connected graph of order 2 to 7,
    # where dense graphs make the properness prune fire
    total = sum(chi_nl_exact(g).nodes_explored
                for n in range(2, 8) for g in connected_graphs(n))
    assert total == 31_091


@pytest.mark.parametrize("legs,nodes", [(10, 4_882), (11, 7_553)], ids=["10-legs", "11-legs"])
def test_spiders_start_at_their_value(legs, nodes):
    # the spider of 10 or 11 legs of length 2 has order <= max_order(4),
    # but its centre has more neighbours of degree 2 than cap(2) = 9 allows
    # at k = 4, so the neighbour bound starts the search at chi = 5.  The
    # witness search jumps back past the legs that a clash does not read.
    # Refuting k = 4 by search took 584,302 / 1,774,332 nodes in all
    g = Graph(2 * legs + 1, [(0 if i % 2 else i - 1, i) for i in range(1, 2 * legs + 1)])
    result = chi_nl_exact(g)
    assert (chi_lower_bound(g), result.chi, result.status) == (5, 5, "Exact")
    assert result.nodes_explored == nodes


@pytest.mark.parametrize("g,nodes", [
    (family_graph(FamilySpec.wheel(12)), (41, 41)), (family_graph(FamilySpec.cycle(12)), (26, 26)),
    (family_graph(FamilySpec.fan(9)), (95, 91)), (family_graph(FamilySpec.cycle(23)), (58, 58)),
    (family_graph(FamilySpec.cycle(8)), (17, 17)),
    (Graph(6, [(u, 3 + v) for u in range(3) for v in range(3)]), (27, 27)),
    (TREE_16, (2_922, 1_750)),
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
    (4, 3, (6, 6)), (6, 3, (42, 42)), (8, 3, (96, 87)), (23, 4, (53_616, 49_472)),
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
    earlier = [sorted((u for u in g.adj[v] if pos[u] < d), key=key.__getitem__)
               for d, v in enumerate(order)]
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
    return order, earlier, final_at, twin, closed, reasons


@pytest.mark.parametrize("universe", ["atlas", "trees", "C23", "F30", "P3000"])
def test_schedule_matches_its_definition(universe):
    # order: breadth-first from the highest-degree vertex, lowest index on
    # ties, each vertex's neighbours by descending degree, then index;
    # earlier[d]: the neighbours of order[d] placed before depth d, in that
    # order; final_at[d]: the vertices, in increasing order, whose closed
    # neighbourhood has its largest position at d; twin[d]: the twin of
    # order[d] last before it in the order, or n; closed[w]: the depths of
    # w's closed neighbourhood as a mask; reasons[d]: the depths of order[d],
    # its earlier neighbours and its earlier twin
    graphs = {
        "atlas": [g for n in range(1, 8) for g in connected_graphs(n)],
        "trees": [g for n in range(1, 11) for g in enumerate_trees(n)],
        "C23": [family_graph(FamilySpec.cycle(23))],
        "F30": [family_graph(FamilySpec.fan(30))],
        "P3000": [family_graph(FamilySpec.path(3000))],
    }[universe]
    for g in graphs:
        assert solver._schedule(g) == _schedule_by_definition(g), g.sorted_edges()


@pytest.mark.parametrize("g", SMALL_GRAPHS)
def test_memo_schedule_reads_the_twins(g):
    # the memo's front holds each vertex from the first depth after one
    # that touches it (colors it or a neighbour) to the last that reads it:
    # where its signature closes, or where its next twin checks its color.
    # Exact depths are those a twin class straddles: a member is colored
    # before the depth and a later one is not.  Every color that the key
    # reads at a depth was placed at since[depth] or later, so the colors
    # placed from there on fix the key
    order, _, final_at, twin, *_ = solver._schedule(g)
    front, exact, since = _memo.memo_schedule(g, order, final_at, twin)
    pos = {v: d for d, v in enumerate(order)}
    checked_at, spans = {}, []
    for members in twin_classes(g):
        members = sorted(members, key=pos.__getitem__)
        checked_at.update((u, pos[w]) for u, w in zip(members, members[1:]))
        spans.append((pos[members[0]], pos[members[-1]]))
    reach = {w: [pos[u] for u in (w, *g.adj[w])] for w in range(g.n)}
    for d in range(g.n):
        assert set(front[d]) == {
            w for w in range(g.n)
            if min(reach[w]) < d <= max(max(reach[w]), checked_at.get(w, 0))}, d
        assert exact[d] == any(first < d <= last for first, last in spans), d
        assert all(since[d] <= p for w in front[d] for p in reach[w] if p < d), d


@pytest.mark.parametrize("g", SMALL_GRAPHS)
def test_memo_keys_straddled_depths_as_they_are(g, monkeypatch):
    # twin order compares color values, so where a twin class straddles the
    # depth the memo keys the state without renaming its colors: each group
    # there holds one front key, and its class is that key.  Elsewhere the
    # class is the renamed key
    memos = []

    class Spy(_memo.Memo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(_memo, "Memo", Spy)
    monkeypatch.setattr(solver, "CHECK_EVERY", 1)
    chi_nl_exact(g)
    order, _, final_at, twin, *_ = solver._schedule(g)
    _, exact, _ = _memo.memo_schedule(g, order, final_at, twin)
    for memo in memos:
        for (front_key, _, depth), (shape, _) in memo.groups.items():
            if exact[depth]:
                assert shape is memo.shapes[front_key], (depth, g.sorted_edges())
            elif shape is not None:  # a group with one front key
                assert front_key == shape[0], (depth, g.sorted_edges())


@pytest.mark.parametrize("g", [Graph(21, [(0 if i % 2 else i - 1, i) for i in range(1, 21)]),
                               TREE_16, ANCHOR_UNICYCLIC_20],
                         ids=["spider-10", "tree-16", "anchor-unicyclic-20"])
def test_memo_reads_no_color_at_or_past_its_depth(g, monkeypatch):
    # the memo keys the state entering a depth by, among others, the
    # signatures so far of vertices colored from that depth on, so those
    # must all be uncolored: a jump back clears the colors of the depths it
    # skips.  These searches jump, and the memo is on from the first node
    order = solver._schedule(g)[0]
    seen, depths = _memo.Memo.seen, []

    def checked(memo, depth, tried, bits, top, used):
        assert not any(bits[v] for v in order[depth:]), (depth, g.sorted_edges())
        depths.append(depth)
        return seen(memo, depth, tried, bits, top, used)

    monkeypatch.setattr(_memo.Memo, "seen", checked)
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
