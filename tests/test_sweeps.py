"""Tree enumeration against independent oracles, plus small sweep runs."""

from __future__ import annotations

from itertools import product

import networkx as nx
import pytest

from nlcoloring import (
    SolveOptions,
    SweepLimits,
    classify,
    conjecture_sweep,
    connected_graphs,
    enumerate_trees,
)
from nlcoloring.sweeps import free_tree_canonical
from nlcoloring.graphs import Graph


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Classic decode: every labeled tree on n >= 2 vertices, bijectively."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    seq = list(seq)
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return edges


def test_tree_counts_match_networkx():
    for n in range(1, 10):
        mine = len(list(enumerate_trees(n)))
        theirs = len(list(nx.nonisomorphic_trees(n))) if n >= 2 else 1
        assert mine == theirs, n


def test_small_counts():
    assert len(list(enumerate_trees(4))) == 2  # path and star
    assert {classify(t).kind for t in enumerate_trees(4)} == {"Path", "Caterpillar"}
    assert len(list(enumerate_trees(5))) == 3  # path, star, spider


def test_enumeration_covers_all_labeled_trees():
    # brute force over Prüfer sequences; every labeled tree must hit one of
    # the enumerated canonical forms, and all forms must be hit
    for n in range(2, 8):
        canon = {free_tree_canonical(t) for t in enumerate_trees(n)}
        hit = set()
        for seq in product(range(n), repeat=max(0, n - 2)):
            g = Graph(n, _prufer_edges(seq, n))
            c = free_tree_canonical(g)
            assert c in canon, (n, seq)
            hit.add(c)
        assert hit == canon


def test_enumerated_trees_pairwise_nonisomorphic():
    trees = list(enumerate_trees(7))
    assert len(trees) == 11
    nxt = [nx.Graph(t.sorted_edges()) for t in trees]
    for i in range(len(nxt)):
        for j in range(i + 1, len(nxt)):
            assert not nx.is_isomorphic(nxt[i], nxt[j])


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_trees(13))


def test_connected_graph_universe():
    assert len(connected_graphs(5)) == 21
    assert len(connected_graphs(6)) == 112
    with pytest.raises(ValueError):
        connected_graphs(8)


def test_delta_sweep_small():
    report = conjecture_sweep("delta", SweepLimits(6))
    assert report["holds"] and not report["counterexamples"]
    assert len(report["instances"]) == 1 + 1 + 1 + 2 + 3 + 6


def test_diameter_sweep_small():
    report = conjecture_sweep("diameter", SweepLimits(5))
    assert report["holds"]
    assert len(report["instances"]) == 1 + 2 + 6 + 21


@pytest.mark.parametrize("which,max_n", [("delta", 10), ("diameter", 6)])
def test_parallel_sweep_report_matches_sequential(which, max_n):
    sequential = conjecture_sweep(which, SweepLimits(max_n))
    parallel = conjecture_sweep(which, SweepLimits(max_n), SolveOptions(parallel=True))
    assert parallel == sequential


def test_sweep_rejects_unknown():
    with pytest.raises(ValueError):
        conjecture_sweep("girth", SweepLimits(5))
