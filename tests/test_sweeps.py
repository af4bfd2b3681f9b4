"""Tree enumeration against independent oracles, plus small sweep runs."""

from __future__ import annotations

import networkx as nx
import pytest

from nlcoloring import (
    classify,
    conjecture_sweep,
    connected_graphs,
    enumerate_trees,
)


# OEIS A000055: trees on n unlabeled vertices, n = 1..12
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


def test_tree_counts_match_oeis():
    for n, expected in enumerate(TREE_COUNTS, start=1):
        trees = list(enumerate_trees(n))
        assert len(trees) == expected, n
        for t in trees:
            assert t.n == n and len(t.edges) == n - 1, n


def test_small_counts():
    assert len(list(enumerate_trees(4))) == 2  # path and star
    assert {classify(t) for t in enumerate_trees(4)} == {"Path", "Caterpillar"}
    assert len(list(enumerate_trees(5))) == 3  # path, star, spider


def test_enumerated_trees_pairwise_nonisomorphic():
    # with the OEIS counts this means every tree class appears exactly once
    for n in range(2, 10):
        trees = [nx.Graph(t.sorted_edges()) for t in enumerate_trees(n)]
        for i in range(len(trees)):
            for j in range(i + 1, len(trees)):
                assert not nx.is_isomorphic(trees[i], trees[j]), (n, i, j)


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
    report = conjecture_sweep("delta", 6)
    assert report["holds"] and not report["counterexamples"]
    assert len(report["instances"]) == 1 + 1 + 1 + 2 + 3 + 6


def test_delta_sweep_summary_at_11():
    # recorded with the previous, hand-written tree enumerator
    report = conjecture_sweep("delta", 11)
    assert report["maxDeltaByChi"] == {"1": 0, "2": 1, "3": 4, "4": 6, "5": 7, "6": 7,
                                       "7": 8, "8": 8, "9": 9, "10": 9, "11": 10}
    assert report["holds"] and not report["counterexamples"]
    assert len(report["instances"]) == sum(TREE_COUNTS[:11])


def test_diameter_sweep_small():
    report = conjecture_sweep("diameter", 5)
    assert report["holds"]
    assert len(report["instances"]) == 1 + 2 + 6 + 21


@pytest.mark.parametrize("which,max_n", [("delta", 10), ("diameter", 6)])
def test_parallel_sweep_report_matches_sequential(which, max_n):
    sequential = conjecture_sweep(which, max_n)
    parallel = conjecture_sweep(which, max_n, parallel=True)
    assert parallel == sequential


def test_sweep_rejects_unknown():
    with pytest.raises(ValueError):
        conjecture_sweep("girth", 5)
    # the name is checked before the order range
    with pytest.raises(ValueError, match="unknown conjecture"):
        conjecture_sweep("girth", 100)
