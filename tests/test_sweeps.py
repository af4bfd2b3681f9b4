"""Tree enumeration against independent oracles, plus small sweep runs."""

from __future__ import annotations

import hashlib
import json

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


def test_delta_sweep_summary_at_the_enumeration_cap():
    # order 12 is TREE_ENUM_CAP, the largest order the delta sweep takes
    report = conjecture_sweep("delta", 12)
    assert report["maxDeltaByChi"] == {"1": 0, "2": 1, "3": 4, "4": 7, "5": 7, "6": 8,
                                       "7": 8, "8": 9, "9": 9, "10": 10, "11": 10,
                                       "12": 11}
    assert report["holds"] and not report["counterexamples"]
    assert len(report["instances"]) == sum(TREE_COUNTS)


@pytest.mark.parametrize("which,max_n,digest", [
    ("delta", 10, "339928d27c70723462722fb3e7904aa1135ccb42bc91dc7d07aaf1d8c022c3c5"),
    ("diameter", 6, "318597e5d7df8fea8498ebc7f2c4ad624594fb77c55fdc86e0238bc152aeb345"),
])
def test_sweep_reports_match_pinned_digest(which, max_n, digest):
    # every exact value in the report, as `nlc sweep --report` writes it; a
    # prune that cuts a coloring it must not shows here as a moved chi
    text = json.dumps(conjecture_sweep(which, max_n), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
