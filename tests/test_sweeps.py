"""Tree enumeration and the atlas table against independent oracles and the
networkx reference, plus sweep runs."""

from __future__ import annotations

import hashlib
import json

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from nlcoloring import (
    Graph,
    SolveOptions,
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


@pytest.mark.parametrize("n", range(2, 13))
def test_trees_match_networkx_in_order(n):
    # same trees, same labels, same order: every sweep instance and report
    # stays what it was when networkx generated the trees
    ours = [t.sorted_edges() for t in enumerate_trees(n)]
    reference = [Graph(n, t.edges()).sorted_edges() for t in nx.nonisomorphic_trees(n)]
    assert ours == reference


def test_atlas_table_matches_networkx_in_order():
    # the graph6 table in nlcoloring/_atlas.py is the connected slice of the
    # atlas, vertices in sorted order; its docstring gives the one-line
    # recipe that regenerates it
    reference = []
    for g in graph_atlas_g()[1:]:  # [0] is the graph without vertices
        if nx.is_connected(g):
            label = {v: i for i, v in enumerate(sorted(g))}
            reference.append(Graph(len(g), [(label[u], label[v]) for u, v in g.edges()]))
    ours = [g for n in range(1, 8) for g in connected_graphs(n)]
    assert [(g.n, g.sorted_edges()) for g in ours] == \
        [(g.n, g.sorted_edges()) for g in reference]


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
    # the enumeration caps, recorded when networkx generated the instances
    ("delta", 12, "d17165b6a2783f81ba4be074aa317fbb0918beaa4b00eac00cabc69452939eee"),
    ("diameter", 7, "b70979e25c4a7068556b0508beba3462030776dba2cbd42f81170c620b106e9e"),
])
def test_sweep_reports_match_pinned_digest(which, max_n, digest):
    # every exact value in the report, as `nlc sweep --report` writes it; a
    # prune that cuts a coloring it must not shows here as a moved chi
    text = json.dumps(conjecture_sweep(which, max_n), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sweep_refuses_a_color_cap():
    # a cap would stop the sweep at the first instance that needs more
    # colors, with an error that blames the time budget
    with pytest.raises(ValueError, match="max_k"):
        conjecture_sweep("delta", 6, SolveOptions(max_k=2))


def test_diameter_sweep_small():
    report = conjecture_sweep("diameter", 5)
    assert report["holds"]
    assert len(report["instances"]) == 1 + 2 + 6 + 21


def test_sweep_rejects_unknown():
    with pytest.raises(ValueError):
        conjecture_sweep("girth", 5)
    # sweeps run sequentially and take no parallel switch
    with pytest.raises(TypeError):
        conjecture_sweep("delta", 5, parallel=True)
    # the name is checked before the order range
    with pytest.raises(ValueError, match="unknown conjecture"):
        conjecture_sweep("girth", 100)
