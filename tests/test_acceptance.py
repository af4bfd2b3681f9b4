"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every stated runtime budget is asserted, not just hoped for.
"""

from __future__ import annotations

import json
import time
from math import comb

from nlcoloring import (
    FamilySpec,
    chi_closed_form,
    chi_nl_exact,
    classify,
    comb_coloring,
    cone_coloring,
    conjecture_sweep,
    caterpillar_extremal,
    cycle_coloring,
    ell,
    a2,
    enumerate_trees,
    exists_nl_coloring,
    extremal_audit,
    family_graph,
    is_nl_coloring,
    max_order,
    a1,
    class_order_bound,
    neighbor_signature,
    one_paired_cycle_coloring,
    path_coloring,
    unicyclic_extremal,
)
from nlcoloring.construct import _comb_spine_index, _splice_signature_table, comb_signature_table
from nlcoloring.graphs import Graph


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_small_order_table():
    started = time.monotonic()
    for n in range(2, 10):
        expected = 2 if n == 2 else 3
        assert chi_nl_exact(family_graph(FamilySpec.path(n))).chi == expected
    for n, expected in zip(range(3, 10), (3, 4, 3, 4, 3, 4, 3)):
        assert chi_nl_exact(family_graph(FamilySpec.cycle(n))).chi == expected
    _report(1, "small-order values", started, 10)


def test_criterion_2_bracket_constructions():
    started = time.monotonic()
    for n in range(10, 25):
        for build, fam in ((cycle_coloring, FamilySpec.cycle),
                           (path_coloring, FamilySpec.path)):
            cg = build(n)
            assert is_nl_coloring(cg.graph, cg.coloring).ok
            assert cg.k == chi_closed_form(fam(n)), (fam(n).label(), cg.k)
    assert cycle_coloring(23).k == 5
    assert path_coloring(23).k == 4
    for n in (25, 30, 48, 49, 50):
        ccg, pcg = cycle_coloring(n), path_coloring(n)
        assert is_nl_coloring(ccg.graph, ccg.coloring).ok
        assert is_nl_coloring(pcg.graph, pcg.coloring).ok
        assert pcg.k == 5
        assert ccg.k == (6 if n == 49 else 5)
    _report(2, "bracket constructions", started, 30)


def test_criterion_3_oracle_agreement():
    started = time.monotonic()
    for n in range(2, 13):
        exact = chi_nl_exact(family_graph(FamilySpec.path(n))).chi
        assert exact == chi_closed_form(FamilySpec.path(n)), f"path {n}"
    for n in range(3, 13):
        exact = chi_nl_exact(family_graph(FamilySpec.cycle(n))).chi
        assert exact == chi_closed_form(FamilySpec.cycle(n)), f"cycle {n}"
    assert exists_nl_coloring(family_graph(FamilySpec.cycle(6)), 3)[0] is False
    assert exists_nl_coloring(family_graph(FamilySpec.cycle(11)), 3)[0] is False
    _report(3, "oracle/formula agreement", started, 300)


def test_criterion_4_fans_and_wheels():
    started = time.monotonic()
    for n in range(4, 11):
        fan = cone_coloring(path_coloring(n - 1))
        assert fan.graph == family_graph(FamilySpec.fan(n)) and fan.k == 4
        assert chi_nl_exact(fan.graph).chi == 4
        wheel = cone_coloring(cycle_coloring(n - 1))
        expected = 4 if n % 2 == 0 else 5
        assert wheel.graph == family_graph(FamilySpec.wheel(n)) and wheel.k == expected
        assert chi_nl_exact(wheel.graph).chi == expected
    w24 = cone_coloring(cycle_coloring(23))
    assert w24.k == 6 and is_nl_coloring(w24.graph, w24.coloring).ok
    w25 = cone_coloring(cycle_coloring(24))
    assert w25.k == 5 and is_nl_coloring(w25.graph, w25.coloring).ok
    _report(4, "fans and wheels", started, 120)


def test_criterion_5_extremal_constructions():
    started = time.monotonic()
    for k, order in ((5, 40), (6, 60), (7, 84)):
        cg = comb_coloring(k)
        assert cg.graph.n == order and cg.k == k
        assert is_nl_coloring(cg.graph, cg.coloring).ok
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
    u6 = unicyclic_extremal(6)
    assert u6.graph.n == 120 and u6.k == 6
    assert is_nl_coloring(u6.graph, u6.coloring).ok
    t6 = caterpillar_extremal(6)
    assert t6.graph.n == 118 and t6.k == 6
    assert classify(t6.graph) == "Caterpillar"
    assert is_nl_coloring(t6.graph, t6.coloring).ok
    expected_sigs = _splice_signature_table(6)
    for (r, l), expected in expected_sigs.items():
        assert any(
            t6.coloring.colors[v] == l
            and frozenset(neighbor_signature(t6.graph, t6.coloring, v)) == expected
            for v in range(t6.graph.n)
        ), (r, l)
    _report(5, "extremal constructions", started, 60)


def test_criterion_6_bounds_table():
    started = time.monotonic()
    general = {3: 9, 4: 28, 5: 75, 6: 186, 7: 441}
    degree_two = {3: 9, 4: 24, 5: 50, 6: 90, 7: 147}
    trees = {3: 13, 4: 34, 5: 68, 6: 118, 7: 187}
    n1 = {3: 6, 4: 12, 5: 20, 6: 30, 7: 42}
    n2 = {3: 3, 4: 12, 5: 30, 6: 60, 7: 105}
    n3 = {3: 4, 4: 10, 5: 18, 6: 28, 7: 40}
    for k in range(3, 8):
        assert max_order(k) == general[k]
        assert ell(k) == degree_two[k]
        assert class_order_bound(k, "tree") == trees[k]
        assert class_order_bound(k, "unicyclic") == trees[k] + 2
        assert a1(k) == n1[k]
        assert a2(k) == n2[k]
        assert a1(k) - 2 == n3[k]
    # infeasible cells: the tree bound exceeds the general bound
    assert class_order_bound(3, "tree") > max_order(3)
    assert class_order_bound(4, "tree") > max_order(4)
    assert class_order_bound(5, "tree") < max_order(5)
    _report(6, "bounds table", started, 10)


def test_criterion_7_structural_audits():
    started = time.monotonic()
    for k, n in ((4, 24), (5, 50)):
        cg = one_paired_cycle_coloring(k, n)
        for census in extremal_audit(cg.graph, cg.coloring):
            assert census.size == comb(k, 2)
            assert census.by_color_degree.get(1, 0) == k - 1
            assert census.by_color_degree.get(2, 0) == comb(k - 1, 2)
    for k in (4, 5):
        cg = one_paired_cycle_coloring(k, a2(k))
        for census in extremal_audit(cg.graph, cg.coloring):
            assert census.by_color_degree.get(1, 0) == 0
    _report(7, "structural audits", started, 30)


def _cone_law_corpus() -> list[Graph]:
    corpus = [family_graph(FamilySpec.path(n)) for n in range(2, 7)]
    corpus += [family_graph(FamilySpec.cycle(n)) for n in range(3, 9)]
    corpus += [family_graph(FamilySpec.star(n)) for n in range(4, 7)]
    corpus += [family_graph(FamilySpec.double_star(r, s))
               for r, s in ((1, 2), (2, 2), (1, 3), (2, 3), (1, 4))]
    corpus += list(enumerate_trees(7))
    return corpus


def test_criterion_8_property_suites():
    started = time.monotonic()
    # (a) every constructor output passes verification, up to k=7 / n=150
    outputs = []
    outputs += [path_coloring(n) for n in range(2, 151)]
    outputs += [cycle_coloring(n) for n in range(3, 151)]
    outputs += [cone_coloring(path_coloring(n - 1)) for n in range(4, 152)]
    outputs += [cone_coloring(cycle_coloring(n - 1)) for n in range(4, 152)]
    outputs += [comb_coloring(k) for k in (5, 6, 7)]
    outputs += [unicyclic_extremal(k) for k in (5, 6, 7)]
    outputs += [caterpillar_extremal(k) for k in (6, 7)]
    for cg in outputs:
        assert is_nl_coloring(cg.graph, cg.coloring).ok
    # (b) the deterministic pipeline never trips post-verification
    for k in (4, 5):
        for n in range(ell(k - 1) + 1, ell(k) + 1):
            if n == ell(k) - 1:
                continue
            one_paired_cycle_coloring(k, n)  # raises on any failed insertion
    # (c) cone law on a 30-graph corpus; (d), parallel equality, is retired
    # together with the process-pool sweep it checked
    corpus = _cone_law_corpus()
    assert len(corpus) == 30
    for g in corpus:
        base_chi = chi_nl_exact(g).chi
        cone = Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in range(g.n)])
        assert chi_nl_exact(cone).chi == base_chi + 1
    _report(8, "property suites", started, 600)


def test_criterion_9_conjecture_sweeps(tmp_path):
    started = time.monotonic()
    delta = conjecture_sweep("delta", 9)
    assert delta["holds"] and not delta["counterexamples"]
    assert delta["maxDeltaByChi"]["3"] == 4
    diam = conjecture_sweep("diameter", 7)
    assert diam["holds"] and not diam["counterexamples"]
    assert len(diam["instances"]) == 1 + 2 + 6 + 21 + 112 + 853
    report_file = tmp_path / "sweeps.json"
    report_file.write_text(json.dumps({"delta": delta, "diameter": diam}, indent=2))
    assert report_file.stat().st_size > 0
    _report(9, "conjecture sweeps", started, 1800)
