"""Exhaustive instance enumeration and conjecture sweeps.

Two supplies of instances, both from networkx: all non-isomorphic trees of
a given order up to 12 (``nonisomorphic_trees``), and all non-isomorphic
connected graphs of order at most 7 (the graph atlas, with the known class
counts asserted).  One sweep loop tests either conjecture on them: the
tree degree conjecture max_degree <= (chi-1)^2 on the trees, and the
diameter conjecture chi(G) >= chi(P_{diam+1}) on the connected graphs.
Each conjecture supplies only its range check, its instance stream and the
fields it measures on a solved instance.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .bounds import chi_closed_form
from .graphs import FamilySpec, Graph, degree_stats, diameter
from .solver import SolveOptions, chi_nl_exact

TREE_ENUM_CAP = 12
CONNECTED_ENUM_CAP = 7

# connected graphs on 1..7 vertices up to isomorphism; used to validate the
# atlas slice before trusting it
_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Every isomorphism class of trees on n vertices, exactly once.

    For n >= 2 the trees come from ``networkx.nonisomorphic_trees`` (the
    constant-time free-tree generator of Wright, Richmond, Odlyzko and
    McKay); networkx is imported here because a module-level import slows
    every ``nlc`` start-up.
    """
    if not 1 <= n <= TREE_ENUM_CAP:
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_ENUM_CAP}")
    if n == 1:
        yield Graph(1, [])
        return
    import networkx as nx

    for t in nx.nonisomorphic_trees(n):
        yield Graph(n, list(t.edges()))


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n <= 7 vertices up to isomorphism.

    Backed by the networkx graph atlas; the slice is validated against the
    known class counts before use.
    """
    if not 1 <= n <= CONNECTED_ENUM_CAP:
        raise ValueError(f"connected-graph enumeration supports 1 <= n <= {CONNECTED_ENUM_CAP}")
    return [g for g in _atlas_connected() if g.n == n]


@lru_cache(maxsize=1)
def _atlas_connected() -> tuple[Graph, ...]:
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    counts = {k: 0 for k in _CONNECTED_COUNTS}
    for ag in graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 1 or not nx.is_connected(ag):
            continue
        relabel = {v: i for i, v in enumerate(sorted(ag.nodes()))}
        out.append(Graph(n, [(relabel[u], relabel[v]) for u, v in ag.edges()]))
        counts[n] += 1
    if counts != _CONNECTED_COUNTS:
        raise RuntimeError(f"atlas slice has unexpected connected-graph counts: {counts}")
    return tuple(out)


# ---------------------------------------------------------------------------
# sweeps

DELTA_CONJECTURE = "delta"
DIAMETER_CONJECTURE = "diameter"


class SweepBudgetExhausted(RuntimeError):
    """The solver gave up on a sweep instance, so the sweep has no verdict."""


def _exact_values(graphs: Iterable[Graph], options: SolveOptions | None,
                  parallel: bool) -> Iterator[tuple[Graph, int]]:
    """Each graph with its exact value, in input order.

    With ``parallel`` the independent instances are solved in spawned worker
    processes; ``map`` keeps input order, so the report is the same.  The
    pool is imported here because a module-level import slows every ``nlc``
    start-up.
    """
    if not parallel:
        solved = ((g, chi_nl_exact(g, options)) for g in graphs)
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        graphs = list(graphs)
        with ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(chi_nl_exact, graphs, [options] * len(graphs)))
        solved = zip(graphs, results)
    for g, result in solved:
        if result.chi is None:
            raise SweepBudgetExhausted("solver gave up inside the sweep; raise the budget")
        yield g, result.chi


def _delta_fields(tree: Graph, chi: int) -> dict:
    delta = degree_stats(tree).max_degree
    return {"delta": delta, "verdict": delta <= (chi - 1) ** 2}


def _diameter_fields(g: Graph, chi: int) -> dict:
    d = diameter(g)
    floor = chi_closed_form(FamilySpec.path(d + 1))
    return {"diameter": d, "pathValue": floor, "verdict": chi >= floor}


def conjecture_sweep(which: str, max_n: int, options: SolveOptions | None = None,
                     parallel: bool = False) -> dict:
    """Exhaustively test one of the two conjectures on every instance of
    order at most max_n.

    Returns a JSON-ready report with one record per instance (canonical
    edge string, order, exact value, the measured quantity, and the
    verdict) plus the aggregate; any violating instance lands in
    "counterexamples".  ``parallel`` solves the instances in worker
    processes and gives the same report.
    """
    if which == DELTA_CONJECTURE:
        if not 1 <= max_n <= TREE_ENUM_CAP:
            raise ValueError(f"delta sweep supports max_n up to {TREE_ENUM_CAP}")
        graphs = (t for n in range(1, max_n + 1) for t in enumerate_trees(n))
        fields = _delta_fields
    elif which == DIAMETER_CONJECTURE:
        if not 2 <= max_n <= CONNECTED_ENUM_CAP:
            raise ValueError(f"diameter sweep supports 2 <= max_n <= {CONNECTED_ENUM_CAP}")
        graphs = (g for n in range(2, max_n + 1) for g in connected_graphs(n))
        fields = _diameter_fields
    else:
        raise ValueError(f"unknown conjecture {which!r}")
    instances = [{"canonical": ";".join(f"{u}-{v}" for u, v in g.sorted_edges()),
                  "n": g.n, "chi": chi, **fields(g, chi)}
                 for g, chi in _exact_values(graphs, options, parallel)]
    counterexamples = [record for record in instances if not record["verdict"]]
    report = {"conjecture": which, "maxN": max_n, "instances": instances,
              "counterexamples": counterexamples}
    if which == DELTA_CONJECTURE:
        max_delta_by_chi: dict[int, int] = {}
        for record in instances:
            chi = record["chi"]
            max_delta_by_chi[chi] = max(max_delta_by_chi.get(chi, 0), record["delta"])
        report["maxDeltaByChi"] = {str(k): v for k, v in sorted(max_delta_by_chi.items())}
    report["holds"] = not counterexamples
    return report
