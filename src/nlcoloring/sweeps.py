"""Exhaustive instance enumeration and conjecture sweeps.

Two supplies of instances: all non-isomorphic trees of a given order
(generated from scratch through rooted multiset recursion plus
centroid-canonical deduplication), and all non-isomorphic connected graphs
of order at most 7 (taken from the graph atlas shipped with networkx, with
the known class counts asserted).  Two sweeps run over them: the tree
degree conjecture max_degree <= (chi-1)^2, and the diameter conjecture
chi(G) >= chi(P_{diam+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
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

# canonical form of a rooted tree: tuple of children forms, sorted descending
_RootedForm = tuple


@lru_cache(maxsize=None)
def _rooted_forms(size: int) -> tuple[_RootedForm, ...]:
    """All canonical rooted trees with `size` vertices."""
    if size == 1:
        return ((),)
    bound = (size - 1, max(_rooted_forms(size - 1)))
    return tuple(tuple(children) for children in _child_multisets(size - 1, bound))


def _child_multisets(total: int, bound) -> Iterator[tuple[_RootedForm, ...]]:
    """Multisets of rooted forms with sizes summing to `total`, generated in
    non-increasing (size, form) order so each multiset appears once."""
    if total == 0:
        yield ()
        return
    max_size = min(total, bound[0])
    for s in range(max_size, 0, -1):
        for f in _rooted_forms(s):
            key = (s, f)
            if key > bound:
                continue
            for rest in _child_multisets(total - s, key):
                yield (f,) + rest


def _form_edges(form: _RootedForm, root: int, counter: list[int],
                edges: list[tuple[int, int]]) -> None:
    for child in form:
        counter[0] += 1
        cid = counter[0]
        edges.append((root, cid))
        _form_edges(child, cid, counter, edges)


def _form_to_graph(form: _RootedForm, n: int) -> Graph:
    edges: list[tuple[int, int]] = []
    _form_edges(form, 0, [0], edges)
    return Graph(n, edges)


def _rooted_form_of(g: Graph, root: int) -> _RootedForm:
    def build(v: int, parent: int) -> _RootedForm:
        return tuple(sorted((build(u, v) for u in g.adj[v] if u != parent), reverse=True))
    return build(root, -1)


def _centroids(g: Graph) -> list[int]:
    """One or two vertices minimizing the largest component left by removal."""
    n = g.n
    best, out = n + 1, []
    size = [1] * n
    order: list[int] = []
    seen = [False] * n
    stack = [(0, -1)]
    parents = [-1] * n
    while stack:
        v, parent = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        parents[v] = parent
        order.append(v)
        for u in g.adj[v]:
            if not seen[u]:
                stack.append((u, v))
    for v in reversed(order):
        if parents[v] >= 0:
            size[parents[v]] += size[v]
    for v in range(n):
        heaviest = max((size[u] if parents[u] == v else n - size[v])
                       for u in g.adj[v]) if g.adj[v] else 0
        if heaviest < best:
            best, out = heaviest, [v]
        elif heaviest == best:
            out.append(v)
    return out


def free_tree_canonical(g: Graph) -> _RootedForm:
    """Isomorphism-invariant canonical form: minimal rooting at a centroid."""
    return min(_rooted_form_of(g, c) for c in _centroids(g))


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Every isomorphism class of trees on n vertices, exactly once.

    Rooted trees are generated by the multiset recursion, mapped to their
    free canonical form (rooted at the centroid), and deduplicated.
    """
    if not 1 <= n <= TREE_ENUM_CAP:
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_ENUM_CAP}")
    seen: set[_RootedForm] = set()
    for form in _rooted_forms(n):
        g = _form_to_graph(form, n)
        canon = free_tree_canonical(g)
        if canon not in seen:
            seen.add(canon)
            yield _form_to_graph(canon, n)


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


@dataclass(frozen=True)
class SweepLimits:
    max_n: int


class SweepBudgetExhausted(RuntimeError):
    """The solver gave up on a sweep instance, so the sweep has no verdict."""


def _exact_values(graphs: Iterable[Graph],
                  options: SolveOptions | None) -> Iterator[tuple[Graph, int]]:
    """Each graph with its exact value, in input order.

    With ``options.parallel`` the independent instances are solved in
    spawned worker processes; ``map`` keeps input order, so the report is the
    same.  The pool is imported here because a module-level import slows
    every ``nlc`` start-up.
    """
    if options is None or not options.parallel:
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


def _edge_string(g: Graph) -> str:
    return ";".join(f"{u}-{v}" for u, v in g.sorted_edges())


def conjecture_sweep(which: str, limits: SweepLimits,
                     options: SolveOptions | None = None) -> dict:
    """Exhaustively test one of the two conjectures up to limits.max_n.

    Returns a JSON-ready report with one record per instance (canonical
    form, exact value, the measured quantity, and the verdict) plus the
    aggregate; any violating instance lands in "counterexamples".
    """
    if which == DELTA_CONJECTURE:
        return _delta_sweep(limits, options)
    if which == DIAMETER_CONJECTURE:
        return _diameter_sweep(limits, options)
    raise ValueError(f"unknown conjecture {which!r}")


def _delta_sweep(limits: SweepLimits, options: SolveOptions | None) -> dict:
    if not 1 <= limits.max_n <= TREE_ENUM_CAP:
        raise ValueError(f"delta sweep supports max_n up to {TREE_ENUM_CAP}")
    instances = []
    max_delta_by_chi: dict[int, int] = {}
    counterexamples = []
    trees = (t for n in range(1, limits.max_n + 1) for t in enumerate_trees(n))
    for tree, chi in _exact_values(trees, options):
        delta = degree_stats(tree).max_degree
        holds = delta <= (chi - 1) ** 2
        record = {
            "canonical": _edge_string(tree),
            "n": tree.n,
            "chi": chi,
            "delta": delta,
            "verdict": holds,
        }
        instances.append(record)
        if not holds:
            counterexamples.append(record)
        max_delta_by_chi[chi] = max(max_delta_by_chi.get(chi, 0), delta)
    return {
        "conjecture": DELTA_CONJECTURE,
        "maxN": limits.max_n,
        "instances": instances,
        "counterexamples": counterexamples,
        "maxDeltaByChi": {str(k): v for k, v in sorted(max_delta_by_chi.items())},
        "holds": not counterexamples,
    }


def _diameter_sweep(limits: SweepLimits, options: SolveOptions | None) -> dict:
    if not 2 <= limits.max_n <= CONNECTED_ENUM_CAP:
        raise ValueError(f"diameter sweep supports 2 <= max_n <= {CONNECTED_ENUM_CAP}")
    instances = []
    counterexamples = []
    graphs = (g for n in range(2, limits.max_n + 1) for g in connected_graphs(n))
    for g, chi in _exact_values(graphs, options):
        d = diameter(g)
        floor = chi_closed_form(FamilySpec.path(d + 1))
        holds = chi >= floor
        record = {
            "canonical": _edge_string(g),
            "n": g.n,
            "chi": chi,
            "diameter": d,
            "pathValue": floor,
            "verdict": holds,
        }
        instances.append(record)
        if not holds:
            counterexamples.append(record)
    return {
        "conjecture": DIAMETER_CONJECTURE,
        "maxN": limits.max_n,
        "instances": instances,
        "counterexamples": counterexamples,
        "holds": not counterexamples,
    }
