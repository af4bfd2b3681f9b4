"""Exhaustive instance enumeration and conjecture sweeps.

Two supplies of instances: all non-isomorphic trees of a given order up to
12, from the free-tree generator of Wright, Richmond, Odlyzko and McKay
ported here, and all non-isomorphic connected graphs of order at most 7,
decoded from the graph6 table of the graph atlas in ``_atlas.py`` (with
the known class counts asserted).  One sweep loop tests either conjecture
on them: the tree degree conjecture max_degree <= (chi-1)^2 on the trees,
and the diameter conjecture chi(G) >= chi(P_{diam+1}) on the connected
graphs.  Each conjecture supplies only its range check, its instance
stream and the fields it measures on a solved instance.  Only the
diameter sweep reads a named family, the path's closed form, so only it
imports ``families``.
"""

from functools import partial
from itertools import compress
from typing import Iterator

from .graphs import Graph, diameter
from .solver import chi_nl_exact

TREE_ENUM_CAP = 12
CONNECTED_ENUM_CAP = 7

# connected graphs on 1..7 vertices up to isomorphism; used to validate the
# atlas table before trusting it
_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Every isomorphism class of trees on n vertices, exactly once.

    The constant-time free-tree generator of Wright, Richmond, Odlyzko and
    McKay (SIAM J. Comput. 15, 1986) over level sequences: a rooted tree is
    the list of its vertices' depths in preorder, and the trees come in the
    order, and with the labels, of ``networkx.nonisomorphic_trees``, which
    the tests compare against.
    """
    if not 1 <= n <= TREE_ENUM_CAP:
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_ENUM_CAP}")
    if n == 1:
        yield Graph(1, [])
        return
    # the path rooted at its centre
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _next_free_tree(levels)
        yield Graph(n, _level_edges(levels))
        levels = _next_rooted_tree(levels)


def _next_rooted_tree(levels: list[int], p: int | None = None) -> list[int] | None:
    """The rooted tree after ``levels`` in the order of Beyer and Hedetniemi
    (SIAM J. Comput. 9, 1980), or None after the last; ``p`` is the position
    to advance, by default the last vertex deeper than 1."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    result = list(levels)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _next_free_tree(levels: list[int]) -> list[int]:
    """``levels`` if it is the canonical rooting of its free tree, else the
    next rooted tree that can be: the root's first subtree ("left") must be
    no higher than the rest, no larger at equal height, and not
    lexicographically after it at equal size."""
    left, rest = _split(levels)
    left_height, rest_height = max(left), max(rest)
    if rest_height > left_height or (
            rest_height == left_height and (len(left), left) <= (len(rest), rest)):
        return levels
    p = len(left)
    result = _next_rooted_tree(levels, p)
    if levels[p] > 2:
        height = max(_split(result)[0])
        result[-(height + 1):] = range(1, height + 2)
    return result


def _split(levels: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, re-rooted, and the tree without it."""
    try:
        m = levels.index(1, 2)
    except ValueError:
        m = len(levels)
    return [d - 1 for d in levels[1:m]], [0] + levels[m:]


def _level_edges(levels: list[int]) -> list[tuple[int, int]]:
    """The edges of the rooted tree ``levels``: each vertex hangs from the
    latest earlier vertex one level up."""
    latest = [0] * len(levels)
    edges = []
    for v in range(1, len(levels)):
        depth = levels[v]
        edges.append((latest[depth - 1], v))
        latest[depth] = v
    return edges


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n <= 7 vertices up to isomorphism.

    Decoded, in atlas order, from the graph6 table in ``_atlas.py``; the
    count is checked against the known class count before use.
    """
    if not 1 <= n <= CONNECTED_ENUM_CAP:
        raise ValueError(f"connected-graph enumeration supports 1 <= n <= {CONNECTED_ENUM_CAP}")
    from ._atlas import GRAPH6

    order = chr(63 + n)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]  # graph6's order of the bits
    graphs = [_from_graph6(line, pairs) for line in GRAPH6.split() if line[0] == order]
    if len(graphs) != _CONNECTED_COUNTS[n]:
        raise RuntimeError(f"atlas table has {len(graphs)} connected graphs of order {n}, "
                           f"not {_CONNECTED_COUNTS[n]}")
    return graphs


def _from_graph6(line: str, pairs: list[tuple[int, int]]) -> Graph:
    """Decode one graph6 line of order at most 62: the order as one
    character, then the upper triangle of the adjacency matrix column by
    column, six bits to a character, each character offset by 63.
    ``pairs`` lists the upper triangle's pairs (i, j) in that order."""
    bits = [(ord(c) - 63) >> shift & 1 for c in line[1:] for shift in range(5, -1, -1)]
    return Graph(ord(line[0]) - 63, compress(pairs, bits))


# ---------------------------------------------------------------------------
# sweeps

DELTA_CONJECTURE = "delta"
DIAMETER_CONJECTURE = "diameter"


def _delta_fields(tree: Graph, chi: int) -> dict:
    delta = max(map(len, tree.adj))
    return {"delta": delta, "verdict": delta <= (chi - 1) ** 2}


def _diameter_fields(path_values: dict[int, int], g: Graph, chi: int) -> dict:
    d = diameter(g)
    floor = path_values[d]
    return {"diameter": d, "pathValue": floor, "verdict": chi >= floor}


def conjecture_sweep(which: str, max_n: int) -> dict:
    """Exhaustively test one of the two conjectures on every instance of
    order at most max_n.

    Returns a JSON-ready report with one record per instance (canonical
    edge string, order, exact value, the measured quantity, and the
    verdict) plus the aggregate; any violating instance lands in
    "counterexamples".  The instances are solved one after another, each by
    its own ``chi_nl_exact`` call, without a cap: the largest instance at
    the caps takes 317 nodes.  Raises ``ValueError`` for an unknown
    conjecture or an order out of range.
    """
    if which == DELTA_CONJECTURE:
        if not 1 <= max_n <= TREE_ENUM_CAP:
            raise ValueError(f"delta sweep supports 1 <= max_n <= {TREE_ENUM_CAP}")
        graphs = (t for n in range(1, max_n + 1) for t in enumerate_trees(n))
        fields = _delta_fields
    elif which == DIAMETER_CONJECTURE:
        if not 2 <= max_n <= CONNECTED_ENUM_CAP:
            raise ValueError(f"diameter sweep supports 2 <= max_n <= {CONNECTED_ENUM_CAP}")
        from .families import FamilySpec, chi_closed_form

        graphs = (g for n in range(2, max_n + 1) for g in connected_graphs(n))
        # chi(P_{d+1}) for each diameter d that a graph of order at most max_n can have
        fields = partial(_diameter_fields,
                         {d: chi_closed_form(FamilySpec.path(d + 1)) for d in range(1, max_n)})
    else:
        raise ValueError(f"unknown conjecture {which!r}")
    instances = []
    for g in graphs:
        chi = chi_nl_exact(g).chi
        instances.append({"canonical": ";".join(f"{u}-{v}" for u, v in g.edges),
                          "n": g.n, "chi": chi, **fields(g, chi)})
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
