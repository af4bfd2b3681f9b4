"""Closed-form bounds for the neighbor-locating chromatic number.

Capacity counts a1/a2/ell, order bounds for general / degree-bounded /
unicyclic / tree inputs, and the derived lower bound for arbitrary
connected graphs; the exact values of the named families are
``families.chi_closed_form``.  The lower bound joins five proved
bounds: the paper's order bounds, the twin bound, the cycle bound (no
cycle of order ell(k) - 1 has a k-NL-coloring, nor one of even order a
3-NL-coloring), the neighbour bound (the degrees of a vertex's
neighbours cap how many it has) and the cone step over universal
vertices; each is proved in ``chi_lower_bound``.  Everything but the
cone step's connectivity check and the neighbour bound's sorts is
integer arithmetic.
"""

from math import comb

from .graphs import Graph, distances, twin_classes


def a1(k: int) -> int:
    """Maximum number of color-degree-1 vertices in a k-NL-coloring: k(k-1)."""
    _require_k(k, 3)
    return k * (k - 1)


def a2(k: int) -> int:
    """Maximum number of color-degree-2 vertices: k(k-1)(k-2)/2."""
    _require_k(k, 3)
    return k * (k - 1) * (k - 2) // 2


def ell(k: int) -> int:
    """Maximum order of a max-degree-2 graph with a k-NL-coloring: a1 + a2."""
    _require_k(k, 3)
    return (k ** 3 - k ** 2) // 2


def _require_k(k: int, minimum: int) -> None:
    if k < minimum:
        raise ValueError(f"k must be at least {minimum}, got {k}")


def max_order(k: int, max_degree: int | None = None) -> int:
    """Largest possible order of a graph with NL-chromatic number k.

    Without a degree cap this is k(2^(k-1) - 1).  With max_degree <= k-1
    supplied, the sharper value k * sum_{1<=j<=max_degree} C(k-1, j) applies;
    larger degree caps are rejected because the sharper formula does not
    cover them.
    """
    _require_k(k, 2)
    if max_degree is None:
        return k * (2 ** (k - 1) - 1)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    if max_degree > k - 1:
        raise ValueError(f"degree-bounded formula requires max_degree <= k-1 "
                         f"(got degree {max_degree} with k={k})")
    total, term = 0, 1
    for j in range(max_degree):  # C(k-1, j+1) = C(k-1, j) (k-1-j) / (j+1), exactly
        term = term * (k - 1 - j) // (j + 1)
        total += term
    return k * total


def class_order_bound(k: int, kind: str) -> int:
    """Order bound for unicyclic graphs or trees with NL-chromatic number k."""
    _require_k(k, 3)
    if kind == "unicyclic":
        return (k ** 3 + k ** 2 - 2 * k) // 2
    if kind == "tree":
        return (k ** 3 + k ** 2 - 2 * k - 4) // 2
    raise ValueError(f"kind must be 'unicyclic' or 'tree', got {kind!r}")


def tree_max_degree(k: int) -> int:
    """Degree bound (k-1)^2 + (k-1)/2 for trees, floored to an integer."""
    _require_k(k, 2)
    return (k - 1) ** 2 + (k - 1) // 2


def bounds_report(k: int, max_degree: int | None = None) -> dict:
    """Every applicable order bound for a color count k, keyed as ``nlc bounds``
    prints them; ``degreeBoundedMaxOrder`` only when a degree cap is given."""
    _require_k(k, 3)
    out = {
        "k": k,
        "generalMaxOrder": max_order(k),
        "unicyclicMaxOrder": class_order_bound(k, "unicyclic"),
        "treeMaxOrder": class_order_bound(k, "tree"),
        "treeMaxDegree": tree_max_degree(k),
        "ell": ell(k),
        "a1": a1(k),
        "a2": a2(k),
    }
    if max_degree is not None:
        out["degreeBoundedMaxOrder"] = max_order(k, max_degree)
    return out


def chi_lower_bound(g: Graph) -> int:
    """Largest lower bound on the NL-chromatic number implied by the order
    bounds, the twin classes, the cycles, the neighbours' degrees and the
    universal vertices.

    The floor of a graph is the smallest k >= min(t + 1, n), for its
    largest class of t twins (t = 1 without twins), passing every
    applicable necessary condition: the general order bound, the
    degree-bounded order bound (when the degree cap applies, which for
    paths and cycles is the ell bound), and the tree order bound for n-1
    edges and the unicyclic one for n edges; for a cycle, k >= 3 with
    n = ell(k) - 1 fails too, and so does k = 3 with n even; and the
    neighbour bound.  Never below 2 for graphs of order >= 2.  Where g has
    a universal vertex, the cone step below may raise it.  The bound
    equals the NL-chromatic number on every path, cycle, fan and wheel.

    Twin bound: two twins of one color would have equal signatures (false
    twins) or be adjacent (true twins), so a class takes t colors.  A class
    of false twins has a common neighbour, and a class of true twins smaller
    than n has a neighbour outside it, adjacent to the whole class; that
    neighbour needs one more color, so chi >= min(t + 1, n).

    Cycle bound: a connected graph with n edges and maximum degree 2 is a
    cycle, and for k >= 3 a cycle of order ell(k) - 1 has no k-NL-coloring
    (the paper's exceptional value, proved here by counting edges).  In a
    k-NL-coloring of a cycle each vertex has a pair (c, S): its color c and
    the set S of its neighbours' colors, with c not in S and |S| in {1, 2}.
    Distinct vertices have distinct pairs, and there are k(k - 1) +
    k(k - 1)(k - 2)/2 = ell(k) pairs in all.  For colors c != a, count the
    edges between classes c and a from c's side: a vertex with pair
    (c, {a}) has both neighbours colored a, and one with (c, {a, b}) has
    one, so there are 2 [(c, {a}) used] + #{b : (c, {a, b}) used} of them,
    which is k when c uses all its pairs.  Counting from a's side must give
    the same number.  Order ell(k) - 1 leaves out exactly one pair (c, S).
    Then for a in S the count from c's side is k - 2 or k - 1, while a
    uses all its pairs and counts k toward c: no such coloring exists.
    At k = 3 a cycle of even order n >= 4 has none either.  Let y_c say
    whether c's pair (c, {a, b}) is used; the two counts for c and a read
    2 [(c, {a}) used] + y_c = 2 [(a, {c}) used] + y_a, so all y_c are
    equal and (c, {a}) is used iff (a, {c}) is.  If all are 0, every
    vertex sees one color, so the colors alternate along the cycle and two
    vertices of one color share a signature.  If all are 1, n is 3 plus
    the number of pairs (c, {a}) used, which come two at a time: n is odd.

    Neighbour bound: in a k-NL-coloring, a neighbour w of v has a color
    other than v's, and a signature that holds v's color, not its own, and
    at most deg(w) colors.  As w -> (color, signature) is one-to-one, at
    most cap(d) = (k - 1) sum_{j < min(d, k - 1)} C(k - 2, j) neighbours
    of v have degree <= d.  So, with v's neighbour degrees sorted
    d_1 <= d_2 <= ..., every i has i <= cap(d_i).  Only a vertex of degree
    above (k - 1)^2 can fail it once k is at least the twin bound: its
    neighbours of degree 1 are false twins, at most k - 1 = cap(1), and
    cap(d) >= (k - 1)^2 for d >= 2.  In particular every vertex has degree
    <= cap(k - 1) = (k - 1) 2^(k - 2), which is (k - 1)^2 for k <= 3: every
    graph with chi <= 3 has maximum degree <= (chi - 1)^2.

    Cone step: let u be adjacent to every other vertex, with g - u
    connected.  In an NL-coloring of g no other vertex takes u's color, as
    all are adjacent to u, and every other signature holds it.  So the
    coloring it induces on g - u is proper, uses the other colors only,
    and still separates two vertices of one color: their signatures
    differed and both held u's color.  Hence chi(g) >= chi(g - u) + 1,
    with equality, as a color of its own for u extends any NL-coloring of
    g - u to g.

    Let U be the universal vertices, removed one at a time.  Each graph
    left while a vertex of U remains is connected, as that vertex is
    universal in it; g - U itself may not be.  So with P = U when g - U
    is connected, and P = U less one vertex otherwise,
    chi(g) >= |P| + chi(g - P) >= |P| + floor(g - P).  One step peels all
    there is: a universal vertex of g - U would be universal in g.
    g - P is not built.  With p = |P| and m edges in g, it has order
    n - p and m - p(p - 1)/2 - p(n - p) edges; its degrees are those of g
    less p, its neighbourhoods those of g less P, and its twin classes
    those of g other than U.  U is a class of true twins when |U| >= 2, no
    other vertex is a twin of a universal one, and removing P, which every
    vertex left sees, keeps equal neighbourhoods equal and distinct ones
    distinct.  The bound is the
    larger of floor(g) and p + floor(g - P); a graph with no universal
    vertex pays one comparison for the step.
    """
    return _chi_lower_bound(g, twin_classes(g))


def _chi_lower_bound(g: Graph, twins: list[list[int]]) -> int:
    """``chi_lower_bound(g)``, given ``twins = twin_classes(g)`` (the solver's)."""
    n, adj = g.n, g.adj
    delta = max(map(len, adj))
    bound = _floor(n, len(g.edges), delta, max(map(len, twins), default=1), adj)
    if delta < n - 1:
        return bound
    universal = [v for v, near in enumerate(adj) if len(near) == delta]
    if len(universal) == n:  # complete: the twin bound reads n already
        return bound
    start = next(v for v, near in enumerate(adj) if len(near) < delta)
    if distances(g, start, universal).count(-1) == len(universal):  # g - U is connected
        peel, rest_delta = len(universal), max(len(near) for near in adj if len(near) < delta)
    else:  # keep one universal vertex
        peel, rest_delta = len(universal) - 1, n - 1
    if peel == 0:
        return bound
    twin = max((len(c) for c in twins if len(adj[c[0]]) < delta), default=1)
    edges = len(g.edges) - peel * (peel - 1) // 2 - peel * (n - peel)
    rest = _floor(n - peel, edges, rest_delta - peel, twin, adj, set(universal[:peel]))
    return max(bound, peel + rest)


def _floor(n: int, m: int, delta: int, twin: int, adj: tuple[tuple[int, ...], ...],
           peeled: set[int] | tuple = ()) -> int:
    """The bound without the cone step for a connected graph of order n with
    m edges, maximum degree delta and a largest twin class of twin vertices
    (1 when it has none): adj less the vertices peeled, which see all of it."""
    twin_bound = min(twin + 1, n)
    tree, unicyclic = m == n - 1, m == n  # as ``is_tree`` decides it
    for k in range(max(twin_bound, 2), n + 1):
        if n > max_order(k):
            continue
        if delta <= k - 1 and n > max_order(k, delta):
            continue
        if tree and k >= 3 and n > class_order_bound(k, "tree"):
            continue
        if unicyclic and k >= 3 and n > class_order_bound(k, "unicyclic"):
            continue
        if unicyclic and delta == 2 and k >= 3 and (n == ell(k) - 1 or k == 3 and n % 2 == 0):
            continue  # a cycle
        if delta > (k - 1) ** 2 and (delta > (k - 1) << k - 2  # above cap(k - 1)
                                     or not _neighbours_fit(k, adj, peeled)):
            continue
        return k
    return n


def _neighbours_fit(k: int, adj: tuple[tuple[int, ...], ...], peeled: set[int] | tuple) -> bool:
    """Whether every vertex of adj less peeled has, for each i, its i-th
    smallest neighbour degree d_i with i <= cap(d_i) at k colors."""
    p, cap = len(peeled), [(k - 1) * sum(comb(k - 2, j) for j in range(d)) for d in range(k)]
    for v, near in enumerate(adj):
        if len(near) - p > (k - 1) ** 2 and v not in peeled:
            degrees = sorted(len(adj[w]) - p for w in near if w not in peeled)
            if not all(i <= cap[min(d, k - 1)] for i, d in enumerate(degrees, 1)):
                return False
    return True
