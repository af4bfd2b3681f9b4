"""Closed-form bounds and exact values for the neighbor-locating chromatic number.

Everything here is integer arithmetic: capacity counts a1/a2/ell, order
bounds for general / degree-bounded / unicyclic / tree inputs, the derived
lower bound (order bounds and twin classes) for arbitrary connected
graphs, and the exact values for the named families (paths, cycles, fans,
wheels, stars, double stars and the extremal unicyclic/caterpillar
instances).
"""

from __future__ import annotations

from .graphs import FamilySpec, Graph, degree_stats, is_tree, twin_classes


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


def chi_lower_bound(g: Graph, twins: list[list[int]] | None = None) -> int:
    """Largest lower bound on the NL-chromatic number implied by the order
    bounds and the twin classes.

    Returns the smallest k passing every applicable necessary condition:
    the general order bound, the degree-bounded order bound (when the
    degree cap applies, which for paths and cycles is the ell bound), and
    the tree order bound for n-1 edges and the unicyclic one for n edges;
    and at least min(t + 1, n) for a class of t >= 2 twins (``twins`` is
    ``twin_classes(g)``, computed here unless the caller has it).  Never
    below 2 for graphs of order >= 2.

    Twin bound: two twins of one color would have equal signatures (false
    twins) or be adjacent (true twins), so a class takes t colors.  A class
    of false twins has a common neighbour, and a class of true twins smaller
    than n has a neighbour outside it, adjacent to the whole class; that
    neighbour needs one more color, so chi >= min(t + 1, n).
    """
    if g.n == 1:
        return 1
    if twins is None:
        twins = twin_classes(g)
    twin_bound = min(max(map(len, twins), default=1) + 1, g.n)
    tree = is_tree(g)
    unicyclic = len(g.edges) == g.n
    delta = degree_stats(g).max_degree
    for k in range(2, g.n + 1):
        if g.n > max_order(k):
            continue
        if delta <= k - 1 and g.n > max_order(k, delta):
            continue
        if tree and k >= 3 and g.n > class_order_bound(k, "tree"):
            continue
        if unicyclic and k >= 3 and g.n > class_order_bound(k, "unicyclic"):
            continue
        return max(k, twin_bound)
    return g.n


def bracket(n: int) -> int:
    """The unique k >= 4 with ell(k-1) < n <= ell(k); defined for n >= 10."""
    if n < 10:
        raise ValueError("bracket lookup applies to orders of at least 10")
    # ell(k) >= k^3 / 3 > n at k = 2^(n.bit_length() // 3 + 2), so bisect below it
    lo, hi = 4, 2 ** (n.bit_length() // 3 + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if ell(mid) < n:
            lo = mid + 1
        else:
            hi = mid
    return lo


def chi_closed_form(spec: FamilySpec) -> int:
    """Exact NL-chromatic number of a named family instance.

    Covers paths, cycles, fans, wheels, stars, double stars and the
    extremal unicyclic/caterpillar instances (which have value k by
    construction).  Combs are not covered.
    """
    fam, args = spec.family, spec.args
    if fam == "path":
        n = args[0]
        if n == 2:
            return 2
        if n <= 9:
            return 3
        return bracket(n)
    if fam == "cycle":
        n = args[0]
        if n <= 9:
            return 3 if n % 2 == 1 else 4
        k = bracket(n)
        return k + 1 if n == ell(k) - 1 else k
    if fam == "fan":
        return chi_closed_form(FamilySpec.path(args[0] - 1)) + 1
    if fam == "wheel":
        return chi_closed_form(FamilySpec.cycle(args[0] - 1)) + 1
    if fam == "star":
        return args[0]
    if fam == "double-star":
        return args[1] + 1
    if fam in ("unicyclic", "caterpillar"):
        return args[0]
    raise ValueError(f"no closed-form value for family {fam!r}")
