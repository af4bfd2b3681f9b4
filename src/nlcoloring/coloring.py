"""Colorings, the neighbor-locating decision procedure, and structural audits.

A coloring here is a total assignment of colors 1..k.  Properness is *not*
an invariant of the type: the solver needs to represent bad candidates, so
the checks live in :func:`is_nl_coloring`.
"""

from typing import NamedTuple

from .graphs import Graph

NOT_PROPER = "NotProper"
DUPLICATE_SIGNATURE = "DuplicateSignature"


class _Coloring(NamedTuple):
    k: int
    colors: tuple[int, ...]


class Coloring(_Coloring):
    """Assignment of colors 1..k to vertices 0..n-1, every color used."""

    __slots__ = ()

    def __new__(cls, k: int, colors: tuple[int, ...]):
        if k < 1:
            raise ValueError("k must be positive")
        if colors and not (1 <= min(colors) and max(colors) <= k):
            raise ValueError("colors must lie in 1..k")
        if len(set(colors)) != k:
            raise ValueError("every color 1..k must be used by some vertex")
        return super().__new__(cls, k, colors)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_class(self, color: int) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == color)


class NLVerdict(NamedTuple):
    """Outcome of neighbor-locating verification.

    ``ok`` is True exactly when there is no failure; otherwise ``reason`` is
    NotProper or DuplicateSignature and ``witness`` is the first violating
    vertex pair in lexicographic order.
    """

    ok: bool
    reason: str | None = None
    witness: tuple[int, int] | None = None


def _check_match(g: Graph, c: Coloring) -> None:
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")


def neighbor_signature(g: Graph, c: Coloring, v: int) -> tuple[int, ...]:
    """Sorted set of colors appearing on the neighborhood of v."""
    _check_match(g, c)
    return tuple(sorted({c.colors[u] for u in g.adj[v]}))


def color_degree(g: Graph, c: Coloring, v: int) -> int:
    """Number of distinct colors on N(v); at most min(deg(v), k)."""
    return len(neighbor_signature(g, c, v))


def is_nl_coloring(g: Graph, c: Coloring) -> NLVerdict:
    """Decide whether a coloring is neighbor-locating.

    The coloring passes iff every color class is an independent set and no
    two same-colored vertices carry the same set of neighbor colors.  On
    failure, the witness is the lexicographically first violating pair.
    """
    _check_match(g, c)
    colors = c.colors
    for u, v in g.edges:
        if colors[u] == colors[v]:
            return NLVerdict(False, NOT_PROPER, (u, v))
    first: dict[tuple[int, frozenset], int] = {}
    clashes = []
    color_of = colors.__getitem__
    for v, near in enumerate(g.adj):
        key = (colors[v], frozenset(map(color_of, near)))
        u = first.setdefault(key, v)
        if u != v:
            clashes.append((u, v))
    if not clashes:
        return NLVerdict(True)
    # a group's first clash pairs its two smallest members, so the least
    # clash is the lexicographically first violating pair
    return NLVerdict(False, DUPLICATE_SIGNATURE, min(clashes))


def _require_nl(g: Graph, c: Coloring, caller: str) -> None:
    verdict = is_nl_coloring(g, c)
    if not verdict.ok:
        raise ValueError(
            f"{caller} is defined for neighbor-locating colorings only "
            f"({verdict.reason} at {verdict.witness})"
        )


def is_1_paired(g: Graph, c: Coloring) -> bool:
    """True iff every color-degree-1 vertex has a neighbor of color-degree 1.

    Defined for verified NL-colorings only; anything else is rejected.
    """
    _require_nl(g, c, "is_1_paired")
    cd = [color_degree(g, c, v) for v in range(g.n)]
    return all(
        any(cd[u] == 1 for u in g.adj[v])
        for v in range(g.n)
        if cd[v] == 1
    )


class ClassCensus(NamedTuple):
    color: int
    size: int
    by_color_degree: dict[int, int]


def extremal_audit(g: Graph, c: Coloring) -> tuple[ClassCensus, ...]:
    """Full per-class census of a verified NL-coloring, one entry per color 1..k.

    Callers compare the result against the extremal expectations, e.g. on a
    max-order cycle every class has size C(k,2) with k-1 vertices of
    color-degree 1 and C(k-1,2) of color-degree 2.
    """
    _require_nl(g, c, "extremal_audit")
    cd = [color_degree(g, c, v) for v in range(g.n)]
    out = []
    for color in range(1, c.k + 1):
        members = c.color_class(color)
        dist: dict[int, int] = {}
        for v in members:
            dist[cd[v]] = dist.get(cd[v], 0) + 1
        out.append(ClassCensus(color=color, size=len(members), by_color_degree=dist))
    return tuple(out)
