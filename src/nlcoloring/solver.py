"""Exact search oracle for the neighbor-locating chromatic number.

Complete backtracking over vertex color assignments in a fixed order
with five prunes: properness, per-class capacity derived from the
color-degree ceilings, signature clashes among vertices whose whole
neighborhood is colored, color-symmetry breaking (of the unused colors a
vertex may take only the lowest), and twin order (of two twins, vertices
with equal open or closed neighbourhoods, the later in the order takes the
higher color).  The order is breadth-first from the highest-degree vertex,
lowest index on ties, and visits each vertex's neighbours by descending
degree, then index; so every vertex after the first has a colored
neighbour, and signatures close soon after their vertex is colored.  The
per-depth work is scheduled once per graph, signatures and the colors a
vertex may not take are color bitmasks, each class keeps headroom counters
for its capacity, and the search is one loop over the depth with its state
in per-depth lists (see ``_search``), so it has no recursion and no depth
limit.  The search is deliberately simple
and fully exhaustive: it is the independent check the constructions are
measured against, so completeness beats speed.  It is also sequential and
deterministic: the same graph and options always give the same witness and
node count.
"""

from __future__ import annotations

import time
from itertools import accumulate, takewhile
from math import comb
from typing import NamedTuple

from .bounds import chi_lower_bound
from .coloring import Coloring, is_nl_coloring
from .graphs import Graph, twin_classes


class _SolveOptions(NamedTuple):
    max_k: int | None
    time_budget: float | None


class SolveOptions(_SolveOptions):
    """Caps on one solve: the largest color count tried (at least 1) and a
    wall-clock budget in seconds (at least 0); None means no cap."""

    __slots__ = ()

    def __new__(cls, max_k: int | None = None, time_budget: float | None = None):
        if max_k is not None and max_k < 1:
            raise ValueError(f"max_k must be at least 1, got {max_k}")
        if time_budget is not None and not time_budget >= 0:  # also rejects nan
            raise ValueError(f"time budget must be a number of seconds >= 0, "
                             f"got {time_budget}")
        return super().__new__(cls, max_k, time_budget)


EXACT = "Exact"
CAPPED_OUT = "CappedOut"
TIMED_OUT = "TimedOut"


class SolveResult(NamedTuple):
    chi: int | None
    witness: Coloring | None
    status: str
    nodes_explored: int

    def to_dict(self) -> dict:
        out: dict = {"chi": self.chi, "status": self.status,
                     "nodesExplored": self.nodes_explored}
        if self.witness is not None:
            out["certificate"] = {
                "n": self.witness.n, "k": self.witness.k,
                "colors": list(self.witness.colors),
            }
        return out


class _Budget:
    """Wall-clock budget and node count shared by the k attempts of one solve."""

    __slots__ = ("deadline", "nodes")

    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _OutOfTime


class _OutOfTime(TimeoutError):
    pass


CHECK_EVERY = 4096  # nodes between two deadline checks


_Schedule = tuple[list[int], list[list[int]], list[list[int]], list[int]]


def _schedule(g: Graph, twins: list[list[int]] | None = None) -> _Schedule:
    """What ``_search`` does at each depth, whatever k is: (order, earlier,
    final_at, twin).  ``twins`` is ``twin_classes(g)``, computed here unless
    the caller has it."""
    n, adj = g.n, g.adj
    order = _search_order(g)
    pos = [0] * n
    for d, v in enumerate(order):
        pos[v] = d
    earlier = [[u for u in adj[v] if pos[u] < d] for d, v in enumerate(order)]
    final_at: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        final_at[max([pos[w]] + [pos[u] for u in adj[w]])].append(w)
    twin = [n] * n  # n: no earlier twin, and colors[n] stays 0
    for members in twin_classes(g) if twins is None else twins:
        members = sorted(members, key=pos.__getitem__)
        for u, w in zip(members, members[1:]):
            twin[pos[w]] = u
    return order, earlier, final_at, twin


def _search(g: Graph, k: int, budget: _Budget,
            schedule: _Schedule | None = None) -> tuple[int, ...] | None:
    """Colors (indexed by vertex) of the first NL-coloring of g with at most
    k colors in search order, or None once the search is exhausted.

    The vertex order is breadth-first from the highest-degree vertex (lowest
    index on ties), visiting each vertex's neighbours by descending degree,
    then index (``_search_order``).  It is fixed, so everything that depends
    only on the depth is scheduled first, once per graph (``_schedule``,
    built here unless the caller has it): ``earlier[d]``, the neighbours of
    ``order[d]`` colored before it (the properness check), ``final_at[d]``,
    the vertices whose closed neighbourhood is complete once ``order[d]`` is
    colored (the signature check), and ``twin[d]``, the twin of ``order[d]``
    last before it in the order (the twin check).  ``span[d]``, the
    capacity counters ``order[d]`` counts against, depends on k and is set
    up here.  A signature is the OR of ``bits`` over a neighbourhood, where
    ``bits[v] = 1 << color`` and 0 while v is uncolored.  One loop then
    walks the depths.  Per depth it keeps the colors its earlier neighbours
    hold (``forbidden``, set when the depth is entered), the color last
    tried (which starts at the color of ``twin[d]`` when the depth is
    entered, so that a twin takes a higher color than the twin before it),
    the highest color allowed (one above the highest used at the depths
    before, at most k, which breaks the symmetry between unused colors) and
    the (table, signature) entries added.  Each color tried is one node,
    failures included, and the nodes are added to ``budget.nodes``.

    The two symmetry prunes keep the search complete, and they leave its
    first answer unchanged: each only drops colorings that are not the
    least, in search order, of their class under color permutations and
    graph automorphisms (a lex-leader constraint: Crawford, Ginsberg, Luks
    and Roy, KR 1996), and the search meets the colorings in that order.
    Take c, the least NL-coloring with at most k colors.  Renaming colors
    maps NL-colorings to NL-colorings, so c opens colors in increasing
    order: a color higher than one above those used before could be
    swapped with that one for a smaller coloring.  Twins (equal open or
    closed neighbourhoods) take distinct colors: false twins of one color
    would have equal signatures, and true twins are adjacent.  Swapping two
    twins is an automorphism, so it maps c to an NL-coloring too; if an
    earlier twin u had a higher color than a later twin w, the swap would
    be smaller than c at u and equal before it.  Both rules hold for c at
    once, so using both cuts nothing that the search returns.  No vertex
    has both a false and a true twin (``twin_classes``), so the twins form
    disjoint classes and the chain of one pointer per depth orders each
    class completely.
    """
    order, earlier, final_at, twin = schedule or _schedule(g)
    n, adj = g.n, g.adj
    # capacity: a class may hold at most sum_{j<=D} C(k-1, j) vertices whose
    # color-degree ceiling min(deg, k-1) is at most D.  room[c][D-1] is what
    # class c has left of that.  A vertex of ceiling D counts against slot
    # D-1 and every slot above it (its span, which runs to the end of the
    # list), and the class is full for it when one of them is 0.  A slot of
    # capacity n or more never blocks a vertex (at most n - 1 others share
    # its class), so the list stops before it.
    sums = accumulate(comb(k - 1, d) for d in range(1, k))
    capacity = list(takewhile(lambda c: c < n, sums))
    span = [range(max(1, min(g.degree(v), k - 1)) - 1, len(capacity)) for v in order]
    room = [capacity[:] for _ in range(k + 1)]
    tables: list[set[int]] = [set() for _ in range(k + 1)]
    colors = [0] * (n + 1)
    bits = [0] * n
    forbidden = [0] * n
    tried = [0] * n
    limit = [1] * n
    added: list[list[tuple[set[int], int]]] = [[] for _ in range(n)]
    nodes = 0
    depth = 0
    try:
        while depth >= 0:
            v = order[depth]
            if colors[v]:  # undo the color tried last at this depth
                for table, sig in added[depth]:
                    table.remove(sig)
                added[depth].clear()
                left = room[colors[v]]
                for i in span[depth]:
                    left[i] += 1
                colors[v] = bits[v] = 0
            color = tried[depth] + 1
            if color > limit[depth]:
                depth -= 1
                continue
            tried[depth] = color
            nodes += 1
            if nodes % CHECK_EVERY == 0:
                budget.check()
            bit = 1 << color
            if forbidden[depth] & bit:  # not proper
                continue
            left = room[color]
            slots = span[depth]
            if 0 in left[slots.start:]:  # class full
                continue
            for i in slots:
                left[i] -= 1
            colors[v] = color
            bits[v] = bit
            for w in final_at[depth]:
                sig = 0
                for u in adj[w]:
                    sig |= bits[u]
                table = tables[colors[w]]
                if sig in table:
                    break
                table.add(sig)
                added[depth].append((table, sig))
            else:
                if depth + 1 == n:
                    return tuple(colors[:n])
                depth += 1
                limit[depth] = min(k, max(limit[depth - 1], color + 1))
                tried[depth] = colors[twin[depth]]
                mask = 0
                for u in earlier[depth]:
                    mask |= bits[u]
                forbidden[depth] = mask
        return None
    finally:
        budget.nodes += nodes


def _search_order(g: Graph) -> list[int]:
    """Breadth-first order from the highest-degree vertex, lowest index on
    ties, visiting each vertex's neighbours by descending degree, then
    index.  The graph is connected, so every vertex after the first has a
    neighbour before it."""
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    rank = [0] * g.n
    for r, v in enumerate(by_degree):
        rank[v] = r
    order = [by_degree[0]]
    seen = [False] * g.n
    seen[order[0]] = True
    for v in order:  # grows while it is walked
        for u in sorted(g.adj[v], key=rank.__getitem__):
            if not seen[u]:
                seen[u] = True
                order.append(u)
    return order


def exists_nl_coloring(g: Graph, k: int,
                       options: SolveOptions | None = None,
                       budget: _Budget | None = None) -> tuple[bool, Coloring | None]:
    """Decide whether some NL-coloring with at most k colors exists.

    Complete search; the witness (when one exists) uses exactly the colors
    1..k' for some k' <= k and is deterministic.  Raises nothing on negative
    instances -- the False answer is the exhausted-search certificate.  Raises
    ``TimeoutError`` when ``options.time_budget`` (or ``budget``) runs out
    before the search has an answer, and ``ValueError`` when k < 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    budget = budget or _Budget((options or SolveOptions()).time_budget)
    budget.check()
    found = _search(g, k, budget)
    if found is None:
        return False, None
    return True, Coloring(max(found), found)


def chi_nl_exact(g: Graph, options: SolveOptions | None = None) -> SolveResult:
    """Exact NL-chromatic number by iterating k upward from the lower bound.

    The Exact status carries a verified witness with exactly chi colors and
    the implicit infeasibility certificate for chi-1 (the exhausted search).
    A max-k cap or time budget yields CappedOut / TimedOut with whatever was
    learned.  The twin classes are found once, for the lower bound and the
    search schedule, and the one schedule serves every k tried.
    """
    opts = options or SolveOptions()
    budget = _Budget(opts.time_budget)
    twins = twin_classes(g)
    lower = chi_lower_bound(g, twins)
    schedule = _schedule(g, twins)
    top = g.n if opts.max_k is None else min(opts.max_k, g.n)
    k = lower
    try:
        while k <= top:
            budget.check()
            found = _search(g, k, budget, schedule)
            if found is not None:
                witness = Coloring(max(found), found)
                verdict = is_nl_coloring(g, witness)
                if not verdict.ok:  # cross-check against the independent verifier
                    raise RuntimeError(f"search produced an invalid witness: {verdict}")
                return SolveResult(witness.k, witness, EXACT, budget.nodes)
            k += 1
        return SolveResult(None, None, CAPPED_OUT, budget.nodes)
    except _OutOfTime:
        return SolveResult(None, None, TIMED_OUT, budget.nodes)
