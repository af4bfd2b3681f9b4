"""Exact search oracle for the neighbor-locating chromatic number.

Complete backtracking over vertex color assignments in a fixed order
(descending degree, ties by index) with four prunes: properness, per-class
capacity derived from the color-degree ceilings, signature clashes among
vertices whose whole neighborhood is colored, and color-symmetry breaking
(of the unused colors a vertex may take only the lowest).  The per-depth
work is scheduled once per instance, signatures are color bitmasks, and
the search is one loop over the depth with its state in per-depth lists
(see ``_search``), so it has no recursion and no depth limit.  The search
is deliberately simple and fully exhaustive: it is the independent check
the constructions are measured against, so completeness beats speed.  It
is also sequential and deterministic: the same graph and options always
give the same witness and node count.  The only parallelism is one level
up, where a sweep may solve its independent instances in worker processes
(``conjecture_sweep(..., parallel=True)``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import gt

from .bounds import chi_lower_bound
from .coloring import Coloring, is_nl_coloring
from .graphs import Graph


@dataclass(frozen=True)
class SolveOptions:
    """Caps on one solve: the largest color count tried (at least 1) and a
    wall-clock budget in seconds (at least 0); None means no cap."""

    max_k: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.max_k is not None and self.max_k < 1:
            raise ValueError(f"max_k must be at least 1, got {self.max_k}")
        if self.time_budget is not None and not self.time_budget >= 0:  # also rejects nan
            raise ValueError(f"time budget must be a number of seconds >= 0, "
                             f"got {self.time_budget}")


EXACT = "Exact"
CAPPED_OUT = "CappedOut"
TIMED_OUT = "TimedOut"


@dataclass(frozen=True)
class SolveResult:
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


def _search(g: Graph, k: int, budget: _Budget) -> tuple[int, ...] | None:
    """Colors (indexed by vertex) of the first NL-coloring of g with at most
    k colors in search order, or None once the search is exhausted.

    The vertex order is fixed, so everything that depends only on the depth
    is scheduled first: ``earlier[d]``, the neighbours of ``order[d]``
    colored before it (the properness check), ``final_at[d]``, the vertices
    whose closed neighbourhood is complete once ``order[d]`` is colored (the
    signature check), and the capacity slot of ``order[d]``.  A signature is
    the OR of ``bits`` over a neighbourhood, where ``bits[v] = 1 << color``
    and 0 while v is uncolored.  One loop then walks the depths.  Per depth
    it keeps the color last tried, the highest color allowed (one above the
    highest used at the depths before, at most k, which breaks the symmetry
    between unused colors) and the (table, signature) entries added.  Each color
    tried is one node, failures included, and the nodes are added to
    ``budget.nodes``.
    """
    n, adj = g.n, g.adj
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    pos = [0] * n
    for d, v in enumerate(order):
        pos[v] = d
    earlier = [[u for u in adj[v] if pos[u] < d] for d, v in enumerate(order)]
    final_at: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        final_at[max([pos[w]] + [pos[u] for u in adj[w]])].append(w)
    # capacity: a class may hold at most sum_{j<=D} C(k-1, j) vertices whose
    # color-degree ceiling min(deg, k-1) is at most D; slot D-1 counts them
    slot = [max(1, min(g.degree(v), k - 1)) - 1 for v in order]
    capacity = list(accumulate(comb(k - 1, d) for d in range(1, k)))
    class_counts = [[0] * k for _ in range(k + 1)]
    tables: list[set[int]] = [set() for _ in range(k + 1)]
    colors = [0] * n
    bits = [0] * n
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
                class_counts[colors[v]][slot[depth]] -= 1
                colors[v] = bits[v] = 0
            color = tried[depth] + 1
            if color > limit[depth]:
                tried[depth] = 0
                depth -= 1
                continue
            tried[depth] = color
            nodes += 1
            if nodes % CHECK_EVERY == 0:
                budget.check()
            if color in map(colors.__getitem__, earlier[depth]):  # not proper
                continue
            colors[v] = color
            bits[v] = 1 << color
            counts = class_counts[color]
            counts[slot[depth]] += 1
            if any(map(gt, accumulate(counts), capacity)):  # class over capacity
                continue
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
                    return tuple(colors)
                depth += 1
                limit[depth] = min(k, max(limit[depth - 1], color + 1))
        return None
    finally:
        budget.nodes += nodes


def exists_nl_coloring(g: Graph, k: int,
                       options: SolveOptions | None = None,
                       budget: _Budget | None = None) -> tuple[bool, Coloring | None]:
    """Decide whether some NL-coloring with at most k colors exists.

    Complete search; the witness (when one exists) uses exactly the colors
    1..k' for some k' <= k and is deterministic.  Raises nothing on negative
    instances -- the False answer is the exhausted-search certificate.
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
    learned.
    """
    opts = options or SolveOptions()
    budget = _Budget(opts.time_budget)
    lower = chi_lower_bound(g)
    top = g.n if opts.max_k is None else min(opts.max_k, g.n)
    k = lower
    try:
        while k <= top:
            feasible, witness = exists_nl_coloring(g, k, opts, budget)
            if feasible:
                verdict = is_nl_coloring(g, witness)
                if not verdict.ok:  # cross-check against the independent verifier
                    raise RuntimeError(f"search produced an invalid witness: {verdict}")
                return SolveResult(witness.k, witness, EXACT, budget.nodes)
            k += 1
        return SolveResult(None, None, CAPPED_OUT, budget.nodes)
    except _OutOfTime:
        return SolveResult(None, None, TIMED_OUT, budget.nodes)
