"""Exact search oracle for the neighbor-locating chromatic number.

Complete backtracking over vertex color assignments in a fixed order
(descending degree, ties by index) with four prunes: properness, per-class
capacity derived from the color-degree ceilings, signature clashes among
vertices whose whole neighborhood is colored, and optional color-symmetry
breaking.  Per-depth work is scheduled once per instance and signatures
are color bitmasks (see ``_Search``), which changes neither the search nor
its node counts.  The search is deliberately simple and fully exhaustive:
it is the independent check the constructions are measured against, so
completeness beats speed.  It is also sequential and deterministic: the
same graph and options always give the same witness and node count.  The
only parallelism is one level up, where a sweep may solve its independent
instances in worker processes (``conjecture_sweep(..., parallel=True)``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .bounds import chi_lower_bound
from .coloring import Coloring, is_nl_coloring
from .graphs import Graph


@dataclass(frozen=True)
class SolveOptions:
    max_k: int | None = None
    time_budget: float | None = None  # seconds of wall clock
    symmetry_breaking: bool = True


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


class _Search:
    """Backtracking state for one (graph, k) decision instance.

    The vertex order is fixed, so everything that depends only on the depth
    is computed once here: ``earlier[d]``, the neighbours of ``order[d]``
    colored before it (the properness check), and ``final_at[d]``, the
    vertices whose closed neighbourhood is complete once ``order[d]`` is
    colored (the signature check).  A signature is the OR of ``bits`` over a
    neighbourhood, where ``bits[v] = 1 << color`` and 0 while v is uncolored.
    The nodes visited, and whether each assignment succeeds, are the same as
    if every node recomputed these facts; only the per-node cost is lower.
    """

    CHECK_EVERY = 4096

    def __init__(self, g: Graph, k: int, symmetry: bool, budget: _Budget):
        self.g = g
        self.k = k
        self.symmetry = symmetry
        self.budget = budget
        self.order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        pos = {v: d for d, v in enumerate(self.order)}
        self.earlier = [[u for u in g.adj[v] if pos[u] < d]
                        for d, v in enumerate(self.order)]
        self.final_at: list[list[int]] = [[] for _ in range(g.n)]
        for w in range(g.n):
            self.final_at[max([pos[w]] + [pos[u] for u in g.adj[w]])].append(w)
        self.colors = [0] * g.n
        self.bits = [0] * g.n
        # capacity: a class may hold at most sum_{j<=D} C(k-1, j) vertices
        # whose color-degree ceiling min(deg, k-1) is at most D
        self.ceiling = [max(1, min(g.degree(v), k - 1)) for v in range(g.n)]
        self.cum_capacity = [0] * k  # index D-1 -> capacity for ceilings <= D
        total = 0
        for d in range(1, k):
            total += comb(k - 1, d)
            self.cum_capacity[d - 1] = total
        self.class_ceiling_counts = [[0] * k for _ in range(k + 1)]
        self.finalized: list[set[int]] = [set() for _ in range(k + 1)]
        self.max_used = 0
        self.nodes = 0

    # -- incremental state -------------------------------------------------
    def _capacity_ok(self, color: int) -> bool:
        counts = self.class_ceiling_counts[color]
        running = 0
        for d in range(1, self.k):
            running += counts[d - 1]
            if running > self.cum_capacity[d - 1]:
                return False
        return True

    def assign(self, depth: int, color: int) -> list[tuple[set[int], int]] | None:
        """Try coloring order[depth].  Returns None, with the state rolled
        back, if infeasible; else the (table, signature) pairs it added,
        which the caller must eventually pass to unassign()."""
        self.nodes += 1
        if self.nodes % self.CHECK_EVERY == 0:
            self.budget.check()
        colors = self.colors
        for u in self.earlier[depth]:
            if colors[u] == color:
                return None
        v = self.order[depth]
        colors[v] = color
        self.bits[v] = 1 << color
        self.class_ceiling_counts[color][self.ceiling[v] - 1] += 1
        added: list[tuple[set[int], int]] = []
        if self._capacity_ok(color):
            bits = self.bits
            adj = self.g.adj
            for w in self.final_at[depth]:
                sig = 0
                for u in adj[w]:
                    sig |= bits[u]
                table = self.finalized[colors[w]]
                if sig in table:
                    break
                table.add(sig)
                added.append((table, sig))
            else:
                return added
        self.unassign(depth, added)
        return None

    def unassign(self, depth: int, added: list[tuple[set[int], int]]) -> None:
        for table, sig in added:
            table.remove(sig)
        v = self.order[depth]
        self.class_ceiling_counts[self.colors[v]][self.ceiling[v] - 1] -= 1
        self.colors[v] = 0
        self.bits[v] = 0

    # -- search ------------------------------------------------------------
    def color_options(self) -> range:
        if self.symmetry:
            return range(1, min(self.k, self.max_used + 1) + 1)
        return range(1, self.k + 1)

    def run(self, depth: int) -> tuple[int, ...] | None:
        if depth == self.g.n:
            return tuple(self.colors)
        for color in self.color_options():
            added = self.assign(depth, color)
            if added is not None:
                prev_max = self.max_used
                self.max_used = max(self.max_used, color)
                found = self.run(depth + 1)
                self.max_used = prev_max
                self.unassign(depth, added)
                if found is not None:
                    return found
        return None


def exists_nl_coloring(g: Graph, k: int,
                       options: SolveOptions | None = None,
                       budget: _Budget | None = None) -> tuple[bool, Coloring | None]:
    """Decide whether some NL-coloring with at most k colors exists.

    Complete search; the witness (when one exists) uses at most k colors and
    is deterministic.  Raises nothing on negative instances -- the False
    answer is the exhausted-search certificate.
    """
    if k < 1:
        raise ValueError("k must be positive")
    opts = options or SolveOptions()
    budget = budget or _Budget(opts.time_budget)
    budget.check()
    search = _Search(g, k, opts.symmetry_breaking, budget)
    try:
        found = search.run(0)
    finally:
        budget.nodes += search.nodes
    if found is None:
        return False, None
    compacted = _compact_colors(found)
    return True, Coloring(max(compacted), compacted)


def _compact_colors(colors: tuple[int, ...]) -> tuple[int, ...]:
    """Renumber so the used colors are exactly 1..count (witnesses may skip
    color indices only when symmetry breaking is off)."""
    remap = {c: i + 1 for i, c in enumerate(sorted(set(colors)))}
    return tuple(remap[c] for c in colors)


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
