"""Exact search oracle for the neighbor-locating chromatic number.

Complete backtracking over vertex color assignments in a fixed order
with four prunes: properness, signature clashes among vertices whose
whole neighborhood is colored, color-symmetry breaking (of the unused
colors a vertex may take only the lowest), and twin order (of two twins,
vertices with equal open or closed neighbourhoods, the later in the order
takes the higher color).  A depth that runs out of colors jumps back to
the last depth that its failures read (conflict-directed backjumping,
Prosser 1993), skipping only subtrees without a solution; ``_search``
argues why.  Past ``CHECK_EVERY`` nodes, a memo of the states found to
fail, keyed by all that the rest of the search can see up to a renaming
of the colors in use, backs the search off from any of them it meets
again (failed-state caching, B. M. Smith, CP 2005; up to a symmetry, as
in dominance detection, Fahle, Schamberger and Sellmann, CP 2001).  The
memo lives in ``_memo``, which a search imports only when it first passes
``CHECK_EVERY`` nodes, so a process whose searches all stay smaller
(every sweep, every small ``chi --exact``) never loads it; why a hit
skips no solution is argued in ``_search``.  The order is
breadth-first from the highest-degree vertex, lowest index on ties, and
visits each vertex's neighbours by descending degree, then index; so
every vertex after the first has a colored neighbour, and signatures
close soon after their vertex is colored.  The per-depth work
is scheduled once per graph, and colors, signatures, color sets and the
(color, signature) pairs in use are bitmasks.  Properness depends only on
the colors already placed, so each depth decides it once, when the search
enters it, as a mask of candidate colors; only the signature test runs
per color.  The search is one loop over the depth with its state in
per-depth lists (see ``_search``), so it has no recursion and no depth
limit.  The search is deliberately simple and fully exhaustive: it is the
independent check the constructions are measured against, so completeness
beats speed.  It is also sequential and deterministic: the same graph and
color cap always give the same witness and node count.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .bounds import _chi_lower_bound
from .coloring import Coloring, is_nl_coloring
from .graphs import Graph, twin_classes


EXACT = "Exact"
CAPPED_OUT = "CappedOut"
TIMED_OUT = "TimedOut"


class SolveResult(NamedTuple):
    chi: int | None
    witness: Coloring | None
    status: str
    nodes_explored: int

    def to_dict(self) -> dict:
        from .formats import certificate_to_dict  # here, so sweeps never load formats

        out: dict = {"chi": self.chi, "status": self.status,
                     "nodesExplored": self.nodes_explored}
        if self.witness is not None:
            out["certificate"] = certificate_to_dict(self.witness)
        return out


class _Budget:
    """Wall-clock budget and node count shared by the k attempts of one solve."""

    __slots__ = ("deadline", "nodes")

    def __init__(self, seconds: float | None):
        if seconds is not None and not seconds >= 0:  # also rejects nan
            raise ValueError(f"time budget must be a number of seconds >= 0, got {seconds}")
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _OutOfTime


class _OutOfTime(TimeoutError):
    pass


CHECK_EVERY = 4096  # nodes between two deadline checks; the first switches the memo on


_Schedule = tuple[list[int], list[list[int]], list[list[int]], list[int], list[int], list[int]]


def _schedule(g: Graph, twins: list[list[int]] | None = None) -> _Schedule:
    """What ``_search`` does at each depth, whatever k is: (order, earlier,
    final_at, twin, closed, reasons).  ``twins`` is ``twin_classes(g)``,
    computed here unless the caller has it.  One walk places the vertices
    breadth-first from the highest-degree vertex, lowest index on ties,
    visiting each vertex's neighbours by descending degree, then index, so
    every vertex after the first has a neighbour before it (the graph is
    connected).  The walk's order grows while it is walked: at depth d it
    places the unplaced neighbours of ``order[d]``, notes the placed ones as
    its earlier neighbours, and adds d to ``closed[u]`` for each neighbour u
    and ``order[d]`` itself, so ``closed[w]`` ends as the depths of w's
    closed neighbourhood as a mask, the highest of them w's closing depth.
    Once ``order[d]`` is walked, its ``closed`` holds the depths of its
    earlier neighbours and its own: that is ``reasons[d]``, to which a
    twin adds its earlier twin's depth."""
    n, adj = g.n, g.adj
    degree = list(map(len, adj))
    by_degree = degree.__getitem__
    first = degree.index(max(degree))
    order = [first]
    pos = [n] * n  # n: not placed yet
    pos[first] = 0
    closed = [0] * n
    earlier, reasons = [], []
    for d, v in enumerate(order):  # grows while it is walked
        bit = 1 << d
        before = []
        for u in sorted(adj[v], key=by_degree, reverse=True):  # stable: index on ties
            closed[u] |= bit
            if pos[u] < d:
                before.append(u)
            elif pos[u] == n:
                pos[u] = len(order)
                order.append(u)
        earlier.append(before)
        closed[v] |= bit
        reasons.append(closed[v])
    final_at: list[list[int]] = [[] for _ in range(n)]
    for w, depths in enumerate(closed):
        final_at[depths.bit_length() - 1].append(w)
    twin = [n] * n  # n: no earlier twin, and bits[n] stays 0
    for members in twin_classes(g) if twins is None else twins:
        members = sorted(members, key=pos.__getitem__)
        for u, w in zip(members, members[1:]):
            twin[pos[w]] = u
            reasons[pos[w]] |= 1 << pos[u]
    return order, earlier, final_at, twin, closed, reasons


def _search(g: Graph, k: int, budget: _Budget,
            schedule: _Schedule | None = None) -> tuple[int, ...] | None:
    """Colors (indexed by vertex) of the first NL-coloring of g with at most
    k colors in search order, or None once the search is exhausted.

    The vertex order is breadth-first from the highest-degree vertex (lowest
    index on ties), visiting each vertex's neighbours by descending degree,
    then index.  It is fixed, so everything that depends only on the depth
    is scheduled first, once per graph (``_schedule``, built here unless
    the caller has it): ``earlier[d]``, the neighbours of ``order[d]``
    colored before it (the properness check), ``final_at[d]``, the vertices
    whose closed neighbourhood is complete once ``order[d]`` is colored (the
    signature check), ``twin[d]``, the twin of ``order[d]`` last before it
    in the order (the twin check), or n where it has none, and the masks of
    depths that backjumping reads, ``closed[w]`` and ``reasons[d]``.
    Colors are bits, and ``bits`` is the search's only record of them:
    ``bits[v] = 1 << color``, 0 while v is uncolored and always at v = n,
    and a signature is the OR of ``bits`` over a neighbourhood.

    One loop then walks the depths.  When it enters a depth it decides
    properness for every color at once, as the candidate mask ``cands[d]``:
    the colors up to the highest allowed (one above the highest used at the
    depths before, at most k, which breaks the symmetry between unused
    colors), minus ``forbidden``, the colors its earlier neighbours hold.
    The mask holds for the whole stay at the depth, because everything
    deeper is undone before the depth tries its next color.  The color last
    tried starts at the color of ``twin[d]`` (so that a twin takes a higher
    color than the twin before it), read from its bit b as ``(b >> 1)``'s
    bit length, which is 0 where there is no twin, and the next color tried
    is the lowest candidate above it.  Only the signatures are tested per
    color: each (signature, color) pair has a bit of ``used`` (``slot``
    numbers the pairs as the search or the memo's renaming meets them), so
    a clash is an AND, and undoing a depth restores ``base[d]``, ``used``
    as the depth found it.  Only a color that passes goes deeper.  Each
    color up to the highest allowed is one node when the search passes over
    it, whether the candidate mask or a signature clash rejected it, and
    the nodes are added to ``budget.nodes``; the deadline is checked each
    time the count crosses a multiple of ``CHECK_EVERY``.

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

    A depth that runs out of colors sends the search back to the last depth
    that explains why, not merely to the one before it (conflict-directed
    backjumping: Prosser, Computational Intelligence 9(3), 1993, after
    Gaschnig, 1979).  Each depth d keeps ``conflict[d]``, a mask of the
    depths behind its failures.  It starts as ``reasons[d]``: d itself,
    its earlier neighbours' depths (properness) and its earlier twin's
    (twin order).  A signature clash at a closing vertex w adds the depths
    of N[w] and of N[h], for h the vertex that holds the pair already
    (``held`` keeps ``closed[h]`` under each pair as it is added).  Out of
    colors, d jumps to the highest depth j in the rest of its mask, merges
    that rest into ``conflict[j]`` and clears the colors of the depths it
    skips, as the memo reads the uncolored vertices' signatures so far; an
    empty rest ends the call.  Two cases step back one depth, as if every
    depth before d were in the mask (-1): a depth whose limit is below k,
    and a memo hit.

    Why a jump skips no solution.  Call a solution a coloring the search
    accepts: proper, with distinct (signature, color) pairs, colors opened
    in order up to k and twins in order.  Each color that d rejects breaks
    one of these conditions, and the condition reads only d and the depths
    that the rejection added to ``conflict[d]``: properness the earlier
    neighbours', twin order the twin's, and a clash the colors of N[w] and
    N[h], which fix both pairs (h closes by depth d, so any prefix that
    agrees on them and reaches w has the pair in use).  A color that went
    deeper failed there, for reasons that by induction on the depth read
    only the depths merged back into ``conflict[d]``.  So every prefix that
    agrees with this one on ``conflict[d]``, among them each that differs
    only strictly between j and d, fails at d: the subtrees a jump skips
    hold no solution, and the first witness is unchanged.  The rule that
    opens colors in order reads every depth before d, through the highest
    color used there, so where it cut colors (the limit is below k) the
    failure reads them all; at the limit k it cuts none, as no color is
    above k.  A memo hit reads the whole state too.

    Past ``CHECK_EVERY`` nodes of this call the search imports ``_memo``
    and switches on its ``Memo``.  From then on, entering depth d asks
    ``Memo.seen`` whether the state has failed before, and backs off
    passing over no color where it has.  The memo keys the state by d,
    ``limit[d]``, ``used`` and the (signature so far, color) pair of each
    vertex in the front at d: the vertices that a depth before d touched
    (colored them or a neighbour) and that a depth from d on reads (closes
    their signature, or checks them as a twin).  The key fixes every valid
    completion: an uncolored vertex's properness reads its signature so
    far, a signature still open ends as that plus colors of the completion,
    a new pair must miss ``used``, ``limit[d]`` fixes which colors may
    open, and twin order reads colors in the front.  A state the memo has
    not met is remembered at once, as the search only comes back above the
    depth once its subtree holds no solution: a witness ends the call, by
    induction the hits below it skipped none, and a jump from below it to
    above it leaves a subtree that holds no valid completion of the current
    prefix, which is the set that the key fixes.

    The memo compares keys up to renaming the colors in use, 1..m: each
    shows in the key, as a colored vertex is in the front or its pair is in
    ``used``.  It renames them in order of first appearance in the front
    and keeps the colors above m, so two states whose renamed keys agree
    are one renaming π of 1..m apart.  π maps an NL-coloring to an
    NL-coloring, keeps signatures distinct, fixes the colors above m and so
    the limit rule, and maps the pairs of ``used`` onto those of the other
    state.  So π carries a valid completion c of the later state to an
    NL-coloring that extends the earlier one, except that twin order may
    fail for two uncolored twins, whose colors π may swap in value.  Take
    the least coloring, in search order, of its orbit under permutations
    of the unused colors (above m) and swaps of uncolored twins: both keep
    the colored prefix and the NL property, and the least element opens
    colors in order and sets twins in order, by the argument above.  The
    search from the earlier state accepts it, so a hit still skips only
    subtrees without a solution, and the first witness is unchanged.  The
    argument fails where a twin class straddles d, with a member colored
    before d and a later one not: the later twin must take a color above
    the earlier one's value, which a renaming does not keep.  At those
    depths the memo compares keys as they are.
    """
    order, earlier, final_at, twin, closed, reasons = schedule or _schedule(g)
    n, adj = g.n, g.adj
    shift = k + 1  # a pair is its signature shifted past the color bits, OR its color bit
    slot: dict[int, int] = {}  # pair -> its bit in used
    held: dict[int, int] = {}  # pair -> closed[w] of the vertex w that added it last
    used = 0
    base = [0] * n  # used on entry to each depth
    bits = [0] * (n + 1)  # bits[n] stays 0: the color of no twin
    cands = [0b10] * n  # depth 0 may take color 1 only; deeper ones are set on entry
    tried = [0] * n
    limit = [1] * n
    conflict = [-1] * n  # the depths behind each depth's failures; -1: every one before it
    memo = None  # the memo, once it is on
    nodes = 0
    next_check = CHECK_EVERY
    depth = 0
    try:
        while True:
            v = order[depth]
            if bits[v]:  # undo the color that led deeper
                used = base[depth]
            last = tried[depth]
            rest = cands[depth] & -2 << last  # the candidates above the last color tried
            closing = final_at[depth]
            while rest:  # the lowest candidate whose signatures are all new
                bit = rest & -rest
                rest ^= bit
                bits[v] = bit
                now = used
                for w in closing:
                    sig = 0
                    for u in adj[w]:
                        sig |= bits[u]
                    pair = sig << shift | bits[w]  # a new pair takes the next bit
                    b = slot.get(pair) or slot.setdefault(pair, 1 << len(slot))
                    if now & b:
                        conflict[depth] |= closed[w] | held[pair]
                        break
                    now |= b
                    held[pair] = closed[w]
                else:
                    used = now
                    color = bit.bit_length() - 1
                    break  # every signature is new: keep this color
            else:  # no candidate left: pass over the colors up to the limit
                color = limit[depth]
                bits[v] = 0
            nodes += color - last
            tried[depth] = color
            if nodes >= next_check:
                budget.check()
                next_check = nodes - nodes % CHECK_EVERY + CHECK_EVERY
                if memo is None:  # switch the memo on
                    from ._memo import Memo  # here, so small searches never load it

                    memo = Memo(g, k, slot, order, final_at, twin)
            if not bits[v]:  # jump back to the last depth that explains the failure
                why = conflict[depth]
                if why < 0:
                    back = depth - 1
                else:
                    why ^= 1 << depth
                    back = why.bit_length() - 1
                if back < 0:
                    return None
                conflict[back] |= why
                for u in order[back + 1:depth]:
                    bits[u] = 0
                depth = back
                continue
            if depth + 1 == n:
                return tuple(bit.bit_length() - 1 for bit in bits[:n])
            depth += 1
            base[depth] = used
            top = limit[depth - 1]
            if color == top < k:  # the depth before opened a color: one more may open
                top += 1
            limit[depth] = top
            conflict[depth] = reasons[depth] if top == k else -1
            tried[depth] = (bits[twin[depth]] >> 1).bit_length()  # 0: no twin
            forbidden = 0
            for u in earlier[depth]:
                forbidden |= bits[u]
            cands[depth] = ((2 << top) - 2) & ~forbidden
            if memo is not None and memo.seen(depth, tried, bits, top, used):
                tried[depth] = top  # back off as if exhausted, passing no color
                conflict[depth] = -1
    finally:
        budget.nodes += nodes


def exists_nl_coloring(g: Graph, k: int, *,
                       budget: _Budget | None = None) -> tuple[bool, Coloring | None]:
    """Decide whether some NL-coloring with at most k colors exists.

    Complete search; the witness (when one exists) uses exactly the colors
    1..k' for some k' <= k and is deterministic.  Raises nothing on negative
    instances -- the False answer is the exhausted-search certificate.  Raises
    ``TimeoutError`` when ``budget`` runs out before the search has an
    answer, and ``ValueError`` when k < 1.  For a decision within a time
    budget, ``chi_nl_exact(g, max_k=k, time_budget=t)`` is Exact exactly when
    a coloring with at most k colors exists.
    """
    if k < 1:
        raise ValueError("k must be positive")
    budget = budget or _Budget(None)
    budget.check()
    found = _search(g, k, budget)
    if found is None:
        return False, None
    return True, Coloring(max(found), found)


def chi_nl_exact(g: Graph, *, max_k: int | None = None,
                 time_budget: float | None = None) -> SolveResult:
    """Exact NL-chromatic number by iterating k upward from the lower bound.

    The Exact status carries a verified witness with exactly chi colors and
    the implicit infeasibility certificate for chi-1 (the exhausted search).
    ``max_k`` caps the color count (at least 1) and ``time_budget`` is a
    wall-clock budget in seconds (at least 0); None means no cap, and a
    value out of range raises ``ValueError`` before any work.  A cap or
    budget that stops the solve yields CappedOut / TimedOut with whatever
    was learned.  The twin classes are found once, for the lower bound and
    the search schedule, and the one schedule serves every k tried.
    """
    if max_k is not None and max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    budget = _Budget(time_budget)
    twins = twin_classes(g)
    lower = _chi_lower_bound(g, twins)
    schedule = _schedule(g, twins)
    top = g.n if max_k is None else min(max_k, g.n)
    k = lower
    try:
        while k <= top:
            budget.check()
            found = _search(g, k, budget, schedule)
            if found is not None:
                try:  # a skipped color is a fault, not the ValueError of a cap out of range
                    witness = Coloring(max(found), found)
                except ValueError as exc:
                    raise RuntimeError(f"search produced an invalid witness: {exc}") from None
                verdict = is_nl_coloring(g, witness)
                if not verdict.ok:  # cross-check against the independent verifier
                    raise RuntimeError(f"search produced an invalid witness: {verdict}")
                return SolveResult(witness.k, witness, EXACT, budget.nodes)
            k += 1
        return SolveResult(None, None, CAPPED_OUT, budget.nodes)
    except _OutOfTime:
        return SolveResult(None, None, TIMED_OUT, budget.nodes)
