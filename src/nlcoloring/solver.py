"""Exact search oracle for the neighbor-locating chromatic number.

Complete backtracking over vertex color assignments in a fixed order
with four prunes: properness, signature clashes among vertices whose
whole neighborhood is colored, color-symmetry breaking (of the unused
colors a vertex may take only the lowest), and twin order (of two twins,
vertices with equal open or closed neighbourhoods, the later in the order
takes the higher color).  Past ``CHECK_EVERY`` nodes, a memo of the
states found to fail, keyed by all that the rest of the search can see up
to a renaming of the colors in use, backs the search off from any of them
it meets again (failed-state caching, B. M. Smith, CP 2005; up to a
symmetry, as in dominance detection, Fahle, Schamberger and Sellmann, CP
2001).  The order is breadth-first from the highest-degree vertex, lowest
index on ties, and visits each vertex's neighbours by descending degree,
then index; so every vertex after the first has a colored neighbour, and
signatures close soon after their vertex is colored.  The per-depth work
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
from itertools import accumulate, islice
from typing import NamedTuple

from .bounds import chi_lower_bound
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
    twin = [n] * n  # n: no earlier twin, and bits[n] stays 0
    for members in twin_classes(g) if twins is None else twins:
        members = sorted(members, key=pos.__getitem__)
        for u, w in zip(members, members[1:]):
            twin[pos[w]] = u
    return order, earlier, final_at, twin


def _memo_schedule(g: Graph, order: list[int], final_at: list[list[int]],
                   twin: list[int]) -> tuple[list[list[int]], list[bool]]:
    """What the memo of ``_search`` reads at each depth: (front, exact).

    ``front[d]`` holds the vertices that a depth before d touched (colored
    them or a neighbour) and that a depth from d on reads (closes their
    signature, or checks them as an earlier twin).  ``exact[d]`` is True
    where a twin class straddles d, with a member colored before d and a
    later one not: the twin order compares color values there, so those
    depths key the state as it is, not up to renaming the colors."""
    n, adj = g.n, g.adj
    touch, read = [n] * (n + 1), [0] * (n + 1)
    straddling = [0] * (n + 1)  # +1 after an earlier twin's depth, -1 after its next twin's
    at = [0] * n
    for d, u in enumerate(order):
        at[u] = d
        earlier_twin = twin[d]
        read[earlier_twin] = d
        if earlier_twin < n:
            straddling[at[earlier_twin] + 1] += 1
            straddling[d + 1] -= 1
        for w in final_at[d]:
            read[w] = d
        for w in (u, *adj[u]):
            touch[w] = min(touch[w], d)
    front: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        for d in range(touch[w] + 1, read[w] + 1):
            front[d].append(w)
    return front, [open_spans > 0 for open_spans in accumulate(straddling[:n])]


class _Memo:
    """The failed states of one ``_search`` call, up to renaming colors.

    A state enters as its front key (the (signature so far, color bit)
    pair of each front vertex, packed as ``_search`` builds it), its depth,
    its limit and ``used``.  ``shapes`` maps a front key to its shape
    (renamed, names): ``names`` lists the front's colors in order of first
    appearance, and ``renamed`` is the key with the i-th of them renamed i
    (``shape``); ``_renamed`` renames ``used`` the same way.  ``groups``
    maps a class (the renamed key, or the key itself at an exact depth,
    with the limit and the depth) to the states met in it.  While one shape
    fills a group, the group is ``[shape, set of used]`` and compares
    ``used`` as it is (``_search`` does that inline); the states of an
    exact depth never leave that form.  Only when a second shape lands in a
    group does ``renamed_hit`` rename ``used``.  It first splits the group
    by how many pairs of ``used`` hold the color renamed 1, which costs one
    AND and is unchanged by renaming, and renames ``used`` only for states
    that agree on it: on P_3000 ``used`` holds about 1,500 pairs, and no
    two states of a class agree.  A renamed ``used`` is a set of bits of
    the search's ``slot`` too, so a renamed pair that the search has not
    met takes the next bit there."""

    __slots__ = ("k", "slot", "shapes", "groups", "renamings", "colors_of", "pairs",
                 "by_color")

    def __init__(self, k: int, slot: dict[int, int]):
        self.k, self.slot = k, slot
        self.shapes: dict[int, tuple] = {}
        self.groups: dict[tuple[int, int, int], list] = {}
        self.renamings: dict[tuple[int, ...], tuple] = {}  # names -> (to, sigs, table)
        self.colors_of: dict[int, list[int]] = {}  # signature -> its colors
        self.pairs: list[int] = []  # the pair of each bit of slot, as far as read
        self.by_color = [0] * (k + 1)  # the bits of slot whose pair has color c

    def shape(self, key: int) -> tuple:
        """The shape (renamed, names) of a front key, filed in ``shapes``.
        ``names`` lists the colors of the front's vertices, then the colors
        of their signatures so far, each at its first appearance.  No front
        pair is 0 (a front vertex is colored or has a colored neighbour),
        so the key unpacks without its length."""
        k, colors_of = self.k, self.colors_of
        width, low = 2 * k + 2, (1 << k + 1) - 1
        front = [key >> width * i & (1 << width) - 1
                 for i in reversed(range(-(-key.bit_length() // width)))]
        to = [0] * (k + 1)
        names = []
        for pair in front:
            color = (pair & low).bit_length() - 1
            if color > 0 and not to[color]:
                names.append(color)
                to[color] = len(names)
        sigs = []
        for pair in front:
            sig = pair >> k + 1
            colors = colors_of.get(sig)
            if colors is None:
                colors = colors_of[sig] = [c for c in range(1, k + 1) if sig >> c & 1]
            sigs.append(colors)
            for c in colors:
                if not to[c]:
                    names.append(c)
                    to[c] = len(names)
        renamed = 0
        for pair, colors in zip(front, sigs):
            renamed_sig = 0
            for c in colors:
                renamed_sig |= 1 << to[c]
            color = pair & low
            renamed = (renamed << width | renamed_sig << k + 1
                       | (1 << to[color.bit_length() - 1] if color else 0))
        shape = self.shapes[key] = (renamed, tuple(names))
        return shape

    def _renamed(self, used: int, shape: tuple) -> int:
        """``used`` with every pair renamed as the shape's key is.

        The renaming of a shape's names is (to, sigs, table), filed in
        ``renamings`` on first use and shared by the shapes with the same
        names: ``to[c]`` renames color c, the i-th name to i and the other
        colors in increasing order after them.  Only the colors in use
        appear in a state, and they are 1..m, so ``to`` maps them onto 1..m
        and keeps every color above m.  ``sigs`` and ``table`` remember
        renamed signatures and bytes of ``used``, so a byte is renamed once
        per renaming.  ``pairs`` holds every pair of ``used``."""
        k, pairs, slot, names = self.k, self.pairs, self.slot, shape[1]
        renaming = self.renamings.get(names)
        if renaming is None:
            to = [0] * (k + 1)
            for i, c in enumerate((*names, *(c for c in range(1, k + 1) if c not in names)), 1):
                to[c] = i
            renaming = self.renamings[names] = (to, {}, {})
        to, sigs, table = renaming
        low = (1 << k + 1) - 1
        out = offset = 0
        while used:
            byte = used & 255
            if byte:
                renamed = table.get(offset | byte)
                if renamed is None:
                    renamed, rest = 0, byte
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        pair = pairs[(offset >> 8) + bit.bit_length() - 1]
                        sig = pair >> k + 1
                        renamed_sig = sigs.get(sig)
                        if renamed_sig is None:  # distinct bits, so the sum is their OR
                            renamed_sig = sigs[sig] = sum(1 << to[c] + k + 1
                                                          for c in range(1, k + 1) if sig >> c & 1)
                        pair = renamed_sig | 1 << to[(pair & low).bit_length() - 1]
                        renamed |= slot.get(pair) or slot.setdefault(pair, 1 << len(slot))
                    table[offset | byte] = renamed
                out |= renamed
            used >>= 8
            offset += 8 << 8
        return out

    def renamed_hit(self, group: list, shape: tuple, used: int) -> bool:
        """Whether the state (shape, used) is in ``group`` up to renaming,
        adding it if not.  A group is ``[shape, set of used]`` while one
        shape fills it, and ``[None, contents]`` once two have: a class's
        group then maps a count to such groups (how many pairs of ``used``
        hold the color named first), and a counted group holds renamed
        ``used``."""
        pairs, by_color = self.pairs, self.by_color
        start = len(pairs)
        if start < len(self.slot):  # read the pairs met since the last call
            pairs.extend(islice(self.slot, start, None))
            low = (1 << self.k + 1) - 1
            for i in range(start, len(pairs)):
                by_color[(pairs[i] & low).bit_length() - 1] |= 1 << i
        if group[0] is not None:  # the class's second shape: split by the count
            first, members = group
            first_color = by_color[first[1][0]]
            parts: dict[int, list] = {}
            for u in members:
                parts.setdefault((u & first_color).bit_count(), [first, set()])[1].add(u)
            group[:] = [None, parts]
        count = (used & by_color[shape[1][0]]).bit_count()
        part = group[1].get(count)
        if part is None:
            group[1][count] = [shape, {used}]
            return False
        if part[0] is not shape:
            if part[0] is not None:  # the count's second shape: rename
                first, members = part
                part[:] = [None, {self._renamed(u, first) for u in members}]
            used = self._renamed(used, shape)
        hit = used in part[1]
        part[1].add(used)
        return hit


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
    last before it in the order (the twin check), or n where it has none.
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

    Past ``CHECK_EVERY`` nodes of this call, entering depth d keys the state
    by d, ``limit[d]``, ``used`` and the (signature so far, color) pair of
    each vertex in ``front[d]``: the vertices that a depth before d touched
    (colored them or a neighbour) and that a depth from d on reads (closes
    their signature, or checks them as a twin; ``_memo_schedule``).  The
    key fixes every valid completion: an uncolored vertex's properness
    reads its signature so far, a signature still open ends as that plus
    colors of the completion, a new pair must miss ``used``, ``limit[d]``
    fixes which colors may open, and twin order reads colors in the front.
    A depth entered with a key already met backs off passing over no color;
    otherwise its key is remembered at once, as the search only comes back
    above the depth once its subtree holds no solution (a witness ends the
    call, and by induction the hits below it skipped none).

    The memo compares keys up to renaming the colors in use, 1..m: each
    shows in the key, as a colored vertex is in the front or its pair is in
    ``used``.  ``_Memo`` renames them in order of first appearance in the
    front and keeps the colors above m, so two states whose renamed keys
    agree are one renaming π of 1..m apart.  π maps an NL-coloring to an
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
    the earlier one's value, which a renaming does not keep.  Those depths
    (``exact[d]``) compare keys as they are.
    """
    order, earlier, final_at, twin = schedule or _schedule(g)
    n, adj = g.n, g.adj
    slot: dict[int, int] = {}  # (signature, color bit) -> its bit in used
    used = 0
    base = [0] * n  # used on entry to each depth
    bits = [0] * (n + 1)  # bits[n] stays 0: the color of no twin
    cands = [0b10] * n  # depth 0 may take color 1 only; deeper ones are set on entry
    tried = [0] * n
    limit = [1] * n
    memo = front = exact = shapes = groups = None  # the memo, once it is on
    width = 2 * k + 2  # bits of a (signature, color) pair
    nodes = 0
    next_check = CHECK_EVERY
    depth = 0
    try:
        while depth >= 0:
            v = order[depth]
            if bits[v]:  # undo the color that led deeper
                used = base[depth]
            last = tried[depth]
            rest = cands[depth] >> (last + 1) << (last + 1)
            closing = final_at[depth]
            while rest:  # the lowest candidate whose signatures are all new
                bit = rest & -rest
                rest ^= bit
                color = bit.bit_length() - 1
                bits[v] = bit
                now = used
                for w in closing:
                    sig = 0
                    for u in adj[w]:
                        sig |= bits[u]
                    pair = sig << k + 1 | bits[w]  # a new pair takes the next bit
                    b = slot.get(pair) or slot.setdefault(pair, 1 << len(slot))
                    if now & b:
                        break
                    now |= b
                else:
                    used = now
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
                    front, exact = _memo_schedule(g, order, final_at, twin)
                    memo = _Memo(k, slot)
                    shapes, groups = memo.shapes, memo.groups
            if not bits[v]:
                depth -= 1
                continue
            if depth + 1 == n:
                return tuple(bit.bit_length() - 1 for bit in bits[:n])
            depth += 1
            base[depth] = used
            top = limit[depth] = min(k, max(limit[depth - 1], color + 1))
            tried[depth] = (bits[twin[depth]] >> 1).bit_length()  # 0: no twin
            forbidden = 0
            for u in earlier[depth]:
                forbidden |= bits[u]
            cands[depth] = ((2 << top) - 2) & ~forbidden
            if memo is not None:  # the memo: is this state a known dead end?
                key = 0
                for w in front[depth]:
                    sig = 0
                    for u in adj[w]:
                        sig |= bits[u]
                    key = key << width | sig << k + 1 | bits[w]
                shape = shapes.get(key) or memo.shape(key)
                cls = (key if exact[depth] else shape[0], top, depth)
                group = groups.get(cls)
                if group is None:
                    groups[cls] = [shape, {used}]
                elif group[0] is shape:  # the same front: compare used as it is
                    if used in group[1]:  # back off as if exhausted, passing no color
                        tried[depth] = top
                    else:
                        group[1].add(used)  # it has failed by the time the search is back
                elif memo.renamed_hit(group, shape, used):
                    tried[depth] = top
        return None
    finally:
        budget.nodes += nodes


def _search_order(g: Graph) -> list[int]:
    """Breadth-first order from the highest-degree vertex, lowest index on
    ties, visiting each vertex's neighbours by descending degree, then
    index.  The graph is connected, so every vertex after the first has a
    neighbour before it."""
    by_degree = [(-len(near), v) for v, near in enumerate(g.adj)].__getitem__  # v's sort key
    order = [min(range(g.n), key=by_degree)]
    seen = [False] * g.n
    seen[order[0]] = True
    for v in order:  # grows while it is walked
        for u in sorted(g.adj[v], key=by_degree):
            if not seen[u]:
                seen[u] = True
                order.append(u)
    return order


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
    lower = chi_lower_bound(g, twins)
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
