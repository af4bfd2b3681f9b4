"""Constructive procedures producing verified neighbor-locating colorings.

Covers the stored small bases for paths and cycles, the two vertex-insertion
operations on colored cycles (one fresh-colored vertex between a
color-degree-1 pair, or a swapped-color pair between a color-degree-2 pair),
the 1-paired cycle pipeline built from them, path colorings by edge deletion,
the universal-vertex lift, the comb coloring, the extremal unicyclic graph
and caterpillar, and the generic coloring of trees of order at least 5;
``family_coloring`` picks the one for each named family.

The pipeline runs its chain of insertions in one loop over a byte color
list, without recursion or caching, and finds each insertion edge with
bytearray.find; each insertion checks only its own preconditions.  Every
constructor verifies its output once and returns just that graph and
coloring; a failure raises ConstructionError instead of shipping a bad one.
"""

from __future__ import annotations

from collections.abc import MutableSequence, Sequence
from itertools import combinations
from math import isqrt
from typing import NamedTuple

from .bounds import a2, bracket, ell
from .coloring import Coloring, is_nl_coloring, neighbor_signature
from .graphs import FamilySpec, Graph, classify, cone, distances, family_graph, is_tree


class ConstructionError(RuntimeError):
    """A construction produced something that failed self-verification."""


class ColoredGraph(NamedTuple):
    """A graph together with a verified NL-coloring."""

    graph: Graph
    coloring: Coloring

    @property
    def k(self) -> int:
        return self.coloring.k


def _certified(graph: Graph, coloring: Coloring) -> ColoredGraph:
    verdict = is_nl_coloring(graph, coloring)
    if not verdict.ok:
        raise ConstructionError(
            f"self-verification failed ({verdict.reason} at {verdict.witness})")
    return ColoredGraph(graph, coloring)


def _colored(family: str, seq: tuple[int, ...]) -> ColoredGraph:
    """The coloring seq of the canonical path or cycle of order len(seq), certified."""
    graph = family_graph(FamilySpec(family, (len(seq),)))
    return _certified(graph, Coloring(max(seq), seq))


# ---------------------------------------------------------------------------
# stored small bases
#
# Minimum NL-colorings for paths of order 2..9 and cycles of order 3..9,
# frozen after verification.  The order-9 cycle base is 1-paired, carries the
# consecutive run 1,2,1,2,3,2,3 and one adjacent color-degree-1 pair per
# color pair -- the pipeline below depends on those three properties.

_PATH_BASES: dict[int, tuple[int, ...]] = {
    2: (1, 2),
    3: (1, 2, 3),
    4: (1, 2, 3, 1),
    5: (1, 2, 3, 1, 2),
    6: (1, 2, 1, 3, 2, 3),
    7: (1, 2, 3, 2, 3, 1, 2),
    8: (2, 1, 2, 3, 2, 3, 1, 3),
    9: (1, 2, 3, 2, 3, 1, 3, 1, 2),
}

_CYCLE_BASES: dict[int, tuple[int, ...]] = {
    3: (1, 2, 3),
    4: (1, 2, 3, 4),
    5: (1, 2, 1, 2, 3),
    6: (1, 2, 1, 2, 3, 4),
    7: (1, 2, 1, 2, 3, 2, 3),
    8: (1, 2, 1, 2, 3, 2, 3, 4),
    9: (1, 2, 1, 2, 3, 2, 3, 1, 3),
}


def base_small_coloring(spec: FamilySpec) -> ColoredGraph:
    """Stored minimum NL-coloring for paths of order 2..9 / cycles of order 3..9."""
    fam, (n,) = spec.family, spec.args
    if fam == "path" and n in _PATH_BASES:
        seq = _PATH_BASES[n]
    elif fam == "cycle" and n in _CYCLE_BASES:
        seq = _CYCLE_BASES[n]
    else:
        raise ValueError(f"no stored base coloring for {spec.label()}")
    return _colored(fam, seq)


# ---------------------------------------------------------------------------
# the two insertion operations, on the color list of a cycle
#
# Position p of the list is vertex p of the cycle, and edge p joins
# positions p and (p+1) mod m.  Both operations check their preconditions in
# O(1) and splice the list in place; a broken precondition raises
# ConstructionError and leaves the list as it was.

def _seq_color_degree(seq: Sequence[int], p: int) -> int:
    m = len(seq)
    return 1 if seq[p - 1] == seq[(p + 1) % m] else 2


def _op1(seq: MutableSequence[int], p: int, h: int) -> None:
    """OP1: insert one vertex colored h on edge p.

    The endpoints must carry distinct colors i, j and both have
    color-degree 1, and h must avoid i and j.  Their color-degrees rise to
    2, the new vertex has color-degree 2, and no other vertex's signature
    changes.
    """
    q = (p + 1) % len(seq)
    i, j = seq[p], seq[q]
    if (i == j or h in (i, j)
            or _seq_color_degree(seq, p) != 1 or _seq_color_degree(seq, q) != 1):
        raise ConstructionError(f"OP1 with h={h} needs distinct color-degree-1 endpoints "
                                f"colored other than h; edge {p} joins colors ({i},{j})")
    seq.insert(p + 1, h)


def _op2(seq: MutableSequence[int], p: int) -> None:
    """OP2: insert two adjacent vertices colored j, i on edge p, whose
    endpoints carry distinct colors i, j and both have color-degree 2.

    Endpoint signatures are preserved and the new vertices form an adjacent
    color-degree-1 pair.  The result is neighbor-locating exactly when the
    input is and no vertex colored i sees only j, nor one colored j only i;
    the pipeline inserts each color pair once.
    """
    q = (p + 1) % len(seq)
    i, j = seq[p], seq[q]
    if i == j or _seq_color_degree(seq, p) != 2 or _seq_color_degree(seq, q) != 2:
        raise ConstructionError(f"OP2 needs distinct color-degree-2 endpoints; "
                                f"edge {p} joins colors ({i},{j})")
    seq[p + 1 : p + 1] = [j, i]


# ---------------------------------------------------------------------------
# the 1-paired cycle pipeline

def _find_cd_pair_edge(seq: bytearray, pair: tuple[int, int], cd: int) -> int:
    """Lowest edge position whose endpoints have the given colors and color-degree.

    Edges 0..m-2 are found with bytearray.find, once per orientation of the
    pair, checking color-degrees at the hits only; the closing edge m-1 is
    checked when no lower edge qualifies.
    """
    m = len(seq)
    i, j = pair
    best = m - 1
    for run in (bytes((i, j)), bytes((j, i))):
        p = seq.find(run, 0, best + 1)  # only hits p < best: the run ends by position best
        while p != -1:
            if _seq_color_degree(seq, p) == cd and _seq_color_degree(seq, p + 1) == cd:
                best = p
                break
            p = seq.find(run, p + 1, best + 1)
    if best < m - 1:
        return best
    if ({seq[-1], seq[0]} == {i, j}
            and _seq_color_degree(seq, m - 1) == cd and _seq_color_degree(seq, 0) == cd):
        return m - 1
    raise ConstructionError(f"no eligible edge for color pair {pair} at color-degree {cd}")


def _designated_vertex(seq: Sequence[int]) -> int:
    """The lowest vertex colored 2 whose two neighbors are colored 1 and 3."""
    ring = bytes(seq[-1:]) + bytes(seq) + bytes(seq[:1])  # vertex p is ring[p + 1]
    hits = [p for p in (ring.find(bytes((1, 2, 3))), ring.find(bytes((3, 2, 1)))) if p != -1]
    if not hits:
        raise ConstructionError("no vertex colored 2 with neighbor colors {1,3}")
    return min(hits)


def _lex_pairs(top: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, top + 1), 2))


def _pipeline_sequence(k: int, n: int) -> tuple[int, ...]:
    """Colors of the deterministic 1-paired k-coloring of the order-n cycle.

    Chain structure: starting from the order-9 base, each level k' = 4..k
    grows the order-ell(k'-1) coloring by single insertions (new color k')
    at the adjacent color-degree-1 pairs, one per color pair of 1..k'-1 in
    lexicographic order, up to order a2(k'); from there pair insertions (one
    per color pair of 1..k') extend even offsets up to ell(k'), and from
    order a2(k')-1 odd offsets up to ell(k')-3, skipping the color pair left
    unconsumed by the first phase.  The first two pair insertions happen on
    the edges at the vertex colored 2 with neighbors colored 1 and 3, which
    lays down the run 1,2,1,2,3,2,3 needed at full order.  Every level below
    k runs to its full order ell(k'); level k stops at n.

    The insertions edit one byte color list in place and check only their
    own preconditions: callers check that (k, n) is reachable and certify
    what they build from the sequence.  A color is one byte, so k is at most
    255 and n at most ell(255); larger k raise ValueError before any work.
    """
    if k > 255:
        raise ValueError(f"{k} colors do not fit the pipeline's one-byte colors; it builds "
                         f"cycles and paths of order at most ell(255) = {ell(255)}")
    seq = bytearray(_CYCLE_BASES[9])
    for level in range(4, k + 1):
        target = n if level == k else ell(level)
        a2k = a2(level)
        odd = target > a2k and (target - a2k) % 2 == 1
        phase1_end = a2k - 1 if odd else min(target, a2k)
        for pair in _lex_pairs(level - 1)[: phase1_end - len(seq)]:
            _op1(seq, _find_cd_pair_edge(seq, pair, cd=1), level)
        if odd:
            skipped = {level - 2, level - 1}  # pair whose color-degree-1 vertices survive
            pairs = [pr for pr in _lex_pairs(level) if set(pr) != skipped]
        else:
            pairs = [(1, 2), (2, 3)] + [pr for pr in _lex_pairs(level)
                                        if set(pr) not in ({1, 2}, {2, 3})]
        for step, pair in enumerate(pairs[: (target - len(seq)) // 2]):
            if odd or step >= 2:
                p = _find_cd_pair_edge(seq, pair, cd=2)
            else:  # {1,2}, then {2,3}, on the edges at the designated vertex
                u = _designated_vertex(seq)
                p = (u - 1) % len(seq) if seq[u - 1] == (1 if step == 0 else 3) else u
            _op2(seq, p)
    return tuple(seq)


def one_paired_cycle_coloring(k: int, n: int) -> ColoredGraph:
    """1-paired k-NL-coloring of the order-n cycle.

    Defined for k >= 4 and ell(k-1) < n <= ell(k) except n = ell(k)-1, which
    admits no k-coloring at all.
    """
    if k < 4:
        raise ValueError("the pipeline needs at least 4 colors")
    if not (ell(k - 1) < n <= ell(k)):
        raise ValueError(f"order {n} is outside (ell({k - 1}), ell({k})]")
    if n == ell(k) - 1:
        raise ValueError(f"order {n} = ell({k})-1 has no {k}-coloring; "
                         f"use cycle_coloring for the k+1 construction")
    return _colored("cycle", _pipeline_sequence(k, n))


def cycle_coloring(n: int) -> ColoredGraph:
    """Minimum NL-coloring of the cycle of order n >= 3."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    if n <= 9:
        return base_small_coloring(FamilySpec.cycle(n))
    k = bracket(n)
    if n == ell(k) - 1:
        # subdivide one edge of the order n-1 cycle with a fresh color
        seq = _pipeline_sequence(k, n - 1)
        return _colored("cycle", (seq[0], k + 1) + seq[1:])
    return one_paired_cycle_coloring(k, n)


def path_coloring(n: int) -> ColoredGraph:
    """Minimum NL-coloring of the path of order n >= 2.

    Orders 10 and up come from the cycle pipeline: cut the cycle at the
    first adjacent color-degree-1 pair (at the first edge where there is
    none, as at order a2(k)), except at order ell(k)-1 where the full-order
    cycle loses the vertex colored 2 with neighbors colored 1 and 3.
    """
    if n < 2:
        raise ValueError("paths need at least 2 vertices")
    if n <= 9:
        return base_small_coloring(FamilySpec.path(n))
    k = bracket(n)
    if n == ell(k) - 1:
        seq = _pipeline_sequence(k, ell(k))
        u = _designated_vertex(seq)
        return _colored("path", seq[u + 1 :] + seq[:u])
    seq = _pipeline_sequence(k, n)
    cut = next((p for p in range(n)
                if _seq_color_degree(seq, p) == 1 and _seq_color_degree(seq, (p + 1) % n) == 1), 0)
    return _colored("path", seq[cut + 1 :] + seq[: cut + 1])


def cone_coloring(cg: ColoredGraph) -> ColoredGraph:
    """Add a universal vertex carrying a fresh color; the value rises by one."""
    coloring = Coloring(cg.k + 1, cg.coloring.colors + (cg.k + 1,))
    return _certified(cone(cg.graph), coloring)


# ---------------------------------------------------------------------------
# comb coloring

def _group_colors(k: int, r: int) -> list[int]:
    """Colors of the r-th spine group: 1..k minus r, cyclically decreasing.

    Even groups start at r+1, odd groups at r-2; the last group of an odd k
    swaps its final three entries to k-1, 1, 2.
    """
    norm = lambda x: (x - 1) % k + 1
    start = r + 1 if r % 2 == 0 else r - 2
    out: list[int] = []
    c = norm(start)
    while len(out) < k - 1:
        if c != r:
            out.append(c)
        c = norm(c - 1)
    if r == k and k % 2 == 1:
        out[-3:] = [k - 1, 1, 2]
    return out


def _comb_spine_colors(k: int) -> list[int]:
    spine: list[int] = []
    for r in range(1, k + 1):
        spine.extend(_group_colors(k, r))
    return spine


def comb_signature_table(k: int, r: int, l: int) -> frozenset | None:
    """Expected neighbor signature of the spine vertex colored l in group r.

    Transcribed case split for the standard comb coloring; returns None for
    cells the split does not cover (the color-3 rows at k=5).  Used as an
    independent cross-check of the constructed coloring.
    """
    if r == l:
        raise ValueError("a group never contains its own leaf color")
    norm = lambda x: (x - 1) % k + 1
    sig = lambda *xs: frozenset(norm(x) for x in xs)
    even = k % 2 == 0
    if l == 1:
        if r == 2:
            return sig(2, 3, k)
        if r == 3:
            return sig(3, 4, k)
        if r == k - 1:
            return sig(2, k - 1, k) if even else sig(2, k - 2, k - 1)
        if r == k:
            return sig(k - 2, k - 1, k) if even else sig(2, k - 1, k)
        return sig(r, 2, k)
    if l == 2:
        if r == 1:
            return sig(1, 3, k)
        if r == 3:
            return sig(3, 4, 5)
        if r == k:
            return sig(3, k) if even else sig(1, k)
        return sig(r, 1, 3)
    if l == 3:
        if k == 5:
            return None
        if r == 2:
            return sig(1, 2, k)
        if r == 4:
            return sig(2, 4, 5)
        if r == 5:
            return sig(2, 5, 6)
        if r == k - 1:
            return sig(2, 4, k - 1)
        if r == k:
            return sig(2, 4, k) if even else sig(4, k - 1, k)
        return sig(r, 2, 4)
    if l == k - 1:
        if r == 1:
            return sig(1, k - 2)
        if even:
            if r == k - 2:
                return sig(k - 4, k - 3, k - 2)
            if r == k:
                return sig(1, k - 2, k)
        else:
            if r == k - 3:
                return sig(k - 4, k - 3, k)
            if r == k - 2:
                return sig(k - 3, k - 2, k)
            if r == k:
                return sig(1, 3, k)
        return sig(r, k - 2, k)
    if l == k:
        if r == 1:
            return sig(1, 2, 3)
        if even:
            if r == k - 2:
                return sig(1, k - 3, k - 2)
            if r == k - 1:
                return sig(1, k - 2, k - 1)
        else:
            if r == k - 1:
                return sig(k - 3, k - 2, k - 1)
        return sig(r, 1, k - 1)
    if l % 2 == 0:
        if r == l - 1:
            return sig(l - 2, l - 1, l + 1)
        if r == l + 1:
            return sig(l + 1, l + 2, l + 3)
        if r == l - 2:
            return sig(l - 3, l - 2, l + 1)
        return sig(r, l - 1, l + 1)
    if r == l - 1:
        return sig(l - 3, l - 2, l - 1)
    if r == l + 1:
        return sig(l - 1, l + 1, l + 2)
    if r == l + 2:
        return sig(l - 1, l + 2, l + 3)
    return sig(r, l - 1, l + 1)


def _comb_spine_index(k: int, r: int, l: int) -> int:
    """Spine index of the vertex colored l in group r (0-based along the spine)."""
    return (r - 1) * (k - 1) + _group_colors(k, r).index(l)


def comb_coloring(k: int) -> ColoredGraph:
    """k-NL-coloring of the comb with k(k-1) spine vertices (order 2k(k-1)).

    Leaves over the r-th group of k-1 spine vertices are colored r; spine
    colors follow the cyclically decreasing group rule.  Besides the usual
    verification, every spine signature is checked against the tabulated
    case split.
    """
    if k < 5:
        raise ValueError("the comb coloring needs at least 5 colors")
    m = k * (k - 1)
    spine = _comb_spine_colors(k)
    leaves = [r for r in range(1, k + 1) for _ in range(k - 1)]
    graph = family_graph(FamilySpec.comb(m))
    cg = _certified(graph, Coloring(k, tuple(spine + leaves)))
    for v, l in enumerate(spine):
        r = v // (k - 1) + 1
        expected = comb_signature_table(k, r, l)
        if expected is None:
            continue
        actual = frozenset(neighbor_signature(graph, cg.coloring, v))
        if actual != expected:
            raise ConstructionError(
                f"comb signature mismatch at group {r}, color {l}: "
                f"built {sorted(actual)}, expected {sorted(expected)}"
            )
    return cg


# ---------------------------------------------------------------------------
# extremal unicyclic graph and caterpillar

def _spliced(k: int, drop: tuple[int, ...]) -> tuple[list[tuple[int, int]], tuple[int, ...], int]:
    """The ring path of order a2(k) spliced to the comb of comb_coloring(k),
    less the spine vertices at the indices in drop and their leaves.

    The ring path is the all-color-degree-2 cycle of order a2(k) cut at its
    edge with endpoint colors {2, k-1}; its end colored k-1 joins the spine
    tail (colored 2).  The spine neighbours of a dropped vertex are joined.
    Vertices are the ring by cycle position, then the spine from its head
    (colored k-1, vertex a2(k)), then the leaves in spine order.  Returns the
    edges, the colors and the free end x of the ring path, colored 2.
    """
    seq = _pipeline_sequence(k, a2(k))
    ring_n = len(seq)
    p = next(t for t in range(ring_n)
             if {seq[t], seq[(t + 1) % ring_n]} == {2, k - 1})
    q = (p + 1) % ring_n
    x, y = (p, q) if seq[p] == 2 else (q, p)  # x colored 2, y colored k-1
    comb = comb_coloring(k).coloring.colors
    m = len(comb) // 2
    keep = [i for i in range(m) if i not in drop]
    s = len(keep)
    edges = [e for e in family_graph(FamilySpec.cycle(ring_n)).edges
             if e != (min(p, q), max(p, q))]
    edges += [(u + ring_n, v + ring_n) for u, v in family_graph(FamilySpec.comb(s)).edges]
    edges.append((y, ring_n + s - 1))
    colors = seq + tuple(comb[i] for i in keep) + tuple(comb[m + i] for i in keep)
    return edges, colors, x


def unicyclic_extremal(k: int) -> ColoredGraph:
    """The order-(2a1+a2) unicyclic graph with NL-chromatic number k.

    Built by cutting one ring edge with endpoint colors {2, k-1} out of the
    all-color-degree-2 cycle of order a2(k) and rerouting both ends through
    the comb spine: the end colored 2 attaches to the spine head (colored
    k-1), the end colored k-1 to the spine tail (colored 2).
    """
    if k < 5:
        raise ValueError("the extremal unicyclic construction needs at least 5 colors")
    edges, colors, x = _spliced(k, ())
    graph = Graph(len(colors), edges + [(x, a2(k))])
    cg = _certified(graph, Coloring(k, colors))
    if classify(graph) != "Unicyclic":
        raise ConstructionError("splice did not produce a unicyclic graph")
    return cg


def _splice_signature_table(k: int) -> dict[tuple[int, int], frozenset]:
    """Expected signatures, keyed by (group, color), of the four spine
    vertices next to the two that the caterpillar drops."""
    even = k % 2 == 0
    return {
        (k - 1, 1): frozenset({3, k - 1, k}) if even else frozenset({3, k - 2, k - 1}),
        (k - 1, 3): frozenset({1, k - 1, k}) if k == 6 else frozenset({1, 4, k - 1}),
        (2, k - 2): frozenset({1, 2, 6}) if k == 6 else frozenset({2, k - 3, k}),
        (2, k): frozenset({1, 2, k - 2}),
    }


def caterpillar_extremal(k: int) -> ColoredGraph:
    """The order-(2a1+a2-2) caterpillar with NL-chromatic number k, for k >= 6.

    The unicyclic recipe less two spine vertices and one splice edge: the
    ring path joins the comb tail as in unicyclic_extremal, but the comb
    lacks the spine vertex colored k-1 in group 2 and the one colored 2 in
    group k-1 (each with its leaf), and the ring end colored 2 does not join
    the spine head colored k-1.  Instead that ring end gets a leaf colored
    k-1 and the spine head a leaf colored 2.  The result is verified,
    including the four tabulated signatures that the splice changes.
    """
    if k < 6:
        raise ValueError("the extremal caterpillar construction needs at least 6 colors")
    ring_n = a2(k)
    drop = (_comb_spine_index(k, 2, k - 1), _comb_spine_index(k, k - 1, 2))
    edges, colors, x = _spliced(k, drop)
    n = len(colors)
    graph = Graph(n + 2, edges + [(x, n), (ring_n, n + 1)])
    cg = _certified(graph, Coloring(k, colors + (k - 1, 2)))
    for (r, l), expected in _splice_signature_table(k).items():
        i = _comb_spine_index(k, r, l)
        v = ring_n + i - sum(d < i for d in drop)
        actual = frozenset(neighbor_signature(graph, cg.coloring, v))
        if actual != expected:
            raise ConstructionError(
                f"caterpillar signature mismatch at group {r}, color {l}: "
                f"built {sorted(actual)}, expected {sorted(expected)}"
            )
    return cg


# ---------------------------------------------------------------------------
# stars, and generic trees of order >= 5

def generic_tree_coloring(t: Graph) -> ColoredGraph:
    """NL-coloring of a star, or of a tree of order >= 5, witnessing the
    general upper bound.

    Stars (a vertex adjacent to all others), of any order, get all-distinct
    colors (their value is the order); double stars get s+1 colors;
    everything else (diameter >= 4) gets the order-minus-2 coloring that
    reuses one color on the two ends and the midpoint of a distance-4 path.
    The one other tree below order 5, the path P4, takes none of these.
    """
    n = t.n
    if not is_tree(t):
        raise ValueError("input is not a tree")
    degrees = [t.degree(v) for v in range(n)]
    if max(degrees) == n - 1:  # star
        return _certified(t, Coloring(n, tuple(range(1, n + 1))))
    if n < 5:
        raise ValueError("generic tree coloring applies to stars and to trees of order >= 5")

    centers = [v for v in range(n) if degrees[v] >= 2]
    if len(centers) == 2 and t.has_edge(*centers):  # double star
        u0, v0 = centers
        if degrees[u0] > degrees[v0]:
            u0, v0 = v0, u0
        s = degrees[v0] - 1
        assignment = [0] * n
        assignment[v0] = s + 1
        for c, leaf in enumerate(sorted(w for w in t.adj[v0] if w != u0), start=1):
            assignment[leaf] = c
        assignment[u0] = 1
        for c, leaf in enumerate(sorted(w for w in t.adj[u0] if w != v0), start=2):
            assignment[leaf] = c
        return _certified(t, Coloring(s + 1, tuple(assignment)))

    # diameter >= 4: one shared color on x, b, y along a distance-4 path
    x, b, y = _first_distance4_pair(t)
    assignment = [0] * n
    assignment[x] = assignment[b] = assignment[y] = 1
    nxt = 2
    for v in range(n):
        if assignment[v] == 0:
            assignment[v] = nxt
            nxt += 1
    return _certified(t, Coloring(n - 2, tuple(assignment)))


def _first_distance4_pair(t: Graph) -> tuple[int, int, int]:
    """(x, b, y): the lexicographically first pair x, y at distance exactly 4,
    with b the midpoint of the path between them.

    x is the first vertex of eccentricity at least 4.  In a tree the
    farthest vertex from any vertex is an end of a longest path, so a
    breadth-first search from vertex 0 finds one end ``a``, one from ``a``
    finds the other end, and ecc(x) = max(d(a, x), d(other end, x)).  One
    more search from x gives y and b: four searches in all.
    """
    from_0 = distances(t, 0)
    from_a = distances(t, from_0.index(max(from_0)))
    from_end = distances(t, from_a.index(max(from_a)))
    x = next((v for v in range(t.n) if max(from_a[v], from_end[v]) >= 4), None)
    if x is None:
        raise ValueError("tree has diameter below 4")
    dist = distances(t, x)
    y = b = dist.index(4)  # a tree's distances from x take every value to ecc(x)
    # in a tree each vertex has exactly one neighbour nearer to x
    for d in (3, 2):
        b = next(w for w in t.adj[b] if dist[w] == d)
    return x, b, y


# ---------------------------------------------------------------------------
# the named families

def family_coloring(spec: FamilySpec) -> ColoredGraph:
    """The construction's NL-coloring of a named family instance: fans and
    wheels are cones, and a comb spine size m other than k(k-1) with k >= 5
    raises ValueError."""
    fam, args = spec.family, spec.args
    if fam == "path":
        return path_coloring(args[0])
    if fam == "cycle":
        return cycle_coloring(args[0])
    if fam == "fan":
        return cone_coloring(path_coloring(args[0] - 1))
    if fam == "wheel":
        return cone_coloring(cycle_coloring(args[0] - 1))
    if fam == "comb":
        k = (isqrt(4 * args[0] + 1) + 1) // 2  # m = k(k-1) makes 4m + 1 = (2k-1)^2
        if k * (k - 1) != args[0] or k < 5:
            raise ValueError(f"comb coloring is available for spine sizes k(k-1) with "
                             f"k >= 5; {args[0]} is not of that form")
        return comb_coloring(k)
    if fam == "unicyclic":
        return unicyclic_extremal(args[0])
    if fam == "caterpillar":
        return caterpillar_extremal(args[0])
    return generic_tree_coloring(family_graph(spec))  # star, double-star
