"""The exact search's memo of failed states, up to renaming the colors.

``solver._search`` imports this module the first time one of its calls
passes ``CHECK_EVERY`` nodes, so a process whose searches all stay below
that never loads it.  From then on it asks ``Memo.seen``, at each depth it
enters, whether the state there has failed before; the ``_search``
docstring argues why a hit skips no solution.  How states are keyed and
compared is known here only.

``memo_schedule`` works out, once per call, what the memo reads at each
depth d: the front (the vertices whose (signature so far, color bit) pairs
the key holds), whether d is exact (a twin class straddles it, so colors
are compared as they are), and ``since[d]``, a depth from which on the
colors placed fix the front's pairs.  ``seen`` files a state by its class
(class key, limit, depth) and its ``used``.  The front key is the tuple of
the front's pairs; the class key is the front key at an exact depth and
the renamed key elsewhere, the front key with the front's colors renamed
1, 2, ... in order of first appearance.  The colors placed from
``since[d]`` on, the view, fix the class key, so ``seen`` looks it up by
the view and builds it (``_classify``) only for a view not met at d.

The states of a class form its group.  While one shape (the renaming
data of one front key) fills the group, it compares ``used`` as it is; the
groups of an exact depth, whose class key is the front key, never leave
that form.  When a second shape lands, the group splits by the count of
the pairs of ``used`` that hold the color named first, which costs one AND
and is unchanged by renaming.  Each count part then compares as the group
did, and renames ``used`` only once a second shape lands in it: on P_3000
``used`` holds about 1,500 pairs, and no two states of a class agree on
the count.  ``_renamed`` renames
``used`` as the shape's key is renamed, one table lookup per byte; a
renaming sums the images of used's bits on its first use and builds its
byte tables from its second (``_renamed_afresh``).  A renamed ``used`` is
a set of bits of the search's ``slot`` too, so a renamed pair that the
search has not met takes the next bit there.
"""

from __future__ import annotations

from itertools import accumulate, compress, islice, repeat
from operator import and_, or_, rshift, sub

from .graphs import Graph

_BITS = bytes.maketrans(b"01", b"\0\1")  # a binary numeral's digits as 0 and 1


def memo_schedule(g: Graph, order: list[int], final_at: list[list[int]],
                  twin: list[int]) -> tuple[list[list[int]], list[bool], list[int]]:
    """What the memo of ``_search`` reads at each depth: (front, exact, since).

    ``front[d]`` holds the vertices that a depth before d touched (colored
    them or a neighbour) and that a depth from d on reads (closes their
    signature, or checks them as an earlier twin).  ``exact[d]`` is True
    where a twin class straddles d, with a member colored before d and a
    later one not: the twin order compares color values there, so those
    depths key the state as it is, not up to renaming the colors.
    ``since[d]`` is a depth from which on the colors placed before d fix
    the key at d: a front vertex w was touched at ``touch[w]``, and the
    colors the key reads from w (its own and its colored neighbours') were
    placed from then on, so d minus the longest span from a vertex's touch
    to its read will do."""
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
        if touch[u] > d:
            touch[u] = d
        for w in adj[u]:
            if touch[w] > d:
                touch[w] = d
    front: list[list[int]] = [[] for _ in range(n)]
    for w, first, last in zip(range(n), touch, read):
        for d in range(first + 1, last + 1):
            front[d].append(w)
    span = max(map(sub, read[:n], touch[:n]))
    return (front, [open_spans > 0 for open_spans in accumulate(straddling[:n])],
            [0] * span + list(range(n - span)))


class Memo:
    """The failed states of one ``_search`` call, up to renaming colors.

    ``seen`` is the search's one way in.  ``front``, ``exact`` and
    ``since`` are the call's ``memo_schedule``.  ``views[d]`` maps a view
    met at depth d to its (class key, shape) (``_classify``), and
    ``shapes`` maps a front key to its shape [renamed key, names, renaming]
    (``_shape``).  ``groups`` maps a class to its group: ``[shape, set of
    used]`` while one shape fills it, and ``[None, parts]`` once a second
    has landed, where ``parts`` maps a count to a part.  A part starts as
    ``[shape, set of used]`` too, and is ``[None, set of renamed used]``
    once a second shape has landed in it.  ``renamings`` holds the
    renamings by their ``to``, ``colors_of`` the colors of each signature
    met, and ``pairs`` and ``by_color`` the pair of each bit of ``slot``
    and the bits of each color, as far as the count split has read them."""

    __slots__ = ("k", "slot", "adj", "front", "exact", "since", "views", "shapes", "groups",
                 "renamings", "colors_of", "pairs", "by_color")

    def __init__(self, g: Graph, k: int, slot: dict[int, int], order: list[int],
                 final_at: list[list[int]], twin: list[int]):
        self.k, self.slot, self.adj = k, slot, g.adj
        self.front, self.exact, self.since = memo_schedule(g, order, final_at, twin)
        self.views: list[dict[tuple[int, ...], tuple]] = [{} for _ in range(g.n)]
        self.shapes: dict[tuple[int, ...], list] = {}
        self.groups: dict[tuple[tuple[int, ...], int, int], list] = {}
        self.renamings: dict[tuple[int, ...], _Renaming] = {}  # by to
        self.colors_of: dict[int, list[int]] = {}  # signature -> its colors
        self.pairs: list[int] = []  # the pair of each bit of slot, as far as read
        self.by_color = [0] * (k + 1)  # the bits of slot whose pair has color c

    def seen(self, depth: int, tried: list[int], bits: list[int], top: int, used: int) -> bool:
        """Whether the state entering the depth has failed before, up to
        renaming the colors, filing it if not: the search comes back above
        the depth only once the state has failed.  The state is the colors
        (``tried`` by depth, ``bits`` by vertex), the limit ``top`` and the
        pairs in use, ``used``.  It is compared within one part: its class's
        group while one shape fills it, and its count part after the split.
        A part compares ``used`` as it is while one shape fills it, and
        renamed once a second shape has landed in it."""
        view = tuple(tried[self.since[depth]:depth])
        cls_key, shape = self.views[depth].get(view) or self._classify(depth, view, bits)
        cls = (cls_key, top, depth)
        part = self.groups.get(cls)
        if part is None:
            self.groups[cls] = [shape, {used}]
            return False
        if part[0] is not shape:  # a class of two shapes: look in the count part
            if len(self.pairs) < len(self.slot):
                self._read_pairs()
            if part[0] is not None:  # the class's second shape: split it by the count
                first, members = part
                first_color = self.by_color[first[1][0]]
                parts: dict[int, list] = {}
                for u in members:
                    parts.setdefault((u & first_color).bit_count(), [first, set()])[1].add(u)
                part[:] = [None, parts]
            parts = part[1]
            count = (used & self.by_color[shape[1][0]]).bit_count()
            part = parts.get(count)
            if part is None:
                parts[count] = [shape, {used}]
                return False
        first, members = part
        if first is not shape:
            if first is not None:  # the part's second shape: rename its members
                members = part[1] = {self._renamed(u, first) for u in members}
                part[0] = None
            used = self._renamed(used, shape)
        if used in members:
            return True
        members.add(used)
        return False

    def _classify(self, depth: int, view: tuple[int, ...], bits: list[int]) -> tuple:
        """(class key, shape) of the state entering the depth, filed in
        ``views[depth]`` under its view.  The front key is the tuple of the
        pair of each front vertex, its signature so far and its color bit
        as the search writes them in ``slot``; the class key is the front
        key at an exact depth and the renamed key elsewhere."""
        k, adj = self.k, self.adj
        pairs = []
        for w in self.front[depth]:
            sig = 0
            for u in adj[w]:
                sig |= bits[u]
            pairs.append(sig << k + 1 | bits[w])
        key = tuple(pairs)
        shape = self.shapes.get(key) or self._shape(key)
        known = self.views[depth][view] = (key if self.exact[depth] else shape[0], shape)
        return known

    def _shape(self, key: tuple[int, ...]) -> list:
        """The shape [renamed, names, renaming] of a front key, filed in
        ``shapes``.  ``names`` lists the colors of the front's vertices,
        then the colors of their signatures so far, each at its first
        appearance, and ``renamed`` is the key with the i-th of them renamed
        i; ``renaming`` stays None until ``_renamed`` first needs it."""
        k = self.k
        shift, low = k + 1, (1 << k + 1) - 1
        bit = [0] * (k + 2)  # each named color's renamed bit; bit[-1], no color, stays 0
        names: list[int] = []
        colors, sigs = [], []
        for pair in key:
            color = (pair & low).bit_length() - 1  # -1: uncolored
            if color > 0 and not bit[color]:
                names.append(color)
                bit[color] = 1 << len(names)
            colors.append(color)
            sigs.append(self._colors(pair >> shift))
        for sig in sigs:
            for c in sig:
                if not bit[c]:
                    names.append(c)
                    bit[c] = 1 << len(names)
        renamed = []
        for color, sig in zip(colors, sigs):
            renamed_sig = 0
            for c in sig:
                renamed_sig |= bit[c]
            renamed.append(renamed_sig << shift | bit[color])
        shape = self.shapes[key] = [tuple(renamed), tuple(names), None]
        return shape

    def _colors(self, sig: int) -> list[int]:
        """The colors of a signature, filed in ``colors_of``."""
        colors = self.colors_of.get(sig)
        if colors is None:
            colors = self.colors_of[sig] = [c for c in range(1, self.k + 1) if sig >> c & 1]
        return colors

    def _read_pairs(self) -> None:
        """Read the pairs that slot has gained since the last call."""
        pairs, by_color = self.pairs, self.by_color
        start = len(pairs)
        pairs.extend(islice(self.slot, start, None))
        low = (1 << self.k + 1) - 1
        for i in range(start, len(pairs)):
            by_color[(pairs[i] & low).bit_length() - 1] |= 1 << i

    def _renamed(self, used: int, shape: list) -> int:
        """``used`` with every pair renamed as the shape's key is: one table
        lookup per byte, where the renaming has its tables."""
        renaming = shape[2] or self._renaming(shape)
        if renaming.tables:
            try:
                out, rest = 0, used
                for table in renaming.tables:
                    out |= table[rest & 255]
                    rest >>= 8
                if not rest:
                    return out
            except IndexError:  # a pair past those the last table was built from
                pass
        return self._renamed_afresh(used, shape)

    def _renaming(self, shape: list) -> _Renaming:
        """The renaming of the shape's names, filed in the shape and, by
        ``to``, in ``renamings``, so that shapes that rename alike share it."""
        k, names = self.k, shape[1]
        to = [0] * (k + 1)
        for i, c in enumerate((*names, *(c for c in range(1, k + 1) if c not in names)), 1):
            to[c] = i
        renaming = shape[2] = self.renamings.setdefault(tuple(to), _Renaming(to))
        return renaming

    def _renamed_afresh(self, used: int, shape: list) -> int:
        """``used`` renamed where the renaming's tables do not reach it.
        The renaming first finds the images of the pairs up to the end of
        used's last byte.  On its first use it then sums the images of
        used's bits; from its second use on it builds the tables of the
        bytes it has images for.  A table pays only where the renaming is
        used again: on C_1100 each renaming renames one ``used`` of 821
        pairs, and refuting k = 4 on C23 each renames about 870 of at most
        24 pairs."""
        k, slot, renaming = self.k, self.slot, shape[2]
        to, sigs, images = renaming.to, renaming.sigs, renaming.images
        start = len(images)
        pairs = self.pairs[start:-(-used.bit_length() // 8) * 8]
        shift, low = k + 1, (1 << k + 1) - 1
        sig_of = list(map(rshift, pairs, repeat(shift)))
        for sig in set(sig_of).difference(sigs):  # distinct bits, so the sum is their OR
            sigs[sig] = sum(1 << to[c] + shift for c in self._colors(sig))
        images += [slot.get(pair) or slot.setdefault(pair, 1 << len(slot))
                   for pair in map(or_, map(sigs.__getitem__, sig_of),
                                   map(renaming.color_bits.__getitem__,
                                       map(int.bit_length, map(and_, pairs, repeat(low)))))]
        tables = renaming.tables
        if tables is None:
            renaming.tables = []
            return sum(compress(images, format(used, "b")[::-1].encode().translate(_BITS)))
        del tables[start // 8:]  # the last byte may have had fewer than 8 pairs
        for i in range(8 * len(tables), len(images), 8):
            table = [0]
            for image in images[i:i + 8]:
                table += [bits | image for bits in table]
            tables.append(table)
        return self._renamed(used, shape)


class _Renaming:
    """A renaming of the colors, read off a front's names: ``to[c]`` renames
    color c, the i-th name to i and the other colors in increasing order
    after them.  Only the colors in use appear in a state, and they are
    1..m, so ``to`` maps them onto 1..m and keeps every color above m.
    ``color_bits`` holds the renamed bit of each color at the bit length of
    its bit, ``sigs`` renamed signatures, ``images[i]`` the bit of slot
    that the pair of bit i renames to, and ``tables[j][b]`` the renamed
    bits of the byte value b at byte j of ``used``; ``tables`` is None until
    the renaming's first use."""

    __slots__ = ("to", "color_bits", "sigs", "images", "tables")

    def __init__(self, to: list[int]):
        self.to = to
        self.color_bits = [0, 0, *(1 << t for t in to[1:])]  # at a color bit's bit length
        self.sigs: dict[int, int] = {}
        self.images: list[int] = []
        self.tables: list[list[int]] | None = None
