"""The exact search's memo of failed states, up to renaming the colors.

``solver._search`` imports this module the first time one of its calls
passes ``CHECK_EVERY`` nodes, so a process whose searches all stay below
that never loads it.  ``memo_schedule`` works out what the memo reads at
each depth, and a ``Memo`` holds the failed states of one call.  The memo
block of ``_search`` keys the state at each depth it enters and compares
it; the ``_search`` docstring argues why a hit skips no solution.
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

    A state enters as its class and ``used``.  ``views[d]`` maps the view
    of a state entering depth d (its colors placed from ``since[d]`` on) to
    its class key and shape (``classify``), and ``shapes`` maps a front key
    to its shape [renamed, names, renaming]: ``names`` lists the front's
    colors in order of first appearance, and ``renamed`` is the key with
    the i-th of them renamed i (``shape``); ``_renamed`` renames ``used``
    the same way.  ``groups`` maps a class (the renamed key, or the key
    itself at an exact depth, with the limit and the depth) to the states
    met in it.  While one shape fills a group, the group is ``[shape, set
    of used]`` and compares ``used`` as it is (``_search`` does that
    inline); the states of an exact depth never leave that form.  Only when
    a second shape lands in a group does ``renamed_hit`` rename ``used``.
    It first splits the group by how many pairs of ``used`` hold the color
    renamed 1, which costs one AND and is unchanged by renaming, and
    renames ``used`` only for states that agree on it: on P_3000 ``used``
    holds about 1,500 pairs, and no two states of a class agree.  A renamed
    ``used`` is a set of bits of the search's ``slot`` too, so a renamed
    pair that the search has not met takes the next bit there."""

    __slots__ = ("k", "slot", "adj", "front", "exact", "since", "views", "shapes", "groups",
                 "renamings", "colors_of", "pairs", "by_color")

    def __init__(self, g: Graph, k: int, slot: dict[int, int], order: list[int],
                 final_at: list[list[int]], twin: list[int]):
        self.k, self.slot, self.adj = k, slot, g.adj
        self.front, self.exact, self.since = memo_schedule(g, order, final_at, twin)
        self.views: list[dict[tuple[int, ...], tuple]] = [{} for _ in range(g.n)]
        self.shapes: dict[int, list] = {}
        self.groups: dict[tuple[int, int, int], list] = {}
        self.renamings: dict[tuple[int, ...], _Renaming] = {}  # by to
        self.colors_of: dict[int, list[int]] = {}  # signature -> its colors
        self.pairs: list[int] = []  # the pair of each bit of slot, as far as read
        self.by_color = [0] * (k + 1)  # the bits of slot whose pair has color c

    def classify(self, depth: int, view: tuple[int, ...], bits: list[int]) -> tuple:
        """(class key, shape) of the state entering the depth, filed in
        ``views[depth]`` under its view, the colors placed from
        ``since[depth]`` on.  The class key is the front key at an exact
        depth and the renamed key elsewhere.  The front key packs the
        (signature so far, color bit) pair of each front vertex."""
        k, adj = self.k, self.adj
        width = 2 * k + 2  # bits of a (signature, color) pair
        key = 0
        for w in self.front[depth]:
            sig = 0
            for u in adj[w]:
                sig |= bits[u]
            key = key << width | sig << k + 1 | bits[w]
        shape = self.shapes.get(key) or self.shape(key)
        known = self.views[depth][view] = (key if self.exact[depth] else shape[0], shape)
        return known

    def shape(self, key: int) -> list:
        """The shape [renamed, names, renaming] of a front key, filed in
        ``shapes``.  ``names`` lists the colors of the front's vertices,
        then the colors of their signatures so far, each at its first
        appearance, and ``renamed`` is the key with the i-th of them renamed
        i; ``renaming`` stays None until ``_renamed`` first needs it.  No
        front pair is 0 (a front vertex is colored or has a colored
        neighbour), so the key unpacks without its length."""
        k = self.k
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
            colors = self._colors(pair >> k + 1)
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
        shape = self.shapes[key] = [renamed, tuple(names), None]
        return shape

    def _colors(self, sig: int) -> list[int]:
        """The colors of a signature, filed in ``colors_of``."""
        colors = self.colors_of.get(sig)
        if colors is None:
            colors = self.colors_of[sig] = [c for c in range(1, self.k + 1) if sig >> c & 1]
        return colors

    def renamed_hit(self, group: list, shape: list, used: int) -> bool:
        """Whether the state (shape, used) is in ``group`` up to renaming,
        adding it if not.  A group is ``[shape, set of used]`` while one
        shape fills it, and ``[None, contents]`` once two have: a class's
        group then maps a count to such groups (how many pairs of ``used``
        hold the color named first), and a counted group holds renamed
        ``used``."""
        if len(self.pairs) < len(self.slot):
            self._read_pairs()
        if group[0] is not None:  # the class's second shape: split by the count
            first, members = group
            first_color = self.by_color[first[1][0]]
            parts: dict[int, list] = {}
            for u in members:
                parts.setdefault((u & first_color).bit_count(), [first, set()])[1].add(u)
            group[:] = [None, parts]
        count = (used & self.by_color[shape[1][0]]).bit_count()
        part = group[1].get(count)
        if part is None:
            group[1][count] = [shape, {used}]
            return False
        first, members = part
        if first is not shape:
            if first is not None:  # the count's second shape: rename
                members = part[1] = {self._renamed(u, first) for u in members}
                part[0] = None
            used = self._renamed(used, shape)
        if used in members:
            return True
        members.add(used)
        return False

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
        pairs, and on C23 each renames about 870 of at most 24 pairs."""
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
