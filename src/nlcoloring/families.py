"""The paper's named graph families: their parameters, graphs and values.

One table, ``FAMILIES``, names each family's parameters and their range,
and ``FamilySpec`` is an instance validated against it.  ``family_graph``
builds the canonical labeled graph of an instance (fans and wheels are the
``cone`` of a path or cycle), and ``chi_closed_form`` gives its exact
NL-chromatic number from the paper's values, through ``bracket``, the
color count whose ell range holds an order.

Nothing that decides a graph fact, bounds an arbitrary graph or searches
needs these, so the verifier, the exact solver and the delta sweep run
without this module.
"""

from typing import Callable, NamedTuple

from .bounds import ell
from .graphs import Graph

# family -> (parameter names, in ``FamilySpec.args`` order; range check on them)
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., bool]]] = {
    "path": (("n",), lambda n: n >= 2),
    "cycle": (("n",), lambda n: n >= 3),
    "fan": (("n",), lambda n: n >= 4),
    "wheel": (("n",), lambda n: n >= 4),
    "comb": (("m",), lambda m: m >= 3),
    "star": (("n",), lambda n: n >= 3),
    "double-star": (("r", "s"), lambda r, s: 1 <= r <= s and r + s + 2 >= 5),
    "unicyclic": (("k",), lambda k: k >= 5),
    "caterpillar": (("k",), lambda k: k >= 6),
}


class _FamilySpec(NamedTuple):
    family: str
    args: tuple[int, ...]


class FamilySpec(_FamilySpec):
    """A named graph-family instance, e.g. cycle of order 24.

    ``args`` holds the family parameters named in ``FAMILIES``: (n,) for
    path/cycle/fan/wheel/star, (m,) for comb, (r, s) for double-star, (k,)
    for unicyclic/caterpillar; the table's range check is applied here.
    """

    __slots__ = ()

    def __new__(cls, family: str, args: tuple[int, ...]):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        params, in_range = FAMILIES[family]
        if len(args) != len(params) or not in_range(*args):
            raise ValueError(f"parameters {args} out of range for family {family!r}")
        return super().__new__(cls, family, args)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    # convenience constructors -- keep call sites readable
    @staticmethod
    def path(n: int) -> "FamilySpec":
        return FamilySpec("path", (n,))

    @staticmethod
    def cycle(n: int) -> "FamilySpec":
        return FamilySpec("cycle", (n,))

    @staticmethod
    def fan(n: int) -> "FamilySpec":
        return FamilySpec("fan", (n,))

    @staticmethod
    def wheel(n: int) -> "FamilySpec":
        return FamilySpec("wheel", (n,))

    @staticmethod
    def comb(m: int) -> "FamilySpec":
        return FamilySpec("comb", (m,))

    @staticmethod
    def star(n: int) -> "FamilySpec":
        return FamilySpec("star", (n,))

    @staticmethod
    def double_star(r: int, s: int) -> "FamilySpec":
        return FamilySpec("double-star", (r, s))

    @staticmethod
    def unicyclic(k: int) -> "FamilySpec":
        return FamilySpec("unicyclic", (k,))

    @staticmethod
    def caterpillar(k: int) -> "FamilySpec":
        return FamilySpec("caterpillar", (k,))

    def label(self) -> str:
        return f"{self.family}({','.join(map(str, self.args))})"


def family_graph(spec: FamilySpec) -> Graph:
    """Build the canonical labeled instance of a named family.

    Vertex numbering is deterministic and documented:

    * path/cycle: vertices 0..n-1 in traversal order;
    * fan/wheel: the ``cone`` of the path/cycle 0..n-2, hub last (n-1);
    * comb: spine 0..m-1 along the path, leaf of spine i is m+i;
    * star: leaves 0..n-2, center last (n-1);
    * double-star: centers 0 (r leaves) and 1 (s leaves), then the r leaves
      of 0, then the s leaves of 1;
    * unicyclic/caterpillar: the graphs of ``construct.family_coloring``,
      the extremal instances, already canonically labeled.
    """
    fam, args = spec.family, spec.args
    if fam == "path":
        n = args[0]
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if fam == "cycle":
        n = args[0]
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if fam == "fan":
        return cone(family_graph(FamilySpec.path(args[0] - 1)))
    if fam == "wheel":
        return cone(family_graph(FamilySpec.cycle(args[0] - 1)))
    if fam == "comb":
        m = args[0]
        edges = [(i, i + 1) for i in range(m - 1)]
        edges += [(i, m + i) for i in range(m)]
        return Graph(2 * m, edges)
    if fam == "star":
        n = args[0]
        return Graph(n, [(i, n - 1) for i in range(n - 1)])
    if fam == "double-star":
        r, s = args
        n = r + s + 2
        edges = [(0, 1)]
        edges += [(0, 2 + i) for i in range(r)]
        edges += [(1, 2 + r + i) for i in range(s)]
        return Graph(n, edges)
    # unicyclic, caterpillar: the extremal instances are built with their coloring
    from .construct import family_coloring

    return family_coloring(spec).graph


def cone(g: Graph) -> Graph:
    """g plus a universal vertex, numbered g.n (the hub of a fan or wheel)."""
    return Graph(g.n + 1, g.edges + tuple((v, g.n) for v in range(g.n)))


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
