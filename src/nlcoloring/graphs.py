"""Graph representation, named-family generators, and structural classification.

Every graph handled by this package is connected, simple, undirected and
finite, with vertices labeled 0..n-1.  The constructor enforces all of that
up front so the rest of the code can assume it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class GraphError(ValueError):
    """Rejected graph input (self-loop, multi-edge, disconnected, bad ids)."""


class Graph:
    """Immutable connected simple undirected graph.

    Vertices are 0..n-1.  Edges are stored as a frozenset of (u, v) pairs
    with u < v; an adjacency table (tuple of sorted neighbor tuples) is
    precomputed.  Instances pickle, so they can be sent to worker
    processes; unpickling rebuilds and re-validates the graph.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError("graph must have at least one vertex")
        edges = list(edges)
        if n > len(edges) + 1:  # before allocating anything of size n
            raise GraphError("graph is not connected")
        seen = set()
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            neighbors[u].append(v)
            neighbors[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(seen))
        object.__setattr__(self, "adj", tuple(tuple(sorted(a)) for a in neighbors))
        if not self._connected():
            raise GraphError("graph is not connected")

    def __setattr__(self, name, value):
        raise AttributeError("Graph objects are immutable")

    def __reduce__(self):
        return Graph, (self.n, self.sorted_edges())

    def _connected(self) -> bool:
        reached = [False] * self.n
        reached[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if not reached[v]:
                    reached[v] = True
                    count += 1
                    queue.append(v)
        return count == self.n

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges with u < v, ordered lexicographically (the wire order)."""
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


# ---------------------------------------------------------------------------
# graph families

FAMILIES = (
    "path", "cycle", "fan", "wheel", "comb",
    "star", "double-star", "unicyclic", "caterpillar",
)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph-family instance, e.g. cycle of order 24.

    ``args`` holds the family parameters: (n,) for path/cycle/fan/wheel/star,
    (m,) for comb, (r, s) for double-star, (k,) for unicyclic/caterpillar.
    """

    family: str
    args: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        checks = {
            "path": lambda a: len(a) == 1 and a[0] >= 2,
            "cycle": lambda a: len(a) == 1 and a[0] >= 3,
            "fan": lambda a: len(a) == 1 and a[0] >= 4,
            "wheel": lambda a: len(a) == 1 and a[0] >= 4,
            "comb": lambda a: len(a) == 1 and a[0] >= 3,
            "star": lambda a: len(a) == 1 and a[0] >= 3,
            "double-star": lambda a: len(a) == 2 and 1 <= a[0] <= a[1] and a[0] + a[1] + 2 >= 5,
            "unicyclic": lambda a: len(a) == 1 and a[0] >= 5,
            "caterpillar": lambda a: len(a) == 1 and a[0] >= 6,
        }
        if not checks[self.family](self.args):
            raise ValueError(f"parameters {self.args} out of range for family {self.family!r}")

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
    * fan/wheel: rim path/cycle 0..n-2, hub last (n-1);
    * comb: spine 0..m-1 along the path, leaf of spine i is m+i;
    * star: leaves 0..n-2, center last (n-1);
    * double-star: centers 0 (r leaves) and 1 (s leaves), then the r leaves
      of 0, then the s leaves of 1;
    * unicyclic/caterpillar: the extremal instances produced by the
      construction pipeline (see ``construct``), already canonically labeled.
    """
    fam, args = spec.family, spec.args
    if fam == "path":
        n = args[0]
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if fam == "cycle":
        n = args[0]
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if fam == "fan":
        n = args[0]
        edges = [(i, i + 1) for i in range(n - 2)]
        edges += [(i, n - 1) for i in range(n - 1)]
        return Graph(n, edges)
    if fam == "wheel":
        n = args[0]
        edges = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
        edges += [(i, n - 1) for i in range(n - 1)]
        return Graph(n, edges)
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
    if fam == "unicyclic":
        from .construct import unicyclic_extremal

        return unicyclic_extremal(args[0]).graph
    if fam == "caterpillar":
        from .construct import caterpillar_extremal

        return caterpillar_extremal(args[0]).graph
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# structural classification

@dataclass(frozen=True)
class GraphClass:
    """Result of classify(): structure kind plus the cycle, when there is one."""

    kind: str  # Path | Cycle | TreeGeneral | Caterpillar | Unicyclic | Other
    cycle_vertices: tuple[int, ...] = ()


def _unique_cycle(g: Graph) -> tuple[int, ...]:
    """Vertices of the unique cycle of a unicyclic graph, in traversal order.

    Starts at the smallest cycle vertex and walks toward its smallest
    cycle neighbor, so the order is deterministic.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    queue = deque(v for v in range(g.n) if deg[v] == 1)
    while queue:
        u = queue.popleft()
        alive[u] = False
        for v in g.adj[u]:
            if alive[v]:
                deg[v] -= 1
                if deg[v] == 1:
                    queue.append(v)
    core = [v for v in range(g.n) if alive[v]]
    start = min(core)
    on_core = set(core)
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = min(v for v in g.adj[cur] if v in on_core and v != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def classify(g: Graph) -> GraphClass:
    """Exact structural classification of a connected graph.

    Caterpillar detection is: a tree whose non-leaf vertices induce a path.
    Paths take precedence over Caterpillar, Cycle over Unicyclic.
    """
    m = len(g.edges)
    degrees = [g.degree(v) for v in range(g.n)]
    if m == g.n - 1:  # tree
        if max(degrees, default=0) <= 2:
            return GraphClass("Path")
        spine = [v for v in range(g.n) if degrees[v] >= 2]
        spine_set = set(spine)
        inner_deg = {v: sum(1 for w in g.adj[v] if w in spine_set) for v in spine}
        # induced subgraph on a tree's non-leaves is always a subtree; it is
        # a path exactly when no inner vertex has three spine neighbors
        if all(d <= 2 for d in inner_deg.values()):
            return GraphClass("Caterpillar")
        return GraphClass("TreeGeneral")
    if m == g.n:
        if all(d == 2 for d in degrees):
            return GraphClass("Cycle", tuple(_unique_cycle(g)))
        return GraphClass("Unicyclic", _unique_cycle(g))
    return GraphClass("Other")


def _bfs_eccentricity(g: Graph, source: int) -> int:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    far = 0
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                far = max(far, dist[v])
                queue.append(v)
    return far


def diameter(g: Graph) -> int:
    """Largest shortest-path distance, by breadth-first search from every vertex."""
    return max(_bfs_eccentricity(g, v) for v in range(g.n))


class DegreeStats(NamedTuple):
    n1: int        # leaves
    n2: int        # degree-2 vertices
    n_ge3: int     # degree >= 3 vertices
    max_degree: int


def degree_stats(g: Graph) -> DegreeStats:
    """Count vertices by degree class (the counts partition the vertex set)."""
    degrees = [g.degree(v) for v in range(g.n)]
    return DegreeStats(
        n1=sum(1 for d in degrees if d == 1),
        n2=sum(1 for d in degrees if d == 2),
        n_ge3=sum(1 for d in degrees if d >= 3),
        max_degree=max(degrees),
    )
