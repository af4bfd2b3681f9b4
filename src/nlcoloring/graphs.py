"""Graph representation and structural facts.

Every graph handled by this package is connected, simple, undirected and
finite, with vertices labeled 0..n-1.  ``Graph`` is a named tuple (n, edges,
adj), as ``Coloring`` and ``FamilySpec`` are, that holds each edge once;
its constructor enforces all of the above so the rest of the code can
assume it.  Each structural fact is decided in one place here:
breadth-first distances (``distances``, which also backs ``diameter`` and
the connectivity checks, of a graph and of a graph less some vertices),
the tree test (``is_tree``: a connected graph is a tree exactly when it
has n-1 edges, and has one cycle exactly when it has n), the twin classes
(``twin_classes``), the structural kind (``classify``) and the degree
counts (``degree_stats``).  The named families and their graphs are in
``families``.
"""

from bisect import bisect
from typing import Collection, Iterable, NamedTuple


class GraphError(ValueError):
    """Rejected graph input (self-loop, multi-edge, disconnected, bad ids)."""


class _Graph(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]


class Graph(_Graph):
    """Immutable connected simple undirected graph on the vertices 0..n-1.

    ``edges`` holds the pairs (u, v) with u < v in lexicographic order (the
    wire order), and ``adj`` each vertex's neighbours in increasing order,
    read off ``edges``.  ``__getnewargs__`` makes ``pickle`` and
    ``copy.deepcopy``, and ``_make`` makes ``_replace``, rebuild the graph
    through the validation below.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError("graph must have at least one vertex")
        edges = list(edges)
        if n > len(edges) + 1:  # before allocating anything of size n
            raise GraphError("graph is not connected")
        pairs = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            pairs.append((u, v) if u < v else (v, u))
        pairs.sort()  # the wire order, where a repeated edge follows its copy
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:  # wire order gives each vertex its neighbours in increasing order
            near = neighbors[u]
            if near and near[-1] == v:
                raise GraphError(f"duplicate edge ({u},{v})")
            near.append(v)
            neighbors[v].append(u)
        g = super().__new__(cls, n, tuple(pairs), tuple(map(tuple, neighbors)))
        if -1 in distances(g, 0):
            raise GraphError("graph is not connected")
        return g

    def __getnewargs__(self):
        return self.n, self.edges

    @classmethod
    def _make(cls, fields):  # from (n, edges): adj is read off the edges again
        n, edges, *_ = fields
        return cls(n, edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adj[u]

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges as a list, in wire order."""
        return list(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


# ---------------------------------------------------------------------------
# structural facts

def distances(g: Graph, source: int, removed: Collection[int] = ()) -> list[int]:
    """Breadth-first distance of every vertex from source in g without the
    vertices ``removed`` (source not among them); -1 if unreached, as each
    removed vertex is."""
    adj = g.adj
    dist = [-1] * g.n
    for v in removed:
        dist[v] = 0  # seen, so never entered
    dist[source] = 0
    queue = [source]
    for u in queue:  # the queue grows while it is read
        step = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = step
                queue.append(v)
    for v in removed:
        dist[v] = -1
    return dist


def is_tree(g: Graph) -> bool:
    """A connected graph is a tree exactly when it has n - 1 edges."""
    return len(g.edges) == g.n - 1


def twin_classes(g: Graph) -> list[list[int]]:
    """The classes of two or more twins, each in increasing vertex order.

    Twins have equal open neighbourhoods (false twins, never adjacent) or
    equal closed ones (true twins, always adjacent).  No vertex has both
    kinds: from N(u) = N(v) and N[u] = N[w], w is in N(u) = N(v), so v is
    in N[w] = N[u] and u, v would be adjacent.  So the classes are
    disjoint, and a vertex with a false twin needs no true-twin lookup.
    One pass, keyed on the sorted ``adj`` tuples.
    """
    first_open: dict[tuple[int, ...], int] = {}
    first_closed: dict[tuple[int, ...], int] = {}
    classes: dict[int, list[int]] = {}  # first twin -> its class
    for v, a in enumerate(g.adj):
        u = first_open.setdefault(a, v)
        if u == v:
            i = bisect(a, v)
            u = first_closed.setdefault(a[:i] + (v,) + a[i:], v)
            if u == v:
                continue
        classes.setdefault(u, [u]).append(v)
    return list(classes.values())


def classify(g: Graph) -> str:
    """Structural kind of a connected graph: Path, Caterpillar or TreeGeneral
    for trees, Cycle or Unicyclic for graphs with one cycle, else Other.

    Caterpillar detection is: a tree whose non-leaf vertices induce a path.
    Paths take precedence over Caterpillar, Cycle over Unicyclic.
    """
    degrees = [g.degree(v) for v in range(g.n)]
    if is_tree(g):
        if max(degrees) <= 2:
            return "Path"
        spine = [v for v in range(g.n) if degrees[v] >= 2]
        spine_set = set(spine)
        inner_deg = {v: sum(1 for w in g.adj[v] if w in spine_set) for v in spine}
        # induced subgraph on a tree's non-leaves is always a subtree; it is
        # a path exactly when no inner vertex has three spine neighbors
        if all(d <= 2 for d in inner_deg.values()):
            return "Caterpillar"
        return "TreeGeneral"
    if len(g.edges) == g.n:
        return "Cycle" if all(d == 2 for d in degrees) else "Unicyclic"
    return "Other"


def diameter(g: Graph) -> int:
    """Largest shortest-path distance: the least r for which the ball of
    radius r around every vertex is the whole graph.  The balls are
    bitmasks grown together, one radius a round: the ball of radius r + 1
    around v is the union of the balls of radius r around v and its
    neighbours.  The graph is connected, so every ball fills."""
    full = (1 << g.n) - 1
    balls = [1 << v for v in range(g.n)]
    radius = 0
    while balls.count(full) < g.n:
        grown = []
        for v, near in enumerate(g.adj):
            ball = balls[v]
            for u in near:
                ball |= balls[u]
            grown.append(ball)
        balls = grown
        radius += 1
    return radius


class DegreeStats(NamedTuple):
    n1: int        # leaves
    n2: int        # degree-2 vertices
    n_ge3: int     # degree >= 3 vertices
    max_degree: int


def degree_stats(g: Graph) -> DegreeStats:
    """Count vertices by degree class.  For n >= 2 every vertex has degree
    at least 1, so the counts partition the vertex set; the one vertex of
    ``Graph(1, [])`` has degree 0 and is in no class."""
    degrees = list(map(len, g.adj))
    return DegreeStats(
        n1=degrees.count(1),
        n2=degrees.count(2),
        n_ge3=sum(1 for d in degrees if d >= 3),
        max_degree=max(degrees),
    )
