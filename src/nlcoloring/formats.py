"""Wire formats: graph JSON, edge-list text, certificate JSON, and DOT.

Graph JSON is ``{"n": <int>, "edges": [[u, v], ...]}`` with u < v and the
list sorted lexicographically.  The edge-list text format has one ``u v``
pair per line with ``#`` comments allowed, each id written with the ASCII
digits 0-9 only (no sign, no underscores).  Certificates are
``{"n": <int>, "k": <int>, "colors": [c_0, ..., c_{n-1}]}`` with 1-based
colors.  Vertex ids are 0-based everywhere.  In the JSON formats ``n``,
``k``, every vertex id and every color must be a JSON integer: ``1.0``,
``"1"`` and ``true`` are rejected with ``FormatError``, not converted.
"""

import json

from .coloring import Coloring
from .graphs import Graph


class FormatError(ValueError):
    """Malformed graph or certificate input."""


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def _json_int(value, what: str) -> int:
    """`value` itself when it is a JSON integer; floats, strings and booleans
    are refused rather than converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be a JSON integer, got {json.dumps(value, default=repr)}")
    return value


def graph_from_dict(data: dict) -> Graph:
    try:
        n = data["n"]
        pairs = [(u, v) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"graph JSON needs integer 'n' and an 'edges' pair list: {exc}")
    n = _json_int(n, "graph JSON field 'n'")
    return Graph(n, [(_json_int(u, "vertex id"), _json_int(v, "vertex id")) for u, v in pairs])


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise FormatError("JSON nested too deeply to decode")


def graph_from_json(text: str) -> Graph:
    return graph_from_dict(_decode(text))


def graph_to_edgelist(g: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in g.edges) + "\n"


def graph_from_edgelist(text: str) -> Graph:
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        # int() would also take "+1", "1_0" and non-ASCII digits
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise FormatError(f"line {lineno}: vertex ids must be non-negative integers "
                              f"written with the digits 0-9, got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise FormatError("edge list is empty")
    return Graph(top + 1, edges)


def certificate_to_dict(c: Coloring) -> dict:
    return {"n": c.n, "k": c.k, "colors": list(c.colors)}


def certificate_from_dict(data: dict) -> Coloring:
    try:
        n, k, colors = data["n"], data["k"], list(data["colors"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"certificate JSON needs 'n', 'k' and a 'colors' list: {exc}")
    n = _json_int(n, "certificate field 'n'")
    k = _json_int(k, "certificate field 'k'")
    colors = tuple(_json_int(c, "color") for c in colors)
    if len(colors) != n:
        raise FormatError(f"certificate lists {len(colors)} colors for n={n} vertices")
    try:
        return Coloring(k, colors)
    except ValueError as exc:
        raise FormatError(str(exc))


def certificate_from_json(text: str) -> Coloring:
    return certificate_from_dict(_decode(text))


# fill colors for DOT output, one per color index (cycled past twelve)
DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#ffff33",
    "#a65628", "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb",
)


def graph_to_dot(g: Graph, coloring: Coloring | None = None) -> str:
    """DOT rendering; with a coloring, vertices are filled by color index
    and labeled ``v:color``."""
    lines = ["graph nl {", "  node [shape=circle, style=filled];"]
    for v in range(g.n):
        if coloring is None:
            lines.append(f'  {v} [fillcolor="white"];')
        else:
            c = coloring.colors[v]
            fill = DOT_PALETTE[(c - 1) % len(DOT_PALETTE)]
            lines.append(f'  {v} [label="{v}:{c}", fillcolor="{fill}"];')
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
