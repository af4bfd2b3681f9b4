"""Hand-made mutations that the tests must kill: of the solver, its
schedule and its backjumping, its memo's key and renamed comparison, the
lower bound, its cycle bound and parity clause, its neighbour bound and
its cone step, the cycle pipeline's edge scan, the constructions'
self-checks and the extremal graphs' splice, the CLI parser, graph
validation, distances and degrees, the atlas count check, the delta
sweep's degree, and the coloring type and verifier.

Each mutation is a set of exact snippets of a file in ``src/nlcoloring``,
their replacements, and the test modules that must fail once they are
made.  For each mutation the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, makes the replacements there
and runs ``python -m pytest -x -q`` on the named modules, which import the
mutated copy (pytest puts the copy's ``src`` first on the path).  It first
runs every named module on an unmutated copy, which must pass, so that a
kill is the mutation's doing.  It exits 1 when a mutation survives, when
its run outlasts TIMEOUT seconds (a mutation that makes the code loop is
not killed), or when a snippet no longer occurs exactly once: a change to a
mutated line updates its mutation in the same change.  Standard library
only.

    python tools/mutants.py           # every mutation
    python tools/mutants.py NAME ...  # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SEARCH = ("tests/test_solver.py", "tests/test_oracle.py")
ORACLE = ("tests/test_oracle.py",)  # the memo tests there run it from the first node
TIMEOUT = 300  # seconds for one run of the named modules


class Mutation(NamedTuple):
    name: str
    file: str  # under src/nlcoloring
    edits: tuple[tuple[str, str], ...]  # (snippet, replacement), each snippet found once
    tests: tuple[str, ...]  # the modules that must kill it


MUTATIONS = [
    # the memo of failed states: its key and where it compares as it is
    Mutation("memo key without used", "_memo.py", (
        ("self.groups[cls] = [shape, {used}]", "self.groups[cls] = [shape, {0}]"),
        ("count = (used & self.by_color", "count = (0 & self.by_color"),
        ("parts[count] = [shape, {used}]", "parts[count] = [shape, {0}]"),
        ("if used in members:", "if 0 in members:"),
        ("members.add(used)", "members.add(0)"),
    ), SEARCH),
    Mutation("memo key without the signatures", "_memo.py", (
        ("pairs.append(sig << k + 1 | bits[w])", "pairs.append(bits[w])"),
    ), SEARCH),
    Mutation("memo key without the colors", "_memo.py", (
        ("pairs.append(sig << k + 1 | bits[w])", "pairs.append(sig << k + 1)"),
    ), SEARCH),
    Mutation("memo front one depth short", "_memo.py", (
        ("for d in range(first + 1, last + 1):", "for d in range(first + 1, last):"),
    ), SEARCH),
    Mutation("memo front without the twins", "_memo.py", (
        ("        read[earlier_twin] = d\n", ""),
    ), SEARCH),
    Mutation("memo renames at exact depths", "_memo.py", (
        ("(key if self.exact[depth] else shape[0], shape)", "(shape[0], shape)"),
    ), SEARCH),
    # the memo's renamed comparison: the class looked up by a view of the
    # colors that fix the key, a part's second shape renaming the new state
    # and the members, and used renamed through the images of its pairs, a
    # byte table at a time or, on a renaming's first use, bit by bit.  Each
    # but the first makes the memo unsound, which the oracle's memo tests
    # show; the view one depth short only weakens it on the graphs tried,
    # and the schedule's definition test shows it
    Mutation("memo view one depth short", "_memo.py", (
        ("span = max(map(sub, read[:n], touch[:n]))",
         "span = max(map(sub, read[:n], touch[:n])) - 1"),
    ), ("tests/test_solver.py",)),
    Mutation("memo view without its colors", "_memo.py", (
        ("[0] * span + list(range(n - span))", "list(range(n))"),
    ), ORACLE),
    Mutation("memo compares a second shape's used as it is", "_memo.py", (
        ("        if first is not shape:\n", "        if first is None:\n"),
    ), ORACLE),
    Mutation("renamed comparison without renaming used", "_memo.py", (
        ("            used = self._renamed(used, shape)\n", ""),
    ), ORACLE),
    Mutation("renamed comparison renames the members as the new shape", "_memo.py", (
        ("{self._renamed(u, first) for u in members}",
         "{self._renamed(u, shape) for u in members}"),
    ), ORACLE),
    Mutation("renaming ignores the names", "_memo.py", (
        ("enumerate((*names, *(c for c in range(1, k + 1) if c not in names)), 1)",
         "enumerate(range(1, k + 1), 1)"),
    ), ORACLE),
    Mutation("renamed pair keeps its color", "_memo.py", (
        ("[0, 0, *(1 << t for t in to[1:])]", "[0, 0, *(1 << c for c in range(1, len(to)))]"),
    ), ORACLE),
    Mutation("renamed signature keeps its colors", "_memo.py", (
        ("sum(1 << to[c] + shift for c in self._colors(sig))",
         "sum(1 << c + shift for c in self._colors(sig))"),
    ), ORACLE),
    Mutation("renaming tables skip every other byte", "_memo.py", (
        ("                    rest >>= 8\n", "                    rest >>= 16\n"),
    ), ORACLE),
    Mutation("first renaming sums the bits high to low", "_memo.py", (
        ('format(used, "b")[::-1]', 'format(used, "b")'),
    ), ORACLE),
    # the per-depth schedule: a vertex's closed neighbourhood, whose last
    # depth is its closing depth, must gain the vertex and each neighbour
    Mutation("schedule closing depth skips the neighbours", "solver.py", (
        ("            closed[u] |= bit\n", ""),
    ), SEARCH),
    Mutation("schedule closing depth skips the vertex", "solver.py", (
        ("        closed[v] |= bit\n", ""),
    ), SEARCH),
    # backjumping: a clash reads the holder's neighbourhood too, twin order
    # reads the earlier twin's depth, a memo hit steps back one depth, and a
    # jump clears the colors of the depths it skips, which the memo's key
    # reads as signatures so far
    Mutation("backjump without the holder's neighbourhood", "solver.py", (
        ("conflict[depth] |= closed[w] | held[pair]", "conflict[depth] |= closed[w]"),
    ), ORACLE),
    Mutation("backjump without the twin's depth", "solver.py", (
        ("            reasons[pos[w]] |= 1 << pos[u]\n", ""),
    ), ORACLE),
    Mutation("backjump past a memo hit", "solver.py", (
        ("passing no color\n                conflict[depth] = -1\n", "passing no color\n"),
    ), ORACLE),
    Mutation("backjump keeps the skipped colors", "solver.py", (
        ("                for u in order[back + 1:depth]:\n                    bits[u] = 0\n", ""),
    ), SEARCH),
    # the four prunes of the search
    Mutation("no properness prune", "solver.py", (
        ("cands[depth] = ((2 << top) - 2) & ~forbidden", "cands[depth] = (2 << top) - 2"),
    ), SEARCH),
    Mutation("no signature prune", "solver.py", (
        ("if now & b:", "if False:"),
    ), SEARCH),
    Mutation("no color symmetry breaking", "solver.py", (
        ("            limit[depth] = top\n", "            top = limit[depth] = k\n"),
    ), SEARCH),
    Mutation("no twin order", "solver.py", (
        ("tried[depth] = (bits[twin[depth]] >> 1).bit_length()", "tried[depth] = 0"),
    ), SEARCH),
    # a twin's color read as -1 where there is no twin: one more node per depth
    Mutation("twin read as bit length - 1", "solver.py", (
        ("tried[depth] = (bits[twin[depth]] >> 1).bit_length()",
         "tried[depth] = bits[twin[depth]].bit_length() - 1"),
    ), SEARCH),
    # the twin bound of the lower bound: dropped, and one too high
    Mutation("no twin bound", "bounds.py", (
        ("for k in range(max(twin_bound, 2), n + 1):", "for k in range(2, n + 1):"),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    Mutation("twin bound one too high", "bounds.py", (
        ("twin_bound = min(twin + 1, n)", "twin_bound = min(twin + 2, n)"),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    # the degree-bounded order bound reads the largest degree
    Mutation("lower bound reads the min degree", "bounds.py", (
        ("delta = max(map(len, adj))", "delta = min(map(len, adj))"),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    # the order bounds of the lower bound, each of which decides some graph
    Mutation("no degree-bounded order bound", "bounds.py", (
        ("if delta <= k - 1 and n > max_order(k, delta):", "if False:"),
    ), ("tests/test_bounds.py",)),
    Mutation("no tree order bound", "bounds.py", (
        ('if tree and k >= 3 and n > class_order_bound(k, "tree"):', "if False:"),
    ), ("tests/test_bounds.py",)),
    Mutation("no unicyclic order bound", "bounds.py", (
        ('if unicyclic and k >= 3 and n > class_order_bound(k, "unicyclic"):', "if False:"),
    ), ("tests/test_bounds.py",)),
    # the cycle bound of the lower bound: at order ell(k) - 1 only, on
    # cycles only (a vertex of degree 3 lets a unicyclic graph of that
    # order take k colors), and the bound taken at all; its parity clause
    # at k = 3 only (C10-C24 have 4-NL-colorings) and taken at all
    Mutation("cycle bound one order low", "bounds.py", (
        ("(n == ell(k) - 1 or", "(n == ell(k) - 2 or"),
    ), ("tests/test_bounds.py",)),
    Mutation("cycle bound on every unicyclic graph", "bounds.py", (
        ("if unicyclic and delta == 2 and k >= 3", "if unicyclic and k >= 3"),
    ), ("tests/test_bounds.py",)),
    Mutation("no cycle bound", "bounds.py", (
        ("(n == ell(k) - 1 or", "(False or"),
    ), ("tests/test_solver.py",)),
    Mutation("no parity clause", "bounds.py", (
        ("or k == 3 and n % 2 == 0)", "or False)"),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    Mutation("parity clause at every k", "bounds.py", (
        ("or k == 3 and n % 2 == 0)", "or n % 2 == 0)"),
    ), ("tests/test_bounds.py",)),
    # the neighbour bound of the lower bound: cap(d) exact, i <= cap(d_i)
    # and not i < cap(d_i) (a hub with all 12 neighbours that 4 colors
    # allow meets it with equality, as it meets the degree cap
    # (k - 1) 2^(k - 2)), taken at all, and taken on g - P in the cone step
    # (a tree's bound must carry over to its cone)
    Mutation("neighbour cap one too large", "bounds.py", (
        ("for j in range(d)) for d in range(k)]", "for j in range(d)) + 1 for d in range(k)]"),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    Mutation("neighbour bound strict", "bounds.py", (
        ("if not all(i <= cap[", "if not all(i < cap["),
    ), ("tests/test_bounds.py",)),
    Mutation("no neighbour bound", "bounds.py", (
        ("if delta > (k - 1) ** 2 and (", "if False and ("),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    Mutation("neighbour degree cap one too low", "bounds.py", (
        ("delta > (k - 1) << k - 2", "delta >= (k - 1) << k - 2"),
    ), ("tests/test_bounds.py",)),
    Mutation("no neighbour sort in the cone step", "bounds.py", (
        ("twin, adj, set(universal[:peel]))", "twin, ())"),
    ), ("tests/test_bounds.py",)),
    # the cone step of the lower bound: one color per peeled universal
    # vertex, the last one kept where the rest falls apart, and the step
    # taken at all
    Mutation("cone step adds 2 per peeled vertex", "bounds.py", (
        ("return max(bound, peel + rest)", "return max(bound, 2 * peel + rest)"),
    ), ("tests/test_bounds.py", "tests/test_oracle.py")),
    Mutation("cone step peels all of U over a disconnected rest", "bounds.py", (
        ("if distances(g, start, universal).count(-1) == len(universal):", "if True:"),
    ), ("tests/test_bounds.py",)),
    Mutation("cone step never peels", "bounds.py", (
        ("if peel == 0:", "if True:"),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    # the solver's caps: a negative or nan time budget and a color cap below
    # one must stay errors, in the library and as nlc usage errors
    Mutation("budget without its seconds check", "solver.py", (
        ("if seconds is not None and not seconds >= 0:", "if False:"),
    ), ("tests/test_solver.py", "tests/test_cli.py")),
    Mutation("chi_nl_exact without its max_k check", "solver.py", (
        ("if max_k is not None and max_k < 1:", "if False:"),
    ), ("tests/test_solver.py", "tests/test_cli.py")),
    # the command-line parser: a missing required option, an option value
    # left a string, and a value outside its choices must each stay usage errors
    Mutation("cli without the required check", "cli.py", (
        ("if required and values[name] is None:", "if False:"),
    ), ("tests/test_cli.py",)),
    Mutation("cli without the type conversion", "cli.py", (
        ("value = kind(value)", "value = value"),
    ), ("tests/test_cli.py",)),
    Mutation("cli without the choices check", "cli.py", (
        ("if value not in kind:", "if False:"),
    ), ("tests/test_cli.py",)),
    # the pipeline's insertion-edge scan: the closing edge, the second
    # endpoint's color-degree, and the lower hit of the two orientations
    Mutation("pair edge without the closing edge", "construct.py", (
        ("if ({seq[-1], seq[0]} == {i, j}", "if False and ({seq[-1], seq[0]} == {i, j}"),
    ), ("tests/test_construct.py",)),
    Mutation("pair edge without the second endpoint's check", "construct.py", (
        ("if _seq_color_degree(seq, p) == cd and _seq_color_degree(seq, p + 1) == cd:",
         "if _seq_color_degree(seq, p) == cd:"),
    ), ("tests/test_construct.py",)),
    Mutation("pair edge keeps the first orientation's hit", "construct.py", (
        ("p = seq.find(run, 0, best + 1)", "p = seq.find(run, 0, best + 1) if best == m - 1 else -1"),
    ), ("tests/test_construct.py",)),
    # the constructions' self-checks: the verification of every output, the
    # comb's and the caterpillar's signature tables, and the class of the
    # unicyclic splice
    Mutation("construction without its verification", "construct.py", (
        ("if not verdict.ok:", "if False:"),
    ), ("tests/test_construct.py",)),
    Mutation("comb without its signature table", "construct.py", (
        ("expected = comb_signature_table(k, r, l)", "expected = None"),
    ), ("tests/test_construct.py",)),
    Mutation("caterpillar without its signature table", "construct.py", (
        ("for (r, l), expected in _splice_signature_table(k).items():",
         "for (r, l), expected in ():"),
    ), ("tests/test_construct.py",)),
    Mutation("unicyclic splice without its class check", "construct.py", (
        ('if classify(graph) != "Unicyclic":', "if False:"),
    ), ("tests/test_construct.py",)),
    # the splice of the extremal graphs: the comb table read at the right
    # group, the caterpillar table at the spine indices shifted past the
    # dropped vertices, and the ring path joined to the spine tail
    Mutation("comb table read one group off", "construct.py", (
        ("r = v // (k - 1) + 1", "r = v // (k - 1) + 2"),
    ), ("tests/test_construct.py",)),
    Mutation("caterpillar table read at unshifted indices", "construct.py", (
        ("v = ring_n + i - sum(d < i for d in drop)", "v = ring_n + i"),
    ), ("tests/test_construct.py",)),
    Mutation("spine-tail splice attached to the head", "construct.py", (
        ("edges.append((y, ring_n + s - 1))", "edges.append((y, ring_n))"),
    ), ("tests/test_construct.py",)),
    # graph validation: a graph with n = m can be disconnected, and a
    # repeated edge and a self-loop must be refused, in the library and as
    # nlc usage errors
    Mutation("graph without the connectivity search", "graphs.py", (
        ("if -1 in distances(g, 0):", "if False:"),
    ), ("tests/test_graphs.py", "tests/test_cli.py")),
    Mutation("graph without the duplicate-edge check", "graphs.py", (
        ("if near and near[-1] == v:", "if False:"),
    ), ("tests/test_graphs.py", "tests/test_cli.py")),
    Mutation("graph without the self-loop check", "graphs.py", (
        ('raise GraphError(f"self-loop at vertex {u}")', "pass"),
    ), ("tests/test_graphs.py", "tests/test_cli.py")),
    # the atlas table's class counts, checked before the table is used
    Mutation("atlas count check dropped", "sweeps.py", (
        ("if len(graphs) != _CONNECTED_COUNTS[n]:", "if False:"),
    ), ("tests/test_sweeps.py",)),
    # the delta sweep's measured degree, and the degree counts
    Mutation("delta sweep reads the min degree", "sweeps.py", (
        ("delta = max(map(len, tree.adj))", "delta = min(map(len, tree.adj))"),
    ), ("tests/test_sweeps.py",)),
    Mutation("degree stats count degree 3 as 2", "graphs.py", (
        ("n2=degrees.count(2),", "n2=degrees.count(2) + degrees.count(3),"),
    ), ("tests/test_graphs.py",)),
    # breadth-first distances: one step per level
    Mutation("distances without the step", "graphs.py", (
        ("step = dist[u] + 1", "step = 1"),
    ), ("tests/test_graphs.py",)),
    # a coloring's colors lie in 1..k, at both ends
    Mutation("coloring range without the lower end", "coloring.py", (
        ("not (1 <= min(colors) and max(colors) <= k)", "not max(colors) <= k"),
    ), ("tests/test_coloring.py",)),
    Mutation("coloring range without the upper end", "coloring.py", (
        ("not (1 <= min(colors) and max(colors) <= k)", "not 1 <= min(colors)"),
    ), ("tests/test_coloring.py",)),
    # the verifier: properness, and a signature keyed with the vertex's own color
    Mutation("verifier without its properness loop", "coloring.py", (
        ("for u, v in g.edges:", "for u, v in ():"),
    ), ("tests/test_coloring.py",)),
    Mutation("verifier signature without the own color", "coloring.py", (
        ("key = (colors[v], frozenset(map(color_of, near)))",
         "key = frozenset(map(color_of, near))"),
    ), ("tests/test_coloring.py",)),
]


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", into / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", into / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def _pytest(where: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """The run of the test modules in the copy at ``where``."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=where, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT)


def _mutate(where: Path, mutation: Mutation) -> str | None:
    """Make the mutation in the copy, or say which snippet does not match."""
    path = where / "src" / "nlcoloring" / mutation.file
    text = path.read_text(encoding="utf-8")
    for snippet, replacement in mutation.edits:
        count = text.count(snippet)
        if count != 1:
            return f"snippet found {count} times in {mutation.file}: {snippet!r}"
        text = text.replace(snippet, replacement)
    path.write_text(text, encoding="utf-8")
    return None


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutation(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTATIONS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        control = Path(tmp) / "control"
        _copy(control)
        modules = tuple(sorted({t for m in chosen for t in m.tests}))
        done = _pytest(control, modules)
        if done.returncode:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="", file=sys.stderr)
            print(f"the unmutated copy fails {' '.join(modules)}", file=sys.stderr)
            return 1
    failed = 0
    for mutation in chosen:
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp)
            _copy(where)
            problem = _mutate(where, mutation)
            try:
                if problem is None and not _pytest(where, mutation.tests).returncode:
                    problem = f"survived {' '.join(mutation.tests)}"
            except subprocess.TimeoutExpired:
                problem = f"ran past {TIMEOUT} s in {' '.join(mutation.tests)}"
        verdict = "killed" if problem is None else "FAILED"
        print(f"{verdict:7} {mutation.name} ({time.monotonic() - start:.1f} s)"
              + ("" if problem is None else f": {problem}"), flush=True)
        failed += problem is not None
    print(f"{len(chosen) - failed} of {len(chosen)} mutations killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
