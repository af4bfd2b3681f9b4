"""Hand-made mutations of the solver, the lower bound and the CLI parser
that the tests must kill.

Each mutation is a set of exact snippets of a file in ``src/nlcoloring``,
their replacements, and the test modules that must fail once they are
made.  For each mutation the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, makes the replacements there
and runs ``python -m pytest -x -q`` on the named modules, which import the
mutated copy (pytest puts the copy's ``src`` first on the path).  It first
runs every named module on an unmutated copy, which must pass, so that a
kill is the mutation's doing.  It exits 1 when a mutation survives or a
snippet no longer occurs exactly once: a change to a mutated line updates
its mutation in the same change.  Standard library only.

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


class Mutation(NamedTuple):
    name: str
    file: str  # under src/nlcoloring
    edits: tuple[tuple[str, str], ...]  # (snippet, replacement), each snippet found once
    tests: tuple[str, ...]  # the modules that must kill it


MUTATIONS = [
    # the memo of failed states: its key and where it compares as it is
    Mutation("memo key without used", "solver.py", (
        ("groups[cls] = [shape, {used}]", "groups[cls] = [shape, {0}]"),
        ("if used in group[1]:", "if 0 in group[1]:"),
        ("group[1].add(used)", "group[1].add(0)"),
        ("memo.renamed_hit(group, shape, used)", "memo.renamed_hit(group, shape, 0)"),
    ), SEARCH),
    Mutation("memo key without the signatures", "solver.py", (
        ("key = key << width | sig << k + 1 | bits[w]", "key = key << width | bits[w]"),
    ), SEARCH),
    Mutation("memo key without the colors", "solver.py", (
        ("key = key << width | sig << k + 1 | bits[w]", "key = key << width | sig << k + 1"),
    ), SEARCH),
    Mutation("memo front one depth short", "solver.py", (
        ("for d in range(touch[w] + 1, read[w] + 1):", "for d in range(touch[w] + 1, read[w]):"),
    ), SEARCH),
    Mutation("memo front without the twins", "solver.py", (
        ("        read[earlier_twin] = d\n", ""),
    ), SEARCH),
    Mutation("memo renames at exact depths", "solver.py", (
        ("cls = (key if exact[depth] else shape[0], top, depth)", "cls = (shape[0], top, depth)"),
    ), SEARCH),
    # the four prunes of the search
    Mutation("no properness prune", "solver.py", (
        ("cands[depth] = ((2 << top) - 2) & ~forbidden", "cands[depth] = (2 << top) - 2"),
    ), SEARCH),
    Mutation("no signature prune", "solver.py", (
        ("if now & b:", "if False:"),
    ), SEARCH),
    Mutation("no color symmetry breaking", "solver.py", (
        ("top = limit[depth] = min(k, max(limit[depth - 1], color + 1))",
         "top = limit[depth] = k"),
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
        ("return max(k, twin_bound)", "return k"),
    ), ("tests/test_bounds.py", "tests/test_solver.py")),
    Mutation("twin bound one too high", "bounds.py", (
        ("twin_bound = min(max(map(len, twins), default=1) + 1, g.n)",
         "twin_bound = min(max(map(len, twins), default=1) + 2, g.n)"),
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
                           *tests], cwd=where, env=env, capture_output=True, text=True)


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
            if problem is None and not _pytest(where, mutation.tests).returncode:
                problem = f"survived {' '.join(mutation.tests)}"
        verdict = "killed" if problem is None else "FAILED"
        print(f"{verdict:7} {mutation.name} ({time.monotonic() - start:.1f} s)"
              + ("" if problem is None else f": {problem}"), flush=True)
        failed += problem is not None
    print(f"{len(chosen) - failed} of {len(chosen)} mutations killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
