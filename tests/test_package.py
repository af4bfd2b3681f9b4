"""The package surface: lazy exports, what each nlc process imports, and the
records (immutable, validating, picklable named tuples)."""

from __future__ import annotations

import gc
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nlcoloring
from nlcoloring import Coloring, FamilySpec, chi_nl_exact, cycle_coloring

SRC = str(Path(nlcoloring.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC)

# every public name of the package, grouped by the module that defines it
EXPORTS = """
a1 a2 bounds_report chi_lower_bound class_order_bound ell max_order tree_max_degree
Coloring NLVerdict color_degree is_nl_coloring neighbor_signature
ColoredGraph ConstructionError base_small_coloring caterpillar_extremal comb_coloring
cone_coloring cycle_coloring extremal_audit generic_tree_coloring is_1_paired
one_paired_cycle_coloring path_coloring unicyclic_extremal
FamilySpec chi_closed_form family_graph
DegreeStats Graph GraphError classify degree_stats diameter distances is_tree
twin_classes
SolveResult chi_nl_exact exists_nl_coloring
conjecture_sweep connected_graphs enumerate_trees
""".split()


def test_every_export_resolves_in_a_fresh_interpreter():
    assert len(EXPORTS) == 44
    code = ("import nlcoloring, sys, json\n"
            f"names = {EXPORTS!r}\n"
            "missing = [n for n in names if not hasattr(nlcoloring, n)]\n"
            "mods = [m for m in ('sweeps', 'solver', 'construct')\n"
            "        if getattr(nlcoloring, m) is not sys.modules['nlcoloring.' + m]]\n"
            "print(json.dumps([missing, mods, nlcoloring.__version__]))\n")
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=ENV, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == [[], [], "0.1.0"]


def test_export_comes_from_its_module():
    from nlcoloring import solver

    assert nlcoloring.chi_nl_exact is solver.chi_nl_exact
    assert set(nlcoloring.__all__) == {"__version__", *EXPORTS}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        nlcoloring.frobnicate  # noqa: B018
    with pytest.raises(ImportError):
        from nlcoloring import frobnicate  # noqa: F401


# runs the CLI as ``python -m nlcoloring.cli`` does, then lists sys.modules
# (``-X importtime`` would miss ``from . import module`` imports) and counts
# the objects the exit path froze
LIST_MODULES = """
import gc, runpy, sys
sys.argv[0] = "nlc"
try:
    runpy.run_module("nlcoloring.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\\nfrozen: {gc.get_freeze_count()}\\nmodules: "
                     + " ".join(sorted(sys.modules)))
"""


def _nlc(tmp_path, *argv) -> tuple[subprocess.CompletedProcess, set[str], int]:
    """One nlc process, the modules it imported and the objects it froze."""
    proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv], capture_output=True,
                          text=True, env=ENV, cwd=tmp_path, timeout=120)
    head, _, modules = proc.stderr.rpartition("\nmodules: ")
    return proc, set(modules.split()), int(head.rsplit("frozen: ", 1)[1])


def _loaded(tmp_path, *argv) -> set[str]:
    """Modules one nlc process imported."""
    proc, loaded, _ = _nlc(tmp_path, *argv)
    assert proc.returncode == 0, proc.stderr
    return loaded


def _graph_and_certificate(tmp_path) -> tuple[str, str]:
    cg = cycle_coloring(9)
    graph, cert = tmp_path / "g.json", tmp_path / "c.json"
    graph.write_text(json.dumps({"n": cg.graph.n, "edges": cg.graph.sorted_edges()}))
    cert.write_text(json.dumps({"n": cg.graph.n, "k": cg.k,
                                "colors": list(cg.coloring.colors)}))
    return str(graph), str(cert)


@pytest.mark.parametrize("command", ["--version", "verify", "chi --exact", "chi --family", "color",
                                     "sweep delta", "sweep diameter"])
def test_each_subcommand_imports_only_what_it_runs(command, tmp_path):
    graph, cert = _graph_and_certificate(tmp_path)
    argv = {"--version": ["--version"],
            "verify": ["verify", "--graph", graph, "--certificate", cert],
            "chi --exact": ["chi", "--graph", graph, "--exact"],
            "chi --family": ["chi", "--family", "cycle", "--n", "9"],
            "color": ["color", "--family", "cycle", "--n", "9"],
            "sweep delta": ["sweep", "--conjecture", "delta", "--max-n", "4"],
            "sweep diameter": ["sweep", "--conjecture", "diameter", "--max-n", "4"]}[command]
    loaded = _loaded(tmp_path, *argv)
    ours = {m for m in loaded if m.startswith("nlcoloring.")}
    assert not loaded & {"argparse", "dataclasses", "inspect", "networkx"}
    # the named families load only where a family is read
    reads_a_family = command in ("chi --family", "color", "sweep diameter")
    assert ("nlcoloring.families" in ours) == reads_a_family
    if command == "--version":
        assert not ours
    elif command == "verify":
        assert ours == {"nlcoloring.graphs", "nlcoloring.coloring", "nlcoloring.formats"}
    elif command == "chi --exact":
        assert "nlcoloring.solver" in ours
        assert not ours & {"nlcoloring.construct", "nlcoloring.sweeps"}
    elif command == "chi --family":
        assert not ours & {"nlcoloring.construct", "nlcoloring.solver", "nlcoloring.sweeps"}
    elif command == "color":
        assert "nlcoloring.construct" in ours
        assert not ours & {"nlcoloring.solver", "nlcoloring.sweeps"}
    else:
        # the trees and the atlas table are the package's own, not networkx's
        assert "nlcoloring.sweeps" in ours and "nlcoloring.construct" not in ours
        assert ("nlcoloring._atlas" in ours) == (command == "sweep diameter")


@pytest.mark.parametrize("argv,code", [
    (["chi", "--graph", "{graph}", "--exact"], 0), (["--version"], 0), (["frobnicate"], 2),
], ids=["chi --exact", "--version", "usage-error"])
def test_the_program_freezes_its_heap_on_the_way_out(argv, code, tmp_path):
    # cli.run freezes in a finally, so the SystemExit of --version and of a
    # usage error passes through it, and the exit code stays main's
    graph, _ = _graph_and_certificate(tmp_path)
    proc, _, frozen = _nlc(tmp_path, *(a.format(graph=graph) for a in argv))
    assert proc.returncode == code, proc.stderr
    assert frozen > 0


def test_main_in_process_leaves_the_heap_collectable(tmp_path, capsys):
    from nlcoloring import cli

    graph, _ = _graph_and_certificate(tmp_path)
    try:
        assert cli.main(["chi", "--graph", graph, "--exact"]) == 0
        for argv in (["--version"], ["frobnicate"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
        assert gc.get_freeze_count() == 0
    finally:
        gc.unfreeze()  # so a failure here leaves the rest of the suite collectable


# the wrapper that pip writes for a console script, less its renaming of argv[0]
CONSOLE_SCRIPT = "import sys\nfrom {0} import {1}\nsys.argv[0] = 'nlc'\nsys.exit({1}())\n"


def test_console_script_matches_python_m(tmp_path):
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    entry = re.search(r'^nlc = "([\w.]+):(\w+)"$', text, re.M)
    assert entry and entry.groups() == ("nlcoloring.cli", "run")
    graph, cert = _graph_and_certificate(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 9, "k": 2, "colors": [1, 2] * 4 + [1]}))
    commands = [["chi", "--graph", graph, "--exact"],
                ["verify", "--graph", graph, "--certificate", cert],
                ["verify", "--graph", graph, "--certificate", str(bad)], ["--version"],
                ["sweep", "--conjecture", "delta", "--max-n", "6", "--report", "{out}"],
                ["chi", "--graph", graph, "--exact", "--max-k", "2"], ["frobnicate"],
                ["gen", "--family", "cycle"]]
    codes = []
    for argv in commands:
        runs = []
        for name, launcher in (("script", ["-c", CONSOLE_SCRIPT.format(*entry.groups())]),
                               ("module", ["-m", "nlcoloring.cli"])):
            out = tmp_path / f"{name}.json"
            proc = subprocess.run([sys.executable, *launcher, *(a.format(out=out) for a in argv)],
                                  capture_output=True, env=ENV, cwd=tmp_path, timeout=120)
            runs.append((proc.returncode, proc.stdout, proc.stderr,
                         out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1], argv
        codes.append(runs[0][0])
    assert codes == [0, 0, 1, 0, 0, 1, 2, 2]


@pytest.mark.parametrize("make,message", [
    # the solver's caps are no record: chi_nl_exact checks them where it reads them
    (lambda: chi_nl_exact(cycle_coloring(6).graph, max_k=0), "max_k must be at least 1, got 0"),
    (lambda: chi_nl_exact(cycle_coloring(6).graph, time_budget=float("nan")),
     "time budget must be a number of seconds >= 0, got nan"),
    (lambda: FamilySpec("cycle", (2,)), "parameters \\(2,\\) out of range for family 'cycle'"),
    (lambda: FamilySpec("hypercube", (3,)), "unknown family 'hypercube'"),
    (lambda: Coloring(0, ()), "k must be positive"),
    (lambda: Coloring(2, (1, 3)), "colors must lie in 1..k"),
    (lambda: Coloring(3, (1, 2, 2)), "every color 1..k must be used by some vertex"),
    # the verifier reads a coloring of the graph's order only
    (lambda: nlcoloring.is_nl_coloring(cycle_coloring(6).graph, Coloring(2, (1, 2))),
     "coloring covers 2 vertices, graph has 6"),
], ids=["max-k", "budget", "range", "family", "k", "color-range", "unused-color",
        "coloring-length"])
def test_validating_records_reject_bad_values(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_records_refuse_attribute_assignment():
    cg = cycle_coloring(6)
    records = [FamilySpec.cycle(6), Coloring(2, (1, 2)), cg,
               chi_nl_exact(cg.graph),
               nlcoloring.is_nl_coloring(cg.graph, cg.coloring),
               nlcoloring.extremal_audit(cg.graph, cg.coloring)[0]]
    for record in records:
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_survive_pickling():
    # records are named tuples, so callers can store or send them with pickle
    records = [FamilySpec.double_star(2, 3),
               Coloring(2, (1, 2, 1)), chi_nl_exact(cycle_coloring(7).graph)]
    for record in records:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
