"""Command-line front end.

Subcommands: gen, color, verify, chi, bounds, sweep, export.  Output is
JSON on stdout with stable key order; identical invocations produce
byte-identical payloads.  Exit codes: 0 success, 1 computation succeeded
with a negative verdict (failed verification, infeasible within caps,
conjecture violated), 2 usage or input errors, 3 internal fault (the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import bounds as bounds_mod
from . import construct, formats, solver, sweeps
from .coloring import is_nl_coloring
from .graphs import FAMILIES, FamilySpec, GraphError, family_graph, is_tree

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_FAULT = 3


class CliError(Exception):
    """Input or usage problem; message goes to stderr, exit code 2."""


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        for key, value in payload.items():
            print(f"{key}: {json.dumps(value)}")
    else:
        print(json.dumps(payload, indent=2))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def read_graph(path: str):
    """Load a graph from JSON or edge-list text ('-' reads stdin).

    Graph JSON starts with ``{`` (after any whitespace) and an edge list
    cannot, so the content tells the two formats apart.
    """
    text = _read_text(path)
    try:
        if text.lstrip().startswith("{"):
            return formats.graph_from_json(text)
        return formats.graph_from_edgelist(text)
    except (formats.FormatError, GraphError) as exc:
        raise CliError(f"{path}: {exc}")


def _family_spec(args) -> FamilySpec:
    if args.family is None:
        raise CliError(f"{args.command} needs --family")
    fam = args.family.lower().replace("_", "-")
    if fam == "doublestar":
        fam = "double-star"
    if fam not in FAMILIES:
        raise CliError(f"unknown family {args.family!r}")
    params = FAMILIES[fam][0]
    values = tuple(getattr(args, name) for name in params)
    if None in values:
        raise CliError(f"{fam} needs {' and '.join('--' + name for name in params)}")
    try:
        return FamilySpec(fam, values)
    except ValueError as exc:
        raise CliError(str(exc))


def _colored_graph_for(spec: FamilySpec) -> construct.ColoredGraph:
    fam = spec.family
    if fam == "path":
        return construct.path_coloring(spec.args[0])
    if fam == "cycle":
        return construct.cycle_coloring(spec.args[0])
    if fam == "fan":
        return construct.cone_coloring(construct.path_coloring(spec.args[0] - 1))
    if fam == "wheel":
        return construct.cone_coloring(construct.cycle_coloring(spec.args[0] - 1))
    if fam == "comb":
        m = spec.args[0]
        k = next((k for k in range(5, m) if k * (k - 1) == m), None)
        if k is None:
            raise CliError(f"comb coloring is available for spine sizes k(k-1) with "
                           f"k >= 5; {m} is not of that form")
        return construct.comb_coloring(k)
    if fam in ("star", "double-star"):
        return construct.generic_tree_coloring(family_graph(spec))
    if fam == "unicyclic":
        return construct.unicyclic_extremal(spec.args[0])
    if fam == "caterpillar":
        return construct.caterpillar_extremal(spec.args[0])
    raise CliError(f"no construction for family {fam!r}")


def write_certificate(cg: construct.ColoredGraph) -> dict:
    """Graph plus certificate payload for a self-verified colored graph."""
    return {
        "graph": formats.graph_to_dict(cg.graph),
        "certificate": formats.certificate_to_dict(cg.coloring),
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args) -> int:
    spec = _family_spec(args)
    try:
        g = family_graph(spec)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(formats.graph_to_dict(g), args.pretty)
    return EXIT_OK


def _cmd_color(args) -> int:
    if (args.family is None) == (args.graph is None):
        raise CliError("color needs exactly one of --family or --graph")
    try:
        if args.family is not None:
            cg = _colored_graph_for(_family_spec(args))
        else:
            g = read_graph(args.graph)
            if not is_tree(g):
                raise CliError("only tree input is supported for --graph coloring")
            cg = construct.generic_tree_coloring(g)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.dot:
        _write_text(args.dot, formats.graph_to_dot(cg.graph, cg.coloring))
    _emit(write_certificate(cg), args.pretty)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = read_graph(args.graph)
    try:
        cert = formats.certificate_from_json(_read_text(args.certificate))
    except formats.FormatError as exc:
        raise CliError(f"{args.certificate}: {exc}")
    if cert.n != g.n:
        raise CliError(f"certificate covers {cert.n} vertices, graph has {g.n}")
    verdict = is_nl_coloring(g, cert)
    payload: dict = {"ok": verdict.ok}
    if not verdict.ok:
        payload["reason"] = verdict.reason
        payload["witness"] = list(verdict.witness)
    _emit(payload, args.pretty)
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def _budget(args) -> float | None:
    """Seconds from --budget, else from NLC_BUDGET_SECS, else no budget."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("NLC_BUDGET_SECS")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise CliError(f"NLC_BUDGET_SECS must be a number, got {raw!r}")


def _cmd_chi(args) -> int:
    if (args.family is None) == (args.graph is None):
        raise CliError("chi needs exactly one of --family or --graph")
    if args.family is not None:
        if args.exact:
            raise CliError("--exact applies to --graph input; family values are closed-form")
        spec = _family_spec(args)
        try:
            value = bounds_mod.chi_closed_form(spec)
        except ValueError as exc:
            raise CliError(str(exc))
        _emit({"chi": value}, args.pretty)
        return EXIT_OK
    g = read_graph(args.graph)
    if not args.exact:
        _emit({"chiLowerBound": bounds_mod.chi_lower_bound(g)}, args.pretty)
        return EXIT_OK
    try:  # SolveOptions rejects a cap below 1 and a negative or nan budget
        options = solver.SolveOptions(max_k=args.max_k, time_budget=_budget(args))
    except ValueError as exc:
        raise CliError(str(exc))
    result = solver.chi_nl_exact(g, options)
    _emit(result.to_dict(), args.pretty)
    return EXIT_OK if result.status == solver.EXACT else EXIT_NEGATIVE


def _cmd_bounds(args) -> int:
    try:
        report = bounds_mod.bounds_report(args.k, args.delta)
    except ValueError as exc:
        raise CliError(str(exc))
    payload = report.to_dict()
    if args.graph_class:
        payload["classBound"] = {
            "general": report.general_max_order,
            "tree": report.tree_max_order,
            "unicyclic": report.unicyclic_max_order,
        }[args.graph_class]
    _emit(payload, args.pretty)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        options = solver.SolveOptions(time_budget=_budget(args))
        report = sweeps.conjecture_sweep(args.conjecture, args.max_n, options,
                                         parallel=args.parallel)
    except (ValueError, sweeps.SweepBudgetExhausted) as exc:
        raise CliError(str(exc))
    if args.report:
        _write_text(args.report, json.dumps(report, indent=2) + "\n")
    summary = {key: report[key] for key in report if key != "instances"}
    _emit(summary, args.pretty)
    return EXIT_OK if report["holds"] else EXIT_NEGATIVE


def _cmd_export(args) -> int:
    g = read_graph(args.input)
    if args.to == "json":
        text = json.dumps(formats.graph_to_dict(g), indent=2) + "\n"
    elif args.to == "edgelist":
        text = formats.graph_to_edgelist(g)
    else:
        text = formats.graph_to_dot(g)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", help="path|cycle|fan|wheel|comb|star|double-star|"
                                         "unicyclic|caterpillar")
    parser.add_argument("--n", type=int, help="order (path/cycle/fan/wheel/star)")
    parser.add_argument("--m", type=int, help="spine size (comb)")
    parser.add_argument("--r", type=int, help="first center leaf count (double-star)")
    parser.add_argument("--s", type=int, help="second center leaf count (double-star)")
    parser.add_argument("--k", type=int, help="color count (unicyclic/caterpillar)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nlc",
                                     description="Neighbor-locating colorings of "
                                                 "pseudotrees: build, verify, bound, solve.")
    parser.add_argument("--version", action="version", version=f"nlc {__version__}")
    parser.add_argument("--pretty", action="store_true",
                        help="key: value lines instead of a JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family graph as JSON")
    _add_family_arguments(p)

    p = sub.add_parser("color", help="construct a verified coloring")
    _add_family_arguments(p)
    p.add_argument("--graph", help="graph file (trees only), '-' for stdin")
    p.add_argument("--dot", help="also write a DOT rendering here")

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("--graph", required=True, help="graph file, '-' for stdin")
    p.add_argument("--certificate", required=True, help="certificate JSON file")

    p = sub.add_parser("chi", help="closed-form (family) or exact (graph) value")
    _add_family_arguments(p)
    p.add_argument("--graph", help="graph file, '-' for stdin")
    p.add_argument("--exact", action="store_true", help="run the exact solver")
    p.add_argument("--max-k", type=int, dest="max_k", help="cap on the color count")
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")

    p = sub.add_parser("bounds", help="print the bounds report for a color count")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, help="degree cap (at most k-1)")
    p.add_argument("--class", dest="graph_class",
                   choices=["tree", "unicyclic", "general"],
                   help="highlight one class bound")

    p = sub.add_parser("sweep", help="exhaustively test a conjecture")
    p.add_argument("--conjecture", required=True, choices=["delta", "diameter"])
    p.add_argument("--max-n", type=int, dest="max_n", required=True)
    p.add_argument("--report", help="write the full per-instance report here")
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    p.add_argument("--parallel", action="store_true",
                   help="solve the instances in worker processes (same report)")

    p = sub.add_parser("export", help="convert graph formats")
    p.add_argument("--input", required=True, help="graph file, '-' for stdin")
    p.add_argument("--to", required=True, choices=["json", "edgelist", "dot"])
    p.add_argument("--out", help="output file (default stdout)")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "chi": _cmd_chi,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_USAGE
    except Exception:
        # a bug or a broken environment: neither a verdict (1) nor a usage error (2)
        import traceback

        traceback.print_exc()
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
