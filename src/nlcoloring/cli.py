"""Command-line front end.

Subcommands: gen, color, verify, chi, bounds, sweep, export.  Each prints
one JSON document on stdout with stable key order (``export`` prints the
format it is asked for); identical invocations produce byte-identical
payloads.  ``chi --exact`` and ``sweep`` take a time budget from
``--budget`` alone.  Exit codes: 0 success, 1 computation succeeded with a
negative verdict (failed verification, infeasible within caps, conjecture
violated), 2 usage or input errors, 3 internal fault (the traceback goes
to stderr).

Each subcommand imports the modules it runs when it runs, so a process
loads only those: ``--version`` loads none of them.  No subcommand loads
networkx; the sweeps generate their trees and decode their atlas graphs
themselves.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .construct import ColoredGraph
    from .graphs import FamilySpec

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_FAULT = 3

# the largest k whose bounds report prints: generalMaxOrder = k(2^(k-1) - 1)
# then has 4300 digits, the default cap on converting an int to a string
BOUNDS_MAX_K = 14271


class CliError(Exception):
    """Input or usage problem; message goes to stderr, exit code 2."""


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    from . import formats
    from .graphs import GraphError

    text = _read_text(path)
    try:
        if text.lstrip().startswith("{"):
            return formats.graph_from_json(text)
        return formats.graph_from_edgelist(text)
    except (formats.FormatError, GraphError) as exc:
        raise CliError(f"{path}: {exc}")


def _family_spec(args) -> FamilySpec:
    from .graphs import FAMILIES, FamilySpec

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


def _colored_graph_for(spec: FamilySpec) -> ColoredGraph:
    from . import construct
    from .graphs import family_graph

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
        root = math.isqrt(4 * m + 1)  # m = k(k-1) exactly when 4m + 1 = (2k-1)^2
        k = (root + 1) // 2
        if root * root != 4 * m + 1 or k < 5:
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


def write_certificate(cg: ColoredGraph) -> dict:
    """Graph plus certificate payload for a self-verified colored graph."""
    from . import formats

    return {
        "graph": formats.graph_to_dict(cg.graph),
        "certificate": formats.certificate_to_dict(cg.coloring),
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args) -> int:
    from . import formats
    from .graphs import family_graph

    spec = _family_spec(args)
    try:
        g = family_graph(spec)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(formats.graph_to_dict(g))
    return EXIT_OK


def _cmd_color(args) -> int:
    from . import construct, formats
    from .graphs import is_tree

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
    _emit(write_certificate(cg))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import formats
    from .coloring import is_nl_coloring

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
    _emit(payload)
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def _cmd_chi(args) -> int:
    from . import bounds

    if (args.family is None) == (args.graph is None):
        raise CliError("chi needs exactly one of --family or --graph")
    if not args.exact and (args.max_k is not None or args.budget is not None):
        raise CliError("--max-k and --budget cap the exact solver; they need --exact")
    if args.family is not None:
        if args.exact:
            raise CliError("--exact applies to --graph input; family values are closed-form")
        spec = _family_spec(args)
        try:
            value = bounds.chi_closed_form(spec)
        except ValueError as exc:
            raise CliError(str(exc))
        _emit({"chi": value})
        return EXIT_OK
    g = read_graph(args.graph)
    if not args.exact:
        _emit({"chiLowerBound": bounds.chi_lower_bound(g)})
        return EXIT_OK
    from . import solver

    try:  # SolveOptions rejects a cap below 1 and a negative or nan budget
        options = solver.SolveOptions(max_k=args.max_k, time_budget=args.budget)
    except ValueError as exc:
        raise CliError(str(exc))
    result = solver.chi_nl_exact(g, options)
    _emit(result.to_dict())
    return EXIT_OK if result.status == solver.EXACT else EXIT_NEGATIVE


def _cmd_bounds(args) -> int:
    from . import bounds

    if args.k > BOUNDS_MAX_K:  # before 2^(k-1) is built
        raise CliError(f"--k must be at most {BOUNDS_MAX_K}: above it generalMaxOrder "
                       f"k(2^(k-1) - 1) has too many digits to print")
    try:
        payload = bounds.bounds_report(args.k, args.delta)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import solver, sweeps

    try:
        options = solver.SolveOptions(time_budget=args.budget)
        report = sweeps.conjecture_sweep(args.conjecture, args.max_n, options)
    except (ValueError, sweeps.SweepBudgetExhausted) as exc:
        raise CliError(str(exc))
    if args.report:
        _write_text(args.report, json.dumps(report, indent=2) + "\n")
    summary = {key: report[key] for key in report if key != "instances"}
    _emit(summary)
    return EXIT_OK if report["holds"] else EXIT_NEGATIVE


def _cmd_export(args) -> int:
    from . import formats

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
    p.add_argument("--k", type=int, required=True,
                   help=f"color count, 3 to {BOUNDS_MAX_K}")
    p.add_argument("--delta", type=int, help="degree cap (at most k-1)")

    p = sub.add_parser("sweep", help="exhaustively test a conjecture")
    p.add_argument("--conjecture", required=True, choices=["delta", "diameter"])
    p.add_argument("--max-n", type=int, dest="max_n", required=True)
    p.add_argument("--report", help="write the full per-instance report here")
    p.add_argument("--budget", type=float,
                   help="wall-clock budget in seconds per instance")

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
