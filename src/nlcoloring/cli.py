"""Command-line front end.

Subcommands: gen, color, verify, chi, bounds, sweep, export.  Each prints
one JSON document on stdout with stable key order (``export`` prints the
format it is asked for); identical invocations produce byte-identical
payloads.  ``chi --exact`` and ``sweep`` take a time budget from
``--budget`` alone.  Exit codes: 0 success, 1 computation succeeded with a
negative verdict (failed verification, infeasible within caps, conjecture
violated), 2 usage or input errors, 3 internal fault (the traceback goes
to stderr).

The parser is one table, ``_COMMANDS``, read by getopt, so no command
imports argparse.  Each subcommand imports the modules it runs when it
runs, so a process loads only those: ``--version`` loads none of them.
No subcommand loads networkx; the sweeps generate their trees and decode
their atlas graphs themselves.
"""

from __future__ import annotations

import getopt
import json
import sys
from types import SimpleNamespace

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
    if path == "-":  # '-' is stdin, and an output option names a file
        raise CliError("cannot write -: '-' means stdin, for inputs only; give a file name")
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


def _refuse_params(args, owner: str, taken: tuple[str, ...] = ()) -> None:
    """A family parameter given to an owner (a family or ``--graph``) that
    does not take it is a usage error, not dropped in silence."""
    extra = [f"--{name}" for name in _FAMILY
             if name != "family" and name not in taken and getattr(args, name) is not None]
    if extra:
        raise CliError(f"{owner} takes no {' or '.join(extra)}")


def _family_spec(args) -> FamilySpec:
    from .graphs import FAMILIES, FamilySpec

    fam = args.family
    if fam is None:
        raise CliError(f"{args.command} needs --family")
    if fam not in FAMILIES:
        raise CliError(f"unknown family {fam!r}")
    params = FAMILIES[fam][0]
    values = tuple(getattr(args, name) for name in params)
    if None in values:
        raise CliError(f"{fam} needs {' and '.join('--' + name for name in params)}")
    _refuse_params(args, fam, params)
    try:
        return FamilySpec(fam, values)
    except ValueError as exc:
        raise CliError(str(exc))


# bench/replay.py builds its colorings through this name
def _colored_graph_for(spec: FamilySpec) -> ColoredGraph:
    from .construct import family_coloring
    return family_coloring(spec)


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
            cg = construct.family_coloring(_family_spec(args))
        else:
            _refuse_params(args, "--graph")
            g = read_graph(args.graph)
            if not is_tree(g):
                raise CliError("only tree input is supported for --graph coloring")
            cg = construct.generic_tree_coloring(g)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.dot:
        _write_text(args.dot, formats.graph_to_dot(cg.graph, cg.coloring))
    _emit({"graph": formats.graph_to_dict(cg.graph),
           "certificate": formats.certificate_to_dict(cg.coloring)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import formats
    from .coloring import is_nl_coloring

    if args.graph == args.certificate == "-":
        raise CliError("--graph and --certificate cannot both read stdin ('-')")
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
    _refuse_params(args, "--graph")
    g = read_graph(args.graph)
    if not args.exact:
        _emit({"chiLowerBound": bounds.chi_lower_bound(g)})
        return EXIT_OK
    from . import solver

    try:  # a cap below 1 or a negative or nan budget
        result = solver.chi_nl_exact(g, max_k=args.max_k, time_budget=args.budget)
    except ValueError as exc:
        raise CliError(str(exc))
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
    from . import sweeps

    try:
        report = sweeps.conjecture_sweep(args.conjecture, args.max_n, time_budget=args.budget)
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
        if not g.edges:  # an empty edge list does not read back
            raise CliError("a graph without edges has no edge list; export it with --to json")
        text = formats.graph_to_edgelist(g)
    else:
        text = formats.graph_to_dot(g)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# command -> (handler, help line, options); option -> (type, required, help),
# where the type is str, int, float, bool (a flag) or a tuple of choices.  The
# None command holds the options that come before a command.
_FAMILY = {
    "family": (str, False, "path|cycle|fan|wheel|comb|star|double-star|unicyclic|caterpillar"),
    "n": (int, False, "order (path/cycle/fan/wheel/star)"), "m": (int, False, "spine size (comb)"),
    "r": (int, False, "leaves of the first center (double-star)"),
    "s": (int, False, "leaves of the second center (double-star)"),
    "k": (int, False, "color count (unicyclic/caterpillar)")}
_COMMANDS = {
    None: (None, "Neighbor-locating colorings of pseudotrees: build, verify, bound, solve.",
           {"version": (bool, False, "print the version and exit")}),
    "gen": (_cmd_gen, "emit a family graph as JSON", _FAMILY),
    "color": (_cmd_color, "construct a verified coloring", {
        **_FAMILY, "graph": (str, False, "graph file (trees only), '-' for stdin"),
        "dot": (str, False, "also write a DOT rendering here")}),
    "verify": (_cmd_verify, "check a certificate against a graph", {
        "graph": (str, True, "graph file, '-' for stdin"),
        "certificate": (str, True, "certificate JSON file, '-' for stdin")}),
    "chi": (_cmd_chi, "closed-form (family) or exact (graph) value", {
        **_FAMILY, "graph": (str, False, "graph file, '-' for stdin"),
        "exact": (bool, False, "run the exact solver"),
        "max-k": (int, False, "cap on the color count"),
        "budget": (float, False, "wall-clock budget in seconds")}),
    "bounds": (_cmd_bounds, "print the bounds report for a color count", {
        "k": (int, True, f"color count, 3 to {BOUNDS_MAX_K}"),
        "delta": (int, False, "degree cap (at most k-1)")}),
    "sweep": (_cmd_sweep, "exhaustively test a conjecture", {
        "conjecture": (("delta", "diameter"), True, "the conjecture"),
        "max-n": (int, True, "largest order tested"),
        "report": (str, False, "write the full per-instance report here"),
        "budget": (float, False, "wall-clock budget in seconds per instance")}),
    "export": (_cmd_export, "convert graph formats", {
        "input": (str, True, "graph file, '-' for stdin"),
        "to": (("json", "edgelist", "dot"), True, "output format"),
        "out": (str, False, "output file (default stdout)")}),
}


def _help(command: str | None) -> str:
    _, about, options = _COMMANDS[command]
    rows = [(f"--{name} " + ("|".join(kind) if isinstance(kind, tuple) else
                            name.upper() * (kind is not bool)), text + " (required)" * required)
            for name, (kind, required, text) in options.items()]
    rows += [(name, _COMMANDS[name][1]) for name in _COMMANDS if name and command is None]
    return "\n".join([f"usage: nlc {command or 'COMMAND'} [OPTIONS]", "", about, ""] +
                      [f"  {left:<30}{text}" for left, text in rows])


def _usage(command: str | None, message: str) -> SystemExit:
    print(f"nlc{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its options, split by getopt as ``_COMMANDS`` lists them;
    a usage error prints to stderr and raises ``SystemExit(2)``, as argparse did."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    options = _COMMANDS[command][2]
    try:
        opts, rest = getopt.getopt(argv[command is not None:], "h", ["help"] + [
            name + "=" * (kind is not bool) for name, (kind, _, _) in options.items()])
    except getopt.GetoptError as exc:
        raise _usage(command, str(exc))
    values = {name: False if kind is bool else None for name, (kind, _, _) in options.items()}
    for opt, value in opts:
        name = opt.lstrip("-")
        if name in ("h", "help", "version"):
            print(f"nlc {__version__}" if name == "version" else _help(command))
            raise SystemExit(EXIT_OK)
        kind = options[name][0]
        if kind is bool:
            value = True
        elif isinstance(kind, tuple):
            if value not in kind:
                raise _usage(command, f"--{name} must be one of {', '.join(kind)}, not {value!r}")
        else:
            try:
                value = kind(value)
            except ValueError:
                raise _usage(command, f"--{name} needs {kind.__name__} values, not {value!r}")
        values[name] = value
    if command is None:
        raise _usage(None, f"unknown command {rest[0]!r}" if rest else "a command is required")
    if rest:
        raise _usage(command, f"unrecognized arguments: {' '.join(rest)}")
    for name, (_, required, _) in options.items():
        if required and values[name] is None:
            raise _usage(command, f"--{name} is required")
    return SimpleNamespace(command=command, **{n.replace("-", "_"): v for n, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][0](args)
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
