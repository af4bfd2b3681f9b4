"""Traced replay of one benchmark operation in a fresh process.

Usage: python3 bench/replay.py OP_JSON OUT_JSON   (with src on PYTHONPATH)

Performs the work ``nlc`` does for the operation by calling nlcoloring's
functions directly, with a span around each call, and writes the spans and
the counters to OUT_JSON.  Besides the public API it uses the command
line's family dispatch and the solver's node budget, so that the replay
does the same work as nlc, each piece once.  Nothing inside nlcoloring is patched:
the spans sit at the benchmark's own calls into each module, so a span's
name is ``<module>.<step>``.  Span times come from time.perf_counter, which
on Linux reads the system-wide monotonic clock, so the parent can nest them
under the span it opened around this process.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from nlcoloring import (FamilySpec, chi_closed_form, chi_lower_bound, cli,
                        connected_graphs, construct, degree_stats, diameter,
                        enumerate_trees, exists_nl_coloring, formats, is_nl_coloring)
from nlcoloring.solver import _Budget

SMALL_CALL_NODES = 1000


class Tracer:
    """Spans kept in memory; id 0 is the parent's span around this process."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.stack = [0]

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans) + 1, "name": name, "parent": self.stack[-1],
                  "op": self.op, "start": time.perf_counter()}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_graph(t: Tracer, path: str, counters: dict):
    text = _read(path)
    with t.span("formats.parse"):
        data = json.loads(text)
    # graph_from_dict is a thin field check around the Graph constructor,
    # so its time is the graphs layer's
    with t.span("graphs.build"):
        g = formats.graph_from_dict(data)
    counters["bytes"] += len(text)
    counters["edges"] += len(g.edges)
    return g


def _emit(t: Tracer, payload: dict, counters: dict) -> None:
    with t.span("formats.emit"):
        text = json.dumps(payload, indent=2)
    counters["bytes"] += len(text)


def _search(t: Tracer, name: str, g, k: int, stop: int | None = None):
    """The k-loop of chi_nl_exact, which starts at the lower bound the caller
    has already computed: exists_nl_coloring for k, k + 1, ... up to the
    first feasible k, or up to ``stop`` (exclusive), in one span.  Returns
    (k, witness, nodes, span); the witness is None when stopped."""
    budget = _Budget(None)
    witness = None
    with t.span(name) as span:
        while stop is None or k < stop:
            feasible, witness = exists_nl_coloring(g, k, budget=budget)
            if feasible:
                break
            k += 1
    return k, witness, budget.nodes, span


def replay_chi(t: Tracer, op: dict, counters: dict) -> dict:
    g = _load_graph(t, op["argv"][2], counters)
    with t.span("bounds.lower_bound"):
        lower = chi_lower_bound(g)
    chi = op["chi"]
    # chi_nl_exact refutes every k below chi, then finds the witness at chi
    _, _, refute_nodes, _ = _search(t, "solver.refute", g, lower, stop=chi)
    _, witness, find_nodes, find = _search(t, "solver.find", g, chi, stop=chi + 1)
    if witness is None:
        raise RuntimeError(f"no witness with {chi} colors")
    if refute_nodes + find_nodes != op["nodes"]:
        raise RuntimeError(f"replay explored {refute_nodes} + {find_nodes} nodes, "
                           f"nlc {op['nodes']}")
    with t.span("coloring.accept"):
        verdict = is_nl_coloring(g, witness)
    if not verdict.ok:
        raise RuntimeError(f"witness does not verify: {verdict}")
    _emit(t, {"chi": chi, "status": "Exact", "nodesExplored": op["nodes"],
              "certificate": formats.certificate_to_dict(witness)}, counters)
    if find_nodes < SMALL_CALL_NODES and refute_nodes == 0:
        counters["small_calls"].append(find["end"] - find["start"])
    counters["verified_vertices"] += g.n
    return {"chi": chi, "lower": lower, "refute_nodes": refute_nodes}


def replay_sweep(t: Tracer, op: dict, counters: dict) -> dict:
    conjecture, max_n = op["expect"]["conjecture"], op["expect"]["maxN"]
    records = []
    # nlcoloring.sweeps has no public per-instance hook, so this loop is the
    # replay's own copy of the sweep loop; its self time is the replay's
    with t.span("replay.sweep_loop"):
        for n in range(1 if conjecture == "delta" else 2, max_n + 1):
            with t.span("sweeps.enum"):
                graphs = list(enumerate_trees(n)) if conjecture == "delta" else connected_graphs(n)
            for g in graphs:
                with t.span("bounds.lower_bound"):
                    lower = chi_lower_bound(g)
                chi, witness, nodes, search = _search(t, "solver.search", g, lower)
                with t.span("coloring.accept"):
                    if not is_nl_coloring(g, witness).ok:
                        raise RuntimeError("sweep witness does not verify")
                counters["verified_vertices"] += g.n
                if nodes < SMALL_CALL_NODES:
                    counters["small_calls"].append(search["end"] - search["start"])
                counters["instance_nodes"].append(nodes)
                counters["gaps"].append(chi - lower)
                if conjecture == "delta":
                    with t.span("graphs.measure"):
                        delta = degree_stats(g).max_degree
                    holds = delta <= (chi - 1) ** 2
                    record = {"n": n, "chi": chi, "delta": delta, "verdict": holds}
                else:
                    with t.span("graphs.measure"):
                        d = diameter(g)
                    with t.span("bounds.closed_form"):
                        floor = chi_closed_form(FamilySpec.path(d + 1))
                    holds = chi >= floor
                    record = {"n": n, "chi": chi, "diameter": d,
                              "pathValue": floor, "verdict": holds}
                records.append(dict(record, canonical=g.sorted_edges()))
    _emit(t, {"conjecture": conjecture, "maxN": max_n, "instances": records,
              "holds": all(r["verdict"] for r in records)}, counters)
    return {"instances": len(records), "chis": [r["chi"] for r in records],
            "holds": all(r["verdict"] for r in records)}


def replay_color(t: Tracer, op: dict, counters: dict) -> dict:
    family, param = op["expect"]["family"]
    # the comb is named by its spine size k(k-1), as on nlc's command line
    spec = FamilySpec(family, (param * (param - 1) if family == "comb" else param,))
    with t.span("construct.build"):
        try:
            cg = cli._colored_graph_for(spec)
        except (RecursionError, construct.ConstructionError, cli.CliError, ValueError):
            counters["construct_failures"] += 1
            raise
    _emit(t, {"graph": formats.graph_to_dict(cg.graph),
              "certificate": formats.certificate_to_dict(cg.coloring)}, counters)
    return {"k": cg.k, "n": cg.graph.n}


def replay_verify(t: Tracer, op: dict, counters: dict) -> dict:
    g = _load_graph(t, op["argv"][2], counters)
    text = _read(op["argv"][4])
    with t.span("formats.parse"):
        cert = formats.certificate_from_json(text)
    counters["bytes"] += len(text)
    with t.span("coloring.verify") as span:
        verdict = is_nl_coloring(g, cert)
    span["name"] = "coloring.accept" if verdict.ok else "coloring.reject"
    counters["verified_vertices"] += g.n
    payload: dict = {"ok": verdict.ok}
    if not verdict.ok:
        payload.update(reason=verdict.reason, witness=list(verdict.witness))
    _emit(t, payload, counters)
    return payload


REPLAYS = {"chi": replay_chi, "sweep": replay_sweep, "color": replay_color,
           "verify": replay_verify}


def main(argv: list[str]) -> int:
    op = json.loads(argv[1])
    tracer = Tracer(op["name"])
    counters = {"bytes": 0, "edges": 0, "verified_vertices": 0, "construct_failures": 0,
                "small_calls": [], "instance_nodes": [], "gaps": []}
    facts = None
    try:
        facts = REPLAYS[op["kind"]](tracer, op, counters)
    finally:
        # written on failure too, so the spans up to the failing call survive
        with open(argv[2], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": counters, "facts": facts}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
