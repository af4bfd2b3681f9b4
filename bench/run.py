#!/usr/bin/env python3
"""Benchmark of the ``nlc`` command line, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload exact|sweep|certify|all --seed N \
        --seconds S --trace 0|1

Each operation is one ``python -m nlcoloring.cli ...`` process with ``src``
on PYTHONPATH, as a user runs ``nlc``.  One child runs at a time and this
process blocks in wait4 while it runs.  A run repeats the workload's whole
operation list in rounds, so slow phases of the host spread over every
operation; the number of rounds follows from --seconds alone, so a faster
program does the same work in less time.  A fixed stdlib-only calibration
loop, which loads bytecode as starting Python does, runs before every
operation and every ``nlc --version`` probe (set-up time, timed between
rounds), and once more at the end.  Each process's time is divided by the
mean of the loops just before and after it, which move with the host's
speed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each operation
untraced and then replays it in a fresh process with spans around the
benchmark's calls into each nlcoloring module (bench/replay.py), and prints
the per-layer metrics.  Every output is checked; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Results, with the machine and every calibration time, go to
bench/results/; spans of a traced run go there too, written once it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import marshal
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# the checks import nlcoloring from the same sources the children run
sys.path[:0] = [str(BENCH), str(SRC)]

from workloads import WORKLOADS, Checker, make_ops  # noqa: E402

# Rounds per run = --seconds // ROUND_SECONDS, fixed for a given --seconds.
# At 30 s: 4 rounds of exact, 7 of sweep, 4 of certify, which take 20-30 s
# on a 2-core host in its fast state and 30-50 s in its slow state.
ROUND_SECONDS = {"exact": 7.5, "sweep": 4.25, "certify": 7.5}
OP_TIMEOUT_S = 60.0
# no round starts once a run has taken this long, so a run ends within 180 s
RUN_GUARD_S = 110.0
SETUP_PROBES_PER_GAP = 3
TAIL_MIN_BEYOND = 10
# about 25 ms per loop on a 2-core host in its fast state
CALIBRATION_REPEATS = 25
# setup_s is in seconds of a host on which calibration_loop takes this
# long, as it does on a 2-vCPU host with CPython 3.11 in its fast state
CALIBRATION_REFERENCE_S = 0.025

END_TO_END = {
    "wall_ref": "ratio", "op_p50_ref": "ratio", "op_tail_ref": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio", "solver_nodes": "count",
}
PER_LAYER = {
    "solver.nodes": "count", "solver.search_s": "s", "solver.nodes_per_s": "1/s",
    "solver.attempts": "count", "solver.refute_nodes": "count", "solver.refute_s": "s",
    "solver.find_s": "s", "solver.small_call_s": "s",
    "bounds.lower_bound_s": "s", "bounds.lb_gap": "count", "bounds.lb_exact_share": "ratio",
    "sweeps.enum_s": "s", "sweeps.instances": "count", "sweeps.solve_s": "s",
    "sweeps.max_instance_nodes": "count",
    "construct.build_s": "s", "construct.failures": "count", "construct.peak_rss_mb": "MB",
    "coloring.accept_s": "s", "coloring.reject_s": "s", "coloring.vertices_per_s": "1/s",
    "formats.parse_s": "s", "formats.emit_s": "s", "formats.bytes": "B",
    "graphs.build_s": "s", "graphs.edges": "count",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The program under test cannot be started; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """Outcome of one child process: exit code, wall time, peak RSS, output."""

    def __init__(self, code: int, start: float, end: float, rss_mb: float,
                 stdout: str, stderr: str):
        self.code, self.start, self.end = code, start, end
        self.seconds = end - start
        self.rss_mb, self.stdout, self.stderr = rss_mb, stdout, stderr


def run_child(argv: list[str], workdir: Path, env: dict) -> Child:
    """Run one process to completion, blocked in wait4 for its rusage."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace")[-2000:])


def nlc(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "nlcoloring.cli"] + args


def stdlib_code_blob() -> bytes:
    """Marshalled bytecode of a fixed set of standard-library modules."""
    import argparse
    import dataclasses
    import json.decoder
    import typing

    sources = [Path(m.__file__).read_text(encoding="utf-8")
               for m in (argparse, dataclasses, json.decoder, typing)]
    return marshal.dumps([compile(src, "<calibration>", "exec") for src in sources])


def calibration_loop(blob: bytes) -> float:
    """Time loading standard-library bytecode, the bulk of starting Python
    and importing a package.  The blob does not depend on nlcoloring, so
    work moved into nlc's start-up cannot hide in it."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        marshal.loads(blob)
    return time.perf_counter() - start


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_MIN_BEYOND samples above
    it; 100 (the maximum) when there are too few samples for that."""
    if count <= TAIL_MIN_BEYOND:
        return 100
    return math.floor(100 * (count - TAIL_MIN_BEYOND) / count)


def machine() -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {"python": sys.version.split()[0], "implementation": sys.implementation.name,
            "cpu_count": os.cpu_count(), "gil": gil,
            "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None}


# ---------------------------------------------------------------------------
# traced replay and per-layer metrics

def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def nesting_errors(spans: list[dict], slack: float = 1e-3) -> list[str]:
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["parent"] is not None and parent is None:
            errors.append(f"span {s['name']} has no parent")
        elif parent is not None and (s["start"] < parent["start"] - slack
                                     or s["end"] > parent["end"] + slack):
            errors.append(f"span {s['name']} of {s['op']} leaves its parent")
    return errors


class Trace:
    """Spans and counters of a traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters = defaultdict(list)
        self.overheads: list[float] = []
        self.cli_self: list[float] = []
        self.color_rss: list[float] = []
        self.chi_facts: list[dict] = []
        self.per_op: list[dict] = []

    def replay(self, op, facts: dict, untraced: Child, workdir: Path, env: dict) -> list[str]:
        spec = dict(op.to_dict(), chi=facts.get("chi"), nodes=facts.get("nodes"))
        out = workdir / "replay.json"
        child = run_child([sys.executable, str(BENCH / "replay.py"), json.dumps(spec),
                           str(out)], workdir, env)
        if child.code != 0:
            return [f"replay of {op.name} exited {child.code}: {child.stderr[-300:]}"]
        data = json.loads(out.read_text(encoding="utf-8"))
        base = len(self.spans)
        root = {"id": base, "name": "op", "parent": None, "op": op.name,
                "start": child.start, "end": child.end}
        spans = [root] + [dict(s, id=base + s["id"], parent=base + s["parent"])
                          for s in data["spans"]]
        errors = nesting_errors(spans)
        self.spans.extend(spans)
        layers = sum(s["end"] - s["start"] for s in spans if s["parent"] == base)
        self.overheads.append(child.seconds - untraced.seconds)
        self.cli_self.append(untraced.seconds - layers)
        self.per_op.append({"traced_s": child.seconds, "layer_s": layers})
        if op.kind == "color":
            self.color_rss.append(child.rss_mb)
        for key, value in data["counters"].items():
            self.counters[key].extend(value if isinstance(value, list) else [value])
        replayed = data["facts"]
        if op.kind == "chi":
            self.chi_facts.append(dict(facts, refute_nodes=replayed["refute_nodes"]))
            if replayed["lower"] != facts["lower"]:
                errors.append(f"{op.name}: replayed lower bound differs")
        elif op.kind == "sweep":
            if replayed["chis"] != facts["chis"] or not replayed["holds"]:
                errors.append(f"{op.name}: replayed sweep differs from nlc's report")
        elif op.kind == "color":
            if replayed["k"] != facts["k"]:
                errors.append(f"{op.name}: replayed construction differs")
        elif replayed["ok"] != facts["ok"]:
            errors.append(f"{op.name}: replayed verdict differs")
        return errors

    def metrics(self, rounds: int) -> tuple[dict, dict]:
        total = defaultdict(float)
        for s in self.spans:
            total[s["name"]] += s["end"] - s["start"]
        selfs = self_times(self.spans)
        layer_self = defaultdict(float)
        for s in self.spans:
            layer = "process" if s["name"] == "op" else s["name"].split(".")[0]
            layer_self[layer] += selfs[s["id"]]
        c = self.counters
        chi_nodes = sum(f["nodes"] for f in self.chi_facts)
        nodes = chi_nodes + sum(c["instance_nodes"])
        gaps = [f["chi"] - f["lower"] for f in self.chi_facts] + c["gaps"]
        search = total["solver.refute"] + total["solver.find"] + total["solver.search"]
        verify = total["coloring.accept"] + total["coloring.reject"]
        per_pass = {
            "solver.nodes": nodes,
            "solver.search_s": search,
            "solver.attempts": sum(g + 1 for g in gaps),
            "solver.refute_nodes": sum(f["refute_nodes"] for f in self.chi_facts),
            "solver.refute_s": total["solver.refute"],
            "solver.find_s": total["solver.find"],
            "bounds.lower_bound_s": total["bounds.lower_bound"],
            "bounds.lb_gap": sum(gaps),
            "sweeps.enum_s": total["sweeps.enum"],
            "sweeps.instances": len(c["instance_nodes"]),
            "sweeps.solve_s": total["solver.search"],
            "construct.build_s": total["construct.build"],
            "construct.failures": sum(c["construct_failures"]),
            "coloring.accept_s": total["coloring.accept"],
            "coloring.reject_s": total["coloring.reject"],
            "formats.parse_s": total["formats.parse"],
            "formats.emit_s": total["formats.emit"],
            "formats.bytes": sum(c["bytes"]),
            "graphs.build_s": total["graphs.build"],
            "graphs.edges": sum(c["edges"]),
            "cli.self_s": sum(self.cli_self),
        }
        metrics = {k: v / rounds for k, v in per_pass.items()}
        metrics.update({
            "solver.nodes_per_s": nodes / search if search else 0.0,
            "solver.small_call_s": (statistics.median(c["small_calls"])
                                    if c["small_calls"] else 0.0),
            "bounds.lb_exact_share": (sum(g == 0 for g in gaps) / len(gaps)) if gaps else 0.0,
            "sweeps.max_instance_nodes": max(c["instance_nodes"], default=0),
            "construct.peak_rss_mb": max(self.color_rss, default=0.0),
            "coloring.vertices_per_s": sum(c["verified_vertices"]) / verify if verify else 0.0,
            "trace.overhead_s": statistics.mean(self.overheads) if self.overheads else 0.0,
        })
        return metrics, {k: v / rounds for k, v in sorted(layer_self.items())}


# ---------------------------------------------------------------------------

def end_to_end(records: list[dict], rounds: int, tail_p: int, setups: list[dict]) -> dict:
    """End-to-end metrics, with times divided by calibration-loop times.

    Each process, an operation or an ``nlc --version`` probe, is divided by
    the mean of the calibration loops timed just before and just after it,
    which follows a change of the host's speed during the process.  An
    operation counts in the percentiles with the median of its ratio over
    the rounds, once per round.  Of the estimators tried on ten seeds of
    each workload, this moved least from run to run.  ``setup_s`` scales the
    median probe ratio to seconds at CALIBRATION_REFERENCE_S.
    """
    latencies = [r["seconds"] for r in records]
    ratios = defaultdict(list)
    for r in records:
        ratios[r["op"]].append(r["seconds"] / r["calibration_s"])
    per_op = {op: statistics.median(v) for op, v in ratios.items()}
    refs = [per_op[r["op"]] for r in records]
    metrics = {
        "wall_ref": sum(r["seconds"] / r["calibration_s"] for r in records) / rounds,
        "op_p50_ref": statistics.median(refs),
        "op_tail_ref": nearest_rank(refs, tail_p),
        "setup_s": CALIBRATION_REFERENCE_S * statistics.median(
            p["seconds"] / p["calibration_s"] for p in setups),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "ok_rate": sum(r["outcome"] == "ok" for r in records) / len(records),
        "solver_nodes": sum(r.get("nodes", 0) for r in records) / rounds,
    }
    raw = {"wall_s": sum(latencies) / rounds, "op_p50_s": statistics.median(latencies),
           "op_tail_s": nearest_rank(latencies, tail_p),
           "calibration_s": statistics.mean(r["calibration_s"] for r in records),
           "setup_raw_s": statistics.median(p["seconds"] for p in setups)}
    return metrics, raw


def rounds_for(workload: str, seconds: int, trace: bool) -> int:
    # a traced round runs every operation twice
    share = 2 * ROUND_SECONDS[workload] if trace else ROUND_SECONDS[workload]
    return max(1, int(seconds // share))


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU, the highest-numbered one
    this process may use (CPU 0 takes most device interrupts).

    On a shared VM the host slows each virtual CPU on its own.  Pinned, a
    calibration loop and the next nlc process run on the same CPU, and
    their times correlate (r = 0.7-0.9 against 0.2-0.3 unpinned, for a
    pure-Python loop), so the
    ratio of the two cancels the slowdown.  nlc is single-threaded here.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 results: Path = RESULTS) -> dict:
    if not (SRC / "nlcoloring" / "cli.py").is_file():
        raise SetupError(f"no nlcoloring sources under {SRC}")
    pin_to_one_cpu()
    env = child_env()
    workdir = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        ops = make_ops(workload, seed, workdir)
        warm = run_child(nlc(["--version"]), workdir, env)  # fills the bytecode cache
        if warm.code != 0:
            raise SetupError(f"nlc --version exited {warm.code}: {warm.stderr[-500:]}")
        checker = Checker()
        return _measure(workload, seed, seconds, trace, ops, checker, workdir, env, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()


def _measure(workload, seed, seconds, trace, ops, checker, workdir, env, results) -> dict:
    load_start = os.getloadavg()
    planned = rounds_for(workload, seconds, trace)
    setups: list[dict] = []
    records: list[dict] = []
    # every probe and operation in the order they ran, each after a
    # calibration loop; one more loop closes the run
    timeline: list[dict] = []
    problems: list[str] = []
    tracer = Trace() if trace else None
    blob = stdlib_code_blob()

    def gap() -> None:
        for _ in range(SETUP_PROBES_PER_GAP):
            before = calibration_loop(blob)
            probe = run_child(nlc(["--version"]), workdir, env)
            if probe.code != 0:
                raise SetupError(f"nlc --version exited {probe.code}")
            setups.append({"seconds": probe.seconds, "calibration_before_s": before})
            timeline.append(setups[-1])

    started = time.perf_counter()
    gap()
    rounds = 0
    while rounds < planned and (rounds == 0 or time.perf_counter() - started < RUN_GUARD_S):
        for op in ops:
            before = calibration_loop(blob)
            child = run_child(nlc(op.argv), workdir, env)
            outcome, facts = checker.check(op, child.code, child.stdout)
            if outcome == "failed" and "Traceback" in child.stderr:
                facts["stderr"] = child.stderr.strip().splitlines()[-1]
            record = {"round": rounds, "op": op.name, "seconds": child.seconds,
                      "calibration_before_s": before,
                      "code": child.code, "rss_mb": child.rss_mb, "outcome": outcome,
                      **{k: v for k, v in facts.items() if k != "chis"}}
            if tracer is not None and outcome == "ok":
                problems.extend(tracer.replay(op, facts, child, workdir, env))
                record.update(tracer.per_op[-1])
            records.append(record)
            timeline.append(record)
        rounds += 1
        gap()
    afters = [e["calibration_before_s"] for e in timeline[1:]] + [calibration_loop(blob)]
    for entry, after in zip(timeline, afters):
        entry["calibration_s"] = (entry["calibration_before_s"] + after) / 2
    load_end = os.getloadavg()

    attempted = len(records)
    ok = sum(r["outcome"] == "ok" for r in records)
    tail_p = tail_percentile(attempted)
    raw = layer_self = None
    if tracer is None:
        (metrics, raw), units = end_to_end(records, rounds, tail_p, setups), END_TO_END
    else:
        (metrics, layer_self), units = tracer.metrics(rounds), PER_LAYER
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": dict(machine(), loadavg_start=load_start, loadavg_end=load_end),
        "rounds": rounds, "ops_per_round": len(ops), "tail_percentile": tail_p,
        "setup_probes_s": setups,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "raw_s": raw,
        "layer_self_s": layer_self, "trace_problems": problems, "ops": records,
        "correct": not problems and all(r["outcome"] != "wrong" for r in records),
        "attempted": attempted, "failed": attempted - ok,
    }
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n",
                                          encoding="utf-8")
    if tracer is not None:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=RESULTS,
                        help="directory for the results files (default: bench/results)")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.results)
                   for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": {}}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        print(f"# {r['workload']}: seed {r['seed']}, {r['rounds']} rounds of "
              f"{r['ops_per_round']} ops, tail = p{r['tail_percentile']}, "
              f"{r['attempted'] - r['failed']}/{r['attempted']} ok")
        for problem in r["trace_problems"]:
            print(f"# trace problem: {problem}")
        for name, metric in r["metrics"].items():
            print(f"{prefix}{name} = {metric['value']:.6g} {metric['unit']}")
            summary["metrics"][prefix + name] = metric
        for name, value in (r["raw_s"] or {}).items():
            print(f"# raw {prefix}{name} = {value:.6g} s")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
