"""Self-tests of the benchmark: seeded inputs, repeatable counts, span arithmetic.

Run from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

WORK = run.BENCH / ".work"


def inputs(workload: str, seed: int, name: str) -> tuple[list, dict]:
    """Op lists (work directory blanked out) and input file bytes."""
    workdir = WORK / f"selftest-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = make_ops(workload, seed, workdir)
        listing = [str(op.to_dict()).replace(str(workdir), "<work>") for op in ops]
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return listing, files


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(inputs(workload, 11, "a"), inputs(workload, 11, "b"))

    def test_other_seed_gives_other_inputs(self):
        for workload in ("exact", "certify"):
            with self.subTest(workload=workload):
                self.assertNotEqual(inputs(workload, 11, "a"), inputs(workload, 12, "b"))

    def test_sweep_ignores_the_seed(self):
        self.assertEqual(inputs("sweep", 11, "a"), inputs("sweep", 12, "b"))


def summary(seed: int, results: Path) -> dict:
    """One short untraced exact run in a child process, so its CPU pinning
    stays there; its results file goes to ``results``."""
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "exact", "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--results", str(results)],
        capture_output=True, text=True, check=True, cwd=run.ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


class RepeatableCounts(unittest.TestCase):
    def test_same_seed_repeats_solver_nodes_and_ok_rate(self):
        results = WORK / "selftest-results"
        try:
            first, second = summary(11, results), summary(11, results)
        finally:
            shutil.rmtree(results, ignore_errors=True)
        for name in ("solver_nodes", "ok_rate"):
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"])
        self.assertTrue(first["correct"] and second["correct"])
        self.assertEqual(first["metrics"]["ok_rate"]["value"], 1.0)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
            {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
        ]
        self.assertEqual(run.self_times(spans), {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(45), 77)
        self.assertEqual(run.tail_percentile(10), 100)
        values = [float(i) for i in range(1, 46)]
        beyond = [v for v in values if v > run.nearest_rank(values, run.tail_percentile(45))]
        self.assertGreaterEqual(len(beyond), 10)


if __name__ == "__main__":
    unittest.main()
