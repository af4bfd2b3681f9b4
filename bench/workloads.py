"""Seeded inputs, operation lists and output checks for the benchmark workloads.

Every input reaches ``nlc`` as a file the benchmark writes from its seed; the
program never sees the seed.  Each operation carries what its check needs, so
``Checker.check`` can decide from the op and the program's output alone whether
the answer is right.

Workloads (see README.md for the layer map and the defects kept visible):

* ``exact``: ``chi --exact`` on C23 (a pure refutation of k = 4), on two
  fixed order-20 graphs and on a seeded batch of small random trees and
  unicyclic graphs (pure witness search, lower bound = chi = 4).
* ``sweep``: both exhaustive conjecture sweeps, plus closed-form spot checks
  of the solver at the sweep universes' caps.  The sweeps are exhaustive, so
  the seed is unused and every seed gives the same inputs.
* ``certify``: family constructions at seeded orders, each followed by
  ``verify`` on the emitted certificate, ``verify`` on failing 3-periodic
  certificates of C_{3m}, and fixed small exact cross-checks.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("exact", "sweep", "certify")

# Random instances are small enough that each solve (at most ~60k nodes)
# stays below the cost of starting nlc: their share of solver_nodes and of
# the latency percentiles then barely moves from seed to seed.  Orders
# 18-22 ranged from 0.1k to 1.5M nodes and moved both by a fifth.
EXACT_ORDERS = (13, 14)
EXACT_MAX_DEGREE = 4
EXACT_TREES = 4
EXACT_UNICYCLIC = 4
# Two fixed order-20 witness searches (chi = lower bound = 4; 180,894 and
# 105,224 nodes), generated from fixed seeds.  Four rounds of C23 and of
# these put the tail percentile, ten operations below the top, on them.
EXACT_ANCHORS = (("tree", 4), ("unicyclic", 1))
EXACT_ANCHOR_ORDER = 20

SWEEPS = (("delta", 11, 436), ("diameter", 7, 995))
# closed-form spot checks at the sweep universes' caps
SWEEP_SPOTS = (("path", 11), ("cycle", 7), ("fan", 7), ("wheel", 7))

# Each family draws its order from its own narrow stratum, so every seed
# builds constructions of about the same cost; wide strata let a single
# operation move a run's time and peak RSS by a quarter from seed to seed.
# The largest order a cold `python -m nlcoloring.cli color` builds today is
# 1524; from 1525 the recursive cycle pipeline raises RecursionError.
# The tail percentile falls on the wheel build or the larger failing verify
# below, both quadratic in the order, so their strata are the narrowest.
CERTIFY_STRATA = {"fan": (450, 550), "path": (700, 800), "wheel": (1000, 1020),
                  "cycle": (1150, 1200)}
CERTIFY_K_FAMILIES = ("comb", "unicyclic", "caterpillar")
CERTIFY_K_RANGE = (6, 9)
# failing 3-periodic certificates on C_{3m}, one order per stratum; the
# larger one costs about as much as the wheel build and the smaller one
# much less, so the tail percentile stays on one of those two
CERTIFY_FAILING_STRATA = ((2000, 2400), (5100, 5180))
CERTIFY_SPOTS = (("cycle", 12), ("wheel", 10))


@dataclass
class Op:
    """One ``nlc`` invocation and what its output must satisfy."""

    name: str
    kind: str  # chi | sweep | color | verify
    argv: list[str]
    expect: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "argv": self.argv,
                "expect": self.expect}


# ---------------------------------------------------------------------------
# graphs, with the vertex numbering of nlcoloring.graphs.family_graph

def family_edges(family: str, n: int) -> list[tuple[int, int]]:
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if family == "fan":
        return [(i, i + 1) for i in range(n - 2)] + [(i, n - 1) for i in range(n - 1)]
    if family == "wheel":
        return ([(i, (i + 1) % (n - 1)) for i in range(n - 1)]
                + [(i, n - 1) for i in range(n - 1)])
    raise ValueError(f"no edge rule for family {family!r}")


def graph_dict(n: int, edges) -> dict:
    return {"n": n, "edges": sorted([min(u, v), max(u, v)] for u, v in edges)}


def random_tree(rng: random.Random, n: int, max_degree: int) -> list[tuple[int, int]]:
    """Uniform labeled tree with maximum degree at most max_degree (Pruefer
    sequences, rejecting those that give a vertex too many neighbours)."""
    while True:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        if max(degree) <= max_degree:
            break
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_unicyclic(rng: random.Random, n: int, max_degree: int) -> list[tuple[int, int]]:
    """A random tree plus one chord, keeping the maximum degree bound."""
    edges = random_tree(rng, n, max_degree)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    while True:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in present and degree[u] < max_degree and degree[v] < max_degree:
            return edges + [(u, v)]


# ---------------------------------------------------------------------------
# operation lists

class InputWriter:
    """Writes the input files of one workload into a work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def write(self, name: str, payload: dict) -> str:
        target = self.workdir / name
        target.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        return str(target)


def _chi_op(w: InputWriter, name: str, n: int, edges, expect: dict) -> Op:
    path = w.write(f"{name}.graph.json", graph_dict(n, edges))
    return Op(name, "chi", ["chi", "--graph", path, "--exact"], expect)


def exact_ops(seed: int, w: InputWriter) -> list[Op]:
    rng = random.Random(f"exact:{seed}")
    ops = [_chi_op(w, "c23", 23, family_edges("cycle", 23),
                   {"family": ["cycle", 23]})]
    for kind, index in EXACT_ANCHORS:
        make = random_tree if kind == "tree" else random_unicyclic
        edges = make(random.Random(f"anchor-{kind}:{index}"), EXACT_ANCHOR_ORDER,
                     EXACT_MAX_DEGREE)
        ops.append(_chi_op(w, f"anchor-{kind}", EXACT_ANCHOR_ORDER, edges, {}))
    for i in range(EXACT_TREES):
        n = rng.randint(*EXACT_ORDERS)
        ops.append(_chi_op(w, f"tree{i}", n, random_tree(rng, n, EXACT_MAX_DEGREE), {}))
    for i in range(EXACT_UNICYCLIC):
        n = rng.randint(*EXACT_ORDERS)
        ops.append(_chi_op(w, f"unicyclic{i}", n,
                           random_unicyclic(rng, n, EXACT_MAX_DEGREE), {}))
    return ops


def sweep_ops(seed: int, w: InputWriter) -> list[Op]:
    del seed  # the sweeps are exhaustive
    ops = []
    for conjecture, max_n, instances in SWEEPS:
        report = w.path(f"{conjecture}.report.json")
        ops.append(Op(f"sweep-{conjecture}", "sweep",
                      ["sweep", "--conjecture", conjecture, "--max-n", str(max_n),
                       "--report", report],
                      {"conjecture": conjecture, "maxN": max_n,
                       "instances": instances, "report": report}))
    for family, n in SWEEP_SPOTS:
        ops.append(_chi_op(w, f"{family}{n}", n, family_edges(family, n),
                           {"family": [family, n]}))
    return ops


def certify_ops(seed: int, w: InputWriter) -> list[Op]:
    rng = random.Random(f"certify:{seed}")
    ops: list[Op] = []

    def color_then_verify(name: str, args: list[str], expect: dict) -> None:
        graph, cert = w.path(f"{name}.graph.json"), w.path(f"{name}.cert.json")
        ops.append(Op(name, "color", ["color"] + args,
                      dict(expect, graph_out=graph, cert_out=cert)))
        ops.append(Op(f"{name}-verify", "verify",
                      ["verify", "--graph", graph, "--certificate", cert], {"ok": True}))

    for family, (lo, hi) in CERTIFY_STRATA.items():
        n = rng.randint(lo, hi)
        color_then_verify(f"{family}{n}", ["--family", family, "--n", str(n)],
                          {"family": [family, n]})
    for family in CERTIFY_K_FAMILIES:
        k = rng.randint(*CERTIFY_K_RANGE)
        args = (["--family", "comb", "--m", str(k * (k - 1))] if family == "comb"
                else ["--family", family, "--k", str(k)])
        color_then_verify(f"{family}{k}", args, {"family": [family, k], "k": k})
    for lo, hi in CERTIFY_FAILING_STRATA:
        n = 3 * rng.randint((lo + 2) // 3, hi // 3)
        graph = w.write(f"c{n}-periodic.graph.json", graph_dict(n, family_edges("cycle", n)))
        cert = w.write(f"c{n}-periodic.cert.json",
                       {"n": n, "k": 3, "colors": [1 + v % 3 for v in range(n)]})
        ops.append(Op(f"c{n}-periodic-verify", "verify",
                      ["verify", "--graph", graph, "--certificate", cert],
                      {"ok": False, "reason": "DuplicateSignature", "witness": [0, 3]}))
    for family, n in CERTIFY_SPOTS:
        ops.append(_chi_op(w, f"{family}{n}-exact", n, family_edges(family, n),
                           {"family": [family, n]}))
    return ops


OP_LISTS = {"exact": exact_ops, "sweep": sweep_ops, "certify": certify_ops}


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    return OP_LISTS[workload](seed, InputWriter(workdir))


# ---------------------------------------------------------------------------
# checks

class Checker:
    """Checks outputs with the program's own verifier and closed forms.

    Imported lazily: the checks run after nlcoloring was found on the path.
    """

    def __init__(self):
        from nlcoloring import FamilySpec, chi_closed_form, chi_lower_bound, is_nl_coloring
        from nlcoloring import formats

        self.FamilySpec = FamilySpec
        self.chi_closed_form = chi_closed_form
        self.chi_lower_bound = chi_lower_bound
        self.is_nl_coloring = is_nl_coloring
        self.formats = formats

    def closed_form(self, family: str, n: int) -> int:
        return self.chi_closed_form(self.FamilySpec(family, (n,)))

    def check(self, op: Op, code: int, stdout: str) -> tuple[str, dict]:
        """Return (outcome, facts): outcome is ok, failed (crash or
        unexpected exit code) or wrong (parsed output that is incorrect)."""
        expected_code = 1 if op.kind == "verify" and op.expect.get("ok") is False else 0
        if code != expected_code:
            return "failed", {"error": f"exit code {code}, expected {expected_code}"}
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return "failed", {"error": "output is not JSON"}
        try:
            facts = getattr(self, f"_check_{op.kind}")(op, payload)
        except (KeyError, TypeError, ValueError, self.formats.FormatError) as exc:
            return "wrong", {"error": f"{type(exc).__name__}: {exc}"}
        if "error" in facts:
            return "wrong", facts
        return "ok", facts

    def _check_chi(self, op: Op, payload: dict) -> dict:
        graph = self.formats.graph_from_json(Path(op.argv[2]).read_text(encoding="utf-8"))
        if payload["status"] != "Exact":
            return {"error": f"status {payload['status']}"}
        chi, nodes = payload["chi"], payload["nodesExplored"]
        cert = self.formats.certificate_from_dict(payload["certificate"])
        verdict = self.is_nl_coloring(graph, cert)
        if not verdict.ok or cert.k != chi:
            return {"error": f"certificate does not verify with {chi} colors: {verdict}"}
        lower = self.chi_lower_bound(graph)
        if chi < lower:
            return {"error": f"chi {chi} below the lower bound {lower}"}
        if "family" in op.expect and chi != self.closed_form(*op.expect["family"]):
            return {"error": f"chi {chi} differs from the closed form"}
        return {"chi": chi, "nodes": nodes, "lower": lower, "n": graph.n}

    def _check_sweep(self, op: Op, payload: dict) -> dict:
        expect = op.expect
        if payload["holds"] is not True or payload["counterexamples"]:
            return {"error": "the conjecture does not hold"}
        if payload["conjecture"] != expect["conjecture"] or payload["maxN"] != expect["maxN"]:
            return {"error": "summary describes another sweep"}
        report = json.loads(Path(expect["report"]).read_text(encoding="utf-8"))
        records = report["instances"]
        if len(records) != expect["instances"]:
            return {"error": f"{len(records)} instances, expected {expect['instances']}"}
        if not all(r["verdict"] is True for r in records):
            return {"error": "an instance record fails the conjecture"}
        return {"instances": len(records), "chis": [r["chi"] for r in records]}

    def _check_color(self, op: Op, payload: dict) -> dict:
        family, param = op.expect["family"]
        graph = self.formats.graph_from_dict(payload["graph"])
        cert = self.formats.certificate_from_dict(payload["certificate"])
        verdict = self.is_nl_coloring(graph, cert)
        if not verdict.ok:
            return {"error": f"certificate does not verify: {verdict}"}
        if family in CERTIFY_STRATA:
            if payload["graph"] != graph_dict(param, family_edges(family, param)):
                return {"error": "emitted graph is not the family graph"}
            if cert.k != self.closed_form(family, param):
                return {"error": f"{cert.k} colors, closed form differs"}
        elif cert.k != op.expect["k"]:
            return {"error": f"{cert.k} colors, expected {op.expect['k']}"}
        Path(op.expect["graph_out"]).write_text(json.dumps(payload["graph"]) + "\n",
                                                encoding="utf-8")
        Path(op.expect["cert_out"]).write_text(json.dumps(payload["certificate"]) + "\n",
                                               encoding="utf-8")
        return {"k": cert.k, "n": graph.n}

    def _check_verify(self, op: Op, payload: dict) -> dict:
        expect = op.expect
        if payload["ok"] is not expect["ok"]:
            return {"error": f"verdict {payload['ok']}, expected {expect['ok']}"}
        if not expect["ok"] and (payload["reason"] != expect["reason"]
                                 or payload["witness"] != expect["witness"]):
            return {"error": f"{payload['reason']} at {payload['witness']}"}
        return {"ok": payload["ok"]}
