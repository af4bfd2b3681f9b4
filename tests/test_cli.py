"""Command-line surface: payloads, exit codes, round trips."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import nlcoloring
from nlcoloring import cli
from nlcoloring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_gen_cycle(capsys):
    code, payload, _ = run_json(capsys, "gen", "--family", "cycle", "--n", "3")
    assert code == 0
    assert payload == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}


def test_gen_bad_family(capsys):
    # only the names of FAMILIES: no other case, underscore or run-together spelling
    for family in ("hypercube", "Cycle", "double_star", "doublestar"):
        code, _, err = run(capsys, "gen", "--family", family, "--n", "3", "--r", "1", "--s", "3")
        assert code == 2 and f"error: unknown family {family!r}" in err


@pytest.mark.parametrize("argv,message", [
    (["gen", "--family", "cycle", "--n", "5", "--k", "3"], "cycle takes no --k"),
    (["color", "--family", "double-star", "--r", "1", "--s", "3", "--n", "5", "--m", "4"],
     "double-star takes no --n or --m"),
    (["chi", "--family", "comb", "--m", "6", "--n", "7"], "comb takes no --n"),
    (["chi", "--graph", "{p3}", "--n", "7"], "--graph takes no --n"),
    (["chi", "--graph", "{p3}", "--exact", "--k", "4"], "--graph takes no --k"),
    (["color", "--graph", "{p3}", "--r", "1", "--s", "2"], "--graph takes no --r or --s"),
], ids=["gen", "color", "chi", "graph-chi", "graph-chi-exact", "graph-color"])
def test_family_parameters_not_taken_are_usage_errors(argv, message, tmp_path, capsys):
    # a parameter that the family does not take, or any with --graph (the
    # file fixes the graph), would be dropped in silence
    p3 = tmp_path / "p3.json"
    p3.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    code, out, err = run(capsys, *(a.format(p3=p3) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gen_without_family_is_a_usage_error(capsys):
    code, out, err = run(capsys, "gen")
    assert (code, out) == (2, "")
    assert "gen needs --family" in err and "Traceback" not in err


def test_gen_out_of_range(capsys):
    code, _, err = run(capsys, "gen", "--family", "cycle", "--n", "2")
    assert code == 2


def test_chi_family(capsys):
    code, payload, _ = run_json(capsys, "chi", "--family", "cycle", "--n", "23")
    assert code == 0 and payload == {"chi": 5}


def test_color_then_verify_roundtrip(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "color", "--family", "cycle", "--n", "9")
    assert code == 0
    graph_file = tmp_path / "g.json"
    cert_file = tmp_path / "c.json"
    graph_file.write_text(json.dumps(payload["graph"]))
    cert_file.write_text(json.dumps(payload["certificate"]))
    code, verdict, _ = run_json(capsys, "verify", "--graph", str(graph_file),
                                "--certificate", str(cert_file))
    assert code == 0 and verdict == {"ok": True}


def test_verify_bad_certificate_exits_1(tmp_path, capsys):
    graph_file = tmp_path / "c4.json"
    cert_file = tmp_path / "cert.json"
    graph_file.write_text('{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]]}')
    cert_file.write_text('{"n":4,"k":3,"colors":[1,2,1,3]}')
    code, verdict, _ = run_json(capsys, "verify", "--graph", str(graph_file),
                                "--certificate", str(cert_file))
    assert code == 1
    assert verdict["ok"] is False
    assert verdict["reason"] == "DuplicateSignature"
    assert len(verdict["witness"]) == 2


def test_verify_rejects_disconnected(tmp_path, capsys):
    graph_file = tmp_path / "bad.json"
    cert_file = tmp_path / "cert.json"
    graph_file.write_text('{"n":4,"edges":[[0,1]]}')
    cert_file.write_text('{"n":4,"k":4,"colors":[1,2,3,4]}')
    code, _, err = run(capsys, "verify", "--graph", str(graph_file),
                       "--certificate", str(cert_file))
    assert code == 2 and "connected" in err


@pytest.mark.parametrize("graph,message", [
    # n = m, so only the connectivity search sees that the triangles are apart
    ('{"n":6,"edges":[[0,1],[1,2],[0,2],[3,4],[4,5],[3,5]]}', "graph is not connected"),
    ('{"n":3,"edges":[[0,1],[1,2],[2,1]]}', "duplicate edge (1,2)"),
    ('{"n":2,"edges":[[0,1],[1,1]]}', "self-loop at vertex 1"),
], ids=["two-triangles", "duplicate-edge", "self-loop"])
@pytest.mark.parametrize("command", ["verify", "chi"])
def test_graph_refused_by_validation_is_a_usage_error(command, graph, message, tmp_path,
                                                      capsys):
    graph_file = tmp_path / "g.json"
    cert_file = tmp_path / "c.json"
    graph_file.write_text(graph)
    n = json.loads(graph)["n"]
    cert_file.write_text(json.dumps({"n": n, "k": n, "colors": list(range(1, n + 1))}))
    argv = {"verify": ["verify", "--graph", str(graph_file), "--certificate", str(cert_file)],
            "chi": ["chi", "--graph", str(graph_file), "--exact"]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_self_loop_from_stdin_is_a_usage_error(monkeypatch, capsys):
    # n <= m + 1, so only the self-loop check refuses the edge list
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 1\n"))
    code, out, err = run(capsys, "chi", "--graph", "-")
    assert (code, out, err) == (2, "", "error: -: self-loop at vertex 1\n")


@pytest.mark.parametrize("given", [[], ["--family", "cycle", "--n", "9", "--graph", "{p3}"]],
                         ids=["neither", "both"])
@pytest.mark.parametrize("command", ["color", "chi"])
def test_family_and_graph_exclude_each_other(command, given, tmp_path, capsys):
    p3 = tmp_path / "p3.json"
    p3.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    code, out, err = run(capsys, command, *(a.format(p3=p3) for a in given))
    message = f"{command} needs exactly one of --family or --graph"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_chi_family_exact_is_a_usage_error(capsys):
    # a family's value is the closed form; no solver runs on it
    code, out, err = run(capsys, "chi", "--family", "cycle", "--n", "23", "--exact")
    assert (code, out, err) == (
        2, "", "error: --exact applies to --graph input; family values are closed-form\n")


def test_chi_graph_without_exact_prints_the_lower_bound(tmp_path, capsys):
    code, out, err = run(capsys, "chi", "--graph", _cycle_file(tmp_path, 25))
    assert (code, out, err) == (0, '{\n  "chiLowerBound": 5\n}\n', "")


def test_chi_graph_lower_bound_peels_the_hub(tmp_path, capsys):
    # W30 is C29 under a universal vertex, and C29 needs 5 colors
    graph_file = tmp_path / "w30.json"
    graph_file.write_text(run(capsys, "gen", "--family", "wheel", "--n", "30")[1])
    code, out, err = run(capsys, "chi", "--graph", str(graph_file))
    assert (code, out, err) == (0, '{\n  "chiLowerBound": 6\n}\n', "")


def test_chi_exact_graph(tmp_path, capsys):
    graph_file = tmp_path / "c8.json"
    graph_file.write_text(
        json.dumps({"n": 8, "edges": [[i, (i + 1) % 8] for i in range(8)]}))
    code, payload, _ = run_json(capsys, "chi", "--graph", str(graph_file), "--exact")
    assert code == 0
    assert payload["chi"] == 4 and payload["status"] == "Exact"
    assert payload["certificate"]["k"] == 4


def test_chi_exact_capped_exits_1(tmp_path, capsys):
    graph_file = tmp_path / "star.json"
    graph_file.write_text(json.dumps({"n": 6, "edges": [[i, 5] for i in range(5)]}))
    code, payload, _ = run_json(capsys, "chi", "--graph", str(graph_file),
                                "--exact", "--max-k", "4")
    assert code == 1 and payload["status"] == "CappedOut"


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_chi_exact_cap_below_one_is_a_usage_error(cap, tmp_path, capsys):
    # no graph can meet the cap, so it is not a CappedOut verdict
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    code, out, err = run(capsys, "chi", "--graph", str(graph_file), "--exact", "--max-k", cap)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "max_k" in err and err.count("\n") == 1


def test_chi_exact_deep_path(tmp_path, capsys):
    # order 1100 lies past the interpreter's default recursion limit
    graph_file = tmp_path / "p1100.json"
    graph_file.write_text(json.dumps({"n": 1100, "edges": [[i, i + 1] for i in range(1099)]}))
    code, payload, err = run_json(capsys, "chi", "--graph", str(graph_file), "--exact")
    assert code == 0, err
    assert (payload["chi"], payload["status"]) == (14, "Exact")


@pytest.mark.parametrize("text,name", [
    ('{"n": 1000000000, "edges": [[0, 1]]}', "g.json"),
    ("0 1\n1 1000000000\n", "g.txt"),
], ids=["json", "edgelist"])
def test_graph_with_too_few_edges_is_rejected_cheaply(text, name, tmp_path, capsys):
    # n = 10**9 with two edges cannot be connected; it must be rejected
    # before anything of size n is built
    graph_file = tmp_path / name
    graph_file.write_text(text)
    code, out, err = run(capsys, "chi", "--graph", str(graph_file), "--exact")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not connected" in err


@pytest.mark.parametrize("flag", ["nan", "-1"], ids=["flag-nan", "flag-negative"])
@pytest.mark.parametrize("command", ["chi", "sweep"])
def test_budget_must_be_a_number_of_seconds(command, flag, tmp_path, capsys):
    # nan would never expire and a negative budget would act as 0
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    argv = {"chi": ["chi", "--graph", str(graph_file), "--exact"],
            "sweep": ["sweep", "--conjecture", "delta", "--max-n", "4"]}[command]
    code, out, err = run(capsys, *argv, f"--budget={flag}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err.lower() and err.count("\n") == 1


def _cycle_file(tmp_path, n):
    graph_file = tmp_path / f"c{n}.json"
    graph_file.write_text(
        json.dumps({"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]}))
    return str(graph_file)


def test_budget_zero_times_out(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "chi", "--graph", _cycle_file(tmp_path, 23),
                                "--exact", "--budget", "0")
    assert code == 1
    assert (payload["chi"], payload["status"]) == (None, "TimedOut")


@pytest.mark.parametrize("command", ["chi", "sweep"])
def test_no_parallel_flag(command, tmp_path):
    # exact searches and sweeps both run sequentially; the flag is a usage error
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    argv = {"chi": ["chi", "--graph", str(graph_file), "--exact"],
            "sweep": ["sweep", "--conjecture", "delta", "--max-n", "4"]}[command]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--parallel"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--pretty", "chi", "--family", "path", "--n", "10"],
    ["bounds", "--k", "6", "--class", "tree"],
], ids=["pretty", "bounds-class"])
def test_removed_flags_are_usage_errors(argv, capsys):
    # each result has one output format, and every class bound is in the payload
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_bounds_payload(capsys):
    code, payload, _ = run_json(capsys, "bounds", "--k", "6")
    assert code == 0
    assert list(payload) == ["k", "generalMaxOrder", "unicyclicMaxOrder", "treeMaxOrder",
                             "treeMaxDegree", "ell", "a1", "a2"]
    assert payload["generalMaxOrder"] == 186
    assert payload["ell"] == 90
    assert payload["treeMaxOrder"] == 118


def test_bounds_rejects_large_delta(capsys):
    code, _, err = run(capsys, "bounds", "--k", "4", "--delta", "4")
    assert code == 2


def test_bounds_k_up_to_the_cap_prints(capsys):
    k = cli.BOUNDS_MAX_K
    code, out, err = run(capsys, "bounds", "--k", str(k))
    assert code == 0, err
    general = json.loads(out)["generalMaxOrder"]
    assert general == k * (2 ** (k - 1) - 1)
    # the largest degree cap sums C(k-1, j) over 1 <= j <= k-1, which is
    # 2^(k-1) - 1, so the degree-bounded order equals the general one
    code, out, err = run(capsys, "bounds", "--k", str(k), "--delta", str(k - 1))
    assert code == 0, err
    assert json.loads(out)["degreeBoundedMaxOrder"] == general


@pytest.mark.parametrize("k", [cli.BOUNDS_MAX_K + 1, 10 ** 8], ids=["cap+1", "1e8"])
def test_bounds_k_above_the_cap_is_a_usage_error(k, capsys):
    # rejected before 2^(k-1) is built, so 10^8 is as quick as cap + 1
    code, out, err = run(capsys, "bounds", "--k", str(k))
    assert (code, out) == (2, "")
    assert f"--k must be at most {cli.BOUNDS_MAX_K}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--graph", "{bad}", "--certificate", "{good}"],
    ["verify", "--graph", "{good}", "--certificate", "{bad}"],
    ["export", "--input", "{bad}", "--to", "dot"],
], ids=["graph", "certificate", "export-input"])
def test_file_that_is_not_utf8_is_a_usage_error(argv, tmp_path, capsys):
    good = tmp_path / "p3.json"
    good.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n":3\xff}')
    code, out, err = run(capsys, *(a.format(good=good, bad=bad) for a in argv))
    assert (code, out) == (2, "")
    assert f"cannot read {bad}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["chi", "--graph", "{deep}"],
    ["verify", "--graph", "{good}", "--certificate", "{deep}"],
    ["export", "--input", "{deep}", "--to", "dot"],
], ids=["graph", "certificate", "export-input"])
def test_deeply_nested_json_is_a_usage_error(argv, tmp_path, capsys):
    # nesting past the decoder's recursion limit is bad input, not a fault
    good = tmp_path / "p3.json"
    good.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": ' + "[" * 100_000)
    code, out, err = run(capsys, *(a.format(good=good, deep=deep) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--family", "cycle", "--n", "23", "--max-k", "2"],
    ["--family", "cycle", "--n", "23", "--budget", "0"],
    ["--graph", "{p3}", "--max-k", "1"],
    ["--graph", "{p3}", "--budget", "5"],
], ids=["family-max-k", "family-budget", "graph-max-k", "graph-budget"])
def test_chi_caps_without_exact_are_usage_errors(argv, tmp_path, capsys):
    # without --exact no solver runs, so a cap would be dropped in silence
    p3 = tmp_path / "p3.json"
    p3.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    code, out, err = run(capsys, "chi", *(a.format(p3=p3) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--exact" in err and err.count("\n") == 1


def test_export_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--family", "comb", "--m", "4")
    graph_file = tmp_path / "comb.json"
    graph_file.write_text(out)
    code, edgelist, _ = run(capsys, "export", "--input", str(graph_file),
                            "--to", "edgelist")
    assert code == 0
    edge_file = tmp_path / "comb.txt"
    edge_file.write_text(edgelist)
    code, back, _ = run(capsys, "export", "--input", str(edge_file), "--to", "json")
    assert code == 0
    assert json.loads(back) == json.loads(out)


@pytest.mark.parametrize("argv", [
    ["color", "--graph", "{path}", "--format", "json"],
    ["verify", "--graph", "{path}", "--certificate", "{path}", "--format", "json"],
    ["chi", "--graph", "{path}", "--format", "edgelist"],
    ["export", "--input", "{path}", "--from", "json", "--to", "dot"],
], ids=["color", "verify", "chi", "export"])
def test_input_format_flags_are_gone(argv, tmp_path):
    # the content tells graph JSON (starts with "{") from an edge list
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    with pytest.raises(SystemExit) as excinfo:
        main([a.format(path=graph_file) for a in argv])
    assert excinfo.value.code == 2


def test_export_to_dot_on_stdout_and_to_a_file(tmp_path, capsys):
    graph_file = tmp_path / "p3.txt"
    graph_file.write_text("0 1\n1 2\n")
    dot = ('graph nl {\n  node [shape=circle, style=filled];\n'
           + "".join(f'  {v} [fillcolor="white"];\n' for v in range(3))
           + "  0 -- 1;\n  1 -- 2;\n}\n")
    assert run(capsys, "export", "--input", str(graph_file), "--to", "dot") == (0, dot, "")
    out_file = tmp_path / "p3.dot"
    code, out, err = run(capsys, "export", "--input", str(graph_file), "--to", "dot",
                         "--out", str(out_file))
    assert (code, out, err) == (0, "", "") and out_file.read_text() == dot


@pytest.mark.parametrize("argv", [
    ["sweep", "--conjecture", "delta", "--max-n", "4", "--report", "{out}"],
    ["color", "--family", "cycle", "--n", "9", "--dot", "{out}"],
    ["export", "--input", "{p3}", "--to", "json", "--out", "{out}"],
], ids=["report", "dot", "out"])
def test_unwritable_output_path_is_a_usage_error(argv, tmp_path, capsys):
    p3 = tmp_path / "p3.json"
    p3.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    out_path = tmp_path / "missing" / "result"
    code, out, err = run(capsys, *(a.format(p3=p3, out=out_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--conjecture", "delta", "--max-n", "4", "--report", "-"],
    ["color", "--family", "cycle", "--n", "9", "--dot", "-"],
    ["export", "--input", "{p3}", "--to", "edgelist", "--out", "-"],
], ids=["report", "dot", "out"])
def test_dash_as_an_output_path_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # '-' means stdin, so it names no output file, and no file called '-' is left
    p3 = tmp_path / "p3.json"
    p3.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(a.format(p3=p3) for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: cannot write -: '-' means stdin, for inputs only; give a file name\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["p3.json"]


def test_verify_refuses_stdin_for_both_inputs(monkeypatch, capsys):
    # stdin can be read once: the certificate would read it empty
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n":3,"edges":[[0,1],[1,2]]}'))
    code, out, err = run(capsys, "verify", "--graph", "-", "--certificate", "-")
    assert (code, out) == (2, "")
    assert err == "error: --graph and --certificate cannot both read stdin ('-')\n"
    assert sys.stdin.read() != ""  # refused before reading


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "file"])
def test_edgelist_export_of_a_graph_without_edges_is_refused(out, tmp_path, capsys):
    # the lone newline it would write is not an edge list that nlc reads back
    graph_file = tmp_path / "k1.json"
    graph_file.write_text('{"n": 1, "edges": []}')
    out_file = tmp_path / "k1.txt"
    argv = ["export", "--input", str(graph_file), "--to", "edgelist"]
    code, printed, err = run(capsys, *argv, *(["--out", str(out_file)] if out else []))
    assert (code, printed) == (2, "") and not out_file.exists()
    assert err == ("error: a graph without edges has no edge list; "
                   "export it with --to json\n")


P3_JSON = '{"n":3,"edges":[[0,1],[1,2]]}'


@pytest.mark.parametrize("graph,certificate,message", [
    ("0 1 2\n", None, "line 1: expected 'u v', got '0 1 2'"),
    ("# only a comment\n\n", None, "edge list is empty"),
    ('{"n":3}', None, "graph JSON needs integer 'n' and an 'edges' pair list"),
    ('{"n":3,"edges":[[0,1],[1,2]]', None, "invalid JSON at line 1"),
    (P3_JSON, '{"n":3,"k":2,"colors":[1,2]}', "certificate lists 2 colors for n=3 vertices"),
    (P3_JSON, '{"n":3,"k":3,"colors":[1,2,1]}', "every color 1..k must be used"),
    (P3_JSON, '{"n":2,"k":2,"colors":[1,2]}', "certificate covers 2 vertices, graph has 3"),
], ids=["three-ids", "only-comments", "json-without-edges", "invalid-json",
        "colors-not-n", "k-above-colors-used", "certificate-n-not-graph-n"])
def test_malformed_input_is_a_usage_error(graph, certificate, message, tmp_path, capsys):
    graph_file = tmp_path / "g"
    graph_file.write_text(graph)
    argv = ["chi", "--graph", str(graph_file)]
    if certificate is not None:
        cert_file = tmp_path / "c.json"
        cert_file.write_text(certificate)
        argv = ["verify", "--graph", str(graph_file), "--certificate", str(cert_file)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_json_with_leading_whitespace_is_read_as_json(tmp_path, capsys):
    graph_file = tmp_path / "p3.txt"
    graph_file.write_text('\n  {"n":3,"edges":[[0,1],[1,2]]}')
    code, out, _ = run(capsys, "export", "--input", str(graph_file), "--to", "edgelist")
    assert code == 0 and out == "0 1\n1 2\n"


@pytest.mark.parametrize("text", [
    "0 +1\n", "0 1\n1 0_2\n", "0 \u0661\n", "\uff10 \uff11\n", "0 -1\n", "0 1.0\n",
], ids=["plus-sign", "underscore", "arabic-indic-digit", "fullwidth-digits",
        "negative", "decimal-point"])
def test_export_rejects_non_decimal_edgelist_ids(text, tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "export", "--input", str(edge_file), "--to", "json")
    assert code == 2 and out == ""
    assert "vertex ids must be non-negative integers" in err


def test_identical_invocations_are_byte_identical(capsys):
    _, first, _ = run(capsys, "color", "--family", "wheel", "--n", "12")
    _, second, _ = run(capsys, "color", "--family", "wheel", "--n", "12")
    assert first == second


def test_color_dot_output(tmp_path, capsys):
    dot_file = tmp_path / "c9.dot"
    code, payload, _ = run_json(capsys, "color", "--family", "cycle", "--n", "9",
                                "--dot", str(dot_file))
    assert code == 0
    text = dot_file.read_text()
    assert text.startswith("graph nl {")
    assert '0 [label="0:1"' in text
    assert "0 -- 1;" in text


def test_color_tree_input(tmp_path, capsys):
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text("0 1\n1 2\n2 3\n3 4\n")
    code, payload, _ = run_json(capsys, "color", "--graph", str(graph_file))
    assert code == 0 and payload["certificate"]["k"] == 3


def test_color_rejects_cycle_graph_input(tmp_path, capsys):
    graph_file = tmp_path / "c5.txt"
    graph_file.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, _, err = run(capsys, "color", "--graph", str(graph_file))
    assert code == 2


def test_color_comb_requires_constructible_size(capsys):
    # k(k-1) for k = 3 and 4, the neighbours of 20, and sizes that a scan over
    # k up to m would take seconds or forever to reject
    for m in (6, 7, 12, 19, 21, 10**8 + 1, 10**300 + 1):
        code, out, err = run(capsys, "color", "--family", "comb", "--m", str(m))
        assert code == 2 and out == "" and "k(k-1)" in err
    code, payload, _ = run_json(capsys, "color", "--family", "comb", "--m", "20")
    assert code == 0 and payload["certificate"]["k"] == 5


def test_color_past_one_byte_colors_is_a_usage_error(capsys):
    # the cycle pipeline holds a color in one byte: cycles and paths of order
    # up to ell(255) = 8258175, fans and wheels one larger
    for family in ("cycle", "path", "wheel", "fan"):
        n = 8258176 if family in ("cycle", "path") else 8258177
        code, out, err = run(capsys, "color", "--family", family, "--n", str(n))
        assert (code, out) == (2, "") and "ell(255) = 8258175" in err


def test_color_comb_spine_size_maps_back_to_k(monkeypatch):
    monkeypatch.setattr(nlcoloring.construct, "comb_coloring", lambda k: k)
    for k in range(5, 201):
        assert nlcoloring.construct.family_coloring(nlcoloring.FamilySpec.comb(k * (k - 1))) == k


def test_sweep_writes_report(tmp_path, capsys):
    report_file = tmp_path / "delta.json"
    code, summary, _ = run_json(capsys, "sweep", "--conjecture", "delta",
                                "--max-n", "5", "--report", str(report_file))
    assert code == 0 and summary["holds"] is True
    report = json.loads(report_file.read_text())
    assert {"canonical", "n", "chi", "delta", "verdict"} <= set(report["instances"][0])


def test_sweep_out_of_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "--conjecture", "delta", "--max-n", "9",
                         "--budget", "1e-6")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("conjecture,max_n,message", [
    ("delta", "0", "delta sweep supports 1 <= max_n <= 12"),
    ("diameter", "1", "diameter sweep supports 2 <= max_n <= 7"),
], ids=["delta-0", "diameter-1"])
def test_sweep_order_out_of_range_is_a_usage_error(conjecture, max_n, message, capsys):
    code, out, err = run(capsys, "sweep", "--conjecture", conjecture, "--max-n", max_n)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_internal_fault_is_not_a_usage_error(monkeypatch, capsys):
    def fault(g, *, time_budget=None):
        raise RuntimeError("search produced an invalid witness")

    monkeypatch.setattr(nlcoloring.sweeps, "chi_nl_exact", fault)
    code, out, err = run(capsys, "sweep", "--conjecture", "delta", "--max-n", "4")
    assert code == 3 and out == ""
    assert "Traceback" in err and "invalid witness" in err


def test_chi_exact_internal_fault_exits_3(monkeypatch, tmp_path, capsys):
    # a verifier that rejects every witness trips the solver's own cross-check
    monkeypatch.setattr(nlcoloring.solver, "is_nl_coloring",
                        lambda g, c: SimpleNamespace(ok=False))
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    code, out, err = run(capsys, "chi", "--graph", str(graph_file), "--exact")
    assert code == 3 and out == ""
    assert "Traceback" in err and "invalid witness" in err


@pytest.mark.parametrize("command", ["chi", "sweep"])
def test_witness_that_skips_a_color_exits_3(command, monkeypatch, tmp_path, capsys):
    # the Coloring record refuses colors 1 and 3 without 2 with a ValueError,
    # which must stay a fault (3), not the usage error of a cap out of range
    monkeypatch.setattr(nlcoloring.solver, "_search",
                        lambda g, k, budget, schedule=None: (1, 3, 1)[:g.n])
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    argv = {"chi": ["chi", "--graph", str(graph_file), "--exact"],
            "sweep": ["sweep", "--conjecture", "delta", "--max-n", "4"]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "Traceback" in err and "invalid witness" in err


def test_color_construction_fault_exits_3(monkeypatch, capsys):
    # a build that fails its own verification is a fault, not a usage error
    def fault(n):
        raise nlcoloring.construct.ConstructionError("self-verification failed")

    monkeypatch.setattr(nlcoloring.construct, "cycle_coloring", fault)
    code, out, err = run(capsys, "color", "--family", "cycle", "--n", "30")
    assert code == 3 and out == ""
    assert "Traceback" in err and "self-verification failed" in err


@pytest.mark.parametrize("graph,certificate", [
    ('{"n":2,"edges":[[0,1]]}', '{"n":2,"k":2,"colors":[1.9,"2"]}'),
    ('{"n":2,"edges":[[0.7,"1"]]}', '{"n":2,"k":2,"colors":[1,2]}'),
    ('{"n":true,"edges":[]}', '{"n":1,"k":1,"colors":[1]}'),
], ids=["float-and-string-colors", "float-and-string-edge", "boolean-n"])
def test_verify_rejects_non_integer_json(graph, certificate, tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    cert_file = tmp_path / "cert.json"
    graph_file.write_text(graph)
    cert_file.write_text(certificate)
    code, out, err = run(capsys, "verify", "--graph", str(graph_file),
                         "--certificate", str(cert_file))
    assert code == 2 and out == ""
    assert "must be a JSON integer" in err


@pytest.mark.parametrize("n", [3, 4])
def test_color_small_star(n, capsys):
    # the family starts at order 3, where chi is n as at every order
    code, payload, err = run_json(capsys, "color", "--family", "star", "--n", str(n))
    assert code == 0, err
    assert payload["certificate"] == {"n": n, "k": n, "colors": list(range(1, n + 1))}
    assert run_json(capsys, "chi", "--family", "star", "--n", str(n))[1] == {"chi": n}


def test_color_graph_p4_is_refused(tmp_path, capsys):
    graph_file = tmp_path / "p4.json"
    graph_file.write_text('{"n":4,"edges":[[0,1],[1,2],[2,3]]}')
    code, out, err = run(capsys, "color", "--graph", str(graph_file))
    assert (code, out) == (2, "")
    assert "trees of order >= 5" in err


def test_path2_certificate_payload(capsys):
    code, payload, _ = run_json(capsys, "color", "--family", "path", "--n", "2")
    assert code == 0
    assert payload["certificate"] == {"n": 2, "k": 2, "colors": [1, 2]}


FAMILY_SAMPLES = [
    ("--family", "path", "--n", "14"),
    ("--family", "cycle", "--n", "24"),
    ("--family", "fan", "--n", "11"),
    ("--family", "wheel", "--n", "25"),
    ("--family", "comb", "--m", "20"),
    ("--family", "star", "--n", "6"),
    ("--family", "double-star", "--r", "2", "--s", "3"),
    ("--family", "unicyclic", "--k", "5"),
    ("--family", "caterpillar", "--k", "6"),
]


@pytest.mark.parametrize("family_args", FAMILY_SAMPLES, ids=lambda a: a[1])
def test_color_then_verify_all_families(family_args, tmp_path, capsys):
    code, payload, _ = run_json(capsys, "color", *family_args)
    assert code == 0
    graph_file = tmp_path / "g.json"
    cert_file = tmp_path / "c.json"
    graph_file.write_text(json.dumps(payload["graph"]))
    cert_file.write_text(json.dumps(payload["certificate"]))
    code, verdict, _ = run_json(capsys, "verify", "--graph", str(graph_file),
                                "--certificate", str(cert_file))
    assert code == 0 and verdict == {"ok": True}


@pytest.mark.parametrize("family_args", FAMILY_SAMPLES, ids=lambda a: a[1])
def test_export_json_to_edgelist_and_back(family_args, tmp_path, capsys):
    code, graph_json, _ = run(capsys, "gen", *family_args)
    assert code == 0
    json_file = tmp_path / "g.json"
    json_file.write_text(graph_json)
    edge_file = tmp_path / "g.txt"
    assert run(capsys, "export", "--input", str(json_file), "--to", "edgelist",
               "--out", str(edge_file)) == (0, "", "")
    code, back, _ = run(capsys, "export", "--input", str(edge_file), "--to", "json")
    assert code == 0 and json.loads(back) == json.loads(graph_json)


@pytest.mark.parametrize("family", ["cycle", "path", "fan", "wheel"])
def test_cold_large_color_then_verify(family, tmp_path):
    # a fresh interpreter has built nothing before; order 2000 lies past the
    # depth at which a recursive construction would exhaust the stack
    env = dict(os.environ, PYTHONPATH=str(Path(nlcoloring.__file__).resolve().parents[1]))
    nlc = [sys.executable, "-m", "nlcoloring.cli"]
    built = subprocess.run(nlc + ["color", "--family", family, "--n", "2000"],
                           capture_output=True, text=True, env=env, timeout=300)
    assert built.returncode == 0, built.stderr
    payload = json.loads(built.stdout)
    graph_file = tmp_path / "g.json"
    cert_file = tmp_path / "c.json"
    graph_file.write_text(json.dumps(payload["graph"]))
    cert_file.write_text(json.dumps(payload["certificate"]))
    checked = subprocess.run(nlc + ["verify", "--graph", str(graph_file),
                                    "--certificate", str(cert_file)],
                             capture_output=True, text=True, env=env, timeout=300)
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"ok": True}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_version_prints_the_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"nlc {nlcoloring.__version__}\n" == "nlc 0.1.0\n"


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("gen", "color", "verify", "chi", "bounds", "sweep", "export"):
        assert command in out


def test_command_help_names_each_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chi", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for option in ("--family", "--n", "--m", "--r", "--s", "--k", "--graph", "--exact",
                   "--max-k", "--budget"):
        assert option in out


@pytest.mark.parametrize("graph_args", [["--graph", "{g}"], ["--graph={g}"]],
                         ids=["separate", "equals"])
def test_option_prefixes_and_inline_values(graph_args, tmp_path, capsys):
    code, payload, _ = run_json(capsys, "color", "--family", "cycle", "--n", "9")
    graph_file = tmp_path / "g.json"
    cert_file = tmp_path / "c.json"
    graph_file.write_text(json.dumps(payload["graph"]))
    cert_file.write_text(json.dumps(payload["certificate"]))
    argv = [a.format(g=graph_file) for a in graph_args]
    code, verdict, _ = run_json(capsys, "verify", *argv, "--cert", str(cert_file))
    assert code == 0 and verdict == {"ok": True}


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "cycle", "--n", "x"],
    ["bounds"],
    ["sweep", "--conjecture", "girth", "--max-n", "4"],
    ["chi", "--family", "cycle", "--n", "5", "stray"],
    [],
], ids=["bad-int", "missing-required", "bad-choice", "positional", "no-arguments"])
def test_parser_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err
