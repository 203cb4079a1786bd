import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dtwmedian
from dtwmedian.bicriteria import bicriteria_klmedian
from dtwmedian.cli import main
from dtwmedian.curves import gen_synthetic, load_curves, load_weighted, save_curves


def run_module(*args):
    """Run ``python -m dtwmedian.cli`` in a child that imports this package."""
    src = str(Path(dtwmedian.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dtwmedian.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.jsonl"
    save_curves(gen_synthetic(2, 8, 5, 2, 0.4, 3), path)
    return path


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def test_gen_writes_file(runner, tmp_path):
    out = tmp_path / "g.jsonl"
    text = invoke(
        runner,
        ["gen", "--clusters", "2", "--per-cluster", "3", "--m", "4", "--d", "1",
         "--noise", "0.1", "--seed", "5", "--output", str(out)],
    )
    assert json.loads(text)["curves"] == 6
    assert len(load_curves(out)) == 6


def test_gen_stdout_equals_the_output_file(runner, tmp_path):
    args = ["gen", "--clusters", "2", "--per-cluster", "3", "--m", "4", "--seed", "5"]
    out = tmp_path / "g.jsonl"
    invoke(runner, args + ["--output", str(out)])
    assert invoke(runner, args) == out.read_text(encoding="utf-8")


def test_dtw_command(runner, tmp_path):
    fa, fb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    fa.write_text('{"id":"a","points":[[0.0]]}\n')
    fb.write_text('{"id":"b","points":[[3.0]]}\n')
    doc = json.loads(invoke(runner, ["dtw", "--p", "1", str(fa), str(fb)]))
    assert doc["dtw"] == 3.0
    assert doc["traversal"] == [[0, 0]]
    doc = json.loads(
        invoke(runner, ["dtw", "--p", "1", "--eps", "0.5", str(fa), str(fb)])
    )
    assert 3.0 < doc["adtw"]["value"] <= 4.5


def test_simplify_command(runner, data_file, tmp_path):
    out = tmp_path / "s.jsonl"
    invoke(
        runner,
        ["simplify", "--ell", "2", "--p", "1", "--method", "two-approx",
         str(data_file), "--output", str(out)],
    )
    simplified = load_curves(out)
    assert len(simplified) == 16
    assert all(c.complexity <= 2 for c in simplified)
    # eps1 reads no accuracy parameter, so simplify takes none
    result = runner.invoke(main, ["simplify", "--ell", "2", "--eps", "0.1", str(data_file)])
    assert result.exit_code == 2


def test_closure_command_csv(runner, tmp_path):
    f = tmp_path / "c.jsonl"
    f.write_text('{"id":"a","points":[[0.0]]}\n{"id":"b","points":[[5.0]]}\n')
    out = invoke(runner, ["closure", "--p", "1", "--format", "csv", str(f)])
    lines = out.strip().splitlines()
    assert lines[0] == "id,a,b"
    assert lines[1].startswith("a,0.0,5.0")


def test_bicriteria_command_writes_artifacts(runner, data_file, tmp_path):
    base = tmp_path / "run.out"
    doc = json.loads(
        invoke(
            runner,
            ["bicriteria", "--k", "2", "--ell", "2", "--p", "1", "--eps", "0.5",
             "--seed", "4", str(data_file), "--output", str(base)],
        )
    )
    centers = load_curves(doc["centers"])
    assert 1 <= len(centers) <= 8
    lines = open(doc["assignment"]).read().strip().splitlines()
    assert lines[0] == "curve_id,center_index,distance"
    assert len(lines) == 17


def test_bicriteria_command_stdout(runner, data_file):
    doc = json.loads(
        invoke(runner, ["bicriteria", "--k", "2", "--ell", "2", "--seed", "4", str(data_file)])
    )
    sol = bicriteria_klmedian(load_curves(data_file), 2, 2, 1.0, 0.5, 4, 3)
    assert doc["assignment"] == sol.assignment.tolist()
    assert doc["k_hat"] == sol.k_hat and doc["cost"] == sol.cost
    assert [c["id"] for c in doc["centers"]] == [c.id for c in sol.centers]


def test_coreset_command_deterministic(runner, data_file, tmp_path):
    out = tmp_path / "w.jsonl"
    args = ["coreset", "--k", "2", "--ell", "2", "--p", "1", "--eps", "0.5",
            "--delta", "0.2", "--seed", "9", "--size", "10",
            str(data_file), "--output", str(out)]
    doc = json.loads(invoke(runner, args))
    assert doc["entries"] == 10
    assert doc["report"]["sample_size"] >= 1
    first = out.read_bytes()
    invoke(runner, args)
    assert out.read_bytes() == first
    ws = load_weighted(out)
    assert len(ws) == 10 and np.all(ws.weights > 0)


def test_cluster_command_json_and_csv(runner, data_file):
    args = ["cluster", "--k", "2", "--ell", "2", "--p", "1", "--eps", "0.5",
            "--seed", "2", "--repetitions", "1", str(data_file)]
    doc = json.loads(invoke(runner, args))
    assert doc["config"]["k"] == 2
    assert len(doc["centers"]) == 2
    assert len(doc["assignment"]) == 16
    assert "timings" in doc and doc["cost"] >= 0
    csv_out = invoke(runner, args + ["--format", "csv"])
    assert csv_out.splitlines()[0] == "curve_id,center_index,distance"


def test_cluster_exact_route_command(runner, data_file):
    doc = json.loads(
        invoke(
            runner,
            ["cluster-exact-route", "--k", "2", "--ell", "2", "--method", "eps1",
             "--eps", "0.5", str(data_file)],
        )
    )
    assert len(doc["centers"]) == 2


def test_cluster_exact_route_reports_what_it_uses(runner, data_file):
    doc = json.loads(
        invoke(runner, ["cluster-exact-route", "--k", "2", "--ell", "2", str(data_file)])
    )
    assert list(doc["config"]) == ["k", "ell", "p", "eps", "method", "seed"]
    assert doc["config"]["method"] == "two-approx"
    cluster = json.loads(
        invoke(runner, ["cluster", "--k", "2", "--ell", "2", "--repetitions", "1", str(data_file)])
    )
    assert set(cluster["config"]) >= {"delta", "size_override", "sample_constant", "repetitions"}


def test_stdout_equals_the_output_file(runner, data_file, tmp_path):
    centers = tmp_path / "centers.jsonl"
    save_curves(list(load_curves(data_file))[:2], centers)
    commands = [
        ["simplify", "--ell", "2", str(data_file)],
        ["closure", "--format", "csv", str(data_file)],
        ["closure", str(data_file)],
        ["eval", "--centers", str(centers), "--format", "csv", str(data_file)],
        ["eval", "--centers", str(centers), str(data_file)],
        ["cluster", "--k", "2", "--ell", "2", "--repetitions", "1", "--format", "csv", str(data_file)],
        ["cluster-exact-route", "--k", "2", "--ell", "2", "--format", "csv", str(data_file)],
        ["dtw", str(data_file), str(centers)],
    ]
    out = tmp_path / "out"
    for args in commands:
        stdout = runner.invoke(main, args, catch_exceptions=False).stdout_bytes
        invoke(runner, args + ["--output", str(out)])
        assert stdout == out.read_bytes(), args
        assert stdout.endswith(b"\n") and not stdout.endswith(b"\n\n"), args


def test_eval_command(runner, data_file, tmp_path):
    centers = tmp_path / "centers.jsonl"
    save_curves(list(load_curves(data_file))[:2], centers)
    doc = json.loads(
        invoke(runner, ["eval", "--p", "1", "--centers", str(centers), str(data_file)])
    )
    assert doc["cost"] >= 0
    assert len(doc["per_center"]) == 2


def _csv_rows(text):
    return [row for row in csv.reader(text.splitlines()) if row]


def test_csv_cells_are_quoted(runner, tmp_path):
    ids = ["a,b", 'say "c"']
    f = tmp_path / "odd.jsonl"
    f.write_text("".join(json.dumps({"id": i, "points": [[v]]}) + "\n" for i, v in zip(ids, [0.0, 5.0])))
    closure = _csv_rows(invoke(runner, ["closure", "--format", "csv", str(f)]))
    assert closure[0] == ["id", *ids]
    assert [row[0] for row in closure[1:]] == ids
    cluster = invoke(
        runner, ["cluster", "--k", "1", "--ell", "1", "--repetitions", "1", "--format", "csv", str(f)]
    )
    assert [row[0] for row in _csv_rows(cluster)[1:]] == ids
    evaluation = invoke(runner, ["eval", "--centers", str(f), "--format", "csv", str(f)])
    assert [row[1] for row in _csv_rows(evaluation)[1:]] == ids


def test_dtw_invalid_eps_exits_2(tmp_path):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[[0.0]]}\n')
    proc = run_module("dtw", "--eps", "abc", str(f), str(f))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_dtw_on_a_file_with_no_curves_exits_2(tmp_path):
    f, empty = tmp_path / "a.jsonl", tmp_path / "empty.jsonl"
    f.write_text('{"id":"a","points":[[0.0]]}\n')
    empty.write_text("")
    for args in ((f, empty), (empty, f)):
        proc = run_module("dtw", *map(str, args))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "no curves" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_a_malformed_jsonl_exits_2(tmp_path):
    f = tmp_path / "f.jsonl"
    for record in (
        '{"id":"a","points":[[0,1],[2]]}',
        '{"id":"a","points":[["x",1]]}',
        '{"id":"a","points":[[0,1]],"weight":"heavy"}',
    ):
        f.write_text(record + "\n")
        proc = run_module("simplify", "--ell", "1", str(f))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 1: curve 'a'")
        assert "Traceback" not in proc.stderr


def test_eps1_rejects_p_other_than_one(data_file):
    for command in (["simplify"], ["cluster-exact-route", "--k", "2"]):
        proc = run_module(*command, "--ell", "2", "--method", "eps1", "--p", "2", str(data_file))
        assert proc.returncode == 2
        assert "p = 1" in proc.stderr


# every option of every command, so a shared decorator cannot drop one unnoticed
COMMAND_OPTIONS = {
    "bicriteria": ["--k", "--ell", "--p", "--eps", "--repetitions", "--output", "--seed"],
    "closure": ["--p", "--output", "--format"],
    "cluster": [
        "--k", "--ell", "--p", "--eps", "--delta", "--size", "--constant", "--repetitions",
        "--output", "--seed", "--format",
    ],
    "cluster-exact-route": [
        "--k", "--ell", "--p", "--eps", "--method", "--output", "--seed", "--format",
    ],
    "coreset": ["--k", "--ell", "--p", "--eps", "--delta", "--size", "--constant", "--output", "--seed"],
    "dtw": ["--p", "--eps", "--output"],
    "eval": ["--p", "--centers", "--output", "--format"],
    "gen": ["--clusters", "--per-cluster", "--m", "--d", "--noise", "--output", "--seed"],
    "simplify": ["--ell", "--p", "--method", "--output"],
}


def test_every_command_lists_its_options(runner):
    assert sorted(main.commands) == sorted(COMMAND_OPTIONS)
    for name, options in COMMAND_OPTIONS.items():
        text = invoke(runner, [name, "--help"])
        listed = re.findall(r"(?<![\w-])--[a-z][\w-]*", text)
        assert sorted(set(listed) - {"--help"}) == sorted(options), name


def test_exit_code_validation_error(tmp_path):
    f = tmp_path / "one.jsonl"
    f.write_text('{"id":"a","points":[[0.0]]}\n')
    proc = run_module("cluster", "--k", "5", "--ell", "1", str(f))
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()
    # the closure of one curve has no pair to evaluate, and p is still checked
    proc = run_module("closure", "--p", "0.5", str(f))
    assert proc.returncode == 2
    assert "p must be >= 1" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["simplify", "--ell", "3"], ["dtw"]])
def test_an_infinite_p_exits_2(data_file, command):
    # p = inf used to simplify every curve to one point and exit 0
    files = [str(data_file)] * (2 if command == ["dtw"] else 1)
    proc = run_module(*command, "--p", "inf", *files)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: p must be >= 1 and finite")
    assert "Traceback" not in proc.stderr


def test_bicriteria_without_repetitions_exits_2(data_file):
    proc = run_module("bicriteria", "--k", "2", "--ell", "2", "--repetitions", "0", str(data_file))
    assert proc.returncode == 2
    assert "repetitions" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("eps", ["0", "-0.5", "1.0", "nan"])
def test_bicriteria_eps_outside_the_open_unit_interval_exits_2(data_file, eps):
    proc = run_module("bicriteria", "--k", "2", "--ell", "2", "--eps", eps, str(data_file))
    assert proc.returncode == 2
    assert "error: eps must lie in (0, 1)" in proc.stderr and "Traceback" not in proc.stderr


def test_exit_code_parse_error(tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text("not json\n")
    proc = run_module("closure", str(f))
    assert proc.returncode == 2


def test_exit_code_resource_guard(tmp_path):
    # the closure size guard fires before any distance work
    f = tmp_path / "huge.jsonl"
    with open(f, "w") as fh:
        for i in range(20001):
            fh.write('{"id":"c%d","points":[[%d.0]]}\n' % (i, i))
    proc = run_module("closure", str(f))
    assert proc.returncode == 3
    assert "guard" in proc.stderr.lower()
