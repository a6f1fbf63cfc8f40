"""End-to-end command-line checks: piping, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spn.circuit import deserialize, serialize

from genutil import incomplete_valid_fixture

# the CLI child imports the package from src/ without PYTHONPATH or an install
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "spn.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc


def test_builtin_equal_pipes_into_rank():
    built = run_cli(["builtin", "equal", "--n", "8"])
    assert built.returncode == 0
    ranked = run_cli(["rank", "--partition", "first-half"], stdin=built.stdout)
    assert ranked.returncode == 0
    report = json.loads(ranked.stdout)
    assert report["rank"] == 16
    assert report["version"]
    assert report["config"]["partition"] == "first-half"


def test_sptree_count_cayley():
    proc = run_cli(["sptree", "count", "--m", "5"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 125


def test_sptree_count_with_forced_edges():
    proc = run_cli(["sptree", "count", "--m", "4", "--present", "0"])
    assert json.loads(proc.stdout)["count"] == 8


def test_check_on_incomplete_fixture():
    text = serialize(incomplete_valid_fixture())
    proc = run_cli(["check"], stdin=text)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["decomposable"] is False
    assert report["complete"] is False
    assert report["brute_force_valid"] is True
    assert report["set_multilinear"] is False


def test_check_reports_are_byte_identical():
    text = serialize(incomplete_valid_fixture())
    a = run_cli(["check"], stdin=text).stdout
    b = run_cli(["check"], stdin=text).stdout
    assert a == b


def test_cnf2spn_round_trip_and_check():
    dimacs = "p cnf 1 2\n1 0\n-1 0\n"
    compiled = run_cli(["cnf2spn"], stdin=dimacs)
    assert compiled.returncode == 0
    circuit = deserialize(compiled.stdout)
    assert circuit.extended
    checked = run_cli(["check"], stdin=compiled.stdout)
    report = json.loads(checked.stdout)
    assert report["extended"] is True
    assert report["brute_force_valid"] is True


def test_eval_and_partition():
    built = run_cli(["builtin", "equal", "--n", "4"]).stdout
    evald = run_cli(["eval", "--assign", "0=1,1=0,2=1,3=0"], stdin=built)
    assert json.loads(evald.stdout)["value"] == "1"
    z = run_cli(["partition"], stdin=built)
    assert json.loads(z.stdout)["partition_function"] == "4"


def test_normalize_then_sample_deterministic():
    built = run_cli(["builtin", "equal", "--n", "4"]).stdout
    normalized = run_cli(["normalize"], stdin=built).stdout
    s1 = run_cli(["sample", "-n", "5", "--seed", "7"], stdin=normalized).stdout
    s2 = run_cli(["sample", "-n", "5", "--seed", "7"], stdin=normalized).stdout
    assert s1 == s2
    rows = s1.strip().splitlines()
    assert len(rows) == 5
    for row in rows:
        x = [int(t) for t in row.split(",")]
        assert x[:2] == x[2:]


@pytest.mark.parametrize("name", ["parity", "majority", "count-ones", "equal"])
def test_builtin_normalize_sample_pipeline(name):
    built = run_cli(["builtin", name, "--n", "6"])
    normalized = run_cli(["normalize"], stdin=built.stdout)
    drawn = run_cli(["sample", "-n", "20", "--seed", "7"], stdin=normalized.stdout)
    assert (built.returncode, normalized.returncode, drawn.returncode) == (0, 0, 0)
    circuit = deserialize(built.stdout)
    variables = sorted(deserialize(normalized.stdout).dependency_scope())
    rows = drawn.stdout.splitlines()
    assert len(rows) == 20
    for row in rows:
        assert circuit.evaluate(dict(zip(variables, map(Fraction, row.split(","))))) != 0


def test_marginalize_subcommand(tmp_path):
    built = run_cli(["builtin", "equal", "--n", "4"]).stdout
    query = tmp_path / "query.json"
    query.write_text(
        json.dumps({"integrate_over": {"2": ["0", "1"], "3": ["0", "1"]}, "fixed": {"0": "1", "1": "0"}})
    )
    proc = run_cli(["marginalize", "--query", str(query)], stdin=built)
    assert json.loads(proc.stdout)["value"] == "1"


def test_decompose_subcommand():
    built = run_cli(["builtin", "equal", "--n", "4"]).stdout
    proc = run_cli(["decompose"], stdin=built)
    doc = json.loads(proc.stdout)
    assert doc["terms"]
    for term in doc["terms"]:
        assert sorted(term["y"] + term["z"]) == [0, 1, 2, 3]


def test_compile_fpssm_subcommand():
    machine = json.dumps(
        {
            "n": 2,
            "state_size": 2,
            "initial_state": 0,
            "transitions": [{"0": [0, 1], "1": [1, 0]} for _ in range(2)],
            "decode": ["0", "1"],
        }
    )
    compiled = run_cli(["compile", "fpssm", "-"], stdin=machine)
    assert compiled.returncode == 0
    out = run_cli(["eval", "--assign", "0=1,1=0"], stdin=compiled.stdout)
    assert json.loads(out.stdout)["value"] == "1"


def test_sptree_sample_csv():
    proc = run_cli(["sptree", "sample", "--m", "4", "-n", "3", "--seed", "11"])
    rows = proc.stdout.strip().splitlines()
    assert len(rows) == 3
    for row in rows:
        bits = [int(t) for t in row.split(",")]
        assert len(bits) == 6 and sum(bits) == 3


def test_sptree_triangles_subcommand(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps(["r", "r", "b", "b", "r", "b"]))
    proc = run_cli(["sptree", "triangles", "--m", "4", "--coloring", str(coloring)])
    report = json.loads(proc.stdout)
    assert report["dichromatic"] + report["monochromatic"] == report["total"] == 4


def test_sptree_fraction_experiment(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps(["r", "r", "b", "b", "r", "b"]))
    proc = run_cli(
        ["sptree", "fraction-experiment", "--m", "4", "--coloring", str(coloring), "-n", "500", "--seed", "3"]
    )
    report = json.loads(proc.stdout)
    assert 0.0 <= report["empirical_fraction"] <= 1.0
    assert report["seed"] == 3


def test_usage_error_exit_code():
    proc = run_cli(["rank", "--partition"])
    assert proc.returncode == 2
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 2


def test_operational_error_exit_code():
    # normalizing a non-D&C circuit fails cleanly
    text = serialize(incomplete_valid_fixture())
    proc = run_cli(["normalize"], stdin=text)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_table_format():
    built = run_cli(["builtin", "equal", "--n", "4"]).stdout
    proc = run_cli(["check", "--format", "table"], stdin=built)
    assert proc.returncode == 0
    assert "decomposable = True" in proc.stdout


def assert_one_error_line(proc, fragment):
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert fragment in lines[0]


def test_malformed_children_is_a_typed_error():
    doc = json.loads(serialize(incomplete_valid_fixture()))
    product = next(i for i, nd in enumerate(doc["nodes"]) if nd["kind"] == "product")
    doc["nodes"][product]["children"] = "ab"
    proc = run_cli(["check"], stdin=json.dumps(doc))
    assert_one_error_line(proc, f"nodes[{product}].children")


def test_malformed_leaf_function_reference_is_a_typed_error():
    doc = json.loads(serialize(incomplete_valid_fixture()))
    doc["nodes"][0]["leaf_function"] = "0"
    proc = run_cli(["eval", "--assign", "0=1,1=1"], stdin=json.dumps(doc))
    assert_one_error_line(proc, "nodes[0].leaf_function")


def test_malformed_assignment_is_a_typed_error(tmp_path):
    built = run_cli(["builtin", "equal", "--n", "4"]).stdout
    proc = run_cli(["eval", "--assign", "0=x"], stdin=built)
    assert_one_error_line(proc, "0=x")
    circuit = tmp_path / "equal.json"
    circuit.write_text(built)
    machine = {
        "n": 2,
        "state_size": 2,
        "initial_state": 0,
        "domains": [["0", "1"]],
        "transitions": [{"0": [0, 1], "1": [1, 0]} for _ in range(2)],
        "decode": ["0", "1"],
    }
    cases = [
        (["sptree", "count", "--m", "0"], None, "at least two vertices"),
        (["sptree", "count", "--m", "1"], None, "at least two vertices"),
        (["marginalize", "--query", "-", str(circuit)], '{"integrate_over": [1]}', "integrate_over"),
        (["marginalize", "--query", "-", str(circuit)], '{"fixed": {"0": "x"}}', "fixed.0"),
        (["compile", "fpssm", "-"], json.dumps(machine), "domains and transitions"),
    ]
    for args, stdin, fragment in cases:
        assert_one_error_line(run_cli(args, stdin=stdin), fragment)
