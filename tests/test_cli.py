"""End-to-end command-line checks: piping, determinism, exit codes."""

import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from spn.circuit import Circuit, CircuitBuilder, deserialize, serialize
from spn.errors import SpnError
from spn.inference import normalize_weights
from spn.machines import MAX_EQUAL_N, MAX_ONE_HOT_CELLS, build_equal, compile_fpssm, majority_machine, parity_machine
from spn.rng import make_rng
from spn.sptree import count_consistent_trees

from genutil import incomplete_valid_fixture, random_dc_circuit

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


def test_sptree_count_counts_once(monkeypatch, capsys):
    from spn import cli, sptree

    calls = []

    def counting(m, partial):
        calls.append(m)
        return count_consistent_trees(m, partial)

    monkeypatch.setattr(sptree, "count_consistent_trees", counting)
    assert cli.main(["sptree", "count", "--m", "6", "--present", "0", "--absent", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == [6]
    assert Fraction(report["normalized"]) == Fraction(report["count"], 6**4)


# SHA-256 of `spn sptree count` reports, recorded when every count eliminated
# the dense Laplacian minor built from all C(m, 2) pairs
SPTREE_COUNT_DIGESTS = [
    (["--m", "60"], "27b5a857f500bebbce2c81a94b7486a002514ccf8b8b27a8d8f91e2890685204"),
    (
        ["--m", "12", "--present", "0,13,40", "--absent", "1,2,3,20,65"],
        "e90607ca115e687594b51bffeb2e45862ee072fda894cf02489e9fbe7d85e05f",
    ),
    (
        ["--m", "60", "--present", "5,100,1000", "--absent", "7,8,9,500,1700,1769", "--format", "table"],
        "c5129dd33c9ca5776cc80a8608e52ac76c14a0c25825f6d9489d83b10f16bfdb",
    ),
    (
        ["--m", "9", "--present", "0", "--absent", "2,3,4,5,6,10,11,12,13,15,16,17,18,20,21,23,26,29,30,31,32,35"],
        "d54229107fcd0c801fb098d5820bcd0f542c92e4d7db2b589eb9e33b94cc0c50",
    ),
]


def test_sptree_count_reports_are_pinned(capsys):
    from spn import cli

    for args, digest in SPTREE_COUNT_DIGESTS:
        assert cli.main(["sptree", "count", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, args


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from spn import cli

    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["sptree", "count", "--m", "4", "--present", "0", "--absent", "1", "--format", "table"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["sptree", "count", "--m", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == {"command": "sptree", "m": 4, "subcommand": "count"}
    assert report["count"] == 16 and "count = 5" in first


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


def test_sample_draws_are_pinned():
    # exact bytes of the seeded stream: a change to the draws or to the
    # order of rng.random() calls shows here, not only as run-to-run drift
    built = run_cli(["builtin", "equal", "--n", "6"]).stdout
    normalized = run_cli(["normalize"], stdin=built).stdout
    drawn = run_cli(["sample", "-n", "5", "--seed", "7"], stdin=normalized)
    assert drawn.returncode == 0
    assert drawn.stdout == "1,1,1,1,1,1\n1,1,0,1,1,0\n0,0,0,0,0,0\n0,0,0,0,0,0\n0,0,1,0,0,1\n"


@pytest.mark.parametrize(
    "pipeline, digest",
    [
        (
            [["builtin", "majority", "--n", "8"], ["normalize"]],
            "b50e4bd379dc8f65d9b9e0fe2f5231f6bb439278dd9b71ce5daf170359f41dbc",
        ),
        ([["builtin", "count-ones", "--n", "6"]], "4b2b8fbfd6c2b61844134921f63875695241642b67bce63b31f3efa96035c4ef"),
        (
            [["builtin", "equal", "--n", "6"], ["decompose"]],
            "0cec5e646f04ab4bb4ca0bedb30c1ad09d633e0a3fa93e43877554cc50bb842f",
        ),
    ],
)
def test_circuit_rewrites_are_pinned(pipeline, digest):
    # exact bytes of compiled, normalized and decomposed circuits: node
    # order and ids of every rewrite (excision, normalization, the
    # decomposition's pinned circuits) show here
    out = None
    for args in pipeline:
        proc = run_cli(args, stdin=out)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, flags, digest",
    [
        # past the 20,000-term cap (node 444), so set_multilinear is null
        (24, [], "40cefee442843df58309c982333ef4e2c041bfc32b5a8f82ceeffc70e13bd395"),
        (12, ["--dump-polynomial", "--audit"], "489a8f1dd44d81b8609a3ab8a103c8aaa9452b1986ac24cca4d080d15f24ad28"),
    ],
    ids=["majority24", "majority12-dump-audit"],
)
def test_check_reports_on_compiled_majority_are_pinned(n, flags, digest, monkeypatch, capsys):
    # `spn builtin majority --n <n> | spn check <flags>`, in-process
    from spn import cli

    assert cli.main(["builtin", "majority", "--n", str(n)]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert cli.main(["check", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sample_counts():
    normalized = run_cli(["normalize"], stdin=run_cli(["builtin", "equal", "--n", "4"]).stdout).stdout
    for args, stdin in ((["sample"], normalized), (["sptree", "sample", "--m", "4"], None)):
        empty = run_cli([*args, "-n", "0", "--seed", "1"], stdin=stdin)
        assert (empty.returncode, empty.stdout, empty.stderr) == (0, "", "")
        negative = run_cli([*args, "-n", "-3", "--seed", "1"], stdin=stdin)
        assert negative.returncode == 2 and negative.stdout == ""
        assert "non-negative" in negative.stderr and "Traceback" not in negative.stderr


def test_cli_import_does_not_load_numpy():
    # commands that never draw should not pay for importing numpy
    code = "import sys, spn.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=CHILD_ENV).returncode == 0


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


def test_sptree_sample_bytes_are_pinned():
    # seeded trees of the re-sampling walk, recorded before its draws came in blocks
    proc = run_cli(["sptree", "sample", "--m", "20", "-n", "50", "--seed", "7"])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "a08e5d62029d969fba27c061748c008fd6c20e2dd5cdfadc812e697360b6ad64"
    )


def test_sptree_fraction_experiment_report_is_pinned(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps(["r" if label % 3 else "b" for label in range(66)]))
    proc = run_cli(["sptree", "fraction-experiment", "--m", "12", "--seed", "3", "--coloring", str(coloring)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    del report["config"], report["version"]
    assert report == {
        "analytic_bound": 0.9864028902293939,
        "command": "sptree-fraction-experiment",
        "constraint_count": 140,
        "empirical_fraction": 0.0595,
        "m": 12,
        "samples": 10000,
        "seed": 3,
    }


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
    parity_one = tmp_path / "parity1.json"
    parity_one.write_text(run_cli(["builtin", "parity", "--n", "1"]).stdout)
    machine = {
        "n": 2,
        "state_size": 2,
        "initial_state": 0,
        "domains": [["0", "1"]],
        "transitions": [{"0": [0, 1], "1": [1, 0]} for _ in range(2)],
        "decode": ["0", "1"],
    }
    parity = {**machine, "domains": [["0", "1"]] * 2}
    colorings = []
    for name, doc in (("five", "5"), ("object", "{}")):
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        colorings += [
            (["sptree", "triangles", "--m", "4", "--coloring", str(path)], None, "coloring must be an array"),
            (
                ["sptree", "fraction-experiment", "--m", "4", "--seed", "1", "--coloring", str(path)],
                None,
                "coloring must be an array",
            ),
        ]
    cases = colorings + [
        (["sptree", "count", "--m", "0"], None, "at least two vertices"),
        (["sptree", "count", "--m", "1"], None, "at least two vertices"),
        (["sptree", "count", "--m", "4", "--present", "x"], None, "'x'"),
        (["sptree", "count", "--m", "4", "--absent", "x"], None, "'x'"),
        (["sptree", "count", "--m", "4", "--absent", "99"], None, "edge label 99"),
        (["sptree", "count", "--m", "4", "--absent", "-1"], None, "edge label -1"),
        (["sptree", "count", "--m", "4", "--present", "0", "--absent", "0"], None, "both present and absent"),
        (["rank", "--partition", "A=x", str(circuit)], None, "'x'"),
        (["rank", "--partition", "A=0,0", str(circuit)], None, "repeats variable 0"),
        (["marginalize", "--query", "-", str(circuit)], '{"integrate_over": [1]}', "integrate_over"),
        (["marginalize", "--query", "-", str(circuit)], '{"fixed": {"0": "x"}}', "fixed.0"),
        (
            ["marginalize", "--query", "-", str(parity_one)],
            '{"integrate_over": {"0": [1, 1]}, "fixed": {}}',
            "integration set for variable 0 repeats value 1",
        ),
        (["compile", "fpssm", "-"], json.dumps(machine), "domains and transitions"),
        (["compile", "fpssm", "-"], json.dumps({**parity, "transitions": [1, 2]}), "transitions[0]: expected an object"),
        (["compile", "fpssm", "-"], json.dumps({**parity, "decode": "01"}), "decode: expected an array"),
        (
            ["compile", "fpssm", "-"],
            json.dumps({**parity, "transitions": [{"0": [0, 1], "1": [1, 0]}, {"0": [0, 1]}]}),
            "variable 1 must have one entry per domain value",
        ),
        (["cnf2spn"], "p cnf 2 1\n1 x 0\n", "line 2: 'x'"),
        (["cnf2spn"], "p cnf two 1\n1 0\n", "line 1: 'two'"),
    ]
    for args, stdin, fragment in cases:
        assert_one_error_line(run_cli(args, stdin=stdin), fragment)


def _unused_variable_circuit():
    """Five binary variables; the root reads 0, 1, 3 and 4, and a leaf over 2 hangs unreached."""
    b = CircuitBuilder()
    xs = [b.variable([0, 1]) for _ in range(5)]
    leaves = [b.leaf(b.leaf_function(x, {0: x + 1, 1: Fraction(1, x + 2)})) for x in xs]
    left = b.product([b.sum([(leaves[0], Fraction(2, 3)), (leaves[3], 1)]), leaves[1]])
    right = b.product([leaves[4], b.sum([(leaves[1], 3), (b.constant(Fraction(1, 2)), 1)])])
    return b.build(b.sum([(left, 1), (right, Fraction(5, 7))]))


# stdin of the pinned rank reports; the ternary circuit's rank reads only
# the bits 0 and 1 of its domains, its decomposition every value
RANK_INPUTS = {
    "equal12": lambda: build_equal(12),
    "parity10": lambda: compile_fpssm(parity_machine(10)),
    "majority6": lambda: compile_fpssm(majority_machine(6)),
    "ternary": lambda: random_dc_circuit(make_rng(5), n=6, domain_size=3, max_size=30),
    "unused": _unused_variable_circuit,
}


@pytest.mark.parametrize(
    "name, args, digest",
    [
        ("equal12", ["rank"], "53eef578ffe84de20ad52bb73307129e5bc5e53a5081259406b9f876293bee71"),
        (
            "equal12",
            ["depth3-report", "--format", "table"],
            "18f21b156954752b8b22dc4a4a241bf32db51c0fba145ab549f3b3a7bb32f8e1",
        ),
        ("parity10", ["rank"], "eef8adf80b90fc46064ee66bf4416a92d85a9d4b29282fdfc8f8e55e91b57057"),
        (
            "parity10",
            ["depth3-report", "--format", "table"],
            "fbce924a1aa9130085220f23b267d613e781a6f4c83de2d046c63997824c8be3",
        ),
        ("majority6", ["rank"], "b2642d8a56194a2788db201b71fb48a1ffd344321356106daddce4c871709c67"),
        (
            "majority6",
            ["depth3-report", "--format", "table"],
            "80e22b3cf15acb72fa3a1a9d2c1a026bf921e227d47d696c86a8a1f53807f398",
        ),
        (
            "ternary",
            ["rank", "--partition", "A=2,4,5"],
            "9d892374c658a56a5ea0e3c5d452625f62a15fe52fd9aadfbe34cb4d81a1339a",
        ),
        ("ternary", ["decompose"], "69f0fbeed82e50282e6f90d41dcb59e5fbccaf2272ee267cbed018e37cf9738b"),
        ("unused", ["depth3-report"], "bd4c51f09205ea39757c1dafb9b53387d88d070e780a2a8643f1d1fb187dd994"),
    ],
)
def test_rank_and_decompose_reports_are_pinned(name, args, digest):
    # exact bytes of each report as the per-point evaluation gave them: a
    # changed matrix entry or table value shows here
    proc = run_cli(args, stdin=serialize(RANK_INPUTS[name]()))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_rank_errors():
    too_big = run_cli(["rank"], stdin=serialize(build_equal(40)))
    assert (too_big.returncode, too_big.stderr) == (1, "error: blocks limited to 12 variables\n")
    b = CircuitBuilder()
    xs = [b.variable([1, 2]) for _ in range(2)]
    off_domain = b.build(b.product([b.leaf(b.leaf_function(x, {1: 1, 2: 3})) for x in xs]))
    proc = run_cli(["rank"], stdin=serialize(off_domain))
    assert (proc.returncode, proc.stderr) == (1, "error: value 0 not in domain of variable 0\n")
    equal4 = serialize(build_equal(4))
    for spec, var in (("A=5", 5), ("A=-1", -1)):
        proc = run_cli(["rank", "--partition", spec], stdin=equal4)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: partition variable {var} is not among the variables 0..3\n"


def test_rank_does_not_import_numpy():
    # tabulation is pure Python: `spn rank` must not pay numpy's import
    code = (
        "import sys\nfrom spn.cli import main\n"
        "rc = main(['rank'])\nprint(rc, 'numpy' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=serialize(build_equal(12)),
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert json.loads(proc.stdout)["rank"] == 64
    assert proc.stderr == "0 False\n"


def _loaded_modules(args, stdin=None):
    """Exit code of `spn <args>` run in a fresh interpreter, and the spn, numpy,
    dataclasses and inspect modules it loaded."""
    code = (
        "import sys\nfrom spn.cli import main\nrc = main(sys.argv[1:])\n"
        "print(rc, *sorted(m for m in sys.modules if m in ('numpy', 'dataclasses', 'inspect') or m.startswith('spn')), "
        "file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin, capture_output=True, text=True, env=CHILD_ENV
    )
    rc, *modules = proc.stderr.split()
    return int(rc), set(modules)


def normalized_equal():
    return normalize_weights(build_equal(4))


def coloring_of_k6():
    return json.dumps(["r" if label % 3 else "b" for label in range(15)])


# no stage below loads numpy, or dataclasses and the inspect it imports (records are namedtuples)
HEAVY = {"dataclasses", "inspect", "numpy"}


@pytest.mark.parametrize(
    "args, fixture, absent",
    [
        (["sptree", "count", "--m", "6"], None, {"spn.circuit", "spn.structure", "spn.philox", *HEAVY}),
        (
            ["check"],
            incomplete_valid_fixture,
            {"spn.sptree", "spn.machines", "spn.separation", "spn.philox", *HEAVY},
        ),
        # the seeded commands draw from the pure-Python Philox stream
        (["sample", "-n", "3", "--seed", "1"], normalized_equal, {"spn.sptree", "spn.polynomial", *HEAVY}),
        (["sptree", "sample", "--m", "6", "-n", "3", "--seed", "1"], None, {"spn.circuit", *HEAVY}),
        (
            ["sptree", "fraction-experiment", "--m", "6", "--seed", "1", "--coloring", "-"],
            coloring_of_k6,
            {"spn.circuit", *HEAVY},
        ),
        (["builtin", "equal", "--n", "6"], None, {"spn.polynomial", "spn.inference", "spn.philox", *HEAVY}),
        (["normalize"], lambda: build_equal(6), {"spn.polynomial", "spn.machines", "spn.philox", *HEAVY}),
        (["rank"], lambda: build_equal(6), {"spn.polynomial", "spn.machines", "spn.inference", *HEAVY}),
    ],
)
def test_subcommands_import_only_what_they_run(args, fixture, absent):
    stdin = fixture() if fixture else None
    rc, modules = _loaded_modules(args, serialize(stdin) if isinstance(stdin, Circuit) else stdin)
    assert rc == 0 and "spn.cli" in modules
    assert not modules & absent


def test_import_spn_loads_no_submodule():
    code = "import sys, spn\nprint(*sorted(m for m in sys.modules if m.startswith('spn')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.stdout == "spn\n"


# the names `spn` exported when its __init__ imported them eagerly
PACKAGE_EXPORTS = """
    Circuit CircuitBuilder CircuitMetrics ConstantNode DistributionHandle LeafFunction LeafNode
    MarginalQuery ProductNode SparsePolynomial StructureReport SumNode VariableSpec analyze
    brute_force_validity check_complete check_decomposable check_strong_validity
    cnf_to_extended_spn complete_transform deserialize expand is_multilinear is_set_multilinear
    marginalize multilinear_identity_test normalize_weights partition_function prune_degenerate
    sample serialize validity_witness
""".split()


def test_package_names_resolve_on_first_use():
    import spn

    assert spn.__all__ == sorted(PACKAGE_EXPORTS)
    for name in spn.__all__:
        assert getattr(spn, name).__module__.startswith("spn.")
        assert name in dir(spn)
    namespace = {}
    exec("from spn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PACKAGE_EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        spn.no_such_name


# SHA-256 of `spn [command] --help` at 80 columns (Python 3.11 argparse),
# recorded when every module was imported at the top of the CLI
HELP_DIGESTS = {
    "": "77431f60afd1d56b2caa43de941ed2bd354e420a107d7bfdf0446527cd4e31ff",
    "check": "11dbf9fb6835481d4f15379e54db88cf8418c402ab3854f8c08e0b2ad44a4e2c",
    "eval": "ab670a43df531ad944ff4f029a275505a37c5b38f91a05d90a553c3f3896bd25",
    "marginalize": "806c06e00e2667963f4e24fb36db83432ab7f624291537b12d27600277a70090",
    "partition": "a98b54b58504f0951526a4df8140706738853b82423cf32492ef42a1435a886c",
    "normalize": "f51189ffe812637619f4449662a6089ce3d7baf9fe3046f7bc01506cdcf256b0",
    "sample": "b5c47b6ecb4634fc57e37e149b85bec7eed9cc4a85897fcb78d2787945468696",
    "compile": "7be847fc2f9fcb3e587df434280770926d6f5c9fc77e98d190cf5c8db08a5999",
    "builtin": "f063ccdf310ba742af76b4b4db84af45d21cdcc651d8c28cb0e2a6c33af31489",
    "rank": "76436489086870921cce461d5a0dfcc5e9c7c636a2b5bdca9a1c9f53e96256a1",
    "depth3-report": "bfab8c5158ef18d96e0e1a9878793cec5c5c88c802d8d0e026aa961d34033a58",
    "decompose": "fbd8df275a1624ae1aa6f93aff77da53760722a85b77cd05c0d3d128ddff52a3",
    "cnf2spn": "d94fd373cec2764c4256a808b7aecda95a2096f501d9e49ba09dbeb0027b34db",
    "sptree": "29cfc60c3c0ce1a35578f486fb1cabcb0958f77c4252843c66c18a51899acd6b",
    "sptree count": "f2d55e3c89eb573679cc09b471388da499bd3b38f8315a4cc62d29a34d1ed762",
    "sptree sample": "ec9f23f1ab453c1e8801eb8912c091f9c2f43090da01c772a14a273773517029",
    "sptree triangles": "f2acedee391c1526c0479d3fd3f60118b9ae82f02e1004a3a377ac91a1052242",
    "sptree fraction-experiment": "d852bce1e676c7da097c018b4cf03a6656e6c91eab66dd5250301ac9d0ea0fd1",
}


def test_help_texts_are_pinned(monkeypatch, capsys):
    from spn import cli

    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_DIGESTS.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([*command.split(), "--help"])
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, command


def test_negative_seed_is_a_typed_error():
    proc = run_cli(["sptree", "sample", "--m", "5", "--seed", "-1"])
    assert proc.stdout == ""
    assert_one_error_line(proc, "seed must be a non-negative integer, got -1")


def _corpus_circuit():
    """Three binary variables, every node kind and two shared leaves; decomposable,
    complete and weight-normalized, so every corpus command runs on it."""
    b = CircuitBuilder()
    x, y, z = (b.variable([0, 1]) for _ in range(3))
    leaves = [
        b.leaf(b.leaf_function(v, table))
        for v, table in ((x, {0: 1, 1: 2}), (y, {0: 1, 1: "1/2"}), (z, {0: 2, 1: 1}), (x, {0: 3, 1: 1}))
    ]
    left = b.product([leaves[0], leaves[1], leaves[2], b.constant("1/2")])
    right = b.product([leaves[3], leaves[1], leaves[2]])
    return normalize_weights(b.build(b.sum([(left, "1/3"), (right, "2/3")])))


CORPUS_COMMANDS = [
    ["check"],
    ["eval", "--assign", "0=1,1=0,2=1"],
    ["partition"],
    ["normalize"],
    ["rank"],
    ["decompose"],
    ["sample", "-n", "1", "--seed", "0"],
]
WRONG_VALUES = ["x", 1.5, None, True, {"a": 1}]


def _malformed_corpus():
    """(where, document, commands) with one field of a variable, leaf function or node
    deleted or given a wrong-typed value; deletions run through every command."""
    base = json.loads(serialize(_corpus_circuit()))
    k = 0
    for section in ("variables", "leaf_functions", "nodes"):
        for i, item in enumerate(base[section]):
            for key, value in item.items():
                if key == "name":  # optional
                    continue
                doc = json.loads(json.dumps(base))
                del doc[section][i][key]
                yield f"{section}[{i}].{key} deleted", doc, CORPUS_COMMANDS
                slots = [(key, None)] + ([(key, 0)] if isinstance(value, list) else [])
                for slot, index in slots:
                    for wrong in WRONG_VALUES:
                        doc = json.loads(json.dumps(base))
                        if index is None:
                            doc[section][i][slot] = wrong
                        else:
                            doc[section][i][slot][index] = wrong
                        k += 1
                        where = f"{section}[{i}].{slot}" + ("" if index is None else f"[{index}]")
                        yield f"{where} = {wrong!r}", doc, [CORPUS_COMMANDS[k % len(CORPUS_COMMANDS)]]


def test_malformed_input_corpus_fails_with_one_error_line(tmp_path, capsys):
    from spn import cli

    def run(args):
        rc = cli.main(args)
        out, err = capsys.readouterr()
        return rc, out, err

    path, coloring = tmp_path / "circuit.json", tmp_path / "coloring.json"
    path.write_text(serialize(_corpus_circuit()))
    for args in CORPUS_COMMANDS:
        rc, _, err = run([*args, str(path)])
        assert (rc, err) == (0, ""), args
    normalized = tmp_path / "normalized.json"
    cli.main(["normalize", str(path), "-o", str(normalized)])
    coloring.write_text(json.dumps(["r", "b"] * 3))
    long_int = "9" * 5000  # past Python's 4,300-digit int/str limit
    big_root, big_key = tmp_path / "big_root.json", tmp_path / "big_key.json"
    big_root.write_text(serialize(_corpus_circuit()).replace('"root": ', '"root": ' + long_int, 1))
    big_key.write_text(json.dumps({"fixed": {long_int: 1}}))
    # parsing a million digits would take seconds; the CLI's digit bound rejects it first
    huge_root, huge_key = tmp_path / "huge_root.json", tmp_path / "huge_key.json"
    huge_root.write_text(serialize(_corpus_circuit()).replace('"root": ', '"root": ' + "9" * 10**6, 1))
    huge_key.write_text(json.dumps({"fixed": {"9" * 10**6: 1}}))
    # machines whose one-hot embedding (n * |D| * k^2 cells) is just past the bound, and equal just past its n
    count_n = next(n for n in itertools.count(1) if 2 * n * (n + 1) ** 2 > MAX_ONE_HOT_CELLS)
    k = math.isqrt(MAX_ONE_HOT_CELLS // 2) + 1
    machine = tmp_path / "machine.json"
    doc = {"n": 1, "state_size": k, "initial_state": 0, "transitions": [{"0": list(range(k)), "1": [0] * k}]}
    machine.write_text(json.dumps({**doc, "decode": [1] * k}))
    cases = [
        (["builtin", "count-ones", "--n", "100000000000"], "count-ones of 10^11 inputs"),
        (["builtin", "count-ones", "--n", str(count_n)], "count-ones just past the one-hot bound"),
        (["builtin", "majority", "--n", str(count_n)], "majority just past the one-hot bound"),
        (["builtin", "parity", "--n", "100000000"], "parity of 10^8 inputs"),
        (["builtin", "parity", "--n", str(MAX_ONE_HOT_CELLS // 8 + 1)], "parity just past the one-hot bound"),
        (["builtin", "equal", "--n", str(MAX_EQUAL_N + 2)], "equal just past MAX_EQUAL_N"),
        (["compile", "fpssm", str(machine)], f"a one-variable machine of {k} states"),
        (["check", str(big_root)], "root past the digit limit"),
        (["check", str(huge_root)], "a million-digit root"),
        (["marginalize", "--query", str(big_key), str(path)], "query key past the digit limit"),
        (["marginalize", "--query", str(huge_key), str(path)], "a million-digit query key"),
        (["sptree", "count", "--m", "1000000"], "K_1000000 has more than MAX_VERTICES = 4096 vertices"),
        (["sptree", "sample", "--m", "100000000", "--seed", "1"], "K_100000000 has more than MAX_VERTICES"),
        (["sample", "--seed", "-1", str(normalized)], "seed must be a non-negative integer, got -1"),
        (["sptree", "sample", "--m", "5", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (
            ["sptree", "fraction-experiment", "--m", "4", "--coloring", str(coloring), "--seed", "-1"],
            "seed must be a non-negative integer, got -1",
        ),
    ]
    # tokens that parse past INT_DIGITS (20,000 digits) or parse and are then rejected (10,000)
    huge, big = "9" * 20_000, "9" * 10_000
    cases += [
        (["eval", "--assign", "0=1,0=0,1=0,2=1", str(path)], "a repeated variable, first value 1"),
        (["eval", "--assign", "0=0,1=0,2=1,0=1", str(path)], "a repeated variable, last value 1"),
        (["eval", "--assign", "0=" + huge, str(path)], "a 20,000-digit value"),
        (["eval", "--assign", huge + "=1", str(path)], "a 20,000-digit variable"),
        (["eval", "--assign", "0=1,1=0,2=" + big, str(path)], "a 10,000-digit value"),
        (["eval", "--assign", "0=1,1=0,2=1/" + big, str(path)], "a value with a 10,000-digit denominator"),
        (["eval", "--assign", big + "=1", str(path)], "a 10,000-digit variable"),
        (["rank", "--partition", "A=" + huge, str(path)], "a 20,000-digit partition entry"),
        (["rank", "--partition", "A=" + big, str(path)], "a 10,000-digit partition variable"),
        (["depth3-report", "--partition", f"A={big},{big}", str(path)], "a repeated 10,000-digit partition variable"),
        (["sample", "--seed", big, str(normalized)], "a 10,000-digit seed"),
        (["sptree", "sample", "--m", "4", "--seed", huge], "a 20,000-digit seed"),
        (["sptree", "sample", "--m", "4", "--seed", "1", "-n", big], "a 10,000-digit count"),
        (["builtin", "equal", "--n", big], "a 10,000-digit n"),
        (["sptree", "count", "--m", "-" + big], "a negative 10,000-digit m"),
    ]
    long_key = tmp_path / "long_key.json"
    long_key.write_text(json.dumps({"fixed": {big: 1}}))
    cases.append((["marginalize", "--query", str(long_key), str(path)], "a 10,000-digit query key"))
    dimacs = tmp_path / "long.cnf"
    dimacs.write_text(f"p cnf 2 1\n1 -{huge} 0\n")
    cases.append((["cnf2spn", str(dimacs)], "a 20,000-digit DIMACS literal"))
    parity = {
        "n": 2,
        "state_size": 2,
        "initial_state": 0,
        "transitions": [{"0": [0, 1], "1": [1, 0]}] * 2,
        "decode": [0, 1],
    }
    machines = {
        "an order that repeats a variable": {**parity, "order": [0, 0]},
        "an order past n": {**parity, "order": [0, 2]},
        "an order that is not an array": {**parity, "order": "01"},
        "one transition table short": {**parity, "transitions": parity["transitions"][:1]},
        "a short next-state tuple": {**parity, "transitions": [{"0": [0], "1": [1, 0]}] * 2},
        "a next state past k": {**parity, "transitions": [{"0": [0, 2], "1": [1, 0]}] * 2},
        "a transition table missing a value": {**parity, "transitions": [{"0": [0, 1]}] * 2},
        "a negative decode": {**parity, "decode": [-1, 1]},
        "a negative rational decode": {**parity, "decode": ["-1/2", 1]},
        "a short decode": {**parity, "decode": [1]},
        "domains that are not an array": {**parity, "domains": "01"},
        "a domain that is a number": {**parity, "domains": [5, [0, 1]]},
        "a domain that is an object": {**parity, "domains": [{"0": 1}, [0, 1]]},
        "one domain short": {**parity, "domains": [[0, 1]]},
        "an initial state past k": {**parity, "initial_state": 2},
    }
    for label, doc in machines.items():
        bad = tmp_path / f"machine{len(cases)}.json"
        bad.write_text(json.dumps(doc))
        cases.append((["compile", "fpssm", str(bad)], label))
    for option, labels in [
        ("--present", "1.5"),
        ("--present", " "),
        ("--absent", "0,x"),
        ("--absent", "0,,-7"),
        ("--present", huge),
        ("--present", big),
        ("--absent", big),
    ]:
        cases.append((["sptree", "count", "--m", "4", option, labels], f"sptree count {option} {labels[:20]}"))
    colorings = {
        "a coloring one edge short": ["r"] * 5,
        "a coloring one edge long": ["r"] * 7,
        "a coloring with another color": ["r"] * 5 + ["g"],
        "a coloring of numbers": [0] * 6,
        "a coloring of arrays": [["r"]] * 6,
        "a coloring of objects": [{"r": 1}] * 6,
        "a coloring that is null": None,
        "a coloring that is a string": "rbrbrb",
    }
    for label, doc in colorings.items():
        bad = tmp_path / f"coloring{len(cases)}.json"
        bad.write_text(json.dumps(doc))
        cases += [
            (["sptree", "triangles", "--m", "4", "--coloring", str(bad)], label),
            (["sptree", "fraction-experiment", "--m", "4", "--seed", "1", "--coloring", str(bad)], label),
        ]
    cases += [
        (["sptree", "triangles", "--m", "-3", "--coloring", str(coloring)], "triangles of K_-3"),
        (["sptree", "fraction-experiment", "--m", "-3", "--seed", "1", "--coloring", str(coloring)], "K_-3"),
    ]
    for where, doc, commands in _malformed_corpus():
        text = json.dumps(doc)
        path = tmp_path / f"case{len(cases)}.json"
        path.write_text(text)
        cases += [([*args, str(path)], where) for args in commands]
    assert len(cases) > 400
    for args, label in cases:
        start = time.perf_counter()
        rc, out, err = run(args)
        elapsed = time.perf_counter() - start
        lines = err.splitlines()
        assert rc in (1, 2) and out == "", (label, args)
        assert len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err, (label, args, err[:500])
        assert elapsed < 2.0 and len(err) < 10_000, (label, args, elapsed, err[:500])


def test_assignment_error_lines_are_pinned(tmp_path, capsys):
    from spn import cli

    path = tmp_path / "circuit.json"
    path.write_text(serialize(_corpus_circuit()))
    for spec, line in [
        ("0=x", "bad assignment '0=x'; use var=value, e.g. 0=1,1=1/2"),
        ("0=1,0=0,1=0,2=1", "assignment repeats variable 0"),
        ("2=1,0=0,1=0,2=0", "assignment repeats variable 2"),
        ("0=" + "9" * 20_000, "bad assignment '0=" + "9" * 37 + "; use var=value, e.g. 0=1,1=1/2"),
        ("0=1,1=0,2=" + "9" * 10_000, "value " + "9" * 40 + " not in domain of variable 2"),
        ("9" * 10_000 + "=1", "unknown variable " + "9" * 40),
    ]:
        assert cli.main(["eval", "--assign", spec, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")


def test_long_query_key_and_option_error_lines_are_pinned(tmp_path, capsys):
    from spn import cli

    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int/str digit limit before Python 3.10.7")
    path = tmp_path / "circuit.json"
    path.write_text(serialize(_corpus_circuit()))
    queries = {
        "long": {"fixed": {"9" * 10_000: 1}},
        "short": {"integrate_over": {"0": [0, 1]}, "fixed": {"2": 1}},
        "overlap": {"integrate_over": {"0": [0, 1], "1": [1]}, "fixed": {"1": 1, "2": 0}},
    }
    for name, query in queries.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(query))
    big, digits = "9" * 10_000, sys.get_int_max_str_digits()
    scope = "query must partition the dependency-scope"
    for args, line in [
        (["marginalize", "--query", "long"], f"{scope}: variable {'9' * 40} is not in it"),
        (["marginalize", "--query", "short"], f"{scope}: it misses variable 1"),
        (["marginalize", "--query", "overlap"], "query keys overlap: variable 1 is both integrated and fixed"),
        (["sample", "--seed", big], f"integer {'9' * 40} has more than {digits} digits"),
        (["sptree", "count", "--m", "-" + big], f"integer -{'9' * 39} has more than {digits} digits"),
    ]:
        if args[0] == "marginalize":
            args[2] = str(tmp_path / f"{args[2]}.json")
        if args[0] != "sptree":
            args.append(str(path))
        assert cli.main(args) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n"), args


def test_rank_of_equal_at_the_block_cap_fits_its_budget(tmp_path):
    # equal(24), the largest input the 12-variable block admits: one tabulation
    # of 2^24 cells, a 4,096 x 4,096 matrix and its exact rank.  About 4.2 s at
    # 273 MB peak RSS on a 2-vCPU VM; with one evaluator call per entry it took
    # 29-55 s at 1.04 GB.
    path = tmp_path / "equal24.json"
    path.write_text(serialize(build_equal(24)))
    code = (
        "import resource, sys\n"
        "from spn.cli import main\n"
        "rc = main(['rank', sys.argv[1]])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=CHILD_ENV)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout)["rank"] == 4096
    peak_mb = int(proc.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert elapsed < 20 and peak_mb < 500, (elapsed, peak_mb)


def _deep_circuit(kind):
    """x's leaf under a 10,000-deep chain of one-child sums or products, or under a
    3,000-deep DAG whose level i is level(i-1) * 1/2 + level(i-1) with one shared
    constant 1/2 (2^3000 root-to-leaf paths), times a leaf over y."""
    b = CircuitBuilder()
    x, y = b.variable([0, 1]), b.variable([0, 1])
    node = b.leaf(b.leaf_function(x, {0: 1, 1: 3}))
    if kind == "shared":
        half = b.constant(Fraction(1, 2))
        for _ in range(3000):
            node = b.sum([(b.product([node, half]), 1), (node, 1)])
    else:
        for _ in range(10_000):
            node = b.sum([(node, 1)]) if kind == "sum" else b.product([node])
    return b.build(b.product([node, b.leaf(b.leaf_function(y, {0: 2, 1: 1}))]))


@pytest.mark.parametrize("kind, scale", [("sum", 1), ("product", 1), ("shared", Fraction(3, 2) ** 3000)])
def test_deep_circuits_run_through_every_command(kind, scale, tmp_path, capsys):
    from spn import cli

    path, normalized, query = (tmp_path / name for name in ("deep.json", "normalized.json", "query.json"))
    path.write_text(serialize(_deep_circuit(kind)))
    query.write_text(json.dumps({"integrate_over": {"0": [0, 1]}, "fixed": {"1": 0}}))
    reports = {}
    for args in (
        ["check", str(path)],
        ["eval", "--assign", "0=1,1=0", str(path)],
        ["partition", str(path)],
        ["marginalize", "--query", str(query), str(path)],
        ["rank", str(path)],
        ["depth3-report", str(path)],
        ["normalize", str(path), "-o", str(normalized)],
        ["sample", "-n", "5", "--seed", "1", str(normalized)],
    ):
        start = time.perf_counter()
        rc = cli.main(args)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "") and elapsed < 5.0, (args, elapsed)
        reports[args[0]] = out
    check = json.loads(reports["check"])
    assert check["strongly_valid"] and check["set_multilinear"] and check["brute_force_valid"]
    assert json.loads(reports["eval"])["value"] == str(6 * scale)
    assert json.loads(reports["partition"])["partition_function"] == str(12 * scale)
    assert json.loads(reports["marginalize"])["value"] == str(8 * scale)
    assert json.loads(reports["depth3-report"])["min_second_layer_width"] == json.loads(reports["rank"])["rank"] == 1
    assert len(reports["sample"].splitlines()) == 5


@pytest.mark.parametrize("command", ["rank", "depth3-report"])
def test_bad_partition_fails_before_any_tabulation(command, tmp_path, monkeypatch, capsys):
    from spn import cli

    def tabulate(*args, **kwargs):
        raise SpnError("tabulated")

    monkeypatch.setattr(Circuit, "tabulate", tabulate)
    path = tmp_path / "equal.json"
    path.write_text(serialize(build_equal(4)))
    for spec, line in [
        ("A=0,0", "partition block repeats variable 0"),
        ("A=0,4", "partition variable 4 is not among the variables 0..3"),
        ("A=-1", "partition variable -1 is not among the variables 0..3"),
        ("A=x", "bad partition entry 'x'; use integers, e.g. 0,3,5"),
        ("halves", "bad partition spec 'halves'; use 'first-half' or 'A=0,1,2'"),
        ("first-half", "tabulated"),  # a good partition reaches the table
    ]:
        assert cli.main([command, "--partition", spec, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n"), spec


def _readme_caps():
    """(cap, limit, module) of each row of the README's input-caps table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Input caps\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cap, limit, _, module = (cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1])
            rows.append((cap.replace("`", ""), int(limit.split()[0].replace(",", "")), module.strip("`")))
    return rows


def test_readme_caps_table_matches_the_code(tmp_path, monkeypatch, capsys):
    import importlib

    from spn import cli, polynomial
    from spn.errors import InstanceTooLargeError
    from spn.separation import comm_matrix
    from spn.sptree import constraint_fraction_experiment
    from spn.structure import cnf_satisfiable, cnf_to_extended_spn

    def at_cap(call, cap):
        """`call` runs at `cap` and raises naming the cap just past it."""
        call(cap)
        with pytest.raises(InstanceTooLargeError, match=rf"\b{cap}\b"):
            call(cap + 1)

    def check_terms(cap):
        caps, expand = [], polynomial.expand
        monkeypatch.setattr(polynomial, "expand", lambda c, max_terms: caps.append(max_terms) or expand(c, max_terms))
        path = tmp_path / "equal.json"
        path.write_text(serialize(build_equal(2)))
        assert cli.main(["check", str(path)]) == 0
        capsys.readouterr()
        assert caps == [cap]

    # caps written as literals in the code, probed by their behavior
    probes = {
        "comm_matrix block": lambda cap: at_cap(
            lambda k: comm_matrix(lambda x: 0, k + 1, (range(k), [k])), cap
        ),
        "cnf_to_extended_spn variables": lambda cap: at_cap(lambda k: cnf_to_extended_spn([[k]]), cap),
        "cnf_satisfiable variables": lambda cap: at_cap(lambda k: cnf_satisfiable([[-1]], k), cap),
        "spn check terms": check_terms,
        "constraint_fraction_experiment vertices": lambda cap: at_cap(
            lambda m: constraint_fraction_experiment(m, 0, 0, constraints=[]), cap
        ),
    }
    rows = _readme_caps()
    named = {cap for cap, _, _ in rows if cap.isidentifier()}
    assert named == {
        "MAX_TABLE_CELLS", "MAX_TABLE_VARS", "ORACLE_MAX_VARS", "ORACLE_MAX_DOMAIN", "DEFAULT_TERM_CAP",
        "MAX_ONE_HOT_CELLS", "MAX_EQUAL_N", "MAX_VERTICES", "INT_DIGITS",
    }
    assert {cap for cap, _, _ in rows} - named == set(probes)
    for cap, limit, module in rows:
        if cap in named:
            assert getattr(importlib.import_module(module), cap) == limit, cap
        else:
            probes[cap](limit)


def test_cli_prints_exact_counts_up_to_max_vertices(capsys):
    from spn import cli
    from spn.sptree import MAX_VERTICES

    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int/str digit limit before Python 3.10.7")
    limit = sys.get_int_max_str_digits()
    counts = []
    for m in (1500, MAX_VERTICES):
        assert cli.main(["sptree", "count", "--m", str(m)]) == 0
        assert sys.get_int_max_str_digits() == limit
        counts.append(re.search(r'"count": (\d+),', capsys.readouterr().out).group(1))
    try:
        sys.set_int_max_str_digits(0)
        assert counts == [str(1500**1498), str(MAX_VERTICES ** (MAX_VERTICES - 2))]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [len(count) for count in counts] == [4758, 14790] and 14790 <= cli.INT_DIGITS


DELETED = object()


@pytest.mark.parametrize(
    "path, value, line",
    [
        (("nodes", 5, "children", 0), "x", "nodes[5].children[0]: expected an integer, got 'x'"),
        (("nodes", 6, "children"), {"0": 1}, "nodes[6].children: expected an array, got {'0': 1}"),
        (("leaf_functions", 1, "table"), DELETED, "leaf_functions[1].table: missing"),
        (("nodes", 7, "weights", 1), "1/0", "nodes[7].weights[1]: expected an exact rational, got '1/0'"),
        (("nodes", 7, "weights", 0), True, "nodes[7].weights[0]: expected an exact rational, got True"),
        (("nodes", 4, "value"), "one", "nodes[4].value: expected an exact rational, got 'one'"),
        (("variables", 2, "domain", 1), "a/b", "variables[2].domain[1]: expected an exact rational, got 'a/b'"),
        (("leaf_functions", 2, "table", "1"), 1.5, "leaf_functions[2].table.1: expected an exact rational, got 1.5"),
        (("leaf_functions", 0, "table", "x"), "1", "leaf_functions[0].table: expected an exact rational, got 'x'"),
        (("leaf_functions", 3, "name"), 7, "leaf_functions[3].name: expected a string, got 7"),
    ],
)
def test_loader_error_lines_are_pinned(path, value, line, tmp_path, capsys):
    from spn import cli

    doc = json.loads(serialize(_corpus_circuit()))
    *parents, last = path
    item = doc
    for key in parents:
        item = item[key]
    if value is DELETED:
        del item[last]
    else:
        item[last] = value
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(doc))
    for args in (["sample", "-n", "1", "--seed", "0"], ["check"]):
        assert cli.main([*args, str(circuit)]) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")
