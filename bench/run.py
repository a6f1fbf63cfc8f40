"""Benchmark of the exact SPN toolkit: four seeded workloads, end to end and per layer.

    python3 bench/run.py --workload <validity|lowerbound|inference|sptree> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --self-check

Each pass runs in its own child process (bench/child.py), one at a time:
the child imports `spn`, builds the workload's seeded inputs (set-up), runs
every op once (the pass), then checks each op's exact output against an
independent reference.  Between passes the workload's CLI pipeline runs as
`python -m spn.cli`, stage after stage.  Passes and pipelines repeat until
`--seconds` have passed; every metric is the median over the repeats.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` traced and untraced passes alternate and it carries the
per-layer metrics.  The line before it is a report with the run's context,
each pass, the known-defect probes and a SHA-256 of all exact outputs.
`--self-check` runs every workload once at minimal size and checks that
every metric named in BENCHMARK.json is reported and that no op fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("validity", "lowerbound", "inference", "sptree")
MIN_REPEATS = 3  # passes and pipelines per run; 2 of each kind when tracing
MAX_LOOP_S = 120
CHILD_TIMEOUT_S = 175
LAYERS = ("circuit", "structure", "polynomial", "inference", "machines", "separation", "linalg", "sptree", "cli")
CLI_STAGES = ("check", "builtin", "rank", "normalize", "sample", "sptree_count", "sptree_sample")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- CLI pipelines and their references ----------------------------------------------


def _is_tree_row(m, row) -> bool:
    """Edge-indicator row of K_m (lexicographic labels) is a spanning tree."""
    pairs = [p for p, bit in zip(combinations(range(m), 2), row.split(",")) if bit == "1"]
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return len(pairs) == m - 1


def _has_density(n, row) -> bool:
    """A draw from equal(n) is non-zero iff the halves agree."""
    x = row.split(",")
    return len(x) == n and x[: n // 2] == x[n // 2 :]


def pipeline(workload, seed, quick):
    """Stages as (name, CLI arguments, reads previous stdout, check(stdout) -> ok)."""
    if workload == "validity":
        # tests/genutil.incomplete_valid_fixture: valid, yet neither decomposable nor complete
        verdicts = {"decomposable": False, "complete": False, "set_multilinear": False, "brute_force_valid": True}
        return [("check", ["check"], True, lambda out: all(json.loads(out)[k] == v for k, v in verdicts.items()))]
    if workload == "lowerbound":
        n = 8 if quick else 12
        return [
            ("builtin", ["builtin", "equal", "--n", str(n)], False, lambda out: True),
            ("rank", ["rank"], True, lambda out: json.loads(out)["rank"] == 2 ** (n // 2)),
        ]
    if workload == "inference":
        n, draws = (10, 20) if quick else (60, 200)
        return [
            ("builtin", ["builtin", "equal", "--n", str(n)], False, lambda out: True),
            ("normalize", ["normalize"], True, lambda out: True),
            (
                "sample",
                ["sample", "-n", str(draws), "--seed", str(seed)],
                True,
                lambda out: len(out.splitlines()) == draws and all(_has_density(n, r) for r in out.splitlines()),
            ),
        ]
    m_count, m_tree, trees = 60, 20, (50 if quick else 1000)
    return [
        ("sptree_count", ["sptree", "count", "--m", str(m_count)], False, lambda out: json.loads(out)["count"] == m_count ** (m_count - 2)),
        (
            "sptree_sample",
            ["sptree", "sample", "--m", str(m_tree), "-n", str(trees), "--seed", str(seed)],
            False,
            lambda out: len(out.splitlines()) == trees and all(_is_tree_row(m_tree, r) for r in out.splitlines()),
        ),
    ]


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(args, stdin=None):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spn.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def run_pipeline(stages, first_stdin) -> dict:
    """Stage wall times, interpreter start included, the failed stages and an output digest."""
    times, failed = {}, []
    digest = hashlib.sha256()
    stdin = first_stdin
    for name, args, piped, check in stages:
        elapsed, proc = run_cli(args, stdin if piped else None)
        times[name] = elapsed
        digest.update(proc.stdout.encode())
        try:
            ok = proc.returncode == 0 and check(proc.stdout)
        except (ValueError, KeyError, IndexError):
            ok = False
        if not ok:
            failed.append(f"{name}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
        stdin = proc.stdout
    return {"cli_s": sum(times.values()), "stages": times, "failed": failed, "sha256": digest.hexdigest()}


def run_child(workload, seed, mode, quick=False) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# -- one run ---------------------------------------------------------------------------


def context() -> dict:
    def first(path, prefix):
        try:
            with open(path) as fh:
                return next((line.split(":", 1)[1].strip() for line in fh if line.startswith(prefix)), None)
        except OSError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        sha = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "loadavg_at_start": os.getloadavg(),
        "src_lines": src_lines,
    }


def measure(workload, seed, seconds, trace, quick=False) -> tuple[dict, dict]:
    """Run passes and pipelines until `seconds` pass; returns (result line, report)."""
    ctx = context()
    startup = [run_cli(["--version"])[0]]  # also compiles the package's bytecode once
    stages = pipeline(workload, seed, quick)
    modes = ["pass", "trace"] if trace else ["pass"]
    repeats = 1 if quick else 2 if trace else MIN_REPEATS
    passes = {mode: [] for mode in modes}
    pipelines = []
    start = time.perf_counter()
    while len(pipelines) < repeats or time.perf_counter() - start < min(seconds, MAX_LOOP_S):
        for mode in modes:
            passes[mode].append(run_child(workload, seed, mode, quick))
        pipelines.append(run_pipeline(stages, passes["pass"][0]["cli_stdin"]))
        if trace:
            startup.append(run_cli(["--version"])[0])
    probes = run_child(workload, seed, "probe", quick)["known_defects"] if workload == "inference" else []

    all_passes = [p for mode in modes for p in passes[mode]]
    digests = sorted({p["outputs_sha256"] for p in all_passes})
    cli_digests = sorted({p["sha256"] for p in pipelines})
    cli_failed = [f for p in pipelines for f in p["failed"]]
    attempted = sum(p["ops"] for p in all_passes) + len(pipelines) * len(stages)
    failed = sum(p["failed"] for p in all_passes) + len(cli_failed)
    untraced = passes["pass"]

    if trace:
        traced = passes["trace"]
        metrics = {k: median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        by_layer = Counter()
        for p in all_passes:
            by_layer.update(p["failed_by_layer"])
        by_layer["cli"] += len(cli_failed)
        metrics.update({f"{layer}.failed": by_layer[layer] for layer in LAYERS})
        metrics["cli.startup_s"] = median(startup)
        for name in CLI_STAGES:
            metrics[f"cli.{name}_s"] = median(p["stages"][name] for p in pipelines) if name in pipelines[0]["stages"] else 0.0
        metrics["trace.overhead_s"] = median(p["run_s"] for p in traced) - median(p["run_s"] for p in untraced)
    else:
        metrics = {
            "setup_s": median(p["setup_s"] for p in untraced),
            "run_s": median(p["run_s"] for p in untraced),
            "ops_per_s": median(p["ops"] / p["run_s"] for p in untraced),
            "op_p50_ms": median(p["op_p50_ms"] for p in untraced),
            "op_p90_ms": median(p["op_p90_ms"] for p in untraced),
            "cli_s": median(p["cli_s"] for p in pipelines),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
        }
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0 and len(digests) == 1 and len(cli_digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    ctx.update(numpy=untraced[0]["numpy"], builtin_nodes=untraced[0]["nodes"])
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "context": ctx,
        "ops_per_pass": untraced[0]["ops"],
        "fail_ratio": failed / attempted,
        "outputs_sha256": digests[0] if len(digests) == 1 else digests,
        "cli_outputs_sha256": cli_digests[0] if len(cli_digests) == 1 else cli_digests,
        "known_defects": probes,
        "failures": [f for p in all_passes for f in p["failures"]][:10] + cli_failed[:10],
        "passes": [{k: p[k] for k in ("setup_s", "run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")} for p in all_passes],
        "cli": [{"cli_s": p["cli_s"], **p["stages"]} for p in pipelines],
    }
    return result, report


def self_check() -> int:
    """Every workload once at minimal size: all metric names present, no op failing."""
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, report = measure(workload, 1, 0, trace, quick=True)
            missing = [m["name"] for m in SPEC[kind] if m["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{workload}: {kind} metrics missing: {missing}")
            if report["fail_ratio"] != 0 or not result["correct"]:
                problems.append(f"{workload}: fail_ratio {report['fail_ratio']}, failures {report['failures']}")
            print(f"{workload:10s} trace={int(trace)} fail_ratio={report['fail_ratio']} metrics={len(result['metrics'])}")
        if workload == "inference" and not report["known_defects"]:
            problems.append("inference: known-defect probes missing")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spn").is_dir() or not (ROOT / "tests" / "genutil.py").is_file():
        print("error: run from a checkout holding src/spn and tests/genutil.py", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

if __name__ == "__main__":
    sys.exit(main())
