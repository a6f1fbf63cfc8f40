"""One benchmark pass in a fresh process; prints one JSON result line.

    python3 bench/child.py <workload> <seed> <pass|trace|probe> [--quick]

`pass` times the workload's ops untraced; `trace` records spans too and
writes them to bench/traces/<workload>.jsonl; `probe` runs the known-defect
probes instead of a pass.  Set-up (importing `spn` and generating the
seeded inputs) is timed on its own, before the pass.
"""

import hashlib
import json
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import quantiles

from spans import NullTracer, Tracer, layer_metrics

CHILD_TIMEOUT_S = 170


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    quick = "--quick" in argv
    signal.alarm(CHILD_TIMEOUT_S)
    t0 = time.perf_counter()
    import numpy
    import workloads
    from spn.circuit import Circuit, serialize

    if mode == "probe":
        print(json.dumps({"known_defects": workloads.known_defect_probes()}))
        return
    work = workloads.setup(workload, seed, quick)
    setup_s = time.perf_counter() - t0

    tracer = Tracer() if mode == "trace" else NullTracer()
    outputs, errors, latencies_ns = [], [], []
    start = time.perf_counter_ns()
    for i, op in enumerate(work.ops):
        tracer.op = i
        t = time.perf_counter_ns()
        try:
            outputs.append(op.run(tracer))
            errors.append(None)
        except Exception as exc:  # an op that raises counts as failed
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies_ns.append(time.perf_counter_ns() - t)
    run_s = (time.perf_counter_ns() - start) / 1e9
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    digest = hashlib.sha256()
    for i, (op, out, err) in enumerate(zip(work.ops, outputs, errors)):
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a reference that cannot be checked is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((i, op.layer, err))
        digest.update(f"{i}:{serialize(out) if isinstance(out, Circuit) else repr(out)}\n".encode())

    latencies_ms = [ns / 1e6 for ns in latencies_ns]
    cuts = quantiles(latencies_ms, n=10, method="inclusive")
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": len(work.ops),
        "op_p50_ms": cuts[4],
        "op_p90_ms": cuts[8],
        "peak_rss_mb": peak_rss_mb,
        "failed": len(failures),
        "failed_by_layer": dict(Counter(layer for _, layer, _ in failures)),
        "failures": [f"op {i}: {err}" for i, _, err in failures[:5]],
        "outputs_sha256": digest.hexdigest(),
        "numpy": numpy.__version__,
        "nodes": work.nodes,
        "cli_stdin": work.cli_stdin,
    }
    if tracer.traced:
        result["layers"] = layer_metrics(tracer, run_s)
        tracer.write(Path(__file__).resolve().parent / "traces" / f"{workload}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
