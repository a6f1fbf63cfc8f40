"""Command-line surface: one subcommand per library operation.

Circuit-emitting subcommands print plain circuit JSON so they can be
piped into each other; analysis subcommands print a report document
embedding the config, the library version, and the exact outputs.
Identical configs (including seeds) produce byte-identical reports.
Exit codes: 0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .circuit import _checked, as_fraction, deserialize, format_rational, serialize
from .errors import SpnError
from .inference import (
    DistributionHandle,
    MarginalQuery,
    marginalize,
    normalize_weights,
    partition_function,
    sample,
)
from .machines import (
    build_equal,
    compile_fpssm,
    count_ones_machine,
    fpssm_from_json_dict,
    majority_machine,
    parity_machine,
)
from .polynomial import expand, is_set_multilinear
from .rng import make_rng
from .separation import (
    circuit_evaluator,
    decompose,
    depth3_bound_report,
    half_partition,
)
from .sptree import (
    EdgeIndexing,
    PartialAssignment,
    constraint_fraction_experiment,
    count_consistent_trees,
    count_dichromatic_triangles,
    marginal as sptree_marginal,
    sample_tree,
)
from .structure import (
    analyze,
    brute_force_validity,
    cnf_to_extended_spn,
    parse_dimacs,
)
from .errors import InstanceTooLargeError, TermExplosionError


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_text(path: str | None, text: str):
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_circuit(path: str):
    return deserialize(_read_text(path))


def _emit_report(args, command: str, payload: dict):
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "format") and v is not None
    }
    report = {"command": command, "version": __version__, "config": config}
    report.update(payload)
    if getattr(args, "format", "json") == "table":
        for key, value in report.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    print(f"{key}.{k2} = {v2}")
            else:
                print(f"{key} = {value}")
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _parse_partition(spec: str, n: int):
    if spec == "first-half":
        return half_partition(n)
    if spec.startswith("A="):
        block_a = tuple(int(t) for t in spec[2:].split(",") if t != "")
        block_b = tuple(v for v in range(n) if v not in set(block_a))
        return block_a, block_b
    raise SpnError(f"bad partition spec {spec!r}; use 'first-half' or 'A=0,1,2'")


def _parse_assignment(spec: str) -> dict:
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        var, _, val = item.partition("=")
        try:
            out[int(var)] = as_fraction(val)
        except (ValueError, ZeroDivisionError):
            raise SpnError(f"bad assignment {item!r}; use var=value, e.g. 0=1,1=1/2") from None
    return out


# -- subcommand handlers -------------------------------------------------------


def cmd_check(args):
    circuit = _load_circuit(args.circuit)
    if circuit.extended:
        # Structural D&C analysis is defined for monotone circuits only;
        # the brute-force oracle below still applies.
        payload = {"extended": True}
    else:
        report = analyze(circuit)
        payload = {
            "decomposable": report.decomposable,
            "decomposability_violations": list(report.decomposability_violations),
            "complete": report.complete,
            "completeness_violations": list(report.completeness_violations),
            "non_degenerate": report.non_degenerate,
            "degeneracy_offenders": list(report.degeneracy_offenders),
            "all_variables_nontrivial": report.all_variables_nontrivial,
            "strongly_valid": report.strongly_valid,
            "extended": False,
        }
    try:
        expanded = expand(circuit, max_terms=20000)
        payload["set_multilinear"] = is_set_multilinear(expanded)
        if args.dump_polynomial:
            payload["output_polynomial"] = expanded.dump().splitlines()
    except TermExplosionError:
        payload["set_multilinear"] = None
    try:
        payload["brute_force_valid"] = brute_force_validity(circuit)
    except InstanceTooLargeError:
        payload["brute_force_valid"] = None
    if args.audit and not circuit.extended and payload["set_multilinear"] is not None:
        if payload["set_multilinear"] != payload["strongly_valid"]:
            if payload["non_degenerate"] and payload["all_variables_nontrivial"]:
                raise SpnError("audit failure: structural and polynomial checks disagree")
    _emit_report(args, "check", payload)
    return 0


def cmd_eval(args):
    circuit = _load_circuit(args.circuit)
    value = circuit.evaluate(_parse_assignment(args.assign))
    _emit_report(args, "eval", {"value": format_rational(value)})
    return 0


def cmd_marginalize(args):
    circuit = _load_circuit(args.circuit)
    doc = _checked(json.loads(_read_text(args.query)), dict, "query document")
    query = MarginalQuery.of(doc.get("integrate_over", {}), doc.get("fixed", {}))
    value = marginalize(circuit, query, force=args.force)
    _emit_report(args, "marginalize", {"value": format_rational(value)})
    return 0


def cmd_partition(args):
    circuit = _load_circuit(args.circuit)
    z = partition_function(circuit, force=args.force)
    _emit_report(args, "partition", {"partition_function": format_rational(z)})
    return 0


def cmd_normalize(args):
    circuit = _load_circuit(args.circuit)
    _write_text(args.output, serialize(normalize_weights(circuit), indent=2))
    return 0


def cmd_sample(args):
    circuit = _load_circuit(args.circuit)
    handle = DistributionHandle(circuit)
    rng = make_rng(args.seed)
    variables = sorted(circuit.dependency_scope())
    lines = []
    for _ in range(args.count):
        assignment = sample(handle, rng)
        lines.append(",".join(format_rational(assignment[v]) for v in variables))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_compile(args):
    if args.kind != "fpssm":
        raise SpnError(f"unknown machine kind {args.kind!r}")
    machine = fpssm_from_json_dict(json.loads(_read_text(args.machine)))
    _write_text(args.output, serialize(compile_fpssm(machine), indent=2))
    return 0


BUILTINS = {
    "parity": lambda n: compile_fpssm(parity_machine(n)),
    "majority": lambda n: compile_fpssm(majority_machine(n)),
    "count-ones": lambda n: compile_fpssm(count_ones_machine(n)),
    "equal": build_equal,
}


def cmd_builtin(args):
    _write_text(args.output, serialize(BUILTINS[args.name](args.n), indent=2))
    return 0


def cmd_rank(args):
    """`rank` and `depth3-report`: the latter adds the implied width floor."""
    circuit = _load_circuit(args.circuit)
    n = len(circuit.variables)
    report = depth3_bound_report(circuit_evaluator(circuit), n, _parse_partition(args.partition, n))
    payload = {"n": n, **report["partition"], "rank": report["rank"]}
    if args.command == "depth3-report":
        payload["min_second_layer_width"] = report["min_second_layer_width"]
    _emit_report(args, args.command, payload)
    return 0


def cmd_decompose(args):
    circuit = _load_circuit(args.circuit)
    decomp = decompose(circuit)
    doc = {
        "source_size": decomp.source_size,
        "terms": [
            {
                "y": list(t.y_vars),
                "z": list(t.z_vars),
                "g_table": {
                    ",".join(map(format_rational, key)): format_rational(val)
                    for key, val in sorted(t.g_table.items())
                },
                "h_table": {
                    ",".join(map(format_rational, key)): format_rational(val)
                    for key, val in sorted(t.h_table.items())
                },
            }
            for t in decomp.terms
        ],
    }
    _write_text(args.output, json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_cnf2spn(args):
    clauses, declared = parse_dimacs(_read_text(args.dimacs))
    _write_text(args.output, serialize(cnf_to_extended_spn(clauses, declared), indent=2))
    return 0


def cmd_sptree_count(args):
    values = {}
    for label in _parse_labels(args.present):
        values[label] = 1
    for label in _parse_labels(args.absent):
        values[label] = 0
    partial = PartialAssignment(values)
    count = count_consistent_trees(args.m, partial)
    _emit_report(
        args,
        "sptree-count",
        {
            "count": count,
            "normalized": format_rational(sptree_marginal(args.m, partial, normalized=True)),
            "total_trees": args.m ** (args.m - 2),
        },
    )
    return 0


def cmd_sptree_sample(args):
    rng = make_rng(args.seed)
    idx = EdgeIndexing(args.m)
    lines = []
    for _ in range(args.count):
        tree = sample_tree(args.m, rng)
        lines.append(",".join("1" if l in tree.edges else "0" for l in range(idx.n)))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_sptree_triangles(args):
    coloring = json.loads(_read_text(args.coloring))
    dichromatic = count_dichromatic_triangles(args.m, coloring)
    total = math.comb(args.m, 3)
    _emit_report(
        args,
        "sptree-triangles",
        {
            "dichromatic": dichromatic,
            "monochromatic": total - dichromatic,
            "total": total,
            "m3_over_60_floor": math.ceil(args.m**3 / 60),
        },
    )
    return 0


def cmd_sptree_fraction(args):
    coloring = json.loads(_read_text(args.coloring))
    report = constraint_fraction_experiment(
        args.m, args.samples, args.seed, coloring=coloring, strategy=args.strategy
    )
    _emit_report(args, "sptree-fraction-experiment", report)
    return 0


def _parse_labels(spec: str | None) -> list[int]:
    if not spec:
        return []
    return [int(t) for t in spec.split(",") if t != ""]


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spn",
        description="Exact sum-product-network toolkit: analysis, inference, compilers, bounds.",
    )
    parser.add_argument("--version", action="version", version=f"spn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        return p

    def circuit_arg(p):
        p.add_argument("circuit", nargs="?", default="-", help="circuit JSON path or '-' for stdin")

    def format_flag(p):
        p.add_argument("--format", choices=["json", "table"], default="json")

    p = add("check", cmd_check, help="structural validity report")
    circuit_arg(p)
    p.add_argument("--audit", action="store_true", help="cross-check against the output polynomial")
    p.add_argument(
        "--dump-polynomial",
        action="store_true",
        help="include the expanded output polynomial, one sorted term per line",
    )
    format_flag(p)

    p = add("eval", cmd_eval, help="evaluate at a full assignment")
    circuit_arg(p)
    p.add_argument("--assign", required=True, help="e.g. 0=1,1=0")
    format_flag(p)

    p = add("marginalize", cmd_marginalize, help="exact marginal for a query document")
    circuit_arg(p)
    p.add_argument("--query", required=True, help="query JSON path")
    p.add_argument("--force", action="store_true", help="skip the D&C validity gate")
    format_flag(p)

    p = add("partition", cmd_partition, help="partition function")
    circuit_arg(p)
    p.add_argument("--force", action="store_true")
    format_flag(p)

    p = add("normalize", cmd_normalize, help="weight-normalized equivalent circuit")
    circuit_arg(p)
    p.add_argument("-o", "--output", default=None)

    p = add("sample", cmd_sample, help="draw assignments (CSV, one per line)")
    circuit_arg(p)
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)

    p = add("compile", cmd_compile, help="compile a machine description to a circuit")
    p.add_argument("kind", choices=["fpssm"])
    p.add_argument("machine", help="machine JSON path or '-'")
    p.add_argument("-o", "--output", default=None)

    p = add("builtin", cmd_builtin, help="emit a built-in circuit")
    p.add_argument("name", choices=sorted(BUILTINS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)

    p = add("rank", cmd_rank, help="exact communication-matrix rank")
    circuit_arg(p)
    p.add_argument("--partition", default="first-half")
    format_flag(p)

    p = add("depth3-report", cmd_rank, help="rank and implied depth-3 width floor")
    circuit_arg(p)
    p.add_argument("--partition", default="first-half")
    format_flag(p)

    p = add("decompose", cmd_decompose, help="balanced product-term decomposition")
    circuit_arg(p)
    p.add_argument("-o", "--output", default=None)

    p = add("cnf2spn", cmd_cnf2spn, help="DIMACS CNF to extended circuit")
    p.add_argument("dimacs", nargs="?", default="-")
    p.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("sptree", help="spanning-tree density operations")
    ssub = sp.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("count", help="consistent spanning trees for a partial assignment")
    p.set_defaults(func=cmd_sptree_count)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--present", default=None, help="comma-separated edge labels forced present")
    p.add_argument("--absent", default=None, help="comma-separated edge labels forced absent")
    format_flag(p)

    p = ssub.add_parser("sample", help="uniform spanning trees (edge-indicator CSV)")
    p.set_defaults(func=cmd_sptree_sample)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)

    p = ssub.add_parser("triangles", help="dichromatic-triangle counts for a coloring")
    p.set_defaults(func=cmd_sptree_triangles)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coloring", required=True, help="JSON array of 'r'/'b' in edge-label order")
    format_flag(p)

    p = ssub.add_parser("fraction-experiment", help="constraint-obedience fraction of sampled trees")
    p.set_defaults(func=cmd_sptree_fraction)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("-n", "--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--strategy", choices=["pair", "single"], default="pair")
    format_flag(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
