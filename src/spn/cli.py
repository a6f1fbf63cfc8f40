"""Command-line surface: one subcommand per library operation.

Circuit-emitting subcommands print plain circuit JSON so they can be
piped into each other; analysis subcommands print a report document
embedding the config, the library version, and the exact outputs.
Identical configs (including seeds) produce byte-identical reports.
Exit codes: 0 success, 1 operational failure, 2 usage error.
Each handler imports the modules it runs, so a subcommand loads only what
it needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import InstanceTooLargeError, SpnError, TermExplosionError, echo

# most digits of an int a command parses or prints: the largest count `spn sptree count`
# prints, K_m's m^(m-2) trees at m = sptree.MAX_VERTICES, has 14,790
INT_DIGITS = 1 << 14


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
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_circuit(path: str):
    from .circuit import deserialize

    return deserialize(_read_text(path))


def _emit_report(args, command: str, payload: dict):
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "format") and v is not None
    }
    report = {"command": command, "version": __version__, "config": config}
    report.update({k: list(v) if isinstance(v, tuple) else v for k, v in payload.items()})
    if getattr(args, "format", "json") == "table":
        for key, value in report.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    print(f"{key}.{k2} = {v2}")
            else:
                print(f"{key} = {value}")
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def _parse_partition(spec: str, n: int):
    from .separation import half_partition

    if spec == "first-half":
        return half_partition(n)
    if spec.startswith("A="):
        block_a = tuple(_parse_labels(spec[2:], "partition"))
        block_b = tuple(v for v in range(n) if v not in set(block_a))
        return block_a, block_b
    raise SpnError(f"bad partition spec {echo(spec, repr)}; use 'first-half' or 'A=0,1,2'")


def _int(text: str) -> int:
    """argparse type of --n, --m and --seed: an integer.  Digits past the int/str
    digit limit raise SpnError, one `error:` line from `main` echoing 40 of them
    (argparse's usage error would echo them all); other junk is a usage error."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            raise SpnError(f"integer {echo(text)} has more than {sys.get_int_max_str_digits()} digits") from None
        raise argparse.ArgumentTypeError(f"expected an integer, got {echo(text, repr)}") from None


def _count(text: str) -> int:
    """argparse type of a number of draws: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {echo(text, repr)}")
    return _int(text)


def _parse_assignment(spec: str) -> dict:
    from .circuit import as_rational

    out = {}
    for item in spec.split(","):
        if not item:
            continue
        var, _, val = item.partition("=")
        try:
            var, val = int(var), as_rational(val)
        except (ValueError, ZeroDivisionError):
            raise SpnError(f"bad assignment {echo(item, repr)}; use var=value, e.g. 0=1,1=1/2") from None
        if var in out:
            raise SpnError(f"assignment repeats variable {echo(var)}")
        out[var] = val
    return out


# -- subcommand handlers -------------------------------------------------------


def cmd_check(args):
    from .polynomial import expand, is_set_multilinear
    from .structure import analyze, brute_force_validity

    circuit = _load_circuit(args.circuit)
    # Structural D&C analysis is defined for monotone circuits only;
    # the brute-force oracle below still applies.
    payload = {"extended": True} if circuit.extended else {**analyze(circuit)._asdict(), "extended": False}
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
    _emit_report(args, "eval", {"value": str(value)})
    return 0


def cmd_marginalize(args):
    from .circuit import _checked
    from .inference import MarginalQuery, marginalize

    circuit = _load_circuit(args.circuit)
    doc = _checked(json.loads(_read_text(args.query)), dict, "query document")
    query = MarginalQuery.of(doc.get("integrate_over", {}), doc.get("fixed", {}))
    value = marginalize(circuit, query, force=args.force)
    _emit_report(args, "marginalize", {"value": str(value)})
    return 0


def cmd_partition(args):
    from .inference import partition_function

    circuit = _load_circuit(args.circuit)
    z = partition_function(circuit, force=args.force)
    _emit_report(args, "partition", {"partition_function": str(z)})
    return 0


def cmd_normalize(args):
    from .circuit import serialize
    from .inference import normalize_weights

    circuit = _load_circuit(args.circuit)
    _write_text(args.output, serialize(normalize_weights(circuit), indent=2))
    return 0


def cmd_sample(args):
    from .inference import DistributionHandle, sample
    from .rng import seeded_stream

    circuit = _load_circuit(args.circuit)
    handle = DistributionHandle(circuit)
    rng = seeded_stream(args.seed)
    variables = sorted(circuit.dependency_scope())
    text = [{x: str(x) for x in circuit.variables[v].domain} for v in variables]  # each value formatted once
    lines = []
    for _ in range(args.count):
        assignment = sample(handle, rng)
        lines.append(",".join([t[assignment[v]] for v, t in zip(variables, text)]) + "\n")
    _write_text(args.output, "".join(lines))
    return 0


def cmd_compile(args):
    from .circuit import serialize
    from .machines import compile_fpssm, fpssm_from_json_dict

    machine = fpssm_from_json_dict(json.loads(_read_text(args.machine)))
    _write_text(args.output, serialize(compile_fpssm(machine), indent=2))
    return 0


BUILTINS = ("count-ones", "equal", "majority", "parity")  # sorted: argparse lists them in this order


def cmd_builtin(args):
    from .circuit import serialize
    from .machines import build_equal, compile_fpssm, count_ones_machine, majority_machine, parity_machine

    builders = {
        "parity": lambda n: compile_fpssm(parity_machine(n)),
        "majority": lambda n: compile_fpssm(majority_machine(n)),
        "count-ones": lambda n: compile_fpssm(count_ones_machine(n)),
        "equal": build_equal,
    }
    _write_text(args.output, serialize(builders[args.name](args.n), indent=2))
    return 0


def cmd_rank(args):
    """`rank` and `depth3-report`: the latter adds the implied width floor."""
    from .linalg import exact_rank
    from .separation import circuit_evaluator, comm_matrix

    circuit = _load_circuit(args.circuit)
    n = len(circuit.variables)
    matrix = comm_matrix(circuit_evaluator(circuit), n, _parse_partition(args.partition, n))
    payload = {"n": n, "A": matrix.block_a, "B": matrix.block_b, "rank": exact_rank(matrix.entries)}
    if args.command == "depth3-report":
        # a depth-3 D&C circuit for the function has at least rank-many second-layer products
        payload["min_second_layer_width"] = payload["rank"]
    _emit_report(args, args.command, payload)
    return 0


def cmd_decompose(args):
    from .separation import decompose

    circuit = _load_circuit(args.circuit)
    decomp = decompose(circuit)
    doc = {
        "source_size": decomp.source_size,
        "terms": [
            {
                "y": list(t.y_vars),
                "z": list(t.z_vars),
                "g_table": {
                    ",".join(map(str, key)): str(val)
                    for key, val in sorted(t.g_table.items())
                },
                "h_table": {
                    ",".join(map(str, key)): str(val)
                    for key, val in sorted(t.h_table.items())
                },
            }
            for t in decomp.terms
        ],
    }
    _write_text(args.output, json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_cnf2spn(args):
    from .circuit import serialize
    from .structure import cnf_to_extended_spn, parse_dimacs

    clauses, declared = parse_dimacs(_read_text(args.dimacs))
    _write_text(args.output, serialize(cnf_to_extended_spn(clauses, declared), indent=2))
    return 0


def cmd_sptree_count(args):
    from .sptree import PartialAssignment, count_consistent_trees

    values = dict.fromkeys(_parse_labels(args.present, "--present"), 1)
    absent = _parse_labels(args.absent, "--absent")
    both = sorted(set(values) & set(absent))
    if both:
        raise SpnError(f"edge {echo(both[0])} is given as both present and absent")
    values.update(dict.fromkeys(absent, 0))
    count = count_consistent_trees(args.m, PartialAssignment(values))
    total = args.m ** (args.m - 2)
    _emit_report(
        args,
        "sptree-count",
        {"count": count, "normalized": str(Fraction(count, total)), "total_trees": total},
    )
    return 0


def cmd_sptree_sample(args):
    from .sptree import EdgeIndexing, iter_trees

    trees = iter_trees(args.m, args.count, args.seed)  # checks m before the row below is built
    zeros = ["0"] * EdgeIndexing(args.m).n
    lines = []
    for tree in trees:
        row = zeros.copy()
        for label in tree.edges:
            row[label] = "1"
        lines.append(",".join(row) + "\n")
    _write_text(args.output, "".join(lines))
    return 0


def cmd_sptree_triangles(args):
    from .sptree import count_dichromatic_triangles

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
    from .sptree import constraint_fraction_experiment

    coloring = json.loads(_read_text(args.coloring))
    report = constraint_fraction_experiment(
        args.m, args.samples, args.seed, coloring=coloring, strategy=args.strategy
    )
    _emit_report(args, "sptree-fraction-experiment", report)
    return 0


def _parse_labels(spec: str | None, what: str) -> list[int]:
    """Comma-separated integers; `what` names the option in the error."""
    labels = []
    for token in (spec or "").split(","):
        if token == "":
            continue
        try:
            labels.append(int(token))
        except ValueError:
            raise SpnError(f"bad {what} entry {echo(token, repr)}; use integers, e.g. 0,3,5") from None
    return labels


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves it unchanged."""
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
    p.add_argument("-n", "--count", type=_count, default=1)
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("-o", "--output", default=None)

    p = add("compile", cmd_compile, help="compile a machine description to a circuit")
    p.add_argument("kind", choices=["fpssm"])
    p.add_argument("machine", help="machine JSON path or '-'")
    p.add_argument("-o", "--output", default=None)

    p = add("builtin", cmd_builtin, help="emit a built-in circuit")
    p.add_argument("name", choices=BUILTINS)
    p.add_argument("--n", type=_int, required=True)
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
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--present", default=None, help="comma-separated edge labels forced present")
    p.add_argument("--absent", default=None, help="comma-separated edge labels forced absent")
    format_flag(p)

    p = ssub.add_parser("sample", help="uniform spanning trees (edge-indicator CSV)")
    p.set_defaults(func=cmd_sptree_sample)
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("-n", "--count", type=_count, default=1)
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("-o", "--output", default=None)

    p = ssub.add_parser("triangles", help="dichromatic-triangle counts for a coloring")
    p.set_defaults(func=cmd_sptree_triangles)
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--coloring", required=True, help="JSON array of 'r'/'b' in edge-label order")
    format_flag(p)

    p = ssub.add_parser("fraction-experiment", help="constraint-obedience fraction of sampled trees")
    p.set_defaults(func=cmd_sptree_fraction)
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("-n", "--samples", type=_count, default=10000)
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("--strategy", choices=["pair", "single"], default="pair")
    format_flag(p)

    return parser


def main(argv=None) -> int:
    # ints of up to INT_DIGITS digits parse and print while a command runs (the limit exists
    # from 3.10.7); a finite bound keeps parsing a huge literal from taking quadratic time.
    # Options are parsed first, under the interpreter's limit (see `_int`).
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = 0 < digits < INT_DIGITS
    try:
        args = build_parser().parse_args(argv)
        if lift:
            sys.set_int_max_str_digits(INT_DIGITS)
        return args.func(args)
    except (SpnError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if lift:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
