"""The four benchmark workloads: seeded inputs, timed ops and their references.

`setup(workload, seed, quick)` builds a workload's inputs from the seed and
returns its ops.  An op is one short sequence of calls into `spn`; it
returns its exact output, which is checked after the timed pass against a
reference that does not go through the code under test: a closed form,
an oracle from `tests/genutil.py`, or a second, independent path.

Every circuit an op touches is built or deserialized for that op and used
once, and every pass runs in a fresh process, so per-instance caches
(`Circuit._scopes`, `Circuit._plan`) are always cold, as for a CLI user.

Op counts are fixed per workload and the seed only varies values, so the
work in a pass barely changes from seed to seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product as iter_product
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from spn.circuit import CircuitBuilder, deserialize, serialize  # noqa: E402
from spn.inference import (  # noqa: E402
    DistributionHandle,
    MarginalQuery,
    apply_integration,
    marginalize,
    normalize_weights,
    partition_function,
    sample,
)
from spn.machines import (  # noqa: E402
    build_equal,
    compile_fpssm,
    count_ones_machine,
    majority_machine,
    parity_machine,
)
from spn.polynomial import expand, is_set_multilinear  # noqa: E402
from spn.rng import make_rng  # noqa: E402
from spn.separation import (  # noqa: E402
    circuit_evaluator,
    comm_matrix,
    decompose,
    exact_rank,
    half_partition,
    perturbation_rank_bound,
)
from spn.sptree import (  # noqa: E402
    EdgeIndexing,
    PartialAssignment,
    constraint_fraction_experiment,
    count_consistent_trees,
    count_dichromatic_triangles,
    sample_tree,
)
from spn.structure import (  # noqa: E402
    brute_force_validity,
    check_complete,
    check_decomposable,
    is_dc,
)

from genutil import (  # noqa: E402
    brute_triangle_count,
    exhaustive_marginal,
    incomplete_valid_fixture,
    random_dc_circuit,
    random_free_circuit,
    randomize_tables,
    rank_oracle,
)


@dataclass
class Op:
    layer: str  # the layer a failure of this op is charged to
    run: Callable  # run(tracer) -> exact output
    check: Callable  # check(output) -> None when it matches the reference, else a reason


@dataclass
class Workload:
    ops: list[Op]
    nodes: dict[str, int]  # node counts of the built-ins, filled in as the ops build them
    cli_stdin: str | None = None  # stdin of the first CLI stage, if it reads one


def setup(name: str, seed: int, quick: bool) -> Workload:
    return SETUPS[name](make_rng(seed), quick)


def _scaled(count: int, quick: bool) -> int:
    return max(1, count // 8) if quick else count


def _expect(ok: bool, reason: str):
    return None if ok else reason


# -- validity -------------------------------------------------------------------

# (variables, domain size, circuits per pass) of the D&C stream.  The counts
# put op_p50 inside the middle shapes and op_p90 inside the (4, 2) shape,
# away from the cost jumps between shapes.
DC_SHAPES = ((2, 2, 10), (2, 3, 25), (3, 2, 25), (4, 2, 20))
FREE_CIRCUITS = 30
DC_TABLES = 2
FREE_TABLES = 3


def _reference_validity(circuit) -> bool:
    """The validity identity, with genutil's exhaustive marginal on one side and
    the circuit with integrated leaf tables replaced by partial sums on the other."""
    dep = sorted(circuit.dependency_scope())
    domains = {v: circuit.variables[v].domain for v in dep}
    subsets = {v: [s for r in range(1, len(d) + 1) for s in combinations(d, r)] for v, d in domains.items()}
    for r in range(1, len(dep) + 1):
        for integrated in combinations(dep, r):
            rest = [v for v in dep if v not in integrated]
            for chosen in iter_product(*(subsets[v] for v in integrated)):
                sets = dict(zip(integrated, chosen))
                substituted = apply_integration(circuit, sets)
                for values in iter_product(*(domains[v] for v in rest)):
                    fixed = dict(zip(rest, values))
                    point = {**fixed, **{v: domains[v][0] for v in integrated}}
                    if exhaustive_marginal(circuit, sets, fixed) != substituted.evaluate(point):
                        return False
    return True


def _validity_op(kind: str, circuit, tables) -> Op:
    def run(T):
        dec = T.call("structure.check_decomposable", check_decomposable, circuit)[0]
        com = T.call("structure.check_complete", check_complete, circuit)[0]
        poly = T.call("polynomial.expand", expand, circuit)
        T.count("polynomial.terms", len(poly.terms))
        sml = T.call("polynomial.is_set_multilinear", is_set_multilinear, poly)
        verdicts = []
        for table in tables:
            verdicts.append(T.call("structure.brute_force_validity", brute_force_validity, table))
            if not verdicts[-1] and not (dec and com):
                break  # a witness table settles a non-D&C circuit
        return dec and com, sml, tuple(verdicts)

    def check(out):
        structural, sml, verdicts = out
        if structural != sml:
            return "structural D&C and set-multilinearity disagree"
        if kind == "dc":
            if not structural:
                return "generated D&C circuit judged not D&C"
            return _expect(all(verdicts), "D&C circuit failed the validity oracle")
        reference = [_reference_validity(table) for table in tables[: len(verdicts)]]
        return _expect(list(verdicts) == reference, "oracle verdicts differ from the reference identity")

    return Op("structure", run, check)


def _validity(rng, quick) -> Workload:
    ops = []
    for n, domain_size, count in DC_SHAPES:
        for _ in range(_scaled(count, quick)):
            c = random_dc_circuit(rng, n=n, domain_size=domain_size, max_size=15)
            tables = [randomize_tables(c, rng, lo=0, hi=4) for _ in range(DC_TABLES)]
            ops.append(_validity_op("dc", c, tables))
    for _ in range(_scaled(FREE_CIRCUITS, quick)):
        c = random_free_circuit(rng, max_vars=4, max_domain=2)
        tables = [randomize_tables(c, rng, lo=1, hi=5) for _ in range(FREE_TABLES)]
        ops.append(_validity_op("free", c, tables))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, {}, serialize(incomplete_valid_fixture()))


# -- lowerbound -----------------------------------------------------------------


def _equal_fn(n):
    half = n // 2
    return lambda x: int(all(x[i] == x[i + half] for i in range(half)))


# name -> (circuit builder, closed-form function, closed-form rank for blocks A, B)
RANK_FUNCTIONS = {
    "equal": (
        build_equal,
        _equal_fn,
        lambda n, a, b: 2 ** sum((i in a) != (i + n // 2 in a) for i in range(n // 2)),
    ),
    "parity": (
        lambda n: compile_fpssm(parity_machine(n)),
        lambda n: lambda x: sum(x) % 2,
        lambda n, a, b: 2,
    ),
    "majority": (
        lambda n: compile_fpssm(majority_machine(n)),
        lambda n: lambda x: int(2 * sum(x) >= n),
        lambda n, a, b: min(len(a), len(b)) + 1,
    ),
}
# Op strata, cheapest first: (sizes k, density, count) perturbation bounds,
# then random D&C decompositions, then (function, n, count) rank queries.
# op_p50 falls inside the dense bounds and op_p90 inside the rank queries.
# The dense sizes cycle by op index, so op costs spread smoothly around
# op_p50 and it moves in proportion when part of a pass runs faster, rather
# than jumping between two levels.  The sparse matrices keep the bound
# positive, so the oracle rank is compared; the dense ones make the audit's
# exact rank do real elimination.
PERTURBATIONS = (((12,), 0.05, 30), ((16, 18, 20, 22, 24), 0.3, 40))
DECOMPOSE_N = 7
DECOMPOSITIONS = 25
RANK_QUERIES = (("equal", 10, 15), ("majority", 6, 3), ("parity", 10, 2))


def _tabulate(fn, n, block_a, block_b):
    """Communication matrix built directly, without `comm_matrix`."""
    rows = []
    for r in range(1 << len(block_a)):
        row = []
        for c in range(1 << len(block_b)):
            x = [0] * n
            for i, v in enumerate(block_a):
                x[v] = (r >> i) & 1
            for i, v in enumerate(block_b):
                x[v] = (c >> i) & 1
            row.append(fn(tuple(x)))
        rows.append(tuple(row))
    return tuple(rows)


def _rank_op(name, n, partition, nodes) -> Op:
    build, closed_fn, closed_rank = RANK_FUNCTIONS[name]
    span = "machines.build_equal" if name == "equal" else "machines.compile_fpssm"

    def run(T):
        circuit = T.call(span, build, n)
        nodes[f"{name}({n})"] = len(circuit.nodes)
        T.count("machines.nodes", len(circuit.nodes))
        fn = T.wrap("circuit.evaluate", circuit_evaluator(circuit))
        matrix = T.call("separation.comm_matrix", comm_matrix, fn, n, partition)
        rank = T.call("linalg.exact_rank", exact_rank, [list(row) for row in matrix.entries])
        return rank, matrix.entries

    def check(out):
        rank, entries = out
        a, b = sorted(partition[0]), sorted(partition[1])
        if entries != _tabulate(closed_fn(n), n, a, b):
            return f"{name}({n}) matrix differs from the closed form"
        return _expect(rank == closed_rank(n, set(a), set(b)), f"{name}({n}) rank {rank} is wrong")

    return Op("separation", run, check)


def _perturbation_op(d) -> Op:
    def run(T):
        return T.call("separation.perturbation_rank_bound", perturbation_rank_bound, d, audit=True)

    def check(bound):
        k = len(d)
        if bound != Fraction(k - sum(abs(x) for row in d for x in row)) / 2:
            return "perturbation bound differs from (k - Delta) / 2"
        if bound <= 0:
            return None  # holds for every rank
        eye_plus = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(d)]
        return _expect(bound <= rank_oracle(eye_plus), "bound exceeds the oracle rank")

    return Op("separation", run, check)


def _decompose_op(circuit) -> Op:
    def run(T):
        decomp = T.call("separation.decompose", decompose, circuit)
        T.count("separation.terms", len(decomp.terms))
        return tuple(
            (t.y_vars, t.z_vars, tuple(sorted(t.g_table.items())), tuple(sorted(t.h_table.items())))
            for t in decomp.terms
        )

    def check(terms):
        n = len(circuit.variables)
        if len(terms) > len(circuit.nodes) ** 2:
            return "more than size^2 terms"
        tables = [(y, z, dict(g), dict(h)) for y, z, g, h in terms]
        if not all(n <= 3 * len(y) <= 2 * n and n <= 3 * len(z) <= 2 * n for y, z, _, _ in tables):
            return "unbalanced term scopes"
        for x in iter_product(*(v.domain for v in circuit.variables)):
            total = sum(g[tuple(x[v] for v in y)] * h[tuple(x[v] for v in z)] for y, z, g, h in tables)
            if total != circuit.evaluate(x):
                return f"terms do not reconstruct the circuit at {x}"
        return None

    return Op("separation", run, check)


def _lowerbound(rng, quick) -> Workload:
    ops, nodes = [], {}
    for name, n, count in RANK_QUERIES:
        for i in range(_scaled(count, quick)):
            if name == "equal" and i == 0:
                partition = half_partition(n)
            else:
                perm = [int(v) for v in rng.permutation(n)]
                partition = (tuple(sorted(perm[: n // 2])), tuple(sorted(perm[n // 2 :])))
            ops.append(_rank_op(name, n, partition, nodes))
    for sizes, density, count in PERTURBATIONS:
        for i in range(_scaled(count, quick)):
            k = sizes[i % len(sizes)]
            d = [
                [
                    Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))) if rng.random() < density else Fraction(0)
                    for _ in range(k)
                ]
                for _ in range(k)
            ]
            ops.append(_perturbation_op(d))
    for _ in range(_scaled(DECOMPOSITIONS, quick)):
        ops.append(_decompose_op(random_dc_circuit(rng, n=DECOMPOSE_N, max_size=40)))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, nodes)


# -- inference ------------------------------------------------------------------

# (built-in, n, marginal queries per pass), and their closed-form integrals:
# `fixed_ones` ones are fixed and `free` variables range over {0, 1}.
# The draw ops are the largest stratum, so op_p50 and op_p90 both fall in
# it; op i takes 1 + i % 5 draws, which spreads their costs smoothly.
MACHINES = (("parity", 12, 15), ("majority", 8, 15), ("count-ones", 8, 15))
MACHINE_BUILDERS = {"parity": parity_machine, "majority": majority_machine, "count-ones": count_ones_machine}
EQUAL_N = 40
DRAW_OPS = 100


def _closed_integral(name, n, fixed_ones, free):
    if name == "parity":
        return 2 ** (free - 1) if free else fixed_ones % 2
    if name == "count-ones":
        return 2**free * fixed_ones + free * 2 ** max(free - 1, 0)
    return sum(math.comb(free, j) for j in range(free + 1) if 2 * (fixed_ones + j) >= n)


def _random_query(rng, n):
    """Each variable fixed, integrated over {0, 1}, or integrated over one value."""
    integrate, fixed = {}, {}
    fixed_ones = free = 0
    for v in range(n):
        kind, bit = int(rng.integers(3)), int(rng.integers(2))
        if kind == 0:
            fixed[v] = bit
        elif kind == 1:
            integrate[v] = (0, 1)
            free += 1
            continue
        else:
            integrate[v] = (bit,)
        fixed_ones += bit
    return MarginalQuery.of(integrate, fixed), fixed_ones, free


def _document_ops(ctx, label, build_span, build, closed_z, nodes) -> list[Op]:
    """Writes then first reads of one circuit: build, serialize, deserialize, D&C check, Z."""

    def built(T):
        ctx["source"] = T.call(build_span, build)
        nodes[label] = len(ctx["source"].nodes)
        T.count("machines.nodes", len(ctx["source"].nodes))
        return len(ctx["source"].nodes)

    def serialized(T):
        ctx["text"] = T.call("circuit.serialize", serialize, ctx["source"])
        T.count("circuit.json_bytes", len(ctx["text"]))
        return ctx["text"]

    def deserialized(T):
        ctx["circuit"] = T.call("circuit.deserialize", deserialize, ctx["text"])
        return len(ctx["circuit"].nodes)

    def dc(T):
        return T.call("structure.is_dc", is_dc, ctx["circuit"])

    def z(T):
        return T.call("inference.partition_function", partition_function, ctx["circuit"])

    return [
        Op("machines", built, lambda out: None),
        Op("circuit", serialized, lambda out: None),
        Op(
            "circuit",
            deserialized,
            lambda out: _expect(ctx["circuit"].structurally_equal(ctx["source"]), "round trip changed the circuit"),
        ),
        Op("structure", dc, lambda out: _expect(out is True, "compiled circuit judged not D&C")),
        Op("inference", z, lambda out: _expect(out == closed_z, f"partition function {out} != {closed_z}")),
    ]


def _marginal_op(ctx, query, expected) -> Op:
    def run(T):
        return T.call("inference.marginalize", marginalize, ctx["circuit"], query)

    return Op("inference", run, lambda out: _expect(out == expected, f"marginal {out} != {expected}"))


def _draw_op(ctx, rng, count) -> Op:
    half = EQUAL_N // 2

    def run(T):
        handle = ctx["handle"]
        draws = []
        for _ in range(count):
            x = T.call("inference.sample", sample, handle, rng)
            draws.append(tuple(x[v] for v in range(EQUAL_N)))
        T.count("inference.draws", count)
        return tuple(draws)

    def check(draws):
        ok = all(x[i] == x[i + half] for x in draws for i in range(half))
        return _expect(ok, "a draw has zero density")

    return Op("inference", run, check)


def _inference(rng, quick) -> Workload:
    ops = []
    nodes = {}
    for name, n, queries in MACHINES:
        ctx: dict = {}
        builder = MACHINE_BUILDERS[name]
        z = _closed_integral(name, n, 0, n)
        build = partial(lambda b, n: compile_fpssm(b(n)), builder, n)
        ops += _document_ops(ctx, f"{name}({n})", "machines.compile_fpssm", build, z, nodes)
        for _ in range(_scaled(queries, quick)):
            query, fixed_ones, free = _random_query(rng, n)
            ops.append(_marginal_op(ctx, query, _closed_integral(name, n, fixed_ones, free)))

    ctx = {}
    ops += _document_ops(
        ctx, f"equal({EQUAL_N})", "machines.build_equal", lambda: build_equal(EQUAL_N), 2 ** (EQUAL_N // 2), nodes
    )

    def normalized(T):
        ctx["normalized"] = T.call("inference.normalize_weights", normalize_weights, ctx["circuit"])
        return ctx["normalized"]

    def normalized_z(T):
        z = T.call("inference.partition_function", partition_function, ctx["normalized"])
        ctx["handle"] = DistributionHandle(ctx["normalized"], partition=z)
        return z

    ops.append(Op("inference", normalized, lambda out: None))
    ops.append(Op("inference", normalized_z, lambda out: _expect(out == 1, f"normalized Z = {out}")))
    for i in range(_scaled(DRAW_OPS, quick)):
        ops.append(_draw_op(ctx, make_rng(int(rng.integers(2**63))), 1 + i % 5))
    return Workload(ops, nodes)


def known_defect_probes() -> list[dict]:
    """Known failures, run untimed so that a fix shows up without reading as a slowdown."""

    def product_chain(depth):
        b = CircuitBuilder()
        x = b.variable([0, 1])
        node = b.leaf(b.leaf_function(x, {0: 1, 1: 2}))
        for _ in range(depth):
            node = b.product([node])
        return b.build(node)

    probes = [
        (f"normalize_weights(compile_fpssm({name}_machine(6)))", lambda b=builder: compile_fpssm(b(6)))
        for name, builder in (("parity", parity_machine), ("majority", majority_machine), ("count_ones", count_ones_machine))
    ]
    probes.append(("normalize_weights(1500-deep product chain)", lambda: product_chain(1500)))
    out = []
    for label, make in probes:
        try:
            normalize_weights(make())
            out.append({"probe": label, "outcome": "ok"})
        except Exception as exc:  # the defects being recorded, RecursionError among them
            out.append({"probe": label, "outcome": "raises", "error": type(exc).__name__, "message": str(exc)[:200]})
    return out


# -- sptree ---------------------------------------------------------------------

COUNT_M = 60
COUNT_GROUPS = 8
PRESENT_EDGES = 4
ABSENT_EDGES = 150
SAMPLE_M = 20
SAMPLE_OPS = 30
TREES_PER_OP = 15
EXPERIMENT_M = 12
EXPERIMENTS = 10
EXPERIMENT_SAMPLES = 100
TRIANGLE_M = 30
TRIANGLE_OPS = 40  # the middle stratum, where op_p50 falls; op_p90 falls in the counts


def _random_tree_edges(rng, m, idx):
    """Edge labels of a uniform labeled tree, by Pruefer decoding."""
    seq = [int(v) for v in rng.integers(0, m, size=m - 2)]
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(m) if degree[u] == 1)
        edges.append(idx.label_of(leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [u for u in range(m) if degree[u] == 1]
    edges.append(idx.label_of(u, w))
    return edges


def _is_spanning_tree(m, idx, edges) -> bool:
    if len(edges) != m - 1:
        return False
    adjacent = {v: [] for v in range(m)}
    for label in edges:
        u, v = idx.pair_of(label)
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m


def _random_coloring(rng, n):
    red = set(int(i) for i in rng.choice(n, size=n // 2, replace=False))
    return ["r" if label in red else "b" for label in range(n)]


def _count_group(rng, idx) -> list[Op]:
    """count(P), count(P + e present), count(P + e absent): additivity is the reference."""
    tree = _random_tree_edges(rng, COUNT_M, idx)
    present = [tree[int(i)] for i in rng.choice(len(tree), size=PRESENT_EDGES + 1, replace=False)]
    edge = present.pop()
    others = [label for label in range(idx.n) if label not in set(present) | {edge}]
    values = {label: 1 for label in present}
    values.update({others[int(i)]: 0 for i in rng.choice(len(others), size=ABSENT_EDGES, replace=False)})
    partials = [values, {**values, edge: 1}, {**values, edge: 0}]
    counts: dict[int, int] = {}

    def op(i):
        def run(T):
            counts[i] = T.call("sptree.count_consistent_trees", count_consistent_trees, COUNT_M, PartialAssignment(partials[i]))
            return counts[i]

        def check(out):
            if i < 2:
                return _expect(out > 0, "consistent tree count is zero")
            return _expect(counts[1] + counts[2] == counts[0], "present + absent counts do not add up")

        return Op("sptree", run, check)

    return [op(i) for i in range(3)]


def _sptree(rng, quick) -> Workload:
    ops = [
        Op(
            "sptree",
            lambda T: T.call("sptree.count_consistent_trees", count_consistent_trees, COUNT_M, PartialAssignment({})),
            lambda out: _expect(out == COUNT_M ** (COUNT_M - 2), "Cayley count is wrong"),
        )
    ]
    count_idx = EdgeIndexing(COUNT_M)
    for _ in range(_scaled(COUNT_GROUPS, quick)):
        ops += _count_group(rng, count_idx)

    sample_idx = EdgeIndexing(SAMPLE_M)
    for _ in range(_scaled(SAMPLE_OPS, quick)):
        tree_rng = make_rng(int(rng.integers(2**63)))

        def trees(T, tree_rng=tree_rng):
            out = tuple(
                tuple(sorted(T.call("sptree.sample_tree", sample_tree, SAMPLE_M, tree_rng).edges))
                for _ in range(TREES_PER_OP)
            )
            T.count("sptree.trees", TREES_PER_OP)
            return out

        ops.append(
            Op(
                "sptree",
                trees,
                lambda out: _expect(
                    all(_is_spanning_tree(SAMPLE_M, sample_idx, t) for t in out), "a sampled graph is not a spanning tree"
                ),
            )
        )

    experiment_idx = EdgeIndexing(EXPERIMENT_M)
    for _ in range(_scaled(EXPERIMENTS, quick)):
        coloring = _random_coloring(rng, experiment_idx.n)
        exp_seed = int(rng.integers(2**31))
        dichromatic = math.comb(EXPERIMENT_M, 3) - sum(
            brute_triangle_count(EXPERIMENT_M, frozenset(l for l, c in enumerate(coloring) if c == color))
            for color in "rb"
        )

        def experiment(T, coloring=coloring, exp_seed=exp_seed):
            report = T.call(
                "sptree.constraint_fraction_experiment",
                constraint_fraction_experiment,
                EXPERIMENT_M,
                EXPERIMENT_SAMPLES,
                exp_seed,
                coloring=coloring,
            )
            return tuple(sorted(report.items()))

        def experiment_check(out, dichromatic=dichromatic):
            report = dict(out)
            if report["constraint_count"] != dichromatic:
                return "constraint count differs from the dichromatic-triangle count"
            return _expect(0 <= report["empirical_fraction"] <= 1, "fraction outside [0, 1]")

        ops.append(Op("sptree", experiment, experiment_check))

    triangle_idx = EdgeIndexing(TRIANGLE_M)
    for _ in range(_scaled(TRIANGLE_OPS, quick)):
        coloring = _random_coloring(rng, triangle_idx.n)

        def triangles(T, coloring=coloring):
            return T.call("sptree.count_dichromatic_triangles", count_dichromatic_triangles, TRIANGLE_M, coloring)

        def triangles_check(out, coloring=coloring):
            mono = sum(
                brute_triangle_count(TRIANGLE_M, frozenset(l for l, c in enumerate(coloring) if c == color))
                for color in "rb"
            )
            return _expect(out == math.comb(TRIANGLE_M, 3) - mono, "dichromatic count differs from the oracle")

        ops.append(Op("sptree", triangles, triangles_check))
    return Workload(ops, {})


SETUPS = {"validity": _validity, "lowerbound": _lowerbound, "inference": _inference, "sptree": _sptree}
