"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

from scipy.stats import chisquare

from spn.inference import MarginalQuery, marginalize
from spn.machines import (
    build_equal,
    compile_fpssm,
    count_ones_machine,
    equal_function,
    eval_fpssm,
    majority_machine,
    parity_machine,
)
from spn.polynomial import expand, is_set_multilinear
from spn.rng import make_rng
from spn.separation import comm_matrix, decompose, exact_rank, half_partition
from spn.sptree import (
    EdgeIndexing,
    PartialAssignment,
    count_consistent_trees,
    count_dichromatic_triangles,
    count_triangles,
    sample_tree,
    triangles_within_fisher,
)
from spn.structure import (
    brute_force_validity,
    check_complete,
    check_decomposable,
    cnf_satisfiable,
    cnf_to_extended_spn,
)

from genutil import (
    all_spanning_trees,
    brute_count_consistent,
    exhaustive_marginal,
    random_3cnf,
    random_dc_circuit,
    random_free_circuit,
    randomize_tables,
)


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} — {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget}s"


def small_dc_circuit(rng):
    """Random D&C instance within the criterion-1 bounds (n<=4, domain<=3, size<=15)."""
    n = int(rng.integers(2, 5))
    domain_size = 3 if (n <= 3 and rng.random() < 0.35) else 2
    return random_dc_circuit(rng, n=n, domain_size=domain_size, max_size=15)


def test_c01_validity_equivalence():
    start = time.monotonic()
    rng = make_rng(10_001)
    total = 0
    dc_count = 0
    witness_needed = 0
    witness_found = 0
    while total < 500:
        circuit = small_dc_circuit(rng) if total % 2 else random_free_circuit(rng)
        total += 1
        structural = check_decomposable(circuit)[0] and check_complete(circuit)[0]
        sml = is_set_multilinear(expand(circuit))
        assert structural == sml, "structural D&C and set-multilinearity disagree"
        if structural:
            dc_count += 1
            for _ in range(20):
                tables = randomize_tables(circuit, rng, lo=0, hi=4)
                assert brute_force_validity(tables), "D&C circuit failed the validity oracle"
        else:
            witness_needed += 1
            for _ in range(50):
                tables = randomize_tables(circuit, rng, lo=1, hi=5)
                if not brute_force_validity(tables):
                    witness_found += 1
                    break
            else:
                print(f"\n  note: no violating tables found for a non-D&C circuit (size {len(circuit.nodes)})")
    rate = witness_found / witness_needed if witness_needed else 1.0
    elapsed = time.monotonic() - start
    report(
        1,
        "validity-equivalence",
        dc_count >= 100 and witness_needed >= 100 and rate >= 0.95,
        f"{total} circuits, {dc_count} D&C, witness rate {rate:.3f}",
        elapsed,
        300,
    )


def test_c02_marginalization_oracle():
    start = time.monotonic()
    rng = make_rng(10_002)
    circuits = 0
    queries = 0
    while circuits < 200:
        n = int(rng.integers(2, 7))
        c = random_dc_circuit(rng, n=n, max_size=28)
        circuits += 1
        for _ in range(20):
            integrate, fixed = {}, {}
            for v in range(n):
                if rng.random() < 0.5:
                    domain = c.variables[v].domain
                    size = int(rng.integers(1, len(domain) + 1))
                    picks = sorted(rng.choice(len(domain), size=size, replace=False))
                    integrate[v] = tuple(domain[i] for i in picks)
                else:
                    fixed[v] = c.variables[v].domain[int(rng.integers(2))]
            q = MarginalQuery.of(integrate, fixed)
            assert marginalize(c, q) == exhaustive_marginal(c, integrate, fixed)
            queries += 1
    elapsed = time.monotonic() - start
    report(2, "marginalization-oracle", queries == 4000, f"{circuits} circuits x 20 queries", elapsed, 120)


def test_c03_equal_rank_separation():
    start = time.monotonic()
    ranks_ok = True
    for n in (4, 8, 12, 16, 20):
        m = comm_matrix(equal_function(n), n, half_partition(n))
        rank = exact_rank([list(r) for r in m.entries])
        ranks_ok = ranks_ok and rank == 2 ** (n // 2)
    sizes_ok = True
    equal_ok = True
    for n in (4, 8, 12, 16):
        c = build_equal(n)
        sizes_ok = sizes_ok and len(c.nodes) <= 8 * n
        fn = equal_function(n)
        for x in iter_product((0, 1), repeat=n):
            if c.evaluate(dict(enumerate(x))) != fn(x):
                equal_ok = False
                break
    c20 = build_equal(20)
    sizes_ok = sizes_ok and len(c20.nodes) <= 8 * 20
    fn20 = equal_function(20)
    rng = make_rng(10_003)
    for _ in range(100_000):
        x = tuple(int(b) for b in rng.integers(0, 2, size=20))
        if c20.evaluate(dict(enumerate(x))) != fn20(x):
            equal_ok = False
            break
    elapsed = time.monotonic() - start
    report(
        3,
        "equal-rank-separation",
        ranks_ok and sizes_ok and equal_ok,
        "rank = 2^(n/2) for n in {4,8,12,16,20}; depth-4 circuit exact, size <= 8n",
        elapsed,
        600,
    )


def test_c04_compiler_chain():
    start = time.monotonic()
    size_constant = 3
    all_ok = True
    detail = []
    cases = [
        ("parity", parity_machine, 2, (6, 12)),
        ("majority", majority_machine, None, (6, 12)),
        ("count-ones", count_ones_machine, None, (6, 12)),
    ]
    for name, builder, fixed_k, sizes in cases:
        for n in sizes:
            machine = builder(n)
            k = fixed_k if fixed_k else n + 1
            circuit = compile_fpssm(machine)
            if not (check_decomposable(circuit)[0] and check_complete(circuit)[0]):
                all_ok = False
            if len(circuit.nodes) > size_constant * n * k * k:
                all_ok = False
            for x in iter_product((0, 1), repeat=n):
                if circuit.evaluate(dict(enumerate(x))) != eval_fpssm(machine, x):
                    all_ok = False
                    break
        detail.append(name)
    elapsed = time.monotonic() - start
    report(
        4,
        "compiler-chain",
        all_ok,
        f"{'/'.join(detail)} exhaustive at n in (6, 12), D&C, size <= {size_constant} n k^2",
        elapsed,
        180,
    )


def test_c05_product_term_decomposition():
    start = time.monotonic()
    rng = make_rng(10_005)
    fixtures = [build_equal(6), build_equal(8)]
    for _ in range(100):
        n = int(rng.integers(6, 13))
        fixtures.append(random_dc_circuit(rng, n=n, max_size=40))
    ok = True
    for circuit in fixtures:
        n = len(circuit.variables)
        s = len(circuit.nodes)
        decomp = decompose(circuit)
        if len(decomp.terms) > s * s:
            ok = False
        for t in decomp.terms:
            if not (n <= 3 * len(t.y_vars) <= 2 * n and n <= 3 * len(t.z_vars) <= 2 * n):
                ok = False
            if any(v < 0 for v in t.g_table.values()) or any(v < 0 for v in t.h_table.values()):
                ok = False
        for assignment in circuit.iter_assignments(range(n)):
            if decomp.reconstruct(assignment) != circuit.evaluate(assignment):
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(
        5,
        "product-term-decomposition",
        ok,
        f"{len(fixtures)} circuits: terms <= size^2, balanced scopes, exact reconstruction",
        elapsed,
        300,
    )


def test_c06_matrix_tree_counter():
    start = time.monotonic()
    cayley_ok = all(
        count_consistent_trees(m, PartialAssignment({})) == m ** (m - 2) for m in range(2, 10)
    )
    rng = make_rng(10_006)
    brute_ok = True
    for m in (4, 5):
        idx = EdgeIndexing(m)
        for _ in range(100):
            values = {}
            for label in range(idx.n):
                r = rng.random()
                if r < 0.3:
                    values[label] = 1
                elif r < 0.6:
                    values[label] = 0
            if count_consistent_trees(m, PartialAssignment(values)) != brute_count_consistent(m, values):
                brute_ok = False
    additivity_ok = True
    for m in range(4, 9):
        idx = EdgeIndexing(m)
        total = count_consistent_trees(m, PartialAssignment({}))
        for label in range(idx.n):
            present = count_consistent_trees(m, PartialAssignment({label: 1}))
            absent = count_consistent_trees(m, PartialAssignment({label: 0}))
            if present + absent != total:
                additivity_ok = False
    elapsed = time.monotonic() - start
    report(
        6,
        "matrix-tree-counter",
        cayley_ok and brute_ok and additivity_ok,
        "Cayley m=2..9, 200 brute-force agreements, per-edge additivity m=4..8",
        elapsed,
        120,
    )


def test_c07_sampler_uniformity():
    start = time.monotonic()
    rng = make_rng(10_007)
    counts = Counter()
    for _ in range(16_000):
        counts[sample_tree(4, rng).edges] += 1
    trees = all_spanning_trees(4)
    chi_ok = set(counts) == set(trees) and chisquare([counts[t] for t in trees]).pvalue > 0.01

    m = 7
    idx = EdgeIndexing(m)
    draws = 10_000
    hits = Counter()
    for _ in range(draws):
        for label in sample_tree(m, rng).edges:
            hits[label] += 1
    total = m ** (m - 2)
    marginal_ok = True
    for label in range(idx.n):
        p = count_consistent_trees(m, PartialAssignment({label: 1})) / total
        sigma = (draws * p * (1 - p)) ** 0.5
        if abs(hits[label] - draws * p) > 5 * sigma:
            marginal_ok = False
    elapsed = time.monotonic() - start
    report(
        7,
        "sampler-uniformity",
        chi_ok and marginal_ok,
        "chi-square p > 0.01 over 16 trees at m=4; per-edge marginals within 5 sigma at m=7",
        elapsed,
        60,
    )


def test_c08_triangle_bounds():
    start = time.monotonic()
    rng = make_rng(10_008)
    floor_ok = True
    for m in (20, 25, 30):
        idx = EdgeIndexing(m)
        n = idx.n
        floor = math.ceil(m**3 / 60)
        for _ in range(100):
            r = int(rng.integers((n + 2) // 3, 2 * n // 3 + 1))
            red = set(int(i) for i in rng.choice(n, size=r, replace=False))
            coloring = ["r" if l in red else "b" for l in range(n)]
            if count_dichromatic_triangles(m, coloring) < floor:
                floor_ok = False
    fisher_ok = True
    for _ in range(100):
        m = int(rng.integers(3, 16))
        idx = EdgeIndexing(m)
        edges = frozenset(int(l) for l in range(idx.n) if rng.random() < 0.5)
        if not triangles_within_fisher(count_triangles(m, edges), len(edges)):
            fisher_ok = False
    elapsed = time.monotonic() - start
    report(
        8,
        "triangle-bounds",
        floor_ok and fisher_ok,
        "dichromatic >= ceil(m^3/60) for 300 balanced colorings; 100 graphs within the edge-count bound",
        elapsed,
        120,
    )


def test_c09_rank_perturbation():
    start = time.monotonic()
    rng = make_rng(10_009)
    ok = True
    for _ in range(200):
        k = int(rng.integers(1, 65))
        density = rng.random() * 0.6
        d = [
            [
                Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
                if rng.random() < density
                else Fraction(0)
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        delta = sum(abs(x) for row in d for x in row)
        bound = (Fraction(k) - delta) / 2
        eye_plus = [
            [d[i][j] + (1 if i == j else 0) for j in range(k)] for i in range(k)
        ]
        if bound > exact_rank(eye_plus):
            ok = False
    elapsed = time.monotonic() - start
    report(9, "rank-perturbation", ok, "k/2 - Delta/2 <= rank(I + D) for 200 matrices, k <= 64", elapsed, 60)


def test_c10_conp_reduction():
    start = time.monotonic()
    rng = make_rng(10_010)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 5))
        clauses = random_3cnf(rng, n, int(rng.integers(1, 6)))
        circuit = cnf_to_extended_spn(clauses, n)
        valid = brute_force_validity(circuit)
        if valid != (not cnf_satisfiable(clauses, n)):
            ok = False
    elapsed = time.monotonic() - start
    report(10, "conp-reduction", ok, "validity <=> unsatisfiability for 50 random CNFs", elapsed, 60)
