"""Communication matrices, exact rank, the perturbation bound, decomposition."""

import gc
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product

import pytest

from spn import separation
from spn.circuit import CircuitBuilder
from spn.errors import DomainError, InstanceTooLargeError, SpnError, UnknownVariableError
from spn.machines import build_equal, equal_function
from spn.rng import make_rng
from spn.separation import (
    binarize_products,
    circuit_evaluator,
    comm_matrix,
    decompose,
    exact_rank,
    half_partition,
    perturbation_rank_bound,
)
from spn.structure import check_complete, check_decomposable

from genutil import rank_oracle, random_dc_circuit


def test_equal_comm_matrix_is_identity():
    n = 6
    m = comm_matrix(equal_function(n), n, half_partition(n))
    size = 2 ** (n // 2)
    for r in range(size):
        for c in range(size):
            assert m.entries[r][c] == (1 if r == c else 0)


def test_constant_function_has_rank_one():
    m = comm_matrix(lambda x: 1, 4, half_partition(4))
    assert exact_rank([list(r) for r in m.entries]) == 1


def test_factorized_function_has_rank_one():
    rng = make_rng(61)
    n = 6
    tables = [[Fraction(int(rng.integers(1, 5))), Fraction(int(rng.integers(1, 5)))] for _ in range(n)]

    def fn(x):
        out = Fraction(1)
        for i, v in enumerate(x):
            out *= tables[i][v]
        return out

    for partition in (half_partition(n), ((0, 2, 4), (1, 3, 5))):
        m = comm_matrix(fn, n, partition)
        assert exact_rank([list(r) for r in m.entries]) == 1


def test_partition_validation():
    with pytest.raises(SpnError):
        comm_matrix(lambda x: 1, 4, ((0, 1), (1, 2, 3)))
    with pytest.raises(SpnError):
        comm_matrix(lambda x: 1, 4, ((0, 1), (2,)))


def test_partition_names_an_out_of_range_variable():
    for v in (5, -1):
        with pytest.raises(SpnError, match=rf"^partition variable {v} is not among the variables 0\.\.3$"):
            comm_matrix(lambda x: 1, 4, ((v,), (0, 1, 2, 3)))


def test_rank_rejects_ragged_rows():
    with pytest.raises(SpnError, match="row 1 has 1 entries, row 0 has 2"):
        exact_rank([[1, 2], [3]])
    with pytest.raises(SpnError, match="row 1 has 2 entries, row 0 has 1"):
        exact_rank([[1], [2, 3]])
    with pytest.raises(SpnError, match="row 2 has 3 entries, row 0 has 2"):
        exact_rank([[0, 0], [0, 0], [1, 2, 3]])


def test_rank_of_identity_and_outer_product():
    eye = [[1 if i == j else 0 for j in range(16)] for i in range(16)]
    assert exact_rank(eye) == 16
    u = [1, 2, 3, 4]
    v = [5, 0, 7, 1]
    outer = [[a * b for b in v] for a in u]
    assert exact_rank(outer) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0


def test_rank_matches_independent_oracle():
    rng = make_rng(62)
    for _ in range(60):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = [
            [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert exact_rank(m) == rank_oracle(m)


def test_rank_subadditivity_for_rank_one_sums():
    rng = make_rng(63)
    size = 10
    total = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, 6):
        u = [Fraction(int(rng.integers(-3, 4))) for _ in range(size)]
        v = [Fraction(int(rng.integers(-3, 4))) for _ in range(size)]
        for i in range(size):
            for j in range(size):
                total[i][j] += u[i] * v[j]
        assert exact_rank(total) <= k


def test_perturbation_bound_examples():
    zero = [[0] * 8 for _ in range(8)]
    assert perturbation_rank_bound(zero, audit=True) == 4
    neg_eye = [[-1 if i == j else 0 for j in range(8)] for i in range(8)]
    assert perturbation_rank_bound(neg_eye, audit=True) == 0


def test_perturbation_bound_of_the_empty_matrix():
    bound = perturbation_rank_bound([], audit=True)
    assert bound == 0 and type(bound) is Fraction
    with pytest.raises(SpnError, match="must be square"):
        perturbation_rank_bound([[]])


def test_perturbation_audit_raises_above_the_rank(monkeypatch):
    monkeypatch.setattr(separation, "integer_rank", lambda rows: 1)
    with pytest.raises(SpnError, match="perturbation bound 2 exceeds exact rank 1"):
        perturbation_rank_bound([[0] * 4 for _ in range(4)], audit=True)


def test_perturbation_bound_random_audit():
    rng = make_rng(64)
    for _ in range(100):
        k = int(rng.integers(1, 13))
        d = [
            [Fraction(int(rng.integers(-2, 3)), 8) for _ in range(k)]
            for _ in range(k)
        ]
        perturbation_rank_bound(d, audit=True)  # raises on violation


# -- decomposition --------------------------------------------------------------


def test_binarize_products():
    b = CircuitBuilder()
    xs = [b.variable([0, 1]) for _ in range(5)]
    leaves = [b.leaf(b.leaf_function(x, {0: 1, 1: 2})) for x in xs]
    c = b.build(b.product(leaves))
    flat = binarize_products(c)
    for node in flat.nodes:
        if type(node).__name__ == "ProductNode":
            assert len(node.children) <= 2
    for x in iter_product([0, 1], repeat=5):
        assert flat.evaluate(dict(enumerate(x))) == c.evaluate(dict(enumerate(x)))
    assert check_decomposable(flat)[0] and check_complete(flat)[0]


def test_decompose_equal4():
    eq = build_equal(4)
    d = decompose(eq)
    assert len(d.terms) <= len(eq.nodes) ** 2
    for t in d.terms:
        assert len(t.y_vars) == 2  # forced: 4/3 <= |y| <= 8/3
        assert set(t.y_vars) | set(t.z_vars) == {0, 1, 2, 3}
        assert not set(t.y_vars) & set(t.z_vars)
    for x in iter_product([0, 1], repeat=4):
        a = {i: Fraction(v) for i, v in enumerate(x)}
        assert d.reconstruct(a) == eq.evaluate(a)


def test_decompose_three_leaf_product():
    b = CircuitBuilder()
    xs = [b.variable([0, 1]) for _ in range(3)]
    leaves = [b.leaf(b.leaf_function(x, {0: 1, 1: v + 2})) for v, x in enumerate(xs)]
    c = b.build(b.product(leaves))
    d = decompose(c)
    assert 1 <= len(d.terms) <= 2
    assert sorted(len(t.y_vars) for t in d.terms)[0] in (1, 2)
    for x in iter_product([0, 1], repeat=3):
        a = {i: Fraction(v) for i, v in enumerate(x)}
        assert d.reconstruct(a) == c.evaluate(a)


def test_decompose_random_dc_circuits():
    rng = make_rng(65)
    for _ in range(20):
        n = int(rng.integers(4, 8))
        c = random_dc_circuit(rng, n=n, max_size=30)
        d = decompose(c)
        s = len(c.nodes)
        assert len(d.terms) <= s * s
        for t in d.terms:
            assert n <= 3 * len(t.y_vars) and 3 * len(t.y_vars) <= 2 * n
            assert n <= 3 * len(t.z_vars) and 3 * len(t.z_vars) <= 2 * n
            assert all(v >= 0 for v in t.g_table.values())
            assert all(v >= 0 for v in t.h_table.values())
        for assignment in c.iter_assignments(range(n)):
            assert d.reconstruct(assignment) == c.evaluate(assignment)


def test_decompose_requires_dc():
    from genutil import incomplete_valid_fixture

    with pytest.raises(SpnError):
        decompose(incomplete_valid_fixture())


def test_decompose_requires_full_scope():
    b = CircuitBuilder()
    xs = [b.variable([0, 1]) for _ in range(4)]
    f = b.leaf_function(xs[0], {0: 1, 1: 2})
    c = b.build(b.leaf(f))
    with pytest.raises(SpnError):
        decompose(c)


# -- depth-3 report ----------------------------------------------------------------
# the rank of equal(n)'s half-split matrix, 2^(n/2), is the width floor `spn depth3-report` prints


def test_depth3_report_equal8():
    assert exact_rank(comm_matrix(equal_function(8), 8, half_partition(8)).entries) == 16


def test_depth3_report_equal12():
    assert exact_rank(comm_matrix(equal_function(12), 12, half_partition(12)).entries) == 64


def make_approx_equal_matrix(n, rng):
    """Unnormalized density matrix: diagonal mass within a factor two,
    off-diagonal probability at most a quarter."""
    k = 2 ** (n // 2)
    entries = [[Fraction(0)] * k for _ in range(k)]
    total_diag = Fraction(0)
    for i in range(k):
        entries[i][i] = Fraction(int(rng.integers(4, 9)), 4)  # in [1, 2]
        total_diag += entries[i][i]
    budget = total_diag / 3  # off-diagonal sum beta <= sum(diag)/3 gives delta <= 1/4
    spent = Fraction(0)
    while spent < budget:
        i = int(rng.integers(k))
        j = int(rng.integers(k))
        if i == j:
            continue
        amount = min(Fraction(int(rng.integers(1, 4)), 8), budget - spent)
        entries[i][j] += amount
        spent += amount
    return entries


def test_approx_equal_rank_floor():
    rng = make_rng(66)
    for n in (6, 8, 10, 12):
        entries = make_approx_equal_matrix(n, rng)
        rank = exact_rank(entries)
        assert rank >= Fraction(2 ** (n // 2 - 2), 3)


def test_circuit_evaluator_adapter():
    eq = build_equal(6)
    m1 = comm_matrix(circuit_evaluator(eq), 6, half_partition(6))
    m2 = comm_matrix(equal_function(6), 6, half_partition(6))
    assert m1.entries == m2.entries


def _evaluator_fixture():
    """Ternary, binary and reversed-domain variables, Fraction values, an unused variable 2."""
    b = CircuitBuilder()
    x0, x1, x2, x3 = b.variable([0, 1, 2]), b.variable([0, 1]), b.variable([0, 1]), b.variable([2, 1, 0])
    l0 = b.leaf(b.leaf_function(x0, {0: 2, 1: Fraction(1, 3), 2: 5}))
    l1 = b.leaf(b.leaf_function(x1, {0: 1, 1: 4}))
    b.leaf(b.leaf_function(x2, {0: 7, 1: 8}))
    l3 = b.leaf(b.leaf_function(x3, {0: 3, 1: 0, 2: Fraction(3, 2)}))
    half = b.sum([(b.product([l0, l1]), Fraction(3, 4)), (b.constant(2), 1)])
    return b.build(b.product([half, b.sum([(l3, 2), (l1, 1)])]))


def test_circuit_evaluator_keeps_evaluate_semantics():
    c = _evaluator_fixture()
    fn = circuit_evaluator(c)
    for x in iter_product((0, 1), repeat=4):
        got, expected = fn(x), c.evaluate(dict(enumerate(x)))
        assert got == expected and type(got) is type(expected)
    # off the bit grid: another domain value, an unused variable's junk
    for x in ((2, 1, 0, 1), (0, 1, 9, 2), (1, 0, "z", 0)):
        assert fn(x) == c.evaluate(dict(enumerate(x)))
    with pytest.raises(DomainError, match="value 3 not in domain of variable 0"):
        fn((3, 0, 0, 0))
    with pytest.raises(UnknownVariableError, match="misses variable 3"):
        fn((0, 0, 0))
    with pytest.raises(UnknownVariableError, match="unknown variable 4"):
        fn((0, 0, 0, 0, 0))


def test_circuit_evaluator_outside_the_domain():
    b = CircuitBuilder()
    xs = [b.variable([1, 2]) for _ in range(2)]
    c = b.build(b.product([b.leaf(b.leaf_function(x, {1: 1, 2: 3})) for x in xs]))
    with pytest.raises(DomainError, match="value 0 not in domain of variable 0"):
        comm_matrix(circuit_evaluator(c), 2, half_partition(2))


def test_comm_matrix_reads_a_circuit_evaluator_without_per_entry_calls(monkeypatch):
    # equal(8) over an interleaved partition, with a variable the circuit
    # does not read; wrapped in a lambda, the evaluator is called per entry
    b = CircuitBuilder()
    xs = [b.variable([0, 1]) for _ in range(5)]
    leaf = b.leaf(b.leaf_function(xs[3], {0: 2, 1: Fraction(1, 3)}))
    c = b.build(b.product([leaf, b.leaf(b.leaf_function(xs[0], {0: 1, 1: 5}))]))
    partition = ((1, 3), (0, 2, 4))
    by_entry = comm_matrix(lambda x: c.evaluate(x), 5, partition)
    calls = []
    monkeypatch.setattr(type(c), "evaluate", lambda self, x: calls.append(x) or 0)
    for circuit, n, part, fn in [
        (c, 5, partition, None),
        (build_equal(8), 8, ((0, 2, 5, 7), (1, 3, 4, 6)), equal_function(8)),
        (build_equal(8), 8, half_partition(8), equal_function(8)),
    ]:
        m = comm_matrix(circuit_evaluator(circuit), n, part)
        assert calls == []
        if fn is None:
            assert m == by_entry and [list(map(type, row)) for row in m.entries] == [
                list(map(type, row)) for row in by_entry.entries
            ]
        else:
            assert m.entries == comm_matrix(fn, n, part).entries
    wrapped = circuit_evaluator(c)
    comm_matrix(lambda x: wrapped(x), 5, partition)
    assert len(calls) == 32


def test_circuit_evaluator_holds_no_per_point_table():
    # a call is one point evaluation: the evaluator holds the circuit and
    # its plan, while a dict keyed by whole points would hold 2^16 tuples of
    # 16 bits, over 10 MiB
    fn = circuit_evaluator(build_equal(16))
    gc.collect()
    tracemalloc.start()
    try:
        assert fn((0,) * 16) == 1
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20


def test_tabulate_caps_its_grid():
    b = CircuitBuilder()
    xs = [b.variable([0, 1]) for _ in range(25)]
    c = b.build(b.product([b.leaf(b.leaf_function(x, {0: 1, 1: 2})) for x in xs]))
    assert c.tabulate({0: [(1,)], 7: [(0,), (1,)]}) == [2, 4]  # the other variables at position 0
    with pytest.raises(InstanceTooLargeError):
        c.tabulate({v: [(0,), (1,)] for v in range(25)})


def test_tabulate_keeps_fraction_types_of_integral_scalars():
    # scalars Fraction(1) and Fraction(0) from untabulated variables must
    # turn int cells into Fractions, as in a point pass
    b = CircuitBuilder()
    x, y = b.variable([0, 1]), b.variable([0, 1])
    lx = b.leaf(b.leaf_function(x, {0: 1, 1: 2}))
    half = b.leaf(b.leaf_function(y, {0: Fraction(1, 2), 1: 3}))
    one = b.product([half, b.constant(2)])
    nil = b.product([half, b.constant(0)])
    scaled = b.product([lx, one])
    shifted = b.sum([(nil, 1), (lx, 1)])
    c = b.build(b.sum([(scaled, 1), (shifted, 1)]))
    for node in (scaled, shifted):
        cells = c.tabulate({x: [(0,), (1,)]}, node)
        assert cells == [1, 2] and all(type(cell) is Fraction for cell in cells)
