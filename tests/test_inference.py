"""Marginalization, partition function, weight normalization, sampling."""

from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from spn.circuit import CircuitBuilder
from spn.errors import (
    NotDecomposableCompleteError,
    NotNormalizedError,
    SpnError,
    ZeroPartitionError,
)
from spn.inference import (
    DistributionHandle,
    MarginalQuery,
    apply_integration,
    is_weight_normalized,
    marginalize,
    normalize_weights,
    partition_function,
    sample,
)
from spn.machines import (
    build_equal,
    compile_fpssm,
    count_ones_machine,
    equal_function,
    majority_machine,
    parity_machine,
)
from spn.rng import make_rng

from genutil import (
    exhaustive_marginal,
    incomplete_valid_fixture,
    product_of_two_leaves,
    random_dc_circuit,
)


def test_marginalize_product_example():
    c = product_of_two_leaves()
    q = MarginalQuery.of({1: [0, 1]}, {0: 1})
    assert marginalize(c, q) == 8  # 2*1 + 2*3


def test_empty_integration_equals_evaluate():
    c = product_of_two_leaves()
    q = MarginalQuery.of({}, {0: 1, 1: 0})
    assert marginalize(c, q) == c.evaluate({0: 1, 1: 0})


def test_query_validation():
    c = product_of_two_leaves()
    with pytest.raises(SpnError):
        marginalize(c, MarginalQuery.of({0: [0, 1]}, {}))  # misses variable 1
    with pytest.raises(SpnError):
        marginalize(c, MarginalQuery.of({0: []}, {1: 0}))  # empty set
    with pytest.raises(SpnError):
        marginalize(c, MarginalQuery.of({0: [0, 1]}, {0: 1, 1: 0}))  # overlap


def test_marginalize_requires_dc_unless_forced():
    c = incomplete_valid_fixture()
    q = MarginalQuery.of({0: [0, 1]}, {1: 1})
    with pytest.raises(NotDecomposableCompleteError):
        marginalize(c, q)
    assert marginalize(c, q, force=True) == 2


def test_marginalize_agrees_with_exhaustive_sum():
    rng = make_rng(44)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        c = random_dc_circuit(rng, n=n, max_size=25)
        for _ in range(10):
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


def test_nested_marginalization_composes():
    rng = make_rng(45)
    for _ in range(20):
        c = random_dc_circuit(rng, n=5, max_size=25)
        inner = {0: c.variables[0].domain, 3: c.variables[3].domain}
        outer = {1: c.variables[1].domain}
        joint = MarginalQuery.of({**inner, **outer}, {2: 0, 4: 1})
        substituted = apply_integration(c, inner)
        # after substitution the inner variables are constants; fix them anywhere
        nested = MarginalQuery.of(outer, {0: 0, 2: 0, 3: 0, 4: 1})
        assert marginalize(substituted, nested) == marginalize(c, joint)


def test_partition_function_of_equal():
    assert partition_function(build_equal(4)) == 4
    assert partition_function(build_equal(8)) == 16


def test_partition_function_zero_reported():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 0, 1: 0})
    c = b.build(b.leaf(f))
    with pytest.raises(ZeroPartitionError):
        partition_function(c)


def test_full_integration_on_normalized_circuit_is_one():
    rng = make_rng(46)
    for _ in range(10):
        c = random_dc_circuit(rng, n=4, max_size=20)
        assert partition_function(normalize_weights(c)) == 1


# -- weight normalization ---------------------------------------------------------


def test_normalize_weight_shapes():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f1 = b.leaf_function(x, {0: 1, 1: 1})
    f2 = b.leaf_function(x, {0: 3, 1: 1})
    s = b.sum([(b.leaf(f1), 2), (b.leaf(f2), 3)])
    c = b.build(s)
    norm = normalize_weights(c)
    node = norm.nodes[norm.root]
    # children normalize to integrals 2 and 4; the sum weights become
    # (2*2)/(2*2+3*4), (3*4)/(2*2+3*4) = (1/4, 3/4)
    assert node.weights == (Fraction(1, 4), Fraction(3, 4))
    assert sum(node.weights) == 1


def test_normalize_is_fixed_point_on_normalized_input():
    eq = normalize_weights(build_equal(4))
    again = normalize_weights(eq)
    assert eq.structurally_equal(again)


def test_normalize_compensates_parent_edges():
    # inner sum has already-normalized children and weights (2, 3): its
    # weights become (2/5, 3/5) and the edge feeding it is scaled by 5
    b = CircuitBuilder()
    x = b.variable([0, 1])
    half = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    inner = b.sum([(b.leaf(b.leaf_function(x, half)), 2), (b.leaf(b.leaf_function(x, half)), 3)])
    other = b.leaf(b.leaf_function(x, half))
    outer = b.sum([(inner, 1), (other, 1)])
    norm = normalize_weights(b.build(outer))
    assert norm.nodes[inner].weights == (Fraction(2, 5), Fraction(3, 5))
    # compensated outer edge 1*5 = 5, then the outer sum normalizes by 5 + 1
    assert norm.nodes[outer].weights == (Fraction(5, 6), Fraction(1, 6))


def test_normalize_preserves_density():
    rng = make_rng(47)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        c = random_dc_circuit(rng, n=n, max_size=25)
        norm = normalize_weights(c)
        assert is_weight_normalized(norm)
        z = partition_function(c)
        assert partition_function(norm) == 1
        for assignment in c.iter_assignments(range(n)):
            assert norm.evaluate(assignment) == Fraction(c.evaluate(assignment)) / z


@pytest.mark.parametrize("machine", [parity_machine, majority_machine, count_ones_machine])
def test_normalize_compiled_machines(machine):
    # compiled machines carry zero constants and all-zero leaf tables; the
    # parts with partition value zero are excised
    c = compile_fpssm(machine(6))
    z = partition_function(c)
    norm = normalize_weights(c)
    assert is_weight_normalized(norm)
    assert partition_function(norm) == 1
    points = list(c.iter_assignments(range(6)))
    assert len(points) == 64
    for assignment in points:
        assert norm.evaluate(assignment) * z == c.evaluate(assignment)


def test_normalize_deep_product_chain():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    y = b.variable([0, 1])
    node = b.leaf(b.leaf_function(x, {0: 1, 1: 3}))
    for _ in range(10_000):
        node = b.product([node])
    norm = normalize_weights(b.build(node))
    assert is_weight_normalized(norm)
    assert norm.evaluate({0: 1}) == Fraction(3, 4)
    # the same chain under a zero factor is excised whole, in one pass
    zero = b.product([node, b.leaf(b.leaf_function(y, {0: 0, 1: 0}))])
    live = b.product([b.leaf(b.leaf_function(x, {0: 1, 1: 1})), b.leaf(b.leaf_function(y, {0: 1, 1: 3}))])
    norm = normalize_weights(b.build(b.sum([(zero, 5), (live, 1)])))
    assert len(norm.nodes) == 4
    assert norm.evaluate({0: 0, 1: 1}) == Fraction(3, 8)


def test_normalize_rejects_non_dc():
    with pytest.raises(NotDecomposableCompleteError):
        normalize_weights(incomplete_valid_fixture())


# -- sampling ----------------------------------------------------------------------


def point_mass_circuit():
    b = CircuitBuilder()
    x1 = b.variable([0, 1])
    x2 = b.variable([0, 1])
    f1 = b.leaf_function(x1, {0: 0, 1: 1})
    f2 = b.leaf_function(x2, {0: 1, 1: 0})
    s = b.sum([(b.product([b.leaf(f1), b.leaf(f2)]), 1)])
    return b.build(s)


def test_point_mass_sampling_is_deterministic():
    handle = DistributionHandle(point_mass_circuit())
    for seed in (0, 1, 99):
        assert sample(handle, seed) == {0: 1, 1: 0}


def test_same_seed_same_sample():
    handle = DistributionHandle(normalize_weights(build_equal(6)))
    assert sample(handle, 1234) == sample(handle, 1234)


def test_sampling_requires_normalized_circuit():
    handle = DistributionHandle(build_equal(4))
    with pytest.raises(NotNormalizedError):
        sample(handle, 0)


def test_equal_sampler_frequencies():
    n = 4
    handle = DistributionHandle(normalize_weights(build_equal(n)))
    rng = make_rng(402)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        s = sample(handle, rng)
        key = tuple(int(s[v]) for v in range(n))
        assert equal_function(n)(key) == 1
        counts[key] += 1
    assert len(counts) == 4
    # each frequency within 5 sigma of 1/4
    sigma = (draws * 0.25 * 0.75) ** 0.5
    for key in counts:
        assert abs(counts[key] - draws * 0.25) <= 5 * sigma


def test_sampler_chi_square_against_exact_density():
    rng = make_rng(403)
    c = normalize_weights(random_dc_circuit(rng, n=4, max_size=18))
    handle = DistributionHandle(c)
    exact = {
        tuple(a[v] for v in range(4)): handle.density(a)
        for a in c.iter_assignments(range(4))
    }
    draws = 10_000
    counts = Counter()
    for _ in range(draws):
        s = sample(handle, rng)
        counts[tuple(s[v] for v in range(4))] += 1
    support = [k for k, p in exact.items() if p > 0]
    assert set(counts) <= set(support)
    observed = [counts.get(k, 0) for k in support]
    expected = [float(exact[k]) * draws for k in support]
    result = chisquare(observed, expected)
    assert result.pvalue > 0.01
