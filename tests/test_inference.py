"""Marginalization, partition function, weight normalization, sampling."""

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from scipy.stats import chisquare

from spn import cli, inference
from spn.circuit import CircuitBuilder, serialize
from spn.errors import (
    DomainError,
    NotDecomposableCompleteError,
    NotNormalizedError,
    SerializationError,
    SpnError,
    UnknownVariableError,
    ZeroPartitionError,
    echo,
)
from spn.inference import (
    DistributionHandle,
    MarginalQuery,
    _thresholds,
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
from spn.rng import Philox, make_rng
from spn.separation import circuit_evaluator, comm_matrix

from genutil import (
    exhaustive_marginal,
    incomplete_valid_fixture,
    product_of_two_leaves,
    random_dc_circuit,
    reference_sample,
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
    with pytest.raises(SpnError, match="variable 1 repeats value 1"):
        marginalize(c, MarginalQuery.of({1: [1, 0, 1]}, {0: 1}))
    with pytest.raises(SpnError, match="variable 1 repeats value 1"):
        apply_integration(c, {1: [1, 1]})
    with pytest.raises(DomainError, match="value 5 not in domain of variable 1"):
        apply_integration(c, {1: [5]})
    with pytest.raises(UnknownVariableError, match="unknown variable 9"):
        apply_integration(c, {9: [0]})
    # ids are ints, not bools, floats or strings; sets are lists or tuples of exact rationals
    for bad, message in [
        ({1.5: [0, 1]}, "integrate_over: expected an integer, got 1.5"),
        ({True: [0, 1]}, "integrate_over: expected an integer, got True"),
        ({"x": [0]}, "integrate_over: expected an integer, got 'x'"),
        ({"y" * 99: [0]}, "integrate_over: expected an integer, got '" + "y" * 39 + "$"),
        ({1: "ab"}, "integrate_over.1: expected an array, got 'ab'"),
        ({1: ["a"]}, r"integrate_over.1\[0\]: expected an exact rational, got 'a'"),
    ]:
        with pytest.raises(SerializationError, match=message):
            apply_integration(c, bad)
    # 'p/q' strings still name values
    assert apply_integration(c, {1: ("0", "1")}).evaluate({0: 1, 1: 0}) == marginalize(
        c, MarginalQuery.of({1: [0, 1]}, {0: 1})
    )
    # a key past Python's 4,300-digit int/str limit fails like any other malformed key
    with pytest.raises(SerializationError, match="fixed: expected an integer, got '9999"):
        MarginalQuery.of({}, {"9" * 5000: 1})


def test_variable_ids_past_the_digit_limit_raise_typed_errors():
    # a Python caller's int past the interpreter's 4,300-digit int/str limit is
    # echoed by its first 40 digits, as the CLI echoes it with the limit lifted
    c, huge = build_equal(2), 10**5000
    shown = "1" + "0" * 39
    calls = [
        (lambda: c.evaluate({huge: 0}), f"unknown variable {shown}"),
        (lambda: c.evaluate({0: -huge, 1: 0}), f"value -{shown[:-1]} not in domain of variable 0"),
        (lambda: apply_integration(c, {huge: [0]}), f"unknown variable {shown}"),
        (lambda: apply_integration(c, {0: [[huge]]}), "integrate_over.0[0]: expected an exact rational, got <list>"),
        (lambda: marginalize(c, MarginalQuery.of({huge: [0]}, {})), f"variable {shown} is not in it"),
        (lambda: MarginalQuery.of({huge: "ab"}, {}), f"integrate_over.{shown}: expected an array"),
        (lambda: comm_matrix(circuit_evaluator(c), 2, ((huge,), (0,))), f"partition variable {shown} is not among"),
    ]
    for call, message in calls:
        with pytest.raises(SpnError) as exc:
            call()
        assert message in str(exc.value) and len(str(exc.value)) < 120
    rng = make_rng(26)
    for digits in [*range(1, 80), *map(int, rng.integers(80, 4300, 40))]:
        x = int(rng.integers(1, 10)) * 10 ** (digits - 1) + int(rng.integers(0, 2**62))
        assert echo(x) == str(x)[:40] and echo(-x, repr) == repr(-x)[:40]


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


@pytest.mark.parametrize(
    "partition, error, message",
    [
        (0, ZeroPartitionError, "partition function is zero"),
        (Fraction(0), ZeroPartitionError, "partition function is zero"),
        (1.5, DomainError, "partition must be an int or a Fraction, got 1.5"),
        ("1/2", DomainError, "partition must be an int or a Fraction, got '1/2'"),
        (True, DomainError, "partition must be an int or a Fraction, got True"),
    ],
)
def test_distribution_handle_rejects_a_bad_partition(partition, error, message):
    with pytest.raises(error) as exc:
        DistributionHandle(build_equal(2), partition=partition)
    assert str(exc.value) == message


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


def test_sampling_checks_normalization_once(monkeypatch):
    calls = []
    check = inference.is_weight_normalized
    monkeypatch.setattr(inference, "is_weight_normalized", lambda c: calls.append(c) or check(c))
    handle = DistributionHandle(normalize_weights(build_equal(6)))
    rng = make_rng(5)
    for _ in range(50):
        sample(handle, rng)
    assert len(calls) == 1


def test_sampler_rejects_draws_of_non_dc_circuits():
    def circuit(make_root):
        b = CircuitBuilder()
        x, y = b.variable([0, 1]), b.variable([0, 1])
        fx = b.leaf_function(x, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        fy = b.leaf_function(y, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        return b.build(make_root(b, fx, fy))

    # partition=1 skips the D&C gate of DistributionHandle
    twice = circuit(lambda b, fx, fy: b.product([b.leaf(fx), b.leaf(fx)]))
    with pytest.raises(SpnError, match="assigned twice"):
        sample(DistributionHandle(twice, partition=Fraction(1)), 0)
    either = circuit(lambda b, fx, fy: b.sum([(b.leaf(fx), Fraction(1, 2)), (b.leaf(fy), Fraction(1, 2))]))
    with pytest.raises(SpnError, match="unassigned"):
        sample(DistributionHandle(either, partition=Fraction(1)), 0)


STREAMS = [pytest.param(make_rng, id="numpy"), pytest.param(Philox.from_seed, id="philox")]


def _next_draws(rng):
    """The stream's next values: a double, then a 32-bit draw, which leaves half a word buffered."""
    return rng.random(), int(rng.integers(2**32)), rng.random()


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize(
    "circuit, short",
    [
        pytest.param(lambda: normalize_weights(build_equal(6)), False, id="equal6"),
        pytest.param(lambda: normalize_weights(compile_fpssm(majority_machine(8))), False, id="majority8"),
        pytest.param(lambda: normalize_weights(random_dc_circuit(make_rng(1), n=6)), True, id="random-dc"),
    ],
)
def test_block_drawn_samples_leave_the_stream_of_scalar_draws(stream, circuit, short):
    c = circuit()
    handle = DistributionHandle(c)
    most = handle.sampling_plan()[3]
    for seed, count in ((3, 1), (4, 7), (2**64 + 3, 300)):
        ours, theirs = stream(seed), stream(seed)
        if seed % 2:  # start with half a word buffered
            assert ours.integers(7) == theirs.integers(7)
        assert [sample(handle, ours) for _ in range(count)] == [reference_sample(c, theirs) for _ in range(count)]
        assert _next_draws(ours) == _next_draws(theirs)
    # each sample of equal(6) and of compiled majority(8) takes the plan's
    # most draws; some of the random circuit's take fewer, so the sampler
    # rewinds a partly used block
    used = []
    pure = Philox.from_seed(8)
    for _ in range(50):
        before = pure.state[0]
        reference_sample(c, pure)
        used.append(pure.state[0] - before)
    assert max(used) == most and (min(used) < most) == short


def _halves(root):
    """A circuit over two fair binary variables x and y, with partition=1 skipping the D&C gate."""
    b = CircuitBuilder()
    x, y = b.variable([0, 1]), b.variable([0, 1])
    half = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    c = b.build(root(b, b.leaf_function(x, half), b.leaf_function(y, half)))
    return c, DistributionHandle(c, partition=Fraction(1))


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize(
    "root, error",
    [
        # the sum picks x's leaf and then x's other leaf raises, or y's and the draw succeeds
        pytest.param(
            lambda b, fx, fy: b.product([b.leaf(fx), b.sum([(b.leaf(fx), Fraction(1, 2)), (b.leaf(fy), Fraction(1, 2))])]),
            "assigned twice",
            id="twice",
        ),
        # the sum picks x's leaf alone, leaving y unassigned, or both
        pytest.param(
            lambda b, fx, fy: b.sum([(b.leaf(fx), Fraction(1, 2)), (b.product([b.leaf(fx), b.leaf(fy)]), Fraction(1, 2))]),
            "unassigned",
            id="unassigned",
        ),
    ],
)
def test_rejected_samples_rewind_the_stream_as_scalar_draws(stream, root, error):
    c, handle = _halves(root)
    assert handle.sampling_plan()[3] == 3
    outcomes = set()
    for seed in range(16):
        ours, theirs = stream(seed), stream(seed)
        try:
            expected = reference_sample(c, theirs)
        except SpnError:
            with pytest.raises(SpnError, match=error):
                sample(handle, ours)
            outcomes.add("raised")
        else:
            assert sample(handle, ours) == expected
            outcomes.add("drawn")
        assert _next_draws(ours) == _next_draws(theirs)
    assert outcomes == {"raised", "drawn"}


def test_a_shared_dag_with_a_huge_draw_bound_raises_at_once():
    # p_i = p_{i-1} * p_{i-1}: the plan bounds a sample's draws by 2**64, but
    # the walk meets the leaf twice after one draw; the block is capped
    b = CircuitBuilder()
    x = b.variable([0, 1])
    node = b.leaf(b.leaf_function(x, {0: Fraction(1, 2), 1: Fraction(1, 2)}))
    for _ in range(64):
        node = b.product([node, node])
    handle = DistributionHandle(b.build(node), partition=Fraction(1))
    assert handle.sampling_plan()[3] == 2**64
    for stream in (make_rng, Philox.from_seed):
        rng, scalar = stream(9), stream(9)
        with pytest.raises(SpnError, match="assigned twice"):
            sample(handle, rng)
        scalar.random()
        assert _next_draws(rng) == _next_draws(scalar)


def test_samples_whose_draws_vary_draw_blocks_near_what_they_use():
    # a leaf, or a 1,000-deep chain of sums over it: 2 or 1,002 draws a sample
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    deep = b.leaf(f)
    for _ in range(1000):
        deep = b.sum([(deep, 1)])
    c = b.build(b.sum([(b.leaf(f), Fraction(1, 2)), (deep, Fraction(1, 2))]))
    handle = DistributionHandle(c)
    assert handle.sampling_plan()[2:] == (2, 1002)
    blocks = []

    class Spy(Philox):
        def uniforms(self, k):
            blocks.append(k)
            return super().uniforms(k)

    rng, scalar = Spy.from_seed(4), Philox.from_seed(4)
    used = set()
    for _ in range(20):
        blocks.clear()
        before = scalar.state[0]
        assert sample(handle, rng) == reference_sample(c, scalar)
        used.add(scalar.state[0] - before)
        assert sum(blocks) <= 2 * (scalar.state[0] - before)
    assert used == {2, 1002} and rng.state == scalar.state


def test_deep_product_chain_samples_without_recursion(tmp_path, capsys):
    b = CircuitBuilder()
    x = b.variable([0, 1])
    node = b.leaf(b.leaf_function(x, {0: 1, 1: 3}))
    for _ in range(10_000):
        node = b.product([node])
    c = b.build(node)
    handle = DistributionHandle(normalize_weights(c))
    draws = [sample(handle, seed)[0] for seed in range(20)]
    assert set(draws) == {0, 1}
    path, normalized = tmp_path / "chain.json", tmp_path / "normalized.json"
    path.write_text(serialize(c))
    assert cli.main(["normalize", str(path), "-o", str(normalized)]) == 0
    assert cli.main(["sample", str(normalized), "-n", "20", "--seed", "0"]) == 0
    stream = Philox.from_seed(0)
    assert capsys.readouterr() == ("".join(f"{sample(handle, stream)[0]}\n" for _ in range(20)), "")


def fraction_scan(masses, u):
    """Index of the first running sum above u, by exact comparison."""
    acc = Fraction(0)
    for i, w in enumerate(masses):
        acc += w
        if u < acc:
            return i
    return len(masses)


@pytest.mark.parametrize(
    "masses",
    [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 3)] * 3,
        [Fraction(1, 7)] * 7,
        [Fraction(1, 3), 0, Fraction(1, 7), 0, Fraction(11, 21)],
        [Fraction(1, 10**20), 1 - Fraction(1, 10**20)],
        [Fraction(4, 3), Fraction(-2, 3), Fraction(1, 3)],
    ],
)
def test_thresholds_decide_like_exact_running_sums(masses):
    thresholds = _thresholds(masses)
    # each is the least double >= the largest running sum so far
    for peak, t in zip(accumulate(accumulate(masses), max), thresholds):
        assert Fraction(t) >= peak > Fraction(math.nextafter(t, -math.inf))
    for t in thresholds:
        for u in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf), 0.0):
            assert bisect_right(thresholds, u) == fraction_scan(masses, u)


def test_threshold_is_the_sum_or_one_ulp_above():
    assert _thresholds([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]) == [0.5, 0.75, 1.0]
    third = _thresholds([Fraction(1, 3)])[0]
    assert third == math.nextafter(float(Fraction(1, 3)), math.inf)


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
