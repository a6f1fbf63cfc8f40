"""Property tests: the library against the independent oracles of genutil.

Each property draws a seed, builds a random circuit from it with the
genutil generators, and compares the library's answer with an oracle
that does not share its evaluation path.  The profile is derandomized
and bounded, so the suite is deterministic and its cost fixed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spn.errors import ZeroPartitionError
from spn.inference import (
    DistributionHandle,
    MarginalQuery,
    is_weight_normalized,
    marginalize,
    normalize_weights,
    partition_function,
    sample,
)
from spn.polynomial import evaluate_via_expansion
from spn.rng import make_rng
from spn.separation import decompose
from spn.structure import brute_force_validity

from genutil import exhaustive_marginal, random_dc_circuit, random_free_circuit, reference_sample

PROFILE = settings(derandomize=True, max_examples=200, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def small_dc_circuit(rng):
    """A random D&C circuit inside the oracle's bound (n <= 4, |domain| <= 3)."""
    domain_size = int(rng.integers(2, 4))
    n = int(rng.integers(2, 4 if domain_size == 3 else 5))
    return random_dc_circuit(rng, n=n, domain_size=domain_size, max_size=15, positive_tables=False)


@PROFILE
@given(seeds)
def test_evaluate_matches_polynomial_expansion(seed):
    c = random_free_circuit(make_rng(seed), max_size=12)
    for assignment in c.iter_assignments():
        assert c.evaluate(assignment) == evaluate_via_expansion(c, assignment)


@PROFILE
@given(seeds)
def test_marginalize_matches_exhaustive_sum(seed):
    rng = make_rng(seed)
    c = small_dc_circuit(rng)
    for _ in range(5):
        integrate, fixed = {}, {}
        for v in sorted(c.dependency_scope()):
            domain = c.variables[v].domain
            if rng.random() < 0.5:
                fixed[v] = domain[int(rng.integers(len(domain)))]
            else:
                picks = rng.choice(len(domain), size=int(rng.integers(1, len(domain) + 1)), replace=False)
                integrate[v] = tuple(domain[int(i)] for i in picks)
        expected = exhaustive_marginal(c, integrate, fixed)
        assert marginalize(c, MarginalQuery.of(integrate, fixed)) == expected


@PROFILE
@given(seeds)
def test_normalize_preserves_density_with_unit_partition(seed):
    # tables may hold zeros, so some nodes have partition value zero
    c = small_dc_circuit(make_rng(seed))
    z = exhaustive_marginal(c, {v: c.variables[v].domain for v in c.dependency_scope()}, {})
    if z == 0:
        with pytest.raises(ZeroPartitionError):
            normalize_weights(c)
        return
    norm = normalize_weights(c)
    assert is_weight_normalized(norm)
    assert partition_function(norm) == 1
    for assignment in c.iter_assignments(range(len(c.variables))):
        assert norm.evaluate(assignment) == Fraction(c.evaluate(assignment)) / z


@PROFILE
@given(seeds)
def test_sample_matches_fraction_reference(seed):
    # most normalized circuits here have weights or tables with running
    # sums such as 1/3 or 5/7 that are not doubles
    try:
        norm = normalize_weights(small_dc_circuit(make_rng(seed)))
    except ZeroPartitionError:
        return
    handle = DistributionHandle(norm)
    ours, theirs = make_rng(seed), make_rng(seed)
    for _ in range(20):
        assert list(sample(handle, ours).items()) == list(reference_sample(norm, theirs).items())
    assert ours.random() == theirs.random()


@PROFILE
@given(seeds)
def test_validity_oracle_accepts_dc_circuits(seed):
    assert brute_force_validity(small_dc_circuit(make_rng(seed)))


@settings(PROFILE, max_examples=100)
@given(seeds)
def test_decompose_reconstructs_exactly(seed):
    rng = make_rng(seed)
    c = random_dc_circuit(rng, n=int(rng.integers(3, 6)), max_size=25)
    d = decompose(c)
    for t in d.terms:
        assert all(type(v) is Fraction for v in (*t.g_table.values(), *t.h_table.values()))
    for assignment in c.iter_assignments(range(len(c.variables))):
        assert d.reconstruct(assignment) == c.evaluate(assignment)
