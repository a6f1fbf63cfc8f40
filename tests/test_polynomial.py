"""Polynomial expansion and the multilinearity predicates."""

from fractions import Fraction

import pytest

from spn.circuit import CircuitBuilder
from spn.errors import SpnError, TermExplosionError
from spn.inference import normalize_weights
from spn.machines import build_equal, compile_fpssm, majority_machine
from spn.polynomial import (
    SparsePolynomial,
    expand,
    is_multilinear,
    is_set_multilinear,
    multilinear_identity_test,
)
from spn.rng import make_rng
from spn.structure import cnf_to_extended_spn

from genutil import (
    evaluate_via_expansion,
    incomplete_valid_fixture,
    leaf_function_scope,
    random_3cnf,
    random_dc_circuit,
    random_free_circuit,
    reference_expand,
)

# groups used by the hand-written polynomials below: f0,f1 belong to
# variable 0 and f2,f3 to variable 1
GROUPS = {0: 0, 1: 0, 2: 1, 3: 1}


def poly(terms):
    return SparsePolynomial(terms, GROUPS)


def test_expand_single_leaf():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 2})
    p = expand(b.build(b.leaf(f)))
    assert p.terms == {((f, 1),): Fraction(1)}


def test_expand_weighted_sum():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f1 = b.leaf_function(x, {0: 1, 1: 1})
    f2 = b.leaf_function(x, {0: 1, 1: 0})
    s = b.sum([(b.leaf(f1), 2), (b.leaf(f2), 3)])
    p = expand(b.build(s))
    assert p.terms == {((f1, 1),): Fraction(2), ((f2, 1),): Fraction(3)}


def test_expand_incomplete_fixture():
    c = incomplete_valid_fixture()
    p = expand(c)
    # (f0 f1 + 1) f2 = f0 f1 f2 + f2
    assert p.terms == {
        ((0, 1), (1, 1), (2, 1)): Fraction(1),
        ((2, 1),): Fraction(1),
    }


def test_expand_cap():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    leaves = [b.leaf(b.leaf_function(x, {0: 1, 1: 1})) for _ in range(4)]
    sums = [b.sum([(l, 1) for l in leaves]) for _ in range(3)]
    c = b.build(b.product(sums))
    with pytest.raises(TermExplosionError):
        expand(c, max_terms=10)


def test_expand_squaring_chain_adds_exponents():
    # p_i = p_(i-1) * p_(i-1), 64 deep: one monomial f^(2^64), never
    # spelled out factor by factor
    b = CircuitBuilder()
    f = b.leaf_function(b.variable([0, 1]), {0: 1, 1: 2})
    p = b.leaf(f)
    for _ in range(64):
        p = b.product([p, p])
    assert expand(b.build(p)).terms == {((f, 2**64),): Fraction(1)}


def test_expand_cap_on_compiled_majority_names_the_node():
    c = compile_fpssm(majority_machine(24))
    with pytest.raises(TermExplosionError, match=r"^expansion exceeds 20000 monomials at node 444$"):
        expand(c, max_terms=20000)


def test_expand_cap_counts_only_nonzero_terms():
    # extended circuits cancel: f0 - f0 + f1 has one term, and
    # (f0 + f1)(f0 - f1) two, with the cross terms cancelling in the product
    b = CircuitBuilder(extended=True)
    x = b.variable([0, 1])
    f0, f1 = b.leaf_function(x, {0: 1, 1: 0}), b.leaf_function(x, {0: 0, 1: 1})
    l0, l0b, l1 = b.leaf(f0), b.leaf(f0), b.leaf(f1)
    cancelled = b.sum([(l0, 1), (l0b, -1), (l1, 1)])
    assert expand(b.build(cancelled), max_terms=1).terms == {((f1, 1),): Fraction(1)}
    square_difference = b.product([b.sum([(l0, 1), (l1, 1)]), b.sum([(l0, 1), (l1, -1)])])
    assert expand(b.build(square_difference), max_terms=2).terms == {((f0, 2),): 1, ((f1, 2),): -1}


def test_expand_matches_reference_expansion():
    # free, D&C, extended (cancelling) and normalized (Fraction weights)
    # circuits: the same term map, every coefficient held as the IR holds
    # values (an int when integral, a Fraction otherwise)
    rng = make_rng(21)
    circuits = [random_free_circuit(rng, max_vars=4, max_domain=3, max_size=18) for _ in range(40)]
    circuits += [random_free_circuit(rng, pruned=False, zero_weights=True) for _ in range(20)]
    circuits += [random_dc_circuit(rng, int(rng.integers(2, 5)), domain_size=int(rng.integers(2, 4))) for _ in range(20)]
    circuits += [cnf_to_extended_spn(random_3cnf(rng, 3, int(rng.integers(1, 5))), 3) for _ in range(20)]
    circuits += [normalize_weights(random_dc_circuit(rng, 3, max_size=25)) for _ in range(20)]
    assert any(c.extended for c in circuits)
    for c in circuits:
        p = expand(c)
        assert p.terms == reference_expand(c)
        for coeff in p.terms.values():
            assert type(coeff) is (int if coeff.denominator == 1 else Fraction)


def test_is_multilinear():
    assert is_multilinear(poly({((0, 1), (2, 1)): 1}))
    assert not is_multilinear(poly({((0, 2),): 1}))
    assert is_multilinear(poly({}))


def test_set_multilinear_textbook_pair():
    # 3 y1 y3 - y2 y4 with groups {y1,y2}, {y3,y4} is set-multilinear;
    # y1 y2 + 2 y2 y4 is not.
    good = poly({((0, 1), (2, 1)): 3, ((1, 1), (3, 1)): -1})
    bad = poly({((0, 1), (1, 1)): 1, ((1, 1), (3, 1)): 2})
    assert is_set_multilinear(good)
    assert not is_set_multilinear(bad)
    assert is_set_multilinear(poly({}))


def test_set_multilinear_requires_grouping():
    p = SparsePolynomial({((9, 1),): 1}, {})
    with pytest.raises(SpnError):
        is_set_multilinear(p)


def test_monomial_missing_a_scope_group_is_not_sml():
    p = poly({((0, 1), (2, 1)): 1, ((0, 1),): 1})
    assert not is_set_multilinear(p)


def test_set_multilinear_rejects_repeated_groups():
    # set-scope {0, 1}: a squared factor, or two factors from one group,
    # fails even when every group is present
    assert not is_set_multilinear(poly({((0, 2), (2, 1)): 1}))
    assert not is_set_multilinear(poly({((0, 1), (1, 1), (2, 1)): 1, ((0, 1), (2, 1)): 1}))
    assert not is_set_multilinear(poly({((0, 1), (2, 2)): 1, ((1, 1), (3, 1)): 1}))
    assert is_set_multilinear(poly({((0, 1), (2, 1)): 1, ((1, 1), (2, 1)): 5, ((0, 1), (3, 1)): 2}))
    assert is_set_multilinear(poly({((3, 1),): 1, ((2, 1),): 2}))  # set-scope {1}


def test_identity_test_reflexive_and_discriminating():
    p = poly({((0, 1),): 1})
    q = poly({((1, 1),): 1})
    assert multilinear_identity_test(p, p)
    assert not multilinear_identity_test(p, q)


def test_identity_test_rejects_nonmultilinear():
    with pytest.raises(SpnError):
        multilinear_identity_test(poly({((0, 2),): 1}), poly({}))


def test_identity_test_on_two_equal_circuits():
    # two structurally different circuits for the same function: the
    # four-layer half-equality circuit and its mixture-of-products form
    eq = build_equal(2)
    b = CircuitBuilder()
    for _ in range(2):
        b.variable([0, 1])
    i0 = b.leaf_function(0, {0: 0, 1: 1})
    i1 = b.leaf_function(1, {0: 0, 1: 1})
    n0 = b.leaf_function(0, {0: 1, 1: 0})
    n1 = b.leaf_function(1, {0: 1, 1: 0})
    both1 = b.product([b.leaf(i0), b.leaf(i1)])
    both0 = b.product([b.leaf(n0), b.leaf(n1)])
    c2 = b.build(b.sum([(both1, 1), (both0, 1)]))
    p = expand(eq)
    q = expand(c2)
    assert multilinear_identity_test(p, q)
    assert p.terms == q.terms


def test_monotone_expansion_has_nonnegative_coefficients():
    rng = make_rng(11)
    for _ in range(100):
        c = random_free_circuit(rng, max_vars=4, max_domain=3, max_size=15)
        p = expand(c)
        assert all(coeff > 0 for coeff in p.terms.values())


def test_node_scope_contains_polynomial_scope_with_equality_after_pruning():
    from spn.structure import prune_degenerate
    from spn.errors import ZeroCircuitError

    rng = make_rng(14)
    checked = 0
    while checked < 40:
        c = random_free_circuit(rng, pruned=False, zero_weights=True)
        node_scope = leaf_function_scope(c)
        assert expand(c).scope() <= node_scope
        try:
            pruned = prune_degenerate(c)
        except ZeroCircuitError:
            continue
        checked += 1
        assert expand(pruned).scope() == leaf_function_scope(pruned)


def test_identity_test_iff_equal_term_maps():
    rng = make_rng(15)
    fids = [0, 1, 2, 3]
    for _ in range(60):
        def random_poly():
            terms = {}
            for _ in range(int(rng.integers(0, 5))):
                size = int(rng.integers(0, 4))
                vs = sorted(int(v) for v in rng.choice(fids, size=size, replace=False))
                mono = tuple((v, 1) for v in vs)
                terms[mono] = Fraction(int(rng.integers(-3, 4)))
            return poly(terms)

        p, q = random_poly(), random_poly()
        assert multilinear_identity_test(p, q) == (p.terms == q.terms)


def test_expand_agrees_with_evaluate():
    rng = make_rng(12)
    checked = 0
    for _ in range(100):
        c = random_free_circuit(rng, max_vars=4, max_domain=3, max_size=15)
        for assignment in c.iter_assignments():
            assert evaluate_via_expansion(c, assignment) == c.evaluate(assignment)
            checked += 1
    assert checked > 300


def test_nondegenerate_expansion_is_nonzero():
    rng = make_rng(13)
    for _ in range(50):
        c = random_free_circuit(rng)
        assert not expand(c).is_zero()


def test_dump_is_sorted_and_stable():
    p = poly({((0, 1), (2, 1)): 3, ((1, 1), (3, 1)): -1})
    assert p.dump() == "3 * f0 * f2\n-1 * f1 * f3"
    assert poly({}).dump() == "0"
