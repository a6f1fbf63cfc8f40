"""Structural predicates, transforms, the validity oracle, and the CNF reduction."""

from itertools import product as iter_product

import pytest

from spn.circuit import Circuit, CircuitBuilder, LeafNode, ProductNode, SumNode
from spn.errors import (
    DegenerateCircuitError,
    ExtendedCircuitError,
    InstanceTooLargeError,
    SpnError,
    TrivialVariableError,
    ZeroCircuitError,
)
from spn.machines import build_equal
from spn.polynomial import expand, is_set_multilinear
from spn.rng import make_rng
from spn.structure import (
    analyze,
    brute_force_validity,
    check_complete,
    check_decomposable,
    check_strong_validity,
    cnf_to_extended_spn,
    cnf_satisfiable,
    complete_transform,
    parse_dimacs,
    prune_degenerate,
)

from genutil import (
    incomplete_valid_fixture,
    random_dc_circuit,
    random_free_circuit,
    randomize_tables,
    zero_weight_square_fixture,
)


def two_leaves(same_variable):
    b = CircuitBuilder()
    x1 = b.variable([0, 1])
    x2 = b.variable([0, 1])
    f1 = b.leaf_function(x1, {0: 1, 1: 2})
    f2 = b.leaf_function(x1 if same_variable else x2, {0: 1, 1: 3})
    return b, b.leaf(f1), b.leaf(f2)


def test_decomposable_product_of_distinct_variables():
    b, l1, l2 = two_leaves(same_variable=False)
    ok, violations = check_decomposable(b.build(b.product([l1, l2])))
    assert ok and violations == ()


def test_product_over_shared_variable_violates_decomposability():
    b, l1, l2 = two_leaves(same_variable=True)
    ok, violations = check_decomposable(b.build(b.product([l1, l2])))
    assert not ok and len(violations) == 1


def test_equal_circuit_is_dc():
    eq = build_equal(4)
    assert check_decomposable(eq) == (True, ())
    assert check_complete(eq) == (True, ())


def test_sum_over_same_variable_is_complete():
    b, l1, l2 = two_leaves(same_variable=True)
    ok, violations = check_complete(b.build(b.sum([(l1, 1), (l2, 1)])))
    assert ok and violations == ()


def test_sum_over_distinct_variables_is_incomplete():
    b, l1, l2 = two_leaves(same_variable=False)
    ok, violations = check_complete(b.build(b.sum([(l1, 1), (l2, 1)])))
    assert not ok and len(violations) == 1


def test_incomplete_fixture_is_neither_decomposable_nor_complete():
    c = incomplete_valid_fixture()
    assert not check_decomposable(c)[0]
    assert not check_complete(c)[0]


def test_structural_checks_reject_extended_circuits():
    c = cnf_to_extended_spn([[1]])
    with pytest.raises(ExtendedCircuitError):
        check_decomposable(c)
    with pytest.raises(ExtendedCircuitError):
        check_complete(c)


# -- pruning -------------------------------------------------------------------


def test_prune_zero_weight_square():
    c = zero_weight_square_fixture()
    assert not check_decomposable(c)[0]
    pruned = prune_degenerate(c)
    assert check_decomposable(pruned)[0]
    assert check_complete(pruned)[0]
    assert expand(pruned).terms == {((0, 1), (1, 1)): 1}
    assert check_strong_validity(pruned)


def test_prune_is_idempotent_and_preserves_expansion():
    rng = make_rng(31)
    checked = 0
    while checked < 40:
        c = random_free_circuit(rng, pruned=False, zero_weights=True)
        try:
            pruned = prune_degenerate(c)
        except ZeroCircuitError:
            continue
        checked += 1
        assert pruned.structurally_equal(prune_degenerate(pruned))
        assert expand(pruned).terms == expand(c).terms
        assert analyze(pruned).non_degenerate


def test_prune_fixed_point_on_clean_circuit():
    eq = build_equal(4)
    assert prune_degenerate(eq).structurally_equal(eq)


def test_prune_zero_circuit_reports_distinctly():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 1})
    c = b.build(b.sum([(b.leaf(f), 0)]))
    with pytest.raises(ZeroCircuitError):
        prune_degenerate(c)


def test_prune_removes_zero_constants():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 2})
    dead = b.product([b.leaf(f), b.constant(0)])
    live = b.leaf(f)
    c = b.build(b.sum([(dead, 1), (live, 1)]))
    pruned = prune_degenerate(c)
    assert analyze(pruned).non_degenerate
    assert expand(pruned).terms == expand(c).terms


# -- completeness transform ------------------------------------------------------


def incomplete_decomposable_circuit():
    b = CircuitBuilder()
    x1 = b.variable([0, 1])
    x2 = b.variable([0, 1])
    f1 = b.leaf_function(x1, {0: 1, 1: 2})
    f2 = b.leaf_function(x2, {0: 1, 1: 3})
    single = b.leaf(f1)
    pair = b.product([b.leaf(f1), b.leaf(f2)])
    return b.build(b.sum([(single, 2), (pair, 3)]))


def test_complete_transform_fixes_scope_mismatch():
    c = incomplete_decomposable_circuit()
    assert not check_complete(c)[0]
    fixed = complete_transform(c)
    assert check_complete(fixed)[0]
    assert check_decomposable(fixed)[0]
    for assignment in c.iter_assignments():
        assert fixed.evaluate(assignment) == c.evaluate(assignment)


def test_complete_transform_fixed_point():
    eq = build_equal(4)
    assert complete_transform(eq).structurally_equal(eq)


def test_complete_transform_node_order_is_pinned():
    # the leaf over x0 misses x1 and x2: their constant-one leaves follow the
    # old leaf functions in variable order, and the wrapped child follows them
    b = CircuitBuilder()
    x0, x1, x2 = b.variable([0, 1]), b.variable([0, 1]), b.variable([0, 1])
    f0 = b.leaf_function(x0, {0: 1, 1: 2})
    f1 = b.leaf_function(x1, {0: 3, 1: 1})
    f2 = b.leaf_function(x2, {0: 1, 1: 1})
    single = b.leaf(f0)
    whole = b.product([b.leaf(f0), b.leaf(f1), b.leaf(f2)])
    fixed = complete_transform(b.build(b.sum([(single, 2), (whole, 1)])))
    assert list(fixed.nodes) == [
        LeafNode(0, 0),
        LeafNode(1, 0),
        LeafNode(2, 1),
        LeafNode(3, 2),
        ProductNode(4, (1, 2, 3)),
        LeafNode(5, 3),
        LeafNode(6, 4),
        ProductNode(7, (0, 5, 6)),
        SumNode(8, (7, 4), (2, 1)),
    ]
    assert fixed.root == 8
    assert [(f.id, f.variable, f.name) for f in fixed.leaf_functions] == [
        (0, 0, None),
        (1, 1, None),
        (2, 2, None),
        (3, 1, "one_x1"),
        (4, 2, "one_x2"),
    ]


def test_complete_transform_on_random_circuits():
    rng = make_rng(33)
    for _ in range(40):
        c = random_free_circuit(rng, max_vars=4, max_domain=2)
        fixed = complete_transform(c)
        assert check_complete(fixed)[0]
        if check_decomposable(c)[0]:
            assert check_decomposable(fixed)[0]
        n = len(c.variables)
        sum_fanin = sum(
            len(node.children)
            for node in c.nodes
            if type(node).__name__ == "SumNode"
        )
        assert len(fixed.nodes) <= len(c.nodes) + n + sum_fanin
        for assignment in c.iter_assignments(range(n)):
            assert fixed.evaluate(assignment) == c.evaluate(assignment)


# -- strong validity ---------------------------------------------------------------


def test_strong_validity_of_dc_circuit():
    eq = build_equal(4)
    assert check_strong_validity(eq, audit=True)
    assert is_set_multilinear(expand(eq))


def test_incomplete_fixture_is_not_strongly_valid():
    c = incomplete_valid_fixture()
    assert not check_strong_validity(c, audit=True)


def test_strong_validity_requires_nondegenerate():
    with pytest.raises(DegenerateCircuitError):
        check_strong_validity(zero_weight_square_fixture())


def test_strong_validity_requires_nontrivial_variables():
    b = CircuitBuilder()
    x = b.variable([1])
    f = b.leaf_function(x, {1: 2})
    c = b.build(b.leaf(f))
    with pytest.raises(TrivialVariableError):
        check_strong_validity(c)


# -- brute-force oracle -----------------------------------------------------------


def test_oracle_accepts_dc_circuits():
    assert brute_force_validity(build_equal(4))
    rng = make_rng(35)
    for _ in range(10):
        c = random_dc_circuit(rng, n=3, max_size=12)
        assert brute_force_validity(c)


def test_oracle_on_incomplete_fixture():
    # valid for the complementary pair of leaf functions, invalid when the
    # second function is the identity
    assert brute_force_validity(incomplete_valid_fixture())
    assert not brute_force_validity(incomplete_valid_fixture(identity_second=True))


def test_oracle_evaluates_each_selection_once(monkeypatch):
    selections = []
    evaluate = Circuit.evaluate_selection
    monkeypatch.setattr(
        Circuit, "evaluate_selection", lambda self, s: selections.append(tuple(s)) or evaluate(self, s)
    )
    assert brute_force_validity(build_equal(4))
    # three non-empty position sets for each of the four binary variables
    assert len(selections) == len(set(selections)) == 81


def test_oracle_rejects_large_instances():
    with pytest.raises(InstanceTooLargeError):
        brute_force_validity(build_equal(6))


def test_three_way_equivalence_sampled():
    rng = make_rng(36)
    agree = 0
    for _ in range(60):
        c = random_free_circuit(rng)
        structural = check_decomposable(c)[0] and check_complete(c)[0]
        assert structural == is_set_multilinear(expand(c))
        if structural:
            for _ in range(5):
                assert brute_force_validity(randomize_tables(c, rng, lo=0))
            agree += 1
    assert agree >= 1


# -- CNF reduction ------------------------------------------------------------------


def test_unsat_cnf_gives_valid_circuit():
    c = cnf_to_extended_spn([[1], [-1]])
    assert c.extended
    assert brute_force_validity(c)


def test_sat_cnf_gives_invalid_circuit():
    assert not brute_force_validity(cnf_to_extended_spn([[1]]))


def test_xor_clause_semantics():
    c = cnf_to_extended_spn([[1, 2], [-1, -2]])
    values = {x: c.evaluate(dict(enumerate(x))) for x in iter_product([0, 1], repeat=2)}
    assert {x for x, v in values.items() if v > 0} == {(0, 1), (1, 0)}


def test_reduction_tracks_satisfiability():
    rng = make_rng(38)
    from genutil import random_3cnf

    for _ in range(25):
        n = int(rng.integers(1, 4))
        clauses = random_3cnf(rng, n, int(rng.integers(1, 5)))
        sat = cnf_satisfiable(clauses, n)
        assert brute_force_validity(cnf_to_extended_spn(clauses, n)) == (not sat)


def test_empty_clause_list_rejected():
    with pytest.raises(SpnError):
        cnf_to_extended_spn([])


def test_parse_dimacs():
    clauses, declared = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert clauses == [[1, -2], [2, 3]]
    assert declared == 3
