"""Structural predicates, transforms, the validity oracle, and the CNF reduction."""

import tracemalloc
from fractions import Fraction
from itertools import product as iter_product

import pytest

from spn.circuit import Circuit, CircuitBuilder, ConstantNode, LeafFunction, LeafNode, ProductNode, SumNode
from spn.errors import (
    DegenerateCircuitError,
    DomainError,
    ExtendedCircuitError,
    InstanceTooLargeError,
    MonotonicityError,
    SpnError,
    TrivialVariableError,
    ZeroCircuitError,
)
from spn.inference import DistributionHandle, MarginalQuery, marginalize, normalize_weights, partition_function
from spn.machines import build_equal, compile_fpssm, parity_machine
from spn.polynomial import expand, is_set_multilinear
from spn.rng import make_rng
from spn.structure import (
    _lattice_plan,
    ORACLE_MAX_DOMAIN,
    ORACLE_MAX_VARS,
    StructureReport,
    analyze,
    brute_force_validity,
    check_complete,
    check_decomposable,
    check_strong_validity,
    cnf_to_extended_spn,
    cnf_satisfiable,
    complete_transform,
    degeneracy_offenders,
    is_dc,
    parse_dimacs,
    prune_degenerate,
    require_dc,
    rewrite,
    validity_witness,
)

from genutil import (
    incomplete_valid_fixture,
    random_dc_circuit,
    random_free_circuit,
    randomize_tables,
    reference_validity,
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
    c = cnf_to_extended_spn([[1], []])  # the empty clause is a zero constant
    assert degeneracy_offenders(c) == tuple(n.id for n in c.nodes if isinstance(n, ConstantNode) and n.value == 0)
    assert len(degeneracy_offenders(c)) == 1
    checks = (analyze, check_decomposable, check_complete, is_dc, check_strong_validity, prune_degenerate, complete_transform)
    for check in checks:
        with pytest.raises(ExtendedCircuitError, match=rf"^{check.__name__} requires a monotone \(non-extended\)"):
            check(c)


def test_one_structural_pass_serves_every_verdict_and_gate(monkeypatch):
    # the report is built on the first verdict and kept on the circuit: after
    # it no verdict or gate computes scopes (a pass over the nodes) again
    source = compile_fpssm(parity_machine(8))
    query = MarginalQuery.of({0: [0, 1], 3: [1]}, {v: 1 for v in (1, 2, 4, 5, 6, 7)})
    expected = (marginalize(source, query), partition_function(source), normalize_weights(source))
    for first in (analyze, check_decomposable, check_complete, is_dc, degeneracy_offenders):
        c = Circuit(source.variables, source.leaf_functions, source.nodes, source.root)
        first(c)
        with monkeypatch.context() as m:
            m.setattr(Circuit, "scopes", lambda self: pytest.fail("scopes computed again"))
            assert analyze(c) is analyze(c) and analyze(c).strongly_valid
            assert is_dc(c) and check_decomposable(c) == check_complete(c) == (True, ()) and not degeneracy_offenders(c)
            assert check_strong_validity(c)
            require_dc(c, "an operation")
            assert (marginalize(c, query), partition_function(c)) == expected[:2]
            assert normalize_weights(c).structurally_equal(expected[2])
            assert DistributionHandle(c).partition == expected[1]


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


def test_rewrite_checks_added_leaf_functions():
    # the kept leaf functions are not checked again; an added one, or one
    # put in place of a kept one, is
    c = incomplete_decomposable_circuit()
    fns = list(c.leaf_functions)
    short = LeafFunction(len(fns), 0, {Fraction(0): Fraction(1)})
    negative = LeafFunction(len(fns), 0, {Fraction(0): Fraction(-1), Fraction(1): Fraction(1)})
    keep = lambda node, new, emit: node
    with pytest.raises(DomainError):
        rewrite(c, keep, fns + [short])
    with pytest.raises(MonotonicityError):
        rewrite(c, keep, fns + [negative])
    with pytest.raises(DomainError):
        rewrite(c, keep, [LeafFunction(0, 0, short.table)] + fns[1:])
    assert rewrite(c, keep, fns + [LeafFunction(len(fns), 0, {Fraction(0): 1, Fraction(1): 1})])


def test_rewrite_evaluates_as_a_fresh_build():
    # through two rewrites, one adding a leaf function with an integral and a
    # non-integral value, the circuit evaluates equal, with equal type, to
    # the same circuit built fresh
    c = build_equal(4)
    fns = list(c.leaf_functions)
    added = LeafFunction(len(fns), 0, {Fraction(0): Fraction(3), Fraction(1): Fraction(1, 2)})
    first_leaf = next(node.id for node in c.nodes if isinstance(node, LeafNode))
    swap = lambda node, new, emit: emit(LeafNode, added.id) if node.id == first_leaf else node
    twice = rewrite(rewrite(c, swap, fns + [added]), lambda node, new, emit: node)
    rebuilt = Circuit(twice.variables, twice.leaf_functions, twice.nodes, twice.root)
    for x in ([1, 0, 1, 1], [0, 0, 0, 0]):
        value = twice.evaluate(x)
        assert value == rebuilt.evaluate(x) and type(value) is type(rebuilt.evaluate(x))


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


def test_analyze_of_a_long_chain_fits_its_memory_budget():
    # compiled parity(2000) is a chain of 15,997 nodes whose prefix scopes grow
    # to 2,000 variables: one int per node keeps the peak flat (88 MB as frozensets)
    c = compile_fpssm(parity_machine(2000))
    tracemalloc.start()
    try:
        report = analyze(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert report == StructureReport(True, (), True, (), True, (), True, True)


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


def test_oracle_is_one_tabulation(monkeypatch):
    # one pass over the lattice: each variable of equal at n=4 ranges over
    # its three non-empty position sets, singletons first
    grids = []
    evaluate = Circuit.evaluate_selection
    monkeypatch.setattr(
        Circuit, "evaluate_selection", lambda self, s, grid=None: grids.append(grid) or evaluate(self, s, grid)
    )
    assert brute_force_validity(build_equal(4))
    assert grids == [{v: [(0,), (1,), (0, 1)] for v in range(4)}]


def test_witness_on_incomplete_fixture():
    assert validity_witness(incomplete_valid_fixture()) is None
    # (x1 x1 + 1) x2 with x1 integrated over {0, 1} and x2 = 1: the
    # substituted leaves give (1 * 1 + 1) * 1, the points (0 + 1) + (1 + 1)
    assert validity_witness(incomplete_valid_fixture(identity_second=True)) == ([(0, 1), (1,)], 2, 3)


def test_witness_on_satisfiable_cnf():
    # x1 (1 - x1 (1 - x1)) with x1 integrated over {0, 1}: the guard
    # reads 1 - 1 * 1, the points 0 and 1
    assert validity_witness(cnf_to_extended_spn([[1]])) == ([(0, 1)], 0, 1)


@pytest.mark.parametrize("sizes", [(3,), (1, 3), (3, 3), (2, 3, 2), (2, 2, 2, 2), (3, 3, 3, 3)])
def test_lattice_plan_gives_every_exhaustive_sum(sizes):
    # run over a random int table, the cached plan leaves in each cell the
    # sum of the all-singleton cells its selection covers, whatever the
    # other cells held before
    lattice, plan = _lattice_plan(sizes)
    assert _lattice_plan(sizes) is _lattice_plan(tuple(sizes))
    cells = list(iter_product(*lattice))
    table = [int(x) for x in make_rng(len(plan)).integers(-50, 50, size=len(cells))]
    singletons = {selection: v for selection, v in zip(cells, table) if all(len(s) == 1 for s in selection)}
    exhaustive = list(table)
    for d, q, r in plan:
        exhaustive[d] = exhaustive[q] + exhaustive[r]
    for selection, value in zip(cells, exhaustive):
        assert value == sum(singletons[tuple((p,) for p in point)] for point in iter_product(*selection)), selection


def test_witness_selects_all_three_positions():
    # g h k + m over a ternary x, with g, h and k the indicators of 0, 1
    # and 2: the product vanishes at every point and at every selection
    # but the full set, so the first unequal cell selects (0, 1, 2), whose
    # exhaustive sum comes from its prefix (0, 1) within the axis pass
    b = CircuitBuilder()
    x = b.variable([0, 1, 2])
    g, h, k = (b.leaf(b.leaf_function(x, {v: int(v == i) for v in range(3)})) for i in range(3))
    m = b.leaf(b.leaf_function(x, {0: 1, 1: 2, 2: 4}))
    c = b.build(b.sum([(b.product([g, h, k]), 1), (m, 1)]))
    assert validity_witness(c) == ([(0, 1, 2)], 8, 7)


def test_oracle_on_constant_root():
    # the dependency-scope is empty: one cell, with nothing to integrate
    b = CircuitBuilder()
    x = b.variable([0, 1])
    b.leaf(b.leaf_function(x, {0: 1, 1: 2}))
    c = b.build(b.constant(3))
    assert c.dependency_scope() == frozenset()
    assert validity_witness(c) is None
    assert brute_force_validity(c) == reference_validity(c)


def test_oracle_with_a_domain_one_variable():
    # x has the single value 5, so squaring its leaf breaks nothing;
    # squaring the leaf over the binary y does
    b = CircuitBuilder()
    x, y = b.variable([5]), b.variable([0, 1])
    lx = b.leaf(b.leaf_function(x, {5: 2}))
    ly = b.leaf(b.leaf_function(y, {0: 1, 1: 3}))
    valid = b.build(b.product([lx, lx, ly]))
    invalid = b.build(b.product([lx, ly, ly]))
    assert brute_force_validity(valid) == reference_validity(valid) is True
    assert brute_force_validity(invalid) == reference_validity(invalid) is False
    assert validity_witness(invalid) == ([(0,), (0, 1)], 32, 20)


def test_oracle_at_its_bound():
    # four variables with three values each: (2^3 - 1)^4 = 2,401 cells
    c = random_dc_circuit(make_rng(37), n=4, domain_size=3, max_size=15)
    assert len(c.dependency_scope()) == ORACLE_MAX_VARS
    assert {len(v.domain) for v in c.variables} == {ORACLE_MAX_DOMAIN}
    assert brute_force_validity(c) == reference_validity(c) is True


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
