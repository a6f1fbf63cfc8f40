"""Circuit IR: construction invariants, evaluation, scopes, metrics, JSON I/O."""

from fractions import Fraction

import pytest

from spn.circuit import (
    CircuitBuilder,
    deserialize,
    serialize,
    variables_of,
)
from spn.errors import (
    CircuitStructureError,
    CycleError,
    DomainError,
    MonotonicityError,
    SerializationError,
    UnknownVariableError,
)
from spn.machines import build_equal
from spn.rng import make_rng

from genutil import path_search_metrics, product_of_two_leaves, random_free_circuit


def single_constant(value=5):
    b = CircuitBuilder()
    return b.build(b.constant(value))


def test_constant_circuit_evaluates_to_its_value():
    c = single_constant(5)
    assert c.evaluate({}) == 5


def test_product_of_table_lookups():
    c = product_of_two_leaves()
    assert c.evaluate({0: 1, 1: 1}) == 6
    assert c.evaluate({0: 0, 1: 1}) == 3
    assert c.evaluate([1, 0]) == 2


def test_equal_circuit_evaluation():
    eq = build_equal(4)
    assert eq.evaluate([1, 0, 1, 0]) == 1
    assert eq.evaluate([1, 0, 0, 1]) == 0


def test_evaluate_rejects_bad_assignments():
    c = product_of_two_leaves()
    with pytest.raises(UnknownVariableError):
        c.evaluate({0: 1, 7: 0, 1: 1})
    with pytest.raises(UnknownVariableError):
        c.evaluate({0: 1})
    with pytest.raises(DomainError):
        c.evaluate({0: 2, 1: 1})
    with pytest.raises(UnknownVariableError):
        c.evaluate({-1: 0, 0: 1, 1: 1})
    with pytest.raises(DomainError):
        c.evaluate({0: [1], 1: 1})  # unhashable value
    with pytest.raises(DomainError):
        c.evaluate({0: "1", 1: 1})


def test_position_rejects_unknown_variables():
    eq = build_equal(2)
    assert eq.position(1, 1) == 1
    with pytest.raises(UnknownVariableError, match="unknown variable -1"):
        eq.position(-1, 1)
    with pytest.raises(UnknownVariableError, match="unknown variable 9"):
        eq.position(9, 0)
    with pytest.raises(DomainError):
        eq.position(0, 2)


def test_evaluate_result_types():
    c = product_of_two_leaves()
    assert type(c.evaluate({0: 1, 1: 1})) is int
    assert type(c.evaluate({0: Fraction(1), 1: Fraction(0)})) is int
    b = CircuitBuilder()
    x = b.variable([0, 1])
    half = b.build(b.leaf(b.leaf_function(x, {0: "1/2", 1: 2})))
    assert half.evaluate([0]) == Fraction(1, 2) and type(half.evaluate([0])) is Fraction
    assert type(half.evaluate([1])) is int


def test_scopes():
    b = CircuitBuilder()
    x1 = b.variable([0, 1])
    x2 = b.variable([0, 1])
    f11 = b.leaf_function(x1, {0: 1, 1: 1})
    f21 = b.leaf_function(x2, {0: 1, 1: 1})
    l1 = b.leaf(f11)
    l2 = b.leaf(f21)
    k = b.constant(2)
    s = b.sum([(l1, 1), (b.leaf(f11), 2)])
    p = b.product([s, l2, k])
    c = b.build(p)
    scopes = c.scopes()
    assert all(type(m) is int for m in scopes)
    assert scopes[k] == 0
    assert scopes[l1] == 1 << x1 and scopes[l2] == 1 << x2
    assert scopes[s] == scopes[l1] == scopes[s - 1]
    assert scopes[p] == (1 << x1) | (1 << x2)
    assert variables_of(scopes[p]) == [x1, x2] and variables_of(0) == []
    assert variables_of((1 << 70) | 5) == [0, 2, 70]
    assert c.dependency_scope() == frozenset([x1, x2])
    # the reported set is built once, not per call
    assert c.dependency_scope() is c.dependency_scope()


def test_metrics_basics():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 1})
    leaf_only = b.build(b.leaf(f))
    m = leaf_only.metrics()
    assert (m.size, m.depth, m.product_depth, m.is_formula) == (1, 1, 0, True)

    eq = build_equal(4)
    m = eq.metrics()
    assert m.depth == 4
    assert m.size <= 8 * 4
    assert m.product_depth == 2


def test_shared_node_breaks_formula_property():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 2})
    l = b.leaf(f)
    s1 = b.sum([(l, 1)])
    s2 = b.sum([(l, 2)])
    c = b.build(b.sum([(s1, 1), (s2, 1)]))
    assert not c.metrics().is_formula


def test_monotone_evaluation_is_nonnegative():
    rng = make_rng(20241)
    for _ in range(30):
        c = random_free_circuit(rng)
        for assignment in c.iter_assignments():
            assert c.evaluate(assignment) >= 0


def test_metrics_against_path_search():
    rng = make_rng(20240)
    for _ in range(60):
        c = random_free_circuit(rng, max_size=12)
        m = c.metrics()
        depth, pdepth = path_search_metrics(c)
        assert m.depth == depth
        assert m.product_depth == pdepth
        assert m.size == len(c.nodes)


def test_builder_enforces_monotonicity():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 1})
    l = b.leaf(f)
    b.sum([(l, -1)])
    with pytest.raises(MonotonicityError):
        b.build(l)


def test_extended_flag_allows_negatives():
    b = CircuitBuilder(extended=True)
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 1})
    s = b.sum([(b.leaf(f), -1)])
    c = b.build(s)
    assert c.evaluate({0: 0}) == -1


def test_duplicate_domain_rejected():
    b = CircuitBuilder()
    with pytest.raises(DomainError):
        b.variable([0, 0])


def test_serialize_round_trip():
    c = product_of_two_leaves()
    again = deserialize(serialize(c))
    assert c.structurally_equal(again)
    assert serialize(c) == serialize(again)


def test_round_trip_random_circuits():
    rng = make_rng(7)
    for _ in range(25):
        c = random_free_circuit(rng)
        assert c.structurally_equal(deserialize(serialize(c)))


def test_round_trip_preserves_fraction_values():
    b = CircuitBuilder()
    x = b.variable([0, Fraction(1, 2), 1])
    f = b.leaf_function(x, {0: Fraction(1, 3), Fraction(1, 2): 2, 1: 0})
    c = b.build(b.sum([(b.leaf(f), Fraction(2, 7))]))
    again = deserialize(serialize(c))
    assert c.structurally_equal(again)
    assert again.evaluate({0: Fraction(1, 2)}) == Fraction(4, 7)
    assert again.evaluate({0: 0}) == Fraction(2, 21)


def test_deserialize_rejects_forward_reference():
    text = serialize(product_of_two_leaves())
    doc = text.replace('"children": [0, 1]', '"children": [0, 2]')
    with pytest.raises((CycleError, CircuitStructureError)):
        deserialize(doc)


def test_deserialize_rejects_negative_weight_without_extended_flag():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 1})
    c = b.build(b.sum([(b.leaf(f), 1)]))
    doc = serialize(c).replace('"weights": ["1"]', '"weights": ["-1"]')
    with pytest.raises(MonotonicityError):
        deserialize(doc)


def test_deserialize_rejects_garbage():
    with pytest.raises(SerializationError):
        deserialize("not json")
    with pytest.raises(SerializationError):
        deserialize("[1, 2]")
    with pytest.raises(SerializationError):
        deserialize('{"variables": []}')


def test_deserialize_rejects_an_integer_past_the_digit_limit():
    # Python's int/str conversion stops at 4,300 digits by default
    doc = serialize(build_equal(2)).replace('"root": ', '"root": ' + "9" * 5000, 1)
    with pytest.raises(SerializationError, match="invalid JSON: Exceeds the limit"):
        deserialize(doc)


def test_root_must_have_no_parents():
    b = CircuitBuilder()
    x = b.variable([0, 1])
    f = b.leaf_function(x, {0: 1, 1: 1})
    l = b.leaf(f)
    b.sum([(l, 1)])
    with pytest.raises(CircuitStructureError):
        b.build(l)
