"""The shared immutable-record base of the IR, reports and machines."""

from collections import namedtuple
from fractions import Fraction

import pytest

from spn import inference
from spn.circuit import (
    CircuitMetrics,
    ConstantNode,
    LeafFunction,
    LeafNode,
    ProductNode,
    SumNode,
    VariableSpec,
    from_json_dict,
)
from spn.errors import DomainError, SerializationError, SpnError
from spn.inference import DistributionHandle, MarginalQuery, normalize_weights
from spn.machines import Fplm, Fpssm, build_equal, fpssm_to_fplm, parity_machine
from spn.records import Record
from spn.separation import CommMatrix, Decomposition, DecompositionTerm
from spn.structure import StructureReport

HALF = Fraction(1, 2)


class LeafNodeTwin(Record, namedtuple("LeafNode", "id leaf_function")):
    """Another record class with LeafNode's name and fields."""

    __slots__ = ()


def records():
    return [
        VariableSpec(0, (Fraction(0), Fraction(1))),
        LeafFunction(0, 0, {Fraction(0): HALF, Fraction(1): HALF}),
        LeafNode(0, 0),
        ConstantNode(1, HALF),
        SumNode(2, (0, 1), (HALF, HALF)),
        ProductNode(3, (0, 1)),
        CircuitMetrics(4, 3, 1, True),
        StructureReport(True, (), True, (), True, (), True, True),
        MarginalQuery({0: (Fraction(0),)}, {}),
        CommMatrix((0,), (1,), ((1, 0), (0, 1))),
        DecompositionTerm((0,), (1,), {}, {}),
        Decomposition((), 3),
        parity_machine(2),
        fpssm_to_fplm(parity_machine(2)),
    ]


def test_records_are_equal_only_to_records_of_their_class():
    for record in records():
        assert isinstance(record, Record)
        assert record == type(record)(*record) and not record != type(record)(*record)
        assert record != tuple(record) and not record == tuple(record)
    assert LeafNode(0, 1) != LeafNodeTwin(0, 1) and not LeafNode(0, 1) == LeafNodeTwin(0, 1)
    assert LeafNode(0, 1) != ConstantNode(0, 1)
    assert LeafFunction(0, 0, {}) == LeafFunction(0, 0, {}, None)


def test_records_hash_as_the_tuple_of_their_fields():
    for record in (SumNode(2, (0, 1), (HALF, HALF)), ProductNode(3, (0, 1)), CircuitMetrics(4, 3, 1, True)):
        assert hash(record) == hash(tuple(record))
    assert len({LeafNode(0, 1), LeafNode(0, 1), LeafNode(1, 1)}) == 2
    with pytest.raises(TypeError):  # a dict field is unhashable, as in a frozen dataclass
        hash(LeafFunction(0, 0, {}))


def test_records_are_immutable():
    for record in records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, 7)
        with pytest.raises(AttributeError):
            record.extra = 7


def test_record_repr_is_pinned():
    assert repr(LeafNode(0, 3)) == "LeafNode(id=0, leaf_function=3)"
    assert repr(SumNode(2, (0, 1), (Fraction(1, 3), Fraction(2, 3)))) == (
        "SumNode(id=2, children=(0, 1), weights=(Fraction(1, 3), Fraction(2, 3)))"
    )


def test_record_constructors_keep_their_checks():
    with pytest.raises(DomainError, match="variable 3: empty domain"):
        VariableSpec(3, ())
    with pytest.raises(DomainError, match="variable 3: duplicate domain values"):
        VariableSpec(id=3, domain=(Fraction(0), Fraction(0)))
    good = parity_machine(2)._asdict()
    with pytest.raises(SpnError, match="initial state out of range"):
        Fpssm(**{**good, "initial_state": 2})
    with pytest.raises(SpnError, match="decode must map every state"):
        Fpssm(**{**good, "decode": (Fraction(-1), Fraction(1))})
    fplm = fpssm_to_fplm(parity_machine(2))._asdict()
    with pytest.raises(SpnError, match="a and b must have the model dimension"):
        Fplm(**{**fplm, "a": (Fraction(1),)})
    with pytest.raises(SpnError, match="a and b must be non-negative"):
        Fplm(*{**fplm, "b": (Fraction(-1), Fraction(0))}.values())


def test_records_are_not_json_arrays():
    doc = {"variables": VariableSpec(0, (Fraction(0), Fraction(1))), "leaf_functions": [], "nodes": [], "root": 0}
    with pytest.raises(SerializationError, match="variables: expected an array"):
        from_json_dict(doc)


def test_distribution_handle_keeps_a_given_partition(monkeypatch):
    circuit = normalize_weights(build_equal(4))
    monkeypatch.setattr(inference, "partition_function", lambda c: pytest.fail("partition recomputed"))
    z = Fraction(1)
    handle = DistributionHandle(circuit, partition=z)
    assert handle.circuit is circuit and handle.partition is z
    plan = handle.sampling_plan()
    assert handle.sampling_plan() is plan
    with pytest.raises(AttributeError):
        handle.other = 1
    monkeypatch.undo()
    assert DistributionHandle(circuit).partition == 1
    assert DistributionHandle(build_equal(4)).partition == 4

