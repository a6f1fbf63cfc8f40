"""State machines, their compilation chain, and the depth-4 half-equality circuit."""

from fractions import Fraction
from itertools import product as iter_product

import pytest

from spn.errors import InstanceTooLargeError, SpnError
from spn.machines import (
    MAX_EQUAL_N,
    MAX_ONE_HOT_CELLS,
    Fplm,
    build_equal,
    compile_fpssm,
    count_ones_machine,
    equal_function,
    eval_fplm,
    eval_fpssm,
    fpssm_from_json_dict,
    fpssm_to_fplm,
    fplm_to_spn,
    majority_machine,
    parity_machine,
)
from spn.inference import partition_function
from spn.rng import make_rng
from spn.structure import check_complete, check_decomposable

BINARY = (Fraction(0), Fraction(1))


def bits(n):
    return iter_product([0, 1], repeat=n)


def test_machine_evaluations():
    assert eval_fpssm(parity_machine(3), (1, 0, 1)) == 0
    assert eval_fpssm(parity_machine(3), (1, 1, 1)) == 1
    assert eval_fpssm(majority_machine(3), (1, 1, 0)) == 1
    assert eval_fpssm(majority_machine(3), (1, 0, 0)) == 0
    assert eval_fpssm(count_ones_machine(4), (1, 1, 1, 0)) == 3


def test_parity_fplm_matrices_are_identity_and_swap():
    fplm = fpssm_to_fplm(parity_machine(2))
    identity = ((1, 0), (0, 1))
    swap = ((0, 1), (1, 0))
    for i in range(2):
        assert fplm.matrices[i][Fraction(0)] == identity
        assert fplm.matrices[i][Fraction(1)] == swap
    assert fplm.a == (1, 0)
    assert fplm.b == (0, 1)


def test_identity_machine_compiles_to_constant_output():
    from spn.machines import Fpssm

    n = 3
    m = Fpssm(
        n=n,
        order=tuple(range(n)),
        state_size=2,
        initial_state=1,
        transitions=tuple({Fraction(0): (0, 1), Fraction(1): (0, 1)} for _ in range(n)),
        decode=(Fraction(5), Fraction(7)),
        domains=tuple(BINARY for _ in range(n)),
    )
    fplm = fpssm_to_fplm(m)
    for x in bits(n):
        assert eval_fpssm(m, x) == 7
        assert eval_fplm(fplm, x) == 7


def test_fpssm_to_fplm_exhaustive_majority():
    n = 9
    m = majority_machine(n)
    fplm = fpssm_to_fplm(m)
    for x in bits(n):
        assert eval_fplm(fplm, x) == eval_fpssm(m, x)


def test_scalar_chain_computes_product():
    n = 4
    fplm = Fplm(
        n=n,
        order=tuple(range(n)),
        dim=1,
        a=(Fraction(1),),
        b=(Fraction(1),),
        matrices=tuple(
            {Fraction(0): ((Fraction(0),),), Fraction(1): ((Fraction(1),),)}
            for _ in range(n)
        ),
        domains=tuple(BINARY for _ in range(n)),
    )
    c = fplm_to_spn(fplm)
    for x in bits(n):
        expected = 1
        for v in x:
            expected *= v
        assert c.evaluate(dict(enumerate(x))) == expected


def test_fplm_rejects_missing_tables():
    cell = ((Fraction(1),),)
    good = dict(
        n=2,
        order=(0, 1),
        dim=1,
        a=(Fraction(1),),
        b=(Fraction(1),),
        matrices=({Fraction(0): cell, Fraction(1): cell},) * 2,
        domains=(BINARY, BINARY),
    )
    assert fplm_to_spn(Fplm(**good)).evaluate({0: 0, 1: 1}) == 1
    with pytest.raises(SpnError, match="variable 0 must have one entry per domain value"):
        Fplm(**{**good, "matrices": ({Fraction(0): cell},) * 2})
    for field in ("domains", "matrices"):
        with pytest.raises(SpnError, match="one entry per variable"):
            Fplm(**{**good, field: good[field][:1]})


def test_compiled_parity_is_dc_and_correct():
    n = 4
    m = parity_machine(n)
    c = compile_fpssm(m)
    assert check_decomposable(c)[0]
    assert check_complete(c)[0]
    for x in bits(n):
        assert c.evaluate(dict(enumerate(x))) == eval_fpssm(m, x)


def test_compilation_chain_commutes_with_evaluation():
    rng = make_rng(55)
    for n in (3, 5, 7):
        for builder in (parity_machine, majority_machine, count_ones_machine):
            m = builder(n)
            c = compile_fpssm(m)
            for _ in range(40):
                x = tuple(int(rng.integers(2)) for _ in range(n))
                assert c.evaluate(dict(enumerate(x))) == eval_fpssm(m, x)


def test_compiled_size_envelope():
    # node count <= 3 n k^2 across the built-in machines
    for n in (4, 6, 8):
        for builder, k in (
            (parity_machine, 2),
            (majority_machine, n + 1),
            (count_ones_machine, n + 1),
        ):
            c = compile_fpssm(builder(n))
            assert len(c.nodes) <= 3 * n * k * k


def test_leaf_table_sharing_shrinks_function_count():
    # cells with equal tables share one leaf function, all-zero cells get none
    n = 6
    for builder in (parity_machine, majority_machine, count_ones_machine):
        m = builder(n)
        c = compile_fpssm(m)
        assert len(c.leaf_functions) < n * m.state_size**2
        for x in bits(n):
            assert c.evaluate(dict(enumerate(x))) == eval_fpssm(m, x)
    # the compile that built every cell gave 4,226 nodes here
    assert len(compile_fpssm(majority_machine(12)).nodes) == 215


def test_one_hot_bound_admits_the_documented_sizes_and_rejects_past_them():
    # majority(24), the largest built-in machine the docs run, embeds in
    # 24 * 2 * 25^2 = 30,000 cells; count-ones(50) in 260,100, the most
    # under the bound; count-ones(51) and parity(32,769) exceed it before
    # any table is built
    assert fpssm_to_fplm(majority_machine(24)).dim == 25
    assert 2 * 50 * 51**2 <= MAX_ONE_HOT_CELLS < 2 * 51 * 52**2
    assert count_ones_machine(50).state_size == 51
    for build, n in ((count_ones_machine, 51), (majority_machine, 51), (parity_machine, MAX_ONE_HOT_CELLS // 8 + 1)):
        with pytest.raises(InstanceTooLargeError, match="one-hot embedding"):
            build(n)
    with pytest.raises(InstanceTooLargeError, match="equal of"):
        build_equal(MAX_EQUAL_N + 2)


# -- the half-equality circuit ------------------------------------------------------


def test_equal_n2():
    eq = build_equal(2)
    values = {x: eq.evaluate(dict(enumerate(x))) for x in bits(2)}
    assert values == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}


def test_equal_n4_exhaustive():
    eq = build_equal(4)
    fn = equal_function(4)
    for x in bits(4):
        assert eq.evaluate(dict(enumerate(x))) == fn(x)


def test_equal_partition_function_counts_matches():
    assert partition_function(build_equal(8)) == 2**4


def test_equal_rejects_odd_n():
    with pytest.raises(SpnError):
        build_equal(3)


def test_fpssm_json_round_trip_behaviour():
    m = parity_machine(3)
    doc = {
        "n": 3,
        "order": [0, 1, 2],
        "state_size": 2,
        "initial_state": 0,
        "transitions": [{"0": [0, 1], "1": [1, 0]} for _ in range(3)],
        "decode": ["0", "1"],
    }
    parsed = fpssm_from_json_dict(doc)
    for x in bits(3):
        assert eval_fpssm(parsed, x) == eval_fpssm(m, x)
