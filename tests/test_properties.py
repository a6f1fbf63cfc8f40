"""Property tests: the library against the independent oracles of genutil.

Each property draws a seed, builds a random circuit from it with the
genutil generators, and compares the library's answer with an oracle
that does not share its evaluation path.  The profile is derandomized
and bounded, so the suite is deterministic and its cost fixed.
"""

import math
from fractions import Fraction
from itertools import combinations, product as iter_product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from spn.circuit import (
    Circuit,
    CircuitBuilder,
    ConstantNode,
    LeafFunction,
    ProductNode,
    SumNode,
    VariableSpec,
    deserialize,
    serialize,
    variables_of,
)
from spn.errors import DomainError, SpnError, ZeroCircuitError, ZeroPartitionError
from spn.inference import (
    DistributionHandle,
    MarginalQuery,
    is_weight_normalized,
    marginalize,
    normalize_weights,
    partition_function,
    sample,
)
from spn.linalg import det_symmetric, integer_rank
from spn.machines import Fpssm, compile_fpssm, eval_fpssm
from spn.polynomial import expand
from spn.rng import make_rng
from spn.separation import binarize_products, circuit_evaluator, comm_matrix, decompose, perturbation_rank_bound
from spn.sptree import EdgeIndexing, PartialAssignment, count_consistent_trees, count_dichromatic_triangles
from spn.structure import (
    brute_force_validity,
    check_complete,
    check_decomposable,
    complete_transform,
    degeneracy_offenders,
    excise,
    is_dc,
    prune_degenerate,
    validity_witness,
)

from genutil import (
    brute_count_consistent,
    brute_triangle_count,
    evaluate_via_expansion,
    exhaustive_marginal,
    leaf_function_scope,
    random_dc_circuit,
    random_free_circuit,
    randomize_tables,
    rank_oracle,
    reference_det,
    reference_sample,
    reference_validity,
)

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


def with_fraction_values(c, rng):
    """The same circuit with each leaf value and sum weight divided by 1, 2 or 3."""
    fns = [
        LeafFunction(f.id, f.variable, {k: Fraction(x, int(rng.integers(1, 4))) for k, x in f.table.items()}, f.name)
        for f in c.leaf_functions
    ]
    nodes = [
        SumNode(nd.id, nd.children, tuple(Fraction(w, int(rng.integers(1, 4))) for w in nd.weights))
        if isinstance(nd, SumNode)
        else nd
        for nd in c.nodes
    ]
    return Circuit(c.variables, fns, nodes, c.root, c.extended)


@settings(PROFILE, max_examples=150)
@given(seeds)
def test_tabulate_matches_point_passes(seed):
    # free circuits multiply tables over shared variables, D&C ones over
    # disjoint ones; a grid variable ranges over single positions and
    # position sets, and variables left out of the grid stay at position 0
    rng = make_rng(seed)
    if rng.random() < 0.5:
        c = random_free_circuit(rng, max_vars=4, max_domain=3, max_size=15)
    else:
        c = random_dc_circuit(rng, n=int(rng.integers(2, 5)), domain_size=int(rng.integers(2, 4)), max_size=20)
    c = with_fraction_values(c, rng)
    grid = {}
    for v, spec in enumerate(c.variables):
        if rng.random() < 0.75:
            k = len(spec.domain)
            grid[v] = [
                tuple(int(p) for p in rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
                for _ in range(int(rng.integers(1, k + 2)))
            ]
    variables = sorted(grid)
    selections = list(iter_product(*(grid[v] for v in variables)))
    for node in (c.root, int(rng.integers(len(c.nodes)))):
        cells = c.tabulate(grid, node)
        assert len(cells) == len(selections)
        for cell, chosen in zip(cells, selections):
            selection = [(0,)] * len(c.variables)
            for v, positions in zip(variables, chosen):
                selection[v] = positions
            expected = c.evaluate_selection(selection)[node]
            assert cell == expected and type(cell) is type(expected)


def with_random_domains(c, rng):
    """The same nodes over new domains, each leaf table keeping its values
    by position, plus sometimes a variable no leaf reads.  A variable's
    domain is its own in random order or, one time in four, 1 to |domain|
    distinct values of 0..3 (so it may lack 0 or 1)."""

    def draw(k):
        size = k if rng.random() < 0.75 else int(rng.integers(1, k + 1))
        return tuple(int(x) for x in rng.choice(k if size == k else 4, size=size, replace=False))

    domains = [draw(len(v.domain)) for v in c.variables]
    if rng.random() < 0.3:
        domains.append(draw(3))
    variables = [VariableSpec(v, domain) for v, domain in enumerate(domains)]
    fns = [
        LeafFunction(f.id, f.variable, dict(zip(domains[f.variable], map(f.table.get, c.variables[f.variable].domain))))
        for f in c.leaf_functions
    ]
    return Circuit(variables, fns, c.nodes, c.root, c.extended)


@settings(PROFILE, max_examples=150)
@given(seeds)
def test_comm_matrix_of_circuit_evaluator_matches_point_evaluation(seed):
    # the evaluator's matrix is read from one table; a plain function of the
    # point is called per entry.  Both must give the point values with their
    # types, or the same DomainError at the same point.  Random blocks
    # interleave variable ids and are often empty; a variable may lie outside
    # the scope (an unread extra variable, a constant root) and a domain may
    # lack bit 0 or 1.
    rng = make_rng(seed)
    if rng.random() < 0.5:
        c = random_free_circuit(rng, max_vars=4, max_domain=3, max_size=15)
    else:
        c = random_dc_circuit(rng, n=int(rng.integers(2, 5)), domain_size=int(rng.integers(2, 4)), max_size=20)
    c = with_random_domains(with_fraction_values(c, rng), rng)
    if rng.random() < 0.15:
        value = Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
        c = Circuit(c.variables, c.leaf_functions, [*c.nodes, ConstantNode(len(c.nodes), value)], len(c.nodes))
    n = len(c.variables)
    ids = [int(v) for v in rng.permutation(n)]
    cut = int(rng.choice([0, n])) if rng.random() < 0.2 else int(rng.integers(0, n + 1))
    block_a, block_b = sorted(ids[:cut]), sorted(ids[cut:])
    expected, error = [], None
    try:
        for row in range(1 << len(block_a)):
            expected.append([])
            for col in range(1 << len(block_b)):
                point = {v: (row >> i) & 1 for i, v in enumerate(block_a)}
                point.update({v: (col >> i) & 1 for i, v in enumerate(block_b)})
                expected[-1].append(c.evaluate(point))
    except DomainError as exc:
        error = str(exc)
    for fn in (circuit_evaluator(c), lambda x: c.evaluate(x)):
        if error is not None:
            with pytest.raises(DomainError) as raised:
                comm_matrix(fn, n, (ids[:cut], ids[cut:]))
            assert str(raised.value) == error
            continue
        m = comm_matrix(fn, n, (ids[:cut], ids[cut:]))
        assert (m.block_a, m.block_b) == (tuple(block_a), tuple(block_b))
        assert [list(row) for row in m.entries] == expected
        assert [list(map(type, row)) for row in m.entries] == [list(map(type, row)) for row in expected]


@settings(PROFILE, max_examples=20)
@given(seeds)
def test_tabulate_past_one_block_matches_point_passes(seed):
    # grids of 1,025 to 3,000 cells broadcast in blocks of at most 1,024
    # (`circuit._broadcast_plan`).  Free circuits over up to five variables
    # combine tables over interleaved variable sets, a grid variable's
    # selections repeat, and one time in three a variable at a random place
    # in the id order ranges over more selections than one block holds.
    rng = make_rng(seed)
    c = with_fraction_values(random_free_circuit(rng, max_vars=5, max_domain=4, max_size=18), rng)
    order = [int(v) for v in rng.permutation(len(c.variables))]
    long_axis = order[0] if rng.random() < 1 / 3 else None
    grid, cells = {}, 1
    for v in order:
        k, room = len(c.variables[v].domain), 3000 // cells
        if room >= 2:
            count = int(rng.integers(1025, 1200)) if v == long_axis else int(rng.integers(2, min(room, 40) + 1))
            grid[v] = [
                tuple(int(p) for p in rng.choice(k, size=int(rng.integers(1, min(k, 3) + 1)), replace=False))
                for _ in range(count)
            ]
            cells *= count
    if cells <= 1024:
        return
    variables = sorted(grid)
    selections = list(iter_product(*(grid[v] for v in variables)))
    for node in (c.root, int(rng.integers(len(c.nodes)))):
        table = c.tabulate(grid, node)
        assert len(table) == len(selections)
        for cell, chosen in zip(table, selections):
            selection = [(0,)] * len(c.variables)
            for v, positions in zip(variables, chosen):
                selection[v] = positions
            expected = c.evaluate_selection(selection)[node]
            assert cell == expected and type(cell) is type(expected)


def perturbation_entry(rng):
    """An entry of D as an int, a Fraction, a 'p/q' string or a float."""
    p, q = int(rng.integers(-3, 4)), int(rng.integers(1, 5))
    return (p, Fraction(p, q), f"{p}/{q}", p / 4)[int(rng.integers(4))]


@PROFILE
@given(seeds)
def test_perturbation_bound_matches_fraction_formula(seed):
    rng = make_rng(seed)
    k = int(rng.integers(0, 8))
    density = rng.random()
    d = [[perturbation_entry(rng) if rng.random() < density else 0 for _ in range(k)] for _ in range(k)]
    delta = sum((abs(Fraction(x)) for row in d for x in row), Fraction(0))
    eye_plus = [[Fraction(x) + (i == j) for j, x in enumerate(row)] for i, row in enumerate(d)]
    ranks = []
    with patch("spn.separation.integer_rank", lambda rows: ranks.append(integer_rank(rows)) or ranks[-1]):
        bound = perturbation_rank_bound(d, audit=True)
    assert bound == (Fraction(k) - delta) / 2 and type(bound) is Fraction
    assert ranks == [rank_oracle(eye_plus)] and bound <= ranks[0]
    assert perturbation_rank_bound(d) == bound
    if k:
        with pytest.raises(SpnError, match="^perturbation matrix must be square$"):
            perturbation_rank_bound(d[:-1] + [d[-1][:-1]])


@PROFILE
@given(seeds)
def test_validity_oracle_accepts_dc_circuits(seed):
    assert brute_force_validity(small_dc_circuit(make_rng(seed)))


@settings(PROFILE, max_examples=60)
@given(seeds)
def test_validity_oracle_matches_reference(seed):
    # free circuits with zero table entries are sometimes valid without being D&C
    rng = make_rng(seed)
    if rng.random() < 0.5:
        c = randomize_tables(random_free_circuit(rng, max_vars=3, max_size=10), rng, lo=0)
    else:
        c = small_dc_circuit(rng)
    witness = validity_witness(c)
    assert brute_force_validity(c) == (witness is None) == reference_validity(c)
    if witness is not None:
        # the witness breaks the identity: its substituted value against the
        # exhaustive sum over the value sets it selects
        selection, substituted, exhaustive = witness
        sets = {v: [c.variables[v].domain[p] for p in selection[v]] for v in c.dependency_scope()}
        assert substituted == c.evaluate_selection(selection)[c.root]
        assert exhaustive == exhaustive_marginal(c, sets, {}) != substituted


@PROFILE
@given(seeds)
def test_prune_preserves_expansion(seed):
    # zero weights and zero constants; the root dies exactly when the
    # output polynomial is zero
    rng = make_rng(seed)
    c = random_free_circuit(rng, pruned=False, zero_weights=True)
    nodes = [
        ConstantNode(nd.id, Fraction(0)) if isinstance(nd, ConstantNode) and rng.random() < 0.5 else nd
        for nd in c.nodes
    ]
    c = Circuit(c.variables, c.leaf_functions, nodes, c.root)
    terms = expand(c).terms
    if not terms:
        with pytest.raises(ZeroCircuitError):
            prune_degenerate(c)
        return
    pruned = prune_degenerate(c)
    assert expand(pruned).terms == terms
    assert not degeneracy_offenders(pruned)


@PROFILE
@given(seeds)
def test_serialize_round_trip(seed):
    rng = make_rng(seed)
    if rng.random() < 0.5:
        c = random_free_circuit(rng, pruned=False, zero_weights=True)
    else:
        c = small_dc_circuit(rng)
    text = serialize(c)
    assert deserialize(text).structurally_equal(c)
    assert serialize(c) == text == serialize(deserialize(text))


@settings(PROFILE, max_examples=100)
@given(seeds)
def test_decompose_reconstructs_exactly(seed):
    rng = make_rng(seed)
    c = random_dc_circuit(rng, n=int(rng.integers(3, 6)), max_size=25)
    d = decompose(c)
    for t in d.terms:
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in (*t.g_table.values(), *t.h_table.values()))
    for assignment in c.iter_assignments(range(len(c.variables))):
        assert d.reconstruct(assignment) == c.evaluate(assignment)


@PROFILE
@given(seeds)
def test_scope_masks_match_leaf_function_scopes(seed):
    rng = make_rng(seed)
    if rng.random() < 0.5:
        c = random_free_circuit(rng, max_vars=6, max_size=20)
    else:
        c = random_dc_circuit(rng, n=int(rng.integers(2, 7)), max_size=25)
    ref = [frozenset(c.leaf_functions[f].variable for f in leaf_function_scope(c, node.id)) for node in c.nodes]
    assert [variables_of(mask) for mask in c.scopes()] == [sorted(scope) for scope in ref]
    assert c.dependency_scope() == ref[c.root]
    overlapping = tuple(
        nd.id for nd in c.nodes
        if isinstance(nd, ProductNode) and any(ref[a] & ref[b] for a, b in combinations(nd.children, 2))
    )
    mixed = tuple(nd.id for nd in c.nodes if isinstance(nd, SumNode) and len({ref[k] for k in nd.children}) > 1)
    assert check_decomposable(c) == (not overlapping, overlapping)
    assert check_complete(c) == (not mixed, mixed)


@PROFILE
@given(seeds)
def test_complete_transform_preserves_values(seed):
    c = random_free_circuit(make_rng(seed))
    done = complete_transform(c)
    assert check_complete(done)[0]
    assert check_decomposable(done)[0] == check_decomposable(c)[0]
    fan_in = sum(len(node.children) for node in c.nodes if isinstance(node, SumNode))
    assert len(done.nodes) <= len(c.nodes) + len(c.variables) + fan_in
    for assignment in c.iter_assignments(range(len(c.variables))):
        assert done.evaluate(assignment) == c.evaluate(assignment)


@PROFILE
@given(seeds)
def test_binarize_products_preserves_values(seed):
    c = random_free_circuit(make_rng(seed))
    binary = binarize_products(c)
    assert all(len(node.children) <= 2 for node in binary.nodes if isinstance(node, ProductNode))
    assert check_decomposable(binary)[0] == check_decomposable(c)[0]
    for assignment in c.iter_assignments(range(len(c.variables))):
        assert binary.evaluate(assignment) == c.evaluate(assignment)


@PROFILE
@given(seeds)
def test_excise_matches_zero_constant_oracle(seed):
    rng = make_rng(seed)
    c = random_free_circuit(rng, pruned=False) if rng.random() < 0.5 else small_dc_circuit(rng)
    doomed = {i for i in range(len(c.nodes)) if rng.random() < 0.2}
    # oracle: the same circuit with each doomed node computing the constant zero
    nodes = [ConstantNode(i, Fraction(0)) if i in doomed else node for i, node in enumerate(c.nodes)]
    oracle = Circuit(c.variables, c.leaf_functions, nodes, c.root)
    points = list(c.iter_assignments(range(len(c.variables))))
    try:
        cut = excise(c, doomed)
    except ZeroCircuitError:
        assert all(oracle.evaluate(x) == 0 for x in points)
        return
    assert [cut.evaluate(x) for x in points] == [oracle.evaluate(x) for x in points]
    assert cut.reachable() == frozenset(range(len(cut.nodes)))
    assert cut.leaf_functions == c.leaf_functions


# -- machine compiler --------------------------------------------------------------


def random_fpssm(rng):
    """n <= 5 variables over domains of 1-3 values, k <= 4 states, decodes with zeros."""
    n, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    domains = tuple(tuple(Fraction(x) for x in range(int(rng.integers(1, 4)))) for _ in range(n))
    decode = (0,) * k if rng.random() < 0.15 else tuple(int(h) for h in rng.integers(0, 3, size=k))
    return Fpssm(
        n=n,
        order=tuple(int(i) for i in rng.permutation(n)),
        state_size=k,
        initial_state=int(rng.integers(k)),
        transitions=tuple({x: tuple(int(s) for s in rng.integers(0, k, size=k)) for x in d} for d in domains),
        decode=tuple(Fraction(h) for h in decode),
        domains=domains,
    )


@PROFILE
@given(seeds)
def test_compiled_fpssm_matches_machine(seed):
    m = random_fpssm(make_rng(seed))
    c = compile_fpssm(m)
    assert is_dc(c)
    n, k = m.n, m.state_size
    # per stage at most k^2 leaves, k^2 products and k sums, plus one
    # constant and the root: within 3 n k^2 once k >= 2
    assert len(c.nodes) <= (3 * n * k * k if k > 1 else 3 * n + 2)
    values = [eval_fpssm(m, x) for x in iter_product(*m.domains)]
    assert [c.evaluate(x) for x in iter_product(*m.domains)] == values
    # no zero weight or constant, except the one constant-0 root of a zero machine
    assert not degeneracy_offenders(c) if any(values) else len(c.nodes) == 1 and not c.leaf_functions


# -- one exact form ----------------------------------------------------------------


def ir_values(c):
    """Every value a circuit holds: domain values, leaf-table keys and values, weights, constants."""
    for v in c.variables:
        yield from v.domain
    for f in c.leaf_functions:
        for key, value in f.table.items():
            yield from (key, value)
    for nd in c.nodes:
        if isinstance(nd, SumNode):
            yield from nd.weights
        elif isinstance(nd, ConstantNode):
            yield nd.value


def fraction_valued(c):
    """The same circuit with every value a Fraction, as `Circuit(...)` may be given it."""
    fns = [
        LeafFunction(f.id, f.variable, {Fraction(k): Fraction(x) for k, x in f.table.items()}, f.name)
        for f in c.leaf_functions
    ]
    nodes = [
        SumNode(nd.id, nd.children, tuple(map(Fraction, nd.weights))) if isinstance(nd, SumNode) else nd
        for nd in c.nodes
    ]
    nodes = [ConstantNode(nd.id, Fraction(nd.value)) if isinstance(nd, ConstantNode) else nd for nd in nodes]
    variables = [VariableSpec(v.id, tuple(map(Fraction, v.domain))) for v in c.variables]
    return Circuit(variables, fns, nodes, c.root, c.extended)


def value_on_unwrapped_fractions(c, point):
    """The circuit's value at a full point (a tuple by variable id), computed
    from its values as Fractions with the integral ones unwrapped to ints,
    in the order of operations of `Circuit.evaluate_selection`."""

    def unwrap(x):
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    values = []
    for nd in c.nodes:
        if isinstance(nd, ConstantNode):
            acc = unwrap(nd.value)
        elif isinstance(nd, SumNode):
            acc = 0
            for child, w in zip(nd.children, nd.weights):
                acc += unwrap(w) * values[child]
        elif isinstance(nd, ProductNode):
            acc = 1
            for child in nd.children:
                acc *= values[child]
        else:
            f = c.leaf_functions[nd.leaf_function]
            acc = 0
            acc += unwrap(f.table[point[f.variable]])
        values.append(acc)
    return values[c.root]


def circuits_by_every_route(rng):
    """(route, circuit) for one random circuit of each way the package builds one."""
    free = random_free_circuit(rng, max_vars=3, max_domain=3, max_size=12)
    dc = random_dc_circuit(rng, n=int(rng.integers(2, 4)), domain_size=int(rng.integers(2, 4)), max_size=15)
    b = CircuitBuilder()
    x, y = b.variable([0, "1/2", Fraction(4, 2)]), b.variable([False, True])
    fx = b.leaf_function(x, {0: Fraction(6, 3), "1/2": "3/1", 2: Fraction(1, 3)})
    fy = b.leaf_function(y, {0: True, 1: "2/4"})
    half = b.sum([(b.leaf(fx), "4/2"), (b.constant(Fraction(3, 3)), Fraction(1, 2))])
    yield "builder", b.build(b.product([half, b.leaf(fy)]))
    yield "builder", free
    yield "deserialize", deserialize(serialize(with_fraction_values(free, rng)))
    yield "Circuit(...) given Fraction(k) tables", randomize_tables(dc, rng)
    yield "Circuit(...) given Fractions", fraction_valued(with_fraction_values(free, rng))
    yield "compile_fpssm", compile_fpssm(random_fpssm(rng))
    try:
        yield "rewrite", excise(free, [int(rng.integers(len(free.nodes)))])
    except ZeroCircuitError:  # the excised node took the root with it
        yield "rewrite", excise(free, [])
    yield "normalize_weights", normalize_weights(dc)
    yield "complete_transform", complete_transform(free)
    yield "binarize_products", binarize_products(fraction_valued(free))


@PROFILE
@given(seeds)
def test_every_route_holds_integral_values_as_ints(seed):
    # ints exactly where a value is integral, Fractions elsewhere, never a
    # float, in the IR and in `expand`'s coefficients; points and grids
    # evaluate as the same values read as Fractions with the integral ones
    # unwrapped; on D&C circuits Z and a marginal are the root value of
    # their selection's pass, in value and in type
    routes, pick = 0, make_rng(seed + 1)
    for route, c in circuits_by_every_route(make_rng(seed)):
        routes += 1
        for x in ir_values(c):
            assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), (route, x)
        for coeff in expand(c).terms.values():
            assert type(coeff) is (int if coeff.denominator == 1 else Fraction), (route, coeff)
        if is_dc(c):
            everything = [tuple(range(len(v.domain))) for v in c.variables]
            expected = c.evaluate_selection(everything)[c.root]
            if expected != 0:
                z = partition_function(c)
                assert z == expected and type(z) is type(expected), route
            integrate, fixed = {}, {}
            for v in c.dependency_scope():
                domain = c.variables[v].domain
                if pick.random() < 0.5:
                    fixed[v] = domain[int(pick.integers(len(domain)))]
                else:
                    size = int(pick.integers(1, len(domain) + 1))
                    integrate[v] = [domain[i] for i in sorted(pick.choice(len(domain), size=size, replace=False))]
            query = MarginalQuery.of(integrate, fixed)
            expected = c.evaluate_selection(query.selection(c))[c.root]
            value = marginalize(c, query)
            assert value == expected and type(value) is type(expected), (route, query)
        points = list(iter_product(*(v.domain for v in c.variables)))
        grid = {v: [(p,) for p in range(len(spec.domain))] for v, spec in enumerate(c.variables)}
        for point, cell in zip(points, c.tabulate(grid)):
            expected = value_on_unwrapped_fractions(c, point)
            value = c.evaluate(point)
            assert value == expected and type(value) is type(expected), (route, point)
            assert cell == expected and type(cell) is type(expected), (route, point)
    assert routes == 10


# -- sptree kernels ----------------------------------------------------------------


def random_multigraph(rng, k):
    """Edge multiplicities 0..3 on k vertices, often zero, so often disconnected."""
    return {
        (u, v): int(rng.integers(1, 4)) if rng.random() < 0.4 else 0 for u, v in combinations(range(k), 2)
    }


def is_connected(k, multiplicity):
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(k):
            if v not in seen and multiplicity[min(u, v), max(u, v)]:
                seen.add(v)
                stack.append(v)
    return len(seen) == k


@PROFILE
@given(seeds)
def test_det_symmetric_of_reduced_laplacians(seed):
    rng = make_rng(seed)
    k = int(rng.integers(2, 9))
    multiplicity = random_multigraph(rng, k)
    lap = [[0] * k for _ in range(k)]
    for (u, v), w in multiplicity.items():
        lap[u][u] += w
        lap[v][v] += w
        lap[u][v] -= w
        lap[v][u] -= w
    drop = int(rng.integers(k))
    minor = [[x for j, x in enumerate(row) if j != drop] for i, row in enumerate(lap) if i != drop]
    det = det_symmetric(minor)
    assert det == reference_det(minor)
    assert (det > 0) == is_connected(k, multiplicity)


@PROFILE
@given(seeds)
def test_det_symmetric_of_gram_matrices(seed):
    # B^T B with fewer rows than columns, or repeated columns, is singular
    rng = make_rng(seed)
    k = int(rng.integers(1, 7))
    rows = int(rng.integers(1, 8))
    b = [[int(x) for x in rng.integers(-3, 4, size=k)] for _ in range(rows)]
    if k > 1 and rng.random() < 0.3:
        for row in b:
            row[-1] = row[0]
    gram = [[sum(row[i] * row[j] for row in b) for j in range(k)] for i in range(k)]
    assert det_symmetric(gram) == reference_det(gram)


def sparse_psd_matrix(rng, k):
    """A Laplacian of a sparse random multigraph plus a non-negative diagonal: PSD, often singular."""
    a = [[0] * k for _ in range(k)]
    share = rng.random() * 0.6
    for u, v in combinations(range(k), 2):
        if rng.random() < share:
            w = int(rng.integers(1, 4))
            a[u][v] -= w
            a[v][u] -= w
            a[u][u] += w
            a[v][v] += w
    for u in range(k):
        a[u][u] += int(rng.choice([0, 0, 1, 7]))
    return a


@PROFILE
@given(seeds)
def test_det_symmetric_is_unchanged_by_a_symmetric_permutation(seed):
    rng = make_rng(seed)
    k = int(rng.integers(1, 13))
    a = sparse_psd_matrix(rng, k)
    perm = [int(i) for i in rng.permutation(k)]
    permuted = [[a[i][j] for j in perm] for i in perm]
    assert det_symmetric(permuted) == det_symmetric(a) == reference_det(a)


@PROFILE
@given(seeds)
def test_det_symmetric_of_diagonal_and_block_diagonal_matrices(seed):
    rng = make_rng(seed)
    diagonal = [int(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 9)))]
    square = [[x if i == j else 0 for j in range(len(diagonal))] for i, x in enumerate(diagonal)]
    assert det_symmetric(square) == reference_det(square) == math.prod(diagonal)
    blocks = [sparse_psd_matrix(rng, int(rng.integers(1, 5))) for _ in range(int(rng.integers(2, 5)))]
    k = sum(map(len, blocks))
    matrix = [[0] * k for _ in range(k)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            matrix[start + i][start : start + len(block)] = row
        start += len(block)
    det = det_symmetric(matrix)
    assert det == reference_det(matrix) == math.prod(map(reference_det, blocks))


@pytest.mark.parametrize("matrix", [[[1, 2], [3, 4]], [[0, 1], [1, 0]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 2]]])
def test_det_symmetric_rejects_non_symmetric_and_indefinite_zero_pivots(matrix):
    with pytest.raises(SpnError):
        det_symmetric(matrix)


@PROFILE
@given(seeds)
def test_dichromatic_count_matches_brute_triangles(seed):
    rng = make_rng(seed)
    m = int(rng.integers(3, 13))
    red_share = rng.random()
    coloring = ["r" if rng.random() < red_share else "b" for _ in range(EdgeIndexing(m).n)]
    mono = sum(
        brute_triangle_count(m, frozenset(l for l, c in enumerate(coloring) if c == color)) for color in "rb"
    )
    assert count_dichromatic_triangles(m, coloring) == math.comb(m, 3) - mono


def random_partial(rng, n, p_present, p_absent):
    values = {}
    for label in range(n):
        r = rng.random()
        if r < p_present:
            values[label] = 1
        elif r < p_present + p_absent:
            values[label] = 0
    return values


@settings(PROFILE, max_examples=100)
@given(seeds)
def test_tree_count_matches_enumeration(seed):
    rng = make_rng(seed)
    m = int(rng.integers(2, 6))
    values = random_partial(rng, EdgeIndexing(m).n, 0.25, 0.3)
    assert count_consistent_trees(m, PartialAssignment(values)) == brute_count_consistent(m, values)


def free_edge_minor(m, values):
    """Reduced Laplacian of the free edges between the components of the present
    edges, counted pair by pair over K_m; None if the present edges close a cycle."""
    root = list(range(m))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    pairs = list(combinations(range(m), 2))
    for label, value in values.items():
        if value:
            a, b = find(pairs[label][0]), find(pairs[label][1])
            if a == b:
                return None
            root[a] = b
    index = {r: i for i, r in enumerate(sorted({find(v) for v in range(m)}))}
    lap = [[0] * len(index) for _ in index]
    for label, (u, v) in enumerate(pairs):
        a, b = index[find(u)], index[find(v)]
        if a != b and label not in values:
            lap[a][b] -= 1
            lap[b][a] -= 1
            lap[a][a] += 1
            lap[b][b] += 1
    return [row[1:] for row in lap[1:]]


@PROFILE
@given(seeds)
def test_tree_count_matches_a_free_edge_minor(seed):
    # absent shares on both sides of the third at which the count switches
    # matrices; present shares from forests to cycles; a cut closed off at times
    rng = make_rng(seed)
    m = int(rng.integers(2, 21))
    n = EdgeIndexing(m).n
    p_present = float(rng.choice([0.0, 0.02, 0.08, 0.3]))
    values = random_partial(rng, n, p_present, rng.random() * 0.95 * (1 - p_present))
    if rng.random() < 0.2:
        side = {int(v) for v in rng.choice(m, size=int(rng.integers(1, m)), replace=False)}
        for label, (u, v) in enumerate(combinations(range(m), 2)):
            if (u in side) != (v in side):
                values[label] = 0
    minor = free_edge_minor(m, values)
    expected = 0 if minor is None else reference_det(minor)
    assert count_consistent_trees(m, PartialAssignment(values)) == expected


@settings(PROFILE, max_examples=50)
@given(seeds)
def test_tree_count_present_plus_absent_at_m20(seed):
    rng = make_rng(seed)
    m = 20
    n = EdgeIndexing(m).n
    values = random_partial(rng, n, 0.02, 0.3)
    free = [label for label in range(n) if label not in values]
    edge = free[int(rng.integers(len(free)))]
    whole = count_consistent_trees(m, PartialAssignment(values))
    present = count_consistent_trees(m, PartialAssignment({**values, edge: 1}))
    absent = count_consistent_trees(m, PartialAssignment({**values, edge: 0}))
    assert present + absent == whole
