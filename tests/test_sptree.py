"""Spanning-tree density, exact counting, sampling, triangles, constraints."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from spn import sptree
from spn.errors import InstanceTooLargeError, SpnError
from spn.linalg import det_symmetric
from spn.rng import Philox, make_rng
from spn.sptree import (
    MAX_VERTICES,
    DichotomyResult,
    EdgeIndexing,
    EdgeLabeledGraph,
    PartialAssignment,
    constraint_fraction_experiment,
    count_consistent_trees,
    count_dichromatic_triangles,
    count_triangles,
    density,
    derive_constraints,
    dichotomy_check,
    fisher_bound,
    iter_trees,
    iter_triangles,
    marginal,
    obeys_constraints,
    sample_tree,
    sample_trees,
    triangles_within_fisher,
)

from genutil import (
    all_spanning_trees,
    brute_count_consistent,
    brute_triangle_count,
    reference_walk,
    tree_mixture_circuit,
)


def test_edge_indexing_bijection():
    for m in (2, 3, 5, 8, 60, 200):
        idx = EdgeIndexing(m)
        assert idx.n == m * (m - 1) // 2
        pairs = idx.pairs()
        assert len(set(pairs)) == idx.n
        for label, (u, v) in enumerate(pairs):
            assert idx.label_of(u, v) == label
            assert idx.pair_of(label) == (u, v)


def test_density_examples():
    assert density(3, (1, 1, 0)) == 1
    assert density(3, (1, 1, 1)) == 0
    assert density(3, (1, 0, 0)) == 0
    count = sum(
        density(4, [(mask >> i) & 1 for i in range(6)]) for mask in range(64)
    )
    assert count == 16  # Cayley: 4^2


def test_density_length_check():
    with pytest.raises(SpnError):
        density(3, (1, 1))


def test_cayley_counts():
    for m in range(2, 10):
        assert count_consistent_trees(m, PartialAssignment({})) == m ** (m - 2)


def test_forced_edge_count_m4():
    assert count_consistent_trees(4, PartialAssignment({0: 1})) == 8


def test_forced_cycle_gives_zero():
    idx = EdgeIndexing(4)
    labels = [idx.label_of(0, 1), idx.label_of(0, 2), idx.label_of(1, 2)]
    partial = PartialAssignment({l: 1 for l in labels})
    assert count_consistent_trees(4, partial) == 0


@pytest.mark.parametrize("values", [{6: 0}, {-1: 0}, {99: 1}, {0: 2}, {0: -1}])
def test_count_rejects_bad_labels_and_values(values):
    with pytest.raises(SpnError):
        count_consistent_trees(4, PartialAssignment(values))


@pytest.mark.parametrize("values, shown", [({1.0: 1}, "1.0"), ({"1": 0}, "'1'"), ({1.0: 0}, "1.0"), ({0: 1, None: 0}, "None")])
def test_count_rejects_labels_that_are_not_integers(values, shown):
    with pytest.raises(SpnError, match=f"edge label {shown} is not an integer"):
        count_consistent_trees(4, PartialAssignment(values))


def test_cayley_count_at_m300():
    m = 300
    assert count_consistent_trees(m, PartialAssignment({})) == m ** (m - 2)
    # trees avoiding one edge: m^(m-2) less the 2 m^(m-3) that hold it
    assert count_consistent_trees(m, PartialAssignment({7: 0})) == (m - 2) * m ** (m - 3)


@pytest.mark.parametrize(
    "absent, matrix_rows", [([(0, 3), (3, 4), (4, 5)], 4), ([(3, 4), (3, 5), (4, 5), (1, 3)], 3)]
)
def test_count_picks_the_matrix_by_the_share_of_absent_edges(absent, matrix_rows, monkeypatch):
    # K_6 with 0-1 and 0-2 present: components {0, 1, 2}, 3, 4, 5 and 12 edges
    # between them.  Three absent ones leave every component: the
    # determinant-lemma matrix, one row per component.  Four are a third:
    # the free-edge minor, one row fewer.
    m = 6
    idx = EdgeIndexing(m)
    values = {idx.label_of(0, 1): 1, idx.label_of(0, 2): 1, **{idx.label_of(u, v): 0 for u, v in absent}}
    seen = []
    monkeypatch.setattr(sptree, "det_symmetric", lambda a: seen.append(len(a)) or det_symmetric(a))
    count = count_consistent_trees(m, PartialAssignment(values))
    assert seen == [matrix_rows]
    assert count == brute_count_consistent(m, values) > 0


def test_records_are_immutable_values():
    records = [
        EdgeIndexing(5),
        PartialAssignment({0: 1}),
        EdgeLabeledGraph(4, frozenset({0, 1, 2})),
        DichotomyResult(True, False, None),
    ]
    assert EdgeIndexing(m=5) == records[0] and EdgeIndexing(6) != records[0]
    assert EdgeLabeledGraph(m=4, edges=frozenset({0, 1, 2})) == records[2]
    assert DichotomyResult(holds_pair_branch=True, holds_single_branch=False, counterexample=None) == records[3]
    assert records[1] == PartialAssignment({0: 1}) and records[1] != PartialAssignment({0: 0})
    assert repr(records[0]) == "EdgeIndexing(m=5)"
    assert hash(records[2]) == hash(EdgeLabeledGraph(4, frozenset({0, 1, 2})))
    for record in records:
        assert record != tuple(record) and not record == tuple(record)
        with pytest.raises(AttributeError):
            record.m = 3
        with pytest.raises(AttributeError):
            record.extra = 1
    assert records[2].pairs() == [(0, 1), (0, 2), (0, 3)]


def test_marginals():
    assert marginal(4, PartialAssignment({}), normalized=True) == 1
    assert marginal(4, PartialAssignment({0: 1}), normalized=True) == Fraction(1, 2)
    assert marginal(4, PartialAssignment({0: 0}), normalized=True) == Fraction(1, 2)


def test_count_agrees_with_brute_force():
    rng = make_rng(71)
    for m in (4, 5):
        idx = EdgeIndexing(m)
        for _ in range(60):
            values = {}
            for label in range(idx.n):
                r = rng.random()
                if r < 0.3:
                    values[label] = 1
                elif r < 0.6:
                    values[label] = 0
            partial = PartialAssignment(values)
            assert count_consistent_trees(m, partial) == brute_count_consistent(m, values)


def test_per_edge_additivity():
    for m in range(4, 8):
        idx = EdgeIndexing(m)
        total = count_consistent_trees(m, PartialAssignment({}))
        for label in range(idx.n):
            present = count_consistent_trees(m, PartialAssignment({label: 1}))
            absent = count_consistent_trees(m, PartialAssignment({label: 0}))
            assert present + absent == total


def test_sample_tree_m2():
    tree = sample_tree(2, 0)
    assert tree.edges == frozenset([0])


def test_sampled_trees_are_spanning_trees():
    rng = make_rng(72)
    idx = EdgeIndexing(6)
    for _ in range(200):
        tree = sample_tree(6, rng)
        assert len(tree.edges) == 5
        assert density(6, [1 if l in tree.edges else 0 for l in range(idx.n)]) == 1


def test_sampler_determinism():
    assert sample_tree(5, 99).edges == sample_tree(5, 99).edges


@pytest.mark.parametrize("seed", [-1, 1.5, "1", None])
def test_seed_must_be_a_non_negative_integer(seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(SpnError) as exc:
        make_rng(seed)
    assert str(exc.value) == message
    with pytest.raises(SpnError, match="seed must be"):
        sample_tree(5, seed)
    assert sample_tree(5, 0).edges == sample_tree(5, make_rng(0)).edges


@pytest.mark.parametrize("m", [2, 3, 6, 20, 60])
@pytest.mark.parametrize("count", [1, 4, 7, 50])
def test_block_drawn_walks_leave_the_stream_of_scalar_draws(m, count):
    # the walk takes a data-dependent number of draws; an odd number
    # leaves half of a 64-bit Philox word buffered
    seed, k = m * 100 + count, count // 2
    reference = make_rng(seed)
    expected = [reference_walk(m, reference) for _ in range(count)]
    after = (reference.integers(1 << 40), reference.random(), reference.integers(m))
    one_call, single, iterated = (make_rng(seed) for _ in range(3))
    assert [t.edges for t in sample_trees(m, count, one_call)] == expected
    assert [sample_tree(m, single).edges for _ in range(count)] == expected
    assert [t.edges for t in iter_trees(m, count, iterated)] == expected
    for rng in (one_call, single, iterated):
        assert (rng.integers(1 << 40), rng.random(), rng.integers(m)) == after
    # an iterator closed after k < count trees leaves the stream of k scalar walks
    reference = make_rng(seed)
    for _ in range(k):
        reference_walk(m, reference)
    after = (int(reference.integers(1 << 32)), reference.random(), int(reference.integers(m)))
    for rng in (make_rng(seed), Philox.from_seed(seed)):
        walks = iter_trees(m, count, rng)
        assert [next(walks).edges for _ in range(k)] == expected[:k]
        walks.close()
        assert (int(rng.integers(1 << 32)), rng.random(), int(rng.integers(m))) == after


def test_an_open_walk_holds_its_stream_until_closed():
    # the iterator stands ahead of the trees it has yielded and rewinds on
    # close, so a draw the caller takes from its stream in between is undone
    # and its value comes again; per-tree draws come from another stream
    m, seed = 12, 7
    scalar = Philox.from_seed(seed)
    expected = [reference_walk(m, scalar) for _ in range(2)]
    rng, other = Philox.from_seed(seed), Philox.from_seed(seed + 1)
    walks = iter_trees(m, 10, rng)
    for tree in expected:
        assert next(walks).edges == tree
        other.random()
    assert rng.state != scalar.state
    undone = rng.random()
    walks.close()
    assert rng.state == scalar.state
    assert undone in [rng.random() for _ in range(1000)]


def test_vertex_count_is_capped_before_anything_is_built():
    for call in (lambda m: count_consistent_trees(m, PartialAssignment({})), lambda m: iter_trees(m, 1, 0)):
        with pytest.raises(InstanceTooLargeError, match=f"MAX_VERTICES = {MAX_VERTICES} "):
            call(MAX_VERTICES + 1)
    assert count_consistent_trees(MAX_VERTICES, PartialAssignment({})) == MAX_VERTICES ** (MAX_VERTICES - 2)


def test_sample_trees_counts():
    for draw in (sample_trees, iter_trees):
        assert list(draw(5, 0, make_rng(1))) == []
        with pytest.raises(SpnError, match="non-negative"):
            draw(5, -1, make_rng(1))


def test_sampler_uniformity_m4():
    rng = make_rng(73)
    counts = Counter()
    draws = 16_000
    for _ in range(draws):
        counts[sample_tree(4, rng).edges] += 1
    trees = all_spanning_trees(4)
    assert set(counts) == set(trees)
    observed = [counts[t] for t in trees]
    assert chisquare(observed).pvalue > 0.01


def test_sampler_edge_marginals_m7():
    m = 7
    rng = make_rng(74)
    idx = EdgeIndexing(m)
    draws = 10_000
    hits = Counter()
    for _ in range(draws):
        for l in sample_tree(m, rng).edges:
            hits[l] += 1
    total = m ** (m - 2)
    for label in range(idx.n):
        p = count_consistent_trees(m, PartialAssignment({label: 1})) / total
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(hits[label] - draws * p) <= 5 * sigma


# -- triangles -------------------------------------------------------------------


def test_dichromatic_examples():
    assert count_dichromatic_triangles(3, ["r", "r", "r"]) == 0
    assert count_dichromatic_triangles(3, ["r", "r", "b"]) == 1


def test_triangle_counts_partition_all_triangles():
    rng = make_rng(75)
    for m in (5, 8, 12):
        idx = EdgeIndexing(m)
        coloring = ["r" if rng.random() < 0.5 else "b" for _ in range(idx.n)]
        d = count_dichromatic_triangles(m, coloring)
        mono = sum(
            1
            for _, labels in iter_triangles(m)
            if len({coloring[l] for l in labels}) == 1
        )
        assert d + mono == math.comb(m, 3)


def test_balanced_colorings_meet_cubic_floor():
    rng = make_rng(76)
    m = 20
    idx = EdgeIndexing(m)
    n = idx.n
    for _ in range(50):
        r = int(rng.integers((n + 2) // 3, 2 * n // 3 + 1))
        red = set(int(i) for i in rng.choice(n, size=r, replace=False))
        coloring = ["r" if l in red else "b" for l in range(n)]
        assert count_dichromatic_triangles(m, coloring) >= math.ceil(m**3 / 60)


def test_fisher_bound_values():
    assert fisher_bound(0) == 0
    assert fisher_bound(3) == 1  # sqrt(25) = 5 -> (5-3)*3/6
    assert fisher_bound(6) == 4  # sqrt(49) = 7 -> (7-3)*6/6
    assert isinstance(fisher_bound(4), float)  # 33 is not a perfect square


def test_fisher_bound_audit_random_graphs():
    rng = make_rng(77)
    for _ in range(60):
        m = int(rng.integers(3, 16))
        idx = EdgeIndexing(m)
        edges = frozenset(
            int(l) for l in range(idx.n) if rng.random() < 0.5
        )
        t = count_triangles(m, edges)
        assert t == brute_triangle_count(m, edges)
        assert triangles_within_fisher(t, len(edges))
        bound = fisher_bound(len(edges))
        assert t <= bound or abs(float(bound) - t) < 1e-9


def test_count_triangles_rejects_out_of_range_labels():
    assert count_triangles(4, [0, 1, 3]) == 1
    for label in (6, -1):
        with pytest.raises(SpnError):
            count_triangles(4, frozenset([0, 1, label]))


# -- dichotomy and the fraction experiment -----------------------------------------


def test_dichotomy_vacuous_when_g_is_zero():
    m = 4
    idx = EdgeIndexing(m)
    coloring = ["r", "r", "r", "b", "b", "b"]
    red = [l for l in range(idx.n) if coloring[l] == "r"]
    blue = [l for l in range(idx.n) if coloring[l] == "b"]
    from itertools import product as iter_product

    g = {key: 0 for key in iter_product([0, 1], repeat=len(red))}
    h = {key: 1 for key in iter_product([0, 1], repeat=len(blue))}
    # triangle (0,1,2): labels 01=0, 02=1, 12=3 -> colors r, r, b
    result = dichotomy_check(m, g, h, coloring, (0, 1, 3))
    assert result.holds_pair_branch
    assert result.counterexample is None


def test_dichotomy_adversarial_tables_yield_counterexample():
    m = 4
    coloring = ["r", "r", "r", "b", "b", "b"]
    from itertools import product as iter_product

    g = {key: 1 for key in iter_product([0, 1], repeat=3)}
    h = {key: 1 for key in iter_product([0, 1], repeat=3)}
    result = dichotomy_check(m, g, h, coloring, (0, 1, 3))
    assert not result.holds_pair_branch and not result.holds_single_branch
    x_pair, x_single = result.counterexample
    assert x_pair[0] == 1 and x_pair[1] == 1
    assert x_single[3] == 1
    # the same pair of triangle edges blue: the mirrored branch
    result = dichotomy_check(m, g, h, ["b", "b", "b", "r", "r", "r"], (0, 1, 3))
    assert not result.holds_pair_branch and not result.holds_single_branch
    assert result.counterexample == ((1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1))


def test_dichotomy_requires_dichromatic_triangle():
    m = 4
    coloring = ["r"] * 6
    with pytest.raises(SpnError):
        dichotomy_check(m, {}, {}, coloring, (0, 1, 3))


def test_dichotomy_on_decomposed_tree_density():
    """Terms produced by decompose() on a circuit computing the spanning-tree
    indicator must satisfy some branch for every constraint triangle."""
    from spn.separation import decompose

    m = 4
    circuit = tree_mixture_circuit(m)
    decomp = decompose(circuit)
    idx = EdgeIndexing(m)
    for term in decomp.terms:
        coloring = ["r" if l in term.y_vars else "b" for l in range(idx.n)]
        g = {tuple(int(v) for v in k): val for k, val in term.g_table.items()}
        h = {tuple(int(v) for v in k): val for k, val in term.h_table.items()}
        for _, labels in iter_triangles(m):
            colors = [coloring[l] for l in labels]
            if len(set(colors)) != 2:
                continue
            odd_color = colors[0] if colors.count(colors[0]) == 1 else colors[1] if colors.count(colors[1]) == 1 else colors[2]
            odd = labels[colors.index(odd_color)]
            pair = tuple(l for l in labels if l != odd)
            result = dichotomy_check(m, g, h, coloring, (pair[0], pair[1], odd))
            assert result.holds_pair_branch or result.holds_single_branch


def test_fraction_experiment_zero_constraints():
    report = constraint_fraction_experiment(4, samples=100, seed=5, constraints=[])
    assert report["empirical_fraction"] == 1.0
    assert report["analytic_bound"] == 1.0


def test_fraction_experiment_single_edge_constraint():
    report = constraint_fraction_experiment(
        4, samples=20_000, seed=6, constraints=[("not_edge", 0)]
    )
    # exactly half the 16 trees avoid any fixed edge
    assert abs(report["empirical_fraction"] - 0.5) < 0.02


@pytest.mark.parametrize(
    "samples, constraints, message",
    [
        (-1, [], "non-negative"),
        (0, [("bogus", 1)], "unknown constraint form"),
        # every tree of K_2 holds edge 0, so the first constraint fails it
        (10, [("not_edge", 0), ("bogus", 1)], "unknown constraint form"),
        (10, [("not_both", 0)], "needs 2 edge label"),
        (10, [("not_edge", 1)], "edge label 1 out of range"),
        (10, [("not_both", 0, "0")], "edge label '0' out of range"),
    ],
)
def test_fraction_experiment_checks_its_inputs_before_drawing(samples, constraints, message):
    with pytest.raises(SpnError, match=message):
        constraint_fraction_experiment(2, samples, 3, constraints=constraints)


def test_obeys_constraints_matches_a_scan_of_every_constraint():
    m = 7
    rng = make_rng(5)
    n = EdgeIndexing(m).n
    for _ in range(200):
        constraints = []
        for _ in range(int(rng.integers(0, 12))):
            form = "not_edge" if rng.random() < 0.2 else "not_both"
            constraints.append((form, *(int(l) for l in rng.integers(n, size=1 if form == "not_edge" else 2))))
        edges = sample_tree(m, rng).edges
        scan = not any(all(l in edges for l in con[1:]) for con in constraints)
        assert obeys_constraints(edges, constraints) is scan


def test_fraction_experiment_with_coloring():
    rng = make_rng(78)
    m = 10
    idx = EdgeIndexing(m)
    n = idx.n
    red = set(int(i) for i in rng.choice(n, size=n // 2, replace=False))
    coloring = ["r" if l in red else "b" for l in range(n)]
    report = constraint_fraction_experiment(m, samples=2000, seed=7, coloring=coloring)
    constraints = derive_constraints(m, coloring)
    assert report["constraint_count"] == count_dichromatic_triangles(m, coloring)
    assert 0.0 <= report["empirical_fraction"] <= 1.0
    assert 0.0 < report["analytic_bound"] < 1.0
    tree = sample_tree(m, 1)
    assert obeys_constraints(tree.edges, []) is True
    assert isinstance(obeys_constraints(tree.edges, constraints), bool)
