"""The pure-Python Philox stream against numpy's Generator(Philox(SeedSequence(seed)))."""

import sys
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from spn.errors import SpnError
from spn.inference import DistributionHandle, normalize_weights, sample
from spn.machines import build_equal
from spn import rng
from spn.rng import NUMPY_DRAWS, Philox, block_integers, block_uniforms, make_rng, seeded_stream
from spn.sptree import constraint_fraction_experiment, iter_trees, sample_tree, sample_trees

PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128]
HIGHS = [1, 2, 3, 20, 2**31 + 1, 2**32]

# ("random",), ("uniforms", k), ("integers", high) or ("block", high, k); blocks cross a 512-word chunk
draws = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("uniforms"), st.integers(0, 1300)),
    st.tuples(st.just("integers"), st.sampled_from(HIGHS)),
    st.tuples(st.just("block"), st.sampled_from(HIGHS), st.integers(0, 1300)),
)


def _draw(rng, op):
    """The values `op` draws: numpy's Generator, or the same calls on `Philox` (a block is `draw` or `uniforms`)."""
    if op[0] == "random":
        return rng.random()
    if op[0] == "uniforms":
        return rng.uniforms(op[1]) if isinstance(rng, Philox) else rng.random(op[1]).tolist()
    if isinstance(rng, Philox):
        return rng.integers(op[1]) if op[0] == "integers" else rng.draw(*op[1:])
    return int(rng.integers(op[1])) if op[0] == "integers" else rng.integers(op[1], size=op[2]).tolist()


@PROFILE
@given(st.sampled_from(SEEDS), st.lists(draws, max_size=40))
def test_philox_is_numpys_stream(seed, ops):
    pure, reference = Philox.from_seed(seed), make_rng(seed)
    for op in ops:
        assert _draw(pure, op) == _draw(reference, op), op
    # buffered half-word and word position agree too
    assert (pure.integers(2**32), pure.random()) == (int(reference.integers(2**32)), reference.random())


def test_philox_block_draws_through_lemire_rejections():
    # 2**32 mod 65175 = 65146: about one draw in 66,000 is rejected and redrawn
    high, k = 65175, 1 << 18
    pure, reference = Philox.from_seed(7), make_rng(7)
    assert pure.draw(high, k) == reference.integers(high, size=k).tolist()
    word, half = pure.state
    assert 2 * word - (half is not None) > k  # rejected draws took 32-bit draws of their own
    assert pure.random() == reference.random()
    # a block left after a rejection is replayed by redrawing the values taken
    with block_integers(pure, high, k) as values:
        taken = [next(values) for _ in range(k - 3)]
    assert taken == reference.integers(high, size=k - 3).tolist()
    assert pure.integers(high) == int(reference.integers(high))


@pytest.mark.parametrize("block, taken", [(5, 0), (5, 5), (5, 12), (700, 600)])
@pytest.mark.parametrize("stream", [make_rng, Philox.from_seed])
def test_block_uniforms_leave_the_stream_of_scalar_draws(stream, block, taken):
    rng, reference = stream(5), make_rng(5)
    assert rng.integers(9) == reference.integers(9)  # half a word buffered
    with block_uniforms(rng, repeat(block)) as values:
        assert [next(values) for _ in range(taken)] == reference.random(taken).tolist()
    assert (rng.random(), int(rng.integers(2**32))) == (reference.random(), int(reference.integers(2**32)))


def test_philox_high_must_be_in_range():
    stream = Philox.from_seed(1)
    for high in (0, -3, 2**32 + 1):
        for call in (lambda: stream.integers(high), lambda: stream.draw(high, 5)):
            with pytest.raises(ValueError, match="high must be in"):
                call()
    assert stream.state == (0, None)
    assert stream.draw(1, 4) == [0, 0, 0, 0] and stream.state == (0, None)


@pytest.mark.parametrize("m, count", [(2, 3), (5, 40), (12, 100), (20, 300)])
@pytest.mark.parametrize("seed", [0, 9, 2**64 + 3])
@pytest.mark.parametrize("buffered", [False, True])
def test_trees_of_the_pure_stream_are_numpys_trees(m, count, seed, buffered):
    pure, reference = Philox.from_seed(seed), make_rng(seed)
    if buffered:  # start with half a word buffered
        assert pure.integers(7) == int(reference.integers(7))
    assert [t.edges for t in sample_trees(m, count, pure)] == [t.edges for t in sample_trees(m, count, reference)]
    after = (int(reference.integers(m)), reference.random(), int(reference.integers(2**32)))
    assert (pure.integers(m), pure.random(), pure.integers(2**32)) == after


def test_seeded_calls_draw_what_the_generator_draws():
    handle = DistributionHandle(normalize_weights(build_equal(6)))
    assert sample(handle, 11) == sample(handle, make_rng(11)) == sample(handle, Philox.from_seed(11))
    assert sample_tree(9, 2**64 + 3).edges == sample_tree(9, make_rng(2**64 + 3)).edges


def test_seeded_tree_walks_pick_their_stream(monkeypatch):
    coloring = ["r" if label % 3 else "b" for label in range(66)]

    def walks():
        return [t.edges for t in iter_trees(12, 300, 5)], constraint_fraction_experiment(12, 300, 5, coloring=coloring)

    import numpy  # so every seeded walk draws through it, whichever tests ran before

    assert not isinstance(seeded_stream(3, 1), Philox)
    through_numpy, tree = walks(), sample_tree(40, 2**64 + 3)
    monkeypatch.delitem(sys.modules, "numpy")  # as in a process that has not imported it
    assert isinstance(seeded_stream(3, NUMPY_DRAWS - 1), Philox)
    assert walks() == through_numpy and sample_tree(40, 2**64 + 3) == tree
    monkeypatch.setattr(rng, "make_rng", lambda seed: "numpy's Generator")
    assert seeded_stream(3, NUMPY_DRAWS) == "numpy's Generator"
    # sample(handle, seed) takes its stream by the same rule
    handle, seeds = DistributionHandle(normalize_weights(build_equal(6))), []
    monkeypatch.setattr(rng, "make_rng", lambda seed: seeds.append(seed) or Philox.from_seed(seed))
    assert sample(handle, 11) == sample(handle, Philox.from_seed(11)) and seeds == []
    monkeypatch.setitem(sys.modules, "numpy", numpy)
    assert sample(handle, 11) == sample(handle, Philox.from_seed(11)) and seeds == [11]


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_seeded_calls_reject_a_bad_seed(seed):
    handle = DistributionHandle(normalize_weights(build_equal(2)))
    calls = (
        lambda: Philox.from_seed(seed),
        lambda: sample(handle, seed),
        lambda: sample_tree(5, seed),
        lambda: constraint_fraction_experiment(4, 10, seed, constraints=[]),
        lambda: iter_trees(4, 10, seed),
        lambda: seeded_stream(seed, NUMPY_DRAWS),
    )
    for call in calls:
        with pytest.raises(SpnError) as exc:
            call()
        assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"
