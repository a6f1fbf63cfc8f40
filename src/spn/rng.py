"""Seeded counter-based random number generation.

A seed names numpy's `Generator(Philox(SeedSequence(seed)))` stream.
`make_rng(seed)` returns that Generator, importing numpy on the call, for
callers that need its other methods; library calls given a Generator draw
through numpy.  `seeded_stream` is the one place a seed becomes a
stream: numpy's Generator once numpy is imported, or when the run expects
`NUMPY_DRAWS` draws or more (a block draw costs about 0.15 us less
there), else `Philox`, a pure-Python copy of the stream (defined in
`spn.philox`, which is imported on the first use of the name) that saves
numpy's import.  The values are the same either way.  Identical seeds
give identical streams across platforms.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import chain, repeat
from numbers import Integral
from operator import length_hint

from .errors import SpnError, echo


def check_seed(seed) -> int:
    if not isinstance(seed, Integral) or seed < 0:
        raise SpnError(f"seed must be a non-negative integer, got {echo(seed, repr)}")
    return int(seed)


def make_rng(seed: int) -> "numpy.random.Generator":
    seed = check_seed(seed)
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# block draws from which numpy's Generator, its import (about 0.2 s) included, is the faster
# stream: the pure one costs about 0.16 us more a tree-walk draw (2-vCPU VM)
NUMPY_DRAWS = 1 << 20


def seeded_stream(rng_or_seed, draws: float = 0):
    """The stream `rng_or_seed` names, for a run expected to take `draws` draws.

    An object that draws (it has `random`) is returned as is.  A seed
    gets numpy's Generator if numpy is imported already or `draws`
    reaches `NUMPY_DRAWS`, else `spn.philox.Philox`.
    """
    if hasattr(rng_or_seed, "random"):
        return rng_or_seed
    if draws >= NUMPY_DRAWS or "numpy" in sys.modules:
        return make_rng(rng_or_seed)
    from .philox import Philox  # here, so the commands that never draw do not compile it

    return Philox.from_seed(rng_or_seed)


def __getattr__(name):
    if name != "Philox":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .philox import Philox

    return Philox


class _GeneratorStream:
    """The block-draw face of a numpy Generator: its state, k draws at once, and a redraw."""

    __slots__ = ("rng",)

    def __init__(self, rng):
        self.rng = rng

    @property
    def state(self):
        return self.rng.bit_generator.state

    @state.setter
    def state(self, state):
        self.rng.bit_generator.state = state

    def draw(self, high: int, k: int) -> list[int]:
        return self.rng.integers(high, size=k).tolist()

    replay = draw

    def uniforms(self, k: int) -> list[float]:
        return self.rng.random(k).tolist()

    def replay_uniforms(self, k: int) -> None:
        self.rng.random(k)


class _Blocks:
    """Context manager over the values of successive scalar draws, taken in blocks of the given sizes.

    `draw(k)` takes the next k values of the stream and `replay(k)` moves
    the stream as taking k values from the same state would.  A block is
    drawn when the values run out, the first one at the first `next`.  On
    exit, if values of the last block are left, the state saved before it
    is restored and the values taken from it are replayed, so the stream
    ends where one scalar call per value taken would leave it, also when
    the block exits by an exception.
    """

    __slots__ = ("_stream", "_draw", "_replay", "_sizes", "_state", "_chunk", "_rest")

    def __init__(self, stream, draw, replay, sizes):
        self._stream, self._draw, self._replay, self._sizes = stream, draw, replay, sizes
        self._chunk = ()
        self._rest = iter(self._chunk)

    def _chunks(self):
        for size in self._sizes:
            self._state = self._stream.state
            self._chunk = self._draw(size)
            self._rest = iter(self._chunk)
            yield self._rest

    def __enter__(self):
        return chain.from_iterable(self._chunks())

    def __exit__(self, *exc):
        left = length_hint(self._rest)
        if left:
            self._stream.state = self._state
            self._replay(len(self._chunk) - left)


def _block_stream(rng):
    return rng if hasattr(rng, "replay") else _GeneratorStream(rng)


def block_integers(rng, high: int, block: int) -> _Blocks:
    """Iterator over the values of successive `rng.integers(high)` calls, drawn `block` at a time.

    `rng` is a `spn.philox.Philox` or a numpy Generator.  One block of k
    draws yields the values of k scalar calls, in order, because each
    value takes the same bit-generator words either way.  On exit the
    stream is rewound to the values taken (see `_Blocks`), buffered
    half-word included.
    """
    stream = _block_stream(rng)
    return _Blocks(stream, partial(stream.draw, high), partial(stream.replay, high), repeat(block))


def block_uniforms(rng, sizes) -> _Blocks:
    """Iterator over the values of successive `rng.random()` calls, drawn in blocks of the successive `sizes`.

    As `block_integers`: a block of k doubles is the k scalar calls' values,
    each the top 53 bits of one 64-bit word, and on exit the stream is
    rewound to the values taken; a buffered half-word is left as it was.
    """
    stream = _block_stream(rng)
    return _Blocks(stream, stream.uniforms, stream.replay_uniforms, sizes)
