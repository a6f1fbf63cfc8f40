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
from contextlib import contextmanager
from numbers import Integral
from operator import length_hint

from .errors import SpnError


def check_seed(seed) -> int:
    if not isinstance(seed, Integral) or seed < 0:
        raise SpnError(f"seed must be a non-negative integer, got {seed!r}")
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


@contextmanager
def block_integers(rng, high: int, block: int):
    """Iterator over the values of successive `rng.integers(high)` calls, drawn `block` at a time.

    `rng` is a `spn.philox.Philox` or a numpy Generator.  One block of k
    draws yields the values of k scalar calls, in order, because each
    value takes the same bit-generator words either way.  On exit the state saved before
    the last block is restored and the values taken from that block are
    replayed, so `rng` ends where one scalar call per value taken would
    leave it, buffered half-word included.
    """
    stream = rng if hasattr(rng, "replay") else _GeneratorStream(rng)
    state, chunk = None, []
    rest = iter(chunk)

    def values():
        nonlocal state, chunk, rest
        while True:
            state = stream.state
            chunk = stream.draw(high, block)
            rest = iter(chunk)
            yield from rest

    try:
        yield values()
    finally:
        if state is not None:
            stream.state = state
            stream.replay(high, len(chunk) - length_hint(rest))
