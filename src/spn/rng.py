"""Seeded counter-based random number generation.

All randomized operations take an explicit seed (or a generator built
from one); identical seeds give identical streams across platforms.
numpy is imported on the first call, so commands that never draw do not
pay for loading it.
"""

from contextlib import contextmanager
from numbers import Integral
from operator import length_hint

from .errors import SpnError


def make_rng(seed: int) -> "numpy.random.Generator":
    if not isinstance(seed, Integral) or seed < 0:
        raise SpnError(f"seed must be a non-negative integer, got {seed!r}")
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@contextmanager
def block_integers(rng, high: int, block: int):
    """Iterator over the values of successive `rng.integers(high)` calls, drawn `block` at a time.

    One block of k draws yields the values of k scalar calls, in order,
    because each value takes the same bit-generator words either way.
    On exit the state saved on entry is restored and the values taken
    are redrawn in one block, so `rng` ends where one scalar call per
    value taken would leave it, buffered half-word included.
    """
    state = rng.bit_generator.state
    drawn, chunk = 0, iter(())

    def values():
        nonlocal drawn, chunk
        while True:
            chunk = iter(rng.integers(high, size=block).tolist())
            drawn += block
            yield from chunk

    try:
        yield values()
    finally:
        rng.bit_generator.state = state
        rng.integers(high, size=drawn - length_hint(chunk))
