"""Seeded counter-based random number generation.

All randomized operations take an explicit seed (or a generator built
from one); identical seeds give identical streams across platforms.
numpy is imported on the first call, so commands that never draw do not
pay for loading it.
"""


def make_rng(seed: int) -> "numpy.random.Generator":
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
