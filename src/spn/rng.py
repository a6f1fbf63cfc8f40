"""Seeded counter-based random number generation.

All randomized operations take an explicit seed (or a generator built
from one); identical seeds give identical streams across platforms.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

