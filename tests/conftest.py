"""Shared generators for the randomized suites.

All randomized tests draw from seeded numpy generators so runs are
reproducible.  Random product symbols enforce a minimum circular
separation between factor angles: nearly coincident angles behave like a
merged factor of summed multiplicity, which collapses the first nonzero
eigenvalue toward the merged scaling and would defeat any fixed gap
threshold.  The separation guard keeps the suites well-conditioned without
touching the constructions under test.
"""

import numpy as np
import pytest

from toepbrack import TWO_PI, make_symbol

def random_spec(rng, max_factors=3, max_mult=2, min_sep=0.5):
    """A random product symbol with angle separation >= min_sep."""
    n = int(rng.integers(1, max_factors + 1))
    while True:
        angles = np.sort(rng.uniform(0.0, TWO_PI, n))
        if n == 1:
            break
        gaps = np.diff(angles, append=angles[0] + TWO_PI)
        if gaps.min() >= min_sep:
            break
    mults = rng.integers(1, max_mult + 1, n)
    return make_symbol([(float(e), int(m)) for e, m in zip(angles, mults)])


def random_split(rng, degree, total_max):
    """Two window sizes, each >= 2N+1, summing to at most total_max."""
    lo = 2 * degree + 1
    if 2 * lo > total_max:
        raise ValueError("total budget too small for this degree")
    size1 = int(rng.integers(lo, total_max - lo + 1))
    size2 = int(rng.integers(lo, total_max - size1 + 1))
    return size1, size2


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
