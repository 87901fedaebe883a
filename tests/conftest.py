import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from loggas import CouplingMatrix, SubsetMask, from_matrix

hypothesis.settings.register_profile(
    "default", max_examples=30, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("default")


def subset_mask(indices) -> SubsetMask:
    """The subset of the given 0-based particle indices."""
    return SubsetMask(sum(1 << i for i in set(indices)))


def symmetric_from_upper(n, values):
    """Build a symmetric zero-diagonal matrix from upper-triangle values."""
    rows = [[0] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            rows[i][j] = rows[j][i] = v
    return rows


def random_exact_matrix(rng: random.Random, n: int, lo=-9, hi=9) -> CouplingMatrix:
    """Random integer couplings with at least one sign change when possible."""
    m = n * (n - 1) // 2
    while True:
        vals = [rng.randint(lo, hi) for _ in range(m)]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            break
        if m == 1:
            vals = [rng.choice([v for v in range(lo, hi + 1) if v != 0])]
            break
    return from_matrix(symmetric_from_upper(n, vals))


def random_float_matrix(rng: random.Random, n: int, scale=1.0) -> CouplingMatrix:
    m = n * (n - 1) // 2
    vals = [rng.gauss(0.0, scale) for _ in range(m)]
    return from_matrix(symmetric_from_upper(n, vals))


@st.composite
def exact_coupling_matrices(draw, min_n=2, max_n=6, lo=-6, hi=6):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    vals = draw(st.lists(st.integers(lo, hi), min_size=m, max_size=m))
    return from_matrix(symmetric_from_upper(n, vals))


@st.composite
def exact_charge_tuples(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    nonzero = st.integers(-5, 5).filter(lambda v: v != 0)
    return tuple(Fraction(v) for v in draw(st.lists(nonzero, min_size=n, max_size=n)))


@pytest.fixture
def rng():
    return random.Random(20260810)
