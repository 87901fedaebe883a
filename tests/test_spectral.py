import math
import random
from fractions import Fraction

import numpy as np
import pytest

from loggas import (
    ChargeVector,
    CouplingMatrix,
    charge_bounds,
    critical_interval,
    eig_bounds,
    from_charges,
    from_graph,
    from_matrix,
    GraphSpec,
    symmetric_eigs,
)
import loggas.spectral as spectral
from loggas.errors import InputError, SizeLimitError
from loggas.spectral import BoundReport, _round_robin, _schedule

from conftest import random_exact_matrix, random_float_matrix


def test_two_by_two_closed_form():
    spec = symmetric_eigs(from_matrix([[0, 2.5], [2.5, 0]]))
    assert np.allclose(spec.eigenvalues, [-2.5, 2.5])


def test_mixed_charge_spectrum():
    # C = kk' - I for k = (1,1,-1,-1); kk' has eigenvalues {4,0,0,0}
    spec = symmetric_eigs(from_charges(ChargeVector((1, 1, -1, -1))))
    assert np.allclose(spec.eigenvalues, [-1, -1, -1, 3], atol=1e-10)


def test_zero_matrix_spectrum():
    spec = symmetric_eigs(from_matrix([[0, 0], [0, 0]]))
    assert np.array_equal(spec.eigenvalues, [0.0, 0.0])
    assert spec.residual == 0.0


def test_agrees_with_numpy_eigensolver():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 12)
        c = random_float_matrix(rng, n)
        spec = symmetric_eigs(c)
        reference = np.linalg.eigvalsh(c.entries)
        assert np.max(np.abs(spec.eigenvalues - reference)) < 1e-9


def test_residual_and_trace_invariants():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 10)
        c = random_float_matrix(rng, n)
        spec = symmetric_eigs(c)
        norm = float(np.linalg.norm(c.entries))
        assert spec.residual <= 1e-8 * max(1.0, norm)
        max_abs = float(np.max(np.abs(c.entries))) or 1.0
        assert abs(np.sum(spec.eigenvalues)) <= 1e-8 * n * max_abs
        # eigenvectors are kept and orthonormal
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10


@pytest.mark.parametrize("n", range(2, 41))
def test_round_robin_rounds_are_disjoint_and_cover_every_pair_once(n):
    rounds = _round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for p, q in rounds:
        assert len(p) == len(q) == n // 2
        assert np.all(p < q)
        assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)  # disjoint pairs
        seen += zip(p.tolist(), q.tolist())
    assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("n", [*range(2, 42), 64, 96, 97])
def test_schedule_runs_gather_the_partner_columns_bit_for_bit(n):
    # signed zeros tell a copied column from its neighbours: an idle index
    # (odd n) that copied a zero from another column could flip -0.0 to 0.0
    rng = np.random.default_rng(n)
    w = rng.standard_normal((2 * n, n))
    w[rng.random(w.shape) < 0.2] = -0.0
    w[rng.random(w.shape) < 0.2] = 0.0
    rounds = _schedule(n)
    assert len(rounds) == len(_round_robin(n))
    for (p, q, partner, runs, pq, qp), (p0, q0) in zip(rounds, _round_robin(n)):
        assert np.array_equal(p, p0) and np.array_equal(q, q0)
        assert np.array_equal(partner[p], q) and np.array_equal(partner[q], p)
        idle = np.flatnonzero(partner == np.arange(n))
        assert len(idle) == n % 2
        assert np.array_equal(pq, p * n + q) and np.array_equal(qp, q * n + p)
        gathered = np.full_like(w, np.nan)
        for dst, src in runs:
            np.copyto(gathered[:, dst], w[:, src])
        assert np.array_equal(gathered, w[:, partner])
        assert np.array_equal(np.signbit(gathered), np.signbit(w[:, partner]))


def _per_pair_eigs(c):
    """Reference Jacobi: the same schedule, angles and stopping rule as
    symmetric_eigs, but each round gathers columns p and q (then rows p and
    q) of A, rotates them as cs*x - sn*y and sn*x + cs*y, and scatters them
    back, then does the same for the columns of a separate V."""

    def rotate(x, y, cs, sn):
        return cs * x - sn * y, sn * x + cs * y

    exponent = math.frexp(float(np.max(np.abs(c.entries))))[1]
    a = np.ldexp(c.entries, -exponent)
    v = np.eye(c.n)
    norm_c = float(np.linalg.norm(a))
    sweeps = 0
    while np.linalg.norm(a - np.diag(np.diag(a))) > 1e-12 * norm_c and norm_c > 0.0:
        sweeps += 1
        for p, q in _round_robin(c.n):
            apq = a[p, q]
            live = apq != 0.0
            theta = (a[q, q] - a[p, p]) / (2.0 * np.where(live, apq, 1.0))
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(live, t, 0.0)
            cs = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * cs
            a[:, p], a[:, q] = rotate(a[:, p], a[:, q], cs, sn)
            a[p, :], a[q, :] = rotate(a[p, :], a[q, :], cs[:, None], sn[:, None])
            a[p, q] = a[q, p] = 0.0
            v[:, p], v[:, q] = rotate(v[:, p], v[:, q], cs, sn)
    eigenvalues = np.ldexp(np.diag(a), exponent)
    order = np.argsort(eigenvalues, kind="stable")
    vectors = v[:, order]
    residual = float(np.max(np.abs(c.entries @ vectors - vectors * eigenvalues[order])))
    return eigenvalues[order], vectors, residual, sweeps


def _four_kinds(n):
    """Float, charge, 0/1 graph and small-integer couplings of size n."""
    rng = np.random.default_rng(1000 + n)
    g = rng.standard_normal((n, n))
    gaussian = (g + g.T) / 2
    np.fill_diagonal(gaussian, 0.0)
    charges = rng.choice([-1.0, 1.0], n) * rng.uniform(0.2, 2.0, n)
    upper = np.triu(rng.integers(0, 2, (n, n)), 1)
    edges = tuple(zip(*np.nonzero(upper)))
    ints = np.triu(rng.integers(-3, 4, (n, n)), 1).astype(float)
    return [
        CouplingMatrix(n, gaussian),
        from_charges(ChargeVector(tuple(charges.tolist()))),
        from_graph(GraphSpec(n, tuple((int(i), int(j)) for i, j in edges))),
        CouplingMatrix(n, ints + ints.T),
    ]


@pytest.mark.parametrize("n", [*range(2, 41), 64, 97])
def test_partner_gather_matches_per_pair_rotations_bit_for_bit(n):
    # odd n leave a different index idle in each round; it must get the
    # identity there, not the previous round's coefficients
    for c in _four_kinds(n):
        spec = symmetric_eigs(c)
        eigenvalues, vectors, residual, sweeps = _per_pair_eigs(c)
        assert np.array_equal(np.signbit(spec.eigenvalues), np.signbit(eigenvalues))
        assert np.array_equal(spec.eigenvalues, eigenvalues)
        assert np.array_equal(spec.eigenvectors, vectors)
        assert np.array_equal(np.signbit(spec.eigenvectors), np.signbit(vectors))
        assert spec.residual == residual and spec.sweeps == sweeps


def test_block_diagonal_input_keeps_blocks_apart():
    # cross-block pairs are zero, so their rotations are skipped and every
    # eigenvector stays supported on one block
    rng = np.random.default_rng(17)
    sizes = [3, 1, 5, 2, 4]
    n = sum(sizes)
    m = np.zeros((n, n))
    starts = np.cumsum([0] + sizes)
    for lo, hi in zip(starts[:-1], starts[1:]):
        g = rng.standard_normal((hi - lo, hi - lo))
        m[lo:hi, lo:hi] = g + g.T
    np.fill_diagonal(m, 0.0)
    perm = rng.permutation(n)  # interleave the blocks across the schedule
    m, block = m[np.ix_(perm, perm)], np.repeat(np.arange(len(sizes)), sizes)[perm]
    spec = symmetric_eigs(from_matrix(m))
    assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(m))) < 1e-12
    for k in range(n):
        support = np.nonzero(spec.eigenvectors[:, k])[0]
        assert len(set(block[support].tolist())) == 1


@pytest.mark.parametrize("n", [64, 96])
def test_large_gaussian_spectrum(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    m = (g + g.T) / 2
    np.fill_diagonal(m, 0.0)
    spec = symmetric_eigs(from_matrix(m))
    norm = float(np.linalg.norm(m))
    assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(m))) <= 1e-10 * norm
    assert spec.residual <= 1e-12 * norm
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12


@pytest.mark.parametrize("x", [1e200, 1e-200])
def test_extreme_magnitudes_keep_the_spectrum(x):
    # ||C||_F overflows (1e200) or underflows (1e-200) unless C is rescaled
    spec = symmetric_eigs(from_matrix([[0, x], [x, 0]]))
    assert np.all(np.abs(spec.eigenvalues - [-x, x]) <= 1e-12 * x)


@pytest.mark.parametrize("k", [-700, 600])
def test_power_of_two_scaling_changes_no_bit(k):
    c = random_float_matrix(random.Random(k), 9)
    base = symmetric_eigs(c)
    scaled = symmetric_eigs(CouplingMatrix(c.n, np.ldexp(c.entries, k)))
    assert np.array_equal(scaled.eigenvalues, np.ldexp(base.eigenvalues, k))
    assert np.array_equal(scaled.eigenvectors, base.eigenvectors)
    assert scaled.sweeps == base.sweeps


def test_sweep_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(spectral, "_SWEEP_CAP", 1)
    rng = np.random.default_rng(20)
    g = rng.standard_normal((20, 20))
    m = g + g.T
    np.fill_diagonal(m, 0.0)
    with pytest.raises(InputError, match="Jacobi did not converge"):
        symmetric_eigs(from_matrix(m))


def test_size_cap():
    with pytest.raises(SizeLimitError, match="eigensolver limited to n <= 384"):
        symmetric_eigs(CouplingMatrix(385, np.zeros((385, 385))))


def test_eig_bounds_mixed_charges():
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    report = eig_bounds(c)
    assert abs(report.beta_plus_lower - 1.0) < 1e-10  # tight: true beta+ = 1
    assert abs(report.beta_minus_upper - (-1.0 / 3.0)) < 1e-10


def test_eig_bounds_vacuous_for_zero_matrix():
    report = eig_bounds(from_matrix([[0, 0], [0, 0]]))
    assert report.beta_plus_lower == math.inf
    assert report.beta_minus_upper == -math.inf


def test_eig_bounds_k4():
    g = GraphSpec(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    c = from_graph(g)
    report = eig_bounds(c)
    assert abs(report.beta_minus_upper - (-1.0 / 3.0)) < 1e-10
    true_beta_minus = float(critical_interval(c).beta_minus)
    assert true_beta_minus == -0.5  # T- = -2 from the densest subgraph
    assert true_beta_minus <= report.beta_minus_upper


def test_beta_bound_beyond_the_float_range_is_refused():
    # 1/1e-310 overflows: the bound on beta is finite but not a float
    with pytest.raises(InputError, match=r"beta\+ is beyond the float range"):
        BoundReport(1e-310, 1.0).beta_plus_lower
    with pytest.raises(InputError, match="beta- is beyond the float range"):
        BoundReport(1.0, 1e-310).beta_minus_upper
    exact = BoundReport(Fraction(1, 10 ** 310), Fraction(1, 10 ** 310))
    assert exact.beta_plus_lower == 10 ** 310 and exact.beta_minus_upper == -10 ** 310


def test_charge_bounds_examples():
    report = charge_bounds(ChargeVector((1, 1, -1, -1)))
    assert report.beta_plus_lower == 1
    assert report.beta_minus_upper == Fraction(-1, 3)

    tc = charge_bounds(ChargeVector((Fraction(3), Fraction(3), Fraction(-2), Fraction(-2), Fraction(-2))))
    assert tc.beta_plus_lower == Fraction(1, 9)  # 1/max(z1^2, z2^2), weaker than 1/(z1 z2)

    n2 = charge_bounds(ChargeVector((2.0, 2.0)))
    assert abs(n2.beta_minus_upper - (-1.0 / 4.0)) < 1e-12  # tight at N=2

    # Python ints give Fractions, not 1 / int floats
    ints = charge_bounds(ChargeVector((3, 3, -2, -2, -2)))
    assert type(ints.beta_plus_lower) is Fraction and ints.beta_plus_lower == Fraction(1, 9)
    assert type(ints.beta_minus_upper) is Fraction and ints.beta_minus_upper == Fraction(-1, 26)

    # mixed input: each square formed in the input's types, then cast to float
    mixed = (Fraction(1, 3), 0.7, Fraction(-2, 7), -1.1)
    squares = [float(v * v) for v in mixed]
    report = charge_bounds(ChargeVector(mixed))
    assert type(report.beta_plus_lower) is float
    assert report.beta_plus_lower == 1.0 / max(squares)
    assert report.beta_minus_upper == -1.0 / (sum(squares) - min(squares))


@pytest.mark.filterwarnings("error")
def test_charge_bounds_when_the_sum_of_squares_overflows():
    # each square is finite, as is the one coupling -1.44e308; their sum is not
    report = charge_bounds(ChargeVector((1.2e154, -1.2e154)))
    assert report.t_plus_upper == 1.2e154 * 1.2e154
    assert report.neg_t_minus_upper == math.inf
    assert report.beta_minus_upper == 0.0


def test_bound_validity_against_solver():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(3, 8)
        c = random_exact_matrix(rng, n)
        report = critical_interval(c)
        bounds = eig_bounds(c)
        slack = 1e-9
        if math.isfinite(float(report.beta_plus)):
            assert float(report.beta_plus) >= float(bounds.beta_plus_lower) - slack
        if math.isfinite(float(report.beta_minus)):
            assert float(report.beta_minus) <= float(bounds.beta_minus_upper) + slack


def test_charge_bounds_never_beat_eig_bounds():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(3, 8)
        values = []
        while not (any(v > 0 for v in values) and any(v < 0 for v in values)):
            values = [rng.choice([-1, 1]) * rng.uniform(0.2, 2.0) for _ in range(n)]
        k = ChargeVector(tuple(values))
        eig = eig_bounds(from_charges(k))
        charge = charge_bounds(k)
        assert float(charge.beta_plus_lower) <= float(eig.beta_plus_lower) + 1e-9
        assert float(charge.beta_minus_upper) >= float(eig.beta_minus_upper) - 1e-9
