import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from loggas import (
    ChargeVector,
    CouplingMatrix,
    TwoComponentSpec,
    charge_bounds,
    charge_eigenvalues,
    critical_interval,
    eig_bounds,
    eig_bounds_many,
    from_charges,
    from_graph,
    from_matrix,
    GraphSpec,
    symmetric_eigs,
)
import loggas.cli as cli
import loggas.spectral as spectral
from loggas.errors import InputError, SizeLimitError
from loggas.spectral import (BoundReport, _eigenvalues, _jacobi, _round_robin, _schedule,
                             _tridiagonalise)

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
    ``_jacobi``, but each round gathers columns p and q (then rows p and
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
        solved = _jacobi(c)
        eigenvalues, vectors, residual, sweeps = _per_pair_eigs(c)
        assert np.array_equal(np.signbit(solved.eigenvalues), np.signbit(eigenvalues))
        assert np.array_equal(solved.eigenvalues, eigenvalues)
        assert np.array_equal(solved.eigenvectors, vectors)
        assert np.array_equal(np.signbit(solved.eigenvectors), np.signbit(vectors))
        assert solved.residual == residual and solved.sweeps == sweeps


def _mixed_stack(n, rng):
    """Same-size matrices of many kinds for one eigenvalue stack: the four
    kinds, Gaussians at three scales, one with exact-zero couplings, one
    coupled pair and the zero matrix, whose tridiagonal forms split (an
    off-diagonal that is exactly 0) where the others' do not."""
    stack = _four_kinds(n)
    for scale in (1e-3, 1.0, 1e5):
        g = np.triu(rng.standard_normal((n, n)) * scale, 1)
        stack.append(CouplingMatrix(n, g + g.T))
    sparse = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3), 1)
    stack.append(CouplingMatrix(n, sparse + sparse.T))
    pair = np.zeros((n, n))
    pair[0, n - 1] = pair[n - 1, 0] = 0.75
    stack.append(CouplingMatrix(n, pair))
    stack.append(CouplingMatrix(n, np.zeros((n, n))))
    order = rng.permutation(len(stack))
    return [stack[i] for i in order]


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [*range(2, 22), 40, 140])
def test_stack_matches_one_at_a_time_bit_for_bit(n):
    # 140 takes the pairwise sums past numpy's 128-value blocks
    rng = np.random.default_rng(500 + n)
    cs = _mixed_stack(n, rng)
    stacked = _eigenvalues(cs)
    assert stacked.shape == (len(cs), n)
    for c, got in zip(cs, stacked):
        _assert_same_bits(got, symmetric_eigs(c).eigenvalues)
        if not c.entries.any():
            _assert_same_bits(got, np.zeros(n))
    # a member splits at a step where others do not
    zero = _tridiagonalise(np.stack([c.entries for c in cs]))[1] == 0.0
    assert (zero.any(axis=0) & ~zero.all(axis=0)).any()


@pytest.mark.parametrize("n", [2, 9, 16, 40])
def test_points_per_pass_change_no_bit(n, monkeypatch):
    # a pass counts at the points its halvings could visit and follows their
    # path, so 1, 2 or 4 halvings per pass give the same brackets
    cs = _mixed_stack(n, np.random.default_rng(900 + n))
    results = []
    for values in (0, 3 * len(cs) * n, 15 * len(cs) * n):
        monkeypatch.setattr(spectral, "_PASS_VALUES", values)
        results.append(_eigenvalues(cs))
    for got in results[1:]:
        _assert_same_bits(got, results[0])


def _assert_eigvalsh(c, rtol=1e-12):
    got = _eigenvalues([c])[0]
    assert np.all(np.diff(got) >= 0)
    norm = float(np.linalg.norm(c.entries))
    assert np.max(np.abs(got - np.linalg.eigvalsh(c.entries))) <= rtol * norm
    return got


@pytest.mark.parametrize("n", range(2, 81))
def test_kernel_matches_eigvalsh_on_gaussians(n):
    g = np.random.default_rng(700 + n).standard_normal((n, n))
    m = (g + g.T) / 2
    np.fill_diagonal(m, 0.0)
    _assert_eigvalsh(CouplingMatrix(n, m))


@pytest.mark.parametrize("n", [2, 3, 7, 30])
def test_kernel_gives_the_zero_matrix_exact_zeros(n):
    _assert_same_bits(_eigenvalues([CouplingMatrix(n, np.zeros((n, n)))])[0], np.zeros(n))


def test_kernel_matches_the_two_by_two_closed_form():
    # a nonzero diagonal too: the kernel takes any symmetric matrix.  The
    # last has Gershgorin interval [-h, h) with h = 0.5 + 2^-53, so the
    # first count is at x = +0, where the pivot -0.0 - x is -0.0 and must
    # count as negative (the next, 0.25 / -0.0 later, is +inf)
    rng = np.random.default_rng(2)
    cases = rng.standard_normal((50, 3)) * np.exp(rng.uniform(-5, 5, (50, 1)))
    for a, b, c in [*cases, (-0.0, 0.5, -2.0 ** -53)]:
        mean, half = (a + c) / 2, math.hypot((a - c) / 2, b)
        got = _eigenvalues([CouplingMatrix(2, np.array([[a, b], [b, c]]))])[0]
        assert np.max(np.abs(got - [mean - half, mean + half])) <= 4e-16 * math.hypot(a, b, b, c)


@pytest.mark.parametrize("x", [1e200, 1e-200])
def test_kernel_keeps_the_spectrum_of_extreme_entries(x):
    # the same Gaussian at 1e200 and at 1e-200, and two blocks 1e200 apart:
    # ||C||_F overflows or underflows unless C is rescaled
    n = 12
    g = np.random.default_rng(5).standard_normal((n, n))
    m = (g + g.T) / 2
    np.fill_diagonal(m, 0.0)
    got = _eigenvalues([CouplingMatrix(n, m * x)])[0]
    assert np.max(np.abs(got / x - np.linalg.eigvalsh(m))) <= 1e-12 * np.linalg.norm(m)
    mixed = m.copy()
    mixed[:6, :6] *= x
    mixed[:6, 6:] = mixed[6:, :6] = 0.0
    big = mixed[:6, :6] if x > 1 else mixed[6:, 6:]  # the other block is below its ulps
    scale = max(x, 1.0)
    want = np.linalg.eigvalsh(big / scale) * scale
    got = _eigenvalues([CouplingMatrix(n, mixed)])[0]
    top = np.sort(got[np.argsort(np.abs(got))[-6:]])
    assert np.max(np.abs(top - want)) <= 1e-12 * np.linalg.norm(big / scale) * scale


def test_kernel_on_the_8_8_plasma_has_its_repeated_eigenvalue():
    # C = kk' - I for k = (1 x 8, -1 x 8): -1 fifteen times, and 15
    c = from_charges(_plasma(8, 8, 1, 1))
    got = _assert_eigvalsh(c)
    assert np.max(np.abs(got - np.append(np.full(15, -1.0), 15.0))) <= 1e-14 * 16
    assert np.max(np.abs(got - charge_eigenvalues(_plasma(8, 8, 1, 1)))) <= 1e-14 * 16


def test_kernel_on_repeated_eigenvalues():
    # Q diag(lambda) Q' with lambda in {-2 x 5, 0 x 3, 1 x 4}: the reduced
    # matrix splits or nearly so, and each cluster comes back whole
    rng = np.random.default_rng(11)
    lam = np.repeat([-2.0, 0.0, 1.0], [5, 3, 4])
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    m = (q * lam) @ q.T
    m = (m + m.T) / 2
    got = _eigenvalues([CouplingMatrix(12, m)])[0]
    assert np.max(np.abs(got - lam)) <= 1e-14 * np.linalg.norm(lam)


@pytest.mark.parametrize("v", [1.0, 1 + 2 ** -52, -0.7])
def test_kernel_gives_disjoint_pairs_their_exact_eigenvalues(v):
    # each pair splits the tridiagonal form, and the spectrum -|v|, |v| is
    # both Gershgorin ends.  At v = 1 the last halvings count at x = 1,
    # where a zero pivot meets a split (0/0 unless the count restarts); an
    # odd last bit of |v| needs the upper end past the top.  For these v,
    # (v * v) / v rounds back to v, so the count at x = |v| is exact
    n = 6
    m = np.zeros((n, n))
    m[np.arange(0, n, 2), np.arange(1, n, 2)] = v
    m += m.T
    want = np.repeat([-abs(v), abs(v)], n // 2)
    _assert_same_bits(_eigenvalues([CouplingMatrix(n, m)])[0], want)


def test_block_diagonal_input_splits_its_tridiagonal():
    # blocks in index order: the reduction never mixes them, so the
    # off-diagonal between two blocks is exactly 0 and the count restarts
    rng = np.random.default_rng(19)
    sizes = [3, 1, 5, 2, 4]
    n = sum(sizes)
    m = np.zeros((n, n))
    starts = np.cumsum([0] + sizes)
    for lo, hi in zip(starts[:-1], starts[1:]):
        g = rng.standard_normal((hi - lo, hi - lo))
        m[lo:hi, lo:hi] = g + g.T
    np.fill_diagonal(m, 0.0)
    _, e = _tridiagonalise(m[None].copy())
    assert np.count_nonzero(e == 0.0) >= len(sizes) - 1
    got = _assert_eigvalsh(CouplingMatrix(n, m))
    blocks = np.sort(np.concatenate([np.linalg.eigvalsh(m[lo:hi, lo:hi])
                                     for lo, hi in zip(starts[:-1], starts[1:])]))
    assert np.max(np.abs(got - blocks)) <= 1e-12 * np.linalg.norm(m)


def _spy_on_jacobi(monkeypatch) -> list:
    """Record the size of each matrix that ``_jacobi`` solves."""
    calls = []

    def spy(c):
        calls.append(c.n)
        return _jacobi(c)

    monkeypatch.setattr(spectral, "_jacobi", spy)
    return calls


@pytest.mark.parametrize("n", [2, 3, 9, 16, 33])
def test_spectrum_forms_the_vector_kernels_results_on_first_read(n, monkeypatch):
    kernels = _spy_on_jacobi(monkeypatch)
    for read in ("sweeps", "eigenvectors", "residual"):
        for c in _four_kinds(n):
            full = _jacobi(c)  # the [A; V] kernel, not the spy
            kernels.clear()
            spec = symmetric_eigs(c)
            assert kernels == []
            _assert_same_bits(spec.eigenvalues, _eigenvalues([c])[0])
            getattr(spec, read)
            assert kernels == [n]
            assert spec.sweeps == full.sweeps
            _assert_same_bits(spec.eigenvectors, full.eigenvectors)
            assert spec.residual == full.residual
            assert spec.eigenvectors is spec.eigenvectors
            assert kernels == [n]  # later reads solve nothing
            assert not spec.eigenvectors.flags.writeable
            # the two solvers agree to roundoff, so the columns pair up
            norm = float(np.linalg.norm(c.entries))
            assert np.max(np.abs(spec.eigenvalues - full.eigenvalues)) <= 1e-12 * norm


def test_bounds_on_a_matrix_never_forms_eigenvectors(tmp_path, monkeypatch):
    m = np.triu(np.random.default_rng(7).standard_normal((12, 12)), 1)
    calls = _spy_on_symmetric_eigs(monkeypatch)
    kernels = _spy_on_jacobi(monkeypatch)
    doc = _bounds_report(tmp_path, {"matrix": (m + m.T).tolist()})
    assert calls == [12, 12] and kernels == []
    assert np.max(np.abs(np.array(doc["eigenvalues"]) - np.linalg.eigvalsh(m + m.T))) <= (
        1e-12 * np.linalg.norm(m + m.T))


def test_eig_bounds_many_matches_eig_bounds():
    rng = random.Random(11)
    cs = [random_float_matrix(rng, 7) for _ in range(9)]
    assert eig_bounds_many(cs) == [eig_bounds(c) for c in cs]


def test_stack_member_at_the_sweep_cap_raises(monkeypatch):
    # the eigenvalues take no sweep; a Gaussian member's eigenvectors take
    # more than 2, the zero matrix's none
    monkeypatch.setattr(spectral, "_SWEEP_CAP", 2)
    cs = _mixed_stack(12, np.random.default_rng(3))
    assert eig_bounds_many(cs) == [eig_bounds(c) for c in cs]
    for c in cs:
        spec = symmetric_eigs(c)
        if not c.entries.any():
            assert spec.sweeps == 0
        elif np.count_nonzero(c.entries) > 2:
            with pytest.raises(InputError, match="Jacobi did not converge in 2 sweeps"):
                spec.eigenvectors


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
    _assert_same_bits(scaled.eigenvalues, np.ldexp(base.eigenvalues, k))
    assert np.array_equal(scaled.eigenvectors, base.eigenvectors)
    assert scaled.sweeps == base.sweeps


def test_sweep_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(spectral, "_SWEEP_CAP", 1)
    rng = np.random.default_rng(20)
    g = rng.standard_normal((20, 20))
    m = g + g.T
    np.fill_diagonal(m, 0.0)
    spec = symmetric_eigs(from_matrix(m))  # the cap is reached on the first read
    assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(m))) <= 1e-12 * np.linalg.norm(m)
    with pytest.raises(InputError, match="Jacobi did not converge"):
        spec.sweeps


def test_size_cap():
    with pytest.raises(SizeLimitError, match="eigensolver limited to n <= 1664"):
        symmetric_eigs(CouplingMatrix(1665, np.zeros((1665, 1665))))


def test_eig_bounds_mixed_charges():
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    report = eig_bounds(c)
    assert abs(report.beta_plus_lower - 1.0) < 1e-10  # tight: true beta+ = 1
    assert abs(report.beta_minus_upper - (-1.0 / 3.0)) < 1e-10


def _gaussian(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _pm123(n):
    return np.random.default_rng(n).choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], n)


def _log_uniform(n):
    rng = np.random.default_rng(n)
    return np.exp(rng.uniform(-5, 5, n)) * rng.choice([-1.0, 1.0], n)


def _near_equal(n):
    rng = np.random.default_rng(n)
    return (1 + rng.uniform(-1e-12, 1e-12, n)) * rng.choice([-1.0, 1.0], n)


def _plasma(n1, n2, z1, z2):
    return TwoComponentSpec(n1, n2, z1, z2).charges()


def _charge_vector(values) -> ChargeVector:
    return values if isinstance(values, ChargeVector) else ChargeVector(tuple(values.tolist()))


# every one has max k_i^2 <= ||C||_F, so the secular path takes it; the
# plasmas with z1 = z2 hold one group of equal poles, the others two
_CHARGE_INPUTS = (
    [pytest.param(_gaussian, (n, seed), id=f"gaussian-{n}")
     for n, seed in ((2, 0), (3, 2), (4, 1), (5, 0), (8, 0), (13, 0), (21, 0), (34, 0),
                     (55, 0), (64, 0), (80, 0))]
    + [pytest.param(_plasma, (n1, n2, z1, z2), id=f"plasma-{n1}+{n2}-z{z1}-z{z2}")
       for n1, n2, z1, z2 in ((1, 1, 1, 1), (8, 8, 1, 1), (3, 5, 2, 1), (5, 3, 2, Fraction(1, 3)),
                              (30, 50, 1, 3))]
    + [pytest.param(_pm123, (n,), id=f"pm123-{n}") for n in (7, 40)]
    + [pytest.param(_log_uniform, (n,), id=f"log-uniform-{n}") for n in (10, 40, 80)]
    + [pytest.param(_near_equal, (n,), id=f"near-equal-{n}") for n in (6, 50)]
)


@pytest.mark.parametrize("make, args", _CHARGE_INPUTS)
def test_charge_spectrum_matches_eigvalsh_and_the_jacobi(make, args):
    k = _charge_vector(make(*args))
    c = from_charges(k)
    norm = float(np.linalg.norm(c.entries))
    got = charge_eigenvalues(k)
    assert got is not None and len(got) == k.n
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - np.linalg.eigvalsh(c.entries))) <= 1e-12 * norm
    assert np.max(np.abs(got - symmetric_eigs(c).eigenvalues)) <= 1e-12 * norm
    assert abs(math.fsum(got.tolist())) <= k.n * np.finfo(float).eps * norm  # trace 0


def _spy_on_symmetric_eigs(monkeypatch) -> list:
    """Count the calls that ``bounds`` makes to ``symmetric_eigs``, directly
    and through ``eig_bounds``."""
    calls = []

    def spy(c):
        calls.append(c.n)
        return symmetric_eigs(c)

    monkeypatch.setattr(cli, "symmetric_eigs", spy)
    monkeypatch.setattr(spectral, "symmetric_eigs", spy)
    return calls


def _bounds_report(tmp_path, source: dict) -> dict:
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(source))
    assert cli.main(["bounds", "--input", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _one_charge_of_30():
    k = np.random.default_rng(63).standard_normal(64)
    k[0] = 30.0  # 900 against ||C||_F of about 350
    return k


@pytest.mark.parametrize("charges", [np.array([1e150, 1.0, -2.0, 3.0]), _one_charge_of_30()],
                         ids=["1e150", "30-among-63"])
def test_wide_charges_take_the_jacobi(tmp_path, monkeypatch, charges):
    c = from_charges(_charge_vector(charges))
    assert np.max(charges ** 2) > np.linalg.norm(c.entries)  # the rule refuses them
    assert charge_eigenvalues(_charge_vector(charges)) is None
    calls = _spy_on_symmetric_eigs(monkeypatch)
    doc = _bounds_report(tmp_path, {"charges": charges.tolist()})
    assert calls == [len(charges)] * 2
    reference = np.linalg.eigvalsh(c.entries)
    assert np.max(np.abs(np.array(doc["eigenvalues"]) - reference)) <= (
        1e-12 * np.linalg.norm(c.entries))


def test_a_charge_beyond_the_float_range_takes_the_jacobi(tmp_path, monkeypatch):
    # the one coupling 1e400 * 1e-300 = 1e100 is a float; the charge 1e400 is not
    calls = _spy_on_symmetric_eigs(monkeypatch)
    doc = _bounds_report(tmp_path, {"charges": ["1e400", "1e-300"]})
    assert calls == [2, 2]
    assert np.allclose(doc["eigenvalues"], [-1e100, 1e100], rtol=1e-15, atol=0)


@pytest.mark.parametrize("source", [
    {"charges": np.random.default_rng(64).standard_normal(64).tolist()},
    {"charges": [1, 1, -1, -1]},
    {"two_component": {"n1": 5, "n2": 3, "z1": 2, "z2": 1}},
    {"random": {"model": "charges", "n": 40, "seed": 0}},
], ids=["charges-64", "charges-exact", "two-component", "random-charges"])
def test_admitted_charges_skip_the_jacobi(tmp_path, monkeypatch, source):
    calls = _spy_on_symmetric_eigs(monkeypatch)
    doc = _bounds_report(tmp_path, source)
    assert calls == []
    assert doc["charge_beta_plus_lower"] is not None


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
