import ast
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from loggas import (
    ChainParams,
    ChargeVector,
    analytic_partition_two,
    collapse_observables,
    estimate_partition,
    from_charges,
    from_matrix,
    metropolis_chain,
    pole_order_fit,
)
import loggas.sphere_mc as sphere_mc
from loggas.errors import DomainError

from oracles import energy, three_particle_partition

C1 = from_matrix([[0, 1], [1, 0]])


def quad_partition_two(c12, beta):
    """Independent oracle: polar-angle quadrature of the pair integral."""
    s = c12 * beta
    value, err = quad(lambda t: (2.0 * np.sin(t / 2.0)) ** (2 * s) * np.sin(t) / 2.0,
                      0.0, np.pi, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    return value


# ---------------------------------------------------------------------------
# Uniform sampling and energy
# ---------------------------------------------------------------------------

def sample_uniform(n, seed):
    """n uniform points on S^2 as an (n,3) array, drawn as estimate_partition
    and the chain start draw them: Philox normals, normalized."""
    rng = sphere_mc._philox(seed)
    return sphere_mc._uniform_points(rng, 1, n)[..., 0].T


def test_sample_uniform_unit_norms_and_determinism():
    a = sample_uniform(50, seed=4)
    b = sample_uniform(50, seed=4)
    assert np.array_equal(a, b)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) <= 1e-12


def test_sample_uniform_moments():
    pts = sample_uniform(1_000_000, seed=8)
    z = pts[:, 2]
    assert abs(np.mean(z)) < 0.005
    assert abs(np.mean(z * z) - 1.0 / 3.0) < 0.01


class _StubNormals:
    """A generator that returns the given standard-normal draws in order
    (into ``out`` when given) and records the shapes asked for."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.shapes = []

    def standard_normal(self, size=None, out=None):
        draw = self.draws.pop(0)
        if out is None:
            self.shapes.append(size)
            return draw
        self.shapes.append(out.shape)
        out[...] = draw
        return out


def test_uniform_points_redraws_only_zero_rows_in_c_order():
    first = np.arange(1.0, 19.0).reshape(2, 3, 3)
    first[0, 2] = first[1, 0] = 0.0
    # C order: (configuration 0, point 2) first; its redraw is zero again
    second = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    third = np.array([[0.0, 0.0, 2.0]])
    rng = _StubNormals(first, second, third)
    x = sphere_mc._uniform_points(rng, 2, 3)
    assert rng.shapes == [(2, 3, 3), (2, 3), (1, 3)]
    assert x.shape == (3, 3, 2) and x.flags.c_contiguous
    expected = first.copy()
    expected[0, 2], expected[1, 0] = third[0], second[1]
    expected /= np.linalg.norm(expected, axis=-1, keepdims=True)
    pts = x.transpose(2, 1, 0)
    assert np.array_equal(pts, expected)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) <= 1e-15


def test_uniform_points_match_row_major_normalisation():
    raw = sphere_mc._philox(6).standard_normal((200, 4, 3))
    x = sphere_mc._uniform_points(sphere_mc._philox(6), 200, 4)
    expected = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    assert np.array_equal(x.transpose(2, 1, 0), expected)


def _log_d2_row_major(pts, i, j):
    """Row-major reference for _log_d2 on (..., N, 3) points."""
    diffs = pts[..., i, :] - pts[..., j, :]
    with np.errstate(divide="ignore"):
        return np.log(np.sum(diffs * diffs, axis=-1))


@pytest.mark.parametrize("b,n", [(1, 2), (9, 2), (5, 16), (300, 7)])
def test_log_d2_matches_row_major_reference(b, n):
    rng = np.random.Generator(np.random.Philox(100 * b + n))
    # coordinates of mixed magnitudes, so a different summation order shows
    pts = rng.standard_normal((b, n, 3)) * np.exp(4.0 * rng.standard_normal((b, n, 3)))
    pts[-1, 1] = pts[-1, 0]  # a coincident coupled pair
    i, j = np.triu_indices(n, k=1)
    got = sphere_mc._log_d2(np.ascontiguousarray(pts.transpose(2, 1, 0)), i, j)
    expected = _log_d2_row_major(pts, i, j)
    assert np.isneginf(got[0, -1])
    assert np.array_equal(got.T, expected)


def test_energy_oracle_shares_no_code_with_the_sampler():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    assert "loggas" in modules and not any(m.startswith("loggas.sphere_mc") for m in modules)


def test_energy_antipodal():
    cfg = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert abs(energy(C1, cfg) - (-math.log(4.0))) < 1e-14


def test_energy_coincident_raises():
    cfg = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DomainError, match="particles 0 and 1 coincide"):
        energy(C1, cfg)


def test_energy_rejects_wrong_shape():
    with pytest.raises(ValueError):
        energy(C1, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        energy(C1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        energy(C1, np.eye(3))  # three points, two particles


def test_energy_zero_coupling_ignores_coincidence():
    c = from_matrix([[0, 0], [0, 0]])
    cfg = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert energy(c, cfg) == 0.0


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_energy_rotation_invariance():
    rng = np.random.Generator(np.random.Philox(99))
    k = ChargeVector((1.5, -0.5, 2.0, -1.0))
    c = from_charges(k)
    cfg = sample_uniform(4, seed=21)
    base = energy(c, cfg)
    for _ in range(100):
        rot = _random_rotation(rng)
        rotated = cfg @ rot.T
        assert abs(energy(c, rotated) - base) <= 1e-10


# ---------------------------------------------------------------------------
# Analytic two-particle partition function
# ---------------------------------------------------------------------------

def test_analytic_partition_two_values():
    assert analytic_partition_two(1.0, 0.0) == 1.0
    assert abs(analytic_partition_two(1.0, -0.5) - 1.0) < 1e-14
    assert abs(analytic_partition_two(1.0, 1.0) - 2.0) < 1e-14


@pytest.mark.parametrize("c12,beta", [(1.0, -0.5), (1.0, 1.0), (0.5, -1.5), (2.0, 0.75)])
def test_analytic_partition_two_against_quadrature(c12, beta):
    assert abs(analytic_partition_two(c12, beta) - quad_partition_two(c12, beta)) < 1e-10


def test_analytic_partition_two_domain():
    with pytest.raises(DomainError, match=r"c\*beta = -1\.0 is <= -1"):
        analytic_partition_two(1.0, -1.0)


# ---------------------------------------------------------------------------
# Monte Carlo partition estimates
# ---------------------------------------------------------------------------

def test_estimate_beta_zero_exact():
    est = estimate_partition(C1, 0.0, 2000, seed=3)
    assert est.mean == 1.0 and est.stderr == 0.0
    assert not est.heavy_tail


def test_estimate_outside_interval():
    with pytest.raises(DomainError, match=r"beta=-1\.5 not strictly inside"):
        estimate_partition(C1, -1.5, 2000, seed=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("beta,what", [(2.0, "mean inf")])
def test_estimate_refuses_weights_that_overflow(beta, what):
    # c = 300: from beta = 2 on the weights overflow
    c = from_matrix([[0, 300], [300, 0]])
    with pytest.raises(DomainError, match=rf"beta={beta:g}: .*{what}"):
        estimate_partition(c, beta, 2000, seed=0)


def test_estimate_scales_weights_near_the_float_limit():
    # c = 300: Z(1) = 2^600/301 ~ 1.4e178 is a float, the squares of the
    # weights are not; Z(2) is beyond the float range and is refused quietly
    c = from_matrix([[0, 300], [300, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_partition(c, 1.0, 2000, seed=0)
        with pytest.raises(DomainError, match=r"beta=2: .*mean inf"):
            estimate_partition(c, 2.0, 2000, seed=0)
    assert math.isfinite(est.stderr) and not est.heavy_tail
    assert abs(est.mean - analytic_partition_two(300, 1.0)) <= 4 * est.stderr


def test_estimate_heavy_tail_flag():
    assert estimate_partition(C1, -0.5, 2000, seed=3).heavy_tail
    assert not estimate_partition(C1, -0.4, 2000, seed=3).heavy_tail


def test_estimate_heavy_tail_flag_multi_particle():
    # four equal unit charges: (beta-, beta+) = (-1/2, inf), and the weight's
    # second moment Z(2 beta) is infinite once 2 beta <= -1/2, although every
    # pair has c*beta > -1/2
    c = from_charges(ChargeVector((1, 1, 1, 1)))
    assert estimate_partition(c, -0.3, 2000, seed=3).heavy_tail
    assert not estimate_partition(c, -0.2, 2000, seed=3).heavy_tail


def test_estimate_matches_analytic_n2():
    est = estimate_partition(C1, -0.5, 1_000_000, seed=17)
    assert abs(est.mean - 1.0) <= 3 * est.stderr


@pytest.mark.parametrize("c12", [1.0, -0.4])
@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_estimate_matches_analytic_pair_inside_three_particles(pair, c12):
    # one coupled pair among three particles: Z is the pair's, whichever of
    # the pole, the meridian and the free particle its ends sit on; at
    # beta = 1, 2 c beta > -1 so the weights have finite variance
    m = np.zeros((3, 3))
    m[pair] = m[pair[::-1]] = c12
    est = estimate_partition(from_matrix(m.tolist()), 1.0, 200_000, seed=sum(pair))
    assert not est.heavy_tail
    assert abs(est.mean - analytic_partition_two(c12, 1.0)) <= 4 * est.stderr


def test_rotation_classes_put_particle_one_at_a_uniform_height():
    rng = sphere_mc._philox(6)
    x = sphere_mc._rotation_classes(rng, rng.random(20_000), np.empty((3, 4, 20_000)),
                                    np.empty((20_000, 2, 3)))
    assert np.all(x[:, 0].T == (0.0, 0.0, 1.0))
    assert np.all(x[1, 1] == 0.0) and np.all(x[0, 1] >= 0.0)
    assert np.max(np.abs(np.sqrt(np.sum(x * x, axis=0)) - 1.0)) <= 1e-12
    # 1.95 is the Kolmogorov critical value at level 0.001
    assert _root_m_ks(x[2, 1], lambda z: (z + 1.0) / 2.0) < 1.95


def _row_major_estimate(c, beta, samples, seed):
    """(mean, stderr) of the plain-MC estimate from one row-major draw of all
    samples modulo rotation: particle 0 at the pole, particle 1 on the
    meridian y = 0 at height 2u - 1 (u from one random(samples) call), the
    rest from one standard_normal((samples, N-2, 3)) call normalized by
    np.linalg.norm; weights by _log_d2_row_major."""
    i, j = np.triu_indices(c.n, k=1)
    coupled = c.entries[i, j] != 0.0
    i, j, cij = i[coupled], j[coupled], c.entries[i, j][coupled]
    rng = sphere_mc._philox(seed)
    height = 2.0 * rng.random(samples) - 1.0
    raw = rng.standard_normal((samples, c.n - 2, 3))
    pts = np.zeros((samples, c.n, 3))
    pts[:, 0, 2] = 1.0
    pts[:, 1, 0] = np.sqrt((1.0 - height) * (1.0 + height))
    pts[:, 1, 2] = height
    pts[:, 2:] = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    w = np.concatenate([np.exp(beta * (_log_d2_row_major(chunk, i, j) @ cij))
                        for chunk in np.array_split(pts, 20)])
    batch_means = [np.mean(chunk) for chunk in np.array_split(w, 32)]
    return float(np.mean(w)), float(np.std(batch_means, ddof=1) / math.sqrt(32))


@pytest.mark.parametrize("model", ["plasma_8_8", "sparse_float", "pair", "three_particles"])
def test_estimate_matches_row_major_reference(model):
    if model == "plasma_8_8":
        c, beta = from_charges(ChargeVector((1,) * 8 + (-1,) * 8)), 0.3
    elif model == "sparse_float":
        c, beta = _sparse_float_matrix(), 0.5
    elif model == "pair":
        c, beta = from_matrix([[0, -1], [-1, 0]]), 0.4
    else:
        # particle 2 is the one free point
        c, beta = from_matrix([[0, 0.7, -0.3], [0.7, 0, 0.5], [-0.3, 0.5, 0]]), 0.5
    est = estimate_partition(c, beta, 20_000, seed=9)
    mean, stderr = _row_major_estimate(c, beta, 20_000, seed=9)
    assert abs(est.mean - mean) <= 1e-12 * abs(mean)
    assert abs(est.stderr - stderr) <= 1e-12 * stderr


def test_estimate_without_coupled_pairs_is_exactly_one():
    # no coupled pair: every weight is exp(0) = 1
    est = estimate_partition(from_matrix([[0.0] * 3] * 3), 0.5, 2000, seed=1)
    assert (est.mean, est.stderr, est.heavy_tail) == (1.0, 0.0, False)


@pytest.mark.parametrize("model,k", [("pair", 1023), ("plasma", 1000), ("plasma", -1000)])
def test_estimate_is_invariant_under_power_of_two_coupling_scaling(model, k):
    # (c 2^k, beta 2^-k) has the weights of (c, beta), and the estimator
    # scales c and beta by powers of two, so the estimates agree bit for bit,
    # also where c 2^k log d^2 overflows (the pair at k = 1023, whenever
    # log d^2 < -2); beta 2^-k is exact, a subnormal at k = 1023
    if model == "pair":
        entries, beta = np.array([[0.0, 1.0], [1.0, 0.0]]), 0.375
    else:
        entries, beta = from_charges(ChargeVector((1,) * 8 + (-1,) * 8)).entries, 0.3
    scaled_beta = math.ldexp(beta, -k)
    assert math.ldexp(scaled_beta, k) == beta
    est = estimate_partition(from_matrix(entries.tolist()), beta, 4000, seed=5)
    scaled = estimate_partition(from_matrix(np.ldexp(entries, k).tolist()), scaled_beta, 4000, seed=5)
    assert scaled == est


class _ZeroNormalRows:
    """The draws of ``rng``, except that the first normals buffer filled
    gets zero rows at the given (configuration, particle) places."""

    def __init__(self, rng, zero_rows):
        self.rng = rng
        self.zero_rows = list(zero_rows)

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)

    def standard_normal(self, size=None, out=None):
        g = self.rng.standard_normal(size, out=out)
        if out is not None:
            for config, particle in self.zero_rows:
                g[config, particle] = 0.0
            self.zero_rows = []
        return g


def test_estimate_redraws_zero_normals_in_configuration_particle_order(monkeypatch):
    # zero draws at (configuration 3, particle 2) and (7, 0) of particles
    # 2..4: C order redraws (3, 2) first, particle-then-configuration order
    # would redraw (7, 0) first
    zero_rows = [(7, 0), (3, 2)]
    raw = sphere_mc._philox(4)
    raw.random(1000)
    first = raw.standard_normal((1000, 3, 3))
    redraw = raw.standard_normal((2, 3))
    first[3, 2], first[7, 0] = redraw
    expected = first / np.linalg.norm(first, axis=-1, keepdims=True)

    philox = sphere_mc._philox
    stub = _ZeroNormalRows(philox(4), zero_rows)
    stub.random(1000)
    uniform = sphere_mc._uniform_points(stub, 1000, 3)
    assert np.array_equal(uniform.transpose(2, 1, 0), expected)

    seen = []
    log_d2 = sphere_mc._log_d2

    def spy(x, *args, **kwargs):
        seen.append(x.copy())
        return log_d2(x, *args, **kwargs)

    monkeypatch.setattr(sphere_mc, "_philox", lambda seed: _ZeroNormalRows(philox(seed), zero_rows))
    monkeypatch.setattr(sphere_mc, "_log_d2", spy)
    estimate_partition(from_charges(ChargeVector((1, 1, -1, -1, 1))), 0.2, 1000, seed=4)
    assert len(seen) == 1
    assert np.array_equal(seen[0][:, 2:], uniform)


def test_estimate_memory_is_block_sized():
    # a 20,000-sample estimate on the 8+8 plasma (120 coupled pairs) holds
    # about 1 MB per temporary; one (8192, 120, 3) block of pair differences
    # alone would take 23.6 MB
    c = from_charges(ChargeVector((1,) * 8 + (-1,) * 8))
    estimate_partition(c, 0.15, 1000, seed=1)
    tracemalloc.start()
    try:
        estimate_partition(c, 0.15, 20_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_estimate_from_a_drawn_sample_is_bit_for_bit():
    # one sample weighed at every beta, heavy-tailed ones included, gives
    # each beta's own estimate at that seed
    c = from_charges(ChargeVector((1, 1, -1, -1, 1)))
    sample = sphere_mc.draw_partition(c, 3000, 8)
    for beta in (-0.3, 0.0, 0.2, 0.45):
        assert estimate_partition(c, beta, 3000, 8, sample=sample) == \
            estimate_partition(c, beta, 3000, 8)


@pytest.mark.parametrize("samples,seed,other", [(3000, 9, False), (4000, 8, False),
                                                 (3000, 8, True)],
                         ids=["seed", "samples", "coupling"])
def test_estimate_refuses_a_sample_drawn_for_other_arguments(samples, seed, other):
    c = from_charges(ChargeVector((1, 1, -1, -1, 1)))
    sample = sphere_mc.draw_partition(c, 3000, 8)
    if other:
        c = from_charges(ChargeVector((1, 1, -1, -1, 1)))
    with pytest.raises(ValueError, match="drawn for another"):
        estimate_partition(c, 0.2, samples, seed, sample=sample)


def test_partition_draw_allocates_its_buffers_before_any_draw(monkeypatch):
    # an unaffordable sample fails before it samples: the stand-in for
    # np.empty refuses the second sample-sized buffer (the weights) without
    # allocating either, and the stub generator refuses every draw
    empty = np.empty
    refused = []

    def refuse_samples(shape, *args, **kwargs):
        if np.prod(shape) >= 10**12:
            refused.append(shape)
            if len(refused) == 2:
                raise MemoryError("Unable to allocate 7.28 TiB")
            return empty(0)
        return empty(shape, *args, **kwargs)

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"{name} drawn before the buffers were allocated")

    monkeypatch.setattr(sphere_mc, "_philox", lambda seed: NoDraws())
    monkeypatch.setattr(np, "empty", refuse_samples)
    with pytest.raises(MemoryError):
        sphere_mc.draw_partition(C1, 10**12, 0)
    assert refused == [10**12, 10**12]


def test_oracle_agreement_grid():
    # grid kept inside the finite-variance region (c*beta > -1/2); deeper
    # cells are heavy-tailed and covered by the acceptance criterion instead
    hits = total = 0
    for block, c12 in enumerate((0.5, 1.0, 2.0)):
        c = from_matrix([[0, c12], [c12, 0]])
        grid = np.linspace(-0.45 / c12, 2.0, 5)
        for j, beta in enumerate(grid):
            est = estimate_partition(c, float(beta), 200_000, seed=100 + 10 * block + j)
            expected = analytic_partition_two(c12, float(beta))
            total += 1
            if abs(est.mean - expected) <= 3 * max(est.stderr, 1e-15):
                hits += 1
    assert total == 15 and hits >= 14


# ---------------------------------------------------------------------------
# Pole-order fitting
# ---------------------------------------------------------------------------

def test_pole_fit_analytic_curve():
    betas = [-1.0 + 10.0 ** (-j) for j in range(1, 7)]
    logz = [math.log(analytic_partition_two(1.0, b)) for b in betas]
    slope = pole_order_fit(betas, logz, -1.0)
    assert abs(slope - 1.0) < 0.05


def test_pole_fit_constant_curve():
    betas = [-1.0 + 10.0 ** (-j) for j in range(1, 7)]
    assert abs(pole_order_fit(betas, [4.2] * len(betas), -1.0)) < 1e-12


def test_pole_fit_synthetic_double_pole():
    betas = [-1.0 + 10.0 ** (-j) for j in range(1, 7)]
    logz = [-2.0 * math.log(b + 1.0) + 0.7 for b in betas]
    assert abs(pole_order_fit(betas, logz, -1.0) - 2.0) < 1e-6


def test_pole_fit_product_curve():
    betas = [-1.0 + 10.0 ** (-j) for j in range(1, 7)]
    logz = [2.0 * math.log(analytic_partition_two(1.0, b)) for b in betas]
    assert abs(pole_order_fit(betas, logz, -1.0) - 2.0) < 0.1


def test_pole_fit_grid_validation():
    with pytest.raises(DomainError, match="need >= 5 grid points, got 2"):
        pole_order_fit([-0.9, -0.99], [1.0, 2.0], -1.0)
    with pytest.raises(DomainError, match="grid touches beta_crit"):
        pole_order_fit([-0.5, -0.6, -0.7, -0.8, -1.0], [1, 2, 3, 4, 5], -1.0)
    with pytest.raises(DomainError, match="grid straddles beta_crit"):
        pole_order_fit([-0.5, -1.2, -0.7, -0.8, -0.9], [1, 2, 3, 4, 5], -1.0)
    with pytest.raises(DomainError, match="grid must be sorted strictly toward beta_crit"):
        pole_order_fit([-0.9, -0.8, -0.7, -0.6, -0.5], [1, 2, 3, 4, 5], -1.0)


# ---------------------------------------------------------------------------
# Metropolis chain
# ---------------------------------------------------------------------------

def test_chain_accepts_everything_at_beta_zero():
    params = ChainParams(beta=0.0, steps=3000, burn_in=300, seed=12)
    chain = metropolis_chain(C1, params)
    assert chain.acceptance_rate == 1.0
    assert chain.configurations.shape == (2700, 2, 3)


def test_chain_accepts_zero_delta_moves():
    c = from_matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    params = ChainParams(beta=5.0, steps=2000, burn_in=200, seed=12)
    chain = metropolis_chain(c, params)
    assert chain.acceptance_rate == 1.0  # dE = 0 for every proposal


def test_chain_requires_beta_inside_interval():
    with pytest.raises(DomainError, match=r"beta=-1\.2 not strictly inside"):
        metropolis_chain(C1, ChainParams(beta=-1.2, steps=1000, burn_in=100, seed=1))


def _ratio_with_batch_stderr(values, weights=None, batches=32):
    chunks_v = np.array_split(values, batches)
    if weights is None:
        means = np.array([np.mean(ch) for ch in chunks_v])
    else:
        chunks_w = np.array_split(weights, batches)
        means = np.array([np.sum(v * w) / np.sum(w) for v, w in zip(chunks_v, chunks_w)])
    return float(np.mean(means)), float(np.std(means, ddof=1) / math.sqrt(batches))


def _chain_d2(seed, beta=-0.5, steps=60_000, burn_in=6_000, thin=3):
    params = ChainParams(beta=beta, steps=steps, burn_in=burn_in, thin=thin, seed=seed)
    chain = metropolis_chain(C1, params)
    d2 = np.sum((chain.configurations[:, 0, :] - chain.configurations[:, 1, :]) ** 2, axis=1)
    return _ratio_with_batch_stderr(d2)


def test_chain_matches_direct_reweighted_estimator():
    chain_mean, chain_se = _chain_d2(seed=51)

    pts = sample_uniform(2 * 100_000, seed=52).reshape(100_000, 2, 3)
    d2 = np.sum((pts[:, 0, :] - pts[:, 1, :]) ** 2, axis=1)
    w = d2 ** (-0.5)  # d^(2 c beta) at c=1, beta=-1/2
    direct_mean, direct_se = _ratio_with_batch_stderr(d2, w)

    combined = math.hypot(chain_se, direct_se)
    assert abs(chain_mean - direct_mean) <= 3 * combined
    # analytic value of E[d^2] at s = -1/2 is 4(s+1)/(s+2) = 4/3
    assert abs(chain_mean - 4.0 / 3.0) <= 4 * chain_se


def test_chain_stationarity_across_seeds():
    mean_a, se_a = _chain_d2(seed=61)
    mean_b, se_b = _chain_d2(seed=62)
    assert abs(mean_a - mean_b) <= 4 * math.hypot(se_a, se_b)


def test_chain_auto_tune_freezes_step():
    params = ChainParams(beta=0.9, steps=6000, burn_in=2000, seed=77)
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    chain = metropolis_chain(c, params)
    assert 0.1 <= chain.acceptance_rate <= 0.9
    assert chain.step_size > 0


def _sparse_float_matrix():
    # 7 points, 16 nonzero couplings out of 21 pairs; interval about (-0.41, 1.07)
    rng = np.random.Generator(np.random.Philox(41))
    m = np.triu(rng.standard_normal((7, 7)), 1)
    m[np.triu(rng.random((7, 7)) < 0.4, 1)] = 0.0
    return from_matrix((m + m.T).tolist())


def _assert_energies_match_oracle(c, chain):
    for cfg, e in zip(chain.configurations, chain.energies):
        expected = energy(c, cfg)
        assert abs(e - expected) <= 1e-9 * (1.0 + abs(expected))


@pytest.mark.parametrize("model", ["plasma_4_4", "sparse_float"])
def test_chain_energies_match_energy_oracle(model):
    if model == "plasma_4_4":
        c, beta = from_charges(ChargeVector((1,) * 4 + (-1,) * 4)), 0.6
    else:
        c, beta = _sparse_float_matrix(), 0.5
        assert np.count_nonzero(c.entries == 0.0) > c.n  # some pairs are uncoupled
    chain = metropolis_chain(c, ChainParams(beta=beta, steps=6000, burn_in=500, thin=7, seed=5))
    assert 0.1 < chain.acceptance_rate < 0.9
    _assert_energies_match_oracle(c, chain)


def _reference_chain(c, params):
    """Independent numpy reference for metropolis_chain: the same Philox calls
    in the same order (the (N,3) start normals, then per block of
    _DRAW_BLOCK steps standard_normal((m, 3)) and random(m)), the same
    proposal, norm (x*x + y*y) + z*z, acceptance rule and burn-in tuning.
    Each step recomputes particle i's energy from the points.  Returns the
    configurations, the post-burn-in acceptance rate and the frozen step."""
    rng = sphere_mc._philox(params.seed)
    raw = rng.standard_normal((c.n, 3))
    pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    step = params.step_size
    configs, tune, accepted = [], 0, 0
    for t in range(params.steps):
        if t % sphere_mc._DRAW_BLOCK == 0:
            m = min(sphere_mc._DRAW_BLOCK, params.steps - t)
            normals, uniforms = rng.standard_normal((m, 3)), rng.random(m)
        i = t % c.n
        proposal = pts[i] + step * normals[t % sphere_mc._DRAW_BLOCK]
        u = uniforms[t % sphere_mc._DRAW_BLOCK]
        x, y, z = proposal
        norm = math.sqrt((x * x + y * y) + z * z)
        accept = False
        if norm > 0.0:
            proposal = proposal / norm
            partners = np.flatnonzero(c.entries[i])
            w = c.entries[i, partners]
            d2_new = np.sum((pts[partners] - proposal) ** 2, axis=1)
            if np.all(d2_new > 0.0):
                with np.errstate(divide="ignore", invalid="ignore"):
                    e_old = -np.sum(w * np.log(np.sum((pts[partners] - pts[i]) ** 2, axis=1)))
                e_new = -np.sum(w * np.log(d2_new))
                accept = (not np.isfinite(e_old) or params.beta * (e_new - e_old) <= 0.0
                          or u < math.exp(-params.beta * (e_new - e_old)))
        if accept:
            pts[i] = proposal
        if t < params.burn_in:
            tune += accept
            if (t + 1) % sphere_mc._TUNE_WINDOW == 0:
                if tune > 0.5 * sphere_mc._TUNE_WINDOW:
                    step = min(step * sphere_mc._TUNE_FACTOR, sphere_mc._STEP_MAX)
                elif tune < 0.3 * sphere_mc._TUNE_WINDOW:
                    step = max(step / sphere_mc._TUNE_FACTOR, sphere_mc._STEP_MIN)
                tune = 0
        else:
            accepted += accept
            if (t - params.burn_in) % params.thin == 0:
                configs.append(pts.copy())
    return np.array(configs), accepted / (params.steps - params.burn_in), step


def _assert_chain_matches_reference(c, params):
    chain = metropolis_chain(c, params)
    configs, rate, step = _reference_chain(c, params)
    assert chain.configurations.shape == configs.shape
    assert np.max(np.abs(chain.configurations - configs)) <= 1e-12
    assert chain.acceptance_rate == rate
    assert chain.step_size == step
    assert 0.0 < rate < 1.0


@pytest.mark.parametrize("model", ["pair", "plasma_4_4", "sparse_float", "plasma_13_13"])
def test_chain_matches_reference_step_for_step(model):
    if model == "pair":
        c, beta = C1, 0.5
    elif model == "sparse_float":
        c, beta = _sparse_float_matrix(), 0.5
    else:
        k = 4 if model == "plasma_4_4" else 13  # 13 + 13 = 26, the solver's cap
        c, beta = from_charges(ChargeVector((1,) * k + (-1,) * k)), 0.5
    _assert_chain_matches_reference(c, ChainParams(beta=beta, steps=3000, burn_in=1000,
                                                   thin=7, seed=23))


def test_chain_matches_reference_across_draw_blocks():
    # three blocks, the last one short; burn-in ends inside the first block
    # and thin 7 does not divide the block, so emissions straddle both seams
    block = sphere_mc._DRAW_BLOCK
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    params = ChainParams(beta=0.6, steps=2 * block + 123, burn_in=block // 2 + 3, thin=7, seed=29)
    assert block % params.thin != 0 and params.burn_in % block != 0
    _assert_chain_matches_reference(c, params)


def test_chain_memory_is_block_sized(monkeypatch):
    # a chain of 50 blocks draws one block at a time: the (m, 3) normals and
    # m uniforms as lists take about 200 bytes a step, so drawing the whole
    # chain at once would hold 1.3 MB here.  tracemalloc slows a step about
    # 40 times, so the block is cut to 128 steps for this test.
    monkeypatch.setattr(sphere_mc, "_DRAW_BLOCK", 128)
    params = ChainParams(beta=0.5, steps=50 * 128, burn_in=100, thin=1000, seed=4)
    metropolis_chain(C1, ChainParams(beta=0.5, steps=300, burn_in=100, seed=3))
    tracemalloc.start()
    try:
        chain = metropolis_chain(C1, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.configurations.shape == (7, 2, 3)
    assert peak < chain.configurations.nbytes + 250_000


class _StubChainGenerator:
    """A generator for a chain: the given standard normals in order, one
    (m, 3) block per call, and uniforms of 0, so only the rejection rules
    can refuse a move."""

    def __init__(self, *normals):
        self.normals = [tuple(map(float, g)) for g in normals]

    def standard_normal(self, shape):
        m, three = shape
        assert three == 3 and m <= len(self.normals)
        block, self.normals = self.normals[:m], self.normals[m:]
        return np.array(block)

    def random(self, m):
        return np.zeros(m)


_PAIR_START = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _stub_pair_chain(monkeypatch, *normals):
    """A chain on the pair that starts at p0 = (1,0,0), p1 = (0,1,0) with
    step 0.5 and draws the given normals; returns the chain and the stub."""
    monkeypatch.setattr(sphere_mc, "_uniform_points",
                        lambda rng, b, n: _PAIR_START.T[:, :, None].copy())
    rng = _StubChainGenerator(*normals)
    monkeypatch.setattr(sphere_mc, "_philox", lambda seed: rng)
    params = ChainParams(beta=0.5, steps=len(normals), burn_in=0, step_size=0.5)
    return metropolis_chain(C1, params), rng


def test_chain_rejects_moves_onto_a_partner_and_of_norm_zero(monkeypatch):
    # step 0 proposes p0 + (-1,1,0) = p1, step 1 proposes p1 + (1,-1,0) = p0,
    # step 2 proposes p0 + (-1,0,0) = 0, which has no direction
    chain, rng = _stub_pair_chain(monkeypatch, (-2, 2, 0), (2, -2, 0), (-2, 0, 0))
    assert rng.normals == []
    assert chain.acceptance_rate == 0.0
    assert np.array_equal(chain.configurations, np.stack([_PAIR_START] * 3))
    assert np.all(np.isfinite(chain.energies))
    assert np.allclose(chain.energies, -math.log(2.0))


def test_chain_proposal_norm_is_plain_float_arithmetic(monkeypatch):
    # for this draw the normalised proposal changes in its last bits when the
    # squares are summed as x*x + (y*y + z*z), as (x*x + z*z) + y*y, or with
    # fused multiply-adds as a BLAS dot product may
    g = (-0.48, -0.72, -0.52)
    chain, _ = _stub_pair_chain(monkeypatch, g)
    x, y, z = 1.0 + 0.5 * g[0], 0.5 * g[1], 0.5 * g[2]
    norm = math.sqrt((x * x + y * y) + z * z)
    assert chain.acceptance_rate == 1.0
    assert chain.configurations[0, 0].tolist() == [x / norm, y / norm, z / norm]


def test_chain_redraws_a_coincident_start(monkeypatch):
    # particles 0 and 2 carry opposite charges and the first start puts them
    # at one point (log d^2 = -inf); the chain draws a second start and runs
    # from that one
    plasma = from_charges(ChargeVector((1, 1, -1, -1)))
    uniform_points = sphere_mc._uniform_points
    starts = []

    def coincident_first(rng, b, n):
        x = uniform_points(rng, b, n)
        if not starts:
            x[:, 2] = x[:, 0]
        starts.append(x[..., 0].T.copy())
        return x

    monkeypatch.setattr(sphere_mc, "_uniform_points", coincident_first)
    chain = metropolis_chain(plasma, ChainParams(beta=0.5, steps=2000, burn_in=0, seed=3))
    assert len(starts) == 2
    first, second = starts
    with pytest.raises(DomainError, match="coincide"):
        energy(plasma, first)
    # step 0 moves particle 0, and only particle 0
    assert np.array_equal(chain.configurations[0, 1:], second[1:])
    assert np.all(np.isfinite(chain.energies))
    _assert_energies_match_oracle(plasma, chain)


def test_chain_allocates_its_outputs_before_any_draw(monkeypatch):
    # an unaffordable chain fails before it samples: the stand-in for np.empty
    # refuses the outputs without allocating them, and the stub generator
    # has no normals to give
    empty = np.empty

    def refuse_outputs(shape, *args, **kwargs):
        if np.prod(shape) >= 10**12:
            raise MemoryError("Unable to allocate 44.4 TiB")
        return empty(shape, *args, **kwargs)

    rng = _StubChainGenerator()
    monkeypatch.setattr(sphere_mc, "_philox", lambda seed: rng)
    monkeypatch.setattr(np, "empty", refuse_outputs)
    with pytest.raises(MemoryError):
        metropolis_chain(C1, ChainParams(beta=0.5, steps=10**12, burn_in=0))


def _root_m_ks(sample, cdf):
    """sqrt(m) * KS distance between m samples and a continuous CDF."""
    x = np.sort(sample)
    m = x.size
    f = cdf(x)
    return math.sqrt(m) * max(np.max(np.arange(1, m + 1) / m - f), np.max(f - np.arange(m) / m))


def _pair_u(chain):
    """u = d^2/4 for particles 0 and 1 of each emitted configuration."""
    pairs = chain.configurations
    return np.sum((pairs[:, 0, :] - pairs[:, 1, :]) ** 2, axis=1) / 4.0


def _pair_ks_statistic(beta_run, beta_law, seed):
    """sqrt(m) * KS distance between a thinned N=2 chain's d^2/4 and the
    exact law at beta_law: for c = 1, d^2/4 ~ Beta(beta+1, 1), CDF x^(beta+1)."""
    params = ChainParams(beta=beta_run, steps=82_000, burn_in=2_000, thin=40, seed=seed)
    return _root_m_ks(_pair_u(metropolis_chain(C1, params)), lambda x: x ** (beta_law + 1.0))


@pytest.mark.parametrize("beta", [-0.5, 0.5])
def test_chain_pair_distance_follows_exact_beta_law(beta):
    # 2,000 samples 40 steps apart are close to independent; 1.95 is the
    # Kolmogorov critical value at level 0.001
    assert _pair_ks_statistic(beta, beta, seed=10) < 1.95


@pytest.mark.xfail(strict=True, reason="the fixed-size random-walk step rarely proposes a "
                   "move closer than the current distance, so the chain misses the "
                   "collapse scales near beta+ (KS distance 0.221)")
def test_chain_pair_distance_follows_exact_beta_law_near_beta_plus():
    # c = -1 at beta = 0.9, beta+ = 1: d^2/4 ~ Beta(1 - beta, 1), CDF x^(1-beta)
    c = from_matrix([[0, -1], [-1, 0]])
    chain = metropolis_chain(c, ChainParams(beta=0.9, steps=200_000, burn_in=20_000, seed=1))
    u = _pair_u(chain)
    assert _root_m_ks(u, lambda x: x ** 0.1) / math.sqrt(u.size) <= 0.02


# ---------------------------------------------------------------------------
# Exact three-particle oracle, by quadrature
# ---------------------------------------------------------------------------

def test_three_particle_oracle_exact_values():
    # all couplings 1 at beta = 1: E[d12^2 d13^2 d23^2] = 8 (1 - E[x12 x13 x23])
    # = 8 (1 - 1/9), with x the inner products; one coupled pair is the N=2 law
    assert three_particle_partition(1, 1, 1, 1.0) == pytest.approx(64 / 9, rel=1e-13)
    assert three_particle_partition(1, 0, 0, 0.5) == pytest.approx(4 / 3, rel=1e-13)
    for c12, beta in ((1.0, 0.5), (-1.0, 0.95), (2.0, -0.45)):
        pair = analytic_partition_two(c12, beta)
        for couplings in ((c12, 0, 0), (0, c12, 0), (0, 0, c12)):
            assert three_particle_partition(*couplings, beta) == pytest.approx(pair, rel=1e-11)


def test_three_particle_oracle_near_the_logarithmic_collision():
    # at s = beta c23 = -1/2 the collision term turns logarithmic, and near
    # it the connection formula's two terms grow as 1/(1+2s) and cancel;
    # one coupled pair is the N=2 law 4^beta / (1 + beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for beta in (-0.4999, -0.50001, -0.499, -0.5):
            assert three_particle_partition(0, 0, 1, beta) == pytest.approx(
                4 ** beta / (1 + beta), rel=1e-12)


def test_three_particle_oracle_factorises_and_is_symmetric():
    # c23 = 0: given p1, p2 and p3 are independent, so Z is a product of
    # pair laws; any relabelling of the particles permutes the couplings
    assert three_particle_partition(1, -1, 0, 0.9) == pytest.approx(
        analytic_partition_two(1, 0.9) * analytic_partition_two(-1, 0.9), rel=1e-11)
    for couplings, beta in (((1, 2, 2), -0.15), ((-2, -2, 1), 0.45), ((1, 1, 1), -0.6)):
        values = {three_particle_partition(*p, beta) for p in itertools.permutations(couplings)}
        assert max(values) == pytest.approx(min(values), rel=1e-11)


def test_three_particle_oracle_near_beta_plus():
    # charges (2, -1, -1): the pairs {1,2} and {1,3} blow up together at
    # beta+ = 1/2.  Each gives the pair law 4^(-2 beta) / (1 - 2 beta) ~ 1/(8d)
    # at d = 1/2 - beta, times E[1/d13] = 1 with p2 at p1, so Z*d -> 1/4
    values = [three_particle_partition(-2, -2, 1, 0.5 - d) * d for d in (1e-2, 1e-3, 1e-4)]
    assert values == pytest.approx([0.2457985, 0.2495439, 0.2499540], abs=1e-6)
    assert values[0] < values[1] < values[2] < 0.25


def test_three_particle_oracle_refuses_beta_outside_the_interval():
    for couplings, beta in (((1, 1, 1), -1.0), ((1, 1, 1), -2 / 3), ((-2, -2, 1), 0.5)):
        with pytest.raises(DomainError):
            three_particle_partition(*couplings, beta)


@pytest.mark.parametrize("couplings,beta,seed", [((1, 1, 1), 0.5, 3), ((1, 2, 2), -0.15, 4)])
def test_estimate_matches_three_particle_oracle(couplings, beta, seed):
    c12, c13, c23 = couplings
    c = from_matrix([[0, c12, c13], [c12, 0, c23], [c13, c23, 0]])
    est = estimate_partition(c, beta, 200_000, seed=seed)
    assert not est.heavy_tail
    assert abs(est.mean - three_particle_partition(*couplings, beta)) <= 4 * est.stderr


# ---------------------------------------------------------------------------
# Exact N-particle oracle: equal unit charges at beta = 1
# ---------------------------------------------------------------------------
# With all c_ij = 1 and beta = 1 the Gibbs measure is the spherical ensemble.
# Stereographic projection and Andreief's identity give Z_N in closed form,
# and one pair's u = d^2/4 has density N/(N-1) * (1 - (1-u)^(N-1)) (Caillol
# 1981; Krishnapur 2009).  2 beta = 2 lies inside (-2/N, inf), so plain MC
# has finite variance here.

def _spherical_ensemble_z(n):
    """Z_N = 4^(N(N-1)/2) * prod_{k<N} k!(N-1-k)! / (N!)^(N-1)."""
    prod = math.prod(math.factorial(k) * math.factorial(n - 1 - k) for k in range(n))
    return 4.0 ** (n * (n - 1) // 2) * prod / math.factorial(n) ** (n - 1)


def _unit_charges(n):
    return from_charges(ChargeVector((1,) * n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_estimate_matches_spherical_ensemble_partition(n):
    est = estimate_partition(_unit_charges(n), 1.0, 200_000, seed=7)
    assert not est.heavy_tail
    assert abs(est.mean - _spherical_ensemble_z(n)) < 4 * est.stderr


@pytest.mark.parametrize("n", [3, 5, 8])
def test_chain_pair_distance_follows_spherical_ensemble_law(n):
    # four chains; the exact CDF is F(u) = N/(N-1) u - (1 - (1-u)^N)/(N-1)
    c = _unit_charges(n)
    u = np.concatenate([_pair_u(metropolis_chain(c, ChainParams(
        beta=1.0, steps=60_000, burn_in=2_000, thin=20, seed=seed))) for seed in range(4)])
    assert _root_m_ks(u, lambda x: n / (n - 1) * x - (1.0 - (1.0 - x) ** n) / (n - 1)) < 1.95


# ---------------------------------------------------------------------------
# Collapse observables
# ---------------------------------------------------------------------------

def test_collapse_all_identical_points():
    one = np.array([[0.0, 0.0, 1.0]] * 3)
    samples = np.stack([one] * 40)
    stats = collapse_observables(samples, [0, 0, 1])
    assert stats.min_opposite_quantiles == (0.0,) * 5
    assert stats.min_same_quantiles == (0.0,) * 5
    assert stats.max_quantiles == (0.0,) * 5


def test_collapse_single_class_has_no_opposite():
    samples = sample_uniform(4, seed=5)[None, :, :]
    stats = collapse_observables(samples, [0, 0, 0, 0])
    assert stats.min_opposite_quantiles is None
    assert stats.min_same_quantiles is not None
    assert all(0.0 <= q <= 2.0 for q in stats.max_quantiles)


def test_collapse_empty_sample():
    with pytest.raises(DomainError, match=r"need a nonempty \(M,N,3\) sample array"):
        collapse_observables(np.zeros((0, 2, 3)), [0, 1])


def _collapse_row_major(samples, labels):
    """Row-major reference for collapse_observables: every pair distance of
    every sample at once, as sqrt(sum(diffs * diffs, axis=-1))."""
    labels = np.asarray(labels)
    i, j = np.triu_indices(samples.shape[1], k=1)
    diffs = samples[:, i, :] - samples[:, j, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    opposite = labels[i] != labels[j]
    levels = sphere_mc.QUANTILE_LEVELS
    return (np.percentile(np.min(dists[:, opposite], axis=1), levels) if opposite.any() else None,
            np.percentile(np.min(dists[:, ~opposite], axis=1), levels) if not opposite.all() else None,
            np.percentile(np.max(dists, axis=1), levels))


def _assert_collapse_equal(stats, expected):
    got = (stats.min_opposite_quantiles, stats.min_same_quantiles, stats.max_quantiles)
    for g, e in zip(got, expected):
        assert (g is None) == (e is None)
        if e is not None:
            assert np.array_equal(g, e)


@pytest.mark.parametrize("labels", [[0, 1, 0, 1, 1], [0, 1, 2, 3, 4], [7] * 5])
def test_collapse_matches_row_major_reference(labels):
    rng = np.random.Generator(np.random.Philox(31))
    # unnormalised points of mixed magnitudes, so a different summation order shows
    samples = rng.standard_normal((500, 5, 3)) * np.exp(3.0 * rng.standard_normal((500, 5, 3)))
    _assert_collapse_equal(collapse_observables(samples, labels), _collapse_row_major(samples, labels))


def test_collapse_memory_is_block_sized():
    # 14,000 samples of 18 particles (6.0 MB): the row-major (M, 153, 3)
    # pair differences alone would take 51 MB
    rng = np.random.Generator(np.random.Philox(32))
    samples = rng.standard_normal((14_000, 18, 3))
    labels = [0] * 9 + [1] * 9
    tracemalloc.start()
    try:
        stats = collapse_observables(samples, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * samples.nbytes
    _assert_collapse_equal(stats, _collapse_row_major(samples, labels))
