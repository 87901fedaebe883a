"""Monte Carlo verification layer on (S^2)^N.

Energy evaluation with chordal distances, plain Monte Carlo estimation of
the partition function against the analytic two-particle closed form,
least-squares pole-order fitting of the free-energy divergence, and a
single-particle Metropolis sampler of the Gibbs measure with collapse
observables.

``energy``, the partition estimator, the chain start and the collapse
observables share one pair helper, ``_d2`` (``_log_d2`` takes its log),
over coordinate-major points: x[k, ..., p] is coordinate k of particle p,
so each coordinate of a pair difference is one contiguous row and the
squares are summed with two array additions, not a reduction over an axis
of length 3.  ``_uniform_points`` draws configurations in that layout.
The partition estimator samples configurations modulo rotation, as
``_rotation_classes`` lays them out: particle 0 at the pole, particle 1 on
a meridian at a uniform height, particles 2..N-1 uniform.  The weight
depends only on pair distances, so its law is unchanged, and a sample
costs N-2 free points and one uniform instead of N free points.
The partition estimator and ``collapse_observables`` work in blocks of
``_BLOCK_FLOATS // (3 * max(pairs, N))`` configurations, so each (3, block,
pairs) temporary holds about 2^17 floats (1 MB) whatever N is.

A chain draws its start, again while a coupled pair coincides (probability
zero, as ``_uniform_points`` redraws a zero row), so its (N,N) table of
log d^2 over coupled pairs, built once, never holds -inf.  It steps in plain
Python floats: it draws its randomness in blocks of ``_DRAW_BLOCK`` steps
(two generator calls per block), so a step costs one loop over the moved
particle's partners, not a dozen numpy calls on 3-vectors and short rows.
Every chain first solves its interval, so N <= 26 (the solver's cap); over
that whole range the float step beats a numpy step on 3-vectors and rows
(measured about 2x at N = 26 and 3-4x at N = 4 and 8), so it is the only
step.

All randomness comes from numpy's Philox counter-based generator with
explicit seeds.  Chordal distances are plain Euclidean norms in R^3; no
stereographic chart is used anywhere.

This module does no I/O: it returns estimates, chains and quantiles, and
``cli`` turns a sweep of them into CSV text and writes the file.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coupling import CouplingMatrix, _philox
from .errors import DomainError
from .solver import critical_interval  # noqa: F401  re-exported: sphere_mc.critical_interval
from .solver import endpoints, solve_both

_BATCHES = 32
_TUNE_WINDOW = 200
_TUNE_FACTOR = 1.25
_STEP_MIN, _STEP_MAX = 1e-3, 4.0
# floats per partition-estimator temporary; the plasma weights were checked
# bit-identical to one-shot row-major weights at this budget, and matmul
# rounding can depend on the block's row count
_BLOCK_FLOATS = 1 << 17
# chain steps per block of generator draws: a block's normals and uniforms
# take about 0.1 MB as Python lists, and 4096-step blocks raised the
# mc_gibbs workload's peak RSS by 1.8 MB without running faster
_DRAW_BLOCK = 512


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    heavy_tail: bool


@dataclass(frozen=True)
class ChainParams:
    """Metropolis chain parameters.

    ``steps`` counts single-particle update attempts including burn-in;
    post-burn-in states are emitted every ``thin`` steps.  The proposal
    scale starts at ``step_size``, is adapted toward 30-50% acceptance
    during burn-in and is frozen afterwards."""

    beta: float
    steps: int
    burn_in: int
    thin: int = 1
    step_size: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.burn_in < self.steps):
            raise ValueError("need 0 <= burn_in < steps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")


@dataclass(frozen=True)
class ChainResult:
    configurations: np.ndarray  # (M, N, 3)
    energies: np.ndarray  # (M,)
    acceptance_rate: float  # post-burn-in
    step_size: float  # frozen value actually used after burn-in


QUANTILE_LEVELS = (5, 25, 50, 75, 95)


@dataclass(frozen=True)
class CollapseStats:
    """Quantiles (5/25/50/75/95%) of per-sample pair-distance extremes."""

    min_opposite_quantiles: Optional[tuple]  # None when a single class
    min_same_quantiles: Optional[tuple]  # None when all classes are singletons
    max_quantiles: tuple


def _uniform_points(rng: np.random.Generator, b: int, n: int) -> np.ndarray:
    """b configurations of n uniform points on S^2, coordinate-major (3, b, n).

    The (b, n, 3) standard normals are drawn in C order, point after point,
    and normalised in one contiguous coordinate-major copy.  A zero draw
    (probability zero) is replaced by fresh normals, in the same C order."""
    x = rng.standard_normal((b, n, 3)).transpose(2, 0, 1).copy()

    def norms():
        # (x^2 + y^2) + z^2, as np.linalg.norm over a last axis of three
        return np.sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2])

    r = norms()
    while not r.all():  # probability-zero guard
        zero = r == 0.0
        x[:, zero] = rng.standard_normal((int(np.sum(zero)), 3)).T
        r = norms()
    x /= r
    return x


def _rotation_classes(rng: np.random.Generator, u: np.ndarray, n: int) -> np.ndarray:
    """One configuration of n points per rotation class, coordinate-major
    (3, u.size, n): particle 0 at the pole (0, 0, 1), particle 1 on the
    meridian y = 0 at height z = 2u - 1, particles 2..n-1 from
    ``_uniform_points``.

    A function of the pair distances has the same law on these as on n
    uniform points: a rotation takes particle 0 to the pole and then
    particle 1 onto the meridian, and the height of a uniform point is
    uniform on [-1, 1] (Archimedes)."""
    z = 2.0 * u - 1.0
    x = np.empty((3, u.size, n))
    x[:, :, 0] = ((0.0,), (0.0,), (1.0,))
    x[0, :, 1] = np.sqrt((1.0 - z) * (1.0 + z))
    x[1, :, 1] = 0.0
    x[2, :, 1] = z
    x[:, :, 2:] = _uniform_points(rng, u.size, n - 2)
    return x


def _block(pairs: int, n: int) -> int:
    """Configurations per block, so that each coordinate-major (3, block,
    pairs) temporary holds about _BLOCK_FLOATS floats (1 MB) whatever n is."""
    return max(1, _BLOCK_FLOATS // (3 * max(pairs, n)))


def _d2(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """d(p_i, p_j)^2 for index arrays i, j over the particle axis of
    coordinate-major (3, ..., N) points.

    The squares are summed as (dx^2 + dy^2) + dz^2, the order numpy's sum
    over a last axis of three uses, so the result is bit-identical to the
    row-major ``sum(diffs * diffs, axis=-1)``."""
    d = x[..., i]
    d -= x[..., j]
    d *= d
    s = d[0] + d[1]
    s += d[2]
    return s


def _log_d2(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """log d(p_i, p_j)^2 over coordinate-major points, as ``_d2``; -inf where
    two points coincide."""
    s = _d2(x, i, j)
    with np.errstate(divide="ignore"):
        return np.log(s, out=s)


def _coupled_pairs(c: CouplingMatrix):
    """Pairs i < j with c(i,j) != 0, as index arrays, and their couplings."""
    iu = np.triu_indices(c.n, k=1)
    cij = c.entries[iu]
    coupled = cij != 0.0
    return iu[0][coupled], iu[1][coupled], cij[coupled]


def energy(c: CouplingMatrix, points: np.ndarray) -> float:
    """E = -sum_{i<j} c(i,j) log d(p_i,p_j)^2 for an (N,3) array of points,
    chordal distance in R^3."""
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N,3) array, got {points.shape}")
    if points.shape[0] != c.n:
        raise ValueError(f"configuration has {points.shape[0]} points, matrix has n={c.n}")
    rows, cols, cij = _coupled_pairs(c)
    logd2 = _log_d2(points.T, rows, cols)
    bad = np.isneginf(logd2)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainError(f"particles {rows[k]} and {cols[k]} coincide")
    return float(-np.sum(cij * logd2))


def analytic_partition_two(c12: float, beta: float) -> float:
    """Exact two-particle partition function 2^(2*c12*beta)/(c12*beta + 1).

    Equals the normalized integral of d(p,q)^(2*c12*beta) over two uniform
    points; finite exactly for c12*beta > -1."""
    s = float(c12) * float(beta)
    if s <= -1.0:
        raise DomainError(f"c*beta = {s} is <= -1")
    return 2.0 ** (2.0 * s) / (s + 1.0)


def _interval(c: CouplingMatrix, betas: Sequence[float]):
    """(beta-, beta+) of ``c`` as floats, from one ``solve_both``; a
    DomainError for the first of ``betas``, in order, not strictly inside."""
    lo, hi = (float(b) for b in endpoints(*solve_both(c)))
    for beta in betas:
        if not (lo < beta < hi):
            raise DomainError(f"beta={beta} not strictly inside ({lo}, {hi})")
    return lo, hi


def estimate_partition(c: CouplingMatrix, beta: float, samples: int, seed: int) -> MCEstimate:
    """Plain Monte Carlo average of prod d^(2 c beta) over uniform draws,
    one configuration per rotation class (``_rotation_classes``).

    Draws: one ``random(samples)`` call for particle 1's heights, then per
    block of b configurations one ``standard_normal((b, N-2, 3))`` call for
    particles 2..N-1; the heights sit in the weights array until their
    block's weights overwrite them.  A sample costs N-2 free points and one
    uniform, and the weights have the same law as on N free points.

    Standard error by 32 batch means.  The weight's second moment is
    E[w^2] = Z(2 beta), so the heavy-tail flag marks exactly the beta with
    2 beta outside (beta-, beta+): there the weights have infinite variance
    and the reported stderr is only indicative.  The moments are taken of
    the weights scaled by a power of two, so every Z that fits in a float
    is estimated; a mean or stderr that overflows even so (Z itself is
    beyond the float range), or a mean that underflows to 0, is a
    DomainError."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    lo, hi = _interval(c, [beta])

    rows, cols, cij = _coupled_pairs(c)
    rng = _philox(seed)
    # 364 configurations on the 8+8 plasma, 21,845 on a pair
    block = _block(rows.size, c.n)
    weights = np.empty(samples, dtype=float)
    rng.random(samples, out=weights)  # particle 1's heights, overwritten block by block
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, samples, block):
            w = weights[start:start + block]
            np.matmul(_log_d2(_rotation_classes(rng, w, c.n), rows, cols), cij, out=w)
            w *= beta
            np.exp(w, out=w)

        # the moments of w / 2^e, e the binary exponent of the largest weight,
        # scaled back by 2^e: a power of two rounds only a subnormal result
        e = math.frexp(float(weights.max()))[1]
        np.ldexp(weights, -e, out=weights)
        batch_means = np.array([np.mean(chunk) for chunk in np.array_split(weights, _BATCHES)])
        mean = float(np.ldexp(np.mean(weights), e))
        stderr = float(np.ldexp(np.std(batch_means, ddof=1) / math.sqrt(_BATCHES), e))
    if not (0 < mean < math.inf and stderr < math.inf):
        raise DomainError(f"beta={beta:g}: the weights overflow or vanish in float "
                          f"(mean {mean:g}, stderr {stderr:g})")
    heavy = not (lo < 2.0 * beta < hi)
    return MCEstimate(mean, stderr, samples, heavy)


def pole_order_fit(betas: Sequence[float], logz: Sequence[float], beta_crit: float) -> float:
    """Least-squares slope of log Z against -log|beta - beta_crit|.

    For Z ~ A (beta-beta_crit)^(-kappa) the slope is the pole order kappa.
    The grid must have >= 5 points on one side of beta_crit, ordered
    strictly toward it."""
    b = np.asarray(list(betas), dtype=float)
    y = np.asarray(list(logz), dtype=float)
    if b.shape != y.shape or b.ndim != 1:
        raise DomainError("betas and logZ must be 1D of equal length")
    if b.size < 5:
        raise DomainError(f"need >= 5 grid points, got {b.size}")
    delta = b - beta_crit
    if np.any(delta == 0.0):
        raise DomainError("grid touches beta_crit")
    if not (np.all(delta > 0) or np.all(delta < 0)):
        raise DomainError("grid straddles beta_crit")
    dist = np.abs(delta)
    if not np.all(np.diff(dist) < 0):
        raise DomainError("grid must be sorted strictly toward beta_crit")
    x = -np.log(dist)
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def metropolis_chain(c: CouplingMatrix, params: ChainParams) -> ChainResult:
    """Single-particle Metropolis sampling of the Gibbs measure.

    Proposals project p_i + step * g (g a 3D standard normal) back to the
    sphere; the induced kernel depends only on chord distance so it is
    symmetric and min(1, exp(-beta dE)) is the correct acceptance rule.
    Particles are updated in a fixed cyclic order.  Acceptance is reported
    over post-burn-in steps.

    Draws: the (N,3) start normals, again while a coupled pair coincides,
    then per block of m = min(_DRAW_BLOCK, steps - t) steps one
    ``standard_normal((m, 3))`` and one ``random(m)`` call.  Step t uses
    normal row t and uniform t of its block, whether or not its proposal is
    rejected, so a seed gives the same chain on every run.  The outputs are
    allocated before the first draw, so an unaffordable ``steps`` fails
    before any sampling.

    The step is plain Python float arithmetic: the points are a list of
    (x, y, z) tuples, the log d^2 table over coupled pairs a list of lists,
    and each particle keeps a list of its (j, c_ij) partners.  One loop over
    particle i's partners sums e_new and e_old and collects the proposal's
    row; an accepted move writes that row into row i and column i.  The
    proposal's norm is sqrt((x*x + y*y) + z*z) in plain IEEE arithmetic, so
    chains do not depend on how a BLAS kernel fuses a dot product.  The
    interval solve caps n at 26, and at n <= 26 a loop over at most 25
    partners costs less than numpy calls on 3-vectors and short rows, so
    there is no numpy step.  A proposal of norm 0 is rejected, and so is
    one that lands on a coupled partner (d^2 = 0).  Invariant: the log d^2
    table never holds -inf.  The start redraw sets it up and that rejection
    keeps it (a new move must keep it too), so one acceptance rule serves
    every step and the energy, summed once at the start, is a running sum."""
    _interval(c, [params.beta])

    steps, burn_in, thin, beta = params.steps, params.burn_in, params.thin, params.beta
    n = c.n
    emitted = -(-(steps - burn_in) // thin)
    configs = np.empty((emitted, n, 3))
    energies = np.empty(emitted)
    # an emission copies the flat points into its row of configs
    config_rows = memoryview(configs.reshape(-1))
    energy_rows = memoryview(energies)

    rng = _philox(params.seed)
    rows, cols, cij = _coupled_pairs(c)
    while True:
        x = _uniform_points(rng, 1, n)[:, 0]
        start_logd2 = _log_d2(x, rows, cols)
        if not np.isneginf(start_logd2).any():
            break
    table = np.zeros((n, n))
    table[rows, cols] = table[cols, rows] = start_logd2
    table = table.tolist()
    pts = list(zip(*x.tolist()))
    flat = array("d", x.T.ravel())  # pts as one buffer: an emission is one copy
    partners = [[(j, w) for j, w in enumerate(row) if w != 0.0] for row in c.entries.tolist()]

    total_energy = float(-np.sum(cij * start_logd2))
    step = params.step_size
    accepted_tune = 0
    accepted_main = 0
    emit_at = burn_in  # the next step whose state is emitted
    k = 0  # and its row in configs

    for start in range(0, steps, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, steps - start)
        normals = rng.standard_normal((m, 3)).tolist()
        uniforms = rng.random(m).tolist()
        for t, (gx, gy, gz), u in zip(range(start, start + m), normals, uniforms):
            i = t % n
            px, py, pz = pts[i]
            px += step * gx
            py += step * gy
            pz += step * gz
            norm = math.sqrt((px * px + py * py) + pz * pz)
            accept = False
            if norm > 0.0:
                px /= norm
                py /= norm
                pz /= norm
                row = table[i]
                new_row = []
                e_new = e_old = 0.0
                for j, w in partners[i]:
                    qx, qy, qz = pts[j]
                    dx = qx - px
                    dy = qy - py
                    dz = qz - pz
                    d2 = (dx * dx + dy * dy) + dz * dz
                    if d2 == 0.0:  # a proposal onto a coupled particle is rejected
                        break
                    logd2 = math.log(d2)
                    new_row.append(logd2)
                    e_new -= w * logd2
                    e_old -= w * row[j]
                else:
                    log_alpha = -beta * (e_new - e_old)
                    accept = log_alpha >= 0.0 or u < math.exp(log_alpha)
                    if accept:
                        pts[i] = (px, py, pz)
                        flat[3 * i:3 * i + 3] = array("d", pts[i])
                        for (j, _), logd2 in zip(partners[i], new_row):
                            row[j] = table[j][i] = logd2
                        total_energy += e_new - e_old

            if t < burn_in:
                if accept:
                    accepted_tune += 1
                if (t + 1) % _TUNE_WINDOW == 0:
                    rate = accepted_tune / _TUNE_WINDOW
                    if rate > 0.5:
                        step = min(step * _TUNE_FACTOR, _STEP_MAX)
                    elif rate < 0.3:
                        step = max(step / _TUNE_FACTOR, _STEP_MIN)
                    accepted_tune = 0
            else:
                if accept:
                    accepted_main += 1
                if t == emit_at:
                    config_rows[3 * n * k:3 * n * (k + 1)] = flat
                    energy_rows[k] = total_energy
                    emit_at += thin
                    k += 1

    rate = accepted_main / (steps - burn_in)
    return ChainResult(
        configurations=configs,
        energies=energies,
        acceptance_rate=rate,
        step_size=step,
    )


def collapse_observables(samples: np.ndarray, labels: Sequence[int]) -> CollapseStats:
    """Distance-quantile summary of sampled configurations.

    ``labels`` assigns each particle a class (charge sign or species); the
    per-sample observables are the minimum opposite-class distance, minimum
    same-class distance, and maximum pair distance."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[0] == 0:
        raise DomainError("need a nonempty (M,N,3) sample array")
    n = samples.shape[1]
    labels = np.asarray(list(labels))
    if labels.shape != (n,):
        raise ValueError(f"need {n} class labels, got {labels.shape}")

    i, j = np.triu_indices(n, k=1)
    opposite = labels[i] != labels[j]
    # opposite-class pairs first, so each class's minimum is over a slice
    order = np.argsort(~opposite, kind="stable")
    i, j = i[order], j[order]
    k = int(np.count_nonzero(opposite))
    m = samples.shape[0]
    min_opposite, min_same, max_dist = np.empty((3, m))
    block = _block(i.size, n)
    for start in range(0, m, block):
        b = slice(start, start + block)
        dist = _d2(samples[b].transpose(2, 0, 1), i, j)
        np.sqrt(dist, out=dist)
        if k > 0:
            np.min(dist[:, :k], axis=1, out=min_opposite[b])
        if k < i.size:
            np.min(dist[:, k:], axis=1, out=min_same[b])
        np.max(dist, axis=1, out=max_dist[b])

    def quantiles(values: np.ndarray) -> tuple:
        return tuple(float(q) for q in np.percentile(values, QUANTILE_LEVELS))

    return CollapseStats(quantiles(min_opposite) if k > 0 else None,
                         quantiles(min_same) if k < i.size else None,
                         quantiles(max_dist))
