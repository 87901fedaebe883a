"""Monte Carlo verification layer on (S^2)^N.

Plain Monte Carlo estimation of the partition function, the analytic
two-particle closed form it is checked against, least-squares pole-order
fitting of the free-energy divergence, and a single-particle Metropolis
sampler of the Gibbs measure with collapse observables.  The energy oracle
that checks the chain's running energies is test code, in tests/oracles.py,
with a pair loop of its own.

The partition estimator, the chain start and the collapse observables share
one pair helper, ``_d2`` (``_log_d2`` takes its log), over particle-major
points: x[k, p, ...] is coordinate k of particle p, so each particle's
coordinates are contiguous rows over the configurations.
A run of pairs with one first particle is one subtraction of whole rows,
and the squares are summed with two array additions, not a reduction over
an axis of length 3.  ``_uniform_points`` draws configurations in that
layout.  The partition estimator samples configurations modulo rotation,
as ``_rotation_classes`` lays them out: particle 0 at the pole, particle 1
on a meridian at a uniform height, particles 2..N-1 uniform.  The weight
depends only on pair distances, so its law is unchanged, and a sample
costs N-2 free points and one uniform instead of N free points.
The partition estimator and ``collapse_observables`` work in blocks of
``_BLOCK_FLOATS // (3 * max(pairs, N))`` configurations, so the (3, pairs,
block) buffer of pair differences holds about 2^17 floats (1 MB) whatever
N is; each allocates its block buffers once per call.

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
# floats per block buffer of pair differences.  A block's weights are one
# gemv over its (pairs, block) log d^2 table, whose last (block mod 4)
# configurations can round differently from the rest, so a weight's last
# bit can depend on the block size: changing this budget moves estimates
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


def _uniform_points(rng: np.random.Generator, b: int, n: int, out: Optional[np.ndarray] = None,
                    normals: Optional[np.ndarray] = None) -> np.ndarray:
    """b configurations of n uniform points on S^2, particle-major (3, n, b),
    written to ``out`` when given.

    The (b, n, 3) standard normals are drawn in C order, point after point,
    into ``normals`` when given, and normalised in one transposing copy.  A
    zero draw (probability zero) is replaced by fresh normals, in the same
    (configuration, point) C order."""
    if normals is None:
        normals = np.empty((b, n, 3))
    if out is None:
        out = np.empty((3, n, b))
    np.copyto(out, rng.standard_normal(out=normals).transpose(2, 1, 0))

    def norms():
        # (x^2 + y^2) + z^2, as np.linalg.norm over a last axis of three
        return np.sqrt((out[0] * out[0] + out[1] * out[1]) + out[2] * out[2])

    r = norms()
    while not r.all():  # probability-zero guard
        config, point = np.nonzero(r.T == 0.0)
        out[:, point, config] = rng.standard_normal((config.size, 3)).T
        r = norms()
    out /= r
    return out


def _rotation_classes(rng: np.random.Generator, u: np.ndarray, out: np.ndarray,
                      normals: np.ndarray) -> np.ndarray:
    """One configuration of n points per rotation class, written to the
    particle-major (3, n, u.size) ``out``: particle 0 at the pole (0, 0, 1),
    particle 1 on the meridian y = 0 at height z = 2u - 1, particles
    2..n-1 from ``_uniform_points`` (its (u.size, n-2, 3) normals in
    ``normals``).

    A function of the pair distances has the same law on these as on n
    uniform points: a rotation takes particle 0 to the pole and then
    particle 1 onto the meridian, and the height of a uniform point is
    uniform on [-1, 1] (Archimedes)."""
    # particle 1's rows, y holding 1 + z until it is zeroed: no temporaries
    x, y, z = out[:, 1]
    np.multiply(u, 2.0, out=z)
    z -= 1.0
    np.subtract(1.0, z, out=x)
    np.add(1.0, z, out=y)
    x *= y
    np.sqrt(x, out=x)  # sqrt((1 - z)(1 + z))
    y[...] = 0.0
    out[:, 0] = ((0.0,), (0.0,), (1.0,))
    _uniform_points(rng, u.size, out.shape[1] - 2, out=out[:, 2:], normals=normals)
    return out


def _block(pairs: int, n: int) -> int:
    """Configurations per block, so that each (3, pairs, block) buffer of
    pair differences holds about _BLOCK_FLOATS floats (1 MB) whatever n is."""
    return max(1, _BLOCK_FLOATS // (3 * max(pairs, n)))


def _d2(x: np.ndarray, i: np.ndarray, j: np.ndarray, out: Optional[np.ndarray] = None,
        diff: Optional[np.ndarray] = None) -> np.ndarray:
    """d(p_i, p_j)^2 for index arrays i, j over the particle axis of
    particle-major (3, N, ...) points, as a (pairs, ...) array; into ``out``,
    with ``diff`` as the (3, pairs, ...) differences, when given.

    Each run of pairs with one first particle a is one subtraction of whole
    rows, x[:, a] from its partners' (a slice, not a gather, when they are
    consecutive; partners must increase within a run, as in triu order), so
    pairs grouped by first particle, as ``_coupled_pairs`` gives them, cost
    one subtraction per particle.  The squares are summed as (dx^2 + dy^2)
    + dz^2, the order numpy's sum over a last axis of three uses, so the
    result is bit-identical to the row-major ``sum(diffs * diffs, axis=-1)``."""
    if diff is None:
        diff = np.empty((3, i.size) + x.shape[2:])
    starts = np.flatnonzero(np.diff(i, prepend=-1)).tolist()
    for k0, k1 in zip(starts, starts[1:] + [i.size]):
        a, lo, hi = int(i[k0]), int(j[k0]), int(j[k1 - 1])
        partners = slice(lo, hi + 1) if hi - lo == k1 - 1 - k0 else j[k0:k1]
        np.subtract(x[:, a:a + 1], x[:, partners], out=diff[:, k0:k1])
    diff *= diff
    s = np.add(diff[0], diff[1], out=out)
    s += diff[2]
    return s


def _log_d2(x: np.ndarray, i: np.ndarray, j: np.ndarray, out: Optional[np.ndarray] = None,
            diff: Optional[np.ndarray] = None) -> np.ndarray:
    """log d(p_i, p_j)^2 over particle-major points, as ``_d2``; -inf where
    two points coincide."""
    s = _d2(x, i, j, out, diff)
    with np.errstate(divide="ignore"):
        return np.log(s, out=s)


def _coupled_pairs(c: CouplingMatrix):
    """Pairs i < j with c(i,j) != 0, as index arrays, and their couplings."""
    iu = np.triu_indices(c.n, k=1)
    cij = c.entries[iu]
    coupled = cij != 0.0
    return iu[0][coupled], iu[1][coupled], cij[coupled]


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
    block of b configurations one ``standard_normal`` call filling a
    (b, N-2, 3) buffer for particles 2..N-1; the heights sit in the weights
    array until their block's weights overwrite them.  A sample costs N-2
    free points and one uniform, and the weights have the same law as on N
    free points.  The points, normals, pair differences and log d^2 table
    are particle-major buffers allocated once per call, and a block's
    weights are one ``cij @ log d^2`` product over its (pairs, b) table.
    That product is taken with c scaled by 2^-e and beta by 2^e, e the
    binary exponent of max |c_ij|: both scalings are exact, so the weights
    are those of (log d^2 @ c) * beta wherever that is finite, and
    couplings near the float limit do not overflow before beta scales them.

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
    n, pairs = c.n, rows.size
    rng = _philox(seed)
    # 364 configurations on the 8+8 plasma, 21,845 on a pair
    block = _block(pairs, n)
    b = min(block, samples)
    points, normals = np.empty((3, n, b)), np.empty((b, n - 2, 3))
    diff, logd2 = np.empty((3, pairs, b)), np.empty((pairs, b))
    weights = np.empty(samples, dtype=float)
    rng.random(samples, out=weights)  # particle 1's heights, overwritten block by block
    with np.errstate(over="ignore", invalid="ignore"):
        e = math.frexp(float(np.max(np.abs(cij), initial=0.0)))[1]
        cij = np.ldexp(cij, -e)
        beta_e = np.ldexp(beta, e)
        for start in range(0, samples, block):
            w = weights[start:start + block]
            m = w.size
            x = _rotation_classes(rng, w, points[..., :m], normals[:m])
            np.matmul(cij, _log_d2(x, rows, cols, out=logd2[:, :m], diff=diff[..., :m]), out=w)
            w *= beta_e
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
        x = _uniform_points(rng, 1, n)[..., 0]
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
    block = min(_block(i.size, n), m)
    points, diff, d2 = np.empty((3, n, block)), np.empty((3, i.size, block)), np.empty((i.size, block))
    for start in range(0, m, block):
        b = slice(start, start + block)
        width = min(block, m - start)
        x = points[..., :width]
        np.copyto(x, samples[b].transpose(2, 1, 0))
        dist = _d2(x, i, j, out=d2[:, :width], diff=diff[..., :width])
        np.sqrt(dist, out=dist)
        if k > 0:
            np.min(dist[:k], axis=0, out=min_opposite[b])
        if k < i.size:
            np.min(dist[k:], axis=0, out=min_same[b])
        np.max(dist, axis=0, out=max_dist[b])

    def quantiles(values: np.ndarray) -> tuple:
        return tuple(float(q) for q in np.percentile(values, QUANTILE_LEVELS))

    return CollapseStats(quantiles(min_opposite) if k > 0 else None,
                         quantiles(min_same) if k < i.size else None,
                         quantiles(max_dist))
