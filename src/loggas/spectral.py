"""Eigenvalue bounds on the critical inverse temperatures.

The subset ratio equals half a Rayleigh-Ritz-type quotient of the coupling
matrix over 0/1 vectors, which gives T+ <= -lambda_min(C) and
-T- <= lambda_max(C).  In the charge case c(i,j) = k_i k_j the Weil
inequalities give T+ <= max k_i^2 and -T- <= sum k_i^2 - min k_i^2.  This
module states each bound once, in that form (``BoundReport``).  The beta
bounds that ``bounds`` prints are derived from it (beta+ >= 1/u for the
bound u on T+, beta- <= -1/v for the bound v on -T-), and the ensemble
checks its trials against it.

The spectrum comes from a self-contained Brent-Luk round-robin Jacobi
solver (eigenvectors are kept for residual checks); no external eigensolver
is involved on this path.  A and the eigenvector matrix V are stacked in one
array [A; V], and each round applies all its rotations as whole-matrix
broadcasts over a partner gather (index p swapped with its pair q).  That
computes cs*x + (-sn)*y where a per-pair rotation computes cs*x - sn*y, the
same IEEE double, so the layout changes no bit of the result.  The circle
method makes each round's partner map a few reversed contiguous runs, so
the column gather is a handful of slice copies, read from a schedule built
once per n (``_schedule``).

The eigenvalues are floats, so the eigenvalue bounds hold only up to
roundoff: on C = kk' - I with k = (1,1,-1,-1), whose exact beta+ is 1, the
float bound -1/lambda_min may land an ulp above 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coupling import ChargeVector, CouplingMatrix
from .errors import InputError, SizeLimitError
from .rational import Real, reciprocal

# `bounds` (two O(n^3) solves) on random couplings takes 8.0 s at n = 384 and
# 19.4 s at 512 on a 2-core x86-64 VM.  384 was the largest multiple of 128
# within 30 s when 512 took 43.7 s, before the slice-run gather
_MAX_N = 384
_SWEEP_CAP = 100
_OFFDIAG_RTOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending, with eigenvectors kept for residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]
    residual: float
    sweeps: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class BoundReport:
    """Upper bounds on T+ and on -T-, and the beta bounds they give: a
    bound that is not positive bounds T+ (or -T-) by 0, so beta+ is +inf
    (or beta- is -inf) and the beta bound is that infinity.  A positive
    float bound so small that its reciprocal overflows is an InputError."""

    t_plus_upper: Real
    neg_t_minus_upper: Real

    @property
    def beta_plus_lower(self) -> Real:
        return reciprocal("beta+", self.t_plus_upper) if self.t_plus_upper > 0 else math.inf

    @property
    def beta_minus_upper(self) -> Real:
        if self.neg_t_minus_upper > 0:
            return -reciprocal("beta-", self.neg_t_minus_upper)
        return -math.inf


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _round_robin(n: int) -> list:
    """One Jacobi sweep as n-1 rounds (n odd: n rounds) of disjoint pairs.

    The circle method of a round-robin tournament: index 0 stays put and the
    others rotate one place per round.  An odd n gets a dummy index n, and
    the pair holding it is left out of that round.  Each round is a pair of
    index arrays (P, Q) with P < Q elementwise; over one sweep every pair
    i < j occurs exactly once.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    rounds = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(ring, r)))
        left, right = order[: m // 2], order[::-1][: m // 2]
        keep = (left < n) & (right < n)
        left, right = left[keep], right[keep]
        rounds.append((np.minimum(left, right), np.maximum(left, right)))
    return rounds


def _gather_runs(partner: np.ndarray) -> tuple:
    """``partner`` as (dst, src) slice pairs: x[dst] = y[src] over all the
    pairs is x = y[partner].  Each run is a maximal stretch where partner
    steps by +1 or -1; a circle-method round has at most six."""
    idx = partner.tolist()
    runs, start = [], 0
    while start < len(idx):
        step = -1 if start + 1 < len(idx) and idx[start + 1] - idx[start] == -1 else 1
        end = start + 1
        while end < len(idx) and idx[end] - idx[end - 1] == step:
            end += 1
        stop = idx[end - 1] + step
        runs.append((slice(start, end), slice(idx[start], stop if stop >= 0 else None, step)))
        start = end
    return tuple(runs)


@functools.lru_cache(maxsize=8)
def _schedule(n: int) -> tuple:
    """The rounds of ``_round_robin(n)`` as ``symmetric_eigs`` applies them:
    per round P, Q, the partner array (an idle index of odd n is its own
    partner), its gather runs, and the flat indices of a_pq and a_qp in an
    n x n array.  The arrays are read-only, as every call shares them."""
    rounds = []
    for p, q in _round_robin(n):
        partner = np.arange(n)
        partner[p], partner[q] = q, p
        pq, qp = p * n + q, q * n + p
        for x in (p, q, partner, pq, qp):
            x.setflags(write=False)
        rounds.append((p, q, partner, _gather_runs(partner), pq, qp))
    return tuple(rounds)


def symmetric_eigs(c: CouplingMatrix) -> Spectrum:
    """Full spectrum of the coupling matrix by Brent-Luk round-robin Jacobi.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (Brent & Luk 1985).  Rotations in one round touch disjoint rows
    and columns, so a round computes all its angles at once and applies
    them as whole-array operations.  Sweeps continue until the off-diagonal
    Frobenius norm falls below 1e-12 * ||C||_F (cap: 100 sweeps).

    A and V live in one (2n, n) array w = [A; V].  Each round has a partner
    index array (partner[p] = q, partner[q] = p; an idle index of odd n is
    its own partner) and per-index coefficients cf (cs at p and q, else 1)
    and sf (-sn at p, +sn at q, else 0).  The columns of A and V become
    cf * w + sf * w[:, partner], then the rows of A likewise.  Per element
    that is cs*x + (-sn)*y and cs*y + sn*x; in IEEE arithmetic these equal
    cs*x - sn*y and sn*x + cs*y exactly, and an idle index gets x*1 + x*0 =
    x, so the bits match a per-pair gather/scatter rotation of the same
    schedule.

    The round's indices come from the cached ``_schedule(n)``.  The column
    gather w[:, partner] is made as the schedule's slice runs, copied into
    one buffer allocated per call; the row gather is ``np.take`` into the
    same buffer; a_pq and the diagonal are read through flat and diagonal
    views of A.  Each copies the same values, so no bit changes.

    The sweeps run on C / 2^e, where 2^e is the power of two that brings
    max|C| into [1/2, 1), so that ||C||_F neither overflows (entries near
    1e200) nor underflows (near 1e-200).  Every rotation and the stopping
    rule are homogeneous in C, so short of underflow the scaling changes no
    bit of the result.
    """
    if c.n > _MAX_N:
        raise SizeLimitError(f"eigensolver limited to n <= {_MAX_N}")
    exponent = math.frexp(float(np.max(np.abs(c.entries))))[1]
    n = c.n
    w = np.concatenate((np.ldexp(c.entries, -exponent), np.eye(n)))
    a, v = w[:n], w[n:]  # views: A on top, V below
    norm_c = float(np.linalg.norm(a))
    target = _OFFDIAG_RTOL * norm_c
    flat, diag = a.reshape(-1), a.diagonal()  # views: A is contiguous
    tmp = np.empty_like(w)
    sweeps = 0
    while _offdiag_norm(a) > target and norm_c > 0.0:
        if sweeps >= _SWEEP_CAP:
            raise InputError(f"Jacobi did not converge in {_SWEEP_CAP} sweeps")
        sweeps += 1
        for p, q, partner, runs, pq, qp in _schedule(n):
            apq = flat[pq]
            live = apq != 0.0  # a zero pair gets the identity rotation
            theta = (diag[q] - diag[p]) / (2.0 * np.where(live, apq, 1.0))
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(live, t, 0.0)
            cs = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * cs
            # fresh arrays: this round's idle index (odd n) gets 1 and 0
            cf, sf = np.ones(n), np.zeros(n)
            cf[p] = cf[q] = cs
            sf[p], sf[q] = -sn, sn
            # columns of A and V at once, then rows of A (A stays symmetric)
            for dst, src in runs:
                np.copyto(tmp[:, dst], w[:, src])
            tmp *= sf
            w *= cf
            w += tmp
            # mode="clip" (partner is in range) lets take write to out unbuffered
            rows = np.take(a, partner, axis=0, out=tmp[:n], mode="clip")
            rows *= sf[:, None]
            a *= cf[:, None]
            a += rows
            flat[pq] = 0.0
            flat[qp] = 0.0

    eigenvalues = np.ldexp(np.diag(a), exponent)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    residual = float(np.max(np.abs(c.entries @ vectors - vectors * eigenvalues)))
    return Spectrum(eigenvalues, vectors, residual, sweeps)


def eig_bounds(c: CouplingMatrix) -> BoundReport:
    """T+ <= -lambda_min and -T- <= lambda_max, from one ``symmetric_eigs``."""
    spec = symmetric_eigs(c)
    return BoundReport(-spec.lambda_min, spec.lambda_max)


def charge_bounds(k: ChargeVector) -> BoundReport:
    """T+ <= max k_i^2 and -T- <= sum k_i^2 - min k_i^2 for c(i,j) = k_i k_j.

    Exact charges give Fractions.  Otherwise each square is formed in the
    input's types and cast to float, and numpy reduces the squares."""
    if k.is_exact:
        squares = [Fraction(v * v) for v in k.values]
        return BoundReport(max(squares), sum(squares) - min(squares))
    squares = np.array([float(v * v) for v in k.values])
    with np.errstate(over="ignore"):  # a sum past the float range bounds -T- by inf
        return BoundReport(float(squares.max()), float(squares.sum() - squares.min()))
