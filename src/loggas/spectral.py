"""Eigenvalue bounds on the critical inverse temperatures.

The subset ratio equals half a Rayleigh-Ritz-type quotient of the coupling
matrix over 0/1 vectors, which gives beta+ >= -1/lambda_min(C) and
beta- <= -1/lambda_max(C) whenever the respective endpoint is finite.  In
the charge case c(i,j) = k_i k_j the Weil inequalities yield the explicit
bounds beta+ >= 1/max k_i^2 and beta- <= -1/(sum k_i^2 - min k_i^2).

The spectrum comes from a self-contained Brent-Luk round-robin Jacobi
solver (eigenvectors are kept for residual checks); no external eigensolver
is involved on this path.  A and the eigenvector matrix V are stacked in one
array [A; V], and each round applies all its rotations as whole-matrix
broadcasts over a partner gather (index p swapped with its pair q).  That
computes cs*x + (-sn)*y where a per-pair rotation computes cs*x - sn*y, the
same IEEE double, so the layout changes no bit of the result.

The eigenvalues are floats, so the eigenvalue bounds hold only up to
roundoff: on C = kk' - I with k = (1,1,-1,-1), whose exact beta+ is 1, the
float bound -1/lambda_min may land an ulp above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coupling import MAX_PARTICLES, ChargeVector, CouplingMatrix
from .errors import InputError, SizeLimitError
from .rational import Real

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
    beta_plus_lower: Real
    beta_minus_upper: Real


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

    The sweeps run on C / 2^e, where 2^e is the power of two that brings
    max|C| into [1/2, 1), so that ||C||_F neither overflows (entries near
    1e200) nor underflows (near 1e-200).  Every rotation and the stopping
    rule are homogeneous in C, so short of underflow the scaling changes no
    bit of the result.
    """
    if c.n > MAX_PARTICLES:
        raise SizeLimitError(f"eigensolver limited to n <= {MAX_PARTICLES}")
    exponent = math.frexp(float(np.max(np.abs(c.entries))))[1]
    n = c.n
    w = np.concatenate((np.ldexp(c.entries, -exponent), np.eye(n)))
    a, v = w[:n], w[n:]  # views: A on top, V below
    norm_c = float(np.linalg.norm(a))
    target = _OFFDIAG_RTOL * norm_c
    rounds = []
    for p, q in _round_robin(n):
        partner = np.arange(n)  # an idle index (odd n) is its own partner
        partner[p], partner[q] = q, p
        rounds.append((p, q, partner))

    sweeps = 0
    while _offdiag_norm(a) > target and norm_c > 0.0:
        if sweeps >= _SWEEP_CAP:
            raise InputError(f"Jacobi did not converge in {_SWEEP_CAP} sweeps")
        sweeps += 1
        for p, q, partner in rounds:
            apq = a[p, q]
            live = apq != 0.0  # a zero pair gets the identity rotation
            theta = (a[q, q] - a[p, p]) / (2.0 * np.where(live, apq, 1.0))
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(live, t, 0.0)
            cs = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * cs
            # fresh arrays: this round's idle index (odd n) gets 1 and 0
            cf, sf = np.ones(n), np.zeros(n)
            cf[p] = cf[q] = cs
            sf[p], sf[q] = -sn, sn
            # columns of A and V at once, then rows of A (A stays symmetric)
            tmp = w[:, partner]
            tmp *= sf
            w *= cf
            w += tmp
            tmp = a[partner]
            tmp *= sf[:, None]
            a *= cf[:, None]
            a += tmp
            a[p, q] = a[q, p] = 0.0

    eigenvalues = np.ldexp(np.diag(a), exponent)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    residual = float(np.max(np.abs(c.entries @ vectors - vectors * eigenvalues)))
    return Spectrum(eigenvalues, vectors, residual, sweeps)


def eig_bounds(c: CouplingMatrix) -> BoundReport:
    """beta+ >= -1/lambda_min when lambda_min < 0 (else vacuous +inf);
    beta- <= -1/lambda_max when lambda_max > 0 (else vacuous -inf)."""
    spec = symmetric_eigs(c)
    lo = -1.0 / spec.lambda_min if spec.lambda_min < 0 else math.inf
    hi = -1.0 / spec.lambda_max if spec.lambda_max > 0 else -math.inf
    return BoundReport(lo, hi)


def charge_bounds(k: ChargeVector) -> BoundReport:
    """Closed-form bounds for c(i,j) = k_i k_j; exact when charges are.

    Applicable when the corresponding endpoint is finite (the caller checks
    finiteness via the solver)."""
    num = Fraction if k.is_exact else float
    squares = [num(v * v) for v in k.values]
    return BoundReport(1 / max(squares), -1 / (sum(squares) - min(squares)))
