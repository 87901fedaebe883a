"""Eigenvalue bounds on the critical inverse temperatures.

The subset ratio equals half a Rayleigh-Ritz-type quotient of the coupling
matrix over 0/1 vectors, which gives beta+ >= -1/lambda_min(C) and
beta- <= -1/lambda_max(C) whenever the respective endpoint is finite.  In
the charge case c(i,j) = k_i k_j the Weil inequalities yield the explicit
bounds beta+ >= 1/max k_i^2 and beta- <= -1/(sum k_i^2 - min k_i^2).

The spectrum comes from a self-contained Brent-Luk round-robin Jacobi
solver (eigenvectors are kept for residual checks); no external eigensolver
is involved on this path.  The eigenvalues are floats, so the eigenvalue
bounds hold only up to roundoff: on C = kk' - I with k = (1,1,-1,-1), whose
exact beta+ is 1, the float bound -1/lambda_min may land an ulp above 1.
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


def _rotate(x: np.ndarray, y: np.ndarray, cs, sn) -> tuple:
    """Plane rotation of the pair (x, y) by cosine cs and sine sn."""
    return cs * x - sn * y, sn * x + cs * y


def symmetric_eigs(c: CouplingMatrix) -> Spectrum:
    """Full spectrum of the coupling matrix by Brent-Luk round-robin Jacobi.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (Brent & Luk 1985).  Rotations in one round touch disjoint rows
    and columns, so a round computes all its angles at once and applies
    them as whole-array operations.  Sweeps continue until the off-diagonal
    Frobenius norm falls below 1e-12 * ||C||_F (cap: 100 sweeps).

    The sweeps run on C / 2^e, where 2^e is the power of two that brings
    max|C| into [1/2, 1), so that ||C||_F neither overflows (entries near
    1e200) nor underflows (near 1e-200).  Every rotation and the stopping
    rule are homogeneous in C, so short of underflow the scaling changes no
    bit of the result.
    """
    if c.n > MAX_PARTICLES:
        raise SizeLimitError(f"eigensolver limited to n <= {MAX_PARTICLES}")
    exponent = math.frexp(float(np.max(np.abs(c.entries))))[1]
    a = np.ldexp(c.entries, -exponent)
    n = c.n
    v = np.eye(n)
    norm_c = float(np.linalg.norm(a))
    target = _OFFDIAG_RTOL * norm_c
    rounds = _round_robin(n)

    sweeps = 0
    while _offdiag_norm(a) > target and norm_c > 0.0:
        if sweeps >= _SWEEP_CAP:
            raise InputError(f"Jacobi did not converge in {_SWEEP_CAP} sweeps")
        sweeps += 1
        for p, q in rounds:
            apq = a[p, q]
            live = apq != 0.0  # a zero pair gets the identity rotation
            theta = (a[q, q] - a[p, p]) / (2.0 * np.where(live, apq, 1.0))
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(live, t, 0.0)
            cs = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * cs
            # rotate columns p,q of A, then rows (A stays symmetric)
            a[:, p], a[:, q] = _rotate(a[:, p], a[:, q], cs, sn)
            a[p, :], a[q, :] = _rotate(a[p, :], a[q, :], cs[:, None], sn[:, None])
            a[p, q] = a[q, p] = 0.0
            v[:, p], v[:, q] = _rotate(v[:, p], v[:, q], cs, sn)

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
    squares = [v * v for v in k.values]
    if k.is_exact:
        top = max(squares)
        spread = sum(squares, Fraction(0)) - min(squares)
        return BoundReport(Fraction(1) / top, -Fraction(1) / spread)
    top = max(float(s) for s in squares)
    spread = sum(float(s) for s in squares) - min(float(s) for s in squares)
    return BoundReport(1.0 / top, -1.0 / spread)
