"""Eigenvalue bounds on the critical inverse temperatures.

The subset ratio equals half a Rayleigh-Ritz-type quotient of the coupling
matrix over 0/1 vectors, which gives beta+ >= -1/lambda_min(C) and
beta- <= -1/lambda_max(C) whenever the respective endpoint is finite.  In
the charge case c(i,j) = k_i k_j the Weil inequalities yield the explicit
bounds beta+ >= 1/max k_i^2 and beta- <= -1/(sum k_i^2 - min k_i^2).

The spectrum comes from a self-contained cyclic Jacobi rotation solver
(eigenvectors are kept for residual checks); no external eigensolver is
involved on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coupling import MAX_PARTICLES, ChargeVector, CouplingMatrix
from .errors import InstanceTooLarge, NoConvergence
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
    source: str  # 'eigenvalue' | 'charge_formula'


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def symmetric_eigs(c: CouplingMatrix) -> Spectrum:
    """Full spectrum of the coupling matrix by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair until the off-diagonal
    Frobenius norm falls below 1e-12 * ||C||_F (cap: 100 sweeps).
    """
    if c.n > MAX_PARTICLES:
        raise InstanceTooLarge(f"eigensolver limited to n <= {MAX_PARTICLES}")
    a = np.array(c.entries, dtype=float)
    n = c.n
    v = np.eye(n)
    norm_c = float(np.linalg.norm(a))
    target = _OFFDIAG_RTOL * norm_c

    sweeps = 0
    while _offdiag_norm(a) > target and norm_c > 0.0:
        if sweeps >= _SWEEP_CAP:
            raise NoConvergence(f"Jacobi did not converge in {_SWEEP_CAP} sweeps")
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                cs = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * cs
                # rotate columns p,q of A, then rows (A stays symmetric)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = cs * col_p - sn * col_q
                a[:, q] = sn * col_p + cs * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = cs * row_p - sn * row_q
                a[q, :] = sn * row_p + cs * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = cs * vec_p - sn * vec_q
                v[:, q] = sn * vec_p + cs * vec_q

    eigenvalues = np.diag(a).copy()
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
    return BoundReport(lo, hi, "eigenvalue")


def charge_bounds(k: ChargeVector) -> BoundReport:
    """Closed-form bounds for c(i,j) = k_i k_j; exact when charges are.

    Applicable when the corresponding endpoint is finite (the caller checks
    finiteness via the solver)."""
    squares = [v * v for v in k.values]
    if k.is_exact:
        top = max(squares)
        spread = sum(squares, Fraction(0)) - min(squares)
        return BoundReport(Fraction(1) / top, -Fraction(1) / spread, "charge_formula")
    top = max(float(s) for s in squares)
    spread = sum(float(s) for s in squares) - min(float(s) for s in squares)
    return BoundReport(1.0 / top, -1.0 / spread, "charge_formula")
