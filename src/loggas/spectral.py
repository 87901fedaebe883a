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
solver; no external eigensolver is involved on this path.  Each round
applies all its rotations as whole-matrix broadcasts over a partner gather
(index p swapped with its pair q).  That computes cs*x + (-sn)*y where a
per-pair rotation computes cs*x - sn*y, the same IEEE double, so the layout
changes no bit of the result.  The circle method makes each round's partner
map a few reversed contiguous runs, so the column gather is a handful of
slice copies, read from a schedule built once per n (``_schedule``).

The one kernel (``_jacobi``) steps a stack of same-size matrices in one
array, so a round costs the same few numpy calls for m matrices as for one;
a matrix leaves the stack as soon as its own stopping test holds, so its
spectrum is that of a stack of one, bit for bit.  Each member is A_k alone,
or [A_k; V_k] with its eigenvector matrix V_k carried through the same
rotations.  The rounds and the stopping test read only A, so both give the
same eigenvalues and sweeps to the bit, and A alone does half the column
work.  ``symmetric_eigs`` is a stack of one A; its ``Spectrum`` solves the
[A; V] stack of one for the eigenvectors and residual when they are first
read, which no command does.  ``eig_bounds_many`` stacks the ensemble's
trials as A_k alone.

A charge system's C = kk' - diag(k*k) has its eigenvalues from the secular
equation instead (``charge_eigenvalues``): O(n^2) per halving of a
vectorised bisection and no eigenvectors, accurate to about eps * max k^2.
``bounds`` takes that path when max k^2 <= ||C||_F, within the Jacobi's
own eps * ||C||_F.

The eigenvalues are floats, so the eigenvalue bounds hold only up to
roundoff: on the matrix C = kk' - I with k = (1,1,-1,-1), whose exact beta+
is 1, the Jacobi's float bound -1/lambda_min may land an ulp above 1 (the
secular equation gives the exact -1, -1, -1, 3 for those charges).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .coupling import ChargeVector, CouplingMatrix
from .errors import InputError, SizeLimitError
from .rational import Real, reciprocal

# `bounds` (two O(n^3) solves of A alone) on random couplings takes 5.8-6.8 s
# at n = 384 and 19.8-20.4 s at 512 on one CPU of a 2-core Intel Xeon VM: the
# largest multiple of 128 within 30 s
_MAX_N = 512
_SWEEP_CAP = 100
_OFFDIAG_RTOL = 1e-12
_HALVINGS = 64  # per secular root: its bracket ends 2^-64 as wide, under eps * max k^2 at n <= 512


class _Solved(NamedTuple):
    """One matrix's result from ``_jacobi``: eigenvalues ascending and the
    sweep count, and from the [A; V] stack its eigenvectors and residual."""

    eigenvalues: np.ndarray
    sweeps: int
    eigenvectors: Optional[np.ndarray] = None
    residual: Optional[float] = None


@dataclass(frozen=True)
class Spectrum:
    """The eigenvalues of ``c`` sorted ascending and the sweep count, from
    the Jacobi on A alone.  The eigenvectors (column i pairs with
    eigenvalues[i]) and the residual max|C V - V diag(lambda)| are formed
    on first read by the [A; V] Jacobi on the same ``c``, and kept.  Its
    rounds and stopping test read only A, so they are those of this
    spectrum: the same eigenvalues and sweeps, bit for bit."""

    c: CouplingMatrix
    eigenvalues: np.ndarray
    sweeps: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    @functools.cached_property
    def _full(self) -> _Solved:
        solved = _jacobi([self.c])[0]
        solved.eigenvectors.setflags(write=False)
        return solved

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._full.eigenvectors

    @property
    def residual(self) -> float:
        return self._full.residual


@dataclass(frozen=True)
class BoundReport:
    """Upper bounds on T+ and on -T-, and the beta bounds they give: a
    bound that is not positive bounds T+ (or -T-) by 0, so beta+ is +inf
    (or beta- is -inf) and the beta bound is that infinity.  A positive
    float bound so small that its reciprocal overflows is an InputError."""

    t_plus_upper: Real
    neg_t_minus_upper: Real

    @classmethod
    def from_eigenvalues(cls, eigenvalues: np.ndarray) -> "BoundReport":
        """T+ <= -lambda_min and -T- <= lambda_max, of eigenvalues ascending."""
        return cls(-float(eigenvalues[0]), float(eigenvalues[-1]))

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


def _lift(n: int, m: int, height: int) -> tuple:
    """The rounds of ``_schedule(n)`` lifted to a stack of m buffers of
    ``height`` rows ([A_k; V_k], or A_k alone) held in one (m, height, n)
    array: per round the flat offsets of a_pq, a_qp, a_pp and a_qq in the
    stack (k*height*n added), those of p and q in an (m, n) coefficient
    array (k*n added), the stack's row gather as flat rows of an
    (m*height, n) view (k*height added), and the gather runs.  The arrays of
    a stack of m' < m members are the first m' rows of each."""
    k = np.arange(m)[:, None]
    block, coef, rows = k * (height * n), k * n, k * height
    return tuple((block + pq, block + qp, block + p * (n + 1), block + q * (n + 1),
                  coef + p, coef + q, rows + partner, runs)
                 for p, q, partner, runs, pq, qp in _schedule(n))


def _spectrum(c: CouplingMatrix, a: np.ndarray, v: np.ndarray, exponent: int,
              sweeps: int) -> _Solved:
    eigenvalues = np.ldexp(np.diag(a), exponent)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    residual = float(np.max(np.abs(c.entries @ vectors - vectors * eigenvalues)))
    return _Solved(eigenvalues, sweeps, vectors, residual)


def _jacobi(matrices: list, vectors: bool = True) -> list:
    """The eigenvalues (ascending), sweep count, eigenvectors and residual
    of each of ``matrices`` (all of one size n) as a ``_Solved``, by
    Brent-Luk round-robin Jacobi run on all of them at once; with
    ``vectors`` false, only its eigenvalues and sweep count.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (Brent & Luk 1985).  Rotations in one round touch disjoint rows
    and columns, so a round computes all its angles at once and applies
    them as whole-array operations.  A matrix is swept until its
    off-diagonal Frobenius norm falls below 1e-12 * ||C||_F (cap: 100
    sweeps).

    Matrix k lives in w[k] = [A_k; V_k] of one (m, 2n, n) array w, or
    without ``vectors`` in w[k] = A_k of an (m, n, n) array.  The rounds
    read only A, so dropping V changes no bit of the eigenvalues.  Each
    round has a partner index array (partner[p] = q, partner[q] = p; an
    idle index of odd n is its own partner) and per-matrix, per-index
    coefficients cf (cs at p and q, else 1) and sf (-sn at p, +sn at q,
    else 0).  The columns of every A_k and V_k become cf * w + sf * w[:, :,
    partner], then the rows of every A_k likewise.  Per element that is
    cs*x + (-sn)*y and cs*y + sn*x; in IEEE arithmetic these equal cs*x -
    sn*y and sn*x + cs*y exactly, and an idle index gets x*1 + x*0 = x, so
    the bits match a per-pair gather/scatter rotation of the same schedule.

    The round's indices come from ``_schedule(n)`` lifted to the stack
    (``_lift``).  The column gather is made as the schedule's slice runs,
    copied into one buffer; the row gather is one ``np.take`` of flat rows;
    a_pq and the diagonal are read through flat offsets.  Each copies the
    same values, so no bit changes.  The index arrays and the copy views
    are built once per buffer, not once per round.

    Each matrix is swept as C / 2^e, where 2^e is the power of two that
    brings max|C| into [1/2, 1), so that ||C||_F neither overflows (entries
    near 1e200) nor underflows (near 1e-200).  Every rotation and the
    stopping rule are homogeneous in C, so short of underflow the scaling
    changes no bit of the result.

    Before each sweep, each matrix whose own stopping test holds leaves
    the stack, which is then compacted.  So every matrix gets the scaling,
    rotations and sweep count of a stack of one, and its result is the
    same to the bit whatever else was stacked with it: each elementwise
    operation sees the same operands, and each norm is the same dot product
    of the same n*n values.
    """
    n = matrices[0].n
    if n > _MAX_N:
        raise SizeLimitError(f"eigensolver limited to n <= {_MAX_N}")
    height = 2 * n if vectors else n
    w = np.empty((len(matrices), height, n))
    np.stack([c.entries for c in matrices], out=w[:, :n])  # a ValueError unless one size
    exponents = [math.frexp(x)[1] for x in np.max(np.abs(w[:, :n]), axis=(1, 2)).tolist()]
    np.ldexp(w[:, :n], -np.array(exponents)[:, None, None], out=w[:, :n])
    if vectors:
        w[:, n:] = np.eye(n)
    norm_c = [float(np.linalg.norm(x)) for x in w[:, :n]]
    members = list(range(len(matrices)))  # the index of each matrix in the stack
    spectra = [None] * len(matrices)
    lifted = _lift(n, len(matrices), height)
    plan, sweeps = None, 0
    while True:
        off = w[:, :n].copy()
        diag = off.reshape(len(members), -1)[:, :: n + 1]
        diag -= diag  # A - diag(A) per matrix, as a stack of one computes it
        stay = []
        for slot, i in enumerate(members):
            if float(np.linalg.norm(off[slot])) > _OFFDIAG_RTOL * norm_c[i] and norm_c[i] > 0.0:
                stay.append(slot)
            elif vectors:
                spectra[i] = _spectrum(matrices[i], w[slot, :n], w[slot, n:], exponents[i], sweeps)
            else:  # the eigenvalues as _spectrum orders them
                eigenvalues = np.sort(np.ldexp(np.diag(w[slot]), exponents[i]), kind="stable")
                spectra[i] = _Solved(eigenvalues, sweeps)
        if not stay:
            return spectra
        if len(stay) < len(members):
            members = [members[slot] for slot in stay]
            w, plan = w[stay], None  # a fresh contiguous stack: its views are rebuilt
        if sweeps >= _SWEEP_CAP:
            raise InputError(f"Jacobi did not converge in {_SWEEP_CAP} sweeps")
        sweeps += 1
        if plan is None:
            k = len(members)
            a, flat, w_rows = w[:, :n], w.reshape(-1), w.reshape(-1, n)
            tmp = np.empty_like(w)
            rows = tmp.reshape(-1)[: k * n * n].reshape(k, n, n)  # tmp is spent by then
            cf, sf = np.empty((k, 1, n)), np.empty((k, 1, n))
            cf_flat, sf_flat = cf.reshape(-1), sf.reshape(-1)
            cf_rows, sf_rows = cf.reshape(k, n, 1), sf.reshape(k, n, 1)
            plan = [(pq[:k], qp[:k], pp[:k], qq[:k], pc[:k], qc[:k], partners[:k],
                     tuple((tmp[:, :, dst], w[:, :, src]) for dst, src in runs))
                    for pq, qp, pp, qq, pc, qc, partners, runs in lifted]
        for pq, qp, pp, qq, pc, qc, partners, copies in plan:
            apq = flat[pq]
            live = apq != 0.0  # a zero pair gets the identity rotation
            theta = (flat[qq] - flat[pp]) / (2.0 * np.where(live, apq, 1.0))
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(live, t, 0.0)
            cs = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * cs
            cf.fill(1.0)  # an idle index (odd n) keeps 1 and 0
            sf.fill(0.0)
            cf_flat[pc] = cs
            cf_flat[qc] = cs
            sf_flat[pc] = -sn
            sf_flat[qc] = sn
            # columns of every A (and V) at once, then rows of every A (A stays symmetric)
            for dst, src in copies:
                np.copyto(dst, src)
            tmp *= sf
            w *= cf
            w += tmp
            # mode="clip" (every row is in range) lets take write to out unbuffered
            np.take(w_rows, partners, axis=0, out=rows, mode="clip")
            rows *= sf_rows
            a *= cf_rows
            a += rows
            flat[pq] = 0.0
            flat[qp] = 0.0


def symmetric_eigs(c: CouplingMatrix) -> Spectrum:
    """The eigenvalues of the coupling matrix, ascending, and the sweep
    count, by Brent-Luk round-robin Jacobi: ``_jacobi`` on a stack of one,
    A alone.  The eigenvectors and residual are solved for when first read
    (``Spectrum``)."""
    eigenvalues, sweeps, _, _ = _jacobi([c], vectors=False)[0]
    return Spectrum(c, eigenvalues, sweeps)


def eig_bounds(c: CouplingMatrix) -> BoundReport:
    """T+ <= -lambda_min and -T- <= lambda_max, from one ``symmetric_eigs``."""
    return BoundReport.from_eigenvalues(symmetric_eigs(c).eigenvalues)


def eig_bounds_many(cs: list) -> list:
    """``eig_bounds`` of each matrix of ``cs`` (all of one size), from one
    Jacobi stack without eigenvectors: each report is the one ``eig_bounds``
    gives, bit for bit.  The stack holds every matrix at once, so the caller
    sizes ``cs``."""
    return [BoundReport.from_eigenvalues(s.eigenvalues) for s in _jacobi(cs, vectors=False)]


def charge_eigenvalues(k: ChargeVector) -> Optional[np.ndarray]:
    """The eigenvalues of C = kk' - diag(k*k), ascending, from its secular
    equation; None where max k_i^2 > ||C||_F, which ``symmetric_eigs``
    solves more accurately.

    C is -diag(k*k) plus a rank-one term, so its eigenvalues are the roots of
    sum_i k_i^2 / (k_i^2 + lambda) = 1: one in each gap between consecutive
    distinct poles -k_i^2, and one in (d, d + sum k_i^2) above the largest
    pole d (Golub 1973; Bunch, Nielsen & Sorensen 1978).  A group of g equal
    poles gives g - 1 eigenvalues equal to the pole (deflation inside its
    span) and enters the sum once, weighted by its sum of k^2; a square that
    underflows to 0 is an eigenvalue 0.  The charges are scaled by 2^-e, e
    the binary exponent of max |k_i|, and the eigenvalues scaled back by an
    exact 2^2e.  All roots are bisected at once, each measured from its left
    pole, for a fixed ``_HALVINGS`` halvings; each root is the right end of
    its bracket, where the secular function is >= 0.

    The roots are accurate to about eps * max k_i^2 and the Jacobi to about
    eps * ||C||_F, hence the rule; its two sides are compared scaled, so that
    neither overflows.  A charge beyond the float range fails it too (its
    square alone exceeds every coupling sum that fits)."""
    try:
        kf = k.as_floats()
    except InputError:
        return None
    e = math.frexp(float(np.max(np.abs(kf))))[1]
    scaled = np.ldexp(kf, -e)
    off = np.outer(scaled, scaled)
    np.fill_diagonal(off, 0.0)
    squares = scaled * scaled
    if squares.max() > np.linalg.norm(off):
        return None
    poles, counts = np.unique(-squares[squares > 0], return_counts=True)
    weights = -poles * counts
    gaps = poles - poles[:, None]  # gaps[i, j] = d_j - d_i
    lo = np.zeros(len(poles))
    hi = np.append(np.diff(poles), weights.sum())
    terms = np.empty_like(gaps)
    with np.errstate(divide="ignore"):  # a midpoint on the right pole gives +inf
        for _ in range(_HALVINGS):
            mid = 0.5 * (lo + hi)
            np.subtract(gaps, mid[:, None], out=terms)
            np.divide(weights, terms, out=terms)
            below = 1.0 + terms.sum(axis=1) < 0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    eigenvalues = np.concatenate((np.repeat(poles, counts - 1), poles + hi,
                                  np.zeros(len(kf) - counts.sum())))
    return np.ldexp(np.sort(eigenvalues), 2 * e)


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
