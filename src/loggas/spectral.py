"""Eigenvalue bounds on the critical inverse temperatures.

The subset ratio equals half a Rayleigh-Ritz-type quotient of the coupling
matrix over 0/1 vectors, which gives T+ <= -lambda_min(C) and
-T- <= lambda_max(C).  In the charge case c(i,j) = k_i k_j the Weil
inequalities give T+ <= max k_i^2 and -T- <= sum k_i^2 - min k_i^2.  This
module states each bound once, in that form (``BoundReport``).  The beta
bounds that ``bounds`` prints are derived from it (beta+ >= 1/u for the
bound u on T+, beta- <= -1/v for the bound v on -T-), and the ensemble
checks its trials against it.

The eigenvalues come from one self-contained kernel (``_eigenvalues``); no
external eigensolver is involved on this path.  It reduces C to a symmetric
tridiagonal matrix by Householder reflections, one rank-2 update per column
(Householder 1958), then bisects every eigenvalue of that matrix together
on Sturm counts (Barth, Martin & Wilkinson 1967): O(n^3) elementwise numpy
work, then O(n^2) per halving.  The kernel steps a stack of same-size
matrices in one array, and each member's eigenvalues are those of a stack
of one, bit for bit.  ``symmetric_eigs`` is a stack of one and
``eig_bounds_many`` stacks the ensemble's trials, so ``bounds`` and
``ensemble`` read each bound from the one solver.

A ``Spectrum``'s eigenvectors, residual and sweep count come from a
Brent-Luk round-robin Jacobi solver (``_jacobi``) on [A; V], A with its
eigenvector matrix V carried through the same rotations.  It runs when one
of them is first read, which no command does.  Each round applies all its
rotations as whole-matrix broadcasts over a partner gather (index p
swapped with its pair q).  That computes cs*x + (-sn)*y where a per-pair
rotation computes cs*x - sn*y, the same IEEE double, so the layout changes
no bit of the result.  The circle method makes each round's partner map a
few reversed contiguous runs, so the column gather is a handful of slice
copies, read from a schedule built once per n (``_schedule``).

A charge system's C = kk' - diag(k*k) has its eigenvalues from the secular
equation instead (``charge_eigenvalues``): O(n^2) per halving of a
vectorised bisection and no reduction, accurate to about eps * max k^2.
``bounds`` takes that path when max k^2 <= ||C||_F, within the kernel's
own eps * ||C||_F.

The eigenvalues are floats, so the eigenvalue bounds hold only up to
roundoff: on the matrix C = kk' - I with k = (1,1,-1,-1), whose exact beta+
is 1, the kernel's float bound -1/lambda_min is 0.9999999999999996, four
ulps below it (the secular equation gives the exact -1, -1, -1, 3 for
those charges).
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

# `bounds` (two kernel calls) on random couplings, as a process on one CPU of
# a 2-core Intel Xeon VM, takes 21.6-25.0 s at n = 1536, 24.0-28.5 s at 1664
# and 37.3 s at 1792: 1664 is the largest multiple of 128 within 30 s
_MAX_N = 1664
_SWEEP_CAP = 100
_OFFDIAG_RTOL = 1e-12
# per secular root or Sturm bracket: its ends 2^-64 as wide, under eps * max k^2
# (n <= 4096), and under eps * ||C||_F / 1000 (Gershgorin width <= 2 sqrt(3) ||C||_F)
_HALVINGS = 64
# Sturm values per numpy call that a bisection pass aims at: below a few
# thousand, a call's fixed cost outweighs its arithmetic
_PASS_VALUES = 1024


class _Solved(NamedTuple):
    """``_jacobi``'s result: eigenvalues ascending, the sweep count, the
    eigenvectors (column i pairs with eigenvalues[i]) and the residual."""

    eigenvalues: np.ndarray
    sweeps: int
    eigenvectors: np.ndarray
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """The eigenvalues of ``c`` sorted ascending, from the tridiagonal
    kernel.  The eigenvectors, the residual max|C V - V diag(lambda)| and
    the sweep count are formed on first read of any of them by the [A; V]
    Jacobi on the same ``c``, and kept.  Column i of the eigenvectors pairs
    with the Jacobi's eigenvalue i, which is ``eigenvalues[i]`` up to
    roundoff, and the residual is measured against the Jacobi's own."""

    c: CouplingMatrix
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    @functools.cached_property
    def _full(self) -> _Solved:
        solved = _jacobi(self.c)
        solved.eigenvectors.setflags(write=False)
        return solved

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._full.eigenvectors

    @property
    def residual(self) -> float:
        return self._full.residual

    @property
    def sweeps(self) -> int:
        return self._full.sweeps


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
    """The rounds of ``_round_robin(n)`` as ``_jacobi`` applies them: per
    round P, Q, the partner array (an idle index of odd n is its own
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


def _spectrum(c: CouplingMatrix, a: np.ndarray, v: np.ndarray, exponent: int,
              sweeps: int) -> _Solved:
    eigenvalues = np.ldexp(np.diag(a), exponent)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    residual = float(np.max(np.abs(c.entries @ vectors - vectors * eigenvalues)))
    return _Solved(eigenvalues, sweeps, vectors, residual)


def _jacobi(c: CouplingMatrix) -> _Solved:
    """The eigenvalues (ascending), sweep count, eigenvectors and residual
    of ``c`` by Brent-Luk round-robin Jacobi.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (Brent & Luk 1985).  Rotations in one round touch disjoint rows
    and columns, so a round computes all its angles at once and applies
    them as whole-array operations.  The matrix is swept until its
    off-diagonal Frobenius norm falls below 1e-12 * ||C||_F (cap: 100
    sweeps).

    A and V live in one (2n, n) array w = [A; V].  Each round has a partner
    index array (partner[p] = q, partner[q] = p; an idle index of odd n is
    its own partner) and per-index coefficients cf (cs at p and q, else 1)
    and sf (-sn at p, +sn at q, else 0).  The columns of A and V become
    cf * w + sf * w[:, partner], then the rows of A likewise.  Per element
    that is cs*x + (-sn)*y and cs*y + sn*x; in IEEE arithmetic these equal
    cs*x - sn*y and sn*x + cs*y exactly, and an idle index gets x*1 + x*0 =
    x, so the bits match a per-pair gather/scatter rotation of the same
    schedule.

    The round's indices come from ``_schedule(n)``.  The column gather is
    made as the schedule's slice runs, copied into one buffer; the row
    gather is one ``np.take`` of rows; a_pq and the diagonal are read
    through flat offsets.  Each copies the same values, so no bit changes.
    The copy views are built once per call, not once per round.

    The matrix is swept as C / 2^e, where 2^e is the power of two that
    brings max|C| into [1/2, 1), so that ||C||_F neither overflows (entries
    near 1e200) nor underflows (near 1e-200).  Every rotation and the
    stopping rule are homogeneous in C, so short of underflow the scaling
    changes no bit of the result.
    """
    n = c.n
    exponent = math.frexp(float(np.max(np.abs(c.entries))))[1]
    w = np.empty((2 * n, n))
    np.ldexp(c.entries, -exponent, out=w[:n])
    w[n:] = np.eye(n)
    a, flat = w[:n], w.reshape(-1)
    norm_c = float(np.linalg.norm(a))
    tmp = np.empty_like(w)
    rows = tmp[:n]  # tmp is spent by then
    cf, sf = np.empty((1, n)), np.empty((1, n))
    cf_flat, sf_flat = cf.reshape(-1), sf.reshape(-1)
    cf_rows, sf_rows = cf.reshape(n, 1), sf.reshape(n, 1)
    plan = [(pq, qp, p * (n + 1), q * (n + 1), p, q, partner,
             tuple((tmp[:, dst], w[:, src]) for dst, src in runs))
            for p, q, partner, runs, pq, qp in _schedule(n)]
    sweeps = 0
    while True:
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        if not (float(np.linalg.norm(off)) > _OFFDIAG_RTOL * norm_c and norm_c > 0.0):
            return _spectrum(c, a, w[n:], exponent, sweeps)
        if sweeps >= _SWEEP_CAP:
            raise InputError(f"Jacobi did not converge in {_SWEEP_CAP} sweeps")
        sweeps += 1
        for pq, qp, pp, qq, p, q, partner, copies in plan:
            apq = flat[pq]
            live = apq != 0.0  # a zero pair gets the identity rotation
            theta = (flat[qq] - flat[pp]) / (2.0 * np.where(live, apq, 1.0))
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(live, t, 0.0)
            cs = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * cs
            cf.fill(1.0)  # an idle index (odd n) keeps 1 and 0
            sf.fill(0.0)
            cf_flat[p] = cs
            cf_flat[q] = cs
            sf_flat[p] = -sn
            sf_flat[q] = sn
            # columns of A and V at once, then rows of A (A stays symmetric)
            for dst, src in copies:
                np.copyto(dst, src)
            tmp *= sf
            w *= cf
            w += tmp
            # mode="clip" (every row is in range) lets take write to out unbuffered
            np.take(w, partner, axis=0, out=rows, mode="clip")
            rows *= sf_rows
            a *= cf_rows
            a += rows
            flat[pq] = 0.0
            flat[qp] = 0.0


def _tridiagonalise(a: np.ndarray) -> tuple:
    """The diagonal (m, n) and off-diagonal (m, n - 1) of a symmetric
    tridiagonal matrix similar to each symmetric a[k]; ``a`` is overwritten.

    Step k takes row k of the trailing block right of its diagonal, x (the
    block is symmetric, so that is its column k below the diagonal), and
    reflects it onto its first entry alpha = -sign(x_0) |x| by I - yy',
    with y = (x - alpha e_1) / sqrt(|x| (|x| + |x_0|)): ||y||^2 = 2, and no
    sum cancels.  The block B past row k becomes (I - yy') B (I - yy') =
    B - yw' - wy', where p = By and w = p - (y'p / 2) y: one rank-2 update,
    formed as yw' + wy', which is symmetric to the bit, so B stays so.  A
    row whose squares past x_0 sum to 0 (all zero, or each under about
    1e-162 of a matrix scaled to max |c| >= 1/2) is not reflected: its tail
    is dropped, a change far below eps.

    Every operation is elementwise or a sum along a contiguous last axis,
    with no BLAS call, whose summation order could depend on the stack or
    on alignment: each a[k] gets the operations of a stack of one."""
    m, n, _ = a.shape
    e = np.empty((m, n - 1))
    buffers = np.empty((2, m * (n - 1) ** 2))
    for k in range(n - 2):
        r = n - 1 - k
        x = a[:, k, k + 1:]
        x0 = x[:, 0]
        sigma = np.sum(x[:, 1:] * x[:, 1:], axis=1)
        norm = np.sqrt(x0 * x0 + sigma)
        live = sigma > 0.0
        e[:, k] = np.where(live, -np.copysign(norm, x0), x0)
        scale = np.where(live, np.sqrt(norm) * np.sqrt(norm + np.abs(x0)), np.inf)
        y = x / scale[:, None]  # a row not reflected gets y = 0
        y[:, 0] = (x0 - e[:, k]) / scale
        block = a[:, k + 1:, k + 1:]
        b, bt = (buf[: m * r * r].reshape(m, r, r) for buf in buffers)
        np.multiply(block, y[:, None, :], out=b)
        p = np.sum(b, axis=2)
        w = p - 0.5 * np.sum(y * p, axis=1)[:, None] * y
        np.multiply(y[:, :, None], w[:, None, :], out=b)
        np.multiply(w[:, :, None], y[:, None, :], out=bt)
        b += bt
        block -= b
    e[:, n - 2] = a[:, n - 2, n - 1]
    return np.diagonal(a, axis1=1, axis2=2).copy(), e


def _bisect(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalue j of each symmetric tridiagonal matrix (d[k], e[k]), for
    every k and j at once: the lower end of its bracket after ``_HALVINGS``
    halvings of the matrix's Gershgorin interval.  A bracket [lo, hi) keeps
    count(lo) <= j < count(hi), so an eigenvalue that is a float ends as lo.

    The Sturm count at x is the number of negative pivots q_i = (d_i - x) -
    e_{i-1}^2 / q_{i-1} of T - xI, which is the number of eigenvalues below
    x (Sylvester's law of inertia); so eigenvalue j is below x when the
    count exceeds j.  The count reads the sign bit of each q, and IEEE
    division settles a zero pivot (Kahan 1966; Demmel & Kahan 1990): +0
    (-0) counts as a tiny positive (negative) pivot, the next is -inf
    (+inf), and the one after that d - x again.  Where e_{i-1} = 0 the
    matrix splits, and q_i is d_i - x whatever q_{i-1} is (no 0/0).

    A pass makes b halvings of every bracket at once.  It counts at the
    2^b - 1 points that b halvings can visit, each the midpoint
    0.5 * (lo + hi) of its neighbours, and follows the halvings' path
    through them, so it gives the bits of b single halvings whatever b is.
    b is 4, 2 or 1: the largest with at most ``_PASS_VALUES`` points per
    pivot, as a pass costs n - 1 pairs of numpy calls on that many."""
    m, n = d.shape
    radius = np.zeros((m, n))
    radius[:, 1:] += np.abs(e)
    radius[:, :-1] += np.abs(e)
    # bracket j of matrix k at k * n + j; hi is past the top, so count(hi) = n
    lo = np.repeat(np.min(d - radius, axis=1), n)
    hi = np.repeat(np.nextafter(np.max(d + radius, axis=1), np.inf), n)
    bits = next(b for b in (4, 2, 1) if ((1 << b) - 1) * m * n <= _PASS_VALUES or b == 1)
    k = (1 << bits) - 1
    points = np.empty((m * n, k + 2))  # per bracket: its ends and the points between
    pivots = np.empty((m, n, n * k))  # pivot i at point s of bracket j: [:, i, j * k + s]
    quotient = np.empty((m, n * k))
    e2 = (e * e)[:, :, None]
    steps = [(pivots[:, i - 1], pivots[:, i], e2[:, i - 1], bool((e2[:, i - 1] == 0.0).any()))
             for i in range(1, n)]
    rank = np.arange(n)[:, None]
    first = np.arange(m * n) * k  # each bracket's first point in the flat counts
    ends = np.arange(m * n) * (k + 2)  # each bracket's lower end in the flat points
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(_HALVINGS // bits):
            points[:, 0], points[:, -1] = lo, hi
            for level in reversed(range(bits)):
                h = 1 << level
                mid = points[:, h::2 * h]
                np.add(points[:, : -h: 2 * h], points[:, 2 * h:: 2 * h], out=mid)
                mid *= 0.5
            np.subtract(d[:, :, None, None], points[:, 1:-1].reshape(m, 1, n, k),
                        out=pivots.reshape(m, n, n, k))
            for prev, cur, e2_i, split in steps:
                if split:
                    quotient.fill(0.0)
                    np.divide(e2_i, prev, out=quotient, where=e2_i != 0.0)
                else:
                    np.divide(e2_i, prev, out=quotient)
                cur -= quotient
            below = (np.signbit(pivots).sum(axis=1).reshape(m, n, k) > rank).ravel()
            at = np.zeros(m * n, dtype=np.intp)  # the bracket's lower end among its points
            for level in reversed(range(bits)):
                step = 1 << level
                at += np.where(below[first + at + (step - 1)], 0, step)
            at += ends
            lo, hi = points.ravel()[at], points.ravel()[at + 1]
    return lo.reshape(m, n)


def _eigenvalues(matrices: list) -> np.ndarray:
    """The eigenvalues of each of ``matrices`` (all of one size n),
    ascending, as the rows of an (m, n) array: Householder reduction to
    tridiagonal form (``_tridiagonalise``), then bisection on Sturm counts
    (``_bisect``), on all of them at once.

    Each matrix is reduced as C / 2^e, where 2^e is the power of two that
    brings max|C| into [1/2, 1), and its eigenvalues are scaled back by an
    exact 2^e; short of underflow the scaling changes no bit.  Both steps
    apply the same operations to each member as to a stack of one, so each
    row is that of a stack of one, bit for bit."""
    n = matrices[0].n
    if n > _MAX_N:
        raise SizeLimitError(f"eigensolver limited to n <= {_MAX_N}")
    a = np.stack([c.entries for c in matrices])  # a ValueError unless one size
    exponents = np.array([math.frexp(x)[1] for x in np.max(np.abs(a), axis=(1, 2)).tolist()])
    np.ldexp(a, -exponents[:, None, None], out=a)
    return np.ldexp(np.sort(_bisect(*_tridiagonalise(a)), axis=1), exponents[:, None])


def symmetric_eigs(c: CouplingMatrix) -> Spectrum:
    """The eigenvalues of the coupling matrix, ascending: ``_eigenvalues``
    on a stack of one.  The eigenvectors, residual and sweep count are
    solved for by the [A; V] Jacobi when first read (``Spectrum``)."""
    return Spectrum(c, _eigenvalues([c])[0])


def eig_bounds(c: CouplingMatrix) -> BoundReport:
    """T+ <= -lambda_min and -T- <= lambda_max, from one ``symmetric_eigs``."""
    return BoundReport.from_eigenvalues(symmetric_eigs(c).eigenvalues)


def eig_bounds_many(cs: list) -> list:
    """``eig_bounds`` of each matrix of ``cs`` (all of one size), from one
    ``_eigenvalues`` stack: each report is the one ``eig_bounds`` gives,
    bit for bit.  The stack holds every matrix at once, so the caller sizes
    ``cs``."""
    return [BoundReport.from_eigenvalues(x) for x in _eigenvalues(cs)]


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

    The roots are accurate to about eps * max k_i^2 and ``symmetric_eigs``
    to about eps * ||C||_F, hence the rule; its two sides are compared scaled, so that
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
