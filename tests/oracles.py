"""Oracles that only the tests call, each independent of the code it checks.

``forest_partition_oracle`` checks ``graphs.arboricity`` by exhaustive edge
colouring, without the ratio solver.  ``sk_ground_state_check`` checks the
ratio solver against a 0/1-spin ground state found by exhaustive search over
``solver.all_subset_sums``, which shares no code with the scan kernel.
``energy`` checks the running energies of ``sphere_mc.metropolis_chain``
with a row-major loop over the pairs, not the package's particle-major pair
kernel; nothing here imports ``loggas.sphere_mc``.
``three_particle_partition`` gives the exact partition function of three
particles by quadrature, for the sampler's estimates.  The oracles that the
benchmark gate imports too (``brute_force_oracle``,
``analytic_partition_two``) stay in the package.
"""

import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad
from scipy.special import beta as beta_function
from scipy.special import gamma, hyp2f1, zeta

from loggas import CouplingMatrix, GraphSpec
from loggas.errors import DomainError, InputError, SizeLimitError
from loggas.rational import TIE_TOL, tolerance
from loggas.solver import all_subset_sums, solve_t_minus

_ORACLE_MAX_N = 10
_ORACLE_MAX_EDGES = 20
_SK_MAX_N = 16


class _RollbackUnionFind:
    """Union-find without path compression so unions can be undone."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.trail = []

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        bumped = self.rank[ra] == self.rank[rb]
        if bumped:
            self.rank[ra] += 1
        self.trail.append((rb, ra, bumped))
        return True

    def undo(self):
        rb, ra, bumped = self.trail.pop()
        self.parent[rb] = rb
        if bumped:
            self.rank[ra] -= 1


def forest_partition_oracle(g: GraphSpec) -> int:
    """Minimal number of forests partitioning the edge set, by exhaustive
    edge coloring with acyclicity checks per color.

    Tries color counts upward from the trivial bound ceil(|E|/(n-1)), with
    symmetry breaking on color order."""
    if g.n > _ORACLE_MAX_N or len(g.edges) > _ORACLE_MAX_EDGES:
        raise SizeLimitError(
            f"oracle limited to n <= {_ORACLE_MAX_N}, |E| <= {_ORACLE_MAX_EDGES}"
        )
    if not g.edges:
        raise InputError("graph has no edges")
    edges = list(g.edges)
    m = len(edges)

    def colorable(t: int) -> bool:
        forests = [_RollbackUnionFind(g.n) for _ in range(t)]

        def place(e: int, used: int) -> bool:
            if e == m:
                return True
            u, v = edges[e]
            limit = min(used + 1, t)  # new color only in first-use order
            for color in range(limit):
                if forests[color].union(u, v):
                    if place(e + 1, max(used, color + 1)):
                        return True
                    forests[color].undo()
            return False

        return place(0, 0)

    t = max(1, math.ceil(m / (g.n - 1)))
    while not colorable(t):
        t += 1
    return t


def sk_ground_state_check(c: CouplingMatrix, tie_tol: float = TIE_TOL) -> bool:
    """Ground-state identity between the ratio optimum and a 0/1-spin
    Hamiltonian with external field -T-.

    Exhaustively verifies that min over chi in {0,1}^n, chi'chi >= 2, of
    -1/2 chi' C chi - T- * sum(chi) equals -T-, and that the minimizers are
    exactly the subsets attaining the ratio maximum.  The 1/2 factor matches
    the quadratic form of the ratio identity; without it the identity fails
    on hand examples.  In float mode ``tie_tol`` is both the solver's tie
    tolerance and the rtol of these comparisons, under the solver's rule
    ``rational.tolerance``; exact mode compares exactly."""
    if c.n > _SK_MAX_N:
        raise SizeLimitError(f"check limited to n <= {_SK_MAX_N}")
    if not 0 < tie_tol < math.inf:
        raise InputError("tol must be positive and finite")
    result = solve_t_minus(c, tie_tol=tie_tol)
    t_minus = result.t_value
    sums = all_subset_sums(c)

    # -1/2 chi'C chi = -a ; objective = -a - T- * |S|
    def objective(mask):
        return -sums[mask] - t_minus * mask.bit_count()

    def ratio(mask):
        return sums[mask] / (mask.bit_count() - 1)

    best = min(objective(m) for m in sums)
    top = max(ratio(m) for m in sums)

    rtol, scale = (0 if c.is_exact else tie_tol), c.scale

    def close(x, y):
        return abs(x - y) <= tolerance(rtol, y, scale)

    minimizers = {m for m in sums if close(objective(m), best)}
    argmax_masks = {m for m in sums if close(ratio(m), top)}

    value_ok = close(best, -t_minus)
    sets_ok = minimizers == argmax_masks
    if result.attained:
        solver_masks = set(s.bits for s in result.optimizers)
        sets_ok = sets_ok and solver_masks == argmax_masks
    return bool(value_ok and sets_ok)


def energy(c: CouplingMatrix, points) -> float:
    """E = -sum_{i<j} c(i,j) log d(p_i,p_j)^2 for an (N,3) array of points,
    chordal distance in R^3, one coupled pair at a time in row-major order.
    Two coincident coupled particles are a DomainError."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N,3) array, got {points.shape}")
    if points.shape[0] != c.n:
        raise ValueError(f"configuration has {points.shape[0]} points, matrix has n={c.n}")
    rows = points.tolist()
    total = 0.0
    for i in range(c.n):
        for j in range(i + 1, c.n):
            cij = float(c.entries[i, j])
            if cij == 0.0:
                continue
            d2 = sum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
            if d2 == 0.0:
                raise DomainError(f"particles {i} and {j} coincide")
            total -= cij * math.log(d2)
    return total


def _hyp2f1(a: float, b: float, d: float, z: float) -> float:
    """2F1(a, b; a+b+d; z) with c - a - b equal to d in floating point (b
    moves by at most an ulp).  Near z = 1, scipy 1.17 reads a c - a - b that
    rounding put next to an integer as not one, and loses every digit:
    2F1(1.05, 2; 3.05; 0.999) comes out as -52.4, not 12.57."""
    c = a + b + d
    return hyp2f1(a, (c - a) - d, c, z)


# |1 + 2s| below which three_particle_partition takes the collision term
# through its power series
_LOG_WINDOW = 0.05
# terms of those series: each shrinks about as 2^-n on x <= 1/2
_SERIES_TERMS = 60


def _collision_series(s: float) -> tuple:
    """(smooth, log_part): 2F1(-s, -s; 1; 1-x) = smooth(x) + log_part(x) log x
    for 0 < x <= 1/2, with no cancellation as eps = 1+2s goes to 0.

    The connection formula at 1 - x writes the 2F1 as D(x) - W(x) (x^eps -
    1)/eps, where W = K sum w_n x^n, w_n = Gamma(n+1/2+eps/2)^2 /
    (Gamma(n+1+eps) n!), K = cos(pi eps/2) / (pi^2 sinc(eps/2)), and D =
    sum d_n x^n is the sum of the two connection terms at x^eps = 1.  Each
    d_n is a difference of two gamma ratios over sin(pi eps/2); d_0 is taken
    from the odd and even parts in eps of log(Gamma(1/2+eps/2)^2 /
    Gamma(1+eps)), zeta series with no cancellation, and the differences of
    the later ratios follow exactly from d_0 by recurrence.  At eps = 0 this
    is Abramowitz and Stegun 15.3.10; log_part(x) is -W(x) times
    expm1(eps log x) / (eps log x)."""
    eps = 1 + 2 * s
    k = math.cos(math.pi * eps / 2) / (math.pi ** 2 * np.sinc(eps / 2))
    j = np.arange(1, 12)
    # the odd part of log(Gamma(1/2+eps/2)^2 / Gamma(1+eps)) over eps, and its even part
    odd = -2 * math.log(2) - np.sum((1 - 0.25 ** j) * eps ** (2 * j) * zeta(2 * j + 1)
                                    / (2 * j + 1))
    even = np.sum((1 - 2 * 0.25 ** j) * eps ** (2 * j) * zeta(2 * j) / (2 * j))
    sinhc = math.sinh(odd * eps) / (odd * eps) if eps else 1.0
    d, w = np.empty(_SERIES_TERMS), np.empty(_SERIES_TERMS)
    d[0] = -2 * math.pi * k * math.exp(even) * odd * sinhc
    w[0] = gamma(0.5 + eps / 2) ** 2 / gamma(1 + eps)
    for n in range(_SERIES_TERMS - 1):
        d[n + 1] = ((n + 0.5 - eps / 2) ** 2 / (n + 1 - eps) * d[n]
                    + k * (eps ** 2 / 2 - (n + 0.5)) / ((n + 1) ** 2 - eps ** 2) * w[n]) / (n + 1)
        w[n + 1] = w[n] * (n + 0.5 + eps / 2) ** 2 / ((n + 1 + eps) * (n + 1))

    def log_part(x):  # QUADPACK's Clenshaw-Curtis rule reads x = 0 too
        y = eps * math.log(x) if x else 0.0
        return -k * polyval(x, w) * (math.expm1(y) / y if y else 1.0)

    return (lambda x: polyval(x, d)), log_part


def three_particle_partition(c12: float, c13: float, c23: float, beta: float) -> float:
    """Z = E[prod_{i<j} (d_ij^2)^(beta c_ij)] for three independent uniform
    points on the unit sphere, by one-dimensional quadrature.

    Put p1 at the pole and write u = d^2/4 for the distances of p2 and p3
    to it; each u is uniform on [0, 1].  The mean over the azimuth between
    p2 and p3 of (d23^2/4)^s, s = beta c23, is ``(u2 (1-u3))^s *
    2F1(-s, -s; 1; q)`` with q = o3/o2 and o = u/(1-u) the odds, on the
    region u3 < u2 (a quadratic transformation of the azimuth mean
    ``(A+B)^s 2F1(-s, 1/2; 1; 2B/(A+B))``).  At fixed q the integral over
    o2 is Euler's integral of a 2F1, so the region gives

        4^(a+g+s) B(p, s+2) * integral_0^1 q^g 2F1(-s,-s;1;q) H(1-q) dq,

    with a = beta c12, g = beta c13, p = a+g+s+2, H = 2F1(g+s+2, p; a+g+2s+4;
    .), and the region u2 < u3 is the same with a and g swapped.  Near q = 1
    the first 2F1 grows as (1-q)^(1+2s) once s < -1/2: that half is
    integrated with QUADPACK's algebraic weight (1-q)^min(0, 1+2s), and
    the 2F1 is taken there through its connection formula at 1 - q.  Near
    q = 0, H(1-q) is finite for g < 0, and q^g the weight of that half; for
    g >= 0, q^g H(1-q) is finite by Euler's transformation, or grows as
    log q at g = 0, and that half is left to QUADPACK's extrapolation.  Z is
    finite on the interval: each beta c_ij > -1 and p > 0.  Within
    ``_LOG_WINDOW`` of s = -1/2 the collision term turns logarithmic, and
    both connection terms of the 2F1 grow as 1/(1+2s) and cancel: that half
    is taken through ``_collision_series`` instead, with QUADPACK's
    ``alg-logb`` weight log(1-q) on its logarithmic part."""
    a, g, s = beta * c12, beta * c13, beta * c23
    p = a + g + s + 2
    if min(a, g, s) <= -1 or p <= 0:
        raise DomainError(f"Z is infinite at beta={beta} on couplings {(c12, c13, c23)}")
    e = min(0.0, 1 + 2 * s)
    series = _collision_series(s) if abs(1 + 2 * s) < _LOG_WINDOW else None

    def collision(q):
        """2F1(-s, -s; 1; q) / (1-q)^e, for q >= 1/2."""
        if s >= -0.5:
            return hyp2f1(-s, -s, 1, q)
        return (gamma(1 + 2 * s) / gamma(1 + s) ** 2 * hyp2f1(-s, -s, -2 * s, 1 - q)
                * (1 - q) ** -e
                + gamma(-1 - 2 * s) / gamma(-s) ** 2 * hyp2f1(1 + s, 1 + s, 2 + 2 * s, 1 - q))

    def region(a, g):
        if g >= 0:
            def h(q):  # q^g H(1-q), by Euler's transformation
                return _hyp2f1(a + s + 2, s + 2, g, 1 - q)
            near_zero = {}
        else:
            def h(q):  # H(1-q); q^g is the weight near q = 0
                return _hyp2f1(g + s + 2, p, -g, 1 - q)
            near_zero = {"weight": "alg", "wvar": (g, 0)}
        head = quad(lambda q: hyp2f1(-s, -s, 1, q) * h(q), 0, 0.5, **near_zero,
                    epsabs=0, epsrel=1e-12, limit=200)[0]
        if series is None:
            return head + quad(lambda q: collision(q) * h(q) * q ** min(g, 0), 0.5, 1,
                               weight="alg", wvar=(0, e), epsabs=0, epsrel=1e-12, limit=200)[0]
        smooth, log_part = series
        return (head
                + quad(lambda q: smooth(1 - q) * h(q) * q ** min(g, 0), 0.5, 1,
                       epsabs=0, epsrel=1e-12, limit=200)[0]
                + quad(lambda q: log_part(1 - q) * h(q) * q ** min(g, 0), 0.5, 1,
                       weight="alg-logb", wvar=(0, 0), epsabs=0, epsrel=1e-12, limit=200)[0])

    return float(4 ** (a + g + s) * beta_function(p, s + 2) * (region(a, g) + region(g, a)))
