"""Oracles that only the tests call, each independent of the code it checks.

``forest_partition_oracle`` checks ``graphs.arboricity`` by exhaustive edge
colouring, without the ratio solver.  ``energy`` checks the running energies
of ``sphere_mc.metropolis_chain`` with a row-major loop over the pairs, not
the package's particle-major pair kernel; nothing here imports
``loggas.sphere_mc``.  ``three_particle_partition`` gives the exact
partition function of three particles by quadrature, for the sampler's
estimates.  The oracles that the benchmark gate imports too
(``brute_force_oracle``, ``analytic_partition_two``) stay in the package.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as beta_function
from scipy.special import gamma, hyp2f1

from loggas import CouplingMatrix, GraphSpec
from loggas.errors import DomainError, InputError, SizeLimitError

_ORACLE_MAX_N = 10
_ORACLE_MAX_EDGES = 20


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
    finite on the interval: each beta c_ij > -1 and p > 0.  Within about
    1e-4 of s = -1/2, where the collision term turns logarithmic, quad
    warns that it misses its 1e-12 tolerance."""
    a, g, s = beta * c12, beta * c13, beta * c23
    p = a + g + s + 2
    if min(a, g, s) <= -1 or p <= 0:
        raise DomainError(f"Z is infinite at beta={beta} on couplings {(c12, c13, c23)}")
    e = min(0.0, 1 + 2 * s)

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
        tail = quad(lambda q: collision(q) * h(q) * q ** min(g, 0), 0.5, 1, weight="alg",
                    wvar=(0, e), epsabs=0, epsrel=1e-12, limit=200)[0]
        return head + tail

    return float(4 ** (a + g + s) * beta_function(p, s + 2) * (region(a, g) + region(g, a)))
