"""Oracles that only the tests call, each independent of the code it checks.

``forest_partition_oracle`` checks ``graphs.arboricity`` by exhaustive edge
colouring, without the ratio solver.  ``energy`` checks the running energies
of ``sphere_mc.metropolis_chain`` with a row-major loop over the pairs, not
the package's particle-major pair kernel; nothing here imports
``loggas.sphere_mc``.  The oracles that the benchmark gate imports too
(``brute_force_oracle``, ``analytic_partition_two``) stay in the package.
"""

import math

import numpy as np

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
