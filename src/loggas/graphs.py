"""Graph-theoretic cross-checks of the subset-ratio solver.

For an adjacency coupling matrix, -T- is the maximum edge density
|E(H)|/(|V(H)|-1) over induced subgraphs (the fractional arboricity), and
its ceiling is the minimal number of forests partitioning the edge set.
An exhaustive forest-partition oracle and a spin-glass-style ground-state
identity provide independent verification routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coupling import CouplingMatrix, GraphSpec, from_graph
from .errors import InputError, SizeLimitError
from .rational import TIE_TOL, tolerance
from .solver import SubsetMask, all_subset_sums, solve_t_minus

_ORACLE_MAX_N = 10
_ORACLE_MAX_EDGES = 20
_SK_MAX_N = 16


@dataclass(frozen=True)
class ArboricityReport:
    fractional: Fraction  # max |E(H)|/(|V(H)|-1) over induced subgraphs
    arboricity: int
    witness: SubsetMask


def arboricity(g: GraphSpec) -> ArboricityReport:
    """Fractional and integer arboricity via the exact ratio solver.

    The densest-subgraph maximum is attained at induced subgraphs, so
    optimizing over vertex subsets suffices."""
    if not g.edges:
        raise InputError("graph has no edges")
    c = from_graph(g)
    result = solve_t_minus(c)
    fractional = -result.t_value  # a Fraction: graph couplings are exact
    witness = result.optimizers[0]
    return ArboricityReport(fractional, math.ceil(fractional), witness)


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

    Independent of the ratio solver: tries color counts upward from the
    trivial bound ceil(|E|/(n-1)), with symmetry breaking on color order."""
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
