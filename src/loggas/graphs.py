"""Graph-theoretic cross-checks of the subset-ratio solver.

For an adjacency coupling matrix, -T- is the maximum edge density
|E(H)|/(|V(H)|-1) over induced subgraphs (the fractional arboricity), and
its ceiling is the minimal number of forests partitioning the edge set
(Nash-Williams).  A spin-glass-style ground-state identity checks the ratio
solver from another side.  The exhaustive forest-partition oracle that
checks ``arboricity`` is test code, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coupling import CouplingMatrix, GraphSpec, from_graph
from .errors import InputError, SizeLimitError
from .rational import TIE_TOL, tolerance
from .solver import SubsetMask, all_subset_sums, solve_t_minus

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
