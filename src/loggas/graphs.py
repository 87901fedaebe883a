"""Graph arboricity from the subset-ratio solver.

For an adjacency coupling matrix, -T- is the maximum edge density
|E(H)|/(|V(H)|-1) over induced subgraphs (the fractional arboricity), and
its ceiling is the minimal number of forests partitioning the edge set
(Nash-Williams).  The exhaustive forest-partition oracle that checks
``arboricity``, and the spin-glass ground-state identity that checks the
ratio solver from another side, are test code, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coupling import GraphSpec, from_graph
from .errors import InputError
from .solver import SubsetMask, solve_t_minus


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
