#!/usr/bin/env python3
"""Sample the Gibbs measure across a temperature sweep and track collapse.

Two systems with known limiting behavior:
  * two-component plasma (n1=n2, z1=z2=1): dipole formation as beta -> 1,
    visible as a shrinking minimum opposite-charge distance;
  * equal charges at the sqrt(2/(N-1)) normalization: total collapse as
    beta -> beta- = -1 + 1/N, visible in the maximum pair distance.

Example:
    python scripts/collapse_experiment.py --steps 50000 --out collapse.csv
"""

import argparse
import math

from loggas import (
    ChainParams,
    ChargeVector,
    collapse_observables,
    critical_interval,
    from_charges,
    metropolis_chain,
)
from loggas.sphere_mc import write_collapse_csv


def sweep(matrix, labels, betas, args, seed0):
    """(beta, CollapseStats) for each beta, one chain each."""
    rows = []
    for j, beta in enumerate(betas):
        params = ChainParams(beta=beta, steps=args.steps, burn_in=args.burn_in,
                             thin=args.thin, seed=seed0 + j)
        chain = metropolis_chain(matrix, params)
        stats = collapse_observables(chain.configurations, labels)
        rows.append((beta, stats))
        print(f"  beta={beta:+.2f}: acceptance={chain.acceptance_rate:.2f} "
              f"median max dist={stats.max_quantiles[2]:.3f}")
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=2, help="particles per species")
    parser.add_argument("--steps", type=int, default=50_000)
    parser.add_argument("--burn-in", type=int, default=5_000)
    parser.add_argument("--thin", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="collapse.csv")
    args = parser.parse_args()

    m = args.pairs
    plasma = from_charges(ChargeVector((1.0,) * m + (-1.0,) * m))
    print(f"two-component plasma, N={2*m}, beta+ = 1:")
    rows = sweep(plasma, [0] * m + [1] * m, (0.0, 0.5, 0.9), args, args.seed)

    n = 2 * m
    equal = from_charges(ChargeVector((math.sqrt(2.0 / (n - 1)),) * n))
    beta_minus = float(critical_interval(equal).beta_minus)
    betas = (0.0, 0.55 * beta_minus, 0.8 * beta_minus)
    print(f"equal charges, N={n}, beta- = {beta_minus:+.3f}:")
    rows += sweep(equal, [0] * n, betas, args, args.seed + 100)

    write_collapse_csv(args.out, rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
