"""Closed-form critical data for physical systems.

Two-component plasma under neutrality: beta+ = 1/(z1*z2), the optimum is
attained exactly at mixed pairs, kappa+ = min(n1, n2), and the free energy
diverges like z_small/(z1+z2) * log|beta - beta+|.  The negative-temperature
point-vortex system with a strict 3/2 bound on the per-sign charge variation
collapses one full sign class; beta- is the larger of two explicit
candidates.  Results hold numbers and particle indices; the CLI renders
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coupling import ChargeVector, TwoComponentSpec, neutrality_check
from .errors import DomainError, InputError
from .rational import Real

INEQ1 = "ineq1"
INEQ2 = "ineq2"
BOTH = "both"

POSITIVE_COLLAPSE = "positive_collapse"
NEGATIVE_COLLAPSE = "negative_collapse"
TIE = "tie"

_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class TwoComponentCritical:
    beta_plus: Real
    kappa_plus: int  # G+ is all mixed pairs
    free_energy_prefactor: Real


@dataclass(frozen=True)
class OnsagerCritical:
    beta_minus: Real
    winning_side: str  # positive_collapse | negative_collapse | tie
    candidate_pos: Real  # -inf when fewer than two positive charges
    candidate_neg: Real
    collapsing: tuple  # the index tuple of each sign class that collapses


def two_component_critical(spec: TwoComponentSpec) -> TwoComponentCritical:
    """Critical data of the neutral two-component plasma.

    Species are relabeled internally so the first carries the larger charge
    magnitude; under neutrality that species is the smaller one, and
    kappa+ = min(n1, n2)."""
    neutrality_check(spec)
    swapped = spec.z2 > spec.z1
    n1, z1 = (spec.n2, spec.z2) if swapped else (spec.n1, spec.z1)
    n2, z2 = (spec.n1, spec.z1) if swapped else (spec.n2, spec.z2)

    if spec.is_exact:
        beta_plus = Fraction(1) / (Fraction(z1) * Fraction(z2))
        prefactor = Fraction(z2) / (Fraction(z1) + Fraction(z2))
    else:
        beta_plus = 1.0 / (float(z1) * float(z2))
        prefactor = float(z2) / (float(z1) + float(z2))
    return TwoComponentCritical(
        beta_plus=beta_plus,
        kappa_plus=min(n1, n2),
        free_energy_prefactor=prefactor,
    )


def technical_inequality(z: Real, a: int, b: int) -> str:
    """Which of |z*a - b| >= z - (a+b-1) and a+b >= z+1 holds.

    a and b must be odd integers of the form 2k-1 with k >= 0, not both -1;
    z >= 1.  At least one inequality always holds."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise InputError("a and b must be integers")
    if a % 2 == 0 or b % 2 == 0 or a < -1 or b < -1 or (a == -1 and b == -1):
        raise InputError(f"(a,b)=({a},{b}) is not an admissible odd pair")
    if not z >= 1:
        raise ValueError(f"z must be >= 1, got {z}")

    first = abs(z * a - b) >= z - (a + b - 1)
    second = a + b >= z + 1
    if first and second:
        return BOTH
    if first:
        return INEQ1
    if second:
        return INEQ2
    raise AssertionError(f"neither inequality holds for z={z}, a={a}, b={b}")


def _split_signs(k: ChargeVector):
    pos = tuple(i for i, v in enumerate(k.values) if v > 0)
    neg = tuple(i for i, v in enumerate(k.values) if v < 0)
    return pos, neg


def onsager_conditions(k: ChargeVector) -> bool:
    """Strict 3/2-variation conditions on each sign class.

    Requires both signs present and more than two particles."""
    pos, neg = _split_signs(k)
    if not pos or not neg:
        raise InputError("need at least one positive and one negative charge")
    if k.n <= 2:
        raise InputError("need N > 2")
    pos_vals = [k.values[i] for i in pos]
    neg_vals = [-k.values[i] for i in neg]
    cond_pos = max(pos_vals) * 2 < 3 * min(pos_vals)
    cond_neg = max(neg_vals) * 2 < 3 * min(neg_vals)
    return bool(cond_pos and cond_neg)


def _pair_sum(k: ChargeVector, idx) -> Real:
    exact = k.is_exact
    total = Fraction(0) if exact else 0.0
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            prod = k.values[i] * k.values[j]
            total += Fraction(prod) if exact else float(prod)
    return total


def onsager_beta_minus(k: ChargeVector) -> OnsagerCritical:
    """beta- for a point-vortex system satisfying the variation conditions.

    The two candidates are (1-N_s)/sum_{i<j in s} k_i k_j over the positive
    and the negative index classes; beta- is their maximum and the winning
    class collapses totally.  A side with a single particle cannot collapse
    and contributes -inf."""
    if not onsager_conditions(k):
        raise DomainError("charge vector fails the 3/2-variation conditions")
    pos, neg = _split_signs(k)

    def candidate(idx):
        if len(idx) < 2:
            return -math.inf
        return (1 - len(idx)) / _pair_sum(k, idx)

    cand_pos = candidate(pos)
    cand_neg = candidate(neg)

    fp, fn = float(cand_pos), float(cand_neg)
    if math.isfinite(fp) and math.isfinite(fn) and \
            abs(fp - fn) <= _TIE_RTOL * max(abs(fp), abs(fn)):
        side = TIE
        beta = cand_pos if fp >= fn else cand_neg
        collapsing = (pos, neg)
    elif fp > fn:
        side = POSITIVE_COLLAPSE
        beta = cand_pos
        collapsing = (pos,)
    else:
        side = NEGATIVE_COLLAPSE
        beta = cand_neg
        collapsing = (neg,)
    return OnsagerCritical(beta, side, cand_pos, cand_neg, collapsing)
