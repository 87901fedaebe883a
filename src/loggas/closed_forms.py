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

from .coupling import ChargeVector, TwoComponentSpec
from .errors import DomainError, InputError
from .rational import TIE_TOL, Real, tolerance

NEUTRALITY_RTOL = 1e-12
POSITIVE_COLLAPSE = "positive_collapse"
NEGATIVE_COLLAPSE = "negative_collapse"
TIE = "tie"


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


def _in_range(name: str, compute) -> Real:
    """``compute()``, or an InputError naming ``name`` when it divides by
    zero, overflows, or gives 0 or a value beyond the float range.  An
    exact value passes when its float is finite: tiny ones are kept."""
    try:
        value = compute()
        if value != 0 and math.isfinite(value):
            return value
    except (ZeroDivisionError, OverflowError):
        pass
    raise InputError(f"{name} is beyond the float range")


def two_component_critical(spec: TwoComponentSpec) -> TwoComponentCritical:
    """Critical data of the neutral two-component plasma.

    Under neutrality the species of larger charge magnitude is the smaller
    one, so kappa+ = min(n1, n2) and the prefactor is min(z1, z2)/(z1 + z2).
    Neither depends on the species order: IEEE + and * commute.  Float
    n1*z1, n2*z2 and beta+ must be in the float range (``_in_range``)."""
    def as_float(name, value):
        return _in_range(name, lambda: float(value))

    a, b = spec.n1 * spec.z1, spec.n2 * spec.z2
    if not spec.is_exact:
        a, b = as_float("n1*z1", a), as_float("n2*z2", b)
    # exact sides must be equal; float ones agree relative to the larger, with no floor
    if abs(a - b) > tolerance(0 if spec.is_exact else NEUTRALITY_RTOL, max(a, b), 0.0):
        raise InputError(f"n1*z1 = {as_float('n1*z1', a)} != n2*z2 = {as_float('n2*z2', b)}")
    num = Fraction if spec.is_exact else float
    z1, z2 = num(spec.z1), num(spec.z2)
    return TwoComponentCritical(
        beta_plus=_in_range("beta+ = 1/(z1*z2)", lambda: 1 / (z1 * z2)),
        kappa_plus=min(spec.n1, spec.n2),
        free_energy_prefactor=min(z1, z2) / (z1 + z2),
    )


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
    """sum_{i<j in idx} k_i k_j, each product cast to the mode's type and
    added left to right (Python 3.12's sum() would compensate floats)."""
    num = Fraction if k.is_exact else float
    total = num(0)
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            total += num(k.values[i] * k.values[j])
    return total


def onsager_beta_minus(k: ChargeVector) -> OnsagerCritical:
    """beta- for a point-vortex system satisfying the variation conditions.

    The two candidates are (1-N_s)/sum_{i<j in s} k_i k_j over the positive
    and the negative index classes; beta- is their maximum and the winning
    class collapses totally.  A side with a single particle cannot collapse
    and contributes -inf.  Exact charges compare the candidates exactly.
    Float charges tie by the solver's rule: the classes' ratios r = -1/cand
    tie when |r_pos - r_neg| <= tolerance(TIE_TOL, max r, s), s the product
    of the two largest |k_i| (the largest |c_ij|).  A candidate whose float
    is out of range is an InputError, and so is a float pair sum that
    underflows to 0 or overflows."""
    if not onsager_conditions(k):
        raise DomainError("charge vector fails the 3/2-variation conditions")
    pos, neg = _split_signs(k)

    def candidate(idx, side: str):
        if len(idx) < 2:
            return -math.inf
        return _in_range(f"the {side} Onsager candidate",
                         lambda: (1 - len(idx)) / _pair_sum(k, idx))

    cand_pos, cand_neg = candidate(pos, "positive-side"), candidate(neg, "negative-side")
    if k.is_exact:
        tie = cand_pos == cand_neg
    else:
        r_pos, r_neg = -1 / cand_pos, -1 / cand_neg
        a, b = sorted(map(abs, k.as_floats().tolist()))[-2:]
        tie = math.isfinite(cand_pos) and math.isfinite(cand_neg) and \
            abs(r_pos - r_neg) <= tolerance(TIE_TOL, max(r_pos, r_neg), a * b)
    if tie:
        side, collapsing = TIE, (pos, neg)
    elif cand_pos > cand_neg:
        side, collapsing = POSITIVE_COLLAPSE, (pos,)
    else:
        side, collapsing = NEGATIVE_COLLAPSE, (neg,)
    return OnsagerCritical(max(cand_pos, cand_neg), side, cand_pos, cand_neg, collapsing)
