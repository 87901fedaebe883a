import math
import random
from fractions import Fraction

import pytest

from loggas import (
    ChargeVector,
    SubsetMask,
    TwoComponentSpec,
    critical_interval,
    from_charges,
    from_two_component,
    onsager_beta_minus,
    onsager_conditions,
    technical_inequality,
    two_component_critical,
)
from loggas.closed_forms import BOTH, INEQ1, INEQ2, NEGATIVE_COLLAPSE, POSITIVE_COLLAPSE, TIE
from loggas.errors import DomainError, InputError


# ---------------------------------------------------------------------------
# Two-component plasma
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n1,n2,z1,z2,beta,kappa,prefactor", [
    (2, 2, 1, 1, Fraction(1), 2, Fraction(1, 2)),
    (1, 2, 2, 1, Fraction(1, 2), 1, Fraction(1, 3)),
    (2, 3, 3, 2, Fraction(1, 6), 2, Fraction(2, 5)),
])
def test_two_component_closed_form(n1, n2, z1, z2, beta, kappa, prefactor):
    crit = two_component_critical(TwoComponentSpec(n1, n2, Fraction(z1), Fraction(z2)))
    assert crit.beta_plus == beta
    assert crit.kappa_plus == kappa
    assert crit.free_energy_prefactor == prefactor


def test_two_component_requires_neutrality():
    with pytest.raises(InputError, match=r"n1\*z1 = 4\.0 != n2\*z2 = 2\.0"):
        two_component_critical(TwoComponentSpec(2, 2, Fraction(2), Fraction(1)))


def test_two_component_agrees_with_solver():
    specs = [(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 1), (2, 3, 3, 2), (2, 4, 2, 1), (3, 3, 2, 2)]
    for n1, n2, z1, z2 in specs:
        spec = TwoComponentSpec(n1, n2, Fraction(z1), Fraction(z2))
        crit = two_component_critical(spec)
        report = critical_interval(from_two_component(spec))
        assert report.beta_plus == crit.beta_plus
        assert report.nests_plus.kappa == crit.kappa_plus
        mixed = {
            SubsetMask.from_indices((i, n1 + j)).bits
            for i in range(n1) for j in range(n2)
        }
        assert {s.bits for s in report.plus.optimizers} == mixed


# ---------------------------------------------------------------------------
# Technical inequality (totality over the admissible grid)
# ---------------------------------------------------------------------------

def test_technical_inequality_examples():
    assert technical_inequality(1, 1, 1) in (INEQ1, BOTH)  # |0| >= 0 boundary
    assert technical_inequality(2, 1, 3) in (INEQ2, BOTH)  # 4 >= 3
    assert technical_inequality(1.5, -1, 1) == INEQ1  # |-2.5| >= 2.5, 0 < 2.5


def test_technical_inequality_parity_errors():
    with pytest.raises(InputError, match=r"\(a,b\)=\(2,1\) is not an admissible odd pair"):
        technical_inequality(1, 2, 1)
    with pytest.raises(InputError, match=r"\(a,b\)=\(-1,-1\) is not an admissible odd pair"):
        technical_inequality(1, -1, -1)
    with pytest.raises(InputError, match=r"\(a,b\)=\(-3,1\) is not an admissible odd pair"):
        technical_inequality(1, -3, 1)
    with pytest.raises(ValueError):
        technical_inequality(0.5, 1, 1)


def test_technical_inequality_totality_grid():
    zs = [Fraction(10 + j, 10) for j in range(0, 41)]  # 1, 1.1, ..., 5
    odd = list(range(-1, 22, 2))
    for z in zs:
        for a in odd:
            for b in odd:
                if a == -1 and b == -1:
                    continue
                assert technical_inequality(z, a, b) in (INEQ1, INEQ2, BOTH)


# ---------------------------------------------------------------------------
# Onsager conditions and beta-
# ---------------------------------------------------------------------------

def test_conditions_equal_charges_both_signs():
    assert onsager_conditions(ChargeVector((1, 1, -1, -1, -1))) is True


def test_conditions_violated_by_wide_variation():
    assert onsager_conditions(ChargeVector((1, 1.6, -1, -1))) is False


def test_conditions_single_sign_raises():
    with pytest.raises(InputError, match="need at least one positive and one negative charge"):
        onsager_conditions(ChargeVector((10, 10, 1)))


def test_conditions_too_few_particles():
    with pytest.raises(InputError, match="need N > 2"):
        onsager_conditions(ChargeVector((1, -1)))


def test_onsager_tie_case():
    crit = onsager_beta_minus(ChargeVector((1, 1, -1, -1)))
    assert crit.beta_minus == -1
    assert crit.winning_side == TIE
    assert crit.candidate_pos == -1 and crit.candidate_neg == -1
    report = critical_interval(from_charges(ChargeVector((1, 1, -1, -1))))
    assert report.nests_minus.kappa == 2  # both sides collapse: disjoint pair nest


def test_onsager_symmetric_six():
    crit = onsager_beta_minus(ChargeVector((1, 1, 1, -1, -1, -1)))
    assert crit.candidate_pos == Fraction(-2, 3)
    assert crit.candidate_neg == Fraction(-2, 3)
    assert crit.winning_side == TIE
    assert crit.beta_minus == Fraction(-2, 3)


def test_onsager_positive_collapse():
    k = ChargeVector((1.2, 1.2, 1.2, -1.0, -1.0, -1.0))
    crit = onsager_beta_minus(k)
    assert crit.winning_side == POSITIVE_COLLAPSE
    assert abs(crit.candidate_pos - (-2.0 / (3 * 1.44))) < 1e-12
    assert abs(crit.candidate_neg - (-2.0 / 3.0)) < 1e-12
    assert crit.collapsing == ((0, 1, 2),)
    report = critical_interval(from_charges(k))
    assert abs(float(report.beta_minus) - float(crit.beta_minus)) < 1e-10


def test_onsager_conditions_fail_raises():
    with pytest.raises(DomainError, match="fails the 3/2-variation conditions"):
        onsager_beta_minus(ChargeVector((1, 1.6, -1, -1)))


def test_onsager_single_positive_particle():
    # one positive charge cannot collapse; the negative side wins
    k = ChargeVector((2.0, -1.0, -1.0))
    crit = onsager_beta_minus(k)
    assert crit.winning_side == NEGATIVE_COLLAPSE
    assert crit.candidate_pos == -math.inf
    assert crit.collapsing == ((1, 2),)


def _random_onsager_vector(rng):
    n1 = rng.randint(2, 6)
    n2 = rng.randint(2, 12 - n1)
    pos = [rng.uniform(1.0, 1.45) for _ in range(n1)]
    neg = [-rng.uniform(0.8, 1.15) for _ in range(n2)]
    return ChargeVector(tuple(pos + neg))


def test_onsager_agreement_with_solver():
    rng = random.Random(61)
    checked = 0
    while checked < 50:
        k = _random_onsager_vector(rng)
        if not onsager_conditions(k):
            continue
        checked += 1
        crit = onsager_beta_minus(k)
        report = critical_interval(from_charges(k))
        assert abs(float(report.beta_minus) - float(crit.beta_minus)) < 1e-10
        n1 = sum(1 for v in k.values if v > 0)
        full_pos = SubsetMask.from_indices(range(n1)).bits
        full_neg = SubsetMask.from_indices(range(n1, k.n)).bits
        solver_sets = {s.bits for s in report.minus.optimizers}
        if crit.winning_side == POSITIVE_COLLAPSE:
            assert solver_sets == {full_pos}
        elif crit.winning_side == NEGATIVE_COLLAPSE:
            assert solver_sets == {full_neg}
        else:
            assert solver_sets == {full_pos, full_neg}


def test_equal_charge_remark_values():
    for n in range(3, 11):
        k = ChargeVector((math.sqrt(2.0 / (n - 1)),) * n)
        report = critical_interval(from_charges(k))
        assert abs(float(report.beta_minus) - (-1.0 + 1.0 / n)) < 1e-12
        assert report.nests_minus.kappa == 1
        assert {s.bits for s in report.minus.optimizers} == {(1 << n) - 1}
