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
    two_component_critical,
)
from loggas.closed_forms import NEGATIVE_COLLAPSE, POSITIVE_COLLAPSE, TIE
from loggas.errors import DomainError, InputError
from loggas.rational import TIE_TOL, tolerance


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


def test_two_component_python_ints_stay_exact():
    crit = two_component_critical(TwoComponentSpec(8, 8, 1, 1))
    assert type(crit.beta_plus) is Fraction and crit.beta_plus == 1
    assert type(crit.free_energy_prefactor) is Fraction
    assert crit.free_energy_prefactor == Fraction(1, 2)


@pytest.mark.parametrize("n1,n2,z1,z2", [
    (2, 3, Fraction(3), 2.0),
    (1, 3, 1.0, Fraction(1, 3)),
])
def test_two_component_mixed_input_is_float(n1, n2, z1, z2):
    # the larger magnitude comes first, then both are cast to float
    big, small = (z1, z2) if z1 >= z2 else (z2, z1)
    crit = two_component_critical(TwoComponentSpec(n1, n2, z1, z2))
    assert type(crit.beta_plus) is float
    assert crit.beta_plus == 1.0 / (float(big) * float(small))
    assert crit.free_energy_prefactor == float(small) / (float(big) + float(small))


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


def test_onsager_exact_near_tie_is_no_tie():
    # the candidates -2/3 and -2/3.00000000000003 differ by 1e-14 relative;
    # exact charges compare them exactly, as exact critical does (G- = [{4,5,6}])
    k = ChargeVector((1, 1, 1, -1, -1, Fraction("-1000000000000015/1000000000000000")))
    crit = onsager_beta_minus(k)
    assert crit.winning_side == NEGATIVE_COLLAPSE
    assert crit.collapsing == ((3, 4, 5),)
    assert crit.beta_minus == crit.candidate_neg > crit.candidate_pos
    report = critical_interval(from_charges(k))
    assert report.beta_minus == crit.beta_minus
    assert [s.indices() for s in report.minus.optimizers] == [(3, 4, 5)]
    assert report.nests_minus.kappa == 1


def test_onsager_positive_collapse():
    k = ChargeVector((1.2, 1.2, 1.2, -1.0, -1.0, -1.0))
    crit = onsager_beta_minus(k)
    assert crit.winning_side == POSITIVE_COLLAPSE
    assert abs(crit.candidate_pos - (-2.0 / (3 * 1.44))) < 1e-12
    assert abs(crit.candidate_neg - (-2.0 / 3.0)) < 1e-12
    assert crit.collapsing == ((0, 1, 2),)
    report = critical_interval(from_charges(k))
    assert abs(float(report.beta_minus) - float(crit.beta_minus)) < 1e-10


def test_onsager_mixed_charges_match_the_float_loop():
    # each product is formed in the input's types, then cast to float and
    # added left to right
    k = ChargeVector((Fraction(91, 90), Fraction(94, 93), 1.2,
                      Fraction(-31, 30), Fraction(-373, 330), -1.0))
    crit = onsager_beta_minus(k)

    def candidate(idx):
        total = 0.0
        for a, i in enumerate(idx):
            for j in idx[a + 1:]:
                total += float(k.values[i] * k.values[j])
        return (1 - len(idx)) / total

    assert type(crit.candidate_pos) is float
    assert crit.candidate_pos == candidate((0, 1, 2))
    assert crit.candidate_neg == candidate((3, 4, 5))


def test_onsager_exact_candidates_match_the_pairwise_sum():
    # an exact class's pair sum is taken in O(n); it must be the Fraction
    # that adding every product gives
    rng = random.Random(73)
    for _ in range(100):
        n1, n2 = rng.randint(2, 9), rng.randint(2, 9)
        pos = [Fraction(rng.randint(100, 140), rng.randint(90, 100)) for _ in range(n1)]
        neg = [-Fraction(rng.randint(100, 140), rng.randint(90, 100)) for _ in range(n2)]
        k = ChargeVector(tuple(pos + neg))
        if not onsager_conditions(k):
            continue
        crit = onsager_beta_minus(k)

        def candidate(values):
            total = Fraction(0)
            for a, x in enumerate(values):
                for y in values[a + 1:]:
                    total += x * y
            return (1 - len(values)) / total

        assert type(crit.candidate_pos) is Fraction
        assert crit.candidate_pos == candidate(pos)
        assert crit.candidate_neg == candidate(neg)


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


def _pair_ratio(values) -> float:
    pairs = [a * b for i, a in enumerate(values) for b in values[i + 1:]]
    return math.fsum(pairs) / (len(values) - 1)


@pytest.mark.parametrize("gap", [0.1, 10.0, -0.1, -10.0])
@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e3])
def test_onsager_near_ties_agree_with_solver(gap, scale):
    # the negative class is rescaled so that its ratio sits gap x
    # tolerance(TIE_TOL, r, s) from the positive one's: a tie within the
    # rule, two classes apart beyond it, as critical_interval's G- says
    rng = random.Random(67)
    checked = 0
    while checked < 10:
        k = _random_onsager_vector(rng)
        if not onsager_conditions(k):
            continue
        checked += 1
        pos = [v * scale for v in k.values if v > 0]
        neg = [v * scale for v in k.values if v < 0]
        r_pos = _pair_ratio(pos)
        s = sorted(map(abs, pos + neg))[-2:]
        target = r_pos + gap * tolerance(TIE_TOL, r_pos, s[0] * s[1])
        neg = [v * math.sqrt(target / _pair_ratio(neg)) for v in neg]
        k = ChargeVector(tuple(pos + neg))
        crit = onsager_beta_minus(k)
        expected = TIE if abs(gap) < 1 else NEGATIVE_COLLAPSE if gap > 0 else POSITIVE_COLLAPSE
        assert crit.winning_side == expected
        full_pos = SubsetMask.from_indices(range(len(pos))).bits
        full_neg = SubsetMask.from_indices(range(len(pos), k.n)).bits
        classes = {TIE: {full_pos, full_neg}, POSITIVE_COLLAPSE: {full_pos},
                   NEGATIVE_COLLAPSE: {full_neg}}[expected]
        report = critical_interval(from_charges(k))
        assert {s.bits for s in report.minus.optimizers} == classes


def test_equal_charge_remark_values():
    for n in range(3, 11):
        k = ChargeVector((math.sqrt(2.0 / (n - 1)),) * n)
        report = critical_interval(from_charges(k))
        assert abs(float(report.beta_minus) - (-1.0 + 1.0 / n)) < 1e-12
        assert report.nests_minus.kappa == 1
        assert {s.bits for s in report.minus.optimizers} == {(1 << n) - 1}
