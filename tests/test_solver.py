import itertools
import json
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import loggas.cli as cli
import loggas.solver as solver
from loggas import (
    ChargeVector,
    CouplingMatrix,
    SubsetMask,
    TwoComponentSpec,
    brute_force_oracle,
    critical_interval,
    from_charges,
    from_matrix,
    from_two_component,
    max_nest,
    solve_both,
    solve_t_minus,
    solve_t_plus,
)
from loggas.errors import SizeLimitError

from conftest import (
    exact_coupling_matrices,
    random_exact_matrix,
    random_float_matrix,
    subset_mask,
    symmetric_from_upper,
)


def masks(*index_sets):
    return {subset_mask(s).bits for s in index_sets}


def _support(report, side):
    """The support patterns the CLI writes for one side of the report."""
    pieces, _ = cli._critical_text(report, "exact", "critical")
    return json.loads("".join(pieces))[f"support_{side}"]


def nest_members(search) -> tuple:
    """The nests of a ``NestSearch`` as tuples of its members."""
    return tuple(tuple(map(search.members.__getitem__, nest)) for nest in search.nests)


def bits(family):
    return {s.bits for s in family}


# ---------------------------------------------------------------------------
# Subset sums a_S
# ---------------------------------------------------------------------------

def subset_sum(c, indices):
    return solver.all_subset_sums(c)[subset_mask(indices).bits]


def test_subset_sum_mixed_charges_full_set():
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    assert subset_sum(c, (0, 1, 2, 3)) == -2  # 1+1-4


def test_subset_sum_pair_is_single_entry():
    c = from_matrix([[0, 5, -3], [5, 0, 2], [-3, 2, 0]])
    assert subset_sum(c, (0, 2)) == -3


def test_subset_sum_example_7_2_triple():
    c = from_charges(ChargeVector((10, 10, 1)))
    assert subset_sum(c, (0, 1, 2)) == 120


# ---------------------------------------------------------------------------
# solve_t_plus / solve_t_minus, paper examples
# ---------------------------------------------------------------------------

def test_t_plus_mixed_charges():
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    result = solve_t_plus(c)
    assert result.t_value == 1
    assert result.attained
    assert bits(result.optimizers) == masks((0, 2), (0, 3), (1, 2), (1, 3))


def test_t_plus_n2_positive_coupling():
    result = solve_t_plus(from_matrix([[0, 1], [1, 0]]))
    assert result.t_value == -1
    assert not result.attained  # every subset sum positive: beta+ infinite


def test_t_plus_zero_matrix():
    c = from_matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    result = solve_t_plus(c)
    assert result.t_value == 0
    assert not result.attained
    assert result.optimizers == ()  # zero-sum subsets never enter the family


def test_t_minus_example_7_2():
    result = solve_t_minus(from_charges(ChargeVector((10, 10, 1))))
    assert result.t_value == -100
    assert bits(result.optimizers) == masks((0, 1))


def test_t_minus_equal_charges_full_collapse():
    n = 4
    k = ChargeVector((math.sqrt(2.0 / (n - 1)),) * n)
    result = solve_t_minus(from_charges(k))
    assert abs(result.t_value - (-n / (n - 1))) < 1e-12
    assert bits(result.optimizers) == masks(tuple(range(n)))


def negated(c):
    return from_matrix([[-q for q in row] for row in c.exact_entries])


def scaled(c, t):
    return from_matrix([[t * q for q in row] for row in c.exact_entries])


def permuted(c, perm):
    """Relabel particles: new index i holds old particle perm[i]."""
    return from_matrix([[c.exact_entries[i][j] for j in perm] for i in perm])


def test_negation_swaps_roles():
    rng = random.Random(7)
    for _ in range(10):
        c = random_exact_matrix(rng, 5)
        neg = negated(c)
        assert solve_t_minus(neg).t_value == -solve_t_plus(c).t_value
        assert bits(solve_t_minus(neg).optimizers) == bits(solve_t_plus(c).optimizers)


def test_instance_too_large(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_N", 2)
    c = from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    for solve in (solve_t_plus, solve_t_minus, solve_both):
        with pytest.raises(SizeLimitError, match="n=3 exceeds solver cap 2"):
            solve(c)


# ---------------------------------------------------------------------------
# critical_interval
# ---------------------------------------------------------------------------

def test_interval_n2():
    report = critical_interval(from_matrix([[0, 1], [1, 0]]))
    assert report.beta_minus == -1
    assert report.beta_plus == math.inf
    assert report.nests_minus.kappa == 1 and report.nests_plus.kappa == 0


def test_interval_two_component_2211():
    report = critical_interval(from_two_component(TwoComponentSpec(2, 2, Fraction(1), Fraction(1))))
    assert report.beta_plus == 1
    assert report.nests_plus.kappa == 2
    assert len(report.nests_plus.nests) == 2
    nest_sets = {tuple(sorted(s.bits for s in k)) for k in nest_members(report.nests_plus)}
    assert nest_sets == {
        tuple(sorted(masks((0, 2), (1, 3)))),
        tuple(sorted(masks((0, 3), (1, 2)))),
    }
    assert set(_support(report, "plus")) == {"p1=p3, p2=p4", "p1=p4, p2=p3"}


def test_interval_example_7_2():
    report = critical_interval(from_charges(ChargeVector((10, 10, 1))))
    assert report.beta_minus == Fraction(-1, 100)
    assert report.nests_minus.kappa == 1
    assert _support(report, "minus") == ["p1=p2"]


def test_interval_degenerate_zero_matrix():
    report = critical_interval(from_matrix([[0, 0], [0, 0]]))
    assert not (report.plus.attained or report.minus.attained)
    assert report.beta_minus == -math.inf and report.beta_plus == math.inf
    assert report.nests_plus.kappa == report.nests_minus.kappa == 0
    assert _support(report, "plus") == []


def test_interval_always_contains_zero():
    rng = random.Random(3)
    for _ in range(20):
        c = random_exact_matrix(rng, 6)
        report = critical_interval(c)
        assert report.beta_minus < 0 < report.beta_plus


# ---------------------------------------------------------------------------
# Oracle equivalence and properties
# ---------------------------------------------------------------------------

def test_oracle_equivalence_exact_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 9)
        c = random_exact_matrix(rng, n)
        plus, minus = solve_both(c)
        oracle = brute_force_oracle(c)
        assert plus.t_value == oracle.t_plus
        assert minus.t_value == oracle.t_minus
        assert bits(plus.optimizers) == bits(oracle.g_plus)
        assert bits(minus.optimizers) == bits(oracle.g_minus)


def test_oracle_equivalence_float_random():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(3, 9)
        c = random_float_matrix(rng, n)
        plus, minus = solve_both(c)
        oracle = brute_force_oracle(c)
        assert abs(plus.t_value - oracle.t_plus) <= 1e-9 * max(1.0, abs(oracle.t_plus))
        assert bits(plus.optimizers) == bits(oracle.g_plus)
        assert bits(minus.optimizers) == bits(oracle.g_minus)


def test_oracle_n2_single_subset():
    oracle = brute_force_oracle(from_matrix([[0, 3], [3, 0]]))
    assert oracle.t_plus == -3 and oracle.t_minus == -3


def test_oracle_size_cap():
    rng = random.Random(1)
    with pytest.raises(SizeLimitError, match="oracle limited to n <= 16, got 17"):
        brute_force_oracle(random_float_matrix(rng, 17))


def test_oracle_example_3_2_candidates():
    rng = random.Random(17)
    for _ in range(10):
        c12, c23, c13 = (Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3))
        c = from_matrix([[0, c12, c13], [c12, 0, c23], [c13, c23, 0]])
        report = critical_interval(c)
        expected = max(
            Fraction(-2) / (c12 + c23 + c13),
            Fraction(-1) / c12,
            Fraction(-1) / c23,
            Fraction(-1) / c13,
        )
        assert report.beta_minus == expected


@given(exact_coupling_matrices(max_n=5), st.integers(1, 6))
def test_scaling_covariance(c, t):
    plus, minus = solve_both(c)
    scaled_plus, scaled_minus = solve_both(scaled(c, t))
    assert scaled_plus.t_value == t * plus.t_value
    assert scaled_minus.t_value == t * minus.t_value
    assert bits(scaled_plus.optimizers) == bits(plus.optimizers)
    assert bits(scaled_minus.optimizers) == bits(minus.optimizers)


@st.composite
def float_coupling_values(draw):
    """(n, upper-triangle floats): Gaussian or integer-valued couplings."""
    n = draw(st.integers(3, 7))
    m = n * (n - 1) // 2
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        return n, [rng.gauss(0.0, 1.0) for _ in range(m)]
    return n, [float(v) for v in draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))]


@settings(max_examples=100)
@given(float_coupling_values(), st.integers(-60, 60))
def test_float_ties_scale_with_the_couplings(values, k):
    # C -> 2^k C is exact in floats: T+- scale by exactly 2^k, and the
    # families, kappa and nests stay, at any scale
    n, upper = values
    base = critical_interval(from_matrix(symmetric_from_upper(n, upper)))
    scaled = critical_interval(from_matrix(symmetric_from_upper(n, [v * 2.0**k for v in upper])))
    for got, want in ((scaled.plus, base.plus), (scaled.minus, base.minus)):
        assert got.t_value == 2.0**k * want.t_value
        assert got.attained == want.attained
        assert got.optimizers == want.optimizers
    assert (scaled.nests_plus, scaled.nests_minus) == (base.nests_plus, base.nests_minus)


@given(exact_coupling_matrices(max_n=5))
def test_negation_duality(c):
    plus, minus = solve_both(c)
    neg_plus, neg_minus = solve_both(negated(c))
    assert neg_plus.t_value == -minus.t_value
    assert bits(neg_plus.optimizers) == bits(minus.optimizers)
    assert bits(neg_minus.optimizers) == bits(plus.optimizers)


@given(exact_coupling_matrices(min_n=3, max_n=6), st.randoms(use_true_random=False))
def test_permutation_equivariance(c, pyrandom):
    perm = list(range(c.n))
    pyrandom.shuffle(perm)
    plus, minus = solve_both(c)
    p_plus, p_minus = solve_both(permuted(c, perm))
    assert p_plus.t_value == plus.t_value and p_minus.t_value == minus.t_value
    # new index i holds old particle perm[i]: old set S maps to perm^-1(S)
    inverse = {old: new for new, old in enumerate(perm)}

    def mapped(family):
        return {
            subset_mask(tuple(inverse[i] for i in s.indices())).bits
            for s in family
        }

    assert bits(p_plus.optimizers) == mapped(plus.optimizers)
    assert bits(p_minus.optimizers) == mapped(minus.optimizers)


def test_interval_membership_exhaustive():
    rng = random.Random(23)
    sizes = [rng.randint(3, 9) for _ in range(8)] + [11, 12]
    for n in sizes:
        c = random_exact_matrix(rng, n)
        report = critical_interval(c)
        lo, hi = float(report.beta_minus), float(report.beta_plus)
        span_lo = lo if math.isfinite(lo) else -2.0
        span_hi = hi if math.isfinite(hi) else 2.0
        betas = [span_lo + (span_hi - span_lo) * (j + 1) / 11.0 for j in range(10)]

        # (a_S, |S|-1) for every subset, computed once
        pairs = [(float(a), mask.bit_count() - 1)
                 for mask, a in solver.all_subset_sums(c).items()]

        def satisfied(beta):
            return all(beta * a + m > 0 for a, m in pairs)

        for beta in betas:
            assert satisfied(beta)
        if math.isfinite(lo):
            assert not satisfied(lo - 1e-6)
        if math.isfinite(hi):
            assert not satisfied(hi + 1e-6)


# ---------------------------------------------------------------------------
# Subset-sum kernel: blocks, dtypes, caps, float endpoints
# ---------------------------------------------------------------------------

def float_view(c, scale=1.0):
    return CouplingMatrix(c.n, np.array(c.entries, dtype=float) * scale, None)


def assert_matches_oracle(c):
    plus, minus = solve_both(c)
    oracle = brute_force_oracle(c)
    if c.is_exact:
        assert plus.t_value == oracle.t_plus and minus.t_value == oracle.t_minus
    else:
        assert abs(plus.t_value - oracle.t_plus) <= 1e-9 * max(1.0, abs(oracle.t_plus))
        assert abs(minus.t_value - oracle.t_minus) <= 1e-9 * max(1.0, abs(oracle.t_minus))
    assert [s.bits for s in plus.optimizers] == [s.bits for s in oracle.g_plus]
    assert [s.bits for s in minus.optimizers] == [s.bits for s in oracle.g_minus]


@given(exact_coupling_matrices(min_n=2, max_n=10, lo=-2, hi=2))
def test_kernel_matches_oracle_across_blocks(c):
    # 3-bit blocks: every instance with n > 3 spans several blocks.  The
    # float copy is scaled by 0.1 so that its sums round; its ties stay
    # about 1e-3 apart from every other ratio, far beyond tie_tol.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_BLOCK_BITS", 3)
        assert_matches_oracle(c)
        assert_matches_oracle(float_view(c, 0.1))


def test_overflow_guard_picks_dtype():
    big = 1 << 61
    huge = from_matrix(symmetric_from_upper(5, [big - 1, -big, big, 3, -(big - 2),
                                                big, 1, -big, big - 3, 2]))
    assert solver._weights(huge, exact=True)[0].dtype == object
    fits = from_matrix(symmetric_from_upper(5, [1 << 58] * 9 + [-(1 << 58)]))
    assert solver._weights(fits, exact=True)[0].dtype == np.int64
    for c in (huge, fits):
        assert_matches_oracle(c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_BLOCK_BITS", 3)
            assert_matches_oracle(c)


def test_family_too_large_from_collect_cap(monkeypatch):
    plasma = from_two_component(TwoComponentSpec(4, 4, 1, 1))  # |G+| = 16 pairs
    assert len(solve_t_plus(plasma).optimizers) == 16
    monkeypatch.setattr(solver, "_COLLECT_CAP", 10)
    for c in (plasma, float_view(plasma)):
        with pytest.raises(SizeLimitError, match="optimizer family exceeds internal cap"):
            solve_both(c)


def test_float_endpoint_is_fsum_of_first_optimizer():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(3, 9)
        # near-constant positive couplings: G- is the whole set, whose
        # table sum can round differently from fsum
        flat = from_matrix(symmetric_from_upper(n, [0.1 + 0.01 * rng.gauss(0.0, 1.0)
                                                    for _ in range(n * (n - 1) // 2)]))
        for c in (random_float_matrix(rng, n), flat):
            for result in solve_both(c):
                idx = result.optimizers[0].indices()
                pairs = [c.entries[i, j] for a, i in enumerate(idx) for j in idx[a + 1:]]
                assert result.t_value == -math.fsum(pairs) / (len(idx) - 1)


def test_endpoints_match_interval():
    rng = random.Random(41)
    one_signed = [from_matrix(symmetric_from_upper(4, [sign] * 6)) for sign in (1, -1)]
    for _ in range(10):
        for c in (random_exact_matrix(rng, 7), random_float_matrix(rng, 7), *one_signed):
            report = critical_interval(c)
            assert solver.endpoints(*solve_both(c)) == (report.beta_minus, report.beta_plus)
    assert solver.endpoints(*solve_both(one_signed[0])) == (Fraction(-1, 2), math.inf)
    assert solver.endpoints(*solve_both(one_signed[1])) == (-math.inf, Fraction(1, 2))


# ---------------------------------------------------------------------------
# max_nest and the support rendering
# ---------------------------------------------------------------------------

def test_max_nest_disjoint_pair():
    family = [subset_mask((0, 1)), subset_mask((2, 3))]
    search = max_nest(family)
    assert search.kappa == 2
    assert len(search.nests) == 1


def test_max_nest_overlapping():
    family = [subset_mask((0, 1)), subset_mask((0, 2))]
    search = max_nest(family)
    assert search.kappa == 1
    assert len(search.nests) == 2


def test_max_nest_two_component_family():
    report = critical_interval(from_two_component(TwoComponentSpec(2, 2, 1, 1)))
    search = max_nest(report.plus.optimizers)
    assert search.kappa == 2
    assert len(search.nests) == 2
    assert not search.truncated


def test_max_nest_chain_and_cap(monkeypatch):
    family = [
        subset_mask((0, 1)),
        subset_mask((0, 1, 2)),
        subset_mask((0, 1, 2, 3)),
        subset_mask((2, 3)),
    ]
    search = max_nest(family)
    assert search.kappa == 3  # {01} < {012} < {0123}; {23} conflicts with {012}
    monkeypatch.setattr(solver, "_FAMILY_CAP", 2)
    with pytest.raises(SizeLimitError, match="family of size 4 exceeds cap 2"):
        max_nest(family)


def test_max_nest_truncation_flag(monkeypatch):
    # 6x6 pairing family: 6! = 720 maximum nests, far above a cap of 10
    monkeypatch.setattr(solver, "_NEST_CAP", 10)
    pairs = [subset_mask((i, 6 + j)) for i in range(6) for j in range(6)]
    search = max_nest(pairs)
    assert search.kappa == 6
    assert search.truncated
    assert len(search.nests) == 10


def _oracle_max_nests(family) -> set:
    """Every maximum pairwise-nested subfamily, by trying all subfamilies
    largest first."""
    bits = [s.bits for s in family]
    for size in range(len(bits), 0, -1):
        nests = {frozenset(combo) for combo in itertools.combinations(bits, size)
                 if all(x & y in (0, x, y) for x, y in itertools.combinations(combo, 2))}
        if nests:
            return nests
    return set()


@settings(max_examples=200)
@given(st.sets(st.integers(0, 63).filter(lambda m: m.bit_count() >= 2), min_size=1, max_size=10))
def test_max_nest_matches_subfamily_enumeration(bits):
    family = [SubsetMask(m) for m in sorted(bits)]
    expected = _oracle_max_nests(family)
    kappa = len(next(iter(expected)))

    search = max_nest(family)
    assert search.kappa == kappa
    assert not search.truncated
    assert {frozenset(s.bits for s in nest) for nest in nest_members(search)} == expected

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_NEST_CAP", 3)
        capped = max_nest(family)
    reported = [frozenset(s.bits for s in nest) for nest in nest_members(capped)]
    assert capped.kappa == kappa
    assert capped.truncated == (len(expected) > 3)
    assert len(reported) == min(3, len(expected)) == len(set(reported))
    assert set(reported) <= expected


@settings(max_examples=100)
@given(st.sets(st.integers(0, 255).filter(lambda m: m.bit_count() >= 2), min_size=1, max_size=12))
def test_max_nest_ranks_index_the_family_in_report_order(bits):
    family = [SubsetMask(m) for m in sorted(bits)]
    search = max_nest(family)
    assert search.members == tuple(sorted(family, key=lambda s: (min(s.indices()), s.size,
                                                                 s.bits)))
    assert all(list(nest) == sorted(set(nest)) for nest in search.nests)


def _in_report_order(fam, combos) -> tuple:
    """The nests of the index combinations into ``fam``, each listed by
    (smallest member index, size, bits) and all sorted by their bits."""
    nests = [tuple(sorted((fam[j] for j in combo), key=lambda s: (min(s.indices()), s.size, s.bits)))
             for combo in combos]
    nests.sort(key=lambda nest: [s.bits for s in nest])
    return tuple(nests)


def _oracle_first_nests(family, cap: int) -> tuple:
    """(kappa, nests, truncated) as a capped search in index order keeps
    them: the family sorted by (-size, bits), and the first ``cap`` maximum
    pairwise-nested index combinations in lexicographic order, in report
    order."""
    fam = sorted(family, key=lambda s: (-s.size, s.bits))
    for size in range(len(fam), 0, -1):
        combos = [combo for combo in itertools.combinations(range(len(fam)), size)
                  if all(fam[i].bits & fam[j].bits in (0, fam[i].bits, fam[j].bits)
                         for i, j in itertools.combinations(combo, 2))]
        if combos:
            break
    return size, _in_report_order(fam, combos[:cap]), len(combos) > cap


@settings(max_examples=150)
@given(st.sets(st.integers(0, 255).filter(lambda m: m.bit_count() >= 2), min_size=1, max_size=12))
def test_truncated_max_nest_keeps_the_first_nests_in_search_order(bits):
    family = [SubsetMask(m) for m in sorted(bits)]
    for cap in (1, 2, 3, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_NEST_CAP", cap)
            search = max_nest(family)
        assert (search.kappa, nest_members(search), search.truncated) == \
            _oracle_first_nests(family, cap)


@settings(max_examples=100)
@given(st.sets(st.integers(0, 255).filter(lambda m: m.bit_count() >= 2), min_size=1, max_size=12))
def test_max_nest_is_the_same_when_its_memo_is_full(bits):
    # _MEMO_BITS // k answers fit: none at 0, one at k
    family = [SubsetMask(m) for m in sorted(bits)]
    for cap in (1, 3, solver._NEST_CAP):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_NEST_CAP", cap)
            expected = max_nest(family)
            for memo_bits in (0, len(family)):
                mp.setattr(solver, "_MEMO_BITS", memo_bits)
                assert max_nest(family) == expected


def test_max_nest_memo_tells_needs_apart(monkeypatch):
    # families of 14-40 members meet one candidate set with different needs;
    # the search without a memo is the reference
    rng = random.Random(41)
    for _ in range(200):
        width = rng.choice((6, 8))
        draws = (rng.getrandbits(width) for _ in range(rng.randint(14, 40)))
        family = [SubsetMask(m) for m in sorted({m for m in draws if m.bit_count() >= 2})]
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_MEMO_BITS", 0)
            expected = max_nest(family)
        assert max_nest(family) == expected


def test_truncated_plasma_nests_are_the_first_pairings():
    # the 8+8 plasma's G+ is its 64 mixed pairs {i, 8+j}; in (-size, bits)
    # order the pair has index 8j + i, and its 8! maximum nests are the
    # pairings i -> p[i]
    fam = sorted((subset_mask((i, 8 + j)) for i in range(8) for j in range(8)),
                 key=lambda s: (-s.size, s.bits))
    assert [fam[8 * j + i] for i in range(8) for j in range(8)] == \
        [subset_mask((i, 8 + j)) for i in range(8) for j in range(8)]
    combos = sorted(tuple(sorted(8 * p[i] + i for i in range(8)))
                    for p in itertools.permutations(range(8)))
    assert len(combos) == 40_320 > solver._NEST_CAP
    search = max_nest(list(reversed(fam)))
    assert search.kappa == 8 and search.truncated
    assert nest_members(search) == _in_report_order(fam, combos[:solver._NEST_CAP])


def test_kappa_bounded_by_n_minus_1():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(3, 8)
        c = random_exact_matrix(rng, n)
        report = critical_interval(c)
        assert report.nests_plus.kappa <= n - 1
        assert report.nests_minus.kappa <= n - 1
        plus, minus = nest_members(report.nests_plus), nest_members(report.nests_minus)
        for nest in plus:
            assert len(nest) == report.nests_plus.kappa
        for nest in minus:
            assert len(nest) == report.nests_minus.kappa
        # max_nest's search guarantees nesting; nothing re-checks it at run time
        for nest in plus + minus:
            bits = [s.bits for s in nest]
            assert all(x & y in (0, x, y) for x, y in itertools.combinations(bits, 2))


def test_support_total_collapse_rendering():
    k = ChargeVector((1, 1, 1, 1))
    report = critical_interval(from_charges(k))
    assert _support(report, "minus") == ["p1=p2=p3=p4"]


def test_subset_mask_requires_two_members():
    with pytest.raises(ValueError):
        SubsetMask(1)
    with pytest.raises(ValueError):
        SubsetMask(0)
