"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Statistical criteria are seed-pinned and deterministic.
"""

import gc
import math
import random
import time
from fractions import Fraction

from loggas import (
    ChainParams,
    ChargeVector,
    TwoComponentSpec,
    analytic_partition_two,
    arboricity,
    brute_force_oracle,
    charge_bounds,
    collapse_observables,
    critical_interval,
    eig_bounds,
    estimate_partition,
    from_charges,
    from_matrix,
    from_two_component,
    max_nest,
    metropolis_chain,
    onsager_beta_minus,
    onsager_conditions,
    pole_order_fit,
    solve_both,
)
from loggas.cli import run_ensemble
from loggas.closed_forms import NEGATIVE_COLLAPSE, POSITIVE_COLLAPSE

from conftest import random_exact_matrix, subset_mask
from oracles import forest_partition_oracle, sk_ground_state_check
from test_graphs import PETERSEN, complete_graph, cycle_graph, random_connected_graph, random_tree


def _report(num, description, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _best_elapsed(fn, repeats=3):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_01_exact_endpoints_n2():
    ok = True
    worst = 0.0
    for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
        m = from_matrix([[0, c], [c, 0]])
        critical_interval(m)  # warm imports and caches
        report, elapsed = _best_elapsed(lambda: critical_interval(m))
        worst = max(worst, elapsed)
        ok = ok and report.beta_minus == Fraction(-1) / c
        ok = ok and report.beta_plus == math.inf
        ok = ok and elapsed < 1e-3
    _report(1, "exact N=2 endpoints beta- = -1/c, beta+ = inf",
            ok, f"max {worst*1e6:.0f} us/solve")


def test_criterion_02_n3_closed_form():
    rng = random.Random(302)
    mats, expected = [], []
    for _ in range(20):
        c12, c23, c13 = (Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3))
        mats.append(from_matrix([[0, c12, c13], [c12, 0, c23], [c13, c23, 0]]))
        expected.append(max(
            Fraction(-2) / (c12 + c23 + c13),
            Fraction(-1) / c12, Fraction(-1) / c23, Fraction(-1) / c13,
        ))
    critical_interval(mats[0])  # warm
    gc.collect()  # a full collection owed by the test harness's objects is not solve time
    t0 = time.perf_counter()
    reports = [critical_interval(m) for m in mats]
    elapsed = time.perf_counter() - t0
    ok = all(r.beta_minus == e for r, e in zip(reports, expected)) and elapsed < 10e-3
    _report(2, "N=3 beta- equals the four-candidate closed form exactly",
            ok, f"20 solves in {elapsed*1e3:.2f} ms")


def test_criterion_03_two_component_plasma():
    cases = [(2, 2, 1, 1), (1, 2, 2, 1), (2, 3, 3, 2), (3, 6, 2, 1)]
    ok = True
    elapsed_n9 = 0.0
    for n1, n2, z1, z2 in cases:
        spec = TwoComponentSpec(n1, n2, Fraction(z1), Fraction(z2))
        t0 = time.perf_counter()
        report = critical_interval(from_two_component(spec))
        dt = time.perf_counter() - t0
        if n1 + n2 == 9:
            elapsed_n9 = dt
        mixed = {subset_mask((i, n1 + j)).bits
                 for i in range(n1) for j in range(n2)}
        ok = ok and report.beta_plus == Fraction(1, z1 * z2)
        ok = ok and report.nests_plus.kappa == min(n1, n2)
        ok = ok and {s.bits for s in report.plus.optimizers} == mixed
    ok = ok and elapsed_n9 < 1.0
    _report(3, "two-component beta+ = 1/(z1 z2), kappa+ = min(n1,n2), G+ = mixed pairs",
            ok, f"N=9 solve {elapsed_n9*1e3:.1f} ms")


def test_criterion_04_onsager_equal_charge():
    ok = True
    elapsed_n10 = 0.0
    for n in range(3, 11):
        k = ChargeVector((math.sqrt(2.0 / (n - 1)),) * n)
        t0 = time.perf_counter()
        report = critical_interval(from_charges(k))
        dt = time.perf_counter() - t0
        if n == 10:
            elapsed_n10 = dt
        ok = ok and abs(float(report.beta_minus) - (-1.0 + 1.0 / n)) <= 1e-12
        ok = ok and report.nests_minus.kappa == 1
        ok = ok and {s.bits for s in report.minus.optimizers} == {(1 << n) - 1}
    ok = ok and elapsed_n10 < 5.0
    _report(4, "equal charges beta- = -1 + 1/N, kappa- = 1, total collapse",
            ok, f"N=10 solve {elapsed_n10*1e3:.1f} ms")


def test_criterion_05_onsager_corollary():
    rng = random.Random(305)
    checked = 0
    ok = True
    while checked < 50:
        n1 = rng.randint(2, 6)
        n2 = rng.randint(2, 12 - n1)
        pos = [rng.uniform(1.0, 1.45) for _ in range(n1)]
        neg = [-rng.uniform(0.8, 1.15) for _ in range(n2)]
        k = ChargeVector(tuple(pos + neg))
        if not onsager_conditions(k):
            continue
        checked += 1
        crit = onsager_beta_minus(k)
        report = critical_interval(from_charges(k))
        ok = ok and abs(float(report.beta_minus) - float(crit.beta_minus)) <= 1e-10
        full_pos = subset_mask(range(n1)).bits
        full_neg = subset_mask(range(n1, n1 + n2)).bits
        solver_sets = {s.bits for s in report.minus.optimizers}
        if crit.winning_side == POSITIVE_COLLAPSE:
            ok = ok and solver_sets == {full_pos}
        elif crit.winning_side == NEGATIVE_COLLAPSE:
            ok = ok and solver_sets == {full_neg}
        else:
            ok = ok and solver_sets == {full_pos, full_neg}
    _report(5, "Onsager closed form matches the solver on 50 admissible vectors", ok)


def test_criterion_06_spectral_bounds():
    rng = random.Random(306)
    violations = 0
    dominations = 0
    for trial in range(100):
        n = rng.randint(3, 12)
        if trial % 2 == 0:
            c = random_exact_matrix(rng, n)
            k = None
        else:
            values = []
            while not (any(v > 0 for v in values) and any(v < 0 for v in values)):
                values = [rng.choice([-1, 1]) * rng.uniform(0.2, 2.0) for _ in range(n)]
            k = ChargeVector(tuple(values))
            c = from_charges(k)
        report = critical_interval(c)
        eig = eig_bounds(c)
        slack = 1e-9
        if math.isfinite(float(report.beta_plus)):
            if float(report.beta_plus) < float(eig.beta_plus_lower) - slack:
                violations += 1
        if math.isfinite(float(report.beta_minus)):
            if float(report.beta_minus) > float(eig.beta_minus_upper) + slack:
                violations += 1
        if k is not None:
            cb = charge_bounds(k)
            if math.isfinite(float(report.beta_plus)):
                if float(report.beta_plus) < float(cb.beta_plus_lower) - slack:
                    violations += 1
            if math.isfinite(float(report.beta_minus)):
                if float(report.beta_minus) > float(cb.beta_minus_upper) + slack:
                    violations += 1
            if float(cb.beta_plus_lower) > float(eig.beta_plus_lower) + slack:
                dominations += 1
            if float(cb.beta_minus_upper) < float(eig.beta_minus_upper) - slack:
                dominations += 1
    ok = violations == 0 and dominations == 0
    _report(6, "eigenvalue and charge bounds hold on 100 instances; "
               "charge bounds never tighter", ok,
            f"violations={violations}, dominations={dominations}")


def test_criterion_07_arboricity():
    rng = random.Random(307)
    t0 = time.perf_counter()
    graphs = [complete_graph(3), complete_graph(4), complete_graph(5),
              cycle_graph(5), PETERSEN]
    graphs += [random_tree(rng, rng.randint(2, 9)) for _ in range(10)]
    graphs += [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(50)]
    ok = True
    for g in graphs:
        ok = ok and arboricity(g).arboricity == forest_partition_oracle(g)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(7, "ceil(-T-) equals the forest-partition oracle on 65 graphs",
            ok, f"{elapsed:.1f} s")


def test_criterion_08_sk_identity():
    rng = random.Random(308)
    ok = True
    for _ in range(20):
        c = random_exact_matrix(rng, rng.randint(3, 10))
        ok = ok and sk_ground_state_check(c)
    _report(8, "ground-state identity holds on 20 random instances", ok)


def test_criterion_09_mc_partition_oracle():
    c = from_matrix([[0, 1], [1, 0]])
    t0 = time.perf_counter()
    hits = 0
    cells = []
    for j, beta in enumerate((-0.9, -0.5, 0.0, 0.5, 1.0)):
        est = estimate_partition(c, beta, 1_000_000, seed=900 + j)
        expected = analytic_partition_two(1.0, beta)
        within = abs(est.mean - expected) <= 3 * max(est.stderr, 1e-15)
        hits += within
        cells.append(f"beta={beta}:{'ok' if within else 'miss'}")
    elapsed = time.perf_counter() - t0
    ok = hits >= 4 and elapsed < 60.0
    _report(9, "MC partition mean within 3 stderr of the analytic N=2 value",
            ok, f"{hits}/5 cells, {elapsed:.1f} s; " + " ".join(cells))


def test_criterion_10_pole_order():
    betas = [-1.0 + 10.0 ** (-j) for j in range(1, 7)]
    single = pole_order_fit(betas, [math.log(analytic_partition_two(1.0, b)) for b in betas], -1.0)
    double = pole_order_fit(betas, [2 * math.log(analytic_partition_two(1.0, b)) for b in betas], -1.0)
    ok = abs(single - 1.0) <= 0.05 and abs(double - 2.0) <= 0.1
    _report(10, "pole-order fit recovers kappa=1 and kappa=2",
            ok, f"fits {single:.3f}, {double:.3f}")


def test_criterion_11_collapse_trends():
    t0 = time.perf_counter()
    plasma = from_charges(ChargeVector((1, 1, -1, -1)))
    med_opposite = []
    for j, beta in enumerate((0.0, 0.5, 0.9)):
        params = ChainParams(beta=beta, steps=110_000, burn_in=10_000, thin=1, seed=300 + j)
        chain = metropolis_chain(plasma, params)
        stats = collapse_observables(chain.configurations, [0, 0, 1, 1])
        med_opposite.append(stats.min_opposite_quantiles[2])

    # equal charges at the normalization sqrt(2/(N-1)), so beta- = -3/4
    # keeps the whole grid strictly inside the interval
    equal = from_charges(ChargeVector((math.sqrt(2.0 / 3.0),) * 4))
    med_max = []
    for j, beta in enumerate((0.0, -0.4, -0.6)):
        params = ChainParams(beta=beta, steps=110_000, burn_in=10_000, thin=1, seed=400 + j)
        chain = metropolis_chain(equal, params)
        stats = collapse_observables(chain.configurations, [0, 0, 0, 0])
        med_max.append(stats.max_quantiles[2])

    elapsed = time.perf_counter() - t0
    ok = (med_opposite[0] > med_opposite[1] > med_opposite[2]
          and med_max[0] > med_max[1] > med_max[2]
          and elapsed < 300.0)
    _report(11, "dipole and total-collapse medians strictly monotone in beta", ok,
            f"opp {','.join(f'{v:.3f}' for v in med_opposite)}; "
            f"max {','.join(f'{v:.3f}' for v in med_max)}; {elapsed:.0f} s")


def test_criterion_12_ensemble_sanity():
    couplings = run_ensemble("gaussian_couplings", 16, 200, seed=312, variance=1.0 / 16)
    charges = run_ensemble("gaussian_charges", 14, 200, seed=313)
    ok = couplings["bound_violations"] == 0 and charges["bound_violations"] == 0
    ok = ok and len(couplings["summary"]["t_plus_quantiles"]) == 5
    ok = ok and len(charges["summary"]["t_minus_quantiles"]) == 5
    _report(12, "ensembles complete with zero deterministic-bound violations", ok,
            f"T+ median (couplings) {couplings['summary']['t_plus_quantiles'][2]:.3f}")


def test_criterion_13_solver_oracle_equivalence():
    rng = random.Random(313)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
        n = rng.randint(3, 12)
        c = random_exact_matrix(rng, n)
        plus, minus = solve_both(c)
        oracle = brute_force_oracle(c)
        ok = ok and plus.t_value == oracle.t_plus
        ok = ok and minus.t_value == oracle.t_minus
        ok = ok and {s.bits for s in plus.optimizers} == {s.bits for s in oracle.g_plus}
        ok = ok and {s.bits for s in minus.optimizers} == {s.bits for s in oracle.g_minus}
        if ok and plus.attained:
            report = critical_interval(c)
            ok = ok and report.nests_plus.kappa == max_nest(oracle.g_plus).kappa
            ok = ok and report.nests_minus.kappa == max_nest(oracle.g_minus).kappa
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(13, "solver equals the brute-force oracle on 500 exact instances",
            ok, f"{elapsed:.1f} s")
