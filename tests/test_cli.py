import csv
import dataclasses
import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import loggas.cli as cli
import loggas.coupling as coupling
import loggas.graphs as graphs
import loggas.solver as solver
import loggas.spectral as spectral
import loggas.sphere_mc as sphere_mc
from loggas import (
    charge_bounds,
    eig_bounds,
    load_system,
    sample_gaussian_charges,
    sample_gaussian_couplings,
    two_component_critical,
)
from loggas.cli import build_parser, main
from loggas.errors import InputError
from loggas.sphere_mc import estimate_partition

from oracles import sk_ground_state_check

HERE = Path(__file__).parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden"


def run(args):
    return main([str(a) for a in args])


def compare_bytes(produced: Path, golden: Path):
    assert produced.read_bytes() == golden.read_bytes()


# ---------------------------------------------------------------------------
# Golden-file coverage of every subcommand
# ---------------------------------------------------------------------------

def test_golden_critical(tmp_path):
    out = tmp_path / "report.json"
    assert run(["critical", "--input", INPUTS / "ex72_charges.json", "--out", out]) == 0
    compare_bytes(out, GOLDEN / "critical_ex72.json")


def test_golden_critical_truncated(tmp_path, monkeypatch):
    # 6! = 720 maximum nests on the plus side; the report lists the first 25
    monkeypatch.setattr(solver, "_NEST_CAP", 25)
    out = tmp_path / "report.json"
    assert run(["critical", "--input", INPUTS / "plasma_6_6.json", "--mode", "exact",
                "--out", out]) == 0
    compare_bytes(out, GOLDEN / "critical_truncated.json")


def test_golden_bounds(tmp_path):
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", INPUTS / "mixed_charges.json", "--out", out]) == 0
    compare_bytes(out, GOLDEN / "bounds_mixed.json")


def _gaussian_matrix_input(path: Path, n: int, seed: int) -> Path:
    """A float matrix input: Philox normals / sqrt(n) above the diagonal,
    mirrored, with 0.0 on the diagonal."""
    upper = np.triu(np.random.Generator(np.random.Philox(seed)).standard_normal((n, n)), 1)
    upper /= math.sqrt(n)
    path.write_text(json.dumps({"matrix": (upper + upper.T).tolist()}))
    return path


def test_golden_bounds_gauss_n72(tmp_path):
    # n = 72 bisects with two halvings per pass; the report pins every
    # eigenvalue's bits through the loader and the kernel
    source = _gaussian_matrix_input(tmp_path / "gauss_n72.json", 72, 72)
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", source, "--out", out]) == 0
    compare_bytes(out, GOLDEN / "bounds_gauss_n72.json")


def test_bounds_report_matches_exact_spectrum(tmp_path):
    # C = kk' - I for k = (1,1,-1,-1) has the exact spectrum {-1,-1,-1,3}, so
    # beta+ >= 1 and beta- <= -1/3; the secular equation finds it exactly
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", INPUTS / "mixed_charges.json", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["eigenvalues"] == [-1.0, -1.0, -1.0, 3.0]
    assert doc["eig_beta_plus_lower"] == 1.0
    assert doc["eig_beta_minus_upper"] == -1 / 3


def test_bounds_report_of_the_same_matrix_is_within_roundoff(tmp_path):
    # the same C given as a matrix takes the tridiagonal kernel, whose float
    # bound may miss the exact one by roundoff (0.9999999999999996 for
    # beta+ = 1)
    source = tmp_path / "matrix.json"
    k = [1, 1, -1, -1]
    source.write_text(json.dumps({"matrix": [[0 if i == j else a * b for j, b in enumerate(k)]
                                             for i, a in enumerate(k)]}))
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", source, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["eigenvalues"]) == 4
    assert all(abs(x - y) <= 1e-14 for x, y in zip(doc["eigenvalues"], [-1, -1, -1, 3]))
    assert abs(doc["eig_beta_plus_lower"] - 1) <= 1e-14
    assert abs(doc["eig_beta_minus_upper"] + 1 / 3) <= 1e-14


def test_bounds_finite_for_huge_couplings(tmp_path):
    # the spectrum is {-1e200, 1e200}, so beta+ >= 1e-200 and beta- <= -1e-200
    source = tmp_path / "huge.json"
    source.write_text(json.dumps({"matrix": [[0, 1e200], [1e200, 0]]}))
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", source, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["eig_beta_plus_lower"] - 1e-200) <= 1e-12 * 1e-200
    assert abs(doc["eig_beta_minus_upper"] + 1e-200) <= 1e-12 * 1e-200


@pytest.mark.parametrize("name", ["two_component_2332.json", "plasma_6_6.json"])
def test_asymptote_prefactor_is_the_closed_form_one(tmp_path, name):
    out = tmp_path / "report.json"
    assert run(["critical", "--input", INPUTS / name, "--mode", "exact", "--out", out]) == 0
    doc = json.loads(out.read_text())
    expected = two_component_critical(load_system(INPUTS / name).two_component)
    assert doc["free_energy_asymptote_plus"] == (
        f"({expected.free_energy_prefactor})*log|beta-({expected.beta_plus})|")


def test_golden_closed_form_two_component(tmp_path):
    out = tmp_path / "report.json"
    assert run(["closed-form", "--input", INPUTS / "two_component_2332.json", "--out", out]) == 0
    compare_bytes(out, GOLDEN / "closed_form_tc.json")


def test_golden_closed_form_onsager(tmp_path):
    out = tmp_path / "report.json"
    assert run(["closed-form", "--input", INPUTS / "onsager_six.json", "--out", out]) == 0
    compare_bytes(out, GOLDEN / "closed_form_onsager.json")


def test_golden_arboricity(tmp_path):
    out = tmp_path / "report.json"
    assert run(["arboricity", "--input", INPUTS / "c5_graph.json", "--out", out]) == 0
    compare_bytes(out, GOLDEN / "arboricity_c5.json")


def test_golden_mc_partition(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["mc-partition", "--input", INPUTS / "pair_c1.json",
                "--beta-grid", " -0.4:0.8:4", "--samples", 2000, "--seed", 9,
                "--out", out])
    assert code == 0
    compare_bytes(out, GOLDEN / "mc_partition.csv")


def test_golden_mc_gibbs(tmp_path):
    out = tmp_path / "collapse.csv"
    code = run(["mc-gibbs", "--input", INPUTS / "mixed_charges.json",
                "--beta-grid", "0.5", "--steps", 3000, "--burn-in", 500,
                "--thin", 5, "--seed", 11, "--out", out])
    assert code == 0
    compare_bytes(out, GOLDEN / "mc_gibbs.csv")


def test_golden_ensemble(tmp_path):
    out = tmp_path / "ensemble.json"
    code = run(["ensemble", "--model", "gaussian_charges", "--n", 5,
                "--trials", 5, "--seed", 2, "--out", out])
    assert code == 0
    compare_bytes(out, GOLDEN / "ensemble_charges.json")


def test_golden_ensemble_couplings(tmp_path):
    # the CLI defaults: 50 trials of n = 8 diagonalised as one eigenvalue stack
    out = tmp_path / "ensemble.json"
    code = run(["ensemble", "--model", "gaussian_couplings", "--n", 8,
                "--trials", 50, "--seed", 0, "--out", out])
    assert code == 0
    compare_bytes(out, GOLDEN / "ensemble_couplings.json")


@pytest.mark.parametrize("model", ["gaussian_couplings", "gaussian_charges"])
def test_ensemble_chunks_give_the_unchunked_report(monkeypatch, model):
    # 20 trials as stacks of 7, 7 and 6
    whole = cli.run_ensemble(model, 9, 20, 3)
    monkeypatch.setattr(cli, "_STACK_TRIALS", 7)
    assert cli.run_ensemble(model, 9, 20, 3) == whole


def test_ensemble_runs_no_jacobi(monkeypatch):
    # its bounds come from the tridiagonal kernel: a Jacobi capped at 0
    # sweeps would refuse every trial
    whole = cli.run_ensemble("gaussian_couplings", 12, 5, 0)
    monkeypatch.setattr(spectral, "_SWEEP_CAP", 0)
    assert cli.run_ensemble("gaussian_couplings", 12, 5, 0) == whole


def test_critical_says_when_both_endpoints_are_infinite(tmp_path, capsys):
    source = tmp_path / "zero.json"
    source.write_text('{"matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')
    assert run(["critical", "--input", source]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n = 3  (mode: exact)", "interval: (-inf, inf)", "T+ = 0   T- = 0",
        "degenerate: both endpoints infinite, no collapse on either side"]


# ---------------------------------------------------------------------------
# Exit codes and validation
# ---------------------------------------------------------------------------

def test_exit_2_on_unknown_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"matrix": [[0,1],[1,0]], "unexpected": 1}')
    assert run(["critical", "--input", bad]) == 2


def test_exit_2_on_asymmetric_matrix(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"matrix": [[0,1],[2,0]]}')
    assert run(["critical", "--input", bad]) == 2


_BEYOND = "3" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize("system,command,message", [
    ('{"matrix": [[0, "1e400"], ["1e400", 0]]}', "critical", "coupling (0,1)"),
    ('{"charges": ["1e200", "-1e200"]}', "bounds", "coupling (0,1)"),
    # closed-form reads no grid and answers this plasma exactly; bounds reads its grid
    ('{"two_component": {"n1": 1, "n2": 1, "z1": "1e400", "z2": "1e400"}}', "bounds",
     "coupling (0,1)"),
    ('{"random": {"model": "couplings", "n": 4, "variance": "1e400", "seed": 0}}', "critical",
     "random.variance 1e400"),
    ('{"charges": ["1e-200", "1e-200", "-1e-200"]}', "closed-form",
     "the positive-side Onsager candidate"),
    (f'{{"matrix": [[0, 1.5, {_BEYOND}], [1.5, 0, 1], [{_BEYOND}, 1, 0]]}}', "critical",
     "coupling (0,2)"),
    # mixed charges are read as floats, so the charge itself is refused
    ('{"charges": ["1e400", 1.0, -1.0, -1.0]}', "critical", "charge k[0]"),
    ('{"charges": [1.0, -1.0, "-1e400", 1.0]}', "bounds", "charge k[2]"),
], ids=["matrix", "charge-product", "two-component", "variance", "onsager-candidate",
        "mixed-matrix", "mixed-charges-critical", "mixed-charges-bounds"])
def test_exit_2_on_exact_value_beyond_float_range(tmp_path, capsys, system, command, message):
    source = tmp_path / "huge.json"
    source.write_text(system)
    out = tmp_path / "report.json"
    assert run([command, "--input", source, "--out", out]) == 2
    assert capsys.readouterr().err == f"error (input): {message} is beyond the float range\n"
    assert not out.exists()


_UNDERFLOW = '{"charges": ["1e-200", "1e-200", "-1e-200"]}'  # couplings of 1e-400


@pytest.mark.parametrize("argv", [
    ["critical", "--mode", "float"],
    ["bounds"],
    ["mc-partition", "--beta-grid", "0.5", "--samples", 1000],
    ["mc-gibbs", "--beta-grid", "0.5", "--steps", 200, "--burn-in", 100],
], ids=lambda argv: argv[0])
def test_exit_2_when_exact_couplings_underflow_in_float(tmp_path, capsys, argv):
    source = tmp_path / "tiny.json"
    source.write_text(_UNDERFLOW)
    out = tmp_path / "out"
    assert run([*argv, "--input", source, "--out", out]) == 2
    assert "underflow the float range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["critical", "--mode", "float"],
    ["bounds"],
    ["mc-partition", "--beta-grid", "0.5", "--samples", 1000],
    ["mc-gibbs", "--beta-grid", "0.5", "--steps", 200, "--burn-in", 100],
], ids=lambda argv: argv[0])
@pytest.mark.filterwarnings("error")
def test_exit_2_when_exact_couplings_sum_beyond_float_range(tmp_path, capsys, argv):
    # exact products of at most 1.21e308: each float is finite, their sum is
    # not; exact mode solves them as before
    source = tmp_path / "steep.json"
    source.write_text('{"charges": ["1.1e154", "1.1e154", "1.1e154", "-1e154", "-1e154", "-1e154"]}')
    out = tmp_path / "out"
    assert run([*argv, "--input", source, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error (input): the sum of |c_ij| over pairs i < j is beyond the float range\n")
    assert not out.exists()
    assert run(["critical", "--input", source, "--out", out]) == 0


_FLOAT_OUT_OF_RANGE = {
    # every product overflows; the first infinite coupling is named
    "overflow": ('{"charges": [1e200, 1e200, 1e200, -1e200, -1e200]}',
                 "error (input): coupling (0,1) is beyond the float range"),
    # every product underflows to 0.0
    "underflow": ('{"charges": [1e-200, 1e-200, 1e-200, -1e-200, -1e-200]}',
                  "error (input): the couplings underflow the float range: each is 0.0 as a float"),
    # every product is finite (at most 1.21e308), their sum is not
    "pair-sum": ('{"charges": [1.1e154, 1.1e154, 1.1e154, -1e154, -1e154, -1e154]}',
                 "error (input): the sum of |c_ij| over pairs i < j is beyond the float range"),
}


@pytest.mark.parametrize("argv", [
    ["critical"],
    ["bounds"],
    ["mc-partition", "--beta-grid", "0.5", "--samples", 1000],
    ["mc-gibbs", "--beta-grid", "0.5", "--steps", 200, "--burn-in", 100],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("case", sorted(_FLOAT_OUT_OF_RANGE))
@pytest.mark.filterwarnings("error")
def test_exit_2_on_float_charges_beyond_float_range(tmp_path, capsys, argv, case):
    system, message = _FLOAT_OUT_OF_RANGE[case]
    source = tmp_path / "charges.json"
    source.write_text(system)
    out = tmp_path / "out"
    assert run([*argv, "--input", source, "--out", out]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(_FLOAT_OUT_OF_RANGE))
@pytest.mark.filterwarnings("error")
def test_closed_form_refuses_float_charges_beyond_float_range(tmp_path, capsys, case):
    # closed-form builds no grid: the positive class's pair sum overflows or
    # underflows in each case, and its candidate is refused
    source, out = tmp_path / "charges.json", tmp_path / "out"
    source.write_text(_FLOAT_OUT_OF_RANGE[case][0])
    assert run(["closed-form", "--input", source, "--out", out]) == 2
    assert capsys.readouterr().err == \
        "error (input): the positive-side Onsager candidate is beyond the float range\n"
    assert not out.exists()


@pytest.mark.parametrize("spec,message", [
    # z1*z2 = 1e400 is inf as a float, so 1/(z1*z2) would be 0.0
    ({"n1": 1, "n2": 1, "z1": 1e200, "z2": 1e200}, "beta+ = 1/(z1*z2)"),
    # z1*z2 = 1e-400 is 0.0 as a float
    ({"n1": 1, "n2": 1, "z1": 1e-200, "z2": 1e-200}, "beta+ = 1/(z1*z2)"),
    ({"n1": 2, "n2": 2, "z1": 1e308, "z2": 1e308}, "n1*z1"),
    # exact and not neutral: the message's float of n1*z1 overflows
    ({"n1": 1, "n2": 2, "z1": "1e400", "z2": "1e400"}, "n1*z1"),
], ids=["overflow", "underflow", "n-times-z", "exact-not-neutral"])
@pytest.mark.filterwarnings("error")
def test_closed_form_refuses_a_plasma_beyond_float_range(tmp_path, capsys, spec, message):
    source, out = tmp_path / "plasma.json", tmp_path / "out"
    source.write_text(json.dumps({"two_component": spec}))
    assert run(["closed-form", "--input", source, "--out", out]) == 2
    assert capsys.readouterr().err == f"error (input): {message} is beyond the float range\n"
    assert not out.exists()


_SUBNORMAL_PAIR = '{"matrix": [[0, 1e-310], [1e-310, 0]]}'


@pytest.mark.parametrize("system,argv,side", [
    # T- = -1e-310 on {1,2}: beta- = -1e310 is attained, not -inf
    (_SUBNORMAL_PAIR, ["critical", "--mode", "float"], "beta-"),
    # T+ = 1e-310 on {1,2}: beta+ = 1e310 is attained, not inf; beta- = -1
    ('{"matrix": [[0, -1e-310, 1], [-1e-310, 0, 1], [1, 1, 0]]}', ["critical", "--mode", "float"],
     "beta+"),
    # eigenvalues +-1e-310 bound T+ and -T- by 1e-310
    (_SUBNORMAL_PAIR, ["bounds"], "beta+"),
], ids=["critical-minus", "critical-plus", "bounds"])
@pytest.mark.filterwarnings("error")
def test_exit_2_when_a_float_endpoint_is_beyond_float_range(tmp_path, capsys, system, argv, side):
    source, out = tmp_path / "subnormal.json", tmp_path / "out"
    source.write_text(system)
    assert run([*argv, "--input", source, "--out", out]) == 2
    assert capsys.readouterr().err == f"error (input): {side} is beyond the float range\n"
    assert not out.exists()


def test_exact_endpoint_past_the_float_range_is_kept(tmp_path):
    source, out = tmp_path / "subnormal.json", tmp_path / "report.json"
    source.write_text('{"matrix": [[0, "1e-310"], ["1e-310", 0]]}')
    assert run(["critical", "--input", source, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "exact"
    assert Fraction(doc["beta_minus"]) == -10 ** 310 and doc["beta_plus"] == "inf"


def test_closed_form_answers_an_exact_plasma_beyond_float_range(tmp_path, capsys):
    source, out = tmp_path / "plasma.json", tmp_path / "report.json"
    source.write_text('{"two_component": {"n1": 1, "n2": 1, "z1": "1e400", "z2": "1e400"}}')
    assert run(["closed-form", "--input", source, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["beta_plus"] == "1/1" + "0" * 800
    assert doc["kappa_plus"] == 1 and doc["free_energy_prefactor"] == "1/2"
    assert capsys.readouterr().out.startswith(f"beta+ = 1/1{'0' * 800}   kappa+ = 1")


@pytest.mark.parametrize("system,first", [
    ({"two_component": {"n1": 1024, "n2": 1024, "z1": 1, "z2": 1}}, "beta+ = 1   kappa+ = 1024"),
    ({"charges": [1] * 1024 + [-1] * 1024}, "beta- = -1/512   side: tie"),
], ids=["plasma", "charges"])
def test_closed_form_builds_no_grid(tmp_path, monkeypatch, capsys, system, first):
    def refuse(*args, **kwargs):
        raise AssertionError("built a coupling grid")

    monkeypatch.setattr(coupling, "from_charges", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(system))
    assert run(["closed-form", "--input", path]) == 0
    assert capsys.readouterr().out.startswith(first)


def test_arboricity_builds_one_graph_grid(tmp_path, monkeypatch):
    original, calls = coupling.from_graph, []

    def counted(g):
        calls.append(g)
        return original(g)

    # graphs imported the name, so both namespaces count
    monkeypatch.setattr(graphs, "from_graph", counted)
    monkeypatch.setattr(coupling, "from_graph", counted)
    out = tmp_path / "report.json"
    assert run(["arboricity", "--input", INPUTS / "c5_graph.json", "--out", out]) == 0
    assert len(calls) == 1
    compare_bytes(out, GOLDEN / "arboricity_c5.json")


def test_exit_2_when_an_onsager_pair_sum_underflows(tmp_path, capsys):
    # the positive class's one product, 1e-400, is 0.0 as a float
    source = tmp_path / "charges.json"
    source.write_text('{"charges": [1e-200, 1e-200, -1.0, -1.2]}')
    out = tmp_path / "out"
    assert run(["closed-form", "--input", source, "--out", out]) == 2
    assert capsys.readouterr().err == \
        "error (input): the positive-side Onsager candidate is beyond the float range\n"
    assert not out.exists()


def test_closed_form_ties_float_charges_as_critical_does(tmp_path, capsys):
    # the class ratios 1.5 and 1.50000000005 differ by 3.3e-11 relative, within --tol
    source = tmp_path / "near_tie.json"
    source.write_text('{"charges": [1, 1, 1, -1, -1, -1.0000000001]}')
    closed, report = tmp_path / "closed.json", tmp_path / "critical.json"
    assert run(["closed-form", "--input", source, "--out", closed]) == 0
    assert "side: tie" in capsys.readouterr().out
    doc = json.loads(closed.read_text())
    assert doc["winning_side"] == "tie"
    assert doc["support"] == ["p1=p2=p3", "p4=p5=p6"]
    assert run(["critical", "--input", source, "--out", report]) == 0
    assert json.loads(report.read_text())["g_minus"] == [[1, 2, 3], [4, 5, 6]]


def test_exact_critical_keeps_underflowing_couplings(tmp_path):
    source = tmp_path / "tiny.json"
    source.write_text(_UNDERFLOW)
    out = tmp_path / "report.json"
    assert run(["critical", "--input", source, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "exact"
    assert (report["beta_minus"], report["beta_plus"]) == ("-1" + "0" * 400, "1" + "0" * 400)


def test_float_ties_scale_with_the_couplings(tmp_path):
    # |c| ~ 1e-12: float mode agrees with exact mode on the charges x 1e6
    tiny, whole = tmp_path / "tiny.json", tmp_path / "whole.json"
    tiny.write_text('{"charges": [3e-6, -1e-6, -2e-6]}')
    whole.write_text('{"charges": [3, -1, -2]}')
    out, exact_out = tmp_path / "report.json", tmp_path / "exact.json"
    assert run(["critical", "--mode", "float", "--input", tiny, "--out", out]) == 0
    assert run(["critical", "--input", whole, "--out", exact_out]) == 0
    report, exact = json.loads(out.read_text()), json.loads(exact_out.read_text())
    assert report["g_plus"] == exact["g_plus"] == [[1, 3]]
    assert report["g_minus"] == exact["g_minus"] == [[2, 3]]
    for side in ("plus", "minus"):
        assert report[f"kappa_{side}"] == exact[f"kappa_{side}"] == 1
        assert report[f"beta_{side}"] == pytest.approx(float(Fraction(exact[f"beta_{side}"])) * 1e12,
                                                       rel=1e-12)
    assert (report["beta_minus"], report["beta_plus"]) == pytest.approx((-5e11, 1e12 / 6))
    assert sk_ground_state_check(load_system(tiny).matrix("float"))


def test_float_ties_below_an_underflowing_coupling(tmp_path):
    # c12 = -1e-400 underflows to 0.0; c34 = -1e-200 alone wins G+ in both modes.
    # G- still ties all four cross pairs in float mode: their ratios are
    # +-1e-300, within 1e-9 * 1e-200 of each other; exact mode splits them
    source = tmp_path / "small.json"
    source.write_text('{"charges": ["1e-200", "-1e-200", "1e-100", "-1e-100"]}')
    float_out, exact_out = tmp_path / "float.json", tmp_path / "exact.json"
    assert run(["critical", "--mode", "float", "--input", source, "--out", float_out]) == 0
    assert run(["critical", "--input", source, "--out", exact_out]) == 0
    got, exact = json.loads(float_out.read_text()), json.loads(exact_out.read_text())
    assert got["g_plus"] == exact["g_plus"] == [[3, 4]]
    assert got["beta_plus"] == pytest.approx(float(Fraction(exact["beta_plus"])), rel=1e-12)


def test_readme_experiment_commands_parse(tmp_path):
    # the README's Experiments block is the one way to run each experiment
    block = (HERE.parent / "README.md").read_text().split("## Experiments", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("loggas ")]
    assert len(commands) == 5
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        assert getattr(args, "input", None) is None or (HERE.parent / args.input).is_file()
        argv = argv[1:]
        for flag, root in (("--input", HERE.parent), ("--out", tmp_path)):
            if flag in argv:
                argv[argv.index(flag) + 1] = str(root / argv[argv.index(flag) + 1])
        assert run(argv) == 0

    # the figures the README's bullets quote
    pole = (tmp_path / "pole.csv").read_text()
    assert round(float(pole.split("# pole_fit_kappa=")[1].split("\n")[0]), 3) == 0.055
    last = [line for line in pole.splitlines() if line.startswith("-0.99999,")]
    assert round(math.exp(float(last[0].split(",")[1])), 1) == 4.6
    assert "# pole_fit_heavy_tail_points=5\n" in pole
    with open(tmp_path / "collapse.csv", newline="") as fh:
        medians = [float(row["q50"]) for row in csv.DictReader(fh)
                   if row["obs_name"] == "max_pair_dist"]
    assert [round(m, 3) for m in medians] == [1.889, 1.747, 1.399]
    for name in ("couplings.json", "charges.json"):
        assert json.loads((tmp_path / name).read_text())["bound_violations"] == 0


def test_exit_2_on_missing_file():
    assert run(["critical", "--input", "/nonexistent/input.json"]) == 2


@pytest.mark.parametrize("args", [
    ["critical", "--input", INPUTS],
    ["critical", "--input", INPUTS / "pair_c1.json", "--out", INPUTS],
    ["mc-gibbs", "--input", INPUTS / "pair_c1.json", "--beta-grid", "0.1",
     "--steps", 20, "--burn-in", 0, "--out", INPUTS],
], ids=["critical-input", "critical-out", "mc-gibbs-out"])
def test_exit_2_on_directory_path(args):
    assert run(args) == 2


def test_exit_2_when_exact_mode_needs_rationals(tmp_path):
    floats = tmp_path / "floats.json"
    floats.write_text('{"matrix": [[0, 1.5], [1.5, 0]]}')
    assert run(["critical", "--input", floats, "--mode", "exact"]) == 2


def test_exit_3_on_oversized_instance(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"random": {"model": "couplings", "n": 27, "variance": 1.0, "seed": 0}}')
    assert run(["critical", "--input", big]) == 3


def test_exit_3_on_ensemble_size_cap():
    assert run(["ensemble", "--model", "gaussian_couplings", "--n", 21, "--trials", 1]) == 3


def test_exit_2_on_ensemble_below_two_particles():
    assert run(["ensemble", "--model", "gaussian_couplings", "--n", 0, "--trials", 1]) == 2


def test_exit_4_when_grid_leaves_interval(tmp_path, capsys, monkeypatch):
    # pair_c1 has the interval (-1, inf); the first point of one grid and
    # only the last of the other are outside, and every point is checked
    # before any sampling
    def no_sampling(*args):
        raise AssertionError("sampled before the grid was checked")

    monkeypatch.setattr(sphere_mc, "draw_partition", no_sampling)
    monkeypatch.setattr(sphere_mc, "estimate_partition", no_sampling)
    out = tmp_path / "sweep.csv"
    for grid, outside in ((" -1.0:0.5:4", "-1.0"), (" -0.2,-0.5,-1.2", "-1.2")):
        code = run(["mc-partition", "--input", INPUTS / "pair_c1.json",
                    "--beta-grid", grid, "--samples", 2000, "--out", out])
        assert code == 4
        assert f"beta={outside} not strictly inside (-1.0, inf)" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("model, variance", [
    ("gaussian_couplings", None),
    ("gaussian_charges", None),
    ("gaussian_couplings", 1e-30),  # T ~ 1e-14: a slack of 1e-9 would hide it
], ids=["gaussian_couplings", "gaussian_charges", "gaussian_couplings_tiny"])
def test_ensemble_raises_at_the_first_violated_bound(monkeypatch, model, variance):
    # T+ ten times too large breaks its bound at n = 6, seed 1, for both models
    def inflated(c):
        plus, minus = solver.solve_both(c)
        return dataclasses.replace(plus, t_value=10 * plus.t_value), minus

    monkeypatch.setattr(cli, "solve_both", inflated)
    with pytest.raises(RuntimeError, match=r"^trial 0: T\+ = .* exceeds its deterministic bound"):
        cli.run_ensemble(model, 6, 3, 1, variance=variance)


@pytest.mark.parametrize("model,random_input", [
    ("gaussian_couplings", {"model": "couplings", "n": 8, "variance": 0.125}),
    ("gaussian_charges", {"model": "charges", "n": 8}),
])
def test_ensemble_and_bounds_read_the_same_bound(tmp_path, model, random_input):
    # each trial's bounds are spectral's, bit for bit, and `bounds` on the
    # same sampled instance prints the beta bounds derived from them
    report = cli.run_ensemble(model, 8, 3, 40)
    source, out = tmp_path / "instance.json", tmp_path / "bounds.json"
    for row in report["rows"]:
        if model == "gaussian_couplings":
            bounds = eig_bounds(sample_gaussian_couplings(8, 0.125, row["seed"]))
            keys = ("eig_beta_plus_lower", "eig_beta_minus_upper")
        else:
            bounds = charge_bounds(sample_gaussian_charges(8, row["seed"]))
            keys = ("charge_beta_plus_lower", "charge_beta_minus_upper")
        assert row["bound_t_plus"] == bounds.t_plus_upper
        assert row["bound_neg_t_minus"] == bounds.neg_t_minus_upper
        source.write_text(json.dumps({"random": {**random_input, "seed": row["seed"]}}))
        assert run(["bounds", "--input", source, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert (doc[keys[0]], doc[keys[1]]) == (1 / row["bound_t_plus"],
                                                -1 / row["bound_neg_t_minus"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_4_when_the_weights_overflow(tmp_path):
    # c = 300: Z(1) = 2^600/301 ~ 1.4e178 is a float but its batch-means
    # variance is not, and from beta = 2 on the weights overflow
    source = tmp_path / "steep.json"
    source.write_text('{"matrix": [[0, 300], [300, 0]]}')
    out = tmp_path / "sweep.csv"
    assert run(["mc-partition", "--input", source, "--beta-grid", "1,2,3,4,5",
                "--samples", 2000, "--out", out]) == 4
    assert not out.exists()


def test_mc_partition_with_couplings_near_the_float_limit(tmp_path):
    # the pair sum 1.6e308 is a float, but log d^2 @ c overflows unless beta
    # scales the couplings first.  With S = sum c_ij log d_ij^2, whose three
    # terms are pairwise independent with log d^2 of mean log 4 - 1 and
    # variance 1, Z = E[exp(beta S)] is 1 + 0.014 (log 4 - 1) + 1.552e-4 / 2
    # to second order
    source = tmp_path / "near_max.json"
    source.write_text('{"matrix": [[0, 1e308, -1e307], [1e308, 0, 5e307], [-1e307, 5e307, 0]]}')
    out = tmp_path / "sweep.csv"
    assert run(["mc-partition", "--input", source, "--beta-grid", "1e-310",
                "--samples", 20000, "--seed", 3, "--out", out]) == 0
    row = next(csv.DictReader(out.open(encoding="utf-8")))
    z = 1.0 + 0.014 * (math.log(4.0) - 1.0) + 1.552e-4 / 2
    assert row["heavy_tail"] == "false"
    assert abs(float(row["logZ_mean"]) - math.log(z)) <= 4 * float(row["logZ_stderr"])


def test_exit_4_on_failed_onsager_conditions(tmp_path):
    bad = tmp_path / "wide.json"
    bad.write_text('{"charges": [1, 1.6, -1, -1]}')
    assert run(["closed-form", "--input", bad]) == 4


@pytest.mark.parametrize("system,argv,code,label", [
    ('{"matrix": [[0, 1], [1, 0]]', ["critical"], 2, "input"),
    ('{"random": {"model": "couplings", "n": 27, "seed": 0}}', ["critical"], 3, "size limit"),
    ('{"matrix": [[0, 1], [1, 0]]}', ["mc-partition", "--beta-grid=-1.0:0.5:4"], 4, "domain"),
], ids=["malformed", "oversized", "beta-outside"])
def test_exit_contract_through_a_process(tmp_path, system, argv, code, label):
    path = tmp_path / "system.json"
    path.write_text(system)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "loggas.cli", argv[0], "--input", str(path),
                           *argv[1:]], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == code
    assert proc.stderr.startswith(f"error ({label}): ")
    assert proc.stdout == ""


def test_mc_partition_appends_pole_fit(tmp_path):
    out = tmp_path / "toward.csv"
    code = run(["mc-partition", "--input", INPUTS / "pair_c1.json",
                "--beta-grid", " -0.5,-0.8,-0.9,-0.95,-0.98", "--samples", 20000,
                "--seed", 5, "--out", out])
    assert code == 0
    text = out.read_text()
    assert "# pole_fit_beta_crit=-1.0" in text
    assert "# pole_fit_kappa=" in text


def test_pole_fit_sweep_bytes(tmp_path):
    # csv.writer ends the header and rows in CRLF; the fit's comment lines
    # follow in order, each ending in LF (mc_partition.csv has no fit)
    out = tmp_path / "toward.csv"
    assert run(["mc-partition", "--input", INPUTS / "pair_c1.json",
                "--beta-grid", " -0.1,-0.3,-0.5,-0.7,-0.9", "--samples", 2000,
                "--seed", 5, "--out", out]) == 0
    assert out.read_bytes() == (
        b"beta,logZ_mean,logZ_stderr,samples,heavy_tail\r\n"
        b"-0.1,-0.029041300889698134,0.0026814747120939278,2000,false\r\n"
        b"-0.3,-0.04105743851748992,0.010941217644894944,2000,false\r\n"
        b"-0.5,0.04495801636583707,0.031266290598966504,2000,true\r\n"
        b"-0.7,0.30586408673138443,0.08767572170960841,2000,true\r\n"
        b"-0.9,0.845762865038451,0.2104041376926099,2000,true\r\n"
        b"# pole_fit_beta_crit=-1.0\n"
        b"# pole_fit_kappa=0.422928500724335\n"
        b"# pole_fit_heavy_tail_points=3\n")


@pytest.mark.parametrize("argv,default", [
    (["mc-partition", "--input", INPUTS / "pair_c1.json", "--beta-grid", " -0.4:0.8:4",
      "--samples", 2000, "--seed", 9], "partition_sweep.csv"),
    (["mc-gibbs", "--input", INPUTS / "mixed_charges.json", "--beta-grid", "0.5",
      "--steps", 600, "--burn-in", 200], "collapse_sweep.csv"),
], ids=["mc-partition", "mc-gibbs"])
def test_sweeps_write_their_default_csv(tmp_path, monkeypatch, argv, default):
    explicit = tmp_path / "explicit.csv"
    assert run(argv + ["--out", explicit]) == 0
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert (tmp_path / default).read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("grid,heavy", [
    (" -0.1,-0.3,-0.5,-0.7,-0.9", 3),  # 2 beta <= -1 from beta = -0.5 on
    (" -0.1,-0.2,-0.3,-0.4,-0.45", 0),
], ids=["three-flagged", "none-flagged"])
def test_mc_partition_marks_a_pole_fit_through_heavy_tailed_points(tmp_path, capsys,
                                                                   grid, heavy):
    # a flagged estimate has infinite variance, so a fit through it is marked
    out = tmp_path / "toward.csv"
    assert run(["mc-partition", "--input", INPUTS / "pair_c1.json", "--beta-grid", grid,
                "--samples", 2000, "--seed", 1, "--out", out]) == 0
    comments = [line.split("=")[0] for line in out.read_text().splitlines()
                if line.startswith("#")]
    fit_line = capsys.readouterr().out.splitlines()[-1]
    assert fit_line.startswith("pole fit toward beta=-1: kappa ~ ")
    if heavy:
        assert comments == ["# pole_fit_beta_crit", "# pole_fit_kappa",
                            "# pole_fit_heavy_tail_points"]
        assert f"# pole_fit_heavy_tail_points={heavy}\n" in out.read_text()
        assert fit_line.endswith(
            f" ({heavy} of 5 points heavy-tailed: not an estimate of kappa)")
    else:
        assert comments == ["# pole_fit_beta_crit", "# pole_fit_kappa"]
        assert "heavy-tailed" not in fit_line


def test_mc_partition_rows_match_serial_estimates(tmp_path):
    out = tmp_path / "sweep.csv"
    grid = [0.1, 0.3, 0.5, 0.7]
    assert run(["mc-partition", "--input", INPUTS / "pair_c1.json",
                "--beta-grid", ",".join(map(str, grid)), "--samples", 2000,
                "--seed", 3, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    c = load_system(INPUTS / "pair_c1.json").coupling
    assert len(rows) == len(grid)
    for beta, row in zip(grid, rows):
        est = estimate_partition(c, beta, 2000, 3)
        assert float(row["beta"]) == beta
        assert float(row["logZ_mean"]) == math.log(est.mean)
        assert float(row["logZ_stderr"]) == est.stderr / est.mean
        assert row["heavy_tail"] == ("true" if est.heavy_tail else "false")


def test_mc_partition_row_does_not_depend_on_the_rest_of_the_grid(tmp_path):
    # beta = -0.45 swept alone and as the middle of a grid whose last two
    # points are heavy-tailed: one sample at --seed, so the same bytes
    alone, swept = tmp_path / "alone.csv", tmp_path / "swept.csv"
    for grid, out in (("-0.45", alone), ("-0.1,-0.3,-0.45,-0.7,-0.9", swept)):
        assert run(["mc-partition", "--input", INPUTS / "pair_c1.json", f"--beta-grid={grid}",
                    "--samples", 2000, "--seed", 7, "--out", out]) == 0
    row = alone.read_bytes().split(b"\r\n")[1]
    assert row.startswith(b"-0.45,") and row.endswith(b",false")
    rows = swept.read_bytes().split(b"\r\n")[1:6]
    assert rows[2] == row
    assert [r.endswith(b",true") for r in rows] == [False, False, False, True, True]


def test_mc_partition_draws_once_per_sweep(tmp_path, monkeypatch):
    draws, estimates = [], []
    draw, estimate = sphere_mc.draw_partition, sphere_mc.estimate_partition

    def draw_spy(*args):
        draws.append(draw(*args))
        return draws[-1]

    def estimate_spy(*args, sample):
        estimates.append(sample)
        return estimate(*args, sample=sample)

    monkeypatch.setattr(sphere_mc, "draw_partition", draw_spy)
    monkeypatch.setattr(sphere_mc, "estimate_partition", estimate_spy)
    assert run(["mc-partition", "--input", INPUTS / "pair_c1.json",
                "--beta-grid", " -0.4:0.8:5", "--samples", 2000, "--seed", 9,
                "--out", tmp_path / "sweep.csv"]) == 0
    assert len(draws) == 1 and len(estimates) == 5
    assert all(sample is draws[0] for sample in estimates)


def test_report_schema_is_versioned(tmp_path):
    out = tmp_path / "report.json"
    run(["critical", "--input", INPUTS / "pair_c1.json", "--out", out])
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["beta_plus"] == "inf"
    assert doc["beta_minus"] == "-1"


def _supports_printed(out: str, side: str) -> list:
    prefix = f"  support_{side}: "
    return [line[len(prefix):] for line in out.splitlines() if line.startswith(prefix)]


def test_plasma_report_is_written_as_indent_2_json(tmp_path, capsys):
    # 720 nests, and the first 10,000 of the 8+8 plasma's 40,320 in exact and
    # float mode, rendered from the optimizers' texts: json reads each report
    # back and writes it unchanged, and the console prints the same supports
    plasma_8_8 = tmp_path / "plasma_8_8.json"
    plasma_8_8.write_text('{"two_component": {"n1": 8, "n2": 8, "z1": 1, "z2": 1}}')
    out = tmp_path / "report.json"
    for source, mode, kappa, nests, truncated in (
            (INPUTS / "plasma_6_6.json", "auto", 6, 720, False),
            (plasma_8_8, "exact", 8, 10_000, True), (plasma_8_8, "float", 8, 10_000, True)):
        assert run(["critical", "--input", source, "--mode", mode, "--out", out]) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"
        assert doc["kappa_plus"] == kappa
        assert len(doc["max_nests_plus"]) == len(doc["support_plus"]) == nests
        assert all(len(nest) == kappa for nest in doc["max_nests_plus"])
        assert doc["nests_truncated_plus"] is truncated
        assert _supports_printed(capsys.readouterr().out, "plus") == doc["support_plus"]


@pytest.mark.parametrize("mode", ["exact", "float", "auto"])
@pytest.mark.parametrize("name", sorted(p.name for p in INPUTS.glob("*.json")))
def test_critical_report_round_trips_through_json(tmp_path, capsys, name, mode):
    # empty families and nest lists, unattained and degenerate sides, and
    # float, rational and infinite endpoints
    out = tmp_path / "report.json"
    code = run(["critical", "--input", INPUTS / name, "--mode", mode, "--out", out])
    printed = capsys.readouterr().out
    if code != 0:  # exact mode on float input, or an input critical cannot read
        assert code == 2 and not out.exists()
        return
    text = out.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    assert list(doc)[:3] == ["schema_version", "subcommand", "mode"]
    for side in ("plus", "minus"):
        assert len(doc[f"max_nests_{side}"]) == len(doc[f"support_{side}"])
        shown = doc[f"attained_{side}"] and not doc["degenerate"]
        assert _supports_printed(printed, side) == (doc[f"support_{side}"] if shown else [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_writer_refuses_non_finite_floats(bad):
    for fields in ({"k": bad}, {"k": [1, bad]}, {"k": {"j": [bad]}}, {bad: 1}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._report_text("bounds", fields)


def test_report_writer_refuses_numpy_integers():
    for fields in ({"k": np.int64(3)}, {"k": [1, np.int64(3)]}, {"k": {"j": [np.int64(3)]}}):
        with pytest.raises(TypeError, match="int64"):
            cli._report_text("bounds", fields)


def test_float_mode_on_exact_input(tmp_path):
    out = tmp_path / "report.json"
    assert run(["critical", "--input", INPUTS / "ex72_charges.json",
                "--mode", "float", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "float"
    assert doc["beta_minus"] == -0.01
    assert doc["g_minus"] == [[1, 2]]


def test_exit_3_on_oversized_mc_partition(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"random": {"model": "couplings", "n": 27, "variance": 1.0, "seed": 0}}')
    assert run(["mc-partition", "--input", big, "--beta-grid", "0.1", "--samples", 2000]) == 3


@pytest.mark.parametrize("command,sampler,flags", [
    ("mc-partition", "draw_partition", ["--samples", 10**12]),
    ("mc-gibbs", "metropolis_chain", ["--steps", 10**12]),
])
def test_exit_3_when_sample_arrays_cannot_be_allocated(tmp_path, monkeypatch,
                                                       command, sampler, flags):
    # numpy raises MemoryError before any sampling when the sample or chain
    # arrays do not fit; the stand-in raises it without allocating
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(sphere_mc, sampler, out_of_memory)
    out = tmp_path / "sweep.csv"
    assert run([command, "--input", INPUTS / "pair_c1.json", "--beta-grid", "0.1",
                *flags, "--out", out]) == 3
    assert not out.exists()


_TIE_MATRIX = '{"matrix": [[0, 1.5, -2], [1.5, 0, 0.5], [-2, 0.5, 0]]}'


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_exit_2_on_bad_tol(tmp_path, tol):
    path = tmp_path / "m.json"
    path.write_text(_TIE_MATRIX)
    assert run(["critical", "--input", path, "--tol", tol]) == 2


@pytest.mark.parametrize("command", ["mc-partition", "mc-gibbs"])
@pytest.mark.parametrize("grid", ["0.1:0.2", "0.1:0.2:0", "0.3,0.1,0.2", "nan", "inf", "0:inf:3"])
def test_exit_2_on_malformed_beta_grid(tmp_path, command, grid):
    out = tmp_path / "sweep.csv"
    assert run([command, "--input", INPUTS / "pair_c1.json", "--beta-grid", grid,
                "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("step_size", ["0", "nan", "inf", "1e-300", "5"])
def test_exit_2_on_bad_step_size(tmp_path, step_size):
    out = tmp_path / "collapse.csv"
    assert run(["mc-gibbs", "--input", INPUTS / "pair_c1.json", "--beta-grid", "0.2",
                "--steps", 300, "--burn-in", 100, "--step-size", step_size,
                "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["critical", "bounds"])
@pytest.mark.parametrize("text", [
    '{"matrix": [[0, NaN, 1], [NaN, 0, 2], [1, 2, 0]]}',
    '{"matrix": [[0, Infinity, 1], [Infinity, 0, 2], [1, 2, 0]]}',
    '{"charges": [1, NaN, -1]}',
    '{"two_component": {"n1": 2, "n2": 2, "z1": Infinity, "z2": 1}}',
    '{"random": {"model": "couplings", "n": 4, "variance": Infinity, "seed": 0}}',
], ids=["matrix-nan", "matrix-inf", "charges-nan", "z1-inf", "variance-inf"])
def test_exit_2_on_non_finite_input(tmp_path, command, text):
    path, out = tmp_path / "bad.json", tmp_path / "report.json"
    path.write_text(text)
    assert run([command, "--input", path, "--out", out]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# Each subcommand takes only the flags it reads
# ---------------------------------------------------------------------------

_RUNNABLE = {
    "critical": ["--input", INPUTS / "pair_c1.json"],
    "bounds": ["--input", INPUTS / "pair_c1.json"],
    "closed-form": ["--input", INPUTS / "two_component_2332.json"],
    "arboricity": ["--input", INPUTS / "c5_graph.json"],
    "mc-partition": ["--input", INPUTS / "pair_c1.json", "--beta-grid", "0.2",
                     "--samples", 1000],
    "mc-gibbs": ["--input", INPUTS / "pair_c1.json", "--beta-grid", "0.2",
                 "--steps", 200, "--burn-in", 100],
    "ensemble": ["--n", 4, "--trials", 2],
}

_UNREAD_FLAGS = (
    [("critical", "--seed", "1")]
    + [(command, flag, value) for command in ("bounds", "closed-form", "arboricity")
       for flag, value in (("--mode", "exact"), ("--tol", "1e-6"), ("--seed", "1"))]
    + [(command, flag, value) for command in ("mc-partition", "mc-gibbs", "ensemble")
       for flag, value in (("--mode", "float"), ("--tol", "1e-6"))]
)


@pytest.mark.parametrize("command,flag,value", _UNREAD_FLAGS)
def test_exit_2_on_flag_the_command_does_not_read(tmp_path, command, flag, value):
    argv = [command, *_RUNNABLE[command], "--out", tmp_path / "out"]
    assert run(argv) == 0
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", sorted(_RUNNABLE))
def test_no_command_runs_the_jacobi(tmp_path, monkeypatch, command):
    # eigenvalues come from the tridiagonal kernel or the secular equation;
    # the Jacobi serves only reads of eigenvectors, residual and sweeps
    def refuse(c):
        raise AssertionError(f"the Jacobi ran on n={c.n}")

    monkeypatch.setattr(spectral, "_jacobi", refuse)
    assert run([command, *_RUNNABLE[command], "--out", tmp_path / "out"]) == 0


def test_readme_lists_each_command_with_the_flags_it_declares():
    block = (HERE.parent / "README.md").read_text().split("## Command line\n\n```\n")[1]
    listed = {}
    for line in block.split("```")[0].splitlines():
        if line.startswith("loggas "):
            command = listed.setdefault(line.split()[1], [])
        command += re.findall(r"--[a-z][a-z-]*", line)
    assert {name: sorted(flags) for name, flags in listed.items()} == \
        {name: sorted(flags) for name, (_, _, flags) in cli._COMMANDS.items()}


# the function that does each command's expensive work
_WORK = {
    "critical": (cli, "critical_interval"),
    "ensemble": (cli, "run_ensemble"),
    "mc-partition": (sphere_mc, "draw_partition"),
    "mc-gibbs": (sphere_mc, "metropolis_chain"),
}


@pytest.mark.parametrize("command", list(_WORK))
@pytest.mark.parametrize("out", ["directory", "missing-parent"])
def test_exit_2_on_unwritable_out_before_any_work(tmp_path, monkeypatch, command, out):
    module, name = _WORK[command]

    def work(*args, **kwargs):
        pytest.fail(f"{name} ran before --out was checked")

    monkeypatch.setattr(module, name, work)
    target = tmp_path / "target"
    target.mkdir()
    path = target if out == "directory" else target / "missing" / "out"
    assert run([command, *_RUNNABLE[command], "--out", path]) == 2
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("system,argv,code", [
    (None, ["critical", "--input", INPUTS / "pair_c1.json"], 0),
    (None, ["critical", "--input", INPUTS / "missing.json"], 2),
    (None, ["ensemble", "--n", 21, "--trials", 1], 3),
    ('{"charges": [1, 1.6, -1, -1]}', ["closed-form"], 4),
], ids=["ok", "input", "size-limit", "domain"])
def test_main_restores_the_collector_it_pauses(tmp_path, monkeypatch, enabled, system, argv,
                                                code):
    seen, solve = [], cli.critical_interval

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "critical_interval", recording)
    if system is not None:
        path = tmp_path / "system.json"
        path.write_text(system)
        argv = argv + ["--input", path]
    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if caller else gc.disable)()
    assert seen == ([False] if code == 0 else [])


def _largest_cycle_member(argv) -> int:
    """The most items in a list, tuple, dict or set that only a reference
    cycle kept alive once ``main(argv)`` returned."""
    # a first run may import numpy.random, and inspect's parse of its Cython
    # signatures leaves copies of sys.modules in cycles: an import's, not a run's
    assert run(argv) == 0
    caller = gc.isenabled()
    gc.collect()
    gc.disable()  # no collection between the run and the one that saves
    try:
        assert run(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return max((len(x) for x in gc.garbage if isinstance(x, (list, tuple, dict, set))),
                   default=0)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        (gc.enable if caller else gc.disable)()


@pytest.mark.parametrize("command", list(_RUNNABLE) + ["plasma_8_8"])
def test_no_cycle_holds_a_report(tmp_path, command):
    # with the collector paused, a cycle through a report (the writer's
    # closure, say) would keep it until the caller collects; argparse's own
    # cycles hold a dozen items
    if command == "plasma_8_8":
        plasma = tmp_path / "plasma_8_8.json"
        plasma.write_text('{"two_component": {"n1": 8, "n2": 8, "z1": 1, "z2": 1}}')
        argv = ["critical", "--input", plasma]
    else:
        argv = [command, *_RUNNABLE[command]]
    assert _largest_cycle_member(argv + ["--out", tmp_path / "out"]) <= 100


def test_sk_check_reads_tol(tmp_path):
    # {1,2} and {1,3} tie within 1e-3; critical and the identity check
    # must both see the same tolerance
    path, out = tmp_path / "m.json", tmp_path / "report.json"
    path.write_text('{"matrix": [[0, 1, 1.000001], [1, 0, -5], [1.000001, -5, 0]]}')
    assert run(["critical", "--input", path, "--tol", "1e-3", "--out", out]) == 0
    assert json.loads(out.read_text())["g_minus"] == [[1, 2], [1, 3]]
    c = load_system(path).matrix("auto")
    assert sk_ground_state_check(c, tie_tol=1e-3)
    with pytest.raises(InputError, match="tol must be positive and finite"):
        sk_ground_state_check(c, tie_tol=0)


def test_exit_2_on_ensemble_variance_with_charges(tmp_path):
    out = tmp_path / "ensemble.json"
    assert run(["ensemble", "--model", "gaussian_charges", "--n", 4, "--trials", 2,
                "--variance", 2, "--out", out]) == 2
    assert not out.exists()


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_critical_holds_its_report_once(tmp_path, monkeypatch):
    # the 8+8 plasma's 3.9 MB report: main renders and writes its nests a
    # chunk at a time with --out and renders none without it, and each
    # support pattern is held once, in its console line, so neither run
    # holds the report text, its encoding and its pieces at once
    plasma, out = tmp_path / "plasma_8_8.json", tmp_path / "report.json"
    plasma.write_text('{"two_component": {"n1": 8, "n2": 8, "z1": 1, "z2": 1}}')
    argv = ["critical", "--input", plasma]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert run(argv + ["--out", tmp_path / "warm-up.json"]) == 0
        written, console_only = _traced_peak(argv + ["--out", out]), _traced_peak(argv)
    size = out.stat().st_size
    assert size > 3.9e6
    assert written <= 1.5 * size
    assert console_only <= 0.85 * size


def test_mc_gibbs_holds_one_chain_at_a_time(tmp_path, monkeypatch):
    # small draw and pair-difference blocks leave a 3000-step chain's
    # configurations (0.58 MB on the 4+4 plasma) the largest allocation, so
    # a sweep that kept every chain would peak about 3 times higher on 4
    # points than on 1
    monkeypatch.setattr(sphere_mc, "_DRAW_BLOCK", 128)
    monkeypatch.setattr(sphere_mc, "_BLOCK_FLOATS", 1 << 12)
    plasma = tmp_path / "plasma_4_4.json"
    plasma.write_text('{"two_component": {"n1": 4, "n2": 4, "z1": 1, "z2": 1}}')
    argv = ["mc-gibbs", "--input", plasma, "--steps", 3000, "--burn-in", 500,
            "--out", tmp_path / "sweep.csv", "--beta-grid"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert run(argv + ["0.5"]) == 0
        one, four = _traced_peak(argv + ["0.5"]), _traced_peak(argv + ["0.2,0.4,0.6,0.8"])
    assert four <= 1.5 * one


# ---------------------------------------------------------------------------
# Malformed and oversized input
# ---------------------------------------------------------------------------

def test_exit_2_on_deeply_nested_json(tmp_path, capsys):
    path, out = tmp_path / "deep.json", tmp_path / "report.json"
    path.write_text('{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run(["critical", "--input", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error (input): invalid JSON in {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"matrix": 5}',
    '{"matrix": [0, 1]}',
    '{"charges": 3}',
    '{"charges": "12"}',
    '{"graph": 5}',
    '{"random": 5}',
    '{"random": {"model": "couplings", "n": "4", "seed": 0}}',
    '{"random": {"model": "couplings", "n": 4.5, "seed": 0}}',
    '{"random": {"model": "couplings", "n": 4, "seed": 1.5}}',
    '{"random": {"model": "couplings", "n": 4, "variance": [1], "seed": 0}}',
    '{"graph": {"n": "5", "edges": [[0, 1]]}}',
    '{"graph": {"n": 5, "edges": [3]}}',
    '{"graph": {"n": 5, "edges": [[0, "1"]]}}',
    '{"two_component": 5}',
    '{"two_component": {"n1": true, "n2": 1, "z1": 1, "z2": 1}}',
    '{"matrix": [[0, 1], [1, 0, 2]]}',
    '{"graph": {"n": 3, "edges": [[0, 1, 2]]}}',
    '{"two_component": {"n1": 1, "n2": 1, "z1": 1}}',
    '{"two_component": {"n1": 0, "n2": 2, "z1": 1, "z2": 1}}',
    '{"two_component": {"n1": 1, "n2": 1, "z1": 0, "z2": 1}}',
    '{"graph": {"n": 3}}',
    '{"random": {"model": "x", "n": 4, "seed": 0}}',
    '{"random": {"model": "couplings", "n": 4}}',
    '{"charges": ["1/0", 1]}',
])
def test_exit_2_on_malformed_input(tmp_path, text):
    path, out = tmp_path / "bad.json", tmp_path / "report.json"
    path.write_text(text)
    assert run(["critical", "--input", path, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command,system,message", [
    ("closed-form", "c5_graph.json", "closed-form needs a 'two_component' or 'charges' input"),
    ("arboricity", "sk_matrix.json", "arboricity needs a 'graph' input"),
])
def test_exit_2_on_an_input_the_command_cannot_read(tmp_path, capsys, command, system, message):
    out = tmp_path / "report.json"
    assert run([command, "--input", INPUTS / system, "--out", out]) == 2
    assert capsys.readouterr().err == f"error (input): {message}\n"
    assert not out.exists()


def test_exit_2_on_a_negative_random_seed_at_load(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled with a negative seed")

    monkeypatch.setattr(coupling, "sample_gaussian_couplings", no_sampling)
    path = tmp_path / "random.json"
    path.write_text('{"random": {"model": "couplings", "n": 4, "seed": -3}}')
    assert run(["critical", "--input", path]) == 2
    assert capsys.readouterr().err == "error (input): random.seed must be non-negative, got -3\n"


def test_exit_2_on_a_negative_seed_flag_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("solved before the seed was checked")

    monkeypatch.setattr(sphere_mc, "_interval", no_work)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run(["mc-partition", "--input", INPUTS / "pair_c1.json", "--beta-grid", "0.5",
             "--seed", "-3", "--out", out])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-3'" in capsys.readouterr().err
    assert not out.exists()


def test_exit_2_on_too_few_samples_before_any_work(tmp_path, capsys, monkeypatch):
    def no_load(*args):
        raise AssertionError("loaded before --samples was checked")

    monkeypatch.setattr(cli, "load_system", no_load)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run(["mc-partition", "--input", INPUTS / "pair_c1.json", "--beta-grid", "0.5",
             "--samples", "999", "--out", out])
    assert exc.value.code == 2
    assert "argument --samples: must be an integer of at least 1000, got '999'" in \
        capsys.readouterr().err
    assert not out.exists()


# the commands that solve, whose cap is the solver's: n = 27 is refused at load
_SOLVING = [["critical"], ["arboricity"],
            ["mc-partition", "--beta-grid", "0.5"], ["mc-gibbs", "--beta-grid", "0.5"]]
_AT_27 = {
    "matrix-27": {"matrix": [[0] * 27] * 27},
    "charges-27": {"charges": [1, -1] * 13 + [1]},
    "two_component-27": {"two_component": {"n1": 14, "n2": 13, "z1": 1, "z2": 1}},
    "graph-27": {"graph": {"n": 27, "edges": [[0, 1]]}},
    "random-couplings-27": {"random": {"model": "couplings", "n": 27, "seed": 0}},
    "random-charges-27": {"random": {"model": "charges", "n": 27, "seed": 0}},
}


@pytest.mark.parametrize("argv,system", [
    # the row count is checked before rows or entries
    pytest.param(["critical"], {"matrix": [[0]] * 2049}, id="matrix"),
    pytest.param(["critical"], {"charges": [1, -1] * 1025}, id="charges"),
    pytest.param(["critical"], {"two_component": {"n1": 1025, "n2": 1025, "z1": 1, "z2": 1}},
                 id="two_component"),
    pytest.param(["critical"], {"graph": {"n": 100000, "edges": [[0, 1]]}}, id="graph"),
    pytest.param(["critical"], {"random": {"model": "couplings", "n": 100000, "seed": 0}},
                 id="random-couplings"),
    pytest.param(["critical"], {"random": {"model": "charges", "n": 100000, "seed": 0}},
                 id="random-charges"),
    # bounds' cap is the eigensolver's
    pytest.param(["bounds"], {"random": {"model": "couplings", "n": 1665, "seed": 0}},
                 id="bounds-random-couplings-1665"),
    pytest.param(["bounds"], {"charges": [1, -1] * 832 + [1]}, id="bounds-charges-1665"),
] + [pytest.param(argv, system, id=f"{argv[0]}-{name}")
     for argv in _SOLVING for name, system in _AT_27.items()])
def test_exit_3_before_building_oversized_input(tmp_path, monkeypatch, argv, system):
    def refuse(*args, **kwargs):
        raise AssertionError("built an oversized input")

    for name in ("parse_number", "CouplingMatrix", "ChargeVector", "from_charges",
                 "from_two_component", "from_graph", "sample_gaussian_couplings",
                 "sample_gaussian_charges"):
        monkeypatch.setattr(coupling, name, refuse)
    path, out = tmp_path / "big.json", tmp_path / "out"
    path.write_text(json.dumps(system))
    assert run([*argv, "--input", path, "--out", out]) == 3
    assert not out.exists()
