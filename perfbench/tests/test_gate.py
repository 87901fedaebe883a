"""The gate passes true outputs and flags each kind of corrupted output."""

import contextlib
import copy
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gate
import workloads
from loggas import CouplingMatrix, analytic_partition_two, brute_force_oracle, from_matrix
from loggas.cli import main as loggas_main

BENCH = Path(workloads.__file__).resolve().parent


def _masks(result):
    return {frozenset(i + 1 for i in s.indices()) for s in result}


@pytest.mark.parametrize("seed", range(6))
def test_subset_extrema_matches_brute_force_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    rows = workloads._int_rows(rng, n, bound=3)  # small range: many ties
    exact = from_matrix(rows)
    tp, tm, gp, gm = gate.subset_extrema(exact.exact_entries, exact=True)
    ref = brute_force_oracle(exact)
    assert (tp, tm, gp, gm) == (ref.t_plus, ref.t_minus, _masks(ref.g_plus), _masks(ref.g_minus))

    floats = [[v + 0.25 * (i != j) for j, v in enumerate(r)] for i, r in enumerate(rows)]
    c = CouplingMatrix(n, np.array(floats, dtype=float), None)
    tp, tm, gp, gm = gate.subset_extrema(floats, exact=False)
    ref = brute_force_oracle(c)
    assert tp == pytest.approx(ref.t_plus, rel=1e-12) and tm == pytest.approx(ref.t_minus, rel=1e-12)
    assert (gp, gm) == (_masks(ref.g_plus), _masks(ref.g_minus))


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return loggas_main(argv)


def _critical_doc(tmp_path, obj, mode):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    assert _cli(["critical", "--input", str(path), "--mode", mode, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_critical_gate_flags_perturbed_t_plus_and_dropped_optimizer(tmp_path, mode):
    rows = workloads._plasma_rows(2)  # G+ = the four mixed pairs
    doc = _critical_doc(tmp_path, {"matrix": rows}, mode)
    ref = workloads._extrema_ref(rows, mode, oracle=True)
    assert len(ref["g_plus"]) == 4
    assert gate.check_critical(doc, ref) == []

    bad = copy.deepcopy(doc)
    bad["t_plus"] = str(Fraction(bad["t_plus"]) + Fraction(1, 10**12)) if mode == "exact" \
        else bad["t_plus"] * (1 + 1e-7)
    assert any("Tplus" in p for p in gate.check_critical(bad, ref))

    bad = copy.deepcopy(doc)
    bad["g_plus"].pop()
    assert any("Gplus" in p for p in gate.check_critical(bad, ref))


def test_critical_gate_checks_recorded_nest_figures(tmp_path):
    rows = workloads._plasma_rows(2)
    doc = _critical_doc(tmp_path, {"matrix": rows}, "exact")
    ref = dict(workloads._extrema_ref(rows, "exact"),
               recorded={"kappa_plus": 2, "nests_truncated_plus": False, "max_nests_plus": 2})
    assert gate.check_critical(doc, ref) == []
    ref["recorded"]["kappa_plus"] = 3
    assert gate.check_critical(doc, ref) == ["kappa_plus = 2, recorded 3"]


def test_bounds_gate_flags_an_eigenvalue_off_by_1e_6(tmp_path):
    rng = np.random.Generator(np.random.Philox(5))
    rows = workloads._gaussian_rows(rng, 12, 0.3)
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps({"matrix": rows}))
    assert _cli(["bounds", "--input", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert gate.check_bounds(doc, np.array(rows)) == []
    doc["eigenvalues"][3] += 1e-6
    assert gate.check_bounds(doc, np.array(rows)) == ["eigenvalues differ from numpy.linalg.eigvalsh"]


def _pair_sweep(tmp_path):
    path, out = tmp_path / "pair.json", tmp_path / "pair.csv"
    path.write_text(json.dumps({"matrix": [[0, -1], [-1, 0]]}))
    grid = (0.1, 0.3, 0.6)
    assert _cli(["mc-partition", "--input", str(path), "--beta-grid", ",".join(map(str, grid)),
                 "--samples", "20000", "--seed", "11", "--out", str(out)]) == 0
    ref = [{"beta": b, "logz": math.log(analytic_partition_two(-1.0, b)), "logz_err": 0.0,
            "heavy_tail": b >= 0.5} for b in grid]
    return gate.read_partition_csv(out)[0], ref


def test_partition_gate_flags_a_mean_shifted_by_ten_sigma(tmp_path):
    rows, ref = _pair_sweep(tmp_path)
    assert gate.check_partition(rows, ref, 20000) == []
    for shift in (10, -10):
        bad = copy.deepcopy(rows)
        bad[1]["logz"] += shift * bad[1]["logz_err"]
        assert len(gate.check_partition(bad, ref, 20000)) == 1
    bad = copy.deepcopy(rows)
    bad[2]["heavy_tail"] = False  # the flag itself is checked
    assert gate.check_partition(bad, ref, 20000) != []


def test_collapse_gate_passes_a_fresh_stream_and_flags_a_wrong_law(tmp_path):
    from record_references import in_place_of

    refs = json.loads((BENCH / "references.json").read_text())["plasma_gibbs"]["4"]
    path, out = tmp_path / "in.json", tmp_path / "out.csv"
    path.write_text(json.dumps(workloads._plasma(2)))
    assert _cli(["mc-gibbs", "--input", str(path), "--beta-grid", workloads._grid(workloads.GIBBS_GRID),
                 "--steps", str(workloads.GIBBS_STEPS), "--burn-in", str(workloads.GIBBS_BURN_IN),
                 "--seed", "987654", "--out", str(out)]) == 0
    got = gate.read_collapse_csv(out)
    assert gate.check_collapse(got, refs) == []

    # the chain run at beta 0.6 reported as the one at 0.9, near collapse
    problems = gate.check_collapse(in_place_of(got, "0.6", "0.9"), refs)
    assert problems and all(p.startswith("0.9/") for p in problems)

    # every quantile of the collapse observable moved by 10 sigma
    bad = copy.deepcopy(got)
    key = "0.9/min_opposite_dist"
    bad[key] = [v + 10 * s for v, s in zip(bad[key], refs[key]["sd"])]
    assert [p for p in gate.check_collapse(bad, refs) if p.startswith(key)]


def test_ensemble_gate_flags_a_wrong_trial(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ENSEMBLE_TRIALS", 2)
    job = workloads.build("ensemble", 7, tmp_path).jobs[1]  # gaussian_charges
    assert _cli(job.argv) == 0
    assert job.check(job.out) == []
    doc = json.loads(job.out.read_text())
    doc["rows"][1]["t_minus"] *= 1 + 1e-6
    job.out.write_text(json.dumps(doc))
    assert any("t_minus" in p for p in job.check(job.out))

