"""Seeded inputs and job lists of the five workloads.

`build(name, seed, workdir)` writes every input file of one workload, made
only from `seed`, and returns its jobs.  A job is one `loggas` command line;
its check compares the output with a reference (see gate.py) and runs
after the timed passes.  Why each workload exists is recorded in
BENCHMARK.json; the sizes below keep one pass of each job list between
about 2 and 7 seconds on a 2-core machine, and a run makes at least three.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import gate

NAMES = ("critical", "ensemble", "mc_partition", "mc_gibbs", "bounds")
# Every workload but ensemble runs on one CPU with LOGGAS_THREADS=1, so that
# the calibration kernel runs where its jobs run (see run.py).  ensemble is
# the workload that measures loggas's default thread pool.  On mc_partition
# a second thread also made peak memory a race between the pool's sample
# arrays, and its times spread twice as much as on one CPU.
SINGLE_CPU = ("critical", "mc_partition", "mc_gibbs", "bounds")
REFERENCES = Path(__file__).resolve().parent / "references.json"

ENSEMBLE_N = 16
ENSEMBLE_TRIALS = 3  # per model
PAIR_GRID = (0.1, 0.25, 0.4, 0.6, 0.8)  # toward beta+ = 1 of c12 = -1
PAIR_SAMPLES = 200_000
PLASMA_PARTITION_GRID = (0.15, 0.3)  # toward beta+ = 1 of the unit plasma
PLASMA_SAMPLES = 20_000
GIBBS_GRID = (0.6, 0.9)  # toward beta+ = 1 of the unit plasma
GIBBS_STEPS, GIBBS_BURN_IN = 15_000, 1_000
GIBBS_SIZES = (2, 4)  # n1 = n2: the 4- and 8-particle plasma


@dataclass
class Job:
    name: str
    argv: list
    out: Optional[Path] = None
    expect: int = 0
    check: Optional[Callable[[Path], list]] = None


@dataclass
class Workload:
    name: str
    jobs: list
    units: float  # work per pass: instances, trials, configurations or steps
    unit: str


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _gaussian_rows(rng: np.random.Generator, n: int, sd: float) -> list:
    upper = rng.standard_normal((n, n)) * sd
    m = np.triu(upper, 1)
    return (m + m.T).tolist()


def _int_rows(rng: random.Random, n: int, bound: int = 999) -> list:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


def _plasma(n1: int) -> dict:
    """The neutral two-component plasma with n1 unit charges of each sign."""
    return {"two_component": {"n1": n1, "n2": n1, "z1": 1, "z2": 1}}


def _plasma_rows(n1: int) -> list:
    k = [1] * n1 + [-1] * n1
    return [[0 if i == j else k[i] * k[j] for j in range(2 * n1)] for i in range(2 * n1)]


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _extrema_ref(rows, mode: str, oracle: bool = False) -> dict:
    exact = mode == "exact"
    if oracle:  # loggas.brute_force_oracle, n <= 16
        from loggas import CouplingMatrix, brute_force_oracle, from_matrix

        c = from_matrix(rows)
        if not exact:
            c = CouplingMatrix(c.n, np.array(c.entries, dtype=float), None)
        res = brute_force_oracle(c, gate.TIE_TOL)
        fam = lambda masks: {frozenset(i + 1 for i in s.indices()) for s in masks}
        return {"mode": mode, "t_plus": res.t_plus, "t_minus": res.t_minus,
                "g_plus": fam(res.g_plus), "g_minus": fam(res.g_minus)}
    entries = [[Fraction(v) for v in r] for r in rows] if exact else rows
    tp, tm, gp, gm = gate.subset_extrema(entries, exact)
    return {"mode": mode, "t_plus": tp, "t_minus": tm, "g_plus": gp, "g_minus": gm}


def _critical_check(rows, mode, oracle=False, extra=None):
    def check(out: Path) -> list:
        ref = _extrema_ref(rows, mode, oracle)
        if extra:
            ref.update(extra(ref))
        return gate.check_critical(_load_json(out), ref)
    return check


def _malformed_job(d: Path, subcommand: str, extra: list) -> Job:
    """A truncated JSON input: exit 2."""
    bad = d / "malformed.json"
    bad.write_text('{"matrix": [[0, 1], [1, 0]', encoding="utf-8")
    return Job("malformed", [subcommand, "--input", str(bad)] + extra, expect=2)


def _error_jobs(d: Path, rng: random.Random, subcommand: str, extra: list) -> list:
    """An oversized n=27 input (exit 3) and a malformed one (exit 2)."""
    big = _write(d / "oversized.json", {"matrix": _int_rows(rng, 27, 9)})
    return [Job("oversized_n27", [subcommand, "--input", str(big)] + extra, expect=3),
            _malformed_job(d, subcommand, extra)]


# ---------------------------------------------------------------------------

def _critical(seed: int, d: Path) -> Workload:
    rng = random.Random(seed)
    nrng = np.random.Generator(np.random.Philox(seed))
    jobs = []

    def critical(name, rows, mode, oracle=False, extra=None):
        path = _write(d / f"{name}.json", {"matrix": rows})
        out = d / f"{name}.out.json"
        jobs.append(Job(name, ["critical", "--input", str(path), "--mode", mode, "--out", str(out)],
                        out, check=_critical_check(rows, mode, oracle, extra)))

    # Random half: singleton families, the subset scan does the work.
    critical("int_n16_exact", _int_rows(rng, 16), "exact", oracle=True)
    critical("gauss_n16_float", _gaussian_rows(nrng, 16, 0.5), "float", oracle=True)

    # Tie-rich half: the neutral plasma n1 = n2 = 8 (|G+| = 64, nest
    # enumeration reaches its 10,000 cap) in both modes, and a random graph.
    # The plasma has unit charges: larger integers would leave CPython's
    # small-int cache and change the cost of the exact scan.
    from loggas import TwoComponentSpec, two_component_critical

    closed = two_component_critical(TwoComponentSpec(8, 8, 1, 1))
    mixed = {frozenset((i + 1, j + 1)) for i in range(8) for j in range(8, 16)}
    plasma = _write(d / "plasma_8_8.json", _plasma(8))
    for mode in ("exact", "float"):
        out = d / f"plasma_{mode}.out.json"

        def extra(ref, mode=mode):
            t_plus = 1 / closed.beta_plus
            return {"t_plus": t_plus if mode == "exact" else float(t_plus), "g_plus": mixed,
                    "recorded": {"kappa_plus": closed.kappa_plus, "nests_truncated_plus": True,
                                 "max_nests_plus": 10_000}}

        jobs.append(Job(f"plasma_8_8_{mode}",
                        ["critical", "--input", str(plasma), "--mode", mode, "--out", str(out)],
                        out, check=_critical_check(_plasma_rows(8), mode, extra=extra)))

    n = 18
    edges = [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    graph = _write(d / "graph_n18.json", {"graph": {"n": n, "edges": edges}})
    adjacency = [[0] * n for _ in range(n)]
    for i, j in edges:
        adjacency[i][j] = adjacency[j][i] = 1
    out = d / "graph_n18.out.json"

    def check_graph(out: Path) -> list:
        ref = _extrema_ref(adjacency, "exact")
        return gate.check_arboricity(_load_json(out), {"fractional": -ref["t_minus"],
                                                       "g_minus": ref["g_minus"]})

    jobs.append(Job("arboricity_n18", ["arboricity", "--input", str(graph), "--out", str(out)],
                    out, check=check_graph))
    solved = len(jobs)
    jobs += _error_jobs(d, rng, "critical", [])
    return Workload("critical", jobs, solved, "instances")


def _ensemble(seed: int, d: Path) -> Workload:
    from loggas import sample_gaussian_charges, sample_gaussian_couplings

    n, trials = ENSEMBLE_N, ENSEMBLE_TRIALS
    jobs = []
    for index, model in enumerate(("gaussian_couplings", "gaussian_charges")):
        base = seed * 1000 + 100 * index

        def check(out: Path, model=model, base=base) -> list:
            refs = []
            for t in range(trials):
                if model == "gaussian_couplings":
                    c = np.array(sample_gaussian_couplings(n, 1.0 / n, base + t).entries)
                    eig = np.linalg.eigvalsh(c)
                    bounds = (-eig[0], eig[-1])
                else:
                    k = sample_gaussian_charges(n, base + t).as_floats()
                    c = np.outer(k, k)
                    np.fill_diagonal(c, 0.0)
                    sq = k ** 2
                    bounds = (sq.max(), sq.sum() - sq.min())
                tp, tm, _, _ = gate.subset_extrema(c.tolist(), exact=False)
                refs.append({"t_plus": tp, "t_minus": tm, "bound_t_plus": bounds[0],
                             "bound_neg_t_minus": bounds[1]})
            return gate.check_ensemble(_load_json(out), refs)

        out = d / f"{model}.out.json"
        jobs.append(Job(model, ["ensemble", "--model", model, "--n", str(n), "--trials",
                                str(trials), "--seed", str(base), "--out", str(out)],
                        out, check=check))
    return Workload("ensemble", jobs, 2 * trials, "trials")


def _mc_partition(seed: int, d: Path) -> Workload:
    from loggas import analytic_partition_two

    rng = random.Random(seed)
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["plasma_partition"]
    jobs = []

    pair = _write(d / "pair.json", {"matrix": [[0, -1], [-1, 0]]})
    out = d / "pair.out.csv"
    pair_ref = [{"beta": b, "logz": math.log(analytic_partition_two(-1.0, b)), "logz_err": 0.0,
                 "heavy_tail": b >= 0.5} for b in PAIR_GRID]

    def check_pair(out: Path) -> list:
        rows, meta = gate.read_partition_csv(out)
        problems = gate.check_partition(rows, pair_ref, PAIR_SAMPLES)
        if meta.get("pole_fit_beta_crit") != 1.0 or not math.isfinite(meta.get("pole_fit_kappa", math.nan)):
            problems.append(f"pole fit metadata missing: {meta}")
        return problems

    jobs.append(Job("pair_sweep", ["mc-partition", "--input", str(pair), "--beta-grid",
                                   _grid(PAIR_GRID), "--samples", str(PAIR_SAMPLES),
                                   "--seed", str(rng.randrange(1 << 30)), "--out", str(out)],
                    out, check=check_pair))

    plasma = _write(d / "plasma_8_8.json", _plasma(8))
    plasma_ref = [dict(r, heavy_tail=False) for r in refs]
    out = d / "plasma.out.csv"
    jobs.append(Job("plasma_8_8_sweep",
                    ["mc-partition", "--input", str(plasma), "--beta-grid",
                     _grid(PLASMA_PARTITION_GRID),
                     "--samples", str(PLASMA_SAMPLES), "--seed", str(rng.randrange(1 << 30)),
                     "--out", str(out)], out,
                    check=lambda out: gate.check_partition(
                        gate.read_partition_csv(out)[0], plasma_ref, PLASMA_SAMPLES)))
    samples = PAIR_SAMPLES * len(PAIR_GRID) + PLASMA_SAMPLES * len(PLASMA_PARTITION_GRID)
    jobs += _error_jobs(d, rng, "mc-partition", ["--beta-grid", "0.1"])
    jobs.append(Job("beta_outside", ["mc-partition", "--input", str(pair), "--beta-grid",
                                     "1.2,1.5", "--samples", "1000"], expect=4))
    return Workload("mc_partition", jobs, samples, "configurations")


def _mc_gibbs(seed: int, d: Path) -> Workload:
    rng = random.Random(seed)
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["plasma_gibbs"]
    jobs = []
    for n1 in GIBBS_SIZES:
        path = _write(d / f"plasma_{n1}_{n1}.json", _plasma(n1))
        out = d / f"plasma_{n1}_{n1}.out.csv"
        ref = refs[str(2 * n1)]
        jobs.append(Job(f"plasma_{n1}_{n1}_gibbs",
                        ["mc-gibbs", "--input", str(path), "--beta-grid", _grid(GIBBS_GRID),
                         "--steps", str(GIBBS_STEPS), "--burn-in", str(GIBBS_BURN_IN),
                         "--seed", str(rng.randrange(1 << 30)), "--out", str(out)],
                        out, check=lambda out, ref=ref: gate.check_collapse(
                            gate.read_collapse_csv(out), ref)))
    steps = GIBBS_STEPS * len(GIBBS_GRID) * len(GIBBS_SIZES)
    jobs += _error_jobs(d, rng, "mc-gibbs", ["--beta-grid", "0.5"])
    jobs.append(Job("beta_outside", ["mc-gibbs", "--input", str(d / "plasma_2_2.json"),
                                     "--beta-grid", "1.5,2.0", "--steps", "200",
                                     "--burn-in", "100"], expect=4))
    return Workload("mc_gibbs", jobs, steps, "steps")


def _bounds(seed: int, d: Path) -> Workload:
    nrng = np.random.Generator(np.random.Philox(seed))
    jobs = []
    for n in (64, 96):
        rows = _gaussian_rows(nrng, n, 1.0 / math.sqrt(n))
        path = _write(d / f"gauss_n{n}.json", {"matrix": rows})
        out = d / f"gauss_n{n}.out.json"
        jobs.append(Job(f"gauss_n{n}", ["bounds", "--input", str(path), "--out", str(out)], out,
                        check=lambda out, rows=rows: gate.check_bounds(
                            _load_json(out), np.array(rows))))
    charges = nrng.standard_normal(64).tolist()
    path = _write(d / "charges_n64.json", {"charges": charges})
    out = d / "charges_n64.out.json"
    k = np.array(charges)
    c = np.outer(k, k)
    np.fill_diagonal(c, 0.0)
    jobs.append(Job("charges_n64", ["bounds", "--input", str(path), "--out", str(out)], out,
                    check=lambda out: gate.check_bounds(_load_json(out), c, charges)))
    solved = len(jobs)
    jobs.append(_malformed_job(d, "bounds", []))
    return Workload("bounds", jobs, solved, "instances")


_WORKLOADS = {"critical": _critical, "ensemble": _ensemble, "mc_partition": _mc_partition,
             "mc_gibbs": _mc_gibbs, "bounds": _bounds}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return _WORKLOADS[name](seed, workdir)
