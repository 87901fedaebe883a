"""Record the Monte Carlo references of the gate into references.json.

    python3 perfbench/record_references.py

Run from the repository root.  The plasma partition reference is one long
plain-MC estimate per grid point, 50x the samples a benchmark job uses.  The
Metropolis reference is the mean and spread, over many chain seeds, of each
collapse quantile the mc_gibbs jobs report, with the same chain settings.
Chains at further seeds are then checked against it, as a benchmark job
would be; the script prints the range of their scores (gate.collapse_scores),
from which gate.COLLAPSE_LIMITS are set, and how often the gate catches a
chain run at the grid point below in place of the one above.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from loggas import TwoComponentSpec, estimate_partition, from_two_component  # noqa: E402
from loggas.cli import main as loggas_main  # noqa: E402

PARTITION_SAMPLES = 50 * wl.PLASMA_SAMPLES  # per plasma partition grid point
GIBBS_SEEDS = 100  # chain seeds per Metropolis reference
FRESH_SEEDS = 100  # further chain seeds checked against the reference
WORKERS = 2


def plasma_partition() -> list:
    c = from_two_component(TwoComponentSpec(8, 8, 1, 1))
    out = []
    for index, beta in enumerate(wl.PLASMA_PARTITION_GRID):
        est = estimate_partition(c, beta, PARTITION_SAMPLES, seed=10_000 + index)
        out.append({"beta": beta, "logz": math.log(est.mean),
                    "logz_err": est.stderr / est.mean, "samples": PARTITION_SAMPLES})
    return out


def gibbs_quantiles(n1: int, seed: int) -> dict:
    """Collapse quantiles of one mc-gibbs job on the n1 + n1 plasma."""
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        path, csv_path = Path(tmp) / "in.json", Path(tmp) / "out.csv"
        path.write_text(json.dumps(wl._plasma(n1)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = loggas_main(["mc-gibbs", "--input", str(path), "--beta-grid",
                                wl._grid(wl.GIBBS_GRID), "--steps", str(wl.GIBBS_STEPS),
                                "--burn-in", str(wl.GIBBS_BURN_IN), "--seed", str(seed),
                                "--out", str(csv_path)])
        if code != 0:
            raise RuntimeError(f"mc-gibbs exited with {code}")
        return gate.read_collapse_csv(csv_path)


def plasma_gibbs(pool) -> dict:
    out = {}
    for n1 in wl.GIBBS_SIZES:
        seeds = [1_000_000 + 97 * s for s in range(GIBBS_SEEDS)]
        runs = {}
        for got in pool.map(gibbs_quantiles, [n1] * len(seeds), seeds):
            for key, values in got.items():
                runs.setdefault(key, []).append(values)
        out[str(2 * n1)] = {
            key: {"mean": np.mean(v, axis=0).tolist(),
                  "sd": np.std(v, axis=0, ddof=1).tolist(), "seeds": len(v)}
            for key, v in sorted(runs.items())}
    return out


def in_place_of(got: dict, lower: str, upper: str) -> dict:
    """got with the chain run at beta `lower` reported as the one at `upper`."""
    out = dict(got)
    for key in got:
        beta, _, obs = key.partition("/")
        if beta == upper:
            out[key] = got[f"{lower}/{obs}"]
    return out


def fresh_check(pool, refs: dict):
    grid = [f"{b:.6g}" for b in wl.GIBBS_GRID]
    for n1 in wl.GIBBS_SIZES:
        ref = refs[str(2 * n1)]
        seeds = [2_000_000 + 97 * s for s in range(FRESH_SEEDS)]
        scores, failed, caught = {}, 0, {}
        for got in pool.map(gibbs_quantiles, [n1] * len(seeds), seeds):
            for key, score in gate.collapse_scores(got, ref).items():
                scores.setdefault(key, []).append(score)
            failed += bool(gate.check_collapse(got, ref))
            for lower, upper in zip(grid, grid[1:]):
                caught[upper] = caught.get(upper, 0) + bool(
                    gate.check_collapse(in_place_of(got, lower, upper), ref))
        print(f"{2 * n1}-particle plasma, {FRESH_SEEDS} fresh chains: {failed} fail the gate; "
              "score range per beta/observable:")
        for key, values in sorted(scores.items()):
            print(f"  {key:24} [{min(values):6.2f}, {max(values):6.2f}]")
        for lower, upper in zip(grid, grid[1:]):
            print(f"  the chain at beta {lower} in place of {upper} fails in "
                  f"{caught[upper]} of {FRESH_SEEDS}")


def main():
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        refs = {"plasma_partition": plasma_partition(), "plasma_gibbs": plasma_gibbs(pool)}
        wl.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {wl.REFERENCES}")
        fresh_check(pool, refs["plasma_gibbs"])


if __name__ == "__main__":
    main()
