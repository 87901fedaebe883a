"""Correctness gate: every job output is checked against a reference that
does not share code with the kernel it checks.

References:
- ``loggas.brute_force_oracle`` for critical instances with n <= 16;
- `subset_extrema` below (all 2^n subset sums by doubling in numpy) for
  larger instances, random graphs and ensemble trials;
- ``loggas.closed_forms`` for the neutral plasma (beta+ = 1/(z1 z2),
  kappa+ = min(n1, n2));
- ``numpy.linalg.eigvalsh`` for `bounds`;
- ``loggas.analytic_partition_two`` for the pair partition sweep;
- MC figures recorded at the commit that defined the benchmark
  (references.json) for the plasma partition and the Metropolis quantiles.

Exact mode must match exactly, float mode within the tie tolerance, and MC
figures within MC error.  Every check returns a list of problems; an empty
list passes.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

TIE_TOL = 1e-9
MC_K = 6.0  # a partition estimate may differ by this many combined stderrs

# (lower, upper) limits of each score of a Metropolis job (check_collapse).
# A chain near collapse can stay collapsed for a long stretch; that lowers
# the max pair and min opposite distances and raises the min same distance
# by amounts with no useful bound, so that side of each observable has a
# wide limit that only gross faults reach.  The other side is tight: in 400
# fresh chains (200 per plasma size) no score passed 2.87, 2.89 and 3.13
# there, and a chain run at beta 0.6 in place of 0.9 was caught in 72 to 83
# of 100 jobs.  record_references.py prints these figures for 100 of the
# chains per size.
COLLAPSE_LIMITS = {"max_pair_dist": (-20.0, 5.0), "min_opposite_dist": (-20.0, 4.5),
                   "min_same_dist": (-5.0, 20.0)}

EIG_RTOL = 1e-10  # eigenvalues, relative to the Frobenius norm of C


# ---------------------------------------------------------------------------
# Independent subset enumeration
# ---------------------------------------------------------------------------

def _subset_sums(c: np.ndarray):
    """Sums over pairs inside every subset, indexed by bitmask, and sizes."""
    n = c.shape[0]
    sums = np.zeros(1, dtype=c.dtype)
    sizes = np.zeros(1, dtype=np.int64)
    for k in range(n):
        link = np.zeros(1, dtype=c.dtype)  # sum of c[k, j] over j in mask
        for j in range(k):
            link = np.concatenate([link, link + c[k, j]])
        sums = np.concatenate([sums, sums + link])
        sizes = np.concatenate([sizes, sizes + 1])
    return sums, sizes


def _labels(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def subset_extrema(entries, exact: bool, tol: float = TIE_TOL):
    """(t_plus, t_minus, g_plus, g_minus) with families as sets of frozensets
    of 1-based labels.  Exact entries are Fractions; zero-sum subsets never
    enter a family."""
    n = len(entries)
    if exact:
        denom = math.lcm(*(Fraction(v).denominator for row in entries for v in row))
        scaled = np.array([[int(Fraction(v) * denom) for v in row] for row in entries],
                          dtype=object)
        if sum(abs(int(v)) for v in scaled.ravel()) >= 1 << 62:
            raise OverflowError("entries too large for int64 subset sums")
        sums, sizes = _subset_sums(scaled.astype(np.int64))
        best = {}
        for k in range(2, n + 1):
            ks = sums[sizes == k]
            best[k] = (int(ks.min()), int(ks.max()))
        lo = min(Fraction(mn, k - 1) for k, (mn, _) in best.items())
        hi = max(Fraction(mx, k - 1) for k, (_, mx) in best.items())

        def family(ratio):
            masks = []
            for k in range(2, n + 1):
                a = ratio * (k - 1)
                if a.denominator == 1 and a != 0:
                    masks.extend(np.flatnonzero((sizes == k) & (sums == int(a))).tolist())
            return {_labels(m) for m in masks}

        return -lo / denom, -hi / denom, family(lo), family(hi)

    sums, sizes = _subset_sums(np.array(entries, dtype=float))
    keep = sizes >= 2
    ratios = np.where(keep, sums / np.maximum(sizes - 1, 1), np.nan)
    lo, hi = float(np.nanmin(ratios)), float(np.nanmax(ratios))

    def family(ratio):
        near = keep & (sums != 0.0) & (np.abs(ratios - ratio) <= tol * max(1.0, abs(ratio)))
        return {_labels(int(m)) for m in np.flatnonzero(near)}

    return -lo, -hi, family(lo), family(hi)


# ---------------------------------------------------------------------------
# Per-job checks
# ---------------------------------------------------------------------------

def _real(text):
    """Parse a report value written by loggas (number, "p/q", "inf")."""
    if isinstance(text, str):
        if text in ("inf", "-inf"):
            return float(text)
        return Fraction(text)
    return text


def _close(got, want, exact: bool, tol: float = TIE_TOL) -> bool:
    if exact:
        return isinstance(got, Fraction) and got == want
    return abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))


def _families(doc, side):
    return {frozenset(s) for s in doc[f"g_{side}"]}


def check_critical(doc: dict, ref: dict) -> list:
    """ref: mode ('exact'|'float'), t_plus, t_minus, g_plus, g_minus and
    optionally "recorded": report keys with the values a closed form gives
    or the defining commit produced (max_nests_* compares the nest count)."""
    problems = []
    exact = ref["mode"] == "exact"
    if doc.get("mode") != ref["mode"]:
        problems.append(f"mode {doc.get('mode')} != {ref['mode']}")
    for side in ("plus", "minus"):
        got = _real(doc[f"t_{side}"])
        if not _close(got, ref[f"t_{side}"], exact):
            problems.append(f"T{side}: {got} != {ref[f't_{side}']}")
        t = float(ref[f"t_{side}"])
        attained = t > 0 if side == "plus" else t < 0
        if doc[f"attained_{side}"] != attained:
            problems.append(f"attained_{side} is {doc[f'attained_{side}']}")
        if attained:
            if _families(doc, side) != ref[f"g_{side}"]:
                problems.append(f"G{side} differs from the reference family")
            beta = _real(doc[f"beta_{side}"])
            if not _close(beta, 1 / ref[f"t_{side}"], exact):
                problems.append(f"beta_{side} {beta} != 1/T{side}")
            if len(ref[f"g_{side}"]) == 1 and doc[f"kappa_{side}"] != 1:
                problems.append(f"kappa_{side} of a singleton family is {doc[f'kappa_{side}']}")
            nests = doc[f"max_nests_{side}"]
            if any(len(nest) != doc[f"kappa_{side}"] for nest in nests):
                problems.append(f"a {side} nest does not have kappa members")
            if any(frozenset(s) not in ref[f"g_{side}"] for nest in nests for s in nest):
                problems.append(f"a {side} nest member is not an optimizer")
    for key, want in ref.get("recorded", {}).items():
        got = len(doc[key]) if key.startswith("max_nests") else doc[key]
        if got != want:
            problems.append(f"{key} = {got}, recorded {want}")
    return problems


def check_arboricity(doc: dict, ref: dict) -> list:
    """ref: fractional (Fraction) and g_minus, the densest vertex sets."""
    problems = []
    frac = Fraction(doc["fractional"])
    if frac != ref["fractional"]:
        problems.append(f"fractional arboricity {frac} != {ref['fractional']}")
    if doc["arboricity"] != math.ceil(ref["fractional"]):
        problems.append(f"arboricity {doc['arboricity']} != ceil({ref['fractional']})")
    if frozenset(doc["witness"]) not in ref["g_minus"]:
        problems.append("witness is not a densest vertex set")
    return problems


def check_ensemble(doc: dict, ref_rows: list) -> list:
    """ref_rows: per trial t_plus, t_minus, bound_t_plus, bound_neg_t_minus."""
    problems = []
    rows = doc["rows"]
    if len(rows) != len(ref_rows) or doc["bound_violations"] != 0:
        return [f"{len(rows)} rows / {doc['bound_violations']} violations"]
    for row, ref in zip(rows, ref_rows):
        for key in ("t_plus", "t_minus", "bound_t_plus", "bound_neg_t_minus"):
            if not _close(row[key], ref[key], exact=False):
                problems.append(f"trial {row['trial']}: {key} {row[key]} != {ref[key]}")
    levels = doc["summary"]["quantile_levels"]
    for side in ("t_plus", "t_minus"):
        want = np.percentile([r[side] for r in ref_rows], levels)
        if not np.allclose(doc["summary"][f"{side}_quantiles"], want, rtol=TIE_TOL, atol=0):
            problems.append(f"{side} quantiles disagree with the trials")
    return problems


def check_bounds(doc: dict, entries: np.ndarray, charges=None) -> list:
    problems = []
    ref = np.linalg.eigvalsh(entries)
    got = np.asarray(doc["eigenvalues"], dtype=float)
    tol = EIG_RTOL * max(1.0, float(np.linalg.norm(entries)))
    if got.shape != ref.shape or np.max(np.abs(got - ref)) > tol:
        problems.append("eigenvalues differ from numpy.linalg.eigvalsh")
    lo, hi = ref[0], ref[-1]
    want_plus = -1.0 / lo if lo < 0 else math.inf
    want_minus = -1.0 / hi if hi > 0 else -math.inf
    for key, want in (("eig_beta_plus_lower", want_plus), ("eig_beta_minus_upper", want_minus)):
        if not math.isclose(float(_real(doc[key])), want, rel_tol=1e-8):
            problems.append(f"{key} {doc[key]} != {want}")
    if charges is not None:
        sq = np.asarray(charges, dtype=float) ** 2
        for key, want in (("charge_beta_plus_lower", 1.0 / sq.max()),
                          ("charge_beta_minus_upper", -1.0 / (sq.sum() - sq.min()))):
            if not math.isclose(float(_real(doc[key])), want, rel_tol=1e-12):
                problems.append(f"{key} {doc[key]} != {want}")
    return problems


def read_partition_csv(path):
    rows, meta = [], {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = float(value)
    body = [line for line in lines if not line.startswith("#")]
    for row in csv.DictReader(body):
        rows.append({"beta": float(row["beta"]), "logz": float(row["logZ_mean"]),
                     "logz_err": float(row["logZ_stderr"]), "samples": int(row["samples"]),
                     "heavy_tail": row["heavy_tail"] == "true"})
    return rows, meta


def check_partition(rows: list, ref: list, samples: int) -> list:
    """ref: per grid point beta, logz and logz_err (0 for a closed form),
    heavy_tail.  Points flagged heavy-tail are checked only for being
    finite: their error bars carry no meaning."""
    problems = []
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, expected {len(ref)}"]
    for row, want in zip(rows, ref):
        if not math.isclose(row["beta"], want["beta"], rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"beta {row['beta']} != {want['beta']}")
        if row["samples"] != samples or row["heavy_tail"] != want["heavy_tail"]:
            problems.append(f"beta {row['beta']}: samples/heavy-tail flag wrong")
        if not (math.isfinite(row["logz"]) and row["logz_err"] >= 0):
            problems.append(f"beta {row['beta']}: non-finite estimate")
            continue
        if want["heavy_tail"]:
            continue
        err = math.hypot(row["logz_err"], want["logz_err"])
        if abs(row["logz"] - want["logz"]) > MC_K * err:
            problems.append(f"beta {row['beta']}: logZ {row['logz']:.5g} vs reference "
                            f"{want['logz']:.5g} (> {MC_K:g} x {err:.2g})")
    return problems


def read_collapse_csv(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = f"{float(row['beta']):.6g}/{row['obs_name']}"
            out[key] = [float(row[q]) for q in ("q05", "q25", "q50", "q75", "q95")]
    return out


def collapse_scores(got: dict, ref: dict) -> dict:
    """key (beta/observable) -> mean z of its five quantiles against ref:
    key -> {"mean": [5 quantiles], "sd": [5 spreads across seeds], "seeds": R}."""
    scores = {}
    for key, values in got.items():
        want = ref[key]
        scale = math.sqrt(1.0 + 1.0 / want["seeds"])
        scores[key] = float(np.mean([(v - m) / (sd * scale + 1e-12)
                                     for v, m, sd in zip(values, want["mean"], want["sd"])]))
    return scores


def check_collapse(got: dict, ref: dict) -> list:
    """Each beta and observable is scored on its own, so a sampler wrong at
    one beta is not diluted by the healthy ones; each score must lie within
    its observable's COLLAPSE_LIMITS."""
    if set(got) != set(ref):
        return [f"observables {sorted(got)} != {sorted(ref)}"]
    problems = []
    for key, score in collapse_scores(got, ref).items():
        lower, upper = COLLAPSE_LIMITS[key.partition("/")[2]]
        if not lower <= score <= upper:
            problems.append(f"{key}: mean z of the quantiles is {score:.2f}, "
                            f"outside [{lower}, {upper}]")
    return problems
