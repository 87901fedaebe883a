"""Command-line front end: `loggas <subcommand> --input file.json [...]`.

Subcommands: critical, bounds, closed-form, arboricity, mc-partition,
mc-gibbs, ensemble.  Reports are JSON with a stable field order plus a
human-readable text rendering; sweeps emit CSV.  Extended reals serialize
as "inf"/"-inf", exact rationals as "p/q" strings.
The solver and closed forms return bitmasks and particle indices; this
module alone renders a subset, as a list of 1-based labels or as an
equality chain p1=p3 of the limiting support, and ``critical`` renders
each optimizer once.
Each subcommand declares only the flags it reads (``_COMMANDS``): --mode
and --tol for critical, --seed (a non-negative integer) for the
sampling commands, --samples (at least the estimator's 1000) for
mc-partition; any other flag, or a value these refuse, is an argparse error
(exit 2) before any work.
A handler loads its input under its particle cap: the solver's
(``solver._MAX_N``) for the commands that solve, the eigensolver's
(``spectral._MAX_N``) for bounds, 2048 for closed-form.  It reads the matrix
of its mode from ``SystemInput.matrix``, the one builder of a model's grid,
or the model alone (closed-form, arboricity); the float-range policy lives
in ``coupling``.
mc-partition draws one sample of configurations at --seed
(``sphere_mc.draw_partition``) and weighs it at every grid point, so each
row is ``estimate_partition`` at that one seed.  Every command runs on one
thread.  ensemble takes the eigenvalues of a
chunk of trials from one stack of spectral's tridiagonal kernel
(``spectral.eig_bounds_many``), then solves each trial.  bounds takes a
charge input's eigenvalues from its secular equation
(``spectral.charge_eigenvalues``) unless its charges are of too wide a
range, and any other input's from the same kernel (``symmetric_eigs``).

``main`` alone frames a run.  It refuses an ``--out`` path that cannot be
written (an existing directory, a missing parent directory) before the
handler does any work.  A handler does no I/O; it returns ``(result, lines)``:
the JSON report body as a dict, the critical report's pieces, or a sweep's
CSV text (``_csv_text``), and the text lines to print.  Once the handler has
succeeded, ``main`` renders a dict with ``schema_version`` and ``subcommand``
stamped first (``_report_text``), writes the text or the pieces to ``--out``
(the only file the package writes), drops what it did not write, and prints
the lines in one ``sys.stdout.write``.
``main`` pauses the cyclic garbage collector
from the handler to the last write, and restores the state it found on
every exit: a run leaves its objects to reference counting, so no cycle may
hold a report.
A report is written byte for byte as ``json.dumps(report, indent=2,
allow_nan=False)`` writes it.  ``critical`` renders its own pieces, with
the same stamp, from the optimizers' texts (``_critical_side``): its
scalars through ``json.dumps`` and its support patterns, each held once in
its console line, before ``--out`` is opened, and its lists as chunks of
``_CHUNK`` items, each nest one join of its members' texts made only while
its chunk is written.  So no run holds the whole report text, and a run
without ``--out`` renders no nest.
``mc-gibbs`` keeps each grid point's acceptance rate and quantiles, not its
chain.
A sweep is ``csv.writer`` rows (CRLF line ends) followed by one
``# key=value`` line per pole-fit result.
Exit codes: 0 ok, and the ``exit_code`` of the ``LogGasError`` raised (2
input, 3 size limit, 4 domain); a failed allocation exits 3, an unreadable
file, an unwritable value or an exact value beyond the float range 2.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from fractions import Fraction
from types import GeneratorType
from typing import Optional

import numpy as np

from . import closed_forms, solver, spectral, sphere_mc
from .coupling import (
    SystemInput,
    from_charges,
    load_system,
    sample_gaussian_charges,
    sample_gaussian_couplings,
)
from .errors import DomainError, InputError, LogGasError, SizeLimitError
from .graphs import arboricity as run_arboricity
from .rational import TIE_TOL, format_real, parse_number, tolerance
from .solver import CriticalReport, critical_interval, solve_both
from .spectral import (
    BoundReport,
    charge_bounds,
    charge_eigenvalues,
    eig_bounds,
    eig_bounds_many,
    symmetric_eigs,
)

SCHEMA_VERSION = 1


def _chain(indices) -> str:
    """A subset as an equality chain of 1-based particle labels, p1=p3."""
    return "=".join(f"p{i + 1}" for i in indices)


def _asymptote(kappa: int, n: int, beta) -> Optional[str]:
    if kappa == 0:
        return None
    return f"({Fraction(kappa, n)})*log|beta-({format_real(beta)})|"


def _stamp(subcommand: str) -> dict:
    """The first fields of every report."""
    return {"schema_version": SCHEMA_VERSION, "subcommand": subcommand}


def _label_list(indices, depth: int) -> str:
    """A subset's 1-based labels as ``json.dumps(indent=2)`` writes the list
    at ``depth``."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return "[" + inner + ("," + inner).join([str(i + 1) for i in indices]) + outer + "]"


# nests (or supports) per chunk of a written list: about 85 KB of an 8+8
# plasma report
_CHUNK = 256


def _list_chunks(items: list, left: str = "", right: str = "", render=None):
    """A report field's list as ``json.dumps(indent=2)`` writes it at depth 1,
    in chunks of ``_CHUNK`` items, each item's text placed between ``left``
    and ``right``.  ``render`` maps a slice of ``items`` to their texts; it
    runs only as the chunks are read."""
    if not items:
        yield "[]"
        return
    sep = right + ",\n    " + left
    yield "[\n    " + left
    for start in range(0, len(items), _CHUNK):
        batch = items[start:start + _CHUNK]
        if start:
            yield sep
        yield sep.join(render(batch) if render else batch)
    yield right + "\n  ]"


# a side's report fields, each named with the side appended, in report order
_SIDE_FIELDS = ("g", "kappa", "max_nests", "nests_truncated", "support", "free_energy_asymptote")


def _critical_side(side: str, result: solver.OptResult, search: solver.NestSearch, n: int,
                   beta) -> tuple:
    """(fields, lines): one side's fields by ``_SIDE_FIELDS`` name, a list
    field as its chunks (``_list_chunks``), and its console lines.

    Each optimizer is rendered once: its label list at family depth, and as
    a nest member its label list at nest depth and its equality chain.  A
    support pattern (one coincidence pattern of the limiting Gibbs support)
    is one join of its members' chains, held once, in its console line; a
    chain holds only ``p``, digits and ``=``, so a pattern is its own JSON
    string body, sliced from its line as its chunk is written.  A nest's
    entry is one join of its members' texts, made only while its chunk is
    written."""
    family = [s.indices() for s in result.optimizers]
    members = [s.indices() for s in search.members]
    texts, chains = [_label_list(m, 3) for m in members], [_chain(m) for m in members]
    prefix = f"  support_{side}: "
    supports = [prefix + ", ".join([chains[r] for r in nest]) for nest in search.nests]
    asymptote = _asymptote(search.kappa, n, beta)

    def nests(batch):
        return [",\n      ".join([texts[r] for r in nest]) for nest in batch]

    def patterns(batch):
        return [line[len(prefix):] for line in batch]

    fields = dict(zip(_SIDE_FIELDS, (
        _list_chunks([_label_list(f, 2) for f in family]), search.kappa,
        _list_chunks(search.nests, "[\n      ", "\n    ]", nests), search.truncated,
        _list_chunks(supports, '"', '"', patterns), asymptote)))
    if not result.attained:
        return fields, [f"{side}: endpoint infinite"]
    sets = ", ".join("{" + ",".join([str(i + 1) for i in f]) + "}" for f in family)
    lines = [f"G_{side} = [{sets}]   kappa_{side} = {search.kappa}", *supports]
    if search.truncated:
        lines.append("  (nest enumeration truncated)")
    lines.append(f"  free energy ~ {asymptote}")
    return fields, lines


def _pieces(parts: list):
    """The strings of ``parts`` and of the chunk generators among them, in order."""
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            yield from part


def _critical_text(report: CriticalReport, mode: str, subcommand: str) -> tuple:
    """(pieces, lines): the report as ``json.dumps(doc, indent=2,
    allow_nan=False)`` writes it, as an iterator of strings each at most one
    chunk long, and the console lines.  Every scalar is written here by
    ``json.dumps``, the same with or without ``indent`` (and without it,
    leaves no reference cycle), so nothing that can refuse a value is left
    for the write; the list fields come as ``_critical_side``'s chunks."""
    plus, minus = report.plus, report.minus
    beta_minus, beta_plus = format_real(report.beta_minus), format_real(report.beta_plus)
    t_plus, t_minus = format_real(plus.t_value), format_real(minus.t_value)
    (fields_p, lines_p), (fields_m, lines_m) = (
        _critical_side("plus", plus, report.nests_plus, report.n, report.beta_plus),
        _critical_side("minus", minus, report.nests_minus, report.n, report.beta_minus))
    degenerate = not (plus.attained or minus.attained)
    doc = {**_stamp(subcommand), "mode": mode, "n": report.n, "t_plus": t_plus,
           "t_minus": t_minus, "beta_minus": beta_minus, "beta_plus": beta_plus,
           "attained_plus": plus.attained, "attained_minus": minus.attained}
    for name in _SIDE_FIELDS:
        doc[f"{name}_plus"], doc[f"{name}_minus"] = fields_p[name], fields_m[name]
    doc["degenerate"] = degenerate
    parts, sep = ["{"], "\n  "
    for key, value in doc.items():
        parts += sep, json.dumps(key), ": "
        parts.append(value if isinstance(value, GeneratorType)
                     else json.dumps(value, allow_nan=False))
        sep = ",\n  "
    parts.append("\n}\n")
    lines = [f"n = {report.n}  (mode: {mode})", f"interval: ({beta_minus}, {beta_plus})",
             f"T+ = {t_plus}   T- = {t_minus}"]
    if degenerate:
        lines.append("degenerate: both endpoints infinite, no collapse on either side")
    else:
        lines += lines_p + lines_m
    return _pieces(parts), lines


def cmd_critical(args: argparse.Namespace) -> tuple:
    if not 0 < args.tol < math.inf:
        raise InputError("tol must be positive and finite")
    c = load_system(args.input, solver._MAX_N).matrix(args.mode)
    report = critical_interval(c, tie_tol=args.tol)
    return _critical_text(report, "exact" if report.exact else "float", args.subcommand)


def cmd_bounds(args: argparse.Namespace) -> tuple:
    """The eigenvalues and the beta bounds they give, and for a charge input
    the charge bounds.  The float grid is built first, so a grid it refuses
    is refused before any solve.  A charge input whose charges pass the
    rule of ``charge_eigenvalues`` is solved by its secular equation; any
    other input by ``symmetric_eigs``, and again through ``eig_bounds``:
    two runs of the tridiagonal kernel.  Both read only the eigenvalues, so
    neither runs the Jacobi that forms eigenvectors."""
    system = load_system(args.input, spectral._MAX_N)
    c = system.matrix("float")
    eigenvalues = None if system.charges is None else charge_eigenvalues(system.charges)
    if eigenvalues is None:
        eigenvalues = symmetric_eigs(c).eigenvalues
        eig = eig_bounds(c)
    else:
        eig = BoundReport.from_eigenvalues(eigenvalues)
    doc = {
        "n": c.n,
        "eigenvalues": [float(v) for v in eigenvalues],
        "eig_beta_plus_lower": format_real(eig.beta_plus_lower),
        "eig_beta_minus_upper": format_real(eig.beta_minus_upper),
        "charge_beta_plus_lower": None,
        "charge_beta_minus_upper": None,
    }
    lines = [
        f"beta+ >= {doc['eig_beta_plus_lower']}  (eigenvalue bound, valid when beta+ finite)",
        f"beta- <= {doc['eig_beta_minus_upper']}  (eigenvalue bound, valid when beta- finite)",
    ]
    if system.charges is not None:
        cb = charge_bounds(system.charges)
        doc["charge_beta_plus_lower"] = format_real(cb.beta_plus_lower)
        doc["charge_beta_minus_upper"] = format_real(cb.beta_minus_upper)
        lines += [f"beta+ >= {doc['charge_beta_plus_lower']}  (charge bound)",
                  f"beta- <= {doc['charge_beta_minus_upper']}  (charge bound)"]
    return doc, lines


def cmd_closed_form(args: argparse.Namespace) -> tuple:
    system = load_system(args.input)
    if system.two_component is not None:
        crit = closed_forms.two_component_critical(system.two_component)
        doc = {
            "model": "two_component",
            "beta_plus": format_real(crit.beta_plus),
            "kappa_plus": crit.kappa_plus,
            "g_plus": "all mixed pairs",
            "free_energy_prefactor": format_real(crit.free_energy_prefactor),
        }
        return doc, [
            f"beta+ = {doc['beta_plus']}   kappa+ = {doc['kappa_plus']}  ({doc['g_plus']})",
            f"free energy prefactor: {doc['free_energy_prefactor']}"]
    if system.charges is not None:
        crit = closed_forms.onsager_beta_minus(system.charges)
        doc = {
            "model": "onsager",
            "beta_minus": format_real(crit.beta_minus),
            "winning_side": crit.winning_side,
            "candidate_pos": format_real(crit.candidate_pos),
            "candidate_neg": format_real(crit.candidate_neg),
            "support": [_chain(indices) for indices in crit.collapsing],
        }
        return doc, [f"beta- = {doc['beta_minus']}   side: {doc['winning_side']}",
                     *(f"  support: {pattern}" for pattern in doc["support"])]
    raise InputError("closed-form needs a 'two_component' or 'charges' input")


def cmd_arboricity(args: argparse.Namespace) -> tuple:
    system = load_system(args.input, solver._MAX_N)
    if system.graph is None:
        raise InputError("arboricity needs a 'graph' input")
    report = run_arboricity(system.graph)
    doc = {
        "n": system.graph.n,
        "edges": len(system.graph.edges),
        "fractional": str(report.fractional),
        "arboricity": report.arboricity,
        "witness": [i + 1 for i in report.witness.indices()],
    }
    return doc, [
        f"fractional arboricity = {doc['fractional']}  ->  arboricity = {doc['arboricity']}",
        f"densest vertex set (1-based): {doc['witness']}"]


def _parse_beta_grid(text: str) -> tuple:
    """Finite, strictly monotone grid points from "a:b:steps" or "b1,b2,..."."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError("beta grid range must be a:b:steps")
        a, b, steps = parse_number(float(parts[0])), parse_number(float(parts[1])), int(parts[2])
        if steps < 1:
            raise InputError("beta grid needs at least one point")
        grid = tuple(float(x) for x in np.linspace(a, b, steps))
    else:
        grid = tuple(parse_number(float(x)) for x in text.split(","))
    if len(grid) > 1:
        diffs = np.diff(grid)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise InputError("beta grid must be strictly monotone")
    return grid


def _csv_text(header, rows, comments=()) -> str:
    """A sweep as ``csv.writer`` writes it, header first, then one
    ``# key=value`` line per (key, value) comment."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    buf.writelines(f"# {key}={value}\n" for key, value in comments)
    return buf.getvalue()


def cmd_mc_partition(args: argparse.Namespace) -> tuple:
    grid = _parse_beta_grid(args.beta_grid)
    c = load_system(args.input, solver._MAX_N).matrix("float")
    lo, hi = sphere_mc._interval(c, grid)

    # only the weights depend on beta: one sample is weighed at every point
    sample = sphere_mc.draw_partition(c, args.samples, args.seed)
    estimates = [sphere_mc.estimate_partition(c, beta, args.samples, args.seed, sample=sample)
                 for beta in grid]
    logz = [math.log(est.mean) for est in estimates]
    rows = [[beta, y, est.stderr / est.mean, est.samples, "true" if est.heavy_tail else "false"]
            for beta, y, est in zip(grid, logz, estimates)]

    # a flagged point's estimate has infinite variance, so a fit through it
    # says nothing about the pole order; the count marks such a fit.
    # pole_order_fit refuses a grid too short or not ordered toward endpoint
    heavy = sum(est.heavy_tail for est in estimates)
    metadata = {}
    for endpoint in (e for e in (lo, hi) if math.isfinite(e)):
        try:
            kappa = sphere_mc.pole_order_fit(grid, logz, endpoint)
        except DomainError:
            continue
        metadata["pole_fit_beta_crit"] = endpoint
        metadata["pole_fit_kappa"] = kappa
        if heavy:
            metadata["pole_fit_heavy_tail_points"] = heavy
        break

    text = _csv_text(["beta", "logZ_mean", "logZ_stderr", "samples", "heavy_tail"], rows,
                     metadata.items())
    lines = [f"wrote {len(rows)} rows to {args.out}"]
    for beta, est in zip(grid, estimates):
        tail = " heavy-tail" if est.heavy_tail else ""
        lines.append(f"  beta={beta:g}: Z~{est.mean:.6g} +- {est.stderr:.2g}{tail}")
    if metadata:
        mark = (f" ({heavy} of {len(rows)} points heavy-tailed: not an estimate of kappa)"
                if heavy else "")
        lines.append(f"pole fit toward beta={metadata['pole_fit_beta_crit']:g}: "
                     f"kappa ~ {metadata['pole_fit_kappa']:.3f}{mark}")
    return text, lines


def _class_labels(system: SystemInput, n: int) -> list:
    """0/1 by charge sign (a two-component input has charges too), else 0."""
    if system.charges is not None:
        return [0 if v > 0 else 1 for v in system.charges.values]
    return [0] * n


def cmd_mc_gibbs(args: argparse.Namespace) -> tuple:
    grid = _parse_beta_grid(args.beta_grid)
    system = load_system(args.input, solver._MAX_N)
    c = system.matrix("float")
    labels = _class_labels(system, c.n)

    results = []  # (acceptance rate, CollapseStats) per grid point
    for index, beta in enumerate(grid):
        params = sphere_mc.ChainParams(
            beta=beta, steps=args.steps, burn_in=args.burn_in, thin=args.thin,
            step_size=args.step_size, seed=args.seed + index,
        )
        chain = sphere_mc.metropolis_chain(c, params)
        stats = sphere_mc.collapse_observables(chain.configurations, labels)
        results.append((chain.acceptance_rate, stats))
        del chain  # freed before the next chain: a sweep holds one at a time

    # one row per observable the labels define
    rows = [[beta, name, *quants]
            for beta, (_, stats) in zip(grid, results)
            for name, quants in (("min_opposite_dist", stats.min_opposite_quantiles),
                                 ("min_same_dist", stats.min_same_quantiles),
                                 ("max_pair_dist", stats.max_quantiles))
            if quants is not None]
    text = _csv_text(["beta", "obs_name", "q05", "q25", "q50", "q75", "q95"], rows)
    lines = [f"wrote {len(rows)} rows to {args.out}"]
    for beta, (acceptance, stats) in zip(grid, results):
        lines.append(f"  beta={beta:g}: acceptance={acceptance:.2f} "
                     f"median max dist={stats.max_quantiles[2]:.3f}")
    return text, lines


# ---------------------------------------------------------------------------
# Ensemble experiments
# ---------------------------------------------------------------------------

_BOUND_SLACK = 1e-9
_ENSEMBLE_MAX_N = 20
# trials per eigenvalue stack: at n <= 20 each of the kernel's (trials, n, n)
# arrays holds at most 2^16 floats
_STACK_TRIALS = (1 << 16) // _ENSEMBLE_MAX_N ** 2


def run_ensemble(model: str, n: int, trials: int, seed: int,
                 variance: Optional[float] = None) -> dict:
    """Sample random instances, solve, and check the deterministic bounds.

    Each trial records the upper bounds on T+ and -T- that ``bounds`` reads:
    ``eig_bounds`` of the couplings (gaussian_couplings) or ``charge_bounds``
    of the charges (gaussian_charges).  The trials are sampled in chunks of
    ``_STACK_TRIALS``, and a chunk's couplings take their eigenvalues from
    one stack of the tridiagonal kernel (``eig_bounds_many``, the same
    bounds bit for bit); then each trial of the chunk is solved and checked
    in order.  The first bound
    violated beyond ``tolerance(_BOUND_SLACK, bound, max |c|)`` raises
    RuntimeError, so a report has 0 in ``bound_violations`` and in each
    row's ``violations``.  Returns the report fields in report order: model,
    n, trials, bound_violations, summary, rows."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if n > _ENSEMBLE_MAX_N:
        raise SizeLimitError(f"ensemble limited to n <= {_ENSEMBLE_MAX_N}, got {n}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    if model not in ("gaussian_couplings", "gaussian_charges"):
        raise InputError(f"unknown ensemble model {model!r}")
    if model == "gaussian_charges" and variance is not None:
        raise InputError("gaussian_charges are standard normal; variance not allowed")
    if model == "gaussian_couplings" and variance is None:
        variance = 1.0 / n

    def chunk(indices: range) -> list:
        """(index, couplings, bounds) of each trial in ``indices``."""
        if model == "gaussian_couplings":
            cs = [sample_gaussian_couplings(n, variance, seed + index) for index in indices]
            return list(zip(indices, cs, eig_bounds_many(cs)))
        ks = [sample_gaussian_charges(n, seed + index) for index in indices]
        return [(index, from_charges(k), charge_bounds(k)) for index, k in zip(indices, ks)]

    def trial(index: int, c, bounds) -> dict:
        plus, minus = solve_both(c)
        t_plus, t_minus = float(plus.t_value), float(minus.t_value)
        scale = c.scale
        for side, result, t, bound in (("T+", plus, t_plus, bounds.t_plus_upper),
                                       ("-T-", minus, -t_minus, bounds.neg_t_minus_upper)):
            if result.attained and t > bound + tolerance(_BOUND_SLACK, bound, scale):
                raise RuntimeError(f"trial {index}: {side} = {t!r} exceeds its "
                                   f"deterministic bound {bound!r}")
        return {
            "trial": index,
            "seed": seed + index,
            "t_plus": t_plus,
            "t_minus": t_minus,
            "bound_t_plus": bounds.t_plus_upper,
            "bound_neg_t_minus": bounds.neg_t_minus_upper,
            "violations": 0,
        }

    rows = [trial(*args) for start in range(0, trials, _STACK_TRIALS)
            for args in chunk(range(start, min(start + _STACK_TRIALS, trials)))]
    levels = sphere_mc.QUANTILE_LEVELS

    def quantiles(key: str) -> list:
        return [float(q) for q in np.percentile([r[key] for r in rows], levels)]

    summary = {"t_plus_quantiles": quantiles("t_plus"), "t_minus_quantiles": quantiles("t_minus"),
               "quantile_levels": list(levels)}
    return {"model": model, "n": n, "trials": trials, "bound_violations": 0,
            "summary": summary, "rows": rows}


def cmd_ensemble(args: argparse.Namespace) -> tuple:
    report = run_ensemble(args.model, args.n, args.trials, args.seed, args.variance)
    q_plus = report["summary"]["t_plus_quantiles"]
    q_minus = report["summary"]["t_minus_quantiles"]
    return report, [
        f"{args.model}: n={args.n}, trials={args.trials}, "
        f"bound violations={report['bound_violations']}",
        f"T+ quantiles (5/25/50/75/95%): {['%.3f' % v for v in q_plus]}",
        f"T- quantiles (5/25/50/75/95%): {['%.3f' % v for v in q_minus]}"]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _samples(text: str) -> int:
    """A --samples value: the estimator's floor, checked before any work."""
    if not text.isdecimal() or int(text) < sphere_mc._MIN_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least {sphere_mc._MIN_SAMPLES}, got {text!r}")
    return int(text)


_FLAGS = {
    "--input": dict(required=True, help="input JSON file"),
    "--out": dict(default=None, help="output file (JSON report or CSV)"),
    "--mode": dict(choices=["exact", "float", "auto"], default="auto"),
    "--tol": dict(type=float, default=TIE_TOL, help="float-mode tie tolerance"),
    "--seed": dict(type=_seed, default=0),
    "--samples": dict(type=_samples, default=100_000),
    "--beta-grid": dict(required=True, help="a:b:steps or comma list"),
    "--steps": dict(type=int, default=20_000),
    "--burn-in": dict(type=int, default=2_000),
    "--thin": dict(type=int, default=1),
    "--step-size": dict(type=float, default=0.5),
    "--model": dict(choices=["gaussian_couplings", "gaussian_charges"],
                    default="gaussian_couplings"),
    "--n": dict(type=int, default=8),
    "--trials": dict(type=int, default=50),
    "--variance": dict(type=float, default=None, help="coupling variance (default 1/n)"),
}

_IO = ("--input", "--out")

# subcommand -> (handler, help, the flags it reads)
_COMMANDS = {
    "critical": (cmd_critical, "solve for the critical interval and collapse data",
                 _IO + ("--mode", "--tol")),
    "bounds": (cmd_bounds, "eigenvalue and charge bounds on beta+-", _IO),
    "closed-form": (cmd_closed_form,
                    "closed-form criticals (two-component / point vortex)", _IO),
    "arboricity": (cmd_arboricity, "fractional arboricity of a graph input", _IO),
    "mc-partition": (cmd_mc_partition, "Monte Carlo partition-function sweep (CSV)",
                     _IO + ("--seed", "--samples", "--beta-grid")),
    "mc-gibbs": (cmd_mc_gibbs, "Metropolis collapse-observable sweep (CSV)",
                 _IO + ("--seed", "--beta-grid", "--steps", "--burn-in", "--thin",
                        "--step-size")),
    "ensemble": (cmd_ensemble, "random-instance ensembles with bound checks",
                 ("--out", "--seed", "--model", "--n", "--trials", "--variance")),
}

# the sweeps always write a CSV, here when --out is not given
_CSV_OUT = {"mc-partition": "partition_sweep.csv", "mc-gibbs": "collapse_sweep.csv"}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, declaring only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="loggas",
        description="Critical temperatures and Monte Carlo checks for "
                    "logarithmic pair-potential systems on the sphere.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _report_text(subcommand: str, fields: dict) -> str:
    """A report document, its stamp then ``fields``, as ``json.dumps(indent=2,
    allow_nan=False)`` writes it.  Every value is JSON-ready (format_real
    renders rationals and infinities), so a stray NaN raises ValueError, not
    a bad literal."""
    return json.dumps({**_stamp(subcommand), **fields}, indent=2, allow_nan=False) + "\n"


def _check_out(path: Optional[str]):
    """Refuse an output path that is a directory or lies in a missing one,
    without creating anything."""
    if path and os.path.isdir(path):
        raise InputError(f"--out {path} is a directory")
    parent = os.path.dirname(path or "")
    if parent and not os.path.isdir(parent):
        raise InputError(f"--out {path}: {parent} is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.out = args.out or _CSV_OUT.get(args.subcommand)
    # a run frees what it drops by reference counting (no cycle holds a
    # report), so a collection finds next to nothing; on the 8+8 plasma the
    # collections took a tenth of the run
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_out(args.out)
        result, lines = _COMMANDS[args.subcommand][0](args)
        if args.out:
            if isinstance(result, dict):
                result = _report_text(args.subcommand, result)
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                # critical's pieces are rendered, encoded and written a chunk at a time
                fh.writelines((result,) if isinstance(result, str) else result)
        del result  # unwritten pieces, before the console text is joined
        lines.append("")
        sys.stdout.write("\n".join(lines))
    except LogGasError as exc:
        print(f"error ({exc.label}): {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error (size limit): {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
