"""Command-line front end: `loggas <subcommand> --input file.json [...]`.

Subcommands: critical, bounds, closed-form, arboricity, sk-check,
mc-partition, mc-gibbs, ensemble.  Reports are JSON with a stable field
order plus a human-readable text rendering; sweeps emit CSV.  Extended
reals serialize as "inf"/"-inf", exact rationals as "p/q" strings.
The solver and closed forms return bitmasks and particle indices; this
module alone renders a subset, as a list of 1-based labels or as an
equality chain p1=p3 of the limiting support, and ``critical`` renders
each optimizer once.
Each subcommand declares only the flags it reads (``_COMMANDS``): --mode
and --tol for critical and sk-check, --seed (a non-negative integer) for the
sampling commands; any other flag is an argparse error (exit 2).
A handler loads its input under its particle cap: the solver's
(``solver._MAX_N``) for the commands that solve, the eigensolver's
(``spectral._MAX_N``) for bounds, 2048 for closed-form.  It reads the matrix
of its mode from ``SystemInput.matrix``, the one builder of a model's grid,
or the model alone (closed-form, arboricity); the float-range policy lives
in ``coupling``.
mc-partition spreads its grid points over up to 4 of the process's CPUs;
everything else runs serially.

``main`` alone frames a run.  It refuses an ``--out`` path that cannot be
written (an existing directory, a missing parent directory) before the
handler does any work.  A handler does no I/O; it returns ``(result, lines)``:
the JSON report body as a dict, or a sweep's CSV text (``_csv_text``), and
the text lines to print.  Once the handler has succeeded, ``main`` stamps
``schema_version`` and ``subcommand`` on a report and renders it, writes the
text to ``--out`` (the only file the package writes) and prints the lines.
A report is written byte for byte as ``json.dumps(report, indent=2,
allow_nan=False)`` would write it, by a writer that renders each shared list
of scalars once (``_json_text``) and each scalar with json's own encoder;
a list of lists writes each member it has rendered before as it stands.
A sweep is ``csv.writer`` rows (CRLF line ends) followed by one
``# key=value`` line per pole-fit result.
Exit codes: 0 ok, and the ``exit_code`` of the ``LogGasError`` raised (2
input, 3 size limit, 4 domain); a failed allocation exits 3, an unreadable
file, an unwritable value or an exact value beyond the float range 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
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
from .graphs import sk_ground_state_check
from .rational import TIE_TOL, format_real, parse_number, tolerance
from .solver import CriticalReport, critical_interval, solve_both
from .spectral import charge_bounds, eig_bounds, symmetric_eigs

SCHEMA_VERSION = 1


def _tie_tol(args: argparse.Namespace) -> float:
    if not 0 < args.tol < math.inf:
        raise InputError("tol must be positive and finite")
    return args.tol


def _chain(indices) -> str:
    """A subset as an equality chain of 1-based particle labels, p1=p3."""
    return "=".join(f"p{i + 1}" for i in indices)


def _asymptote(kappa: int, n: int, beta) -> Optional[str]:
    if kappa == 0:
        return None
    return f"({Fraction(kappa, n)})*log|beta-({format_real(beta)})|"


def _critical_report_dict(report: CriticalReport, mode: str) -> dict:
    """The report document.  Each optimizer is rendered once, as its label
    list and its equality chain; families, nests and supports look it up."""
    plus, minus = report.plus, report.minus
    nests_p, nests_m = report.nests_plus, report.nests_minus
    labels, chains = {}, {}
    for s in plus.optimizers + minus.optimizers:
        indices = s.indices()
        labels[s.bits], chains[s.bits] = [i + 1 for i in indices], _chain(indices)
    return {
        "mode": mode,
        "n": report.n,
        "t_plus": format_real(plus.t_value),
        "t_minus": format_real(minus.t_value),
        "beta_minus": format_real(report.beta_minus),
        "beta_plus": format_real(report.beta_plus),
        "attained_plus": plus.attained,
        "attained_minus": minus.attained,
        "g_plus": [labels[s.bits] for s in plus.optimizers],
        "g_minus": [labels[s.bits] for s in minus.optimizers],
        "kappa_plus": nests_p.kappa,
        "kappa_minus": nests_m.kappa,
        "max_nests_plus": [[labels[s.bits] for s in nest] for nest in nests_p.nests],
        "max_nests_minus": [[labels[s.bits] for s in nest] for nest in nests_m.nests],
        "nests_truncated_plus": nests_p.truncated,
        "nests_truncated_minus": nests_m.truncated,
        # one coincidence pattern of the limiting Gibbs support per nest
        "support_plus": [", ".join([chains[s.bits] for s in nest]) for nest in nests_p.nests],
        "support_minus": [", ".join([chains[s.bits] for s in nest]) for nest in nests_m.nests],
        "free_energy_asymptote_plus": _asymptote(nests_p.kappa, report.n, report.beta_plus),
        "free_energy_asymptote_minus": _asymptote(nests_m.kappa, report.n, report.beta_minus),
        "degenerate": not (plus.attained or minus.attained),
    }


def _critical_lines(doc: dict) -> list:
    lines = [f"n = {doc['n']}  (mode: {doc['mode']})",
             f"interval: ({doc['beta_minus']}, {doc['beta_plus']})",
             f"T+ = {doc['t_plus']}   T- = {doc['t_minus']}"]
    if doc["degenerate"]:
        return lines + ["degenerate: both endpoints infinite, no collapse on either side"]
    for side in ("plus", "minus"):
        if not doc[f"attained_{side}"]:
            lines.append(f"{side}: endpoint infinite")
            continue
        sets = ", ".join("{" + ",".join(map(str, s)) + "}" for s in doc[f"g_{side}"])
        lines.append(f"G_{side} = [{sets}]   kappa_{side} = {doc[f'kappa_{side}']}")
        lines += [f"  support_{side}: {pattern}" for pattern in doc[f"support_{side}"]]
        if doc[f"nests_truncated_{side}"]:
            lines.append("  (nest enumeration truncated)")
        lines.append(f"  free energy ~ {doc[f'free_energy_asymptote_{side}']}")
    return lines


def cmd_critical(args: argparse.Namespace) -> tuple:
    tie_tol = _tie_tol(args)
    c = load_system(args.input, solver._MAX_N).matrix(args.mode)
    report = critical_interval(c, tie_tol=tie_tol)
    doc = _critical_report_dict(report, "exact" if report.exact else "float")
    return doc, _critical_lines(doc)


def cmd_bounds(args: argparse.Namespace) -> tuple:
    system = load_system(args.input, spectral._MAX_N)
    c = system.matrix("float")
    spectrum = symmetric_eigs(c)
    eig = eig_bounds(c)
    doc = {
        "n": c.n,
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
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


def cmd_sk_check(args: argparse.Namespace) -> tuple:
    tie_tol = _tie_tol(args)
    c = load_system(args.input, solver._MAX_N).matrix(args.mode)
    holds = sk_ground_state_check(c, tie_tol=tie_tol)
    doc = {"n": c.n, "mode": "exact" if c.is_exact else "float", "holds": holds}
    return doc, [f"ground-state identity holds: {holds}"]


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

    def estimate(index):
        return sphere_mc.estimate_partition(c, grid[index], args.samples, args.seed + index)

    # numpy releases the GIL in the sampling kernels, so grid points overlap
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=min(4, cpus or 1, len(grid))) as pool:
        estimates = list(pool.map(estimate, range(len(grid))))
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

    results = []
    for index, beta in enumerate(grid):
        params = sphere_mc.ChainParams(
            beta=beta, steps=args.steps, burn_in=args.burn_in, thin=args.thin,
            step_size=args.step_size, seed=args.seed + index,
        )
        chain = sphere_mc.metropolis_chain(c, params)
        stats = sphere_mc.collapse_observables(chain.configurations, labels)
        results.append((chain, stats))

    # one row per observable the labels define
    rows = [[beta, name, *quants]
            for beta, (_, stats) in zip(grid, results)
            for name, quants in (("min_opposite_dist", stats.min_opposite_quantiles),
                                 ("min_same_dist", stats.min_same_quantiles),
                                 ("max_pair_dist", stats.max_quantiles))
            if quants is not None]
    text = _csv_text(["beta", "obs_name", "q05", "q25", "q50", "q75", "q95"], rows)
    lines = [f"wrote {len(rows)} rows to {args.out}"]
    for beta, (chain, stats) in zip(grid, results):
        lines.append(f"  beta={beta:g}: acceptance={chain.acceptance_rate:.2f} "
                     f"median max dist={stats.max_quantiles[2]:.3f}")
    return text, lines


# ---------------------------------------------------------------------------
# Ensemble experiments
# ---------------------------------------------------------------------------

_BOUND_SLACK = 1e-9


def run_ensemble(model: str, n: int, trials: int, seed: int,
                 variance: Optional[float] = None) -> dict:
    """Sample random instances, solve, and check the deterministic bounds.

    Each trial records the upper bounds on T+ and -T- that ``bounds`` reads:
    ``eig_bounds`` of the couplings (gaussian_couplings) or ``charge_bounds``
    of the charges (gaussian_charges).  The first bound
    violated beyond ``tolerance(_BOUND_SLACK, bound, max |c|)`` raises
    RuntimeError, so a report has 0 in ``bound_violations`` and in each
    row's ``violations``.  Returns the report fields in report order: model,
    n, trials, bound_violations, summary, rows."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if n > 20:
        raise SizeLimitError(f"ensemble limited to n <= 20, got {n}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    if model not in ("gaussian_couplings", "gaussian_charges"):
        raise InputError(f"unknown ensemble model {model!r}")
    if model == "gaussian_charges" and variance is not None:
        raise InputError("gaussian_charges are standard normal; variance not allowed")
    if model == "gaussian_couplings" and variance is None:
        variance = 1.0 / n

    def trial(index: int) -> dict:
        trial_seed = seed + index
        if model == "gaussian_couplings":
            c = sample_gaussian_couplings(n, variance, trial_seed)
            bounds = eig_bounds(c)
        else:
            k = sample_gaussian_charges(n, trial_seed)
            c = from_charges(k)
            bounds = charge_bounds(k)
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
            "seed": trial_seed,
            "t_plus": t_plus,
            "t_minus": t_minus,
            "bound_t_plus": bounds.t_plus_upper,
            "bound_neg_t_minus": bounds.neg_t_minus_upper,
            "violations": 0,
        }

    rows = [trial(index) for index in range(trials)]
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


_FLAGS = {
    "--input": dict(required=True, help="input JSON file"),
    "--out": dict(default=None, help="output file (JSON report or CSV)"),
    "--mode": dict(choices=["exact", "float", "auto"], default="auto"),
    "--tol": dict(type=float, default=TIE_TOL, help="float-mode tie tolerance"),
    "--seed": dict(type=_seed, default=0),
    "--samples": dict(type=int, default=100_000),
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
    "sk-check": (cmd_sk_check, "ground-state identity check", _IO + ("--mode", "--tol")),
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


# one JSON scalar as json.dumps writes it; _json_text tests for lists, tuples
# and dicts first, and no scalar is one of those, so it branches as json does
_json_scalar = json.JSONEncoder(allow_nan=False).encode


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)``, byte for byte.

    The pieces go into one flat list, joined once.  A list of scalars is
    rendered once per (object, depth): the critical report shares one label
    list per optimizer among its families and nests, so its tens of
    thousands of member lists cost a dictionary lookup each, made by the
    list that holds them."""
    parts, leaves = [], {}

    def write(value, depth: int):
        if isinstance(value, (list, tuple)):
            if not value:
                parts.append("[]")
                return
            key = (id(value), depth)
            leaf = leaves.get(key)
            if leaf is None:
                inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
                if any(isinstance(x, (list, tuple, dict)) for x in value):
                    sep, comma = "[" + inner, "," + inner
                    for item in value:
                        parts.append(sep)
                        leaf = leaves.get((id(item), depth + 1))
                        if leaf is None:
                            write(item, depth + 1)
                        else:
                            parts.append(leaf)
                        sep = comma
                    parts.extend((outer, "]"))
                    return
                leaf = leaves[key] = \
                    "[" + inner + ("," + inner).join(map(_json_scalar, value)) + outer + "]"
            parts.append(leaf)
        elif isinstance(value, dict):
            if not value:
                parts.append("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            sep, comma = "{" + inner, "," + inner
            for key, item in value.items():
                key = _json_scalar(key if isinstance(key, str) else _json_scalar(key))
                parts.extend((sep, key, ": "))
                write(item, depth + 1)
                sep = comma
            parts.extend(("\n" + "  " * depth, "}"))
        else:
            parts.append(_json_scalar(value))

    write(doc, 0)
    del write  # it holds itself, and so parts, until a full garbage collection
    return "".join(parts)


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
    try:
        _check_out(args.out)
        result, lines = _COMMANDS[args.subcommand][0](args)
        if args.out:
            if isinstance(result, dict):
                # every value is JSON-ready (format_real renders rationals and
                # infinities), so a stray NaN raises ValueError, not a bad literal
                result = _json_text({"schema_version": SCHEMA_VERSION,
                                     "subcommand": args.subcommand, **result}) + "\n"
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(result)
        print(*lines, sep="\n")
    except LogGasError as exc:
        print(f"error ({exc.label}): {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error (size limit): {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
