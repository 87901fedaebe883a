"""Spans around the public loggas functions, recorded from outside the package.

`install(tracer)` replaces every public function listed in TARGETS, in every
loaded ``loggas`` namespace that holds it (``cli``, ``sphere_mc`` and
``graphs`` import solver and spectral functions by name), with a wrapper that
records a span: name, start, end, parent span and thread.  Parents come from
a context variable.  Pool worker threads start with an empty context, so a
span opened there without a parent is attributed to the enclosing job span.

Spans stay in memory; `Tracer.dump` writes them out once the run is over.
`layer_metrics` turns the spans of one pass into the per-layer figures.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store.  Thread-safe; one per traced pass."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._next = 0
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self.job: Optional[int] = None

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def call(self, name: str, func: Callable, args, kwargs, record=None, job=False):
        span_id = self._new_id()
        parent = self._current.get()
        if parent is None and not job:
            parent = self.job
        token = self._current.set(span_id)
        if job:
            self.job = span_id
        start = time.perf_counter()
        result, ok = None, False
        try:
            result = func(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            if job:
                self.job = None
            span = Span(span_id, name, start, end, parent, threading.get_ident())
            if not ok:
                span.attrs["error"] = True
            elif record is not None:
                record(span.attrs, args, kwargs, result)
            with self._lock:
                self.spans.append(span)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread,
                    "attrs": {k: v for k, v in s.attrs.items() if _plain(v)},
                }) + "\n")


def _plain(value) -> bool:
    return isinstance(value, (bool, int, float, str)) or value is None


# ---------------------------------------------------------------------------
# What each wrapper records about its call
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _record_solve(attrs, args, kwargs, result):
    c = _arg(args, kwargs, 0, "c")
    opts = _arg(args, kwargs, 1, "opts")
    exact = opts.exact if opts is not None and opts.exact is not None else c.is_exact
    attrs.update(n=c.n, exact=bool(exact), subsets=(1 << c.n) - c.n - 1)


def _record_nest(attrs, args, kwargs, result):
    attrs.update(family=len(_arg(args, kwargs, 0, "family")),
                 nests=len(result.nests), truncated=bool(result.truncated))


def _record_eigs(attrs, args, kwargs, result):
    n = _arg(args, kwargs, 0, "c").n
    attrs.update(n=n, sweeps=result.sweeps, residual=result.residual,
                 rotations_max=result.sweeps * n * (n - 1) // 2)


def _record_partition(attrs, args, kwargs, result):
    c = _arg(args, kwargs, 0, "c")
    pairs = int(np.count_nonzero(c.entries[np.triu_indices(c.n, k=1)]))
    attrs.update(samples=result.samples, pair_samples=result.samples * pairs,
                 heavy_tail=bool(result.heavy_tail))


def _record_chain(attrs, args, kwargs, result):
    params = _arg(args, kwargs, 1, "params")
    attrs.update(steps=params.steps, acceptance=result.acceptance_rate)
    attrs["energies"] = result.energies  # analysed after the pass, off the clock


# (module, function, span name, recorder).  Span names are the metric keys
# used by layer_metrics.
TARGETS = (
    ("loggas.coupling", "load_system", "coupling.load_system", None),
    ("loggas.coupling", "sample_gaussian_couplings", "coupling.sample_gaussian_couplings", None),
    ("loggas.coupling", "sample_gaussian_charges", "coupling.sample_gaussian_charges", None),
    ("loggas.coupling", "from_charges", "coupling.from_charges", None),
    ("loggas.solver", "solve_both", "solver.solve_both", _record_solve),
    ("loggas.solver", "solve_t_plus", "solver.solve_t_plus", _record_solve),
    ("loggas.solver", "solve_t_minus", "solver.solve_t_minus", _record_solve),
    ("loggas.solver", "critical_interval", "solver.critical_interval", None),
    ("loggas.solver", "max_nest", "solver.max_nest", _record_nest),
    ("loggas.spectral", "symmetric_eigs", "spectral.symmetric_eigs", _record_eigs),
    ("loggas.sphere_mc", "estimate_partition", "sphere_mc.estimate_partition", _record_partition),
    ("loggas.sphere_mc", "metropolis_chain", "sphere_mc.metropolis_chain", _record_chain),
    ("loggas.sphere_mc", "collapse_observables", "sphere_mc.collapse_observables", None),
    ("loggas.graphs", "arboricity", "graphs.arboricity", None),
)


def _loggas_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "loggas" or name.startswith("loggas."))]


class Installation:
    """Wrappers placed by `install`; `restore` puts the originals back."""

    def __init__(self, originals: dict):
        self.originals = originals  # original function -> span name
        self.replaced: list = []  # (module, attribute, original)

    def restore(self):
        for mod, attr, original in reversed(self.replaced):
            setattr(mod, attr, original)
        self.replaced.clear()

    def unwrapped(self) -> list:
        """Namespaces that still hold an original public function."""
        return unwrapped_names(self.originals)


def unwrapped_names(originals) -> list:
    missed = []
    for name, mod in _loggas_modules():
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in originals:
                missed.append(f"{name}.{attr}")
    return sorted(missed)


def install(tracer: Tracer) -> Installation:
    import loggas.cli  # noqa: F401  (loads every namespace that re-exports)

    originals = {}
    wrappers = {}
    for module_name, func_name, span_name, record in TARGETS:
        original = getattr(sys.modules[module_name], func_name)
        originals[original] = span_name

        def wrapper(*args, _f=original, _n=span_name, _r=record, **kwargs):
            return tracer.call(_n, _f, args, kwargs, _r)

        wrappers[original] = functools.wraps(original)(wrapper)

    inst = Installation(originals)
    for _, mod in _loggas_modules():
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                inst.replaced.append((mod, attr, value))
    return inst


# ---------------------------------------------------------------------------
# Self time and per-layer figures
# ---------------------------------------------------------------------------

def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of the intervals its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - union_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def integrated_autocorr_time(x, c: float = 5.0) -> float:
    """Integrated autocorrelation time tau = 1 + 2 sum_t rho(t), summed up to
    Sokal's automatic window: the smallest W with W >= c * tau(W)."""
    x = np.asarray(x, dtype=float)
    m = x.size
    if m < 2:
        return 1.0
    y = x - x.mean()
    var = float(np.dot(y, y))
    if var == 0.0:
        return 1.0
    size = 1 << (2 * m - 1).bit_length()
    f = np.fft.rfft(y, size)
    acf = np.fft.irfft(f * np.conjugate(f), size)[:m] / var
    tau = 1.0
    for w in range(1, m):
        tau += 2.0 * acf[w]
        if w >= c * tau:
            break
    return max(tau, 1.0)


# Metric -> span names whose self time it sums.
_SELF_TIME = {
    "solver.solve_s": ("solver.solve_both", "solver.solve_t_plus", "solver.solve_t_minus"),
    "solver.nest_s": ("solver.max_nest",),
    "spectral.eigs_s": ("spectral.symmetric_eigs",),
    "sphere_mc.partition_s": ("sphere_mc.estimate_partition",),
    "sphere_mc.metropolis_s": ("sphere_mc.metropolis_chain",),
    "sphere_mc.observables_s": ("sphere_mc.collapse_observables",),
    "graphs.arboricity_s": ("graphs.arboricity",),
    "cli.self_s": ("cli.main",),
}
_SAMPLING = ("coupling.sample_gaussian_couplings", "coupling.sample_gaussian_charges",
             "coupling.from_charges")


def under_jobs(spans) -> list:
    """Spans that descend from a job span ("cli.main").  Calls made while the
    wrappers are installed but outside a traced job are left out."""
    by_id = {s.id: s for s in spans}

    def root(s):
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    return [s for s in spans if root(s).name == "cli.main"]


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced pass (values only; the units are in
    BENCHMARK.json).  Layers a workload does not run report 0.  Calls that
    raised count in the times but not in the figures read from results."""
    spans = under_jobs(spans)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out = {}
    for metric, names in _SELF_TIME.items():
        out[metric] = sum(own[s.id] for s in spans if s.name in names)

    def under_load(s):
        p = s.parent
        while p is not None:
            if by_id[p].name == "coupling.load_system":
                return True
            p = by_id[p].parent
        return False

    # Loading includes the constructors it calls; sampling counts only
    # constructors called outside a load.
    out["coupling.load_s"] = sum(s.duration for s in spans if s.name == "coupling.load_system")
    out["coupling.sample_s"] = sum(s.duration for s in spans
                                   if s.name in _SAMPLING and not under_load(s))

    done = [s for s in spans if "error" not in s.attrs]
    solves = [s for s in done if s.name in _SELF_TIME["solver.solve_s"]]
    out["solver.solve_calls"] = len(solves)
    out["solver.subsets"] = sum(s.attrs["subsets"] for s in solves)
    for mode, exact in (("exact", True), ("float", False)):
        chosen = [s for s in solves if s.attrs["exact"] == exact]
        subsets = sum(s.attrs["subsets"] for s in chosen)
        busy = sum(own[s.id] for s in chosen)
        out[f"solver.ns_per_subset.{mode}"] = 1e9 * busy / subsets if subsets else 0.0

    nests = [s for s in done if s.name == "solver.max_nest"]
    out["solver.family_size"] = sum(s.attrs["family"] for s in nests)
    out["solver.nests_found"] = sum(s.attrs["nests"] for s in nests)
    out["solver.nests_truncated"] = sum(1 for s in nests if s.attrs["truncated"])

    eigs = [s for s in done if s.name == "spectral.symmetric_eigs"]
    out["spectral.eigs_calls"] = len(eigs)
    out["spectral.sweeps"] = sum(s.attrs["sweeps"] for s in eigs)
    rotations = sum(s.attrs["rotations_max"] for s in eigs)
    out["spectral.us_per_rotation"] = 1e6 * out["spectral.eigs_s"] / rotations if rotations else 0.0
    out["spectral.residual_max"] = max((s.attrs["residual"] for s in eigs), default=0.0)

    parts = [s for s in done if s.name == "sphere_mc.estimate_partition"]
    pair_samples = sum(s.attrs["pair_samples"] for s in parts)
    out["sphere_mc.ns_per_pair_sample"] = (
        1e9 * out["sphere_mc.partition_s"] / pair_samples if pair_samples else 0.0)
    out["sphere_mc.heavy_tail_points"] = sum(1 for s in parts if s.attrs["heavy_tail"])

    chains = [s for s in done if s.name == "sphere_mc.metropolis_chain"]
    steps = sum(s.attrs["steps"] for s in chains)
    out["sphere_mc.us_per_step"] = 1e6 * out["sphere_mc.metropolis_s"] / steps if steps else 0.0
    out["sphere_mc.acceptance"] = (
        float(np.mean([s.attrs["acceptance"] for s in chains])) if chains else 0.0)
    ess = sum(s.attrs["energies"].size / integrated_autocorr_time(s.attrs["energies"])
              for s in chains)
    out["sphere_mc.ess_per_step"] = ess / steps if steps else 0.0
    return out
