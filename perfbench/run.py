"""The loggas benchmark.

    python3 perfbench/run.py --workload critical --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each run builds the workload's inputs from --seed, then runs its job
list (loggas command lines, through ``loggas.cli.main``) pass after pass for
about --seconds seconds, and checks every output (gate.py).

--trace 0 reports the end-to-end metrics: the wall time of one pass (sum of
per-job medians), work per second, set-up time, peak memory and the share of
jobs that succeeded.
--trace 1 alternates untraced and traced passes (tracing.py) and reports the
per-layer metrics, the tracing overhead and, on `ensemble`, the speed-up of
the default thread count over LOGGAS_THREADS=1.  Times and rates are scaled
to a reference machine speed (see CAL_REF_S below).  ensemble runs on every
CPU the process may use, at loggas's default thread count; the other
workloads run on one CPU with LOGGAS_THREADS=1 (workloads.SINGLE_CPU).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: on a 2-core machine idle BLAS workers spin beside the
# Python thread and make pass times swing by tens of percent.  Set before
# numpy is first imported; an explicit setting in the environment wins.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script's directory)

SETUP_REPEATS = 11
MIN_PASSES = 3

# Metric names and units are those of BENCHMARK.json; the counts that must
# repeat exactly between passes (and runs) of one seed are in layers.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
EXACT_COUNTS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["exact_counts"]
TIME_UNITS = {"s", "ms", "us", "ns"}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import loggas.cli; print(time.perf_counter() - t)")


# Machine-speed calibration.  On a 2-core cloud VM (Intel Xeon) that shares
# its host, each CPU's speed swings by up to 1.7x, in stretches of a fraction
# of a second to minutes, and the two CPUs swing independently.  Raw times of
# the same code spread by 10 to 45 % between runs.  So a run times a fixed
# kernel on each CPU it uses, before and after every job and every set-up,
# and scales that job's or set-up's time by CAL_REF_S / (mean of those kernel
# times): seconds on a machine where the kernel takes 10 ms.  A mean, not a
# median: kernel times are bimodal, and a median jumps between the modes.
# Scaling each job by its own kernel times spread less between runs than
# scaling every job by the run's mean, on four of the five workloads
# (ensemble was the exception).  Per-layer times, which span many jobs, are
# scaled by the run's mean.  The raw figures are printed alongside.
CAL_REF_S = 0.010
CAL_PER_CPU = 3


def calibration_kernel() -> float:
    """Seconds for fixed work that does not use loggas: numpy operations on
    tiny arrays, as in a Metropolis step, then Jacobi-like rotations of
    strided matrix columns.  Of the kernels tried it tracked the speed of
    the Metropolis, Jacobi and subset-scan code best; pure-Python int and
    dict work tracked even the subset scan worse."""
    t0 = time.perf_counter()
    a, p, s = np.ones((8, 3)), np.ones(3), 0.0
    for _ in range(1_000):
        d = a - p
        s += float(np.sum(d * d))
    m = np.ones((96, 96))
    for q in range(600):
        j = q % 95
        cp, cq = m[:, j].copy(), m[:, j + 1].copy()
        m[:, j], m[:, j + 1] = 0.6 * cp - 0.8 * cq, 0.8 * cp + 0.6 * cq
    return time.perf_counter() - t0


def calibrate(cpus: set) -> float:
    """Mean kernel time over CAL_PER_CPU samples on each CPU of `cpus`.  The
    calling thread visits each CPU in turn, then may use all of them again."""
    samples = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        samples += [calibration_kernel() for _ in range(CAL_PER_CPU)]
    os.sched_setaffinity(0, cpus)
    return statistics.mean(samples)


def calibrated(fn, cpus: set):
    """(fn's result, its raw seconds, mean kernel time before and after)."""
    before = calibrate(cpus)
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    return result, dt, (before + calibrate(cpus)) / 2


def tail_percentile(samples):
    """(p, value): the highest integer percentile with at least ten samples
    above it (nearest rank), or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[max(0, math.ceil(p * n / 100) - 1)]


def environment(threads: int, allowed: set, cpus: set) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"nproc": len(allowed), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "cpus": sorted(cpus), "threads": threads,
            **{name: os.environ[name] for name in BLAS_ENV}}


def default_threads() -> int:
    """loggas's default pool size, min(4, cpu_count), never above nproc."""
    return max(1, min(4, os.cpu_count() or 1, len(os.sched_getaffinity(0))))


def measure_setup(workload: str, seed: int, workdir: Path, cpus: set):
    """Import loggas in a fresh interpreter, then write the seeded inputs;
    returns the seconds at the reference speed and the raw seconds."""
    def setup():
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        t0 = time.perf_counter()
        workloads.build(workload, seed, workdir)
        return float(probe.stdout.strip()) + time.perf_counter() - t0

    seconds, _, cal = calibrated(setup, cpus)
    return seconds * CAL_REF_S / cal, seconds


class Runner:
    """Runs passes over a job list and keeps what the gate needs."""

    def __init__(self, wl, cpus: set):
        self.wl = wl
        self.cpus = cpus
        self.first = {}  # job name -> (exit code, output bytes) of the first pass
        self.attempted = 0
        self.failed = {}  # job name -> executions that failed
        self.job_times = {job.name: [] for job in wl.jobs}  # at the reference speed
        self.raw_times = {job.name: [] for job in wl.jobs}
        self.cal = []  # mean kernel time around each job

    @staticmethod
    def _execute(job, tracer):
        from loggas.cli import main as loggas_main

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                # Jobs expected to fail run outside a job span, so their
                # spans are left out of the layer figures: how far a failing
                # sweep gets before its pool stops is a race, and the layer
                # counts must repeat exactly.
                if tracer is None or job.expect != 0:
                    return loggas_main(job.argv)
                return tracer.call("cli.main", loggas_main, (job.argv,), {}, job=True)
            except SystemExit as exc:
                return exc.code
            except Exception as exc:  # a crash is a failed job, not a failed run
                return f"{type(exc).__name__}: {exc}"

    def run_pass(self, tracer=None, record_times=True) -> float:
        """Runs every job once; returns the raw seconds they took."""
        total = 0.0
        for job in self.wl.jobs:
            if job.out is not None and job.out.exists():
                job.out.unlink()
            code, dt, cal = calibrated(lambda: self._execute(job, tracer), self.cpus)
            self.cal.append(cal)
            total += dt
            if record_times:
                self.job_times[job.name].append(dt * CAL_REF_S / cal)
                self.raw_times[job.name].append(dt)
            output = job.out.read_bytes() if job.out is not None and job.out.exists() else None
            self.attempted += 1
            if job.name not in self.first:
                self.first[job.name] = (code, output)
            elif self.first[job.name] != (code, output):
                self.failed[job.name] = self.failed.get(job.name, 0) + 1
        return total

    def gate(self) -> dict:
        """job name -> problems of its first-pass output."""
        problems = {}
        for job in self.wl.jobs:
            code, output = self.first[job.name]
            found = []
            if code != job.expect:
                found.append(f"exit code {code!r}, expected {job.expect}")
            elif job.check is not None:
                if output is None:
                    found.append("no output written")
                else:
                    # later passes wrote the same bytes, or count as failed
                    try:
                        found = job.check(job.out)
                    except Exception as exc:  # unreadable output fails the gate
                        found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                problems[job.name] = found
        return problems


def timed_passes(runner: Runner, seconds: float, **kwargs) -> list:
    """At least MIN_PASSES passes, and enough for eleven job times (a tail
    percentile of wall_s), then more while the next one is expected to end no
    later than a quarter pass past `seconds`."""
    min_passes = max(MIN_PASSES, math.ceil(11 / len(runner.wl.jobs)))
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(runner.run_pass(**kwargs))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + 0.75 * statistics.mean(walls) > seconds:
            return walls


def run_untraced(runner, seconds):
    walls = timed_passes(runner, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Sum of per-job medians: a burst of interference on a shared machine
    # spoils one job's sample, not a whole pass.
    wall = sum(statistics.median(t) for t in runner.job_times.values())
    return walls, {"wall_s": wall, "peak_rss_mb": peak_mb}


def run_traced(runner, seconds, threads):
    """Alternate untraced and traced passes; returns per-layer metrics and
    the problems found by the trace itself."""
    import tracing

    plain, traced, layers, problems = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
        try:
            missed = inst.unwrapped()
            if missed:
                problems.append(f"public functions left unwrapped: {missed}")
            traced.append(runner.run_pass(tracer=tracer, record_times=False))
        finally:
            inst.restore()
        layers.append(tracing.layer_metrics(tracer.spans))
        if len(layers) == 1:
            first_tracer = tracer
        elapsed = time.perf_counter() - start
        if elapsed + 0.75 * (statistics.mean(plain) + statistics.mean(traced)) > seconds:
            break
    for key in EXACT_COUNTS:
        if len({m[key] for m in layers}) != 1:
            problems.append(f"{key} differs between traced passes: {[m[key] for m in layers]}")

    out = {key: statistics.mean(m[key] for m in layers) for key in layers[0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["cli.threads"] = threads
    out["cli.ensemble_thread_speedup"] = 0.0
    if runner.wl.name == "ensemble":
        os.environ["LOGGAS_THREADS"] = "1"
        try:
            single = runner.run_pass(record_times=False)
        finally:
            os.environ["LOGGAS_THREADS"] = str(threads)
        out["cli.ensemble_thread_speedup"] = single / statistics.median(plain)
    return plain, out, problems, first_tracer


def describe(samples) -> str:
    """Count, median and tail percentile of a set of timing samples."""
    tail = tail_percentile(samples)
    return f"n={len(samples)} median={statistics.median(samples):.6g} " + (
        f"p{tail[0]}={tail[1]:.6g}" if tail else "(under 11 samples: no tail percentile)")


def report(metrics: dict, units: dict, samples: dict):
    """One line per metric; a timing adds the description of its samples."""
    for name, unit in units.items():
        line = f"{name:32} {metrics[name]:14.6g} {unit:6}"
        if name in samples:
            line += "  " + samples[name]
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loggas benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "loggas" / "__init__.py").is_file():
        print(f"error: no loggas sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    import loggas.cli  # noqa: F401

    if not Path(loggas.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: loggas imported from {loggas.__file__}, not {SRC}", file=sys.stderr)
        return 2

    base = ROOT / ".bench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    # A single-CPU workload runs on one CPU with one pool thread, so that its
    # calibration kernel runs where its jobs run.
    allowed = os.sched_getaffinity(0)
    cpus = {min(allowed)} if args.workload in workloads.SINGLE_CPU else set(allowed)
    threads = 1 if args.workload in workloads.SINGLE_CPU else default_threads()
    os.sched_setaffinity(0, cpus)
    os.environ["LOGGAS_THREADS"] = str(threads)
    try:
        setups, raw_setups = zip(*(measure_setup(args.workload, args.seed, workdir / "inputs",
                                                 cpus) for _ in range(SETUP_REPEATS)))
        wl = workloads.build(args.workload, args.seed, workdir / "inputs")
        runner = Runner(wl, cpus)
        env = environment(threads, allowed, cpus)
        print(f"# loggas benchmark: workload={wl.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# environment: {json.dumps(env)}")

        problems = []
        if args.trace == 0:
            walls, metrics = run_untraced(runner, args.seconds)
            units = E2E_UNITS
        else:
            walls, metrics, problems, tracer = run_traced(runner, args.seconds, threads)
            tracer.dump(base / f"trace-{wl.name}-seed{args.seed}.jsonl")
            units = LAYER_UNITS
        gate_problems = runner.gate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = dict(runner.failed)
    passes = runner.attempted // len(wl.jobs)
    for name in gate_problems:
        failed[name] = passes  # every pass wrote the same bytes as the first
    n_failed = sum(failed.values())
    cal = statistics.mean(runner.cal)
    speed = CAL_REF_S / cal
    metrics["setup_s"] = statistics.median(setups)
    raw = dict(metrics, setup_s=statistics.median(raw_setups))
    if args.trace == 0:
        raw["wall_s"] = sum(statistics.median(t) for t in runner.raw_times.values())
    for name, unit in units.items():
        if unit in TIME_UNITS and name not in ("setup_s", "wall_s"):  # scaled per job
            metrics[name] *= speed
    if args.trace == 0:
        metrics["work_per_s"] = wl.units / metrics["wall_s"]
    metrics["ok_frac"] = 1.0 - n_failed / runner.attempted

    print(f"# {passes} passes of {len(wl.jobs)} jobs; work per pass: {wl.units:g} {wl.unit}")
    print(f"# timed pass walls (s): {[round(w, 4) for w in walls]}")
    print(f"# calibration: mean kernel time {cal * 1e3:.2f} ms around {len(runner.cal)} "
          f"jobs on CPUs {sorted(cpus)}, reference {CAL_REF_S * 1e3:g} ms; per-layer times "
          f"below are scaled by {speed:.4f}; unscaled: " + ", ".join(
              f"{k} {raw[k]:.6g}" for k in units if k in raw and units[k] in TIME_UNITS))
    for job in wl.jobs:
        t, r = runner.job_times[job.name], runner.raw_times[job.name]
        print(f"#   {job.name:24} median {statistics.median(t):9.4f} s  "
              f"raw {statistics.median(r):9.4f} s  n={len(t)}")
    for name, found in gate_problems.items():
        print(f"# GATE FAILED {name}: {'; '.join(found)}")
    for name, count in runner.failed.items():
        print(f"# OUTPUT CHANGED between passes: {name} ({count}x)")
    for problem in problems:
        print(f"# TRACE PROBLEM: {problem}")
    # A run makes only a few passes, so the tail of wall_s is read from every
    # job time as a share of its job's median, pooled over jobs and passes.
    shares = [t / statistics.median(ts) for ts in runner.job_times.values() for t in ts]
    report(metrics, units, {"setup_s": describe(setups),
                            "wall_s": f"passes n={len(walls)}; job time / job median "
                                      + describe(shares)})

    result = {
        "correct": not failed and not problems,
        "attempted": runner.attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
