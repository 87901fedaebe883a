"""Spans, self time and wrapper coverage of the benchmark's tracing."""

import contextlib
import io
import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import loggas
import loggas.cli
import tracing
from tracing import Span, Tracer, layer_metrics, self_times, union_length


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([(2, 3), (2, 3)]) == pytest.approx(1.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_the_union_of_overlapping_thread_spans():
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, 1),
        Span(2, "solver.solve_both", 1.0, 4.0, 1, 2),  # worker thread A
        Span(3, "solver.solve_both", 3.0, 6.0, 1, 3),  # worker thread B, overlaps A
        Span(4, "solver.max_nest", 8.0, 9.0, 1, 1),
        Span(5, "solver.max_nest", 8.5, 8.75, 4, 1),  # grandchild: not subtracted from 1
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0) and own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.75)


def test_worker_thread_spans_are_attributed_to_the_enclosing_job():
    tracer = Tracer()

    def work(i):
        def inner():
            return i
        return tracer.call("outer", lambda: tracer.call("inner", inner, (), {}), (), {})

    def job():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, range(4)))

    assert tracer.call("cli.main", job, (), {}, job=True) == [0, 1, 2, 3]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (main_span,) = by_name["cli.main"]
    assert all(s.parent == main_span.id for s in by_name["outer"])
    outer_ids = {s.id for s in by_name["outer"]}
    assert all(s.parent in outer_ids for s in by_name["inner"])
    assert any(s.thread != threading.get_ident() for s in by_name["outer"])
    assert tracer.job is None

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.call("failing", fail, (), {})
    assert tracer.spans[-1].name == "failing" and tracer.spans[-1].attrs == {"error": True}


def _targets():
    return {getattr(sys.modules[m], f) for m, f, _, _ in tracing.TARGETS}


def test_install_wraps_every_namespace_and_restore_undoes_it():
    originals = {f.__name__: f for f in _targets()}
    inst = tracing.install(Tracer())
    try:
        assert inst.unwrapped() == []
        # names imported by name into other modules are wrapped there too
        assert loggas.cli.critical_interval is not originals["critical_interval"]
        assert loggas.sphere_mc.critical_interval is not originals["critical_interval"]
        assert loggas.graphs.solve_t_minus is not originals["solve_t_minus"]
        assert loggas.cli.symmetric_eigs is not originals["symmetric_eigs"]
        assert loggas.cli.run_arboricity is not originals["arboricity"]
        assert loggas.solve_both is not originals["solve_both"]
    finally:
        inst.restore()
    assert loggas.cli.critical_interval is originals["critical_interval"]
    assert loggas.spectral.symmetric_eigs is originals["symmetric_eigs"]
    assert tracing.unwrapped_names({f: "" for f in originals.values()}) != []


def test_a_namespace_left_unwrapped_is_detected():
    inst = tracing.install(Tracer())
    late = types.ModuleType("loggas._late_import")
    late.solve_both = next(f for f in inst.originals if f.__name__ == "solve_both")
    sys.modules[late.__name__] = late
    try:
        assert inst.unwrapped() == ["loggas._late_import.solve_both"]
    finally:
        del sys.modules[late.__name__]
        inst.restore()


def _run(argv, tracer=None):
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return loggas.cli.main(argv)
        return tracer.call("cli.main", loggas.cli.main, (argv,), {}, job=True)


def _traced(argv):
    tracer = Tracer()
    inst = tracing.install(tracer)
    try:
        assert _run(argv, tracer) == 0
    finally:
        inst.restore()
    return layer_metrics(tracer.spans)


def test_partition_sweep_solves_once_per_point_plus_once(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"matrix": [[0, -1], [-1, 0]]}))
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    args = ["mc-partition", "--input", str(path), "--beta-grid", "0.1,0.2,0.3",
            "--samples", "2000", "--seed", "4"]
    assert _run(args + ["--out", str(plain)]) == 0
    m = _traced(args + ["--out", str(traced)])
    assert plain.read_bytes() == traced.read_bytes()
    assert m["solver.solve_calls"] == 4
    assert m["solver.subsets"] == 4 * 1
    assert m["sphere_mc.heavy_tail_points"] == 0
    assert m["sphere_mc.partition_s"] > 0 and m["sphere_mc.ns_per_pair_sample"] > 0
    assert m["spectral.eigs_calls"] == 0 and m["spectral.eigs_s"] == 0


def test_bounds_solves_the_spectrum_twice_and_gibbs_reports_chain_figures(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[0, 1.5, -2.0], [1.5, 0, 0.5], [-2.0, 0.5, 0]]}))
    m = _traced(["bounds", "--input", str(path), "--out", str(tmp_path / "b.json")])
    assert m["spectral.eigs_calls"] == 2 and m["spectral.sweeps"] > 0
    assert m["spectral.residual_max"] < 1e-12
    assert m["coupling.load_s"] > 0 and m["cli.self_s"] > 0

    path.write_text(json.dumps({"two_component": {"n1": 2, "n2": 2, "z1": 1, "z2": 1}}))
    m = _traced(["mc-gibbs", "--input", str(path), "--beta-grid", "0.2,0.4", "--steps", "600",
                 "--burn-in", "200", "--out", str(tmp_path / "g.csv")])
    assert m["solver.solve_calls"] == 2  # one interval per chain
    assert 0 < m["sphere_mc.acceptance"] <= 1 and 0 < m["sphere_mc.ess_per_step"] <= 1
    assert m["sphere_mc.us_per_step"] > 0 and m["sphere_mc.observables_s"] > 0


def test_spans_outside_a_job_are_left_out_of_layer_figures():
    spans = [Span(1, "cli.main", 0.0, 2.0, None, 1), Span(2, "solver.max_nest", 0.5, 1.0, 1, 1),
             Span(3, "solver.max_nest", 3.0, 4.0, None, 1)]
    for s in spans[1:]:
        s.attrs.update(family=4, nests=2, truncated=False)
    m = layer_metrics(spans)
    assert m["solver.family_size"] == 4 and m["solver.nest_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(1.5)


def test_integrated_autocorrelation_time():
    import numpy as np

    rng = np.random.default_rng(0)
    assert tracing.integrated_autocorr_time(rng.standard_normal(20_000)) == pytest.approx(1.0, abs=0.1)
    x = np.zeros(400_000)  # AR(1) with rho = 0.9: tau = (1 + rho) / (1 - rho) = 19
    noise = rng.standard_normal(x.size)
    for t in range(1, x.size):
        x[t] = 0.9 * x[t - 1] + noise[t]
    assert tracing.integrated_autocorr_time(x) == pytest.approx(19.0, rel=0.1)
