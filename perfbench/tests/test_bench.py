"""Tests of the benchmark's own parts: reducers, oracles, failure counting,
tracer bindings and the metric list in BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import entrobox
import entrobox.cli as cli
import entrobox.qstate as qstate
import entrobox.tomography as tomography
import oracles
import run
import speed
import tracing
import worker
import workloads
from summary import median, percentile

ROOT = Path(__file__).resolve().parents[2]


def test_median_matches_statistics():
    for xs in ([3.0], [5.0, 1.0], [4.0, 1.0, 9.0], [2.0, 8.0, 1.0, 7.0, 3.0, 3.0]):
        assert median(xs) == pytest.approx(statistics.median(xs), abs=0)


def test_percentile_interpolates_like_numpy():
    xs = np.random.default_rng(0).exponential(size=1001)
    for pct in (0, 1, 25, 50, 90, 99, 100):
        assert percentile(xs, pct) == pytest.approx(float(np.percentile(xs, pct)), rel=1e-12)
    assert percentile([1.0, 2.0], 99) == pytest.approx(1.99)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_factorizations_match_program():
    for dim in range(2, 17):
        for k in (2, 3):
            assert oracles.factorizations(oracles.minimal_padded(dim, k), k) == [
                tuple(s) for s in entrobox.admissible_shapes(dim, k)
            ]


def _states():
    rng = np.random.default_rng(11)
    vecs = [rng.dirichlet(np.ones(d)) for d in (4, 7, 9, 12)]
    rhos = [workloads.ginibre(d, rng) for d in (3, 4, 5, 7)]
    return vecs, rhos


def test_oracle_marginals_and_reductions_agree_with_program():
    vecs, rhos = _states()
    p = vecs[2]
    table = entrobox.reshape(entrobox.pad(entrobox.ProbVec(p), 12), (2, 2, 3))
    assert np.allclose(oracles.marginal(p, (2, 2, 3), (1, 2)), entrobox.marginal3(table, (1, 2)).entries, atol=1e-15)
    assert np.allclose(oracles.marginal(p, (2, 2, 3), (2,)), entrobox.marginal3(table, (2,)).values, atol=1e-15)
    for rho in rhos:
        state = entrobox.DensityMatrix(rho)
        for factors, keeps in (((2, 4), ((1,), (2,))), ((2, 2, 2), ((1, 2), (2, 3), (2,)))):
            for keep in keeps:
                got = entrobox.reduce(state, entrobox.ReductionPlan(factors, keep)).matrix
                assert np.abs(got - oracles.partial_trace(rho, factors, keep)).max() < 1e-14


@pytest.mark.parametrize("k", [2, 3])
def test_oracle_reports_agree_with_program(k):
    vecs, rhos = _states()
    for p in vecs:
        for shape in entrobox.admissible_shapes(len(p), k):
            fn = entrobox.subadditivity_gap if k == 2 else entrobox.strong_subadditivity_gap
            check = "subadd" if k == 2 else "strong-subadd"
            rep = fn(entrobox.ProbVec(p), shape).to_dict()
            assert oracles.mismatches(rep, oracles.expected(check, p, tuple(shape))) == []
    for rho in rhos:
        for shape in entrobox.admissible_shapes(rho.shape[0], k):
            fn = entrobox.quantum_subadditivity if k == 2 else entrobox.quantum_strong_subadditivity
            check = "q-subadd" if k == 2 else "q-strong-subadd"
            rep = fn(entrobox.DensityMatrix(rho), shape).to_dict()
            assert oracles.mismatches(rep, oracles.expected(check, rho, tuple(shape))) == []


def test_oracle_chains_discord_and_readouts_agree_with_program():
    vecs, rhos = _states()
    p = vecs[0]
    for q in workloads.Q_VALUES:
        rep = entrobox.tsallis_monotonicity_check(entrobox.ProbVec(p), q).to_dict()
        assert oracles.mismatches(rep, oracles.expected("tsallis-chain", p, q=q)) == []
    cond = oracles.expected("cond-chain", p)
    assert abs(cond["rhs"] - float(entrobox.conditional_entropy(entrobox.ProbVec(p)))) < 1e-12
    for rho in rhos[:2]:
        rep = entrobox.discord(entrobox.DensityMatrix(rho)).to_dict()
        assert oracles.mismatches(rep, oracles.expected("discord", rho)) == []
    rho = rhos[1]
    state = entrobox.DensityMatrix(rho)
    w = entrobox.spin_tomogram_axis(state, 1.1, 4.0).probabilities.values
    assert np.abs(w - oracles.readout(rho, oracles.spin_unitary(4, 1.1, 4.0))).max() < 1e-12
    u = entrobox.ensembles.haar(4, np.random.default_rng(3))
    h = float(entrobox.tomographic_entropy(state, entrobox.UnitaryMatrix(u)))
    assert abs(h - oracles.readout_entropy(rho, u)) < 1e-12
    assert abs(float(entrobox.von_neumann(state)) - oracles.von_neumann(rho)) < 1e-12


def _readout_min_request(tmp_path):
    wl = workloads.Eval(9, tmp_path / "eval")
    [req] = [r for r in wl.warmup_inputs() if r.label == "readout-min"]
    assert req.call() == 0
    return wl, req


def _set_minimum(req, shift: float) -> None:
    out = Path(req.meta["output"])
    report = json.loads(out.read_text())
    s = oracles.von_neumann(req.meta["state"])
    report["entropies"]["minimum_readout"] = s + shift
    report["rhs"] = s + shift
    out.write_text(json.dumps(report))


def test_exact_minimizer_result_passes(tmp_path):
    wl, req = _readout_min_request(tmp_path)
    _set_minimum(req, 0.0)
    v = wl.verify([workloads.Record(req, 0.1, 0)])
    assert (v.attempted, v.failed, v.states, v.wrong) == (1, 0, 1, [])
    wl.cleanup()


def test_minimizer_result_below_entropy_is_a_failed_operation(tmp_path):
    wl, req = _readout_min_request(tmp_path)
    _set_minimum(req, -1e-3)
    v = wl.verify([workloads.Record(req, 0.1, 0)])
    assert (v.attempted, v.failed, v.states, v.wrong) == (1, 1, 0, [])
    wl.cleanup()


def test_minimizer_result_that_misses_accuracy_is_a_failed_operation(tmp_path):
    wl, req = _readout_min_request(tmp_path)
    _set_minimum(req, 2e-6)
    v = wl.verify([workloads.Record(req, 0.1, 0)])
    assert (v.failed, v.states) == (1, 0)
    wl.cleanup()


def test_nonzero_eval_exit_is_a_failed_operation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([0.5, 0.7, -0.2]))
    argv = ["eval", "--check", "subadd", "--input", str(bad), "--output", str(tmp_path / "o.json")]
    rc = workloads.call_main(argv)
    assert rc == 2
    req = workloads.Request("subadd", lambda: rc, {"check": "subadd"})
    v = workloads.Eval(0, tmp_path).verify([workloads.Record(req, 0.001, rc)])
    assert (v.attempted, v.failed, v.wrong) == (1, 1, [])


def test_eval_round_is_verified_against_oracles(tmp_path):
    wl = workloads.Eval(7, tmp_path / "eval")
    try:
        requests = wl.warmup_inputs()
        records = [workloads.Record(r, 0.0, r.call()) for r in requests]
        v = wl.verify(records)
        assert (v.attempted, v.failed, v.wrong) == (len(requests), 0, [])
        # A tampered report is caught as wrong, not passed.
        out = Path(requests[0].meta["output"])
        report = json.loads(out.read_text())
        report["entropies"]["joint"] += 1e-6
        out.write_text(json.dumps(report))
        assert workloads.check_eval_output(requests[0].meta) != "ok"
    finally:
        wl.cleanup()
    assert not (tmp_path / "eval").exists()


def test_sweep_counts_and_failures():
    wl = workloads.Sweep(3, Path("."))
    [req] = [r for r in wl.round(0) if r.label == "quantum"]
    report = req.call()
    v = wl.verify([workloads.Record(req, 0.01, report)])
    want = workloads.expected_checks("quantum", workloads.SWEEP_TRIALS)
    assert (v.attempted, v.failed, v.wrong) == (sum(n for n, _, _ in want.values()), 0, [])
    row = report["checks"][-1]
    row["failures"] = 1
    assert wl.verify([workloads.Record(req, 0.01, report)]).failed == 1
    row["failures"] = 0
    row["count"] += 1
    assert wl.verify([workloads.Record(req, 0.01, report)]).wrong
    assert wl.sample_check() == []


def test_tracer_rebinds_every_copy_and_restores_them():
    originals = (qstate.von_neumann, cli.von_neumann, tomography.von_neumann, tomography.minimize_batch)
    assert originals[0] is originals[1] is originals[2]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qstate.von_neumann is cli.von_neumann is tomography.von_neumann
        assert qstate.von_neumann is not originals[0]
        rng = np.random.default_rng(2)
        rho = entrobox.DensityMatrix(workloads.ginibre(4, rng))
        qubit = entrobox.DensityMatrix(workloads.ginibre(2, rng))
        t0 = time.perf_counter()
        span = tracer.begin_request()
        cli.discord(rho)
        entrobox.minimize_entropy_batch([qubit], restarts=2, budget=100, seeds=[0])
        tracer.close(span)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert (qstate.von_neumann, cli.von_neumann, tomography.von_neumann, tomography.minimize_batch) == originals
    m = tracer.metrics(wall, wall)
    assert list(m) == list(tracing.PER_LAYER)
    assert m["tomography.discord.calls"] == 1
    assert m["tomography.tomogram.calls"] == 3  # 2 in discord, 1 for the minimum
    assert m["qstate.von_neumann.calls"] == 3
    assert m["neldermead.calls"] >= 1
    assert m["neldermead.nfev"] == m["tomography.objective.rows"]
    assert m["tomography.minimize.d2.s"] > 0
    assert math.isclose(m["trace.self_sum_s"], m["trace.wall_s"], rel_tol=0.05)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER



def test_rates_are_medians_over_rounds():
    verdict = workloads.Verdict(attempted=2, checks=4, states=2)
    fast = ([0.010, 0.030], verdict)
    slow = ([0.100, 0.300], verdict)
    m = worker.throughput_metrics([fast, fast, slow])
    assert m["checks_per_s"] == pytest.approx(100.0)
    assert m["states_per_s"] == pytest.approx(50.0)
    assert m["requests_per_s"] == pytest.approx(50.0)
    assert m["latency_p50_ms"] == pytest.approx(20.0)
    assert m["latency_p99_ms"] == pytest.approx(29.8)
    assert m["peak_rss_mb"] > 0


def test_run_rounds_checks_each_round():
    wl = workloads.Sweep(5, Path("."))
    rounds, wall = worker.run_rounds(wl, 0.05)
    assert len(rounds) >= 1 and wall >= 0.05
    traced, traced_s, untraced_s = worker.run_traced(wl, 0.05, tracing.Tracer())
    assert len(traced) >= 1 and traced_s >= 0.05 and untraced_s > 0
    for latencies, verdict in rounds + traced:
        assert len(latencies) == len(workloads.SWEEP_FAMILIES)
        assert verdict.failed == 0 and verdict.wrong == []
        assert verdict.checks == verdict.attempted > 0


def test_times_are_divided_by_host_slowness():
    verdict = workloads.Verdict(attempted=2, checks=4, states=2)
    rounds = [([0.010, 0.030], verdict)] * 3
    plain = worker.throughput_metrics(rounds)
    slow = worker.throughput_metrics(rounds, slowness=2.0)
    for name in ("checks_per_s", "states_per_s", "requests_per_s"):
        assert slow[name] == pytest.approx(2 * plain[name])
    for name in ("latency_p50_ms", "latency_p99_ms"):
        assert slow[name] == pytest.approx(plain[name] / 2)


def test_slowness_is_the_median_sample():
    index = speed.SpeedIndex()
    index.samples = [1.4, 0.9, 1.1]
    assert index.slowness() == 1.1
    index.mark(force=True)
    assert len(index.samples) == 4 and 0.1 < index.samples[-1] < 10
