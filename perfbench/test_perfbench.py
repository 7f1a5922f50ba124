"""The benchmark's own tests: statistics, tracing, names and checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every correctness check must reject a deliberately corrupted output.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
from harness import CheckFailed  # noqa: E402


# -- statistics and names ---------------------------------------------------


def test_percentile_matches_hand_computed_case():
    values = [4.0, 1.0, 3.0, 2.0]
    # Sorted 1,2,3,4: position (n-1)q/100 = 1.5 -> 2.5; 2.97 -> 3.97.
    assert harness.percentile(values, 50) == 2.5
    assert harness.percentile(values, 99) == pytest.approx(3.97)
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 100) == 4.0
    assert harness.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_end_to_end_takes_medians_over_rounds():
    rounds = [{"wall": wall, "count": 10, "peak_rss": 50.0 + wall,
               "latencies": [1e-3 * wall, 2e-3 * wall, 3e-3 * wall]}
              for wall in (1.0, 4.0, 2.0)]
    metrics = harness.end_to_end(rounds, [0.1, 0.3, 0.2])
    assert set(metrics) == set(harness.declared_metrics("end_to_end"))
    assert metrics["wall_s"] == 2.0
    assert metrics["throughput_per_s"] == 5.0
    assert metrics["latency_p50_us"] == pytest.approx(4000.0)
    assert metrics["latency_p99_us"] == pytest.approx(5960.0)
    assert metrics["setup_s"] == 0.2
    assert metrics["peak_rss_mb"] == 51.0


def test_per_layer_names_match_benchmark_json():
    declared = set(harness.declared_metrics("per_layer"))
    rec = tracing.Recorder()
    stats = {k: 0 for k in ("executed", "cache_hits", "pickled_bytes",
                            "shm_bytes", "serialize_seconds")}
    grid = {"raw_wall": 2.0, "stats": stats, "parent_cpu": 1.0,
            "worker_cpu": 0.5}
    serve_report = SimpleNamespace(trips=1, recoveries=1,
                                   tier_decisions={"mixture": 3})
    assert set(layers.fig08_metrics(rec, grid, 1.0, 0.1)) == declared
    assert set(layers.serve_metrics(rec, serve_report, 1.0, 2.0, 3, 0.1,
                                    3, 0.5)) == declared
    from repro.serve import ServeReport

    fleet_report = SimpleNamespace(
        per_shard=[ServeReport()], answered=3, batch_sizes={"mean": 2.0},
        latency_quantile=lambda q: 1e-4)
    fleet = {"raw_wall": 2.0, "parent_cpu": 1.0, "shard_cpu": 1.5}
    assert set(layers.fleet_metrics(rec, fleet_report, 1.0, fleet,
                                    0.1)) == declared


def test_result_line_rejects_undeclared_metric():
    names = harness.declared_metrics("end_to_end")
    outcome = harness.Outcome(attempted=1, failed=0,
                              metrics={name: 1.0 for name in names})
    assert harness.result_line(outcome, "end_to_end")["correct"]
    outcome.metrics["bogus"] = 1.0
    with pytest.raises(KeyError):
        harness.result_line(outcome, "end_to_end")


# -- paced clock ------------------------------------------------------------


def test_paced_clock_matches_hand_computed_case():
    # Probes at t=0..5 read 1,1,1,3,3,3 x reference.  Segment k (mark
    # k-1 to k) divides by the median of probes k-2..k+1: segments 1-2
    # by 1, segment 3 by 2, segments 4 on by 3.
    paced = pace.Pace()
    paced.marks.extend(range(6))
    paced.probes.extend(x * pace.REFERENCE_S for x in [1, 1, 1, 3, 3, 3])
    np.testing.assert_allclose(
        paced.reference([-1.0, 0.0, 2.5, 5.0, 6.0]),
        [-1.0, 0.0, 2.25, 1 + 1 + 0.5 + 2 / 3, 1 + 1 + 0.5 + 1.0])


def test_paced_clock_stops_while_probing():
    paced = pace.Pace()
    before = paced.now()
    paced.tick(force=True)
    paced.tick()  # the next probe is not due yet
    assert len(paced.probes) == 1
    assert 0 <= paced.now() - before < paced.paused
    with pytest.raises(ValueError):
        pace.Pace().reference([0.0])


# -- tracing ----------------------------------------------------------------


class _Layered:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.03)


def test_self_time_subtracts_child_spans():
    rec = tracing.Recorder()
    tracing.wrap(_Layered, "outer", rec, "outer", request=lambda a: 7)
    tracing.wrap(_Layered, "inner", rec, "inner")
    try:
        assert _Layered().outer() == "done"
    finally:
        tracing.unwrap_all()
    assert rec.calls("outer") == rec.calls("inner") == 1
    assert rec.busy("outer") >= rec.busy("inner") >= 0.03
    assert rec.own("outer") == pytest.approx(
        rec.busy("outer") - rec.busy("inner"))
    # The inner span names the outer as parent and inherits its request.
    assert list(rec.parent) == [0, -1] and list(rec.request) == [7, 7]
    assert "inner" not in vars(_Layered) or not hasattr(
        _Layered.inner, "__wrapped__")


# -- fig08 checks -----------------------------------------------------------


def _run(target="cg", label="mixture", threads=4, fallbacks=0,
         scenario="small-low"):
    request = SimpleNamespace(target=target,
                              policy=SimpleNamespace(label=label),
                              scenario=SimpleNamespace(name=scenario))
    selection = SimpleNamespace(job_id="target", loop_name="loop",
                                threads=threads)
    summary = SimpleNamespace(target_time=1.5, policy_fallbacks=fallbacks,
                              selections=(selection,),
                              workload_runs=(("w0", 2),))
    return request, summary


def test_grid_check_rejects_dropped_run_fallback_and_cache_hit():
    runs = [_run() for _ in range(4)]
    checks.check_grid(runs, 4, executed=4, cache_hits=0)
    with pytest.raises(CheckFailed):
        checks.check_grid(runs[:-1], 4, executed=3, cache_hits=0)
    with pytest.raises(CheckFailed):
        checks.check_grid(runs, 4, executed=3, cache_hits=1)
    with pytest.raises(CheckFailed):
        checks.check_grid(runs[:-1] + [_run(fallbacks=1)], 4, 4, 0)


def test_fig08_shape_rejects_wrong_row():
    rows = {"small-low": {"cg": {"default": 1.0, "mixture": 1.3}}}
    overall = {"default": 1.0, "online": 1.1, "analytic": 1.05,
               "mixture": 1.2}
    checks.check_fig08_shape(rows, overall)
    wrong = {"small-low": {"cg": {"default": 0.999, "mixture": 1.3}}}
    with pytest.raises(CheckFailed):
        checks.check_fig08_shape(wrong, overall)
    with pytest.raises(CheckFailed):
        checks.check_fig08_shape(rows, dict(overall, online=1.25))
    with pytest.raises(CheckFailed):
        checks.check_fig08_shape(rows, dict(overall, mixture=1.1))


def test_oracle_check_rejects_changed_thread_count():
    timed = checks.decision_streams([_run(), _run(target="ep")])
    oracle = checks.decision_streams([_run()])
    checks.check_same_decisions(timed, oracle)
    with pytest.raises(CheckFailed):
        checks.check_same_decisions(
            timed, checks.decision_streams([_run(threads=5)]))
    with pytest.raises(CheckFailed):
        checks.check_same_decisions(
            {}, checks.decision_streams([_run()]))


# -- serving checks ---------------------------------------------------------


def _experts():
    from repro.core.expert import Expert
    from repro.core.regression import LinearModel

    rng = np.random.default_rng(3)
    experts = []
    for k in range(4):
        low = np.zeros(10)
        high = np.full(10, 4.0 + 4 * k)
        experts.append(Expert(
            name=f"e{k}",
            thread_model=LinearModel(rng.uniform(0.2, 1.5, 10), 1.0 + k),
            env_model=LinearModel(rng.uniform(0.0, 0.5, 10), 0.5),
            feature_low=low, feature_high=high,
        ))
    return experts


@pytest.fixture(scope="module")
def served():
    """A short chaos stream served by a real server over toy experts."""
    from repro.chaos import SensorFaultSpec
    from repro.serve import (PolicyServer, ServeConfig, SoakSpec,
                             build_policy, request_batches)

    spec = SoakSpec(requests=400, seed=5, burst_period=97,
                    sensor=SensorFaultSpec(mode="nan", seed=5),
                    fault_window=(0.3, 0.6))
    bundle = SimpleNamespace(experts=_experts())
    server = PolicyServer(build_policy(bundle), ServeConfig(
        queue_capacity=8))
    requests, decisions = [], []
    for position, batch in request_batches(spec):
        requests.extend(batch)
        decisions.extend(server.offer(batch, start_position=position))
    return bundle.experts, requests, decisions


def test_serve_checks_accept_real_answers(served):
    experts, requests, decisions = served
    shed = checks.check_answered_or_shed(requests, decisions)
    tiers = checks.check_tier_answers(experts, requests, decisions)
    assert shed > 0 and tiers.get("mixture", 0) > 100
    assert tiers.get("default", 0) > 0


def test_serve_checks_reject_changed_threads(served):
    experts, requests, decisions = served
    row = next(i for i, d in enumerate(decisions) if d.tier == "mixture")
    answers = set(checks.expert_answers(experts, [requests[row]])[0])
    wrong = next(t for t in range(1, 17) if t not in answers)
    corrupted = list(decisions)
    corrupted[row] = dataclasses.replace(decisions[row], threads=wrong)
    with pytest.raises(CheckFailed):
        checks.check_tier_answers(experts, requests, corrupted)
    default = next(i for i, d in enumerate(decisions)
                   if d.tier == "default")
    corrupted = list(decisions)
    corrupted[default] = dataclasses.replace(
        decisions[default], threads=decisions[default].threads - 1)
    with pytest.raises(CheckFailed):
        checks.check_tier_answers(experts, requests, corrupted)


def test_serve_checks_reject_dropped_or_illegal_answer(served):
    _, requests, decisions = served
    with pytest.raises(CheckFailed):
        checks.check_answered_or_shed(requests, decisions[:-1])
    row = next(i for i, d in enumerate(decisions) if not d.shed)
    corrupted = list(decisions)
    corrupted[row] = dataclasses.replace(decisions[row], threads=0)
    with pytest.raises(CheckFailed):
        checks.check_answered_or_shed(requests, corrupted)


def test_recovery_check_rejects_one_ulp():
    state = {"weights": np.arange(6, dtype=float).reshape(2, 3),
             "count": 4, "rate": 0.5}
    checks.check_recovered(state, {**state}, 10, 10)
    nudged = dict(state, rate=np.nextafter(0.5, 1.0))
    with pytest.raises(CheckFailed):
        checks.check_recovered(state, nudged, 10, 10)
    weights = state["weights"].copy()
    weights[1, 2] = np.nextafter(weights[1, 2], 0.0)
    with pytest.raises(CheckFailed):
        checks.check_recovered(state, dict(state, weights=weights), 10, 10)
    with pytest.raises(CheckFailed):
        checks.check_recovered(state, state, 9, 10)


# -- fleet checks -----------------------------------------------------------


def _decision(index, threads=3, tier="mixture", shed=False):
    return SimpleNamespace(index=index, threads=threads, tier=tier,
                           shed=shed)


def test_fleet_checks_reject_duplicate_shed_and_divergence():
    decisions = [_decision(i) for i in range(5)]
    available = [4] * 5
    checks.check_fleet(5, decisions, available, failovers=0)
    checks.check_twin(decisions, list(decisions))
    with pytest.raises(CheckFailed):
        checks.check_fleet(5, decisions + [_decision(2)], available, 0)
    with pytest.raises(CheckFailed):
        checks.check_fleet(5, decisions[:-1] + [
            _decision(4, None, "shed", True)], available, 0)
    with pytest.raises(CheckFailed):
        checks.check_fleet(5, decisions, available, failovers=1)
    with pytest.raises(CheckFailed):
        checks.check_twin(decisions, decisions[:-1] + [_decision(4, 2)])
