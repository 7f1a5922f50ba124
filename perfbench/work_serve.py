"""Workload ``serve-journaled``: one crash-safe decision server.

A :class:`PolicyServer` with a state directory serves the standard
four-expert bundle over the composed-chaos soak stream (``SoakSpec``
with ``--sensor nan --fault-window 0.3 0.6``, as the CI soak runs it),
one ``offer()`` per arrival batch.  Bursts of 12 exercise admission and
the sensor-fault window walks the breaker ladder down and back up.
Every round serves the whole stream with a fresh server.
"""

from __future__ import annotations

import tracemalloc
from array import array
from collections import namedtuple
from typing import List

import numpy as np

import harness
from harness import Outcome
from pace import Pace

REQUESTS = 20_000
#: tracemalloc growth is taken after this many requests.
WARMUP = 2_000

#: What the checks need of a served decision.  Decisions are kept as
#: flat columns while serving: holding 20k decision objects would grow
#: the garbage collector's heap and slow the server being measured.
Decision = namedtuple("Decision", "index threads tier shed")


def stream(seed: int):
    from repro.chaos import SensorFaultSpec
    from repro.serve import SoakSpec, request_batches

    spec = SoakSpec(
        requests=REQUESTS, seed=seed,
        sensor=SensorFaultSpec(mode="nan", rate=1.0, seed=seed),
        fault_window=(0.3, 0.6),
    )
    return list(request_batches(spec))


def setup(state_dir):
    """Expert load plus server build (recovery over an empty dir)."""
    from repro.core import training
    from repro.serve import PolicyServer, ServeConfig, build_policy

    harness.forget_loaded_experts()
    bundle = training.default_experts()
    return PolicyServer(build_policy(bundle), ServeConfig(),
                        state_dir=state_dir), bundle


def serve(batches, label: str, mark=None) -> dict:
    """Serve the whole stream once; per-request latency is the time of
    the ``offer()`` call that carried the request, on the paced clock.
    ``mark`` is called just before the clock starts."""
    state_dir = harness.scratch_dir(label)
    server, bundle = setup(state_dir / "state")
    pace = Pace()
    starts, ends, sizes = array("d"), array("d"), array("q")
    indices, threads, sheds = array("q"), array("q"), array("b")
    tiers: List[str] = []
    if mark is not None:
        mark()
    pace.tick(force=True)
    for position, batch in batches:
        pace.tick()
        starts.append(pace.now())
        answered = server.offer(batch, start_position=position)
        ends.append(pace.now())
        sizes.append(len(batch))
        for decision in answered:
            indices.append(decision.index)
            threads.append(-1 if decision.shed else decision.threads)
            tiers.append(decision.tier)
            sheds.append(decision.shed)
    pace.tick(force=True)
    report = server.report()
    server.close()
    started, ended = pace.reference(starts), pace.reference(ends)
    return {"peak_rss": harness.peak_rss_mb(), "server": server,
            "bundle": bundle, "report": report,
            "wall": float(ended[-1] - started[0]),
            "raw_wall": ends[-1] - starts[0],
            "latencies": np.repeat(ended - started, sizes),
            "decisions": [
                Decision(i, None if t < 0 else t, tier, bool(shed))
                for i, t, tier, shed in zip(indices, threads, tiers, sheds)
            ],
            "state_dir": state_dir / "state"}


def check(result: dict, requests) -> int:
    """Answered-or-shed, tier answers, lossless recovery; returns shed."""
    from repro.serve import PolicyServer, ServeConfig, build_policy

    from checks import (check_answered_or_shed, check_recovered,
                        check_tier_answers)

    decisions = result["decisions"]
    shed = check_answered_or_shed(requests, decisions)
    check_tier_answers(result["bundle"].experts, requests, decisions)
    reopened = PolicyServer(build_policy(result["bundle"]), ServeConfig(),
                            state_dir=result["state_dir"])
    try:
        check_recovered(
            result["server"].policy.export_online_state()["selector"],
            reopened.policy.export_online_state()["selector"],
            reopened.next_index, len(requests),
        )
    finally:
        reopened.close()
    return shed


def traced_kb_per_kreq(batches) -> float:
    """tracemalloc growth per 1000 requests after the warm-up."""
    state_dir = harness.scratch_dir("tracemalloc")
    tracemalloc.start()
    try:
        server, _ = setup(state_dir / "state")
        base = None
        for position, batch in batches:
            server.offer(batch, start_position=position)
            if base is None and batch[-1].index + 1 >= WARMUP:
                base = (tracemalloc.get_traced_memory()[0],
                        batch[-1].index + 1)
        grown = tracemalloc.get_traced_memory()[0] - base[0]
        server.close()
    finally:
        tracemalloc.stop()
    return grown / 1024.0 / ((REQUESTS - base[1]) / 1000.0)


def checked(result: dict, requests) -> dict:
    """Check one served round and keep only what metrics need."""
    slim = {"wall": result["wall"], "raw_wall": result["raw_wall"],
            "latencies": result["latencies"],
            "report": result["report"], "count": result["report"].answered,
            "peak_rss": result["peak_rss"],
            "shed": 0, "problems": []}
    try:
        slim["shed"] = check(result, requests)
    except AssertionError as error:
        slim["problems"].append(str(error))
    slim["decision_log"] = len(result["server"].policy.decisions)
    return slim


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    batches = stream(seed)
    requests = [request for _, batch in batches for request in batch]
    setups = []
    for rep in range(harness.SETUP_REPS):
        directory = harness.scratch_dir(f"setup{rep}")
        (server, _), took = harness.timed(
            lambda: setup(directory / "state"))
        server.close()
        setups.append(took)
    raw = None
    if trace:
        import layers

        untraced = serve(batches, "untraced")
        recorder = layers.install("serve")
        directory = harness.scratch_dir("traced-setup")
        server, _ = setup(directory / "state")
        server.close()
        load_s = recorder.busy("core.training.load")
        result = serve(batches, "traced", mark=recorder.clear)
        layers.uninstall(recorder)
        result = checked(result, requests)
        results = [result]
        metrics = layers.serve_metrics(
            recorder, result["report"], untraced["raw_wall"],
            result["raw_wall"],
            result["report"].answered, load_s, result["decision_log"],
            traced_kb_per_kreq(batches),
        )
        layers.save(recorder, "serve-journaled")
    else:
        results = harness.rounds(
            seconds,
            lambda n: checked(serve(batches, f"round{n}"), requests))
        metrics = harness.end_to_end(results, setups)
        raw = harness.raw_wall(results)
    return Outcome(
        attempted=len(requests) * len(results),
        failed=sum(r["shed"] for r in results),
        metrics=metrics,
        raw_wall_s=raw,
        problems=[p for r in results for p in r["problems"]],
    )
