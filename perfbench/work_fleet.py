"""Workload ``fleet-1shard``: a one-shard process-mode serving fleet.

A :class:`PolicyFleet` with one shard process (two processes on two
cores) serves the same composed-chaos stream as ``serve-journaled``,
one request at a time, submitted back to back by a single caller and
routed by loop name.  The four loop streams share the shard, so a
micro-batch of ``BATCH_MAX`` splits into sub-batches of about 16 per
stream, above the scalar cut-off of the vectorized decision path: this
is the workload that runs ``offer_batch``/``plan_batch``, the request
and decision codec, the ``ShmRing`` transport and the parent submit
loop.  The loop is closed: the ring slots are the only window, and a
full window blocks ``submit()`` until the shard answers.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Dict, List

import numpy as np

import harness
from harness import Outcome
from pace import Pace

REQUESTS = 10_000
#: The largest micro-batch the default queue capacity (64) admits.
BATCH_MAX = 64
#: Per-decision budget of the fleet and its twin.  The shipped 50 ms
#: budget fails a tier on a host stall of that length, and the twin
#: runs at another time, so a stall on one side only would make the
#: decisions differ.  With this budget no tier fails on time, and the
#: decisions are a function of the stream alone.
DEADLINE_S = 3600.0


def stream(seed: int):
    from repro.chaos import SensorFaultSpec
    from repro.serve import SoakSpec, make_request

    spec = SoakSpec(
        requests=REQUESTS, seed=seed,
        sensor=SensorFaultSpec(mode="nan", rate=1.0, seed=seed),
        fault_window=(0.3, 0.6),
    )
    return [make_request(spec, index) for index in range(REQUESTS)]


def config():
    from repro.serve import FleetConfig, ServeConfig

    return FleetConfig(shards=1, batch_max=BATCH_MAX,
                       serve=ServeConfig(deadline_s=DEADLINE_S))


def setup(state_root):
    """Expert load, fleet build and shard spawn."""
    from repro.core import training
    from repro.serve import PolicyFleet, build_policy

    harness.forget_loaded_experts()
    bundle = training.default_experts()
    fleet = PolicyFleet(functools.partial(build_policy, bundle), config(),
                        state_root=state_root, processes=True)
    return fleet, bundle


def serve(requests, label: str, mark=None) -> dict:
    """Submit the stream back to back; a request's latency runs from
    its ``submit()`` until its decision shows in ``fleet.decisions``,
    on the paced clock.  Only the parent probes: the shard has the
    other core, and both cores share the host.  ``mark`` is called just
    before the clock starts."""
    fleet, bundle = setup(harness.scratch_dir(label) / "fleet")
    try:
        submitted = array("d", bytes(8 * len(requests)))
        visible = array("d", bytes(8 * len(requests)))
        decisions = fleet.decisions
        seen = 0
        pace = Pace()
        if mark is not None:
            mark()
        children = harness.children_cpu_s()
        cpu = time.process_time()
        pace.tick(force=True)
        started = pace.now()
        for request in requests:
            pace.tick()
            submitted[request.index] = pace.now()
            fleet.submit(request)
            if len(decisions) > seen:
                now = pace.now()
                for decision in decisions[seen:]:
                    visible[decision.index] = now
                seen = len(decisions)
        fleet.drain()
        now = pace.now()
        for decision in decisions[seen:]:
            visible[decision.index] = now
        pace.tick(force=True)
        parent_cpu = time.process_time() - cpu - pace.paused
        report = fleet.close()
    except BaseException:
        fleet.abort()
        raise
    ref_started, ref_ended = pace.reference([started, now])
    return {
        "peak_rss": harness.peak_rss_mb(),
        "wall": float(ref_ended - ref_started),
        "raw_wall": now - started,
        "latencies": pace.reference(visible) - pace.reference(submitted),
        "report": report,
        "decisions": list(fleet.decisions),
        "bundle": bundle,
        "parent_cpu": parent_cpu,
        "shard_cpu": harness.children_cpu_s() - children,
    }


def twin(bundle, requests) -> List:
    """Per-stream scalar servers: one ``offer()`` of one request each."""
    from repro.serve import PolicyServer, build_policy

    servers: Dict[str, PolicyServer] = {}
    decisions = []
    for request in requests:
        stream_id = request.ctx.loop_name
        server = servers.get(stream_id)
        if server is None:
            server = servers[stream_id] = PolicyServer(
                build_policy(bundle), config().serve)
        decisions.extend(server.offer([request]))
    return decisions


def checked(result: dict, requests, expected: list) -> dict:
    """Check one round against the twin; keep what metrics need.

    ``expected`` holds the twin's decisions once computed; it is filled
    on the first call, after the first round has been measured.
    """
    from checks import check_fleet, check_twin

    report = result["report"]
    slim = {key: result[key] for key in (
        "wall", "raw_wall", "latencies", "report", "parent_cpu",
        "shard_cpu", "peak_rss")}
    slim["count"] = report.answered
    slim["problems"] = []
    slim["failed"] = report.shed + (len(requests) - report.answered
                                    - report.shed)
    try:
        check_fleet(len(requests), result["decisions"],
                    [r.ctx.available_processors for r in requests],
                    report.failovers)
        if not expected:
            expected.extend(twin(result["bundle"], requests))
        check_twin(result["decisions"], expected)
    except AssertionError as error:
        slim["problems"].append(str(error))
    return slim


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    requests = stream(seed)
    setups = []
    for rep in range(harness.SETUP_REPS):
        root = harness.scratch_dir(f"setup{rep}")
        (fleet, _), took = harness.timed(lambda: setup(root / "fleet"))
        fleet.close()
        setups.append(took)
    expected: list = []
    raw = None
    if trace:
        import layers

        untraced = serve(requests, "untraced")
        recorder = layers.install("fleet")
        root = harness.scratch_dir("traced-setup")
        fleet, _ = setup(root / "fleet")
        fleet.close()
        load_s = recorder.busy("core.training.load")
        result = serve(requests, "traced", mark=recorder.clear)
        layers.uninstall(recorder)
        results = [checked(result, requests, expected)]
        metrics = layers.fleet_metrics(recorder, result["report"],
                                       untraced["raw_wall"], result, load_s)
        layers.save(recorder, "fleet-1shard")
    else:
        results = harness.rounds(
            seconds,
            lambda n: checked(serve(requests, f"round{n}"), requests,
                              expected))
        metrics = harness.end_to_end(results, setups)
        raw = harness.raw_wall(results)
    return Outcome(
        attempted=len(requests) * len(results),
        failed=sum(r["failed"] for r in results),
        metrics=metrics,
        raw_wall_s=raw,
        problems=[p for r in results for p in r["problems"]],
    )
