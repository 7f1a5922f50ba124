"""Workloads ``fig08-serial`` and ``fig08-pool``: the Figure 8 grid.

6 targets x 4 dynamic scenarios x 5 policies x 2 workload sets, simulation
seed 0 at ``iterations_scale=0.3``: 240 simulated runs, with the run
cache off so every one is computed.  ``fig08-serial`` runs them in this
process; ``fig08-pool`` through ``Executor(jobs=2)`` with the program's
own transport and batch settings.  The grid does not depend on
``--seed``: the seed picks which target the fixed-stepping oracle
recomputes.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

import harness
from harness import Outcome
from pace import Pace

TARGETS = ("cg", "ep", "lu", "mg", "art", "bodytrack")
ITERATIONS_SCALE = 0.3
SIM_SEEDS = (0,)
RUNS = 240
#: ``standard_policies`` pre-trains the mixture's selector on every
#: call, ~2 s here, so fig08 sets up fewer times than the servers.
SETUP_REPS = 3


def _recording_executor(**kwargs):
    """An :class:`Executor` that keeps every ``(request, summary)``."""
    from repro.exec import Executor

    class RecordingExecutor(Executor):
        def run(self, requests):
            summaries = super().run(requests)
            self.runs.extend(zip(requests, summaries))
            self.reports.append(self.last_report)
            return summaries

    executor = RecordingExecutor(**kwargs)
    executor.runs = []
    executor.reports = []
    return executor


def setup():
    from repro.experiments.runner import standard_policies

    harness.forget_loaded_experts()
    return standard_policies()


class RunClock:
    """Times every simulated run, in pool workers too.

    While installed, ``execute_request`` in the executor module is
    wrapped; pool workers are forked from the parent and inherit the
    wrapper.  A ``paced`` clock (the serial grid) probes the host
    before each run and maps run times onto the reference axis
    (:mod:`pace`).  The pool is timed raw: its workers share both cores
    with the parent, so a probe there would also see the parent's
    result decoding and divide that cost out of the times it belongs
    to.  Workers append each run's seconds to ``<spool>/runs-<pid>.txt``.
    """

    def __init__(self, spool, paced: bool):
        from repro.exec import executor

        self.spool = spool
        self.paced = paced
        self.executor = executor
        self.original = executor.execute_request
        self.owner = os.getpid()
        self.pace = Pace()
        self.starts, self.ends = array("d"), array("d")

    def mark(self) -> float:
        """Probe if paced, then read the clock."""
        if self.paced:
            self.pace.tick(force=True)
        return self.pace.now()

    def _run(self, request):
        if os.getpid() != self.owner:
            started = time.perf_counter()
            summary = self.original(request)
            took = time.perf_counter() - started
            with open(self.spool / f"runs-{os.getpid()}.txt", "a") as handle:
                handle.write(f"{took!r}\n")
            return summary
        self.starts.append(self.mark())
        summary = self.original(request)
        self.ends.append(self.pace.now())
        return summary

    def __enter__(self) -> "RunClock":
        self.executor.execute_request = self._run
        return self

    def __exit__(self, *exc) -> None:
        self.executor.execute_request = self.original

    def seconds(self, started, ended) -> np.ndarray:
        """``ended - started`` on this process's clock, paced or raw."""
        started, ended = np.asarray(started), np.asarray(ended)
        if self.paced:
            started, ended = (self.pace.reference(started),
                              self.pace.reference(ended))
        return ended - started

    def collect(self) -> list:
        """Seconds of every run, and drop the spool."""
        times = self.seconds(self.starts, self.ends).tolist()
        for path in sorted(self.spool.glob("runs-*.txt")):
            times.extend(np.loadtxt(path, ndmin=1).tolist())
            path.unlink()
        return times


def grid(policies, jobs: int) -> dict:
    """One timed grid; returns the figure, runs and accounting.

    The serial grid's times are at the reference host speed; the
    pool's are raw (see :class:`RunClock`).
    """
    from repro.exec import STATS
    from repro.experiments.dynamic import run_dynamic_summary

    executor = _recording_executor(jobs=jobs, cache=None)
    before = STATS.snapshot()
    cpu, children = time.process_time(), harness.children_cpu_s()
    with RunClock(harness.scratch_dir("runs"), paced=jobs == 1) as clock:
        started = clock.mark()
        summary = run_dynamic_summary(
            targets=TARGETS, policies=policies,
            iterations_scale=ITERATIONS_SCALE, seeds=SIM_SEEDS,
            executor=executor,
        )
        ended = clock.pace.now()
        clock.mark()
    after = STATS.snapshot()
    peak_rss = harness.peak_rss_mb()
    return {
        "summary": summary,
        "peak_rss": peak_rss,
        "runs": executor.runs,
        "wall": float(clock.seconds(started, ended)),
        "raw_wall": ended - started,
        "count": len(executor.runs),
        "latencies": clock.collect(),
        "parent_cpu": time.process_time() - cpu,
        "worker_cpu": harness.children_cpu_s() - children,
        "stats": {k: after[k] - before[k] for k in after},
    }


def oracle(policies, target: str, timed_runs) -> None:
    """Recompute ``target``'s rows with ``stepping="fixed"``.

    Fixed stepping is the engine's reference implementation; event
    stepping must make exactly the same decisions.
    """
    from repro.experiments.runner import compare_policies
    from repro.experiments.scenarios import DYNAMIC_SCENARIOS

    from checks import check_same_decisions, decision_streams

    executor = _recording_executor(jobs=1, cache=None)
    for scenario in DYNAMIC_SCENARIOS:
        compare_policies(
            target, scenario, policies, seeds=SIM_SEEDS,
            iterations_scale=ITERATIONS_SCALE, stepping="fixed",
            executor=executor,
        )
    check_same_decisions(decision_streams(timed_runs),
                         decision_streams(executor.runs))


def check(result: dict, policies, oracle_target) -> None:
    """Grid and figure checks; the oracle only when a target is given."""
    from checks import check_fig08_shape, check_grid

    stats = result["stats"]
    check_grid(result["runs"], RUNS, stats["executed"],
               stats["cache_hits"])
    summary = result["summary"]
    rows = {
        name: {row.target: row.speedups for row in table.rows}
        for name, table in summary.tables.items()
    }
    check_fig08_shape(rows, summary.overall())
    if oracle_target is not None:
        oracle(policies, oracle_target, result["runs"])


def run(jobs: int, seed: int, seconds: float, trace: bool) -> Outcome:
    setups = []
    for _ in range(SETUP_REPS):
        policies, took = harness.timed(setup)
        setups.append(took)
    raw = None
    if trace:
        import layers

        untraced = grid(policies, jobs)
        recorder = layers.install("fig08")
        policies, _ = harness.timed(setup)
        load_s = recorder.busy("core.training.load")
        recorder.clear()
        result = grid(policies, jobs)
        layers.uninstall(recorder)
        results = [result]
        metrics = layers.fig08_metrics(recorder, result,
                                       untraced["raw_wall"], load_s)
        layers.save(recorder, f"fig08-{'pool' if jobs > 1 else 'serial'}")
    else:
        results = harness.rounds(seconds, lambda _: grid(policies, jobs))
        metrics = harness.end_to_end(results, setups)
        if jobs == 1:
            raw = harness.raw_wall(results)
    outcome = Outcome(attempted=sum(len(r["runs"]) for r in results),
                      failed=0, metrics=metrics, raw_wall_s=raw)
    for number, result in enumerate(results):
        outcome.failed += sum(1 for _, s in result["runs"] if s is None)
        target = TARGETS[seed % len(TARGETS)] if number == 0 else None
        try:
            check(result, policies, target)
        except AssertionError as error:
            outcome.problems.append(str(error))
    return outcome
