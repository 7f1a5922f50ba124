"""Plumbing shared by the workloads: paths, statistics, the result line.

Nothing here imports the program; the workload modules do, after
``run.py`` has pinned the environment.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import pace

ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes lives here (listed in .gitignore).
STATE = ROOT / ".perfbench"
CACHE = STATE / "cache"
TRACES = STATE / "traces"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-up repetitions per run; the median is reported.
SETUP_REPS = 151


class CheckFailed(AssertionError):
    """An output of the program failed a correctness check."""


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    #: Median over rounds of the unadjusted wall time where it is paced;
    #: printed beside the result so the adjustment can be judged.
    raw_wall_s: Optional[float] = None

    @property
    def correct(self) -> bool:
        return not self.problems


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile, linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def timed(fn: Callable[[], object]):
    """``(result, seconds)`` of one call, at the reference host speed.

    Three probes on each side of the call give the host's slowdown.
    """
    before = [pace.probe() for _ in range(3)]
    started = time.perf_counter()
    result = fn()
    took = time.perf_counter() - started
    after = [pace.probe() for _ in range(3)]
    return result, took / pace.slowdown(before + after)


def rounds(seconds: float, round_fn: Callable[[int], object]) -> list:
    """Run whole rounds until ``seconds`` are used (at least one).

    Another round starts only if the last one suggests it ends within
    the budget, so every round is complete and a run's length stays
    near ``seconds``.
    """
    results = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(round_fn(len(results)))
        last = time.perf_counter() - before
        if time.perf_counter() - started + last > seconds:
            return results


def end_to_end(rounds_: List[dict], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics from measured rounds and set-ups.

    Each round holds its ``wall`` seconds, the ``count`` of decisions
    answered (fig08: runs finished), its per-request ``latencies`` and
    the ``peak_rss`` read after it.  Every timing is the median over
    rounds of that round's value, so one round the host slowed moves
    the median only as far as its neighbours allow.
    """
    def over_rounds(value: Callable[[dict], float]) -> float:
        return median([value(r) for r in rounds_])

    return {
        "wall_s": over_rounds(lambda r: r["wall"]),
        "throughput_per_s": over_rounds(lambda r: r["count"] / r["wall"]),
        "latency_p50_us": over_rounds(
            lambda r: percentile(r["latencies"], 50) * 1e6),
        "latency_p99_us": over_rounds(
            lambda r: percentile(r["latencies"], 99) * 1e6),
        "setup_s": median(setups),
        "peak_rss_mb": rounds_[0]["peak_rss"],
    }


def raw_wall(rounds_: List[dict]) -> float:
    """Median over rounds of each round's unadjusted ``raw_wall``."""
    return median([r["raw_wall"] for r in rounds_])


# -- process accounting -----------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def host_fingerprint() -> Dict[str, object]:
    """CPU model, CPU-affinity count, Python and NumPy versions."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- program state the benchmark owns ---------------------------------------


def forget_loaded_experts() -> None:
    """Drop the in-process expert memo so set-up reloads from disk.

    ``default_experts`` memoises bundles per process; without this only
    the first set-up of a run would pay the load the program pays at
    start-up.
    """
    from repro.core import training

    for memo in ("_BUNDLE_CACHE", "_DATA_CACHE"):
        cache = getattr(training, memo, None)
        if isinstance(cache, dict):
            cache.clear()


def scratch_dir(label: str) -> Path:
    """A fresh, empty directory inside the checkout."""
    path = STATE / "tmp" / f"{os.getpid()}-{label}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def drop_scratch() -> None:
    """Remove every scratch directory this process made."""
    for path in (STATE / "tmp").glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)


# -- the result line --------------------------------------------------------


def declared_metrics(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(BENCHMARK.read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def result_line(outcome: Outcome, kind: str) -> dict:
    """The result object; its metric names must match BENCHMARK.json."""
    declared = declared_metrics(kind)
    if set(outcome.metrics) != set(declared):
        missing = sorted(set(declared) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(declared))
        raise KeyError(f"{kind} metrics differ from BENCHMARK.json: "
                       f"missing {missing}, undeclared {extra}")
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }
