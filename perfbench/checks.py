"""Correctness checks on the program's outputs.

They run outside the timed phase.  Each compares against a computation
made apart from the program (expert predictions recomputed here from
the linear models and envelopes, a second stepping mode, a scalar twin
server, a recovered server) or against a property the method must
have; none compares against a stored copy of an earlier output.
Every check raises :class:`~harness.CheckFailed` on the first problem.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from harness import CheckFailed

#: The paper's Fig 8 shape (overall harmonic-mean speedup over the
#: OpenMP default): the mixture beats every adaptive baseline.
MIXTURE_FLOOR = 1.15
#: The serving ladder's tiers, top to bottom (``repro.serve.server``).
MIXTURE_TIER, EXPERT_TIER, DEFAULT_TIER = "mixture", "expert", "default"


# -- fig08 ------------------------------------------------------------------


def check_grid(runs: Sequence[tuple], expected: int, executed: int,
               cache_hits: int) -> None:
    """Every run of the grid finished fresh, without policy fallbacks.

    ``runs`` holds ``(request, summary)`` pairs as the executor
    returned them; ``executed``/``cache_hits`` are the executor's own
    counts over the grid.
    """
    if len(runs) != expected:
        raise CheckFailed(f"grid returned {len(runs)} runs, "
                          f"expected {expected}")
    if executed != expected or cache_hits != 0:
        raise CheckFailed(f"executor ran {executed} runs with "
                          f"{cache_hits} cache hits; expected "
                          f"{expected} fresh runs")
    for request, summary in runs:
        label = f"{request.target}/{request.policy.label}"
        if summary is None:
            raise CheckFailed(f"run {label} returned no summary")
        if not (math.isfinite(summary.target_time)
                and summary.target_time > 0):
            raise CheckFailed(f"run {label} has target time "
                              f"{summary.target_time!r}")
        if summary.policy_fallbacks:
            raise CheckFailed(f"run {label} fell back "
                              f"{summary.policy_fallbacks} times")


def check_fig08_shape(rows: Dict[str, Dict[str, Dict[str, float]]],
                      overall: Dict[str, float]) -> None:
    """``default`` scores exactly 1.0 and the mixture leads.

    ``rows`` maps scenario -> target -> policy -> speedup; ``overall``
    is the harmonic mean per policy over every row.
    """
    for scenario, targets in rows.items():
        for target, speedups in targets.items():
            if speedups.get("default") != 1.0:
                raise CheckFailed(
                    f"{scenario}/{target}: default scores "
                    f"{speedups.get('default')!r}, not exactly 1.0")
    if overall.get("default") != 1.0:
        raise CheckFailed(f"overall default is {overall.get('default')!r}")
    mixture = overall["mixture"]
    if not mixture > MIXTURE_FLOOR:
        raise CheckFailed(f"mixture overall hmean {mixture:.4f} is not "
                          f"above {MIXTURE_FLOOR}")
    for rival in ("online", "analytic"):
        if mixture < overall[rival]:
            raise CheckFailed(f"mixture {mixture:.4f} trails {rival} "
                              f"{overall[rival]:.4f}")


def decision_streams(runs: Sequence[tuple]) -> Dict[tuple, List[tuple]]:
    """``(scenario, target, policy) -> [stream per workload set]``.

    A stream is every thread decision of the run, in order, as
    ``(job, loop, threads)``, plus the workload jobs' completed runs.
    """
    streams: Dict[tuple, List[tuple]] = defaultdict(list)
    for request, summary in runs:
        key = (request.scenario.name, request.target, request.policy.label)
        decisions = tuple((s.job_id, s.loop_name, s.threads)
                          for s in summary.selections)
        streams[key].append((decisions, tuple(summary.workload_runs)))
    return dict(streams)


def check_same_decisions(timed: Dict[tuple, list],
                         oracle: Dict[tuple, list]) -> None:
    """The timed runs decide exactly what the oracle runs decide."""
    missing = sorted(set(oracle) - set(timed))
    if missing:
        raise CheckFailed(f"timed grid lacks oracle runs {missing}")
    for key, streams in oracle.items():
        if timed[key] != streams:
            raise CheckFailed(f"decisions of {key} differ from the "
                              "fixed-stepping oracle")


# -- serving ----------------------------------------------------------------


def feature_matrix(requests: Sequence) -> np.ndarray:
    """``(N, 10)`` feature rows built from the raw request fields."""
    from repro.compiler.features import CODE_FEATURE_NAMES
    from repro.sched.stats import ENV_FEATURE_NAMES

    return np.array([
        [getattr(r.ctx.code, n) for n in CODE_FEATURE_NAMES]
        + [getattr(r.ctx.env, n) for n in ENV_FEATURE_NAMES]
        for r in requests
    ], dtype=float)


def expert_answers(experts: Sequence, requests: Sequence) -> np.ndarray:
    """``(N, K)``: each expert's thread count for each request.

    Recomputed from the expert's linear thread model and training
    envelope (non-finite inputs zeroed, inputs clipped, rounded,
    clamped to ``[1, max_threads]``), then snapped to the available
    processors and clamped to them the way a served answer is.
    """
    features = feature_matrix(requests)
    features = np.where(np.isfinite(features), features, 0.0)
    limits = np.array([r.ctx.max_threads for r in requests], dtype=float)
    available = np.array([r.ctx.available_processors for r in requests],
                         dtype=float)
    idle = np.array([r.ctx.env.workload_threads < 2 for r in requests])
    ceiling = np.minimum(available, limits)
    threshold = np.where(idle, 0.5, 0.8) * ceiling
    answers = np.empty((len(requests), len(experts)), dtype=np.int64)
    for k, expert in enumerate(experts):
        clipped = features
        if expert.feature_low is not None:
            clipped = np.clip(features, expert.feature_low,
                              expert.feature_high)
        model = expert.thread_model
        raw = clipped @ np.asarray(model.weights) + model.intercept
        threads = np.where(np.isfinite(raw),
                           np.clip(np.rint(raw), 1, limits), 1.0)
        snapped = np.where(threads >= threshold,
                           np.maximum(threads, ceiling), threads)
        answers[:, k] = np.clip(snapped, 1, available)
    return answers


def check_answered_or_shed(requests: Sequence, decisions: Sequence) -> int:
    """One decision per request, each answered in range or shed.

    Returns the number shed.
    """
    if len(decisions) != len(requests):
        raise CheckFailed(f"{len(requests)} requests got "
                          f"{len(decisions)} decisions")
    shed = 0
    for request, decision in zip(requests, decisions):
        if decision.index != request.index:
            raise CheckFailed(f"request {request.index} answered as "
                              f"{decision.index}")
        if decision.shed:
            if decision.threads is not None:
                raise CheckFailed(f"shed request {request.index} carries "
                                  f"threads {decision.threads}")
            shed += 1
            continue
        available = request.ctx.available_processors
        if decision.threads is None or not (
                1 <= decision.threads <= available):
            raise CheckFailed(f"request {request.index}: threads "
                              f"{decision.threads} outside "
                              f"[1, {available}]")
    return shed


def check_tier_answers(experts: Sequence, requests: Sequence,
                       decisions: Sequence) -> Dict[str, int]:
    """Each answer is what its tier can answer.

    A mixture or best-expert answer equals one of the experts' thread
    predictions for that request; a default answer is one thread per
    available processor.  Returns the decisions counted per tier.
    """
    answers = expert_answers(experts, requests)
    tiers: Dict[str, int] = defaultdict(int)
    for row, (request, decision) in enumerate(zip(requests, decisions)):
        tiers[decision.tier] += 1
        if decision.shed:
            continue
        if decision.tier in (MIXTURE_TIER, EXPERT_TIER):
            if decision.threads not in answers[row]:
                raise CheckFailed(
                    f"request {request.index}: {decision.tier} answered "
                    f"{decision.threads}, experts predict "
                    f"{sorted(set(answers[row].tolist()))}")
        elif decision.tier == DEFAULT_TIER:
            expected = min(request.ctx.available_processors,
                           request.ctx.max_threads)
            if decision.threads != expected:
                raise CheckFailed(
                    f"request {request.index}: default answered "
                    f"{decision.threads}, not {expected}")
        else:
            raise CheckFailed(f"request {request.index}: unknown tier "
                              f"{decision.tier!r}")
    return dict(tiers)


def same_bits(left, right) -> bool:
    """Exact equality, to the bit for floats and arrays."""
    if isinstance(left, dict) or isinstance(right, dict):
        return (isinstance(left, dict) and isinstance(right, dict)
                and left.keys() == right.keys()
                and all(same_bits(left[k], right[k]) for k in left))
    if isinstance(left, (np.ndarray, list, tuple)) or isinstance(
            right, (np.ndarray, list, tuple)):
        a, b = np.asarray(left), np.asarray(right)
        return (a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    if isinstance(left, float) or isinstance(right, float):
        return (type(left) is type(right)
                and np.float64(left).tobytes() == np.float64(right).tobytes())
    return left == right


def check_recovered(live_state: dict, recovered_state: dict,
                    next_index: int, expected_next: int) -> None:
    """A server reopened over the state directory is the live server."""
    if next_index != expected_next:
        raise CheckFailed(f"recovered server resumes at {next_index}, "
                          f"expected {expected_next}")
    if not same_bits(live_state, recovered_state):
        diverged = sorted(k for k in live_state
                          if not same_bits(live_state.get(k),
                                           recovered_state.get(k)))
        raise CheckFailed(f"recovered selector state differs in "
                          f"{diverged or 'its keys'}")


# -- fleet ------------------------------------------------------------------


def check_fleet(count: int, decisions: Sequence, available: Sequence[int],
                failovers: int) -> None:
    """Every submitted index got exactly one answer; nothing shed."""
    seen = [0] * count
    for decision in decisions:
        if not 0 <= decision.index < count:
            raise CheckFailed(f"decision for unknown index "
                              f"{decision.index}")
        seen[decision.index] += 1
        if decision.shed:
            raise CheckFailed(f"request {decision.index} was shed")
        if decision.threads is None or not (
                1 <= decision.threads <= available[decision.index]):
            raise CheckFailed(f"request {decision.index}: threads "
                              f"{decision.threads} outside "
                              f"[1, {available[decision.index]}]")
    wrong = [i for i, n in enumerate(seen) if n != 1]
    if wrong:
        raise CheckFailed(f"{len(wrong)} requests did not get exactly "
                          f"one decision (first: {wrong[0]} got "
                          f"{seen[wrong[0]]})")
    if failovers:
        raise CheckFailed(f"{failovers} failovers on a healthy fleet")


def decision_keys(decisions: Sequence) -> Dict[int, Tuple]:
    return {d.index: (d.threads, d.tier, d.shed) for d in decisions}


def check_twin(decisions: Sequence, twin: Sequence) -> None:
    """The fleet decided exactly what the scalar twin decided."""
    ours, theirs = decision_keys(decisions), decision_keys(twin)
    if ours.keys() != theirs.keys():
        raise CheckFailed("fleet and twin answered different indices")
    for index in sorted(theirs):
        if ours[index] != theirs[index]:
            raise CheckFailed(f"request {index}: fleet {ours[index]} vs "
                              f"scalar twin {theirs[index]}")
