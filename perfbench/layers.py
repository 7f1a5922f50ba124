"""Which program functions the traced run times, and the per-layer metrics.

Layers are modules of ``src/repro``: ``experiments`` (figure drivers),
``exec`` (executor, ``execute_request``, pool, ``shm`` transport),
``runtime`` (engine, span kernels), ``sched`` (scheduler ``allocate``,
the ``/proc``-style sampler), ``core`` (policies, ``Expert``,
``HyperplaneSelector``, ``training``) and ``serve`` (server, breaker,
journal, fleet).  Every traced run prints every per-layer metric; a
layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Dict

import harness
import tracing
from tracing import Recorder

#: Policy classes whose ``select`` is timed per policy name.
_POLICY_CLASSES = (
    ("repro.core.policies.default", "DefaultPolicy"),
    ("repro.core.policies.online", "OnlineHillClimbPolicy"),
    ("repro.core.policies.offline", "SingleExpertPolicy"),
    ("repro.core.policies.analytic", "AnalyticPolicy"),
    ("repro.core.policies.mixture", "MixturePolicy"),
)
POLICY_NAMES = ("default", "online", "offline", "analytic", "mixture")
#: Expert methods counted by ``core.expert.calls_per_decision``.
_EXPERT_METHODS = (
    "predict_threads", "predict_env_norm", "domain_distance",
    "predict_threads_batch", "predict_env_norm_batch",
    "domain_distance_batch",
)
TIERS = ("mixture", "expert", "default")


def _module(name: str):
    import importlib

    return importlib.import_module(name)


def _policy_name(args) -> str:
    return "core.policy.select." + args[0].name


def _wrap_core(rec: Recorder) -> None:
    from repro.core.expert import Expert
    from repro.core.selector import HyperplaneSelector

    for module, cls in _POLICY_CLASSES:
        tracing.wrap(getattr(_module(module), cls), "select", rec,
                     _policy_name)
    tracing.wrap(HyperplaneSelector, "update", rec, "core.selector.update")
    for method in _EXPERT_METHODS:
        tracing.wrap(Expert, method, rec, "core.expert")


def _wrap_fig08(rec: Recorder) -> None:
    from repro.experiments import runner
    from repro.exec import executor
    from repro.runtime.engine import CoExecutionEngine
    from repro.runtime.kernels import SpanPlan
    from repro.sched.scheduler import ProportionalShareScheduler
    from repro.sched.stats import SystemStatsSampler

    run_ids = iter(range(1 << 62))
    tracing.wrap(executor, "execute_request", rec, "exec.execute_request",
                 request=lambda args: next(run_ids))
    tracing.wrap(CoExecutionEngine, "run", rec, "runtime.engine.run")
    tracing.wrap(SpanPlan, "apply", rec, "runtime.kernels")
    tracing.wrap(ProportionalShareScheduler, "allocate", rec,
                 "sched.allocate")
    for method in ("prime", "update", "advance_span", "sample"):
        tracing.wrap(SystemStatsSampler, method, rec, "sched.sampler")
    for name in ("default_experts", "training_dataset"):
        tracing.wrap(runner, name, rec, "core.training.load")
    _wrap_core(rec)


def _wrap_serve(rec: Recorder) -> None:
    from repro.core import training
    from repro.core.policies import mixture
    from repro.serve import fleet, journal, server
    from repro.serve.server import PolicyServer

    first_index = lambda args: args[1][0].index if args[1] else -1
    tracing.wrap(PolicyServer, "offer", rec, "serve.offer",
                 request=first_index)
    tracing.wrap(PolicyServer, "offer_batch", rec, "serve.offer",
                 request=first_index)
    tracing.wrap(fleet.ShardWorker, "serve_batch", rec,
                 "serve.fleet.shard.serve_batch")
    for module in (server, mixture):
        tracing.wrap(module, "sanitize_features", rec, "serve.sanitize")
    tracing.wrap(journal.ServeStateStore, "commit", rec,
                 "serve.journal.commit")
    tracing.wrap(journal.ServeStateStore, "snapshot", rec,
                 "serve.journal.snapshot")
    sizes: Dict[str, int] = {}

    def journal_bytes(args, _result) -> None:
        path = args[0].path
        size = path.stat().st_size
        last = sizes.get(str(path), 0)
        # The journal only grows between snapshots, which empty it.
        rec.count("serve.journal.bytes", size - last if size >= last
                  else size)
        sizes[str(path)] = size

    tracing.wrap(journal.SelectorJournal, "append", rec,
                 "serve.journal.append", after=journal_bytes)
    tracing.wrap(journal.SnapshotStore, "save", rec, "serve.journal.save",
                 after=lambda args, path: rec.count(
                     "serve.journal.bytes", path.stat().st_size))
    tracing.wrap(training, "default_experts", rec, "core.training.load")
    _wrap_core(rec)


def _wrap_fleet(rec: Recorder) -> None:
    from repro.exec import shm
    from repro.serve import fleet

    tracing.wrap(fleet.PolicyFleet, "submit", rec, "serve.fleet.submit",
                 request=lambda args: args[1].index)
    for name in ("encode_requests", "decode_decisions"):
        tracing.wrap(fleet, name, rec, "serve.fleet.codec")

    def ring_write(_args, nbytes) -> None:
        rec.count("exec.shm.ring.writes")
        rec.count("exec.shm.ring.bytes", nbytes)

    tracing.wrap(shm.ShmRing, "write", rec, "exec.shm.ring.write",
                 after=ring_write)
    tracing.wrap(shm.ShmRing, "read", rec, "exec.shm.ring.read")
    _wrap_serve(rec)


_INSTALLERS = {"fig08": _wrap_fig08, "serve": _wrap_serve,
               "fleet": _wrap_fleet}


def install(kind: str) -> Recorder:
    """Wrap the functions ``kind``'s workload exercises; children
    forked from here on spool their aggregates next to the traces."""
    spool = harness.scratch_dir("spool")
    recorder = Recorder(spool=spool)
    _INSTALLERS[kind](recorder)
    return recorder


def uninstall(recorder: Recorder) -> None:
    tracing.unwrap_all()
    recorder.merge_spool()


def save(recorder: Recorder, workload: str) -> None:
    recorder.write(harness.TRACES / f"{workload}.npz")


def _zeros() -> Dict[str, float]:
    return {name: 0.0 for name in harness.declared_metrics("per_layer")}


def _common(rec: Recorder, untraced_wall: float,
            traced_wall: float) -> Dict[str, float]:
    metrics = _zeros()
    for policy in POLICY_NAMES:
        name = f"core.policy.select.{policy}"
        metrics[f"{name}.calls"] = rec.calls(name)
        metrics[f"{name}.busy_s"] = rec.busy(name)
    metrics.update({
        "core.mixture.select.busy_s": rec.busy("core.policy.select.mixture"),
        "core.selector.update.busy_s": rec.busy("core.selector.update"),
        "trace.wall_untraced_s": untraced_wall,
        "trace.wall_traced_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.blocking_gap_s": traced_wall - rec.self_total(),
    })
    return metrics


def fig08_metrics(rec: Recorder, result: dict, untraced_wall: float,
                  load_s: float) -> Dict[str, float]:
    metrics = _common(rec, untraced_wall, result["raw_wall"])
    stats = result["stats"]
    decisions = sum(rec.calls(f"core.policy.select.{p}")
                    for p in POLICY_NAMES)
    metrics.update({
        "runtime.engine.run.self_s": rec.own("runtime.engine.run"),
        "runtime.kernels.calls": rec.calls("runtime.kernels"),
        "runtime.kernels.busy_s": rec.busy("runtime.kernels"),
        "sched.allocate.calls": rec.calls("sched.allocate"),
        "sched.allocate.busy_s": rec.busy("sched.allocate"),
        "sched.sampler.calls": rec.calls("sched.sampler"),
        "sched.sampler.busy_s": rec.busy("sched.sampler"),
        "core.expert.calls_per_decision":
            rec.calls("core.expert") / max(decisions, 1),
        "core.training.load_s": load_s,
        "exec.execute_request.busy_s": rec.busy("exec.execute_request"),
        "exec.runs_executed": stats["executed"],
        "exec.cache_hits": stats["cache_hits"],
        "exec.pickled_bytes": stats["pickled_bytes"],
        "exec.shm_bytes": stats["shm_bytes"],
        "exec.serialize_s": stats["serialize_seconds"],
        "exec.parent_cpu_s": result["parent_cpu"],
        "exec.worker_cpu_s": result["worker_cpu"],
    })
    return metrics


def serve_metrics(rec: Recorder, report, untraced_wall: float,
                  traced_wall: float, answered: int, load_s: float,
                  decision_log: int, kb_per_kreq: float) -> Dict[str, float]:
    """Per-layer metrics of the journaled server (``report`` is its
    :class:`ServeReport`)."""
    metrics = _common(rec, untraced_wall, traced_wall)
    metrics.update(_serving(rec, report, answered, load_s))
    metrics.update({
        "serve.decision_log.len": decision_log,
        "serve.traced_kb_per_kreq": kb_per_kreq,
    })
    return metrics


def _serving(rec: Recorder, report, answered: int,
             load_s: float) -> Dict[str, float]:
    metrics = {
        "core.expert.calls_per_decision":
            rec.calls("core.expert") / max(answered, 1),
        "core.training.load_s": load_s,
        "serve.offer.self_s": rec.own("serve.offer"),
        "serve.sanitize.busy_s": rec.busy("serve.sanitize"),
        "serve.journal.commit.calls": rec.calls("serve.journal.commit"),
        "serve.journal.commit.busy_s": rec.busy("serve.journal.commit"),
        "serve.journal.snapshot.calls": rec.calls("serve.journal.snapshot"),
        "serve.journal.snapshot.busy_s":
            rec.busy("serve.journal.snapshot"),
        "serve.journal.bytes": rec.counters.get("serve.journal.bytes", 0.0),
        "serve.breaker.trips": report.trips,
        "serve.breaker.recoveries": report.recoveries,
    }
    for tier in TIERS:
        metrics[f"serve.tier.{tier}.decisions"] = \
            report.tier_decisions.get(tier, 0)
    return metrics


def fleet_metrics(rec: Recorder, report, untraced_wall: float,
                  result: dict, load_s: float) -> Dict[str, float]:
    """Per-layer metrics of the one-shard fleet (``report`` is its
    :class:`FleetReport`; the shard's spans arrive through the spool)."""
    from repro.serve import merge_serve_reports

    metrics = _common(rec, untraced_wall, result["raw_wall"])
    merged = merge_serve_reports(report.per_shard)
    metrics.update(_serving(rec, merged, report.answered, load_s))
    metrics.update({
        "serve.fleet.submit.busy_s": rec.busy("serve.fleet.submit"),
        "serve.fleet.codec.busy_s": rec.busy("serve.fleet.codec"),
        "serve.fleet.batch_size.mean": report.batch_sizes.get("mean", 0.0),
        "serve.fleet.parent_cpu_s": result["parent_cpu"],
        "serve.fleet.shard_cpu_s": result["shard_cpu"],
        "serve.fleet.parent_wait_s":
            result["raw_wall"] - result["parent_cpu"],
        "serve.fleet.shard_decide_p50_us":
            report.latency_quantile(50.0) * 1e6,
        "exec.shm.ring.writes": rec.counters.get("exec.shm.ring.writes", 0),
        "exec.shm.ring.bytes": rec.counters.get("exec.shm.ring.bytes", 0),
    })
    return metrics
