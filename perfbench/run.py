"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
interpreter with every ``REPRO_*`` knob cleared, BLAS/OpenMP threads
pinned to 1, ``PYTHONHASHSEED`` fixed and a benchmark-owned expert
cache, filled once by an untimed prepare step.  The last line of
standard output is the result object; with ``--trace 0`` it carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  A run whose checks fail prints ``"correct": false``; a run that
cannot run at all prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CACHE = STATE / "cache"
MARKER = CACHE / "prepared.json"

WORKLOADS = ("fig08-serial", "fig08-pool", "serve-journaled",
             "fleet-1shard")
#: A workload run must end within this, under the 180 s a run may take.
CHILD_TIMEOUT_S = 170
#: Cold expert training takes ~30 s on a 2-core host.
PREPARE_TIMEOUT_S = 850
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{HERE}"
    env["REPRO_CACHE_DIR"] = str(CACHE)
    return env


def source_digest() -> str:
    """Digest of the program's sources: a change re-runs prepare."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prepare() -> None:
    """Train (or load) the experts into the benchmark's cache, untimed."""
    digest = source_digest()
    try:
        if json.loads(MARKER.read_text()).get("sources") == digest:
            return
    except (OSError, ValueError):
        pass
    CACHE.mkdir(parents=True, exist_ok=True)
    code = ("from repro.experiments.runner import standard_policies; "
            "standard_policies()")
    subprocess.run([sys.executable, "-c", code], env=pinned_env(),
                   cwd=ROOT, check=True, timeout=PREPARE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    MARKER.write_text(json.dumps({"sources": digest}))


def launch(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, env=pinned_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(workload: str, result: dict) -> None:
    host = result.pop("host")
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if "raw_wall_s" in result:
        print(f"  {'unadjusted wall_s':40s} "
              f"{result.pop('raw_wall_s'):>16.6g} s")


def child(args) -> None:
    """The workload itself (``--child``), in the pinned interpreter."""
    import harness

    harness.STATE.mkdir(exist_ok=True)
    try:
        if args.workload.startswith("fig08-"):
            import work_fig08

            jobs = 2 if args.workload == "fig08-pool" else 1
            outcome = work_fig08.run(jobs, args.seed, args.seconds,
                                     bool(args.trace))
        elif args.workload == "serve-journaled":
            import work_serve

            outcome = work_serve.run(args.seed, args.seconds,
                                     bool(args.trace))
        else:
            import work_fleet

            outcome = work_fleet.run(args.seed, args.seconds,
                                     bool(args.trace))
    finally:
        harness.drop_scratch()
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    line = harness.result_line(
        outcome, "per_layer" if args.trace else "end_to_end")
    line["host"] = harness.host_fingerprint()
    if outcome.raw_wall_s is not None:
        line["raw_wall_s"] = outcome.raw_wall_s
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.child:
        if args.workload == "all":
            parser.error("--child runs one workload")
        child(args)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        prepare()
        results = {name: launch(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except (subprocess.SubprocessError, OSError, ValueError,
            IndexError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for name, result in results.items():
        describe(name, result)
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
