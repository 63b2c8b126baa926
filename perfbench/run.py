"""Benchmark for paritykit: one client, closed loop, three workloads.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from the root of a paritykit checkout; the library is imported from
its `src/`.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run.  Without `--workload`, all workloads
run one after another in this process.  The last line of the output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A result
file (and, when traced, the spans) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("check", "cells", "cli")
#: String hash seed of every run and of the CLI processes it starts.  Set
#: and dict order follow it, and with them the time of the same request
#: (by up to a half for some cell enumerations), so runs fix it to compare.
HASH_SEED = "0"


def environment() -> dict:
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "src_lines": lines,
    }


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024  # Linux reports kilobytes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness
    from spans import Tracer

    workload = __import__(f"workload_{name}")
    if trace:
        tracer = Tracer()
        result = harness.measure_traced(workload, seed, seconds, tracer)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{name}-seed{seed}.spans.jsonl")
    else:
        result = harness.measure(workload, seed, seconds)
        result["metrics"]["peak_rss_mb"] = (peak_rss_mb(children=name == "cli"), "MB")
    outcome = result.pop("outcome")
    correct = outcome.failed == 0 and result.pop("consistent_counts", True)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted,
        "digest": outcome.digest(),
        **result,
    }


def report(result: dict, env: dict) -> None:
    """Human-readable lines, then the result file."""
    print(f"workload {result['workload']}: seed {result['seed']}, trace {result['trace']}, "
          f"one client, closed loop")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    print(f"  requests per pass: {result['pass_requests']} {json.dumps(result['request_kinds'])}; "
          f"{result['passes']} full and {result.get('light_passes', 0)} light passes, "
          f"{result['timed_requests']} timed requests")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['error_rate']:.6f}")
    print(f"  output digest {result['digest']}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric} = {value:.6g} {unit}")
    if "unscaled_metrics" in result:
        calibration = result["calibration_ns"]
        print(f"  calibration loop: median {calibration['median'] / 1e6:.4f} ms over "
              f"{calibration['samples']} samples, reference {calibration['reference'] / 1e6:.4f} ms; unscaled:")
        for metric, (value, unit) in result["unscaled_metrics"].items():
            print(f"    {metric} = {value:.6g} {unit}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    payload = {**result, "environment": env,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in one process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "paritykit" / "__init__.py").is_file():
        print(f"error: no paritykit sources under {SRC}; run from a paritykit checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    env = environment()
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and every CLI process it starts, so that the
        # calibration loop times the CPU that the requests run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        report(result, env)
        results.append(result)

    def metrics(result, prefix=""):
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}

    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics(results[0]) if len(results) == 1 else {
            k: v for r in results for k, v in metrics(r, f"{r['workload']}.").items()
        },
    }
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
