"""Benchmark of btfas: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload solve-fas --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload
    python3 bench/run.py --workload cli-large --seed 1 --trace 1

Each workload runs in a fresh worker process (``worker.py``).  Set-up time
is the median over several fresh processes, each timed from its start to
its first timed request.  The report names every metric with its unit and
sample count; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of each
result, with commit, Python version, core count and seed, goes to
``bench/results/``.  Exits 2 without a result when ``src/btfas`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CONFIG = os.path.join(ROOT, "BENCHMARK.json")

# Fresh processes timed for set-up per untraced run, the measuring one included.
SETUP_RUNS = 5
# A worker still running after this many seconds is killed.
WORKER_TIMEOUT = 150.0


class BenchError(Exception):
    pass


def _commit() -> str:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> tuple[float, dict]:
    """Run one worker; returns its raw set-up seconds and its result document."""
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    return setup, json.loads(lines[-1])


def run_workload(config: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's result: counts, metrics with units and sample counts."""
    setups = []  # (raw seconds, calibration scale) per fresh process
    for _ in range(0 if trace else SETUP_RUNS - 1):
        setup, doc = _spawn(workload, seed, seconds, trace, setup_only=True)
        setups.append((setup, doc["setup_scale"]))
    setup, doc = _spawn(workload, seed, seconds, trace, setup_only=False)
    setups.append((setup, doc["setup_scale"]))

    values = dict(doc["metrics"])
    raw = doc.get("raw", {})
    samples = doc["samples"]
    if not trace:
        values["setup_s"] = statistics.median(s * scale for s, scale in setups)
        raw["setup_s"] = statistics.median(s for s, _ in setups)
        samples["setup_s"] = len(setups)
    declared = config["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"], "samples": samples[m["name"]]}
        for m in declared
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failure_reasons": doc["reasons"],
        "setup_samples_s": [s for s, _ in setups],
        "raw_wall_clock": raw,
        "module_self_share": doc.get("module_self_share"),
        "spans": doc.get("spans"),
        "metrics": metrics,
    }


# The certificate ratio under the names the workloads' own reference sizes give it.
RATIO_NAMES = {
    "solve-fas": "fas_per_cycle = sum |fas| / sum |packing|",
    "c4free-deep": "fas_per_lambda = sum |fas| / sum lambda",
    "cli-large": "cycles returned / cycles requested",
}


def report(result: dict) -> None:
    w = result["workload"]
    print(
        f"bench {w}: seed {result['seed']}, {result['seconds']:g} s, trace {result['trace']}, "
        f"commit {result['commit'][:12]}, Python {result['python']}, nproc {result['nproc']}"
    )
    raw = result["raw_wall_clock"]
    for name, m in result["metrics"].items():
        note = f"  (raw wall clock {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':44s} {failed / attempted:14.6g} {'ratio':6s} n={attempted} ({failed} failed)")
    if not result["trace"]:
        print(f"  cert_ratio on {w}: {RATIO_NAMES[w]}")
    for reason in result["failure_reasons"]:
        print(f"  failure: {reason}")
    if result["module_self_share"]:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["module_self_share"].items())
        print(f"  self-time share of traced request time: {shares}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "btfas", "__init__.py")):
        print(f"bench: no src/btfas under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    with open(CONFIG, encoding="utf-8") as handle:
        config = json.load(handle)
    names = [w["name"] for w in config["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"bench: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]

    results = []
    try:
        for workload in chosen:
            results.append(run_workload(config, workload, args.seed, seconds, args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    for result in results:
        report(result)
        path = os.path.join(
            results_dir, f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)

    # With several workloads, metric names carry the workload as a prefix.
    metrics = {
        (f"{r['workload']}." if len(results) > 1 else "") + name: {"value": m["value"], "unit": m["unit"]}
        for r in results
        for name, m in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
