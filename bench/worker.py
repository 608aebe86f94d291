"""One run of one workload in a fresh, single-threaded process.

Started by ``run.py``; not meant to be run by hand.  The worker writes
``ready`` on standard output right before its first timed request, so the
parent can time set-up from process start.  It then runs a closed loop with
one caller: passes of distinct seeded requests, each timed alone, each
output checked outside the timed region.  After the first whole pass that
ends at least ``--seconds`` after the first request (and, untraced, with at
least ``MIN_REQUESTS`` requests done) it prints one JSON line of results.

Timings are scaled to a reference machine speed.  Shared machines switch
between speed states that differ by tens of percent within seconds, so a
fixed pure-Python calibration routine is timed right before and right after
every request, and the request's wall time is multiplied by
``CAL_REF_S / calibration time``.  Set-up time is scaled the same way.  The
raw wall-clock figures are reported next to the scaled ones.

With ``--trace 1`` every request runs twice, untraced and traced, in
alternating order; the traced runs record spans and give the per-layer
metrics (raw wall time), the pair gives ``trace_overhead``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Verdict  # noqa: E402

MAX_REASONS = 5

# The calibration routine: Kahn's algorithm over a fixed 600-vertex DAG.
# It shares no code with the program, so a change to the program cannot
# move it.  A scaled time is the time a request would take on a machine
# where one calibration takes CAL_REF_S.
CAL_VERTICES = 600
CAL_SKIPS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
CAL_REF_S = 0.001


class Calibration:
    def __init__(self) -> None:
        self.arcs = [
            (u, u + d) for u in range(CAL_VERTICES) for d in CAL_SKIPS if u + d < CAL_VERTICES
        ]

    def __call__(self) -> float:
        t0 = perf_counter()
        checker.acyclic(CAL_VERTICES, self.arcs)
        return perf_counter() - t0

    def median(self, times: int) -> float:
        return statistics.median(self() for _ in range(times))


def _timed(call):
    t0 = perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failing request is counted, not fatal
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, None


def _verdict(request, out, error) -> Verdict:
    if error is not None:
        return Verdict(error)
    try:
        return request.check(out)
    except Exception as exc:  # malformed output counts as a failure
        return Verdict(f"check raised {type(exc).__name__}: {exc}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    make_pass = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        recorder = spans.SpanRecorder() if args.trace else None

        def generate(index: int):
            if recorder is None:
                return make_pass(args.seed, index, workdir)
            with recorder.recording(-1):
                return make_pass(args.seed, index, workdir)

        requests = generate(0)
        gc.collect()
        protocol.write("ready\n")
        protocol.flush()
        calibration = Calibration()
        result = {"setup_scale": CAL_REF_S / calibration.median(5)}
        if not args.setup_only:
            result.update(_measure(args, requests, generate, recorder, calibration))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


def _measure(args, requests, generate, recorder, calibration) -> dict:
    min_requests = 1 if recorder else workloads.MIN_REQUESTS
    latencies: list[float] = []
    scaled: list[float] = []
    reasons: list[str] = []
    attempted = failed = correct = 0
    cert = ref = ratio_requests = 0
    plain_wall = traced_wall = 0.0
    index = 0
    start = perf_counter()
    while True:
        for request in requests:
            verdicts = []
            if recorder is None:
                before = calibration()
                seconds, out, error = _timed(request.call)
                after = calibration()
                latencies.append(seconds)
                scaled.append(seconds * CAL_REF_S * 2 / (before + after))
                verdicts.append(_verdict(request, out, error))
            else:
                # Alternate which run goes first, so warm caches favor neither.
                for traced in (attempted % 2 == 1, attempted % 2 == 0):
                    if traced:
                        with recorder.recording(attempted):
                            seconds, out, error = _timed(request.call)
                        traced_wall += seconds
                    else:
                        seconds, out, error = _timed(request.call)
                        plain_wall += seconds
                    verdicts.append(_verdict(request, out, error))
            attempted += 1
            bad = [v.reason for v in verdicts if v.reason is not None]
            if bad:
                failed += 1
                if len(reasons) < MAX_REASONS:
                    reasons.append(bad[0])
            else:
                correct += 1
                if attempted <= workloads.MIN_REQUESTS:
                    # A fixed prefix of the corpus, so the ratio does not
                    # depend on how many requests a run gets through.
                    ratio_requests += 1
                    cert += verdicts[0].cert
                    ref += verdicts[0].ref
        if perf_counter() - start >= args.seconds and attempted >= min_requests:
            break
        index += 1
        requests = generate(index)
        gc.collect()

    result = {"attempted": attempted, "failed": failed, "reasons": reasons}
    if recorder is not None:
        summary = recorder.summary()
        metrics = spans.layer_metrics(summary, recorder, attempted)
        metrics["trace_overhead"] = traced_wall / plain_wall
        result["metrics"] = metrics
        result["samples"] = {name: attempted for name in metrics}
        result["module_self_share"] = spans.module_self_share(
            recorder.summary(requests_only=True), traced_wall
        )
        result["spans"] = len(recorder.names)
        results_dir = os.path.join(BENCH_DIR, "results")
        os.makedirs(results_dir, exist_ok=True)
        recorder.write(os.path.join(results_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        return result

    result["metrics"] = {
        **_timing(scaled, correct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cert_ratio": cert / ref if ref else 0.0,
    }
    result["samples"] = {name: attempted for name in result["metrics"]}
    result["samples"].update(peak_rss_mb=1, cert_ratio=ratio_requests)
    result["raw"] = _timing(latencies, correct)
    return result


def _timing(latencies: list[float], correct: int) -> dict:
    return {
        "certs_per_s": correct / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
