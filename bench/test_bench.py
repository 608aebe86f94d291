"""Tests of the benchmark itself: corpus depth, checker, spans, contract.

Run with ``python3 -m pytest bench -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from btfas import c4free_fas  # noqa: E402


def test_c4free_deep_corpus_reaches_the_deep_branches(tmp_path):
    """The workload must not go shallow the way random_c4free does."""
    traces = []
    for request in workloads.c4free_deep_pass(1, 0, str(tmp_path)):
        out = request.call()
        assert request.check(out).reason is None
        traces.extend(out.trace)
    assert max(t.depth for t in traces) >= 2
    assert any(t.mode == "reversed" for t in traces)
    assert any(t.center.side == "Y" for t in traces)


def test_c4free_deep_instances_are_cyclic_and_4cycle_free():
    low, high = workloads.C4FREE_SIDE_RANGE
    for seed in range(5):
        m, n, arcs = workloads.c4free_deep_instance(seed)
        assert low <= m <= high and low <= n <= high
        assert not checker.acyclic(m + n, arcs)
        assert c4free_fas.find_4cycle(workloads.to_graph(m, n, arcs)) is None


def test_same_seed_same_c4free_instance():
    assert workloads.c4free_deep_instance(7) == workloads.c4free_deep_instance(7)
    assert workloads.c4free_deep_instance(7) != workloads.c4free_deep_instance(8)


def test_checker_on_a_six_cycle():
    # x0 -> y0 -> x1 -> y1 -> x2 -> y2 -> x0 with m = 3: y_j is 3 + j.
    arcs = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
    assert checker.check_fas(6, arcs, [(5, 0)], 1) is None
    assert checker.check_fas(6, arcs, [], 9) == "deleting the arcs leaves a cycle"
    assert checker.check_fas(6, arcs, [(5, 0), (5, 0)], 9) is not None
    assert checker.check_fas(6, arcs, [(0, 5)], 9) is not None
    assert checker.check_fas(6, arcs, [(5, 0), (0, 3)], 1) is not None


def test_checker_on_packings():
    # Two arc-disjoint 4-cycles on x0, x1 (m = 2) and y0..y3 (ids 2..5).
    arcs = [(0, 2), (2, 1), (1, 3), (3, 0), (0, 4), (4, 1), (1, 5), (5, 0)]
    assert checker.check_packing(2, arcs, [[0, 2, 1, 3], [0, 4, 1, 5]]) is None
    assert checker.check_packing(2, arcs, [[0, 2, 1, 3], [1, 3, 0, 2]]) == "two cycles share an arc"
    assert checker.check_packing(2, arcs, [[0, 2, 1, 4]]) is not None
    assert checker.check_packing(2, arcs, [[0, 1, 2, 3]]) is not None


def test_cli_large_requests_pass_their_checks(tmp_path):
    requests = workloads.cli_large_pass(1, 0, str(tmp_path))[:3]
    outs = [r.call() for r in requests]
    assert [code for code, _ in outs] == [0, 0, 2]
    assert all(r.check(o).reason is None for r, o in zip(requests, outs))


def test_span_self_times_add_up(tmp_path):
    request = workloads.solve_fas_pass(2, 0, str(tmp_path))[0]
    digraph = workloads.BipartiteDigraph
    originals = (workloads.fas_engine.greedy_pack, digraph.delete_arcs)
    recorder = spans.SpanRecorder()
    with recorder.recording(0):
        out = request.call()
    assert (workloads.fas_engine.greedy_pack, digraph.delete_arcs) == originals
    assert request.check(out).reason is None
    summary = recorder.summary()
    roots = [i for i, p in enumerate(recorder.parents) if p < 0]
    assert [recorder.names[i] for i in roots] == ["fas_engine.solve"]
    root_time = recorder.ends[roots[0]] - recorder.starts[roots[0]]
    self_total = sum(e["self"] for k, e in summary.items() if "@" not in k)
    assert self_total == pytest.approx(root_time, rel=1e-9)
    cycles = len(out.packing.cycles)
    assert summary["c4free_fas.find_4cycle@greedy_pack"]["calls"] == cycles + 1
    assert summary["c4free_fas.find_4cycle@fas_c4free"]["calls"] == 1
    assert recorder.counts["cycle_packing.cycles"] == cycles


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    assert [m["name"] for m in config["per_layer"]] == list(spans.PER_LAYER) + ["trace_overhead"]
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-fas", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
