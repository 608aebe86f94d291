"""The solve ladder: a 24x24 rung measured against the same tree, and the two ways a rung is skipped."""

import argparse
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
SPEC = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ladder)



def test_a_small_rung_times_every_stage_on_both_trees(tmp_path):
    out = tmp_path / "ladder.json"
    argv = ["--sizes", "24", "--rounds", "2", "--repeats", "2", "--against", str(ROOT), "--out", str(out)]
    assert ladder.main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["commits"]) == {"change", "against"} and doc["rounds"] == 2
    (rung,) = doc["rungs"]
    assert (rung["n"], rung["status"], rung["k"]) == (24, "measured", 105)  # greedy packs 104 cycles
    for tree in rung["trees"].values():
        stages = [tree[f"{stage}_ms"] for stage in ladder.STAGES]
        assert all(ms > 0 for ms in stages) and sum(stages) <= tree["solve_ms"]
        for nested in ladder.NESTED:  # inside fas_c4free, outside the sum
            assert 0 < tree[f"{nested}_ms"] <= tree["fas_c4free_ms"]
        assert tree["samples"] == 4 and tree["peak_rss_mb"] > 0
    assert set(rung["ratio"]) == set(ladder.TIMED)
    assert ladder.NESTED == ("precheck", "trim", "topological_order")


def test_a_rung_over_its_cap_is_skipped_with_the_cap_and_so_is_every_larger_one(tmp_path):
    out = tmp_path / "ladder.json"
    assert ladder.main(["--sizes", "24", "48", "--rounds", "1", "--cap", "0.001", "--out", str(out)]) == 0
    rungs = json.loads(out.read_text(encoding="utf-8"))["rungs"]
    assert rungs == [{"n": 24, "status": "skipped", "cap_s": 0.001}, {"n": 48, "status": "skipped", "cap_s": 0.001}]


def test_a_rung_predicted_past_half_the_memory_is_skipped_with_the_prediction(monkeypatch):
    """The peak of the rung below, scaled by the pair count, decides; no worker runs for the skipped rung."""
    half_mb = ladder.os.sysconf("SC_PAGE_SIZE") * ladder.os.sysconf("SC_PHYS_PAGES") / 2**21
    started = []

    def worker(tree, n, seed, k, repeats, cap):
        started.append(n)
        ms = {stage: [1.0] for stage in ladder.TIMED}
        return {"k": 3, "ms": ms, "gen2_collections": [0], "peak_rss_mb": half_mb / 3}

    monkeypatch.setattr(ladder, "_worker", worker)
    args = argparse.Namespace(sizes=[10, 20, 40], rounds=1, repeats=1, seed=1, cap=1.0)
    rungs = ladder.ladder({"change": ROOT}, args)
    assert started == [10]
    assert [rung["status"] for rung in rungs] == ["measured", "skipped", "skipped"]
    assert rungs[1]["predicted_peak_rss_mb"] == round(4 * half_mb / 3) and rungs[2] == {**rungs[1], "n": 40}
