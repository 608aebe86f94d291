"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every check is exact (integer comparisons) and carries a wall-clock
budget asserted at the end of the test.
"""

import json
import pathlib
import random
import subprocess
import sys
import time

from btfas import (
    Arc,
    FasOutcome,
    GenSpec,
    enumerate_bt,
    fas_c4free,
    min_fas_exact,
    random_bt,
    random_c4free,
    solve,
    xv,
    yv,
)
from btfas.c4free_fas import find_4cycle
from btfas.cli import run
from btfas.fas_engine import backward_arcs
from btfas.oracles import check_c4free, check_census, check_dichotomy, check_oracles

from helpers import four_cycle_bt, one_packed_cycle, random_digraph, reverse_arcs, six_cycle

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _finish(name: str, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS {name}: {detail} in {elapsed:.2f}s")


def test_criterion_1_c4free_bound():
    started = time.perf_counter()
    graphs = [random_c4free(GenSpec(2 + i % 7, 2 + (i // 7) % 7, seed=i)) for i in range(500)]
    graphs += [g for g in enumerate_bt(3, 3) if find_4cycle(g) is None]
    for g in graphs:
        assert check_c4free(g) is None
    _finish("criterion-1 c4free-bound", f"{len(graphs)} instances", started, 10.0)


def test_criterion_2_dichotomy():
    started = time.perf_counter()
    tournaments = list(enumerate_bt(3, 3))
    tournaments += [
        random_bt(GenSpec(4 + i % 3, 4 + (i // 3) % 3, seed=1000 + i)) for i in range(200)
    ]
    for g in tournaments:
        for k in range(6):
            assert check_dichotomy(g, k) is None
    _finish("criterion-2 dichotomy", f"{6 * len(tournaments)} (instance, k) pairs", started, 30.0)


def test_criterion_3_exact_oracle_inequality():
    started = time.perf_counter()
    graphs = list(enumerate_bt(3, 3)) + list(enumerate_bt(2, 3))
    assert len(graphs) == 512 + 64
    for g in graphs:
        assert check_oracles(g) is None
    _finish("criterion-3 exact-oracle-inequality", f"{len(graphs)} tournaments", started, 60.0)


def test_criterion_4_census_identities():
    started = time.perf_counter()
    instances = []
    for g in enumerate_bt(2, 2):
        arcs = g.arcs()
        instances.append(g)
        for a in arcs:
            instances.append(g.delete_arcs([a]))
        for i, a in enumerate(arcs):
            for b in arcs[i + 1 :]:
                instances.append(g.delete_arcs([a, b]))
    rng = random.Random(424242)
    for i in range(200):
        instances.append(random_digraph(rng, 1 + i % 7, 1 + (i // 7) % 7))
    for g in instances:
        assert check_census(g) is None
    _finish("criterion-4 census-identities", f"{len(instances)} instances", started, 30.0)


def test_criterion_5_hand_traced_goldens(capsys):
    started = time.perf_counter()
    six = six_cycle()
    cert = fas_c4free(six)
    assert cert.fas == frozenset({Arc(xv(1), yv(1))})
    assert cert.bound == six.absent_pair_count() == 3
    assert min_fas_exact(six).value == 1

    outcome = solve(four_cycle_bt(), 2)
    assert isinstance(outcome, FasOutcome)
    assert len(outcome.fas) == 2
    assert outcome.order == (xv(0), xv(1), yv(0), yv(1))

    assert run(["fas-c4free", str(GOLDEN / "six_cycle.bt")]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "six_cycle_fas.json").read_text(encoding="utf-8")
    assert run(["solve", str(GOLDEN / "c4_bt.bt"), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "c4_bt_solve_k2.json").read_text(encoding="utf-8")
    with capsys.disabled():
        _finish("criterion-5 goldens", "2 library traces, 2 byte-stable CLI files", started, 1.0)


def test_criterion_6_backward_arc_range():
    started = time.perf_counter()
    rng = random.Random(606060)
    for _ in range(1000):
        tournament, residual, order = one_packed_cycle(rng, rng.randint(2, 7), rng.randint(2, 7))
        assert len(backward_arcs(tournament, residual, order)) in (1, 2, 3)
    _finish("criterion-6 backward-arc-range", "1000 (order, cycle) pairs", started, 1.0)


def test_criterion_7_duality_and_determinism(tmp_path):
    started = time.perf_counter()
    rng = random.Random(707070)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(1, 6), rng.randint(1, 6))
        subset = [a for a in g.arcs() if rng.random() < 0.5]
        assert g.is_feedback_arc_set(subset) == g.reverse().is_feedback_arc_set(
            reverse_arcs(subset)
        )

    gen_cmd = [sys.executable, "-m", "btfas", "gen", "--m", "5", "--n", "5", "--seed", "99"]
    first = subprocess.run(gen_cmd, capture_output=True, check=True)
    second = subprocess.run(gen_cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout and first.stdout

    instance = tmp_path / "det.bt"
    instance.write_bytes(first.stdout)
    solve_cmd = [sys.executable, "-m", "btfas", "solve", str(instance), "--k", "3"]
    runs = [subprocess.run(solve_cmd, capture_output=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)  # well-formed
    _finish("criterion-7 duality-and-determinism", "200 pairs, 2x2 process runs", started, 5.0)
