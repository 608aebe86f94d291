import pathlib
import random

import pytest

from btfas import (
    Arc,
    BipartiteDigraph,
    FasOutcome,
    GenSpec,
    PackingOutcome,
    build,
    enumerate_bt,
    fas_c4free,
    greedy_pack,
    min_fas_exact,
    random_bt,
    solve,
    xv,
    yv,
)
from btfas.cli import parse_instance
from btfas.errors import NotATournament, OutOfRange, VertexNotInOrder
from btfas.fas_engine import backward_arcs
from btfas.graph_core import four_cycle

from helpers import all_x_to_y, backward_arcs_reference, four_cycle_bt, planted_bt, solve_reference

# A 16x16 tournament hill-climbed from planted_bt(3, 8): 1,500 seeded
# single-pair flips, each kept unless (max residual trace depth, reversed
# mode reached, Y center reached, trace nodes) went down.
DEEP_RESIDUAL = pathlib.Path(__file__).parent / "golden" / "deep_residual.bt"


def test_backward_arcs_hand_checked():
    cycle = four_cycle(0, 0, 1, 1)
    order = (xv(0), xv(1), yv(0), yv(1))
    assert backward_arcs(order, [cycle]) == {Arc(yv(0), xv(1)), Arc(yv(1), xv(0))}
    interleaved = (xv(0), yv(0), xv(1), yv(1))
    assert backward_arcs(interleaved, [cycle]) == {Arc(yv(1), xv(0))}


def test_backward_arcs_requires_all_vertices():
    with pytest.raises(VertexNotInOrder, match="cycle vertex y1 missing from the order"):
        backward_arcs((xv(0), yv(0), xv(1)), [four_cycle(0, 0, 1, 1)])


def test_backward_arcs_range_over_random_orders():
    rng = random.Random(8)
    for _ in range(300):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        xi, xk = rng.sample(range(m), 2)
        yj, yl = rng.sample(range(n), 2)
        cycle = four_cycle(min(xi, xk), yj, max(xi, xk), yl)
        order = [xv(i) for i in range(m)] + [yv(j) for j in range(n)]
        rng.shuffle(order)
        assert 1 <= len(backward_arcs(order, [cycle])) <= 3


def test_solve_packing_branch():
    out = solve(four_cycle_bt(), 1)
    assert isinstance(out, PackingOutcome)
    assert len(out.packing.cycles) == 1
    assert out.packing.validate(four_cycle_bt())


def test_solve_k0_is_vacuous():
    out = solve(four_cycle_bt(), 0)
    assert isinstance(out, PackingOutcome)
    assert out.packing.cycles == ()
    assert out.packing.residual == four_cycle_bt()


def test_solve_fas_branch_hand_traced():
    g = four_cycle_bt()
    out = solve(g, 2)
    assert isinstance(out, FasOutcome)
    assert len(out.packing.cycles) == 1
    assert out.residual_part == frozenset()
    assert out.order == (xv(0), xv(1), yv(0), yv(1))
    assert out.backward_part == {Arc(yv(0), xv(1)), Arc(yv(1), xv(0))}
    assert out.fas == out.backward_part
    assert out.bound == 7
    assert g.is_feedback_arc_set(out.fas)


def test_solve_acyclic_tournament():
    g = all_x_to_y(3, 3)
    out = solve(g, 1)
    assert isinstance(out, FasOutcome)
    assert out.fas == frozenset()
    assert out.bound == 0


def test_solve_rejects_incomplete_orientations():
    with pytest.raises(NotATournament):
        solve(build(2, 2, [(xv(0), yv(0))]), 1)
    with pytest.raises(OutOfRange):
        solve(four_cycle_bt(), -1)


def test_solve_is_total_on_empty_sides():
    for g in (build(0, 0), build(0, 3), build(4, 0)):
        out = solve(g, 2)
        assert isinstance(out, FasOutcome)
        assert out.fas == frozenset()
        assert out.order == tuple(g.vertices())


def _check_outcome(g, k, out):
    if isinstance(out, PackingOutcome):
        assert len(out.packing.cycles) >= k
        assert out.packing.validate(g)
    else:
        assert len(out.packing.cycles) <= k - 1
        assert len(out.residual_part) <= 4 * (k - 1)
        assert len(out.backward_part) <= 3 * len(out.packing.cycles)
        assert out.fas == out.residual_part | out.backward_part
        assert len(out.fas) <= 7 * (k - 1)
        assert g.is_feedback_arc_set(out.fas)


def test_dichotomy_on_exhaustive_2x2():
    for g in enumerate_bt(2, 2):
        for k in range(5):
            _check_outcome(g, k, solve(g, k))


def test_dichotomy_on_random_tournaments():
    for i in range(60):
        g = random_bt(GenSpec(3 + i % 4, 3 + (i // 4) % 4, seed=i))
        for k in range(5):
            _check_outcome(g, k, solve(g, k))


def test_order_makes_every_kept_arc_forward():
    for i in range(40):
        g = random_bt(GenSpec(4, 4, seed=7000 + i))
        out = solve(g, 3)
        if isinstance(out, FasOutcome):
            residual = out.packing.residual.delete_arcs(out.residual_part)
            pos = {v: idx for idx, v in enumerate(out.order)}
            assert all(pos[a.tail] < pos[a.head] for a in residual.arcs())


def test_exact_minimum_never_exceeds_the_guarantee():
    for g in enumerate_bt(2, 2):
        opt = min_fas_exact(g).value
        for k in range(4):
            out = solve(g, k)
            if isinstance(out, FasOutcome):
                assert opt <= len(out.fas) <= 7 * (k - 1)


def test_planted_tournaments_reach_the_residual_branch():
    nonempty = set()
    for blocks in (4, 6, 8, 16):
        for seed in range(10):
            g = planted_bt(seed, blocks)
            k = len(greedy_pack(g).cycles) + 1  # one more than greedy finds: the FAS branch
            out = solve(g, k)
            assert isinstance(out, FasOutcome)
            assert len(out.residual_part) <= 4 * (k - 1)
            assert len(out.backward_part) <= 3 * (k - 1)
            for cycle in out.packing.cycles:
                assert 1 <= len(out.backward_part & set(cycle.arcs())) <= 3
            if out.residual_part:
                nonempty.add((blocks, seed))
    assert {(4, 0), (4, 2), (6, 0), (6, 1), (8, 0), (8, 1), (16, 0), (16, 1)} <= nonempty, nonempty
    assert len(nonempty) >= 20, nonempty


def test_backward_arcs_matches_the_reference_on_random_orders():
    rng = random.Random(31)
    for _ in range(300):
        g = random_bt(GenSpec(rng.randint(2, 7), rng.randint(2, 7), seed=rng.randrange(10**6)))
        cycles = greedy_pack(g).cycles
        order = list(g.vertices())
        rng.shuffle(order)
        assert backward_arcs(order, cycles) == backward_arcs_reference(order, cycles)


def test_solve_matches_the_object_reference_on_exhaustive_small_tournaments():
    for g in list(enumerate_bt(2, 2)) + list(enumerate_bt(3, 3)):
        for k in range(5):
            assert solve(g, k) == solve_reference(g, k)


def test_solve_matches_the_object_reference_on_random_tournaments():
    for seed in range(200):
        g = random_bt(GenSpec(24, 24, seed=seed))
        k = 24 * 24 // 4 + 1
        assert solve(g, k) == solve_reference(g, k)
    for side in (64, 128):
        g = random_bt(GenSpec(side, side, seed=side))
        for k in (len(greedy_pack(g).cycles) + 1, 3):
            assert solve(g, k) == solve_reference(g, k)


def test_solve_matches_the_object_reference_on_planted_tournaments():
    nonempty = 0
    for blocks in (4, 6, 8, 16):
        for seed in range(40):
            g = planted_bt(seed, blocks)
            k = len(greedy_pack(g).cycles) + 1
            out = solve(g, k)
            assert out == solve_reference(g, k)
            nonempty += bool(out.residual_part)
    assert nonempty >= 100, nonempty


def test_solve_runs_the_deep_decomposition_branches():
    """Inside solve the residual's decomposition reaches depth 1, reversed mode and a Y center."""
    g = parse_instance(DEEP_RESIDUAL.read_text(encoding="utf-8"))
    k = len(greedy_pack(g).cycles) + 1
    assert k == 44
    out = solve(g, k)
    assert isinstance(out, FasOutcome)
    assert len(out.residual_part) == 2
    certificate = fas_c4free(out.packing.residual)
    assert certificate.fas == out.residual_part
    assert max(node.depth for node in certificate.trace) >= 1
    assert any(node.mode == "reversed" for node in certificate.trace)
    assert any(node.center.side == "Y" for node in certificate.trace)
    assert out == solve_reference(g, k)


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(BipartiteDigraph, name)

        def counting(self, *args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BipartiteDigraph, name, counting)
    return calls


def test_fas_branch_sorts_once_and_copies_at_most_three_times(monkeypatch):
    """One FAS-branch solve: the residual cut's sort is the only one, and no delete_arcs."""
    planted = planted_bt(0, 8)
    # Copies: the residual, the residual cut's check unless the cut is
    # empty, and the final check.
    cases = [
        (random_bt(GenSpec(24, 24, seed=5)), 24 * 24 // 4 + 1, 2),
        (planted, len(greedy_pack(planted).cycles) + 1, 3),
    ]
    for g, k, copies in cases:
        calls = _count_calls(monkeypatch, ("topological_order", "delete_arcs", "__post_init__"))
        out = solve(g, k)
        assert isinstance(out, FasOutcome)
        assert calls["topological_order"] == 1
        assert calls["__post_init__"] == copies  # every BipartiteDigraph construction
        assert calls["delete_arcs"] == 0
        monkeypatch.undo()
    assert out.residual_part  # the planted instance runs the residual branch
