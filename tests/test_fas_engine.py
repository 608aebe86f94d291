import random

import pytest

from btfas import (
    Arc,
    FasOutcome,
    GenSpec,
    PackingOutcome,
    backward_arcs,
    build,
    enumerate_bt,
    four_cycle,
    min_fas_exact,
    random_bt,
    solve,
    xv,
    yv,
)
from btfas.errors import NotATournament, OutOfRange, VertexNotInOrder

from helpers import all_x_to_y, four_cycle_bt


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
