import itertools
import random

import pytest

from btfas import (
    Arc,
    BipartiteDigraph,
    Packing,
    c4free_fas,
    enumerate_bt,
    fas_c4free,
    fas_engine,
    solve,
    xv,
    yv,
)
from btfas.certify import check_fas, check_fas_keys, check_packing
from btfas.errors import InternalInvariantError
from btfas.graph_core import ABSENT, FourCycle, four_cycle, pair_state
from btfas.oracles import all_4cycles, find_cycle_brute

from helpers import (
    PACKING_REASONS,
    all_oriented,
    candidate_packing,
    check_packing_reference,
    four_cycle_bt,
    random_digraph,
    six_cycle,
    topological_order_reference,
)


def without(graph: BipartiteDigraph, arcs) -> BipartiteDigraph:
    """The graph with the given arcs' pairs made absent, built without delete_arcs."""
    orient = bytearray(graph.orient)
    for a in arcs:
        x, y = (a.tail, a.head) if a.tail.side == "X" else (a.head, a.tail)
        orient[x.index * graph.n + y.index] = ABSENT
    return BipartiteDigraph(graph.m, graph.n, bytes(orient))


def check_by_keys(graph: BipartiteDigraph, arcs, bound=None, order=None):
    """check_fas_keys's (reason, size, order) on the arcs' pair_state keys."""
    arcs = list(arcs)
    keys = [pair_state(graph.m, graph.n, *arc) for arc in arcs]
    return check_fas_keys(graph, keys, lambda t: "%s>%s" % tuple(arcs[t]), bound, order)


def agrees_with_brute_force(graph: BipartiteDigraph, subset) -> None:
    rest = without(graph, subset)
    acyclic = find_cycle_brute(rest) is None
    order = topological_order_reference(rest).order
    size = len(set(subset))
    pairs = [tuple(a) for a in subset]
    # The certifying order is the sort of the graph minus the arcs, or None.
    assert check_by_keys(graph, pairs) == (check_fas(graph, subset), size, order)
    for arcs in (subset, pairs):
        assert (check_fas(graph, arcs) is None) == acyclic
        if acyclic:
            assert check_by_keys(graph, arcs, order=order) == (None, size, order)
            assert check_fas(graph, arcs, bound=size) is None
            if subset:
                assert check_fas(graph, arcs, bound=size - 1) == f"{size} arcs exceed the bound {size - 1}"
        else:
            any_order = tuple(graph.vertices())
            assert check_fas(graph, arcs, order=any_order) == "deleting the arcs leaves a cycle"


def test_check_fas_matches_brute_force_on_every_2x2_subset():
    graphs = 0
    for graph in all_oriented(2, 2):
        graphs += 1
        arcs = graph.arcs()
        for r in range(len(arcs) + 1):
            for subset in itertools.combinations(arcs, r):
                agrees_with_brute_force(graph, list(subset))
    assert graphs == 81


def test_check_fas_matches_brute_force_on_random_3x3_subsets():
    rng = random.Random(4)
    tournaments = list(enumerate_bt(3, 3))
    for _ in range(1500):
        graph = rng.choice(tournaments)
        subset = [a for a in graph.arcs() if rng.random() < 0.3]
        subset += rng.sample(subset, min(2, len(subset)))  # repeats count once
        agrees_with_brute_force(graph, subset)


def test_check_fas_reasons_for_foreign_arcs():
    g = four_cycle_bt()  # x0>y0, y0>x1, x1>y1, y1>x0
    order = (xv(0), xv(1), yv(0), yv(1))
    # y1>y0 would name the present y1>x0 if only its indices were read.
    for foreign in (Arc(yv(0), xv(0)), (xv(0), xv(1)), (yv(1), yv(0)), (xv(9), yv(0)), (yv(0), yv(-1))):
        tail, head = foreign
        reason = f"arc {tail}>{head} is not in the instance"
        assert check_fas(g, [Arc(yv(1), xv(0)), foreign, (xv(5), yv(5))]) == reason
        assert check_fas(g, [Arc(yv(1), xv(0)), foreign], order=order) == reason
        assert check_fas(g, [foreign], order=order[1:]) == reason  # a foreign arc outranks a bad order
        assert check_by_keys(g, [(yv(1), xv(0)), foreign]) == (reason, 0, None)
    assert check_fas(g, [(yv(1), xv(0)), (yv(1), xv(0))], bound=1) is None


def test_check_packing_accepts_exactly_the_arc_disjoint_pairs():
    pairs = 0
    for graph in enumerate_bt(3, 3):
        cycles = all_4cycles(graph)
        for c1, c2 in itertools.product(cycles, repeat=2):
            pairs += 1
            disjoint = not set(c1.arcs()) & set(c2.arcs())
            assert (check_packing(graph, [c1, c2]) is None) == disjoint
            assert (check_packing(graph, [c1, c2], k=2) is None) == disjoint
            if disjoint:
                assert check_packing(graph, [c1, c2], k=3) == "only 2 cycles, need 3"
            else:
                assert check_packing(graph, [c1, c2]) == "cycles share an arc"
    assert pairs > 0


def test_check_packing_reasons_for_bad_cycles():
    g = four_cycle_bt()
    assert check_packing(g, [four_cycle(0, 0, 1, 1)], k=1) is None
    for bad in (
        FourCycle((xv(0), xv(1), yv(0), yv(1))),  # not alternating
        FourCycle((xv(0), yv(0), xv(9), yv(1))),  # out of range
        FourCycle((xv(0), yv(0), xv(0), yv(0))),  # repeated vertices
        FourCycle((xv(1), yv(0), xv(0), yv(1))),  # reversed arcs
    ):
        assert check_packing(g, [bad]) == f"{[str(v) for v in bad.vertices]} is not a 4-cycle here"
    hexagon = six_cycle()
    for bad in (
        FourCycle((xv(0), yv(0), xv(1), yv(1), xv(2), yv(2))),  # a 6-cycle
        FourCycle((xv(0), yv(0), xv(1))),  # too short
    ):
        assert check_packing(hexagon, [bad]) == f"{[str(v) for v in bad.vertices]} is not a 4-cycle here"


# ----------------------------------------------------------------------
# every library self-check fires on a broken certificate


def test_solve_fas_branch_rejects_a_missing_backward_part(monkeypatch):
    monkeypatch.setattr(fas_engine, "backward_arcs", lambda order, cycles: frozenset())
    with pytest.raises(InternalInvariantError, match="leaves a cycle"):
        solve(four_cycle_bt(), 2)


def test_solve_packing_branch_rejects_a_repeated_cycle(monkeypatch):
    def repeated(graph, limit=None):
        cycle = four_cycle(0, 0, 1, 1)
        return Packing((cycle, cycle), graph.delete_arcs(cycle.arcs()))

    monkeypatch.setattr(fas_engine, "greedy_pack", repeated)
    with pytest.raises(InternalInvariantError, match="share an arc"):
        solve(four_cycle_bt(), 2)


def test_fas_c4free_rejects_an_empty_decomposition(monkeypatch):
    monkeypatch.setattr(c4free_fas, "_decomposition", lambda graph: (set(), []))
    with pytest.raises(InternalInvariantError, match="leaves a cycle"):
        fas_c4free(six_cycle())


def test_check_packing_matches_the_arc_reference_on_a_seeded_corpus():
    rng = random.Random(2024)
    graphs = list(enumerate_bt(2, 3)) + list(enumerate_bt(3, 3))
    graphs += [random_digraph(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(300)]
    reasons, lists = set(), 0
    for graph in graphs:
        genuine = all_4cycles(graph)
        for _ in range(12):
            cycles = candidate_packing(rng, graph, genuine)
            for k in (None, 0, 1, 2, 4):
                lists += 1
                reason = check_packing(graph, cycles, k)
                assert reason == check_packing_reference(graph, cycles, k), (graph, cycles, k)
                reasons.add(reason and next(r for r in PACKING_REASONS if r in reason))
    assert lists > 30_000
    assert reasons == {None, *PACKING_REASONS}, reasons
