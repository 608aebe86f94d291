import dataclasses
import itertools
import random
import tracemalloc

import pytest

from btfas import (
    Arc,
    BipartiteDigraph,
    GenSpec,
    Packing,
    c4free_fas,
    enumerate_bt,
    fas_c4free,
    fas_engine,
    greedy_pack,
    random_bt,
    solve,
    xv,
    yv,
)
from btfas.certify import check_fas, check_fas_pairs, check_packing, check_packing_pairs
from btfas.errors import InternalInvariantError
from btfas.graph_core import ABSENT, FourCycle, HeldArcs, four_cycle
from btfas.oracles import all_4cycles, find_cycle_brute

from helpers import (
    PACKING_REASONS,
    all_oriented,
    candidate_packing,
    check_packing_reference,
    four_cycle_bt,
    planted_bt,
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


def check_listed(graph: BipartiteDigraph, arcs, bound=None, order=None):
    """check_fas_pairs' listed (reason, size, order) on the arcs' pairs, -1 for each arc graph lacks."""
    arcs = list(arcs)
    return check_fas_pairs(graph, HeldArcs.pairs_of(graph, arcs), bound, order, lambda t: "%s>%s" % tuple(arcs[t]))


def agrees_with_brute_force(graph: BipartiteDigraph, subset) -> None:
    rest = without(graph, subset)
    acyclic = find_cycle_brute(rest) is None
    order = topological_order_reference(rest).order
    size = len(set(subset))
    pairs = [tuple(a) for a in subset]
    # The certifying order is the sort of the graph minus the arcs, or None.
    assert check_listed(graph, pairs) == (check_fas(graph, subset), size, order)
    for arcs in (subset, pairs):
        assert (check_fas(graph, arcs) is None) == acyclic
        if acyclic:
            assert check_listed(graph, arcs, order=order) == (None, size, order)
            assert check_fas(graph, arcs, bound=size) is None
            if subset:
                assert check_fas(graph, arcs, bound=size - 1) == f"{size} arcs exceed the bound {size - 1}"
        else:
            any_order = tuple(graph.vertices())
            assert check_listed(graph, arcs, order=any_order) == ("deleting the arcs leaves a cycle", size, None)


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
        assert check_listed(g, [Arc(yv(1), xv(0)), foreign], order=order) == (reason, 0, None)
        assert check_listed(g, [foreign], order=order[1:]) == (reason, 0, None)  # a foreign arc outranks a bad order
        assert check_listed(g, [(yv(1), xv(0)), foreign]) == (reason, 0, None)
    assert check_fas(g, [(yv(1), xv(0)), (yv(1), xv(0))], bound=1) is None


def test_the_listed_check_spells_the_first_arc_off_the_graph():
    g = four_cycle_bt()  # x0>y0 at pair 0, y1>x0 at 1, y0>x1 at 2, x1>y1 at 3
    order = (xv(0), yv(0), xv(1), yv(1))
    spell = "#{}".format
    assert check_fas_pairs(g, [1, -1, 2, -1], spell=spell) == ("arc #1 is not in the instance", 0, None)
    # An arc off the graph outranks the range, the bound and the order.
    assert check_fas_pairs(g, [4, -1, 1], spell=spell)[0] == "arc #1 is not in the instance"
    assert check_fas_pairs(g, [-1, 1], bound=0, order=order[1:], spell=spell)[0] == "arc #0 is not in the instance"
    assert check_fas_pairs(g, [1, 1], bound=1, spell=spell) == (None, 1, order)  # a repeated pair counts once
    assert check_fas_pairs(g, [1, 0, 1], bound=1, spell=spell) == ("2 arcs exceed the bound 1", 2, order)
    assert check_fas_pairs(g, [], spell=spell) == ("deleting the arcs leaves a cycle", 0, None)


def test_the_listed_check_spells_the_first_pair_the_graph_leaves_absent():
    """A listed pair that carries no arc is an arc not in the instance, named once every other test
    has passed; the strict check counts it among the pairs that repeat or carry no arc."""
    gap = four_cycle_bt().clear_pairs([3])  # not a tournament: pair 3 carries no arc
    assert check_fas_pairs(gap, [3], spell=str) == ("arc 0 is not in the instance", 0, None)
    g = six_cycle()  # arcs at pairs 0, 2, 3, 4, 7 and 8; pairs 1, 5 and 6 carry none
    spell = "#{}".format
    assert check_fas_pairs(g, [0, 1], spell=spell) == ("arc #1 is not in the instance", 1, None)
    assert check_fas_pairs(g, [0, 0, 6, 1, 5], spell=spell) == ("arc #2 is not in the instance", 1, None)
    # The cycle, the order and the bound outrank it.
    assert check_fas_pairs(g, [1], spell=spell) == ("deleting the arcs leaves a cycle", 0, None)
    assert check_fas_pairs(g, [0, 1], order=(), spell=spell) == ("deleting the arcs leaves a cycle", 1, None)
    assert check_fas_pairs(g, [0, 1], bound=0, spell=spell)[:2] == ("1 arcs exceed the bound 0", 1)
    assert check_fas_pairs(g, [0, 1]) == ("1 of 2 pairs repeat or carry no arc", 1, None)
    assert check_fas_pairs(g, [0, 0], spell=spell)[:2] == (None, 1)


@pytest.mark.parametrize("bad", [-2, 4, -5, 99])
def test_each_pair_check_gives_a_reason_for_a_pair_outside_the_graph(bad):
    """A pair below -1 or at m*n and beyond is a reason alone and among valid pairs, never an
    IndexError or a pair it wraps to: -2 would read pair 2 and -5 raise, 4 and 99 raise."""
    g = four_cycle_bt()  # pairs 0..3
    cycle = [1, 0, 2, 3]  # the 4-cycle's pairs, closing arc first
    for pairs in ([bad], [0, bad], [bad, 1, 2]):
        reason = f"pairs {min(pairs)}..{max(pairs)} are not all in the 2x2 graph"
        assert check_fas_pairs(g, pairs) == check_fas_pairs(g, pairs, bound=9, order=()) == (reason, 0, None)
        assert check_fas_pairs(g, pairs, spell=str) == (reason, 0, None)
    for cycles in ([[bad, 0, 2, 3]], [[1, 0, bad, 3]], [cycle, [bad, bad, bad, bad]]):
        spelled = len(cycles) - 1
        assert check_packing_pairs(g, cycles, "cycle {}".format) == f"cycle {spelled} is not a 4-cycle here"
    # -1 stands for an arc the graph lacks: the packing check spells its cycle, as its name, too.
    assert check_packing_pairs(g, [[-1, 0, 1, 2]], str) == "0 is not a 4-cycle here"
    assert check_packing_pairs(g, [cycle], str, k=1) is None


def test_a_large_listed_check_holds_no_set_of_its_pairs():
    """130,905 pairs cost the copy and the sort, not a per-pair structure of about 24 bytes per pair."""
    side = 512
    graph = random_bt(GenSpec(side, side, seed=1))
    order = [*map(xv, range(side)), *map(yv, range(side))]
    random.Random(1).shuffle(order)
    position = {v: t for t, v in enumerate(order)}
    pairs = HeldArcs.pairs_of(graph, [a for a in graph.arcs() if position[a.tail] > position[a.head]])
    tracemalloc.start()
    try:
        reason, size, _ = check_fas_pairs(graph, pairs, spell=str)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (reason, size, len(pairs)) == (None, 130_905, 130_905)
    assert peak <= 8 * side * side


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
    """The whole backward part dropped, or either of its two keys: the order then certifies nothing."""
    real = fas_engine.backward_arcs
    for drop in (slice(None), slice(0, 1), slice(1, 2)):

        def dropping(tournament, residual, order, drop=drop):
            keys = real(tournament, residual, order)
            del keys[drop]
            return keys

        monkeypatch.setattr(fas_engine, "backward_arcs", dropping)
        with pytest.raises(InternalInvariantError, match="leaves a cycle"):
            solve(four_cycle_bt(), 2)


@pytest.mark.parametrize("spoil", ["at m*n", "negative", "repeated", "in the cut"])
def test_solve_fas_branch_rejects_an_unchecked_backward_arc(monkeypatch, spoil):
    # backward_arcs reads its pairs off the masks unchecked, so only the final check stands
    # between a bad pair and the caller: one past the last pair, a negative one, a pair given
    # twice, or a pair that the residual cut holds too, so that the set holds it twice.
    g = planted_bt(0, 8)
    packing = greedy_pack(g)
    cut = vars(fas_c4free(packing.residual))["fas"].pairs
    assert cut  # the planted instance has a residual cut
    real = fas_engine.backward_arcs

    def spoiled(tournament, residual, order):
        pairs = real(tournament, residual, order)
        return [*pairs, {"at m*n": g.m * g.n, "negative": -1, "repeated": pairs[0], "in the cut": cut[0]}[spoil]]

    monkeypatch.setattr(fas_engine, "backward_arcs", spoiled)
    out_of_range = spoil in ("at m*n", "negative")
    reason = "pairs .* are not all in the 16x16 graph" if out_of_range else "1 of .* pairs repeat or carry no arc"
    with pytest.raises(InternalInvariantError, match=reason):
        solve(g, len(packing.cycles) + 1)


def test_solve_checks_a_cut_read_into_a_set_through_its_pairs(monkeypatch):
    """A certificate whose cut was built into a set, as dataclasses.replace does, still reaches the
    final check: the same outcome for the cut itself, a reason once one of its arcs is reversed."""
    g = planted_bt(0, 8)
    k = len(greedy_pack(g).cycles) + 1
    expected, real = solve(g, k), fas_engine.fas_c4free
    for reverse in (False, True):

        def built(graph, reverse=reverse):
            certificate = real(graph)
            fas = sorted(certificate.fas)
            fas[0] = Arc(fas[0].head, fas[0].tail) if reverse else fas[0]
            return dataclasses.replace(certificate, fas=frozenset(fas))

        monkeypatch.setattr(fas_engine, "fas_c4free", built)
        if reverse:
            with pytest.raises(InternalInvariantError, match="pairs -1.* are not all in the 16x16 graph"):
                solve(g, k)
        else:
            assert solve(g, k) == expected


def test_the_pair_check_gives_a_reason_for_each_bad_pair():
    """Negative, out-of-range, repeated and arc-less pairs are reasons, never an IndexError."""
    g = four_cycle_bt()  # x0>y0 at pair 0, y1>x0 at 1, y0>x1 at 2, x1>y1 at 3
    order = (xv(0), yv(0), xv(1), yv(1))
    assert check_fas_pairs(g, [1], bound=1) == check_fas_pairs(g, [1], order=order) == (None, 1, order)
    assert check_fas_pairs(g, [1, 0], bound=1) == ("2 arcs exceed the bound 1", 2, order)
    assert check_fas_pairs(g, []) == ("deleting the arcs leaves a cycle", 0, None)
    assert check_fas_pairs(g, [-1]) == ("pairs -1..-1 are not all in the 2x2 graph", 0, None)
    assert check_fas_pairs(g, [1, 4], order=order) == ("pairs 1..4 are not all in the 2x2 graph", 0, None)
    assert check_fas_pairs(g, [1, 1], bound=0) == ("1 of 2 pairs repeat or carry no arc", 1, None)
    gap = g.clear_pairs([3])  # not a tournament: pair 3 carries no arc
    assert check_fas_pairs(gap, [3]) == ("1 of 1 pairs repeat or carry no arc", 0, None)
    assert check_fas_pairs(gap, [1, 3], order=order) == ("1 of 2 pairs repeat or carry no arc", 1, None)


def test_solve_packing_branch_rejects_a_repeated_cycle(monkeypatch):
    def repeated(graph, limit=None):
        cycle = four_cycle(0, 0, 1, 1)
        return Packing((cycle, cycle), graph.delete_arcs(cycle.arcs()))

    monkeypatch.setattr(fas_engine, "greedy_pack", repeated)
    with pytest.raises(InternalInvariantError, match="share an arc"):
        solve(four_cycle_bt(), 2)


def test_fas_c4free_rejects_an_empty_decomposition(monkeypatch):
    monkeypatch.setattr(c4free_fas, "_decomposition", lambda graph: (set(), [], ()))
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
