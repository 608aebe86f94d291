import random

import pytest

from btfas import (
    BipartiteDigraph,
    GenSpec,
    find_4cycle,
    greedy_pack,
    max_c4_packing_exact,
    random_bt,
)
from btfas.errors import OutOfRange

from helpers import all_oriented, four_cycle_bt, greedy_pack_reference, random_digraph, six_cycle


def test_single_cycle_tournament():
    g = four_cycle_bt()
    packing = greedy_pack(g)
    assert len(packing.cycles) == 1
    assert packing.residual.absent_pair_count() == 4
    assert find_4cycle(packing.residual) is None
    assert packing.validate(g)


def test_six_cycle_packs_nothing():
    g = six_cycle()
    packing = greedy_pack(g)
    assert packing.cycles == ()
    assert packing.residual == g


def test_limit_zero_is_a_no_op():
    g = four_cycle_bt()
    packing = greedy_pack(g, limit=0)
    assert packing.cycles == ()
    assert packing.residual == g


def test_limit_must_be_non_negative():
    with pytest.raises(OutOfRange):
        greedy_pack(four_cycle_bt(), limit=-1)


def test_packings_validate_and_are_maximal():
    for i in range(60):
        g = random_bt(GenSpec(2 + i % 5, 2 + (i // 5) % 5, seed=i))
        packing = greedy_pack(g)
        assert packing.validate(g)
        assert find_4cycle(packing.residual) is None
        assert packing.residual.absent_pair_count() == (
            g.absent_pair_count() + 4 * len(packing.cycles)
        )


def test_early_exit_stops_at_the_limit():
    for i in range(30):
        g = random_bt(GenSpec(5, 5, seed=400 + i))
        full = greedy_pack(g)
        for limit in range(len(full.cycles) + 2):
            partial = greedy_pack(g, limit=limit)
            assert len(partial.cycles) == min(limit, len(full.cycles))
            assert partial.cycles == full.cycles[: len(partial.cycles)]
            assert partial.validate(g)


def test_greedy_is_nonempty_when_optimum_is():
    for i in range(50):
        g = random_bt(GenSpec(3, 3, seed=600 + i))
        greedy = len(greedy_pack(g).cycles)
        exact = max_c4_packing_exact(g).value
        assert greedy <= exact
        if exact >= 1:
            assert greedy >= 1


def test_one_pass_packing_matches_rescanning_on_all_small_digraphs():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for g in all_oriented(m, n):
            packing = greedy_pack(g)
            assert (packing.cycles, packing.residual) == greedy_pack_reference(g)
            assert_masks_match_orient(packing.residual)


def test_one_pass_packing_matches_rescanning_on_random_graphs():
    rng = random.Random(909)
    for t in range(16):
        m, n = rng.randint(8, 16), rng.randint(8, 16)
        g = random_digraph(rng, m, n) if t % 2 else random_bt(GenSpec(m, n, seed=t))
        g.y_masks  # cached on the input, so the residual is handed both mask sets
        for limit in (None, 0, 1, 5):
            packing = greedy_pack(g, limit)
            cycles, residual = greedy_pack_reference(g, limit)
            assert packing.cycles == cycles
            assert packing.residual.orient == residual.orient
            assert_masks_match_orient(packing.residual)


def assert_masks_match_orient(graph):
    """The masks a graph carries (``==`` ignores them) equal freshly derived ones."""
    fresh = BipartiteDigraph(graph.m, graph.n, graph.orient)
    assert graph.x_masks == fresh.x_masks
    assert graph.y_masks == fresh.y_masks


def test_packing_builds_one_residual(monkeypatch):
    calls = {"clear_pairs": 0, "delete_arcs": 0}
    for name in calls:
        original = getattr(BipartiteDigraph, name)

        def counting(self, pairs, name=name, original=original):
            calls[name] += 1
            return original(self, pairs)

        monkeypatch.setattr(BipartiteDigraph, name, counting)
    g = random_bt(GenSpec(20, 20, seed=3))
    packing = greedy_pack(g)
    assert len(packing.cycles) >= 50
    assert calls == {"clear_pairs": 1, "delete_arcs": 0}
    assert packing.validate(g)
