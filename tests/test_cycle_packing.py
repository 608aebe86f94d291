import random

import pytest

from btfas import BipartiteDigraph, GenSpec, Packing, greedy_pack, max_c4_packing_exact, random_bt
from btfas.c4free_fas import find_4cycle
from btfas.errors import OutOfRange
from btfas.graph_core import pair_state

from helpers import all_oriented, four_cycle_bt, greedy_pack_reference, planted_bt, random_digraph, six_cycle


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


def test_validate_rejects_a_residual_that_is_not_the_input_minus_the_packing():
    g = random_bt(GenSpec(8, 8, seed=3))
    packing = greedy_pack(g)
    assert len(packing.cycles) == 6
    assert packing.validate(g)
    packed = {arc for cycle in packing.cycles for arc in cycle.arcs()}
    others = [arc for arc in g.arcs() if arc not in packed][:24]
    wrong = g.delete_arcs(others)  # as many arcs as the packing's, but the wrong ones
    assert wrong.absent_pair_count() == packing.residual.absent_pair_count()
    assert not Packing(packing.cycles, wrong).validate(g)


def test_validate_maps_each_cycle_through_pair_state_once(monkeypatch):
    """Both checks read one pair list: 4 pair_state calls per cycle, where mapping twice took 8.

    Each cycle reaches its pairs through ``graph_core.cycle_pairs``, so the calls are counted in
    ``graph_core``, the one module that calls ``pair_state``.
    """
    import btfas.graph_core as graph_module

    calls = []

    def counted(*args):
        calls.append(args)
        return pair_state(*args)

    monkeypatch.setattr(graph_module, "pair_state", counted)
    g = random_bt(GenSpec(12, 12, seed=3))
    packing = greedy_pack(g)
    assert len(packing.cycles) >= 10
    calls.clear()
    assert packing.validate(g)
    assert len(calls) == 4 * len(packing.cycles)
    # The verdicts are those of check_packing and the residual comparison.
    shared = packing.cycles + packing.cycles[:1]
    assert not Packing(shared, packing.residual).validate(g)
    assert not Packing(packing.cycles, g).validate(g)
    assert not Packing(packing.cycles[1:], packing.residual).validate(g)
    assert not Packing(packing.cycles, packing.residual).validate(g.reverse())


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
            assert_starts_at_the_smaller_x(packing.cycles)


def test_one_pass_packing_matches_rescanning_on_random_graphs():
    rng = random.Random(909)
    for t in range(16):
        m, n = rng.randint(8, 16), rng.randint(8, 16)
        g = random_digraph(rng, m, n) if t % 2 else random_bt(GenSpec(m, n, seed=t))
        g.y_masks  # cached on the input: the residual is handed its X rows only
        for limit in (None, 0, 1, 5):
            packing = greedy_pack(g, limit)
            cycles, residual = greedy_pack_reference(g, limit)
            assert packing.cycles == cycles
            assert packing.residual.orient == residual.orient
            assert_masks_match_orient(packing.residual)
            assert_starts_at_the_smaller_x(packing.cycles)


def test_the_residual_is_handed_the_x_rows_its_orient_gives():
    """``greedy_pack`` hands its residual the X rows its scan cleared, and ``random_c4free`` and
    ``pack``'s maximality check read them: they must be the rows a fresh graph derives."""
    graphs = [random_bt(GenSpec(m, n, seed=1)) for m, n in ((0, 5), (5, 0), (1, 1), (24, 24), (64, 64))]
    graphs += [planted_bt(seed, blocks) for seed, blocks in ((0, 4), (2, 4), (1, 6), (3, 8))]
    for g in graphs:
        greedy = len(greedy_pack(g).cycles)
        assert greedy > 1 or g.m * g.n < 4
        for limit in (None, 0, 1, max(greedy - 1, 0)):
            residual = greedy_pack(g, limit).residual
            assert "x_masks" in vars(residual) and "y_masks" not in vars(residual)  # handed, not derived
            fresh = BipartiteDigraph(residual.m, residual.n, residual.orient)
            assert residual.x_masks == fresh.x_masks, (g.m, g.n, limit)


def assert_masks_match_orient(graph):
    """The masks a graph carries (``==`` ignores them) equal freshly derived ones."""
    fresh = BipartiteDigraph(graph.m, graph.n, graph.orient)
    assert graph.x_masks == fresh.x_masks
    assert graph.y_masks == fresh.y_masks


def assert_starts_at_the_smaller_x(cycles):
    """Each cycle starts at the smaller X index of its pair, the form ``oracles.all_4cycles`` uses."""
    assert all(c.vertices[0].index < c.vertices[2].index for c in cycles)


def test_packing_builds_one_residual(monkeypatch):
    calls = {"clear_pairs": 0, "delete_arcs": 0}
    for name in calls:
        original = getattr(BipartiteDigraph, name)

        def counting(self, *args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BipartiteDigraph, name, counting)
    g = random_bt(GenSpec(20, 20, seed=3))
    packing = greedy_pack(g)
    assert len(packing.cycles) >= 50
    assert calls == {"clear_pairs": 1, "delete_arcs": 0}
    assert packing.validate(g)
