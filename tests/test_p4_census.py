import itertools
import random

import pytest

from btfas import build, xv, yv
from btfas.graph_core import bit_indices
from btfas.oracles import (
    ClassKey2,
    census_sums,
    check_census,
    classes2,
    classes3,
    enumerate_induced_p4,
)
from btfas.p4_census import (
    Rows,
    census,
    first_count,
    mask_partition,
    partition_around,
    sec_count,
    vertex_counts,
)

from helpers import (
    all_oriented,
    all_x_to_y,
    four_cycle_bt,
    mask_census,
    p4_oracle,
    path_graph,
    random_digraph,
    six_cycle,
    swap_vertex,
    x_vertices,
    y_vertices,
)


def test_four_cycle_has_no_induced_p4():
    g = four_cycle_bt()
    assert enumerate_induced_p4(g) == []
    assert classes2(g) == {}
    assert classes3(g) == {}
    assert all(first_count(g, v) == 0 and sec_count(g, v) == 0 for v in g.vertices())


def test_six_cycle_has_the_six_windows():
    g = six_cycle()
    paths = enumerate_induced_p4(g)
    assert len(paths) == 6
    assert any(p.vertices == (xv(0), yv(0), xv(1), yv(1)) for p in paths)
    assert set(paths) == p4_oracle(g)


def test_path_graph_single_p4_and_class():
    g = path_graph()
    paths = enumerate_induced_p4(g)
    assert [p.vertices for p in paths] == [(xv(0), yv(0), xv(1), yv(1))]
    c2 = classes2(g)
    assert list(c2) == [ClassKey2(xv(0), xv(1), yv(1))]
    assert len(next(iter(c2.values()))) == 1


def test_enumeration_matches_definition_oracle():
    rng = random.Random(91)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert set(enumerate_induced_p4(g)) == p4_oracle(g)


def test_class_maps_partition_the_paths():
    rng = random.Random(13)
    for _ in range(40):
        g = random_digraph(rng, rng.randint(1, 4), rng.randint(1, 4))
        paths = set(enumerate_induced_p4(g))
        for mapping, key in ((classes2(g), "key2"), (classes3(g), "key3")):
            members = [p for group in mapping.values() for p in group]
            assert len(members) == len(paths)
            assert set(members) == paths
            for k, group in mapping.items():
                for p in group:
                    assert getattr(p, key)() == k
        # Two paths share a key2 exactly when they differ only in the second vertex.
        for p, q in itertools.combinations(paths, 2):
            same_class = p.key2() == q.key2()
            differ_second_only = (
                p.vertices[0] == q.vertices[0]
                and p.vertices[2] == q.vertices[2]
                and p.vertices[3] == q.vertices[3]
            )
            assert same_class == differ_second_only


def test_six_cycle_counts_and_partition():
    g = six_cycle()
    assert first_count(g, xv(0)) == 1
    assert sec_count(g, xv(0)) == 1
    part = partition_around(g, xv(0))
    assert part.in_nbrs == {yv(2)}
    assert part.out_nbrs == {yv(0)}
    assert part.non_adjacent == {yv(1)}
    assert part.two_step == {xv(1)}
    assert part.rest == {xv(2)}


def test_partition_degenerate_shapes():
    g = all_x_to_y(3, 3)
    part = partition_around(g, xv(0))
    assert part.in_nbrs == frozenset()
    assert part.out_nbrs == {yv(0), yv(1), yv(2)}
    assert part.non_adjacent == frozenset()

    lonely = build(2, 3, [(xv(1), yv(0))])
    part = partition_around(lonely, xv(0))
    assert part.in_nbrs == part.out_nbrs == part.two_step == frozenset()
    assert part.non_adjacent == {yv(0), yv(1), yv(2)}
    assert part.rest == {xv(1)}


def test_partition_around_y_side_center():
    g = six_cycle()
    part = partition_around(g, yv(0))
    assert part.center == yv(0)
    assert part.in_nbrs == {xv(0)}
    assert part.out_nbrs == {xv(1)}
    assert part.non_adjacent == {xv(2)}
    assert part.two_step == {yv(1)}
    assert part.rest == {yv(2)}


def test_partition_sets_cover_both_sides():
    rng = random.Random(5)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in g.vertices():
            part = partition_around(g, v)
            opp = set(y_vertices(g) if v.side == "X" else x_vertices(g))
            own = set(x_vertices(g) if v.side == "X" else y_vertices(g))
            assert part.in_nbrs | part.out_nbrs | part.non_adjacent == opp
            assert not (part.in_nbrs & part.out_nbrs)
            assert part.two_step | part.rest | {v} == own
            assert v not in part.two_step


def test_six_cycle_census_sums():
    assert census_sums(six_cycle()) == (6, 6, 6, 6)
    assert census_sums(build(2, 3, [])) == (0, 0, 0, 0)


def _census_corpus(seed, count, m_max, n_max):
    """All 2x2 digraphs plus `count` seeded random ones of up to m_max x n_max."""
    rng = random.Random(seed)
    graphs = list(all_oriented(2, 2))
    graphs += [
        random_digraph(rng, rng.randint(1, m_max), rng.randint(1, n_max)) for _ in range(count)
    ]
    return graphs


def test_closed_form_matches_buckets_everywhere():
    """The census check (buckets, sum identities, reversal) on its seeded corpus."""
    for g in _census_corpus(101, 60, 5, 5):
        assert check_census(g) is None


def test_class_reversal_bijection():
    """Reversal maps classes2 onto classes3: asserted by the census check."""
    for g in _census_corpus(57, 40, 4, 3):
        assert check_census(g) is None


def test_sum_identities_and_reversal():
    """sum_first == count2, sum_sec == count3, swapped under reversal: the census check."""
    for g in _census_corpus(73, 60, 5, 5):
        assert check_census(g) is None


def test_side_symmetry_of_counts():
    rng = random.Random(19)
    for _ in range(40):
        g = random_digraph(rng, rng.randint(1, 4), rng.randint(1, 4))
        s = g.swap_sides()
        for v in g.vertices():
            assert first_count(g, v) == first_count(s, swap_vertex(v))
            assert sec_count(g, v) == sec_count(s, swap_vertex(v))


def test_one_vertex_counts_agree_with_the_whole_graph_census():
    """first_count and sec_count count one center; vertex_counts counts every vertex."""
    for g in _census_corpus(29, 40, 6, 6):
        counts = vertex_counts(g)
        assert list(counts) == list(g.vertices())
        assert all(counts[v] == (first_count(g, v), sec_count(g, v)) for v in g.vertices())


@pytest.mark.parametrize("width", [7, 8, 15, 16, 23, 24, 63, 64, 65])
def test_census_matches_the_bit_loop_at_stride_boundaries(width):
    """The packed kernel and ``mask_partition`` against the per-bit reference.

    Random digraphs with absent pairs, the whole graph and random live
    subsets, both directions and every center.  ``width`` is the size of
    the Y side, so the width of the X rows when every Y vertex is live.  At
    7, 15, 23 and 63 a row fills its bytes up to the guard bit; at 8, 16, 24
    and 64 it fills whole bytes and the guard bit gets a byte of its own; at
    65 it spills one bit into the guard's byte.
    """
    rng = random.Random(width)
    checked = nonzero = 0
    for m in (width, rng.randint(1, 9)):
        g = random_digraph(rng, m, width)
        for p, q, own, other in ((g.x_masks, g.y_masks, m, width), (g.y_masks, g.x_masks, width, m)):
            for rev in (0, 1):
                p_view, q_view = (p[::-1], q[::-1]) if rev else (p, q)
                rows = Rows(*p_view)
                lives = [((1 << own) - 1, (1 << other) - 1)]
                lives += [(rng.getrandbits(own), rng.getrandbits(other)) for _ in range(3)]
                for ps, qs in lives:
                    expected = [mask_census(c, p_view, q_view, ps, qs) for c in bit_indices(ps)]
                    assert census(rows, ps, qs) == [(first, sec) for _, first, sec in expected]
                    for c, (part, first, sec) in zip(bit_indices(ps), expected):
                        assert mask_partition(rows, c, ps, qs) == part
                        checked += 1
                        nonzero += first > 0 and sec > 0
    assert checked > 4 * width and nonzero > width
