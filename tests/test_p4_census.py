import itertools
import random

import pytest

from btfas import BipartiteDigraph, VertexRef, build, xv, yv
from btfas.errors import OutOfRange
from btfas.graph_core import bit_indices
from btfas.oracles import census_sums, check_census, enumerate_induced_p4
from btfas.p4_census import (
    MaskPartition,
    Rows,
    census,
    first_count,
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
    partition_around_reference,
    partition_of,
    path_graph,
    random_digraph,
    six_cycle,
    swap_vertex,
)


def test_four_cycle_has_no_induced_p4():
    g = four_cycle_bt()
    assert enumerate_induced_p4(g) == []
    assert census_sums(g) == (0, 0, 0, 0)
    assert all(first_count(g, v) == 0 and sec_count(g, v) == 0 for v in g.vertices())


def test_a_vertex_off_its_side_raises_out_of_range():
    """A side other than X or Y is no vertex, though its index is inside the graph: z1 is not y1."""
    g = BipartiteDigraph(4, 4, bytes.fromhex("00020001000101010201000001000101"))
    assert sec_count(g, yv(1)) == 1
    for v in (VertexRef("Z", 1), VertexRef("Z", 0), xv(4), xv(-1), yv(4), yv(-1)):
        for count in (first_count, sec_count):
            with pytest.raises(OutOfRange, match=f"vertex {v} outside a 4x4 graph"):
                count(g, v)


def test_six_cycle_has_the_six_windows():
    g = six_cycle()
    paths = enumerate_induced_p4(g)
    assert len(paths) == 6
    assert (xv(0), yv(0), xv(1), yv(1)) in paths
    assert set(paths) == p4_oracle(g)


def test_path_graph_single_p4_and_class():
    g = path_graph()
    assert enumerate_induced_p4(g) == [(xv(0), yv(0), xv(1), yv(1))]
    assert census_sums(g) == (1, 1, 1, 1)


def test_enumeration_matches_definition_oracle():
    rng = random.Random(91)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert set(enumerate_induced_p4(g)) == p4_oracle(g)


def test_class_keys_partition_the_paths():
    """Paths are distinct; two share (v1, v3, v4) exactly when they differ only
    in v2, and (v1, v2, v4) exactly when they differ only in v3."""
    rng = random.Random(13)
    for _ in range(40):
        g = random_digraph(rng, rng.randint(1, 4), rng.randint(1, 4))
        paths = enumerate_induced_p4(g)
        assert len(set(paths)) == len(paths)
        for p, q in itertools.combinations(paths, 2):
            differ = [t for t in range(4) if p[t] != q[t]]
            assert ((p[0], p[2], p[3]) == (q[0], q[2], q[3])) == (differ == [1])
            assert ((p[0], p[1], p[3]) == (q[0], q[1], q[3])) == (differ == [2])


def test_six_cycle_counts_and_partition():
    g = six_cycle()
    assert first_count(g, xv(0)) == 1
    assert sec_count(g, xv(0)) == 1
    # x0 > y0 > x1 > y1 > x2 > y2 > x0: in y2, out y0, non y1; two-step x1, rest x2
    assert partition_of(g, xv(0)) == MaskPartition(ins=0b100, outs=0b001, non=0b010, two=0b010, rest=0b100)


def test_partition_degenerate_shapes():
    assert partition_of(all_x_to_y(3, 3), xv(0)) == MaskPartition(0, 0b111, 0, 0, 0b110)
    lonely = build(2, 3, [(xv(1), yv(0))])
    assert partition_of(lonely, xv(0)) == MaskPartition(0, 0, 0b111, 0, 0b10)


def test_partition_around_y_side_center():
    assert partition_of(six_cycle(), yv(0)) == MaskPartition(0b001, 0b010, 0b100, 0b010, 0b100)


def test_partition_sets_cover_both_sides():
    """The masks equal the vertex-set reference and cover both sides around the center."""
    rng = random.Random(5)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in g.vertices():
            part = partition_of(g, v)
            expected = partition_around_reference(g, v)
            assert part == MaskPartition(*(sum(1 << w.index for w in s) for s in expected))
            opp, own = (g.n, g.m) if v.side == "X" else (g.m, g.n)
            assert part.ins | part.outs | part.non == (1 << opp) - 1
            assert not part.ins & part.outs
            assert part.two | part.rest | 1 << v.index == (1 << own) - 1
            assert not part.two >> v.index & 1


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


@pytest.mark.parametrize("seed, count, m_max, n_max", [(101, 60, 5, 5), (57, 40, 4, 3), (73, 60, 5, 5)])
def test_census_check_on_seeded_corpora(seed, count, m_max, n_max):
    """Closed forms against enumerated buckets, the sum identities and reversal."""
    for g in _census_corpus(seed, count, m_max, n_max):
        assert check_census(g) is None


def test_census_check_catches_a_reversal_that_changes_nothing(monkeypatch):
    """On the six-cycle the sums are symmetric, so only the reversal comparison sees this."""
    monkeypatch.setattr(BipartiteDigraph, "reverse", lambda self: self)
    reason = check_census(six_cycle())
    assert reason is not None and "reversed induced P4s" in reason


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
    """The packed kernel and ``partition_around`` against the per-bit reference.

    Rows of at most ``MULTIPLY_MAX_STRIDE`` = 8 bytes (widths up to 63)
    repeat masks by multiplication, wider rows by bytes repetition.  Random
    digraphs with absent pairs, the whole graph and random live
    subsets, both directions and every center.  ``width`` is the size of
    the Y side, so the width of the X rows when every Y vertex is live.  At
    7, 15, 23 and 63 a row fills its bytes up to the guard bit; at 8, 16, 24
    and 64 it fills whole bytes and the guard bit gets a byte of its own; at
    65 it spills one bit into the guard's byte.  Some centers have no live
    out-neighbour, whose counts the formula must give as 0.
    """
    rng = random.Random(width)
    checked = nonzero = no_outs = 0
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
                    assert census(rows, ps, qs) == [
                        (c, first, sec) for c, (_, first, sec) in zip(bit_indices(ps), expected)
                    ]
                    for c, (part, first, sec) in zip(bit_indices(ps), expected):
                        assert partition_around(rows, c, ps, qs) == part
                        checked += 1
                        nonzero += first > 0 and sec > 0
                        no_outs += not p_view[0][c] & qs
    assert checked > 4 * width and nonzero > width and no_outs > 0


def census_sums_of(views, xs: int, ys: int) -> tuple[int, int]:
    rows = census(views[0], xs, ys) + census(views[1], ys, xs)
    return sum(first for _, first, _ in rows), sum(sec for _, _, sec in rows)


def test_reading_the_rows_reversed_swaps_the_census_sums():
    """Reversed rows swap sum(first) and sum(sec), on the whole graph and on live subsets.

    ``c4free_fas`` relies on it: after reversing when sum(first) > sum(sec),
    some live vertex has first <= sec.
    """
    rng = random.Random(19)
    lopsided = 0
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 12), rng.randint(1, 12))
        sides = (g.x_masks, g.y_masks)
        flipped = [Rows(r.inn, r.out) for r in sides]
        lives = [((1 << g.m) - 1, (1 << g.n) - 1)]
        lives += [(rng.getrandbits(g.m), rng.getrandbits(g.n)) for _ in range(3)]
        for xs, ys in lives:
            first, sec = census_sums_of(sides, xs, ys)
            assert census_sums_of(flipped, xs, ys) == (sec, first)
            lopsided += first != sec
    assert lopsided > 50
