import pytest

from btfas import GenSpec, enumerate_bt, greedy_pack, random_bt, random_c4free
from btfas.c4free_fas import find_4cycle
from btfas.cli import render_instance
from btfas.errors import OutOfRange, TooLarge

# Frozen output of the documented generator (Mersenne Twister, one draw per
# pair in row-major order).  A change here is a breaking change.
GOLDEN_3X3_SEED42 = (
    "p bt 3 3\n"
    "a x0 y1\n"
    "a x0 y2\n"
    "a x1 y0\n"
    "a x2 y1\n"
    "a x2 y2\n"
    "a y0 x0\n"
    "a y0 x2\n"
    "a y1 x1\n"
    "a y2 x1\n"
)


def test_generator_output_is_pinned():
    assert render_instance(random_bt(GenSpec(3, 3, seed=42))) == GOLDEN_3X3_SEED42


def test_same_spec_same_graph():
    spec = GenSpec(4, 5, seed=123)
    assert random_bt(spec) == random_bt(spec)
    assert random_c4free(spec) == random_c4free(spec)
    assert random_bt(GenSpec(4, 5, seed=124)) != random_bt(spec)


def test_bias_extremes_are_acyclic():
    ones = random_bt(GenSpec(3, 4, seed=1, bias=1.0))
    assert all(a.tail.side == "X" for a in ones.arcs())
    assert ones.topological_order().order is not None
    zeros = random_bt(GenSpec(3, 4, seed=1, bias=0.0))
    assert all(a.tail.side == "Y" for a in zeros.arcs())
    assert zeros.topological_order().order is not None


def test_bias_is_validated():
    with pytest.raises(OutOfRange):
        GenSpec(2, 2, seed=0, bias=1.5)


def test_negative_sides_are_out_of_range():
    for m, n in ((-1, 5), (3, -1), (-2, -3)):
        with pytest.raises(OutOfRange, match="non-negative"):
            GenSpec(m, n, seed=0)
    with pytest.raises(OutOfRange, match="non-negative"):
        list(enumerate_bt(-1, 3))


def test_random_bt_is_a_tournament():
    for i in range(30):
        assert random_bt(GenSpec(1 + i % 6, 1 + (i // 6) % 6, seed=i)).absent_pair_count() == 0


def test_random_c4free_properties():
    for i in range(40):
        spec = GenSpec(2 + i % 5, 2 + (i // 5) % 5, seed=i)
        g = random_c4free(spec)
        assert find_4cycle(g) is None
        packed = len(greedy_pack(random_bt(spec)).cycles)
        assert g.absent_pair_count() == 4 * packed
    full = random_c4free(GenSpec(3, 3, seed=9, bias=1.0))
    assert full == random_bt(GenSpec(3, 3, seed=9, bias=1.0))


def test_enumeration_counts_and_uniqueness():
    for m, n, expected in ((2, 2, 16), (3, 3, 512), (2, 3, 64)):
        graphs = list(enumerate_bt(m, n))
        assert len(graphs) == expected
        assert len({g.orient for g in graphs}) == expected
        assert all(g.absent_pair_count() == 0 for g in graphs)


def test_enumeration_limit():
    with pytest.raises(TooLarge):
        list(enumerate_bt(5, 4))
