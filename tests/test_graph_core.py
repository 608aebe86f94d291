import random

import pytest

from btfas import Arc, BipartiteDigraph, build, xv, yv
from btfas.errors import ArcNotPresent, DuplicatePair, InternalInvariantError, OutOfRange, SameSideArc
from btfas.graph_core import TO_X, TO_Y, pair_arc, pair_state
from btfas.oracles import check_acyclicity

from helpers import (
    all_oriented,
    all_x_to_y,
    four_cycle_bt,
    is_cycle_sequence,
    random_digraph,
    reverse_arcs,
    six_cycle,
    to_parent_arcs,
    topological_order_reference,
)


def test_build_empty_graph():
    g = build(2, 2, [])
    assert g.absent_pair_count() == 4
    assert g.arc_count() == 0


def test_build_four_cycle_tournament():
    g = four_cycle_bt()
    assert g.absent_pair_count() == 0
    assert g.arc_count() == 4
    assert g.has_arc(Arc(xv(0), yv(0)))
    assert g.has_arc(Arc(yv(1), xv(0)))


def test_build_rejects_duplicate_pair():
    with pytest.raises(DuplicatePair):
        build(1, 1, [(xv(0), yv(0)), (yv(0), xv(0))])
    with pytest.raises(DuplicatePair):
        build(2, 2, [(xv(0), yv(0)), (xv(0), yv(0))])


def test_build_rejects_bad_endpoints():
    with pytest.raises(OutOfRange):
        build(2, 2, [(xv(2), yv(0))])
    with pytest.raises(OutOfRange):
        build(2, 2, [(yv(-1), xv(0))])
    with pytest.raises(SameSideArc):
        build(2, 2, [(xv(0), xv(1))])


def test_reverse_four_cycle():
    g = four_cycle_bt().reverse()
    expected = build(2, 2, [(yv(0), xv(0)), (xv(1), yv(0)), (yv(1), xv(1)), (xv(0), yv(1))])
    assert g == expected


def test_reverse_fixed_point_on_arcless():
    g = build(3, 2, [])
    assert g.reverse() == g


def test_reverse_involution_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert g.reverse().reverse() == g


def test_feedback_set_duality_on_six_cycle():
    g = six_cycle()
    fas = {Arc(xv(1), yv(1))}
    assert g.is_feedback_arc_set(fas)
    assert g.reverse().is_feedback_arc_set(reverse_arcs(fas))


def test_feedback_set_duality_random():
    rng = random.Random(23)
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 5), rng.randint(1, 5))
        arcs = g.arcs()
        subset = [a for a in arcs if rng.random() < 0.4]
        assert g.is_feedback_arc_set(subset) == g.reverse().is_feedback_arc_set(
            reverse_arcs(subset)
        )


def test_swap_sides_sizes_and_involution():
    g = build(2, 3, [(xv(0), yv(2)), (yv(1), xv(1))])
    s = g.swap_sides()
    assert (s.m, s.n) == (3, 2)
    assert s.has_arc(Arc(yv(0), xv(2)))  # x0 -> y2 relabeled
    assert s.has_arc(Arc(xv(1), yv(1)))  # y1 -> x1 relabeled
    assert s.swap_sides() == g


def test_swap_sides_preserves_absent_count():
    rng = random.Random(7)
    for _ in range(100):
        g = random_digraph(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert g.swap_sides().absent_pair_count() == g.absent_pair_count()


def test_induced_subgraph_empty_and_full():
    g = six_cycle()
    sub = g.induced_subgraph([], [])
    assert (sub.graph.m, sub.graph.n) == (0, 0)
    full = g.induced_subgraph(range(3), range(3))
    assert full.graph == g
    assert full.x_map == (0, 1, 2)


def test_induced_subgraph_six_cycle_slice():
    g = six_cycle()
    sub = g.induced_subgraph({2}, {1, 2})
    assert sub.graph.arc_count() == 2
    assert sub.graph.absent_pair_count() == 0
    # x2 compacts to x0; y1, y2 compact to y0, y1
    assert sub.graph.has_arc(Arc(yv(0), xv(0)))
    assert sub.graph.has_arc(Arc(xv(0), yv(1)))
    assert to_parent_arcs(sub, [Arc(yv(0), xv(0))]) == {Arc(yv(1), xv(2))}


def test_induced_subgraph_commutes_with_reverse_and_swap():
    rng = random.Random(31)
    for _ in range(50):
        g = random_digraph(rng, 4, 5)
        xs = [i for i in range(4) if rng.random() < 0.6]
        ys = [j for j in range(5) if rng.random() < 0.6]
        assert g.reverse().induced_subgraph(xs, ys).graph == g.induced_subgraph(xs, ys).graph.reverse()
        assert g.swap_sides().induced_subgraph(ys, xs).graph == g.induced_subgraph(xs, ys).graph.swap_sides()


def test_delete_arcs_breaks_the_four_cycle():
    g = four_cycle_bt()
    h = g.delete_arcs([Arc(yv(1), xv(0))])
    assert h.absent_pair_count() == 1
    assert h.topological_order().order is not None


def test_delete_arcs_identity_and_total():
    g = six_cycle()
    assert g.delete_arcs([]) == g
    empty = g.delete_arcs(g.arcs())
    assert empty.arc_count() == 0
    assert empty.absent_pair_count() == 9


def test_delete_arcs_requires_presence():
    with pytest.raises(ArcNotPresent):
        six_cycle().delete_arcs([Arc(xv(0), yv(1))])


def test_absent_pair_count_matches_arith():
    assert four_cycle_bt().absent_pair_count() == 0
    assert six_cycle().absent_pair_count() == 3
    rng = random.Random(3)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert g.absent_pair_count() == g.m * g.n - g.arc_count()


def test_topological_order_min_label_rule():
    g = all_x_to_y(2, 2)
    assert g.topological_order().order == (xv(0), xv(1), yv(0), yv(1))
    arcless = build(2, 2, [])
    assert arcless.topological_order().order == (xv(0), xv(1), yv(0), yv(1))


def test_topological_order_reports_a_cycle():
    assert four_cycle_bt().topological_order() == (None,)


def test_a_stuck_set_that_the_storage_denies_raises():
    """Kahn reads the masks; the cyclic verdict is confirmed in ``orient``."""
    g = four_cycle_bt()  # x0>y0, y0>x1, x1>y1, y1>x0
    cut = g.clear_pairs([1])  # y1>x0 gone: acyclic in the storage
    cut.__dict__.update(x_masks=g.x_masks, y_masks=g.y_masks)  # stale masks still see the cycle
    with pytest.raises(InternalInvariantError, match="Kahn left x0 without an unplaced in-neighbor"):
        cut.topological_order()


def test_is_feedback_arc_set_examples():
    g = four_cycle_bt()
    assert g.is_feedback_arc_set({Arc(yv(1), xv(0))})
    assert not g.is_feedback_arc_set(set())
    assert all_x_to_y(3, 2).is_feedback_arc_set(set())
    with pytest.raises(ArcNotPresent):
        g.is_feedback_arc_set({Arc(xv(0), yv(0)), Arc(yv(0), xv(0))})


def test_acyclicity_agrees_with_brute_force():
    graphs = list(all_oriented(2, 2))
    rng = random.Random(17)
    for _ in range(150):
        m = rng.randint(1, 4)
        graphs.append(random_digraph(rng, m, rng.randint(1, min(4, 8 - m))))
    for g in graphs:
        assert check_acyclicity(g) is None


def test_kahn_verdict_is_always_verified():
    """A forward order, or a cyclic verdict the reference confirms with a cycle."""
    rng = random.Random(41)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(2, 6), rng.randint(2, 6))
        topo = g.topological_order()
        assert topo == topological_order_reference(g)
        if topo.order is not None:
            pos = {v: i for i, v in enumerate(topo.order)}
            assert all(pos[a.tail] < pos[a.head] for a in g.arcs())


def test_orientation_storage_is_validated():
    with pytest.raises(ValueError):
        BipartiteDigraph(2, 2, bytes(3))
    with pytest.raises(OutOfRange):
        BipartiteDigraph(-1, 2, b"")


def test_topological_order_matches_the_vertex_label_kahn():
    for size in (2, 3):
        for g in all_oriented(size, size):
            assert g.topological_order() == topological_order_reference(g)


def _masks_from_orient(g):
    """(x_masks, y_masks) rebuilt bit by bit from the pair states."""

    def mask(states, state):
        return sum(1 << t for t, s in enumerate(states) if s == state)

    rows = [g.orient[i * g.n : (i + 1) * g.n] for i in range(g.m)]
    cols = [bytes(g.orient[i * g.n + j] for i in range(g.m)) for j in range(g.n)]
    return (
        (tuple(mask(r, TO_Y) for r in rows), tuple(mask(r, TO_X) for r in rows)),
        (tuple(mask(c, TO_X) for c in cols), tuple(mask(c, TO_Y) for c in cols)),
    )


def test_cached_masks_match_orient_after_any_chain_of_transforms():
    rng = random.Random(23)
    for _ in range(150):
        g = random_digraph(rng, rng.randint(0, 6), rng.randint(0, 6))
        for _ in range(8):
            if rng.random() < 0.7:
                _ = g.x_masks  # cached first: the result must still match its own orient
            op = rng.choice(("delete", "delete", "reverse", "swap", "induced"))
            if op == "delete":
                arcs = g.arcs()
                g = g.delete_arcs(rng.sample(arcs, rng.randint(0, len(arcs))))
            elif op == "reverse":
                g = g.reverse()
            elif op == "swap":
                g = g.swap_sides()
            else:
                xs = [i for i in range(g.m) if rng.random() < 0.7]
                ys = [j for j in range(g.n) if rng.random() < 0.7]
                g = g.induced_subgraph(xs, ys).graph
            assert (g.x_masks, g.y_masks) == _masks_from_orient(g)


def test_masks_take_no_part_in_equality_hash_or_repr():
    g = four_cycle_bt()
    fresh = BipartiteDigraph(g.m, g.n, g.orient)
    assert g.x_masks and g.y_masks
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


def test_is_forward_order_certifies_exactly_the_forward_orders():
    rng = random.Random(61)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(0, 5), rng.randint(0, 5))
        order = list(g.vertices())
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        backward = {a for a in g.arcs() if pos[a.tail] > pos[a.head]}
        assert g.delete_arcs(backward).is_forward_order(order)
        assert g.is_feedback_arc_set(backward)
        if backward:
            kept = set(backward)
            kept.pop()
            assert not g.delete_arcs(kept).is_forward_order(order)
        if order:
            assert not g.delete_arcs(backward).is_forward_order(order[1:])
            assert not g.delete_arcs(backward).is_forward_order(order + order[:1])


def test_is_forward_order_rejects_foreign_vertices_and_arcs():
    g = all_x_to_y(2, 2)
    assert g.is_forward_order((xv(0), xv(1), yv(0), yv(1)))
    # x2 has the integer id of y0, but is no vertex of a 2x2 graph.
    assert not g.is_forward_order((xv(0), xv(1), xv(2), yv(1)))
    assert not g.is_forward_order((xv(0), xv(1), yv(0), yv(-1)))
    assert not g.is_forward_order((yv(0), xv(0), xv(1), yv(1)))
    with pytest.raises(ArcNotPresent):
        g.delete_arcs({Arc(yv(0), xv(0))}).is_forward_order((xv(0), xv(1), yv(0), yv(1)))


def test_pair_arc_inverts_pair_state():
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
        for p in range(m * n):
            for state in (TO_Y, TO_X):
                arc = pair_arc(n, p, state)
                assert pair_state(m, n, arc.tail, arc.head) == (p, state)
                assert (arc.tail.side == "X") == (state == TO_Y)


# ----------------------------------------------------------------------
# labels are tuples


def test_arcs_sort_by_tail_then_head_and_match_the_canonical_order():
    rng = random.Random(29)
    for _ in range(100):
        g = random_digraph(rng, rng.randint(0, 6), rng.randint(0, 6))
        canonical = g.arcs()
        subset = [a for a in canonical if rng.random() < 0.5]
        for arcs in (canonical, subset):
            shuffled = rng.sample(arcs, len(arcs))
            by_fields = sorted(shuffled, key=lambda a: (a.tail.side, a.tail.index, a.head.side, a.head.index))
            assert sorted(shuffled) == by_fields == sorted(set(shuffled)) == arcs


def test_labels_hash_and_compare_as_their_fields():
    a, b = xv(2), yv(7)
    assert hash(a) == hash(("X", 2)) and a == ("X", 2)
    assert hash(Arc(a, b)) == hash((a, b)) and Arc(a, b) == (a, b)
    tail, head = Arc(b, a)
    assert (tail, head) == (b, a)
    assert {Arc(a, b), (a, b)} == {Arc(a, b)}


def test_labels_print_as_before():
    assert str(xv(3)) == "x3" and str(yv(0)) == "y0"
    assert str(Arc(yv(0), xv(12))) == "y0>x12"
    assert repr(xv(3)) == "VertexRef(side='X', index=3)"
    assert repr(Arc(xv(0), yv(1))) == "Arc(tail=VertexRef(side='X', index=0), head=VertexRef(side='Y', index=1))"


def test_arc_rejects_a_same_side_pair():
    with pytest.raises(SameSideArc):
        Arc(xv(0), xv(1))
    with pytest.raises(SameSideArc):
        Arc(yv(1), yv(1))


def test_is_cycle_sequence_is_false_on_a_non_cycle():
    g = four_cycle_bt()  # x0>y0, y0>x1, x1>y1, y1>x0
    assert is_cycle_sequence(g, [xv(0), yv(0), xv(1), yv(1)])
    assert not is_cycle_sequence(g, [xv(0), xv(1), yv(0), yv(1)])  # not alternating
    assert not is_cycle_sequence(g, [xv(0), yv(0), xv(2), yv(1)])  # out of range
    assert not is_cycle_sequence(g, [yv(-1), xv(0), yv(0), xv(1)])
    assert not g.has_arc((xv(0), xv(1)))
