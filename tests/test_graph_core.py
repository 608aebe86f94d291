import itertools
import random
import tracemalloc

import pytest

from btfas import Arc, BipartiteDigraph, FourCycle, VertexRef, build, xv, yv
from btfas.certify import check_fas, check_packing
from btfas.errors import ArcNotPresent, DuplicatePair, InternalInvariantError, OutOfRange, SameSideArc
from btfas.graph_core import TO_X, TO_Y, HeldArcs, cycle_pairs, four_cycle, pair_arcs, pair_state
from btfas.c4free_fas import fas_c4free, find_4cycle
from btfas.instance_gen import GenSpec, random_bt
from btfas.oracles import all_4cycles, check_acyclicity

from helpers import (
    FourCycleReference,
    all_oriented,
    all_x_to_y,
    c4free_blowup,
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
    assert g.m * g.n - g.absent_pair_count() == 0


def test_build_four_cycle_tournament():
    g = four_cycle_bt()
    assert g.absent_pair_count() == 0
    assert g.m * g.n - g.absent_pair_count() == 4
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
    assert sub.graph.m * sub.graph.n - sub.graph.absent_pair_count() == 2
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
    assert empty.m * empty.n - empty.absent_pair_count() == 0
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
        assert g.absent_pair_count() == g.m * g.n - len(g.arcs())


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


def _forward_graph(rng, m, n, cyclic):
    """Pairs oriented forward in a seeded order of the vertices, a quarter of them cleared.

    With ``cyclic``, a 4-cycle on two seeded X and two seeded Y vertices overwrites their pairs.
    """
    order = list(range(m + n))
    rng.shuffle(order)
    position = {v: p for p, v in enumerate(order)}
    orient = bytearray(TO_Y if position[i] < position[m + j] else TO_X for i in range(m) for j in range(n))
    for p in rng.sample(range(m * n), m * n // 4):
        orient[p] = 0
    if cyclic:
        (i, k), (j, l) = rng.sample(range(m), 2), rng.sample(range(n), 2)
        orient[i * n + j] = orient[k * n + l] = TO_Y
        orient[k * n + j] = orient[i * n + l] = TO_X
    return BipartiteDigraph(m, n, bytes(orient))


@pytest.mark.parametrize("size", [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129])
def test_the_ready_runs_match_the_vertex_label_kahn_at_tree_widths(size):
    """Square, rectangular and one-sided shapes, each acyclic and, with two vertices a side, cyclic."""
    rng = random.Random(size)
    half = size // 2 + 1
    for m, n in ((size, size), (size, half), (half, size), (size, 0), (0, size)):
        for cyclic in (False, True) if min(m, n) >= 2 else (False,):
            g = _forward_graph(rng, m, n, cyclic)
            topo = g.topological_order()
            assert topo == topological_order_reference(g)
            assert (topo.order is None) == cyclic


def test_the_ready_runs_match_the_vertex_label_kahn_on_cut_graphs():
    """Decomposition cuts of blow-ups, and a dense tournament minus its backward arcs."""
    for seed in (1, 4, 7):
        g = c4free_blowup(seed, (66, 90))
        cut = g.delete_arcs(fas_c4free(g).fas)
        assert g.topological_order() == topological_order_reference(g) == (None,)
        assert cut.topological_order() == topological_order_reference(cut) != (None,)
    g = random_bt(GenSpec(128, 128, seed=2))
    order = list(g.vertices())
    random.Random(2).shuffle(order)
    position = {v: p for p, v in enumerate(order)}
    backward = [a for a in g.arcs() if position[a.tail] > position[a.head]]
    kept = set(find_4cycle(g).arcs())  # has arcs backward in any order
    for arcs, cyclic in ((backward, False), ([a for a in backward if a not in kept], True)):
        cut = g.delete_arcs(arcs)
        topo = cut.topological_order()
        assert topo == topological_order_reference(cut)
        assert (topo.order is None) == cyclic


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


def _assert_masks_match_orient_through_a_chain(rng, g):
    """Eight random transforms from g, each result's masks checked against its orient."""
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


def test_cached_masks_match_orient_after_any_chain_of_transforms():
    rng = random.Random(23)
    for _ in range(150):
        _assert_masks_match_orient_through_a_chain(rng, random_digraph(rng, rng.randint(0, 6), rng.randint(0, 6)))


def test_cached_masks_match_orient_on_wide_and_thin_shapes():
    """Each row and column is read at an offset into one reversed copy of the storage.

    Rows of 63 to 130 columns cross a machine word, and one-row and
    one-column shapes put every row, or every column, at an end of the copy.
    """
    rng = random.Random(37)
    shapes = [(2, 63), (3, 64), (2, 65), (4, 127), (1, 128), (3, 130), (1, 1), (1, 9), (9, 1), (1, 130), (130, 1)]
    for m, n in shapes:
        for _ in range(3):
            g = random_digraph(rng, m, n)
            assert (g.x_masks, g.y_masks) == _masks_from_orient(g)
            _assert_masks_match_orient_through_a_chain(rng, g)


def test_deriving_masks_holds_one_translated_copy_at_a_time():
    side = 1000
    orient = random.Random(1).randbytes(side * side).translate(bytes(b % 2 + 1 for b in range(256)))
    for side_masks in ("x_masks", "y_masks"):
        g = BipartiteDigraph(side, side, orient)
        tracemalloc.start()
        try:
            getattr(g, side_masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The reversed storage and one translated copy, 2 m*n, plus the masks; three copies read 3.0.
        assert peak <= 2.5 * side * side, side_masks


def test_masks_take_no_part_in_equality_hash_or_repr():
    g = four_cycle_bt()
    fresh = BipartiteDigraph(g.m, g.n, g.orient)
    assert g.x_masks and g.y_masks
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


def test_is_forward_order_certifies_exactly_the_forward_orders():
    rng = random.Random(61)
    kept_tails = {"X": 0, "Y": 0}  # sides of the backward arcs kept below
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
            kept_tails[kept.pop().tail.side] += 1
            assert not g.delete_arcs(kept).is_forward_order(order)
        if order:
            assert not g.delete_arcs(backward).is_forward_order(order[1:])
            assert not g.delete_arcs(backward).is_forward_order(order + order[:1])
    # The check reads X rows only: a kept X-tail arc fails its out-mask, a Y-tail arc its in-mask.
    assert kept_tails["X"] >= 20 and kept_tails["Y"] >= 20, kept_tails


def test_is_forward_order_rejects_foreign_vertices_and_arcs():
    g = all_x_to_y(2, 2)
    assert g.is_forward_order((xv(0), xv(1), yv(0), yv(1)))
    # x2 has the integer id of y0, but is no vertex of a 2x2 graph.
    assert not g.is_forward_order((xv(0), xv(1), xv(2), yv(1)))
    assert not g.is_forward_order((xv(0), xv(1), yv(0), yv(-1)))
    assert not g.is_forward_order((yv(0), xv(0), xv(1), yv(1)))
    with pytest.raises(ArcNotPresent):
        g.delete_arcs({Arc(yv(0), xv(0))}).is_forward_order((xv(0), xv(1), yv(0), yv(1)))


def test_pair_arcs_inverts_pairs_of():
    """Each pair's arc, with the state read from orient, in both states and mixed."""
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
        mixed = bytes((TO_Y, TO_X)[(p * 7) % 3 == 1] for p in range(m * n))
        for orient in (bytes([TO_Y]) * (m * n), bytes([TO_X]) * (m * n), mixed):
            g, pairs = BipartiteDigraph(m, n, orient), list(range(m * n))
            arcs = pair_arcs(g, pairs + pairs[::-1])
            assert HeldArcs.pairs_of(g, arcs) == pairs + pairs[::-1]
            assert [pair_state(m, n, arc.tail, arc.head) for arc in arcs[: m * n]] == [*zip(pairs, orient)]
            assert all(type(arc) is Arc for arc in arcs)
            assert all((arc.tail.side == "X") == (orient[p] == TO_Y) for arc, p in zip(arcs, pairs))


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


def test_four_cycles_keep_the_dataclass_value_semantics():
    rng = random.Random(41)
    cycles = [c for _ in range(6) for c in all_4cycles(random_bt(GenSpec(6, 6, rng.randrange(1000))))]
    assert len(cycles) > 100
    cycles += rng.sample(cycles, 10)  # some equal pairs across instances
    refs = [FourCycleReference(c.vertices) for c in cycles]
    for c, r in zip(cycles, refs):
        assert repr(c).removeprefix("FourCycle") == repr(r).removeprefix("FourCycleReference")
        assert str(c) == repr(c) and hash(c) == hash(r)
    for (c, r), (d, s) in itertools.product(zip(cycles, refs), repeat=2):
        assert (c == d, c < d, c <= d) == (r == s, r < s, r <= s)
    order = rng.sample(range(len(cycles)), len(cycles))
    assert [c.vertices for c in sorted(cycles[t] for t in order)] == [r.vertices for r in sorted(refs[t] for t in order)]


def test_a_four_cycle_is_its_plain_one_tuple():
    c = four_cycle(0, 0, 1, 1)
    vertices = (xv(0), yv(0), xv(1), yv(1))
    assert c == FourCycle(vertices) == (vertices,) and hash(c) == hash((vertices,))
    assert repr(c) == (
        "FourCycle(vertices=(VertexRef(side='X', index=0), VertexRef(side='Y', index=0), "
        "VertexRef(side='X', index=1), VertexRef(side='Y', index=1)))"
    )
    assert c.arcs() == (Arc(xv(0), yv(0)), Arc(yv(0), xv(1)), Arc(xv(1), yv(1)), Arc(yv(1), xv(0)))


def test_cycle_pairs_put_the_closing_arc_first():
    g = four_cycle_bt()  # x0>y0, y0>x1, x1>y1, y1>x0 on a 2x2 graph
    c = four_cycle(0, 0, 1, 1)
    # y1>x0 closes the cycle: pair 0*2 + 1; then x0>y0, y0>x1 and x1>y1.
    assert cycle_pairs(g, c) == [1, 0, 2, 3]
    assert cycle_pairs(g, c) == HeldArcs.pairs_of(g, c.arcs()[-1:] + c.arcs()[:-1])
    # x2 lies outside the 2x2 graph and x1>x0, y0>y1 do not cross it: -1 for these arcs.
    assert cycle_pairs(g, four_cycle(0, 0, 2, 1)) == [1, 0, -1, -1]
    # y1>x1 crosses pair 3, which holds x1>y1: -1 for it too.
    assert cycle_pairs(g, FourCycle((xv(0), yv(0), yv(1), xv(1)))) == [-1, 0, -1, -1]
    assert cycle_pairs(g, four_cycle(1, 1, 0, 0)) == [2, 3, 1, 0]  # the cycle from x1
    assert cycle_pairs(g, four_cycle(0, 1, 1, 0)) == [-1, -1, -1, -1]  # the cycle reversed


def test_a_side_other_than_x_or_y_is_no_vertex():
    """A VertexRef on side Z or Q is neither an X nor a Y vertex: no pair, no arc, no order."""
    with pytest.raises(OutOfRange, match="arc z0>x0 outside a 1x1 graph"):
        build(1, 1, [(VertexRef("Z", 0), xv(0))])
    assert pair_state(1, 1, VertexRef("Z", 0), xv(0)) is None and pair_state(1, 1, xv(0), VertexRef("Z", 0)) is None
    t = four_cycle_bt()  # x0>y0, y0>x1, x1>y1, y1>x0
    assert check_fas(t, [(VertexRef("Z", 0), xv(1))]) == "arc z0>x1 is not in the instance"
    bad = FourCycle((xv(0), VertexRef("Q", 0), xv(1), yv(1)))
    assert check_packing(t, [bad], 1) == "['x0', 'q0', 'x1', 'y1'] is not a 4-cycle here"
    assert not t.has_arc((VertexRef("Z", 0), xv(1)))
    g = build(1, 1, [(xv(0), yv(0))])
    assert g.is_forward_order([xv(0), yv(0)])
    assert not g.is_forward_order([xv(0), VertexRef("Z", 0)])


def test_labels_hold_the_shared_handles():
    g = random_digraph(random.Random(43), 3, 4)
    xs, ys = g.labels
    assert all(v is xv(i) for i, v in enumerate(xs)) and all(v is yv(j) for j, v in enumerate(ys))
    assert list(g.vertices()) == [*xs, *ys]


def test_labels_are_one_bounded_table_per_size():
    """Graphs of one size share one ``labels`` object; each other size, empty sides too, gets its own."""
    import btfas.graph_core as graph_module

    g = random_digraph(random.Random(43), 3, 4)
    assert g.labels is BipartiteDigraph(3, 4, bytes(12)).labels is g.reverse().labels
    for m, n in ((4, 3), (0, 4), (3, 0), (0, 0), (0, 5), (5, 0), (1, 1)):
        labels = BipartiteDigraph(m, n, bytes(m * n)).labels
        assert labels == (tuple(map(xv, range(m))), tuple(map(yv, range(n))))
        assert labels is BipartiteDigraph(m, n, bytes(m * n)).labels
    cache = graph_module._labels
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 64
    for n in range(2 * maxsize):
        BipartiteDigraph(1, n, bytes(n)).labels
    assert cache.cache_info().currsize == maxsize


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
