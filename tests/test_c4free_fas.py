import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from btfas import (
    Arc,
    BipartiteDigraph,
    FasCertificate,
    GenSpec,
    build,
    enumerate_bt,
    fas_c4free,
    min_fas_exact,
    random_bt,
    random_c4free,
    solve,
    xv,
    yv,
)
from btfas import c4free_fas, certify, p4_census
from btfas.c4free_fas import find_4cycle
from btfas.errors import HasFourCycle, InternalInvariantError
from btfas.graph_core import cycle_pairs, four_cycle
from btfas.oracles import all_4cycles

from helpers import (
    all_oriented,
    all_x_to_y,
    c4free_blowup,
    check_lazy_arc_sets,
    fas_c4free_reference,
    find_4cycle_reference,
    four_cycle_bt,
    four_cycles_oracle,
    random_digraph,
    six_cycle,
    trim_of,
)


def test_find_4cycle_on_the_tournament():
    assert find_4cycle(four_cycle_bt()) == four_cycle(0, 0, 1, 1)


def test_find_4cycle_absent_cases():
    assert find_4cycle(six_cycle()) is None
    assert find_4cycle(all_x_to_y(4, 4)) is None


def _every_after(m):
    """A cycle at every ordered (x, x') pair, for find_4cycle's ``after``."""
    return [four_cycle(i, 0, k, 1) for i in range(m) for k in range(m) if i != k]


def _pair(cycle):
    return cycle.vertices[0].index, cycle.vertices[2].index


def _afters_in_contract(g, first):
    """The ``_every_after`` cycles before whose pair no ordered pair of g holds a 4-cycle.

    ``first`` is the reference's fresh first cycle, which decides: None, or a pair at or after
    the resume pair.
    """
    return [after for after in _every_after(g.m) if first is None or _pair(first) >= _pair(after)]


def _assert_resumed_chain(g):
    """greedy_pack's chain: each residual resumed after the cycle before finds the fresh first one."""
    residual, previous = g, None
    while True:
        cycle = find_4cycle(residual, after=previous)
        assert cycle == find_4cycle_reference(residual)
        if cycle is None:
            return
        residual, previous = residual.clear_pairs(cycle_pairs(residual, cycle)), cycle


def test_find_4cycle_matches_the_nested_loop_on_all_small_digraphs():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for g in all_oriented(m, n):
            first = find_4cycle_reference(g)
            assert find_4cycle(g) == first
            # The scan visits only pairs x < x', so it returns the first cycle all_4cycles lists.
            assert first == next(iter(all_4cycles(g)), None)
            _assert_resumed_chain(g)
            if m * n <= 6:  # 3x3 skips the every-pair resumes to keep the suite fast
                for after in _afters_in_contract(g, first):
                    assert find_4cycle(g, after) == find_4cycle_reference(g, after)


def test_find_4cycle_resumes_like_the_nested_loop_on_random_graphs():
    rng = random.Random(808)
    for t in range(24):
        m, n = rng.randint(8, 16), rng.randint(8, 16)
        if t % 2:
            g = random_digraph(rng, m, n)
        else:
            g = BipartiteDigraph(m, n, bytes(rng.choice((1, 2)) for _ in range(m * n)))
        first = find_4cycle_reference(g)
        assert find_4cycle(g) == first
        _assert_resumed_chain(g)
        for after in _afters_in_contract(g, first):
            assert find_4cycle(g, after) == find_4cycle_reference(g, after)


def test_find_4cycle_agrees_with_exhaustive_scan():
    rng = random.Random(271)
    for _ in range(120):
        g = random_digraph(rng, rng.randint(0, 4), rng.randint(0, 4))
        found = find_4cycle(g)
        exhaustive = four_cycles_oracle(g)
        assert (found is None) == (not exhaustive)
        if found is not None:
            assert certify.check_packing(g, [found]) is None


def test_trim_removes_everything_acyclic():
    sub, removed = trim_of(all_x_to_y(3, 2))
    assert (sub.graph.m, sub.graph.n) == (0, 0)
    assert len(removed) == 5


def test_trim_keeps_the_six_cycle():
    g = six_cycle()
    sub, removed = trim_of(g)
    assert sub.graph == g
    assert removed == frozenset()


def test_trim_drops_only_the_isolated_vertex():
    arcs = [(a.tail, a.head) for a in six_cycle().arcs()]
    g = build(3, 4, arcs)
    sub, removed = trim_of(g)
    assert removed == {yv(3)}
    assert (sub.graph.m, sub.graph.n) == (3, 3)
    assert sub.graph == six_cycle()


def test_six_cycle_certificate_matches_hand_trace():
    g = six_cycle()
    cert = fas_c4free(g)
    assert cert.fas == frozenset({Arc(xv(1), yv(1))})
    assert cert.bound == 3
    assert g.is_feedback_arc_set(cert.fas)
    assert min_fas_exact(g).value == 1
    root = cert.trace[0]
    assert root.center == xv(0)
    assert root.mode == "direct"
    assert root.cut_size == 1


def test_arcless_graph_needs_nothing():
    cert = fas_c4free(build(3, 3, []))
    assert cert.fas == frozenset()
    assert cert.bound == 9


def test_rejects_inputs_with_a_4cycle():
    with pytest.raises(HasFourCycle) as exc:
        fas_c4free(four_cycle_bt())
    assert exc.value.cycle == four_cycle(0, 0, 1, 1)


def test_c4free_tournaments_are_exactly_the_acyclic_ones():
    for g in enumerate_bt(3, 3):
        c4free = find_4cycle(g) is None
        assert c4free == (g.topological_order().order is not None)
        if c4free:
            cert = fas_c4free(g)
            assert cert.fas == frozenset()


def test_certificates_on_random_c4free_instances():
    for i in range(120):
        spec = GenSpec(2 + i % 6, 2 + (i // 6) % 6, seed=i)
        g = random_c4free(spec)
        cert = fas_c4free(g)
        assert len(cert.fas) <= cert.bound == g.absent_pair_count()
        assert g.is_feedback_arc_set(cert.fas)
        assert all(g.has_arc(a) for a in cert.fas)


def test_reversal_path_bound():
    for i in range(60):
        g = random_c4free(GenSpec(4, 4, seed=900 + i))
        r = g.reverse()
        assert fas_c4free(g).bound == fas_c4free(r).bound == g.absent_pair_count()
        assert len(fas_c4free(r).fas) <= g.absent_pair_count()


def test_trace_records_are_well_formed():
    for i in range(40):
        g = random_c4free(GenSpec(5, 5, seed=50 + i))
        cert = fas_c4free(g)
        vertices = set(g.vertices())
        for node in cert.trace:
            assert node.mode in ("direct", "reversed")
            assert node.cut_size >= 0
            # centers are surfaced in root labels
            assert node.center in vertices
        depths = [node.depth for node in cert.trace]
        assert not depths or depths[0] == 0


def test_exact_optimum_never_beats_the_bound():
    for i in range(40):
        g = random_c4free(GenSpec(3, 4, seed=77 + i))
        cert = fas_c4free(g)
        assert min_fas_exact(g).value <= len(cert.fas) <= g.absent_pair_count()


# ----------------------------------------------------------------------
# the mask decomposition against the recursive reference


def test_certificates_equal_the_reference_on_blowups():
    reached = set()
    for seed in range(60):
        g = c4free_blowup(seed)
        cert = fas_c4free(g)
        assert cert == fas_c4free_reference(g), seed
        for node in cert.trace:
            reached.update((node.mode, node.center.side, min(node.depth, 2)))
    # Every branch of the decomposition runs, so the comparison is not vacuous.
    assert reached == {"direct", "reversed", "X", "Y", 0, 1, 2}


def test_lazy_certificates_equal_their_eager_twins():
    """Each blow-up certificate behaves as the one built publicly from a frozenset, read or unread."""
    sizes = []
    for seed in range(30):
        g = c4free_blowup(seed)
        lazy, source = fas_c4free(g), fas_c4free(g)
        eager = FasCertificate(frozenset(source.fas), source.bound, source.trace, source.order)
        check_lazy_arc_sets(lazy, eager, ("fas",))
        sizes.append(len(eager.fas))
    assert min(sizes) > 0, sizes


def test_certificates_equal_the_reference_across_the_multiply_cut_off(monkeypatch):
    """66 to 90 vertices per side: the root census repeats masks by bytes, a deeper one by multiplication."""
    strides = []
    real = c4free_fas.census

    def census(rows, ps, qs):
        strides.append(qs.bit_length() // 8 + 1)
        return real(rows, ps, qs)

    monkeypatch.setattr(c4free_fas, "census", census)
    for seed in (3, 5, 10):
        g = c4free_blowup(seed, (66, 90))
        strides.clear()
        cert = fas_c4free(g)
        assert strides[0] > p4_census.MULTIPLY_MAX_STRIDE >= min(strides), seed
        assert cert == fas_c4free_reference(g), seed


def test_certificates_equal_the_reference_on_all_3x3_digraphs():
    compared = 0
    for g in all_oriented(3, 3):
        if find_4cycle(g) is None:
            assert fas_c4free(g) == fas_c4free_reference(g)
            compared += 1
    assert compared == 16395


def _frame_depth(frame) -> int:
    depth = 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _deepest_frames(monkeypatch, g):
    """fas_c4free's certificate, its deepest frame outside the final check, and check entries.

    Depths count frames above this helper's.  The final ``check_fas_pairs`` is
    patched to record the depth it is entered at; the frames of its leaf
    call chain are the checker's, not the decomposition's, and not counted.
    """
    base = _frame_depth(sys._getframe())
    deepest, check_entries, checking = 0, [], False

    def check_fas_pairs_recorded(*args, **kwargs):
        nonlocal checking
        check_entries.append(_frame_depth(sys._getframe()) - base)
        checking = True
        try:
            return certify.check_fas_pairs(*args, **kwargs)
        finally:
            checking = False

    def on_event(frame, event, arg):
        nonlocal deepest
        if event == "call" and not checking:
            deepest = max(deepest, _frame_depth(frame) - base)

    monkeypatch.setattr(c4free_fas, "check_fas_pairs", check_fas_pairs_recorded)
    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        cert = fas_c4free(g)
    finally:
        sys.setprofile(previous)
    return cert, deepest, check_entries


def test_decomposition_depth_needs_no_stack_depth(monkeypatch):
    """A deeper decomposition takes no more frames; at most 8 in all.

    The recursive reference in ``helpers`` takes 14 frames at trace depth
    1 and 20 at trace depth 3.
    """
    deepest_at = {}
    for seed in (1, 7):
        g = c4free_blowup(seed)
        cert, deepest, check_entries = _deepest_frames(monkeypatch, g)
        assert cert == fas_c4free_reference(g)
        assert check_entries == [2]  # once, called by fas_c4free itself
        deepest_at[max(node.depth for node in cert.trace)] = deepest
    assert sorted(deepest_at) == [1, 3]
    assert deepest_at[1] == deepest_at[3] <= 8


def test_the_stages_run_under_the_names_the_spans_bind(monkeypatch):
    """Trim, census and partition are looked up in ``c4free_fas`` at every node.

    The benchmark's traced run times trim and partition by rebinding these
    names, so a stage called under another name would read 0 there.  The
    census has no span yet (ROADMAP item 2); it is counted here all the
    same.  Every node that survives trimming censuses each side once, each
    again when it reverses, and splits once.
    """
    calls = {"trim_acyclic_vertices": 0, "census": 0, "partition_around": 0}

    def counted(name):
        real = getattr(c4free_fas, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(c4free_fas, name, counted(name))
    for seed in (1, 7):
        for name in calls:
            calls[name] = 0
        trace = fas_c4free(c4free_blowup(seed)).trace
        reversed_nodes = sum(node.mode == "reversed" for node in trace)
        assert reversed_nodes > 0
        assert calls["partition_around"] == len(trace)
        assert calls["census"] == 2 * (len(trace) + reversed_nodes)
        assert calls["trim_acyclic_vertices"] >= len(trace) > 0


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_trace_properties_on_blowups(seed):
    g = c4free_blowup(seed)
    cert = fas_c4free(g)
    bound = g.absent_pair_count()
    assert len(cert.fas) <= bound == cert.bound
    assert g.is_feedback_arc_set(cert.fas)
    assert len(cert.fas) == sum(node.cut_size for node in cert.trace)
    depths = [node.depth for node in cert.trace]
    assert depths[0] == 0
    assert all(b <= a + 1 for a, b in zip(depths, depths[1:]))
    # The trace is a preorder: a node's parent is the last node one level up.
    children, path = {}, []
    for t, node in enumerate(cert.trace):
        del path[node.depth :]
        children.setdefault(path[-1] if path else None, []).append(t)
        path.append(t)
    # The induction step at every node: its cut and its halves' bounds fit its
    # own bound, the absent pairs at the root and elsewhere the parent's entry
    # for its half.  Half 1 is traced first; a lone traced child may be either.
    for parent, kids in children.items():
        for half, t in enumerate(kids):
            node = cert.trace[t]
            if parent is None:
                own = bound
            else:
                entries = cert.trace[parent].sub_bounds
                own = entries[half] if len(kids) == 2 else max(entries)
            assert node.cut_size + sum(node.sub_bounds) <= own


@pytest.mark.parametrize(
    "broken, reason",
    [
        (lambda part: part._replace(ins=0), "one-sided center"),
        (lambda part: part._replace(ins=part.ins | part.non), "from two into ins"),
    ],
)
def test_a_broken_partition_is_an_internal_invariant_violation(monkeypatch, broken, reason):
    real = c4free_fas.partition_around
    monkeypatch.setattr(c4free_fas, "partition_around", lambda *args: broken(real(*args)))
    with pytest.raises(InternalInvariantError, match=reason):
        fas_c4free(six_cycle())


def test_a_census_without_a_center_is_an_internal_invariant_violation(monkeypatch):
    """Every slack positive, in both directions: no vertex has first <= sec."""
    real = c4free_fas.census
    monkeypatch.setattr(c4free_fas, "census", lambda *args: [(c, 1, 0) for c, _, _ in real(*args)])
    with pytest.raises(InternalInvariantError, match="no center has first <= sec"):
        fas_c4free(six_cycle())


def test_an_acyclic_residual_packs_no_rows(monkeypatch):
    """solve-fas-style requests trim their residual away before any census packs a row."""
    calls = []
    real = c4free_fas.census
    monkeypatch.setattr(c4free_fas, "census", lambda *args: calls.append(args) or real(*args))
    for seed in range(20):
        outcome = solve(random_bt(GenSpec(24, 24, seed=seed)), 24 * 24 // 4 + 1)
        assert not outcome.residual_part and outcome.backward_part
    assert calls == []
    fas_c4free(six_cycle())  # the same patch does count a decomposition
    assert len(calls) == 2
