import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import random
import sys
import threading

import pytest

import btfas
from btfas import (
    Arc,
    BipartiteDigraph,
    FasOutcome,
    GenSpec,
    PackingOutcome,
    build,
    certify,
    enumerate_bt,
    fas_c4free,
    fas_engine,
    graph_core,
    greedy_pack,
    min_fas_exact,
    random_bt,
    solve,
    xv,
    yv,
)
from btfas.cli import parse_instance, render_instance, run
from btfas.errors import InternalInvariantError, NotATournament, OutOfRange
from btfas.fas_engine import backward_arcs
from btfas.graph_core import HeldArcs, pair_state

from helpers import (
    all_x_to_y,
    backward_arcs_reference,
    check_lazy_arc_sets,
    climb_deep_residual,
    four_cycle_bt,
    one_packed_cycle,
    planted_bt,
    solve_reference,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
# A 16x16 tournament hill-climbed from planted_bt(3, 8): 1,500 seeded
# single-pair flips, each kept unless (max residual trace depth, reversed
# mode reached, Y center reached, trace nodes) went down.
DEEP_RESIDUAL = GOLDEN / "deep_residual.bt"
# climb_deep_residual(0, 8, 2, 8000): 7,108 steps of 1 or 2 flips from
# planted_bt(0, 8), until the residual's trace reaches depth 2.
DEPTH2_RESIDUAL = GOLDEN / "depth2_residual.bt"


def test_backward_arcs_hand_checked():
    g = four_cycle_bt()
    residual = greedy_pack(g).residual  # the cycle's four pairs are packed
    order = (xv(0), xv(1), yv(0), yv(1))
    # y1>x0 crosses pair 0*2 + 1, y0>x1 pair 1*2 + 0.
    assert backward_arcs(g, residual, order) == [1, 2]
    assert HeldArcs(g, backward_arcs(g, residual, order)).arcs() == {Arc(yv(1), xv(0)), Arc(yv(0), xv(1))}
    interleaved = (xv(0), yv(0), xv(1), yv(1))
    assert backward_arcs(g, residual, interleaved) == [1]
    assert backward_arcs(g, g, order) == []  # no pair packed, no backward arc


def test_an_order_missing_a_vertex_fails_the_final_check(capsys, monkeypatch):
    """backward_arcs reads the certified order unchecked; solve's final check rejects it, exit 3."""
    real = fas_engine.fas_c4free

    def dropping(graph):
        certificate = real(graph)
        return dataclasses.replace(certificate, order=certificate.order[:-1])

    monkeypatch.setattr(fas_engine, "fas_c4free", dropping)
    with pytest.raises(InternalInvariantError, match="leaves a cycle"):
        solve(four_cycle_bt(), 2)
    assert run(["solve", str(GOLDEN / "c4_bt.bt"), "--k", "2"]) == 3
    assert "internal invariant violation: deleting the arcs leaves a cycle" in capsys.readouterr().err


def test_backward_arcs_range_over_random_orders():
    rng = random.Random(8)
    for _ in range(300):
        g, residual, order = one_packed_cycle(rng, rng.randint(2, 6), rng.randint(2, 6))
        assert 1 <= len(backward_arcs(g, residual, order)) <= 3


def test_solve_packing_branch():
    out = solve(four_cycle_bt(), 1)
    assert isinstance(out, PackingOutcome)
    assert len(out.packing.cycles) == 1
    assert out.packing.validate(four_cycle_bt())


def test_solve_k0_is_vacuous():
    out = solve(four_cycle_bt(), 0)
    assert isinstance(out, PackingOutcome)
    assert out.packing.cycles == ()
    assert out.packing.residual == four_cycle_bt()


def test_solve_fas_branch_hand_traced():
    g = four_cycle_bt()
    out = solve(g, 2)
    assert isinstance(out, FasOutcome)
    assert len(out.packing.cycles) == 1
    assert out.residual_part == frozenset()
    assert out.order == (xv(0), xv(1), yv(0), yv(1))
    assert out.backward_part == {Arc(yv(0), xv(1)), Arc(yv(1), xv(0))}
    assert out.fas == out.backward_part
    assert out.bound == 7
    assert g.is_feedback_arc_set(out.fas)


def test_the_feedback_arc_set_is_held_once_as_its_two_parts():
    assert "fas" not in {f.name for f in dataclasses.fields(FasOutcome)}
    out = FasOutcome(2, greedy_pack(four_cycle_bt()), frozenset(), frozenset({Arc(yv(1), xv(0))}), (), 7)
    assert out.fas == {Arc(yv(1), xv(0))}


def test_solve_acyclic_tournament():
    g = all_x_to_y(3, 3)
    out = solve(g, 1)
    assert isinstance(out, FasOutcome)
    assert out.fas == frozenset()
    assert out.bound == 0


def test_solve_rejects_incomplete_orientations():
    with pytest.raises(NotATournament):
        solve(build(2, 2, [(xv(0), yv(0))]), 1)
    with pytest.raises(OutOfRange):
        solve(four_cycle_bt(), -1)


def test_solve_is_total_on_empty_sides():
    for g in (build(0, 0), build(0, 3), build(4, 0)):
        out = solve(g, 2)
        assert isinstance(out, FasOutcome)
        assert out.fas == frozenset()
        assert out.order == tuple(g.vertices())


def _check_outcome(g, k, out):
    if isinstance(out, PackingOutcome):
        assert len(out.packing.cycles) >= k
        assert out.packing.validate(g)
    else:
        assert len(out.packing.cycles) <= k - 1
        assert len(out.residual_part) <= 4 * (k - 1)
        assert len(out.backward_part) <= 3 * len(out.packing.cycles)
        assert out.fas == out.residual_part | out.backward_part
        assert len(out.fas) <= 7 * (k - 1)
        assert g.is_feedback_arc_set(out.fas)


def test_dichotomy_on_exhaustive_2x2():
    for g in enumerate_bt(2, 2):
        for k in range(5):
            _check_outcome(g, k, solve(g, k))


def test_dichotomy_on_random_tournaments():
    for i in range(60):
        g = random_bt(GenSpec(3 + i % 4, 3 + (i // 4) % 4, seed=i))
        for k in range(5):
            _check_outcome(g, k, solve(g, k))


def test_order_makes_every_kept_arc_forward():
    for i in range(40):
        g = random_bt(GenSpec(4, 4, seed=7000 + i))
        out = solve(g, 3)
        if isinstance(out, FasOutcome):
            residual = out.packing.residual.delete_arcs(out.residual_part)
            pos = {v: idx for idx, v in enumerate(out.order)}
            assert all(pos[a.tail] < pos[a.head] for a in residual.arcs())


def test_exact_minimum_never_exceeds_the_guarantee():
    for g in enumerate_bt(2, 2):
        opt = min_fas_exact(g).value
        for k in range(4):
            out = solve(g, k)
            if isinstance(out, FasOutcome):
                assert opt <= len(out.fas) <= 7 * (k - 1)


def test_planted_tournaments_reach_the_residual_branch():
    nonempty = set()
    for blocks in (4, 6, 8, 16):
        for seed in range(10):
            g = planted_bt(seed, blocks)
            k = len(greedy_pack(g).cycles) + 1  # one more than greedy finds: the FAS branch
            out = solve(g, k)
            assert isinstance(out, FasOutcome)
            assert len(out.residual_part) <= 4 * (k - 1)
            assert len(out.backward_part) <= 3 * (k - 1)
            for cycle in out.packing.cycles:
                assert 1 <= len(out.backward_part & set(cycle.arcs())) <= 3
            if out.residual_part:
                nonempty.add((blocks, seed))
    assert {(4, 0), (4, 2), (6, 0), (6, 1), (8, 0), (8, 1), (16, 0), (16, 1)} <= nonempty, nonempty
    assert len(nonempty) >= 20, nonempty


def test_backward_arcs_matches_the_reference_on_random_orders():
    """The pass gives the reference's arcs, each once, on random permutations as orders."""
    rng = random.Random(31)
    for _ in range(300):
        g = random_bt(GenSpec(rng.randint(2, 7), rng.randint(2, 7), seed=rng.randrange(10**6)))
        packing = greedy_pack(g)
        order = list(g.vertices())
        rng.shuffle(order)
        pairs = backward_arcs(g, packing.residual, order)
        reference = backward_arcs_reference(order, packing.cycles)
        assert len(pairs) == len(reference)
        assert HeldArcs(g, pairs).arcs() == reference


def test_solve_matches_the_object_reference_on_exhaustive_small_tournaments():
    for g in list(enumerate_bt(2, 2)) + list(enumerate_bt(3, 3)):
        for k in range(5):
            assert solve(g, k) == solve_reference(g, k)


def test_solve_matches_the_object_reference_on_random_tournaments():
    for seed in range(200):
        g = random_bt(GenSpec(24, 24, seed=seed))
        k = 24 * 24 // 4 + 1
        assert solve(g, k) == solve_reference(g, k)
    for side in (64, 128):
        g = random_bt(GenSpec(side, side, seed=side))
        for k in (len(greedy_pack(g).cycles) + 1, 3):
            assert solve(g, k) == solve_reference(g, k)


def test_solve_matches_the_object_reference_on_planted_tournaments():
    nonempty = 0
    for blocks in (4, 6, 8, 16):
        for seed in range(40):
            g = planted_bt(seed, blocks)
            k = len(greedy_pack(g).cycles) + 1
            out = solve(g, k)
            assert out == solve_reference(g, k)
            nonempty += bool(out.residual_part)
    assert nonempty >= 100, nonempty


def test_solve_runs_the_deep_decomposition_branches():
    """Inside solve the residual's decomposition reaches depth 1, reversed mode and a Y center."""
    g = parse_instance(DEEP_RESIDUAL.read_text(encoding="utf-8"))
    k = len(greedy_pack(g).cycles) + 1
    assert k == 44
    out = solve(g, k)
    assert isinstance(out, FasOutcome)
    assert len(out.residual_part) == 2
    certificate = fas_c4free(out.packing.residual)
    assert certificate.fas == out.residual_part
    assert max(node.depth for node in certificate.trace) >= 1
    assert any(node.mode == "reversed" for node in certificate.trace)
    assert any(node.center.side == "Y" for node in certificate.trace)
    assert out == solve_reference(g, k)


def test_solve_reaches_depth_two_in_the_residual():
    """Inside solve the residual's decomposition reaches depth 2, reversed mode and a Y center."""
    g = parse_instance(DEPTH2_RESIDUAL.read_text(encoding="utf-8"))
    k = len(greedy_pack(g).cycles) + 1
    assert k == 42
    out = solve(g, k)
    assert isinstance(out, FasOutcome)
    assert out.residual_part
    certificate = fas_c4free(out.packing.residual)
    assert certificate.fas == out.residual_part
    assert max(node.depth for node in certificate.trace) >= 2
    assert any(node.mode == "reversed" for node in certificate.trace)
    assert any(node.center.side == "Y" for node in certificate.trace)
    assert out == solve_reference(g, k)


def test_the_depth_two_golden_is_the_climbs_result():
    climbed = climb_deep_residual(0, 8, 2, 8000)
    assert render_instance(climbed) == DEPTH2_RESIDUAL.read_text(encoding="utf-8")


def _fas_branch_corpus():
    """(tournament, k) pairs that take solve's feedback-arc-set branch."""
    for seed in range(200):
        yield random_bt(GenSpec(24, 24, seed=seed)), 24 * 24 // 4 + 1
    for blocks in (4, 6, 8, 16):
        for seed in range(40):
            g = planted_bt(seed, blocks)
            yield g, len(greedy_pack(g).cycles) + 1
    yield parse_instance(DEEP_RESIDUAL.read_text(encoding="utf-8")), 44
    yield parse_instance(DEPTH2_RESIDUAL.read_text(encoding="utf-8")), 42


def test_the_order_is_the_smallest_topological_order_of_the_input_minus_fas():
    """Kahn's smallest-label order of the residual minus its cut is also that of the input minus fas."""
    nonempty = 0
    for g, k in _fas_branch_corpus():
        out = solve(g, k)
        assert isinstance(out, FasOutcome)
        kept = g.clear_pairs(pair_state(g.m, g.n, *arc)[0] for arc in out.fas)
        assert out.order == kept.topological_order().order
        nonempty += bool(out.residual_part)
    assert nonempty >= 100, nonempty


def test_the_parts_keep_the_papers_bounds():
    """Each packed cycle has 1 to 3 arcs in backward_part; the parts fit 3(k-1), 4(k-1) and 7(k-1)."""
    nonempty = 0
    for g, k in _fas_branch_corpus():
        out = solve(g, k)
        assert isinstance(out, FasOutcome)
        per_cycle = [len(out.backward_part.intersection(cycle.arcs())) for cycle in out.packing.cycles]
        assert all(1 <= count <= 3 for count in per_cycle), per_cycle
        assert sum(per_cycle) == len(out.backward_part)  # every backward arc is a packed one
        assert len(out.backward_part) <= 3 * (k - 1)
        assert len(out.residual_part) <= 4 * (k - 1)
        assert len(out.fas) <= 7 * (k - 1)
        nonempty += bool(out.residual_part)
    assert nonempty >= 100, nonempty


def _library_modules():
    names = [info.name for info in pkgutil.iter_modules(btfas.__path__) if info.name != "__main__"]
    return [importlib.import_module(f"btfas.{name}") for name in names]


def test_the_fas_branch_builds_no_arc(monkeypatch):
    """solve checks and holds both parts as pairs: no pair_arcs or pair_state call, and no part built.

    Every library module that binds either name is patched: only ``graph_core`` does.  Reading a part
    then builds it through ``pair_arcs``, which shows that the counter sees the calls.
    """
    calls = {"pair_arcs": 0, "pair_state": 0}
    modules = _library_modules()
    patched = {}
    for name in calls:
        real = getattr(graph_core, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        patched[name] = {module for module in modules if hasattr(module, name)}
        for module in patched[name]:
            monkeypatch.setattr(module, name, counted)
    assert patched == {"pair_arcs": {graph_core}, "pair_state": {graph_core}}
    deep, depth2 = (parse_instance(path.read_text(encoding="utf-8")) for path in (DEEP_RESIDUAL, DEPTH2_RESIDUAL))
    for g, k in [(deep, 44), (depth2, 42), (random_bt(GenSpec(24, 24, seed=5)), 145)]:
        built = calls["pair_arcs"]
        out = solve(g, k)
        assert isinstance(out, FasOutcome)
        assert calls == {"pair_arcs": built, "pair_state": 0}
        assert all(isinstance(vars(out)[part], HeldArcs) for part in ("residual_part", "backward_part"))
        assert out.backward_part and (out.residual_part or g.m == 24)  # both goldens have a residual cut
        assert not any(isinstance(vars(out)[part], HeldArcs) for part in ("residual_part", "backward_part"))
        assert calls == {"pair_arcs": built + 2, "pair_state": 0}  # one call per part read


def test_fas_is_the_one_non_empty_part_itself():
    """With an empty residual part, as on random instances, reading fas builds no third set."""
    out = solve(random_bt(GenSpec(24, 24, seed=5)), 145)
    assert not out.residual_part and out.backward_part
    assert out.fas is out.backward_part and out.fas is out.fas
    deep = solve(parse_instance(DEEP_RESIDUAL.read_text(encoding="utf-8")), 44)
    assert deep.residual_part and deep.backward_part
    assert deep.fas == deep.residual_part | deep.backward_part
    assert len(deep.fas) == len(deep.residual_part) + len(deep.backward_part)
    both_empty = dataclasses.replace(out, residual_part=frozenset(), backward_part=frozenset())
    assert both_empty.fas == frozenset()


def test_lazy_outcomes_equal_their_eager_twins():
    """Every outcome on the corpus behaves as the one built publicly from frozensets, read or unread."""
    nonempty = 0
    for g, k in _fas_branch_corpus():
        lazy, source = solve(g, k), solve(g, k)
        parts = frozenset(source.residual_part), frozenset(source.backward_part)
        eager = FasOutcome(k, source.packing, *parts, source.order, source.bound)
        check_lazy_arc_sets(lazy, eager, ("residual_part", "backward_part"))
        nonempty += bool(parts[0])
    assert nonempty >= 100, nonempty


def test_threads_racing_on_the_first_read_build_equal_sets():
    """Four threads read fas of one unread outcome at once, switching every microsecond: equal sets."""
    g = random_bt(GenSpec(24, 24, seed=7))
    expected = solve(g, 145).fas
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            out, results = solve(g, 145), []
            threads = [threading.Thread(target=lambda: results.append(out.fas)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 4 and all(fas == expected for fas in results)
    finally:
        sys.setswitchinterval(interval)


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(BipartiteDigraph, name)

        def counting(self, *args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BipartiteDigraph, name, counting)
    return calls


def test_fas_branch_sorts_once_and_copies_at_most_three_times(monkeypatch):
    """One FAS-branch solve: the residual cut's sort is the only one, no delete_arcs, and the
    feedback arc set reaches the final check as pairs, with no listed-mode check_fas_pairs call."""
    planted = planted_bt(0, 8)
    # Copies: the residual, the residual cut's check unless the cut is
    # empty, and the final check.
    cases = [
        (random_bt(GenSpec(24, 24, seed=5)), 24 * 24 // 4 + 1, 2),
        (planted, len(greedy_pack(planted).cycles) + 1, 3),
    ]
    binders = {module for module in _library_modules() if hasattr(module, "check_fas_pairs")}
    assert certify in binders
    for g, k, copies in cases:
        calls = _count_calls(monkeypatch, ("topological_order", "delete_arcs", "__post_init__"))
        checks = []  # whether each check_fas_pairs call is in listed mode
        for module in binders:
            real = module.check_fas_pairs

            def counted(*args, real=real, **kwargs):
                checks.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("spell") is not None)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "check_fas_pairs", counted)
        out = solve(g, k)
        assert isinstance(out, FasOutcome)
        assert calls["topological_order"] == 1
        assert calls["__post_init__"] == copies  # every BipartiteDigraph construction
        assert calls["delete_arcs"] == 0
        assert checks == [False, False]  # the residual cut's check and the final check
        certify.check_fas(g, [])
        assert checks == [False, False, True]  # the counter sees certify's own calls
        monkeypatch.undo()
    assert out.residual_part  # the planted instance runs the residual branch
