import random
import sys
import types
from dataclasses import replace

import pytest

import btfas
from btfas import oracles
from btfas import (
    FasOutcome,
    GenSpec,
    build,
    enumerate_bt,
    fas_c4free,
    greedy_pack,
    max_c4_packing_exact,
    min_fas_exact,
    random_bt,
    xv,
    yv,
)
from btfas.c4free_fas import find_4cycle
from btfas.certify import check_packing
from btfas.cli import run
from btfas.errors import TooLarge
from btfas.graph_core import four_cycle
from btfas.oracles import all_4cycles, census_sums, enumerate_induced_p4

from helpers import (
    all_oriented,
    all_x_to_y,
    four_cycle_bt,
    four_cycles_oracle,
    max_pack_combinations,
    min_fas_subsets,
    random_digraph,
    six_cycle,
)


def test_min_fas_known_values():
    assert min_fas_exact(four_cycle_bt()).value == 1
    assert min_fas_exact(six_cycle()).value == 1
    result = min_fas_exact(all_x_to_y(3, 3))
    assert result.value == 0
    assert result.witness == frozenset()


def test_min_fas_witness_validates():
    rng = random.Random(77)
    for _ in range(80):
        g = random_digraph(rng, rng.randint(0, 4), rng.randint(0, 4))
        result = min_fas_exact(g)
        assert len(result.witness) == result.value
        assert g.is_feedback_arc_set(result.witness)


def test_min_fas_matches_subset_search():
    for g in all_oriented(2, 2):
        assert min_fas_exact(g).value == min_fas_subsets(g)
    rng = random.Random(55)
    for _ in range(25):
        g = random_digraph(rng, 3, 3)
        assert min_fas_exact(g).value == min_fas_subsets(g)


def test_min_fas_too_large():
    with pytest.raises(TooLarge):
        min_fas_exact(build(12, 11, []))


def test_all_4cycles_small_cases():
    assert all_4cycles(four_cycle_bt()) == (four_cycle(0, 0, 1, 1),)
    assert all_4cycles(build(3, 3, [])) == ()
    assert all_4cycles(six_cycle()) == ()


def test_all_4cycles_matches_permutation_recount():
    rng = random.Random(121)
    for i in range(40):
        g = random_bt(GenSpec(3, 3, seed=i))
        cycles = all_4cycles(g)
        assert len(cycles) == len(four_cycles_oracle(g))
        assert len(set(cycles)) == len(cycles)
        for c in cycles:
            assert check_packing(g, [c]) is None
            assert c.vertices[0].index < c.vertices[2].index
    for _ in range(20):
        g = random_digraph(rng, 4, 3)
        assert len(all_4cycles(g)) == len(four_cycles_oracle(g))


def test_max_packing_known_values():
    assert max_c4_packing_exact(four_cycle_bt()).value == 1
    assert max_c4_packing_exact(six_cycle()).value == 0


def test_max_packing_two_disjoint_cycles():
    g = build(
        4,
        4,
        [
            (xv(0), yv(0)),
            (yv(0), xv(1)),
            (xv(1), yv(1)),
            (yv(1), xv(0)),
            (xv(2), yv(2)),
            (yv(2), xv(3)),
            (xv(3), yv(3)),
            (yv(3), xv(2)),
        ],
    )
    result = max_c4_packing_exact(g)
    assert result.value == 2
    assert len(result.witness) == 2


def test_max_packing_matches_combination_search():
    for i in range(40):
        g = random_bt(GenSpec(3, 3, seed=1000 + i))
        assert max_c4_packing_exact(g).value == max_pack_combinations(g)


def test_max_packing_cap(monkeypatch):
    g = random_bt(GenSpec(4, 4, seed=2))
    assert len(all_4cycles(g)) > 2
    monkeypatch.setattr(oracles, "DEFAULT_CYCLE_CAP", 2)
    with pytest.raises(TooLarge, match="more than 2 4-cycles"):
        max_c4_packing_exact(g)
    monkeypatch.setattr(oracles, "DEFAULT_CYCLE_CAP", len(all_4cycles(g)))
    assert max_c4_packing_exact(g).value >= 1  # the cap itself is allowed


def test_max_packing_needs_no_recursion_depth():
    """16 disjoint 4-cycles at exactly 1,024 pairs, with room for ten more frames.

    The search takes one include step per cycle, so a recursive search
    would need a frame per cycle.
    """
    arcs = []
    for b in range(0, 32, 2):
        arcs += [(xv(b), yv(b)), (yv(b), xv(b + 1)), (xv(b + 1), yv(b + 1)), (yv(b + 1), xv(b))]
    g = build(32, 32, arcs)

    def free_frames(n=0):  # calls left under the limit; C frames count too
        try:
            return free_frames(n + 1)
        except RecursionError:
            return n

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - free_frames() + 10)
    try:
        result = max_c4_packing_exact(g)
    finally:
        sys.setrecursionlimit(limit)
    assert result.value == len(result.witness) == 16


def test_check_census_enumerates_each_graph_once(monkeypatch):
    enumerated = []
    real = oracles.enumerate_induced_p4
    monkeypatch.setattr(oracles, "enumerate_induced_p4", lambda graph: enumerated.append(graph) or real(graph))
    g = random_digraph(random.Random(3), 5, 4)
    assert enumerate_induced_p4(g)  # the check has paths to compare
    assert oracles.check_census(g) is None
    assert enumerated == [g, g.reverse()]


def test_census_limit_is_on_cross_pairs():
    """The same limit holds for both O(m^2 n^2) enumerations: induced P4s and 4-cycles."""
    assert enumerate_induced_p4(build(32, 32, [])) == []
    assert census_sums(build(1, 1024, [])).count2 == 0
    assert all_4cycles(build(1, 1024, [])) == ()
    assert max_c4_packing_exact(build(1, 1024, [])).value == 0
    for g in (build(1, 1025, []), build(33, 32, [])):
        for enumeration in (enumerate_induced_p4, census_sums, all_4cycles, max_c4_packing_exact):
            with pytest.raises(TooLarge):
                enumeration(g)


def test_oracle_heuristic_sandwich():
    for g in enumerate_bt(2, 2):
        packing = greedy_pack(g)
        assert len(packing.cycles) <= max_c4_packing_exact(g).value
        residual = packing.residual
        assert find_4cycle(residual) is None
        certificate = fas_c4free(residual)
        assert min_fas_exact(residual).value <= len(certificate.fas)
    for i in range(30):
        g = random_bt(GenSpec(3, 3, seed=3000 + i))
        assert len(greedy_pack(g).cycles) <= max_c4_packing_exact(g).value


def test_package_exports_exactly_its_public_names():
    public = {
        name
        for name, value in vars(btfas).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(btfas.__all__) == sorted(public)
    assert census_sums.__module__ == oracles.__name__  # the P4 enumeration lives in oracles


# ----------------------------------------------------------------------
# the shared self-checks catch a fault in what they check


def _without_backward_part(real):
    def solve(graph, k):
        outcome = real(graph, k)
        return replace(outcome, backward_part=frozenset()) if isinstance(outcome, FasOutcome) else outcome

    return solve


def _one_cycle_short(real):
    def solve(graph, k):
        outcome = real(graph, k)
        return replace(outcome, packing=replace(outcome.packing, cycles=outcome.packing.cycles[1:]))

    return solve


# name: (check, its arguments, the oracles global it reads, a wrapper that breaks that global)
FAULTS = {
    "first-count-off-by-one": (
        oracles.check_census,
        (six_cycle(),),
        "vertex_counts",
        lambda real: lambda graph: {v: (f + (v == xv(0)), s) for v, (f, s) in real(graph).items()},
    ),
    "brute-force-finds-no-cycle": (
        oracles.check_acyclicity,
        (four_cycle_bt(),),
        "find_cycle_brute",
        lambda real: lambda graph: None,
    ),
    "c4free-bound-one-high": (
        oracles.check_c4free,
        (six_cycle(),),
        "fas_c4free",
        lambda real: lambda graph: replace(real(graph), bound=real(graph).bound + 1),
    ),
    "c4free-set-is-every-arc": (
        oracles.check_c4free,
        (six_cycle(),),
        "fas_c4free",
        lambda real: lambda graph: replace(real(graph), fas=frozenset(graph.arcs())),
    ),
    "c4free-set-drops-an-arc": (
        oracles.check_c4free,
        (six_cycle(),),
        "fas_c4free",
        lambda real: lambda graph: replace(real(graph), fas=frozenset(sorted(real(graph).fas)[1:])),
    ),
    "solve-drops-the-backward-part": (
        oracles.check_dichotomy,
        (four_cycle_bt(), 2),
        "solve",
        _without_backward_part,
    ),
    "solve-drops-a-packed-cycle": (
        oracles.check_dichotomy,
        (four_cycle_bt(), 1),
        "solve",
        _one_cycle_short,
    ),
    "max-packing-reads-zero": (
        oracles.check_oracles,
        (four_cycle_bt(),),
        "max_c4_packing_exact",
        lambda real: lambda graph: oracles.OracleResult(0, ()),
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_shared_checks_and_selftest_catch_a_broken_input(monkeypatch, capsys, fault):
    check, args, name, wrap = FAULTS[fault]
    assert check(*args) is None
    monkeypatch.setattr(oracles, name, wrap(getattr(oracles, name)))
    assert check(*args) is not None
    assert run(["selftest"]) == 3
    assert "internal invariant violation" in capsys.readouterr().err
