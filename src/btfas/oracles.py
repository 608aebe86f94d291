"""Exponential-time exact references and the self-checks built on them.

Nothing here is needed on the fast path; these routines exist so that
every polynomial-time result in the package can be checked against a
ground truth on small instances: exact minimum feedback arc sets and
maximum packings, a brute-force cycle search, the enumeration of induced
P4s behind ``census`` as (v1, v2, v3, v4) tuples, whose two class kinds
are keyed by the tuples (v1, v3, v4) and (v1, v2, v4), and the five
``check_*`` self-checks that ``selftest`` and the tests share.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

from .c4free_fas import fas_c4free
from .certify import check_fas, check_packing, require
from .errors import InternalInvariantError, TooLarge
from .fas_engine import PackingOutcome, fas_bound, solve
from .graph_core import (
    TO_X,
    TO_Y,
    Arc,
    BipartiteDigraph,
    FourCycle,
    VertexRef,
    cycle_pairs,
    four_cycle,
    xv,
    yv,
)
from .p4_census import vertex_counts

MAX_EXACT_VERTICES = 22
DEFAULT_CYCLE_CAP = 50  # exponential search: in a seeded sweep 50 cycles took <= 0.6 s, 61 over 5 s
# The induced-P4 and 4-cycle enumerations loop over O(m^2 n^2) tuples: 32x32 takes seconds.
MAX_CENSUS_PAIRS = 1024


@dataclass(frozen=True)
class OracleResult:
    """An optimum value plus a witness attaining it."""

    value: int
    witness: Union[frozenset[Arc], tuple[FourCycle, ...]]


def min_fas_exact(graph: BipartiteDigraph) -> OracleResult:
    """Exact minimum feedback arc set via a subset dynamic program.

    The minimum feedback arc set equals the minimum, over all linear
    orders of the vertices, of the number of backward arcs: the backward
    arcs of any order form a feedback arc set, and conversely deleting a
    feedback arc set admits a topological order under which every backward
    arc belongs to that set.  The program builds the order from the left;
    dp[placed] is the cheapest way to open an order with exactly the
    vertex set ``placed``, where appending v costs the arcs into v from
    the vertices still unplaced.  Runs in O(2^(m+n) * (m+n)) time, so the
    instance must have at most 22 vertices.
    """
    total = graph.m + graph.n
    if total > MAX_EXACT_VERTICES:
        raise TooLarge(f"{total} vertices exceed the exact-solver limit of {MAX_EXACT_VERTICES}")
    verts = list(graph.vertices())
    # Vertex ids: x_i is i, y_j is m + j.
    in_mask = [mask << graph.m for mask in graph.x_masks[1]] + list(graph.y_masks[1])
    full = (1 << total) - 1
    infinity = total * total + 1
    dp = [infinity] * (full + 1)
    dp[0] = 0
    choice = bytearray(full + 1)
    for placed in range(1, full + 1):
        unplaced = full ^ placed
        best, best_v, rest = infinity, 0, placed
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            rest ^= bit
            cost = dp[placed ^ bit] + (in_mask[v] & unplaced).bit_count()
            if cost < best:
                best, best_v = cost, v
        dp[placed] = best
        choice[placed] = best_v
    order = list(verts)  # each entry is overwritten
    placed = full
    while placed:
        v = choice[placed]
        placed ^= 1 << v
        order[placed.bit_count()] = verts[v]
    position = {v: i for i, v in enumerate(order)}
    witness = frozenset(a for a in graph.arcs() if position[a.tail] > position[a.head])
    if len(witness) != dp[full]:
        raise InternalInvariantError("reconstructed witness disagrees with the optimum")
    require(check_fas(graph, witness))
    return OracleResult(dp[full], witness)


def all_4cycles(graph: BipartiteDigraph) -> tuple[FourCycle, ...]:
    """Every 4-cycle, canonicalized to start at its smaller X-vertex."""
    return tuple(_iter_4cycles(graph))


def _iter_4cycles(graph: BipartiteDigraph) -> Iterator[FourCycle]:
    _require_census_size(graph)  # on the first next(), before any tuple is visited
    if graph.m < 2 or graph.n < 2:  # no 4-cycle; m(m-1)/2 empty X pairs could still be many
        return
    for xi, xk in itertools.combinations(range(graph.m), 2):
        for yj, yl in itertools.permutations(range(graph.n), 2):
            if (
                graph.pair(xi, yj) == TO_Y
                and graph.pair(xk, yj) == TO_X
                and graph.pair(xk, yl) == TO_Y
                and graph.pair(xi, yl) == TO_X
            ):
                yield four_cycle(xi, yj, xk, yl)


def max_c4_packing_exact(graph: BipartiteDigraph) -> OracleResult:
    """Exact maximum number of pairwise arc-disjoint 4-cycles.

    Branch and bound over the full 4-cycle list in canonical order, with
    an arc-occupancy bitmap and the remaining-cycle count as the bound; the
    search runs on an explicit stack, so it needs no recursion depth.
    More than ``DEFAULT_CYCLE_CAP`` 4-cycles raise ``TooLarge``.
    """
    cycles = tuple(itertools.islice(_iter_4cycles(graph), DEFAULT_CYCLE_CAP + 1))  # stop past the cap
    if len(cycles) > DEFAULT_CYCLE_CAP:
        raise TooLarge(f"more than {DEFAULT_CYCLE_CAP} 4-cycles exceed the configured cap")
    masks = [sum(1 << p for p in cycle_pairs(graph, c)) for c in cycles]

    best: tuple[FourCycle, ...] = ()
    stack = [(0, 0, best)]  # (next cycle index, arcs used, cycles chosen); include pops before exclude
    while stack:
        idx, used, chosen = stack.pop()
        if len(chosen) > len(best):
            best = chosen
        if idx == len(cycles) or len(chosen) + (len(cycles) - idx) <= len(best):
            continue
        stack.append((idx + 1, used, chosen))
        if not used & masks[idx]:
            stack.append((idx + 1, used | masks[idx], chosen + (cycles[idx],)))
    require(check_packing(graph, best, len(best)))
    return OracleResult(len(best), best)


def find_cycle_brute(graph: BipartiteDigraph) -> Optional[tuple[VertexRef, ...]]:
    """Exhaustive search for any directed cycle, independent of Kahn's algorithm.

    Tries every alternating vertex sequence of every feasible length, so
    it is only usable on very small graphs.
    """
    for half in range(2, min(graph.m, graph.n) + 1):
        for xs in itertools.permutations(range(graph.m), half):
            for ys in itertools.permutations(range(graph.n), half):
                if all(
                    graph.pair(xs[t], ys[t]) == TO_Y and graph.pair(xs[(t + 1) % half], ys[t]) == TO_X
                    for t in range(half)
                ):
                    return tuple(v for i, j in zip(xs, ys) for v in (xv(i), yv(j)))
    return None


# ----------------------------------------------------------------------
# induced P4s by enumeration, the cross-check of the p4_census closed forms


def enumerate_induced_p4(graph: BipartiteDigraph) -> list[tuple[VertexRef, VertexRef, VertexRef, VertexRef]]:
    """All induced P4s as sorted (v1, v2, v3, v4) tuples, by brute force over three-arc walks.

    A walk through four distinct vertices is induced when v1 and v4 are non-adjacent.
    Instances over ``MAX_CENSUS_PAIRS`` cross pairs raise :class:`TooLarge`.
    """
    _require_census_size(graph)
    out: dict[VertexRef, list[VertexRef]] = {v: [] for v in graph.vertices()}
    for tail, head in graph.arcs():
        out[tail].append(head)
    walks = ((v1, v2, v3, v4) for v1 in out for v2 in out[v1] for v3 in out[v2] for v4 in out[v3])
    return sorted(
        (v1, v2, v3, v4)
        for v1, v2, v3, v4 in walks
        if v3 != v1 and v4 != v2 and not (graph.has_arc((v1, v4)) or graph.has_arc((v4, v1)))
    )


def _classes(paths: list) -> tuple[set, set]:
    """The paths' classes of both kinds: (v1, v3, v4) and (v1, v2, v4)."""
    return {(v1, v3, v4) for v1, _, v3, v4 in paths}, {(v1, v2, v4) for v1, v2, _, v4 in paths}


class CensusSums(NamedTuple):
    sum_first: int
    sum_sec: int
    count2: int
    count3: int


def census_sums(graph: BipartiteDigraph) -> CensusSums:
    """Vertex sums of the closed-form counts next to the class counts.

    The two routes must agree: the sum of per-vertex first counts is the
    number of (first, third, fourth) classes, and likewise for the second
    kind.  One enumeration counts both class kinds.
    """
    paths = enumerate_induced_p4(graph)  # checks the size limit before any mask is built
    return _class_sums(vertex_counts(graph), *_classes(paths))


def _class_sums(counts: dict[VertexRef, tuple[int, int]], firsts: set, seconds: set) -> CensusSums:
    sum_first, sum_sec = map(sum, zip((0, 0), *counts.values()))
    return CensusSums(sum_first, sum_sec, len(firsts), len(seconds))


def _require_census_size(graph: BipartiteDigraph) -> None:
    if graph.m * graph.n > MAX_CENSUS_PAIRS:
        raise TooLarge(f"{graph.m}x{graph.n} exceeds the census limit of {MAX_CENSUS_PAIRS} cross pairs")


def check_census(graph: BipartiteDigraph) -> Optional[str]:
    """Closed forms against one enumeration per graph: per vertex, summed, and under reversal."""
    flipped = graph.reverse()
    paths, rpaths = enumerate_induced_p4(graph), enumerate_induced_p4(flipped)
    classes, closed = _classes(paths), vertex_counts(graph)
    first, sec = Counter(c[0] for c in classes[0]), Counter(c[1] for c in classes[1])  # by enumeration
    for v in graph.vertices():
        if closed[v] != (first[v], sec[v]):
            return f"closed-form counts {closed[v]} at {v}, enumerated {(first[v], sec[v])}"
    sums, rsums = _class_sums(closed, *classes), _class_sums(vertex_counts(flipped), *_classes(rpaths))
    if sums[:2] != sums[2:] or sums[:2] != (rsums.sum_sec, rsums.sum_first):
        return f"census sums {tuple(sums)} and {tuple(rsums)} reversed break the identities"
    if sorted(p[::-1] for p in paths) != rpaths:
        return "the reversed induced P4s are not the induced P4s of the reversed graph"
    return None


def check_acyclicity(graph: BipartiteDigraph) -> Optional[str]:
    """The topological sort finds an order exactly when brute force finds no cycle."""
    if (graph.topological_order().order is None) != (find_cycle_brute(graph) is not None):
        return "the topological sort and the brute-force cycle search disagree"
    return None


def check_c4free(graph: BipartiteDigraph) -> Optional[str]:
    """``fas_c4free`` gives a feedback arc set within a bound equal to the absent-pair count."""
    certificate = fas_c4free(graph)
    if certificate.bound != graph.absent_pair_count():
        return f"bound {certificate.bound} is not the absent-pair count {graph.absent_pair_count()}"
    return check_fas(graph, certificate.fas, certificate.bound)


def check_dichotomy(graph: BipartiteDigraph, k: int) -> Optional[str]:
    """``solve`` gives k valid cycles, or at most 7(k-1) arcs in parts of 4(k-1) and 3(k-1)."""
    outcome = solve(graph, k)
    if not outcome.packing.validate(graph):
        return "the packing does not validate"
    if isinstance(outcome, PackingOutcome):
        return check_packing(graph, outcome.packing.cycles, k)
    parts = (len(outcome.residual_part), len(outcome.backward_part))
    if parts[0] > 4 * (k - 1) or parts[1] > 3 * (k - 1):
        return f"parts of {parts[0]} and {parts[1]} arcs exceed 4(k-1) and 3(k-1) at k = {k}"
    return check_fas(graph, outcome.fas, fas_bound(k))


def check_oracles(graph: BipartiteDigraph) -> Optional[str]:
    """The exact minimum feedback arc set is at most 7 times the exact maximum packing."""
    best_fas, best_pack = min_fas_exact(graph).value, max_c4_packing_exact(graph).value
    if best_fas > 7 * best_pack:
        return f"minimum feedback arc set {best_fas} exceeds 7 * {best_pack}"
    return None
