"""Exponential-time exact references used by tests and the verify paths.

Nothing here is needed on the fast path; these routines exist so that
every polynomial-time result in the package can be checked against a
ground truth on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .certify import check_fas, check_packing, require
from .errors import InternalInvariantError, TooLarge
from .graph_core import (
    TO_X,
    TO_Y,
    Arc,
    BipartiteDigraph,
    FourCycle,
    VertexRef,
    four_cycle,
    xv,
    yv,
)

MAX_EXACT_VERTICES = 22
DEFAULT_CYCLE_CAP = 10_000


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
    if total == 0:
        return OracleResult(0, frozenset())
    verts = list(graph.vertices())
    in_mask = [0] * total
    for arc in graph.arcs():
        tail = arc.tail.index if arc.tail.side == "X" else graph.m + arc.tail.index
        head = arc.head.index if arc.head.side == "X" else graph.m + arc.head.index
        in_mask[head] |= 1 << tail
    full = (1 << total) - 1
    infinity = total * total + 1
    dp = [infinity] * (full + 1)
    dp[0] = 0
    choice = bytearray(full + 1)
    for placed in range(1, full + 1):
        unplaced = full ^ placed
        best = infinity
        best_v = 0
        rest = placed
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            rest ^= bit
            cost = dp[placed ^ bit] + (in_mask[v] & unplaced).bit_count()
            if cost < best:
                best = cost
                best_v = v
        dp[placed] = best
        choice[placed] = best_v
    order: list[VertexRef] = [verts[0]] * total
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
    found = []
    for xi in range(graph.m):
        for xk in range(xi + 1, graph.m):
            for yj in range(graph.n):
                for yl in range(graph.n):
                    if yl == yj:
                        continue
                    if (
                        graph.pair(xi, yj) == TO_Y
                        and graph.pair(xk, yj) == TO_X
                        and graph.pair(xk, yl) == TO_Y
                        and graph.pair(xi, yl) == TO_X
                    ):
                        found.append(four_cycle(xi, yj, xk, yl))
    return tuple(found)


def max_c4_packing_exact(
    graph: BipartiteDigraph, cap: int = DEFAULT_CYCLE_CAP
) -> OracleResult:
    """Exact maximum number of pairwise arc-disjoint 4-cycles.

    Branch and bound over the full 4-cycle list in canonical order, with
    an arc-occupancy bitmap and the remaining-cycle count as the bound.
    """
    cycles = all_4cycles(graph)
    if len(cycles) > cap:
        raise TooLarge(f"{len(cycles)} 4-cycles exceed the configured cap of {cap}")
    masks = []
    for cycle in cycles:
        mask = 0
        for arc in cycle.arcs():
            xi = arc.tail.index if arc.tail.side == "X" else arc.head.index
            yj = arc.head.index if arc.tail.side == "X" else arc.tail.index
            mask |= 1 << (xi * graph.n + yj)
        masks.append(mask)

    best_count = 0
    best_set: tuple[FourCycle, ...] = ()
    chosen: list[FourCycle] = []

    def descend(idx: int, used: int) -> None:
        nonlocal best_count, best_set
        if len(chosen) > best_count:
            best_count = len(chosen)
            best_set = tuple(chosen)
        if idx == len(cycles) or len(chosen) + (len(cycles) - idx) <= best_count:
            return
        if not used & masks[idx]:
            chosen.append(cycles[idx])
            descend(idx + 1, used | masks[idx])
            chosen.pop()
        descend(idx + 1, used)

    descend(0, 0)
    require(check_packing(graph, best_set, best_count))
    return OracleResult(best_count, best_set)


def find_cycle_brute(graph: BipartiteDigraph) -> Optional[tuple[VertexRef, ...]]:
    """Exhaustive search for any directed cycle, independent of Kahn's algorithm.

    Tries every alternating vertex sequence of every feasible length, so
    it is only usable on very small graphs.
    """
    for half in range(2, min(graph.m, graph.n) + 1):
        for xs in itertools.permutations(range(graph.m), half):
            for ys in itertools.permutations(range(graph.n), half):
                ok = True
                for t in range(half):
                    if graph.pair(xs[t], ys[t]) != TO_Y:
                        ok = False
                        break
                    if graph.pair(xs[(t + 1) % half], ys[t]) != TO_X:
                        ok = False
                        break
                if ok:
                    seq: list[VertexRef] = []
                    for t in range(half):
                        seq.append(xv(xs[t]))
                        seq.append(yv(ys[t]))
                    return tuple(seq)
    return None
