"""The k-cycles-or-small-feedback-arc-set pipeline for bipartite tournaments.

``solve`` either returns k arc-disjoint 4-cycles or a feedback arc set of
size at most 7(k-1), built from three ingredients: a greedy maximal
packing with fewer than k cycles, a certified feedback arc set of the
4-cycle-free residual, and the packed-cycle arcs that run backward in a
topological order of the residual minus that set.  Both outcomes are
machine-checked by ``certify`` before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .c4free_fas import fas_c4free
from .certify import check_fas_keys, check_packing, require
from .cycle_packing import Packing, greedy_pack
from .errors import NotATournament, OutOfRange, VertexNotInOrder
from .graph_core import TO_X, TO_Y, Arc, BipartiteDigraph, FourCycle, VertexRef, pair_arc, pair_state


@dataclass(frozen=True)
class PackingOutcome:
    """Certificate branch: at least ``requested`` arc-disjoint 4-cycles."""

    requested: int
    packing: Packing


@dataclass(frozen=True)
class FasOutcome:
    """Feedback arc set branch, with its two parts and the order used.

    ``residual_part`` breaks every cycle of the input minus the packed
    arcs; ``backward_part`` holds the packed-cycle arcs that run backward
    in ``order``.  Their union is a verified feedback arc set of size at
    most ``bound`` = 7 * (requested - 1).
    """

    requested: int
    packing: Packing
    fas: frozenset[Arc]
    residual_part: frozenset[Arc]
    backward_part: frozenset[Arc]
    order: tuple[VertexRef, ...]
    bound: int


SolveOutcome = Union[PackingOutcome, FasOutcome]


def backward_arcs(order: Sequence[VertexRef], cycles: Iterable[FourCycle]) -> frozenset[Arc]:
    """Arcs of the cycles whose tail comes after their head in the order.

    For a genuine cycle and a genuine order each cycle contributes 1 to 3
    arcs: a cycle cannot be fully forward, and its closing arc guarantees
    at least one backward arc.
    """
    n = 1 + max((v.index for v in order if v.side == "Y"), default=0)
    return frozenset(pair_arc(n, p, state) for p, state in _backward_keys(order, cycles, n))


def _backward_keys(order: Sequence[VertexRef], cycles: Iterable[FourCycle], n: int) -> list:
    """:func:`backward_arcs` as (pair index, state) keys over n Y vertices."""
    # Per side, vertex index -> position: int keys hash in C, VertexRefs do not.
    pos_x, pos_y = ({v.index: t for t, v in enumerate(order) if v.side == s} for s in "XY")
    keys = []
    for cycle in cycles:
        a, b, c, d = verts = cycle.vertices  # x_i -> y_j -> x_k -> y_l -> x_i
        i, j, k, l = a.index, b.index, c.index, d.index
        pi, pj, pk, pl = pos = (pos_x.get(i), pos_y.get(j), pos_x.get(k), pos_y.get(l))
        if None in pos:
            raise VertexNotInOrder(f"cycle vertex {verts[pos.index(None)]} missing from the order")
        if pi > pj:
            keys.append((i * n + j, TO_Y))
        if pj > pk:
            keys.append((k * n + j, TO_X))
        if pk > pl:
            keys.append((k * n + l, TO_Y))
        if pl > pi:
            keys.append((i * n + l, TO_X))
    return keys


def fas_bound(k: int) -> int:
    """7(k-1), the feedback arc set size the dichotomy allows for k >= 0."""
    if k < 0:
        raise OutOfRange(f"k must be non-negative, got {k}")
    return 7 * (k - 1)


def solve(tournament: BipartiteDigraph, k: int) -> SolveOutcome:
    """Find k arc-disjoint 4-cycles or a feedback arc set of size <= 7(k-1).

    The input must be a bipartite tournament (every cross pair oriented).
    For k = 0 the packing branch is vacuously satisfied by zero cycles.
    """
    bound = fas_bound(k)
    absent = tournament.absent_pair_count()
    if absent != 0:
        raise NotATournament(f"{absent} cross pairs carry no arc")

    packing = greedy_pack(tournament, limit=k)
    if len(packing.cycles) >= k:
        require(check_packing(tournament, packing.cycles, k))
        return PackingOutcome(k, packing)

    # The limit was not reached, so the packing is maximal and the residual
    # has no 4-cycle; its absent pairs are exactly the deleted arcs.
    certificate = fas_c4free(packing.residual)
    m, n, order = tournament.m, tournament.n, certificate.order
    cut = [pair_state(m, n, arc.tail, arc.head) for arc in certificate.fas]
    backward = _backward_keys(order, packing.cycles, n)
    # Every kept arc is forward in the order that certified the residual cut.
    require(check_fas_keys(tournament, cut + backward, bound, order)[0])
    backward_part = frozenset(pair_arc(n, p, state) for p, state in backward)
    fas = certificate.fas | backward_part
    return FasOutcome(k, packing, fas, certificate.fas, backward_part, order, bound)
