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
from .certify import check_fas, check_packing, require
from .cycle_packing import Packing, greedy_pack
from .errors import NotATournament, OutOfRange, VertexNotInOrder
from .graph_core import Arc, BipartiteDigraph, FourCycle, VertexRef


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
    # Per side, vertex index -> position: int keys hash in C, VertexRefs do not.
    position = {s: {v.index: i for i, v in enumerate(order) if v.side == s} for s in "XY"}
    backward = []
    for cycle in cycles:
        verts = cycle.vertices
        pos = [position[v.side].get(v.index) for v in verts]
        if None in pos:
            raise VertexNotInOrder(f"cycle vertex {verts[pos.index(None)]} missing from the order")
        backward.extend(
            Arc(verts[t], verts[(t + 1) % 4]) for t in range(4) if pos[t] > pos[(t + 1) % 4]
        )
    return frozenset(backward)


def solve(tournament: BipartiteDigraph, k: int) -> SolveOutcome:
    """Find k arc-disjoint 4-cycles or a feedback arc set of size <= 7(k-1).

    The input must be a bipartite tournament (every cross pair oriented).
    For k = 0 the packing branch is vacuously satisfied by zero cycles.
    """
    if k < 0:
        raise OutOfRange(f"k must be non-negative, got {k}")
    absent = tournament.absent_pair_count()
    if absent != 0:
        raise NotATournament(f"{absent} cross pairs carry no arc")

    packing = greedy_pack(tournament, limit=k)
    if len(packing.cycles) >= k:
        require(check_packing(tournament, packing.cycles, k))
        return PackingOutcome(k, packing)

    # The limit was not reached, so the packing is maximal and the residual
    # has no 4-cycle; its absent pairs are exactly the deleted arcs.
    residual = packing.residual
    certificate = fas_c4free(residual)
    # fas_c4free certified the residual by this same sort, so it succeeds.
    topo = residual.delete_arcs(certificate.fas).topological_order()
    backward = backward_arcs(topo.order, packing.cycles)
    fas = certificate.fas | backward
    bound = 7 * (k - 1)
    require(check_fas(tournament, fas, bound, order=topo.order))
    return FasOutcome(
        requested=k,
        packing=packing,
        fas=fas,
        residual_part=certificate.fas,
        backward_part=backward,
        order=topo.order,
        bound=bound,
    )
