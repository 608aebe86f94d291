"""The k-cycles-or-small-feedback-arc-set pipeline for bipartite tournaments.

``solve`` either returns k arc-disjoint 4-cycles or a feedback arc set of
size at most 7(k-1), built from a greedy maximal packing with fewer than
k cycles, a certified feedback arc set of the 4-cycle-free residual, and
the packed-cycle arcs that :func:`backward_arcs` finds running backward in
the order that certified that set.  Both outcomes are machine-checked by
``certify`` before they are returned; the final check alone validates that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .c4free_fas import fas_c4free
from .certify import check_fas, check_packing, require
from .cycle_packing import Packing, greedy_pack
from .errors import NotATournament, OutOfRange
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
    in ``order``.  Their union, read as ``fas``, is a verified feedback arc
    set of size at most ``bound`` = 7 * (requested - 1).  ``order`` is the
    lexicographically smallest topological order (X before Y, by index) of
    the input minus ``fas``, the same order that certified the residual cut.
    """

    requested: int
    packing: Packing
    residual_part: frozenset[Arc]
    backward_part: frozenset[Arc]
    order: tuple[VertexRef, ...]
    bound: int

    @property
    def fas(self) -> frozenset[Arc]:
        """The union of the two disjoint parts, built on each read: the set is stored once."""
        return self.residual_part | self.backward_part


SolveOutcome = Union[PackingOutcome, FasOutcome]


def backward_arcs(order: Sequence[VertexRef], cycles: Iterable[FourCycle]) -> frozenset[Arc]:
    """Arcs of the cycles whose tail comes after their head in the order, 1 to 3 per cycle.

    ``order`` must list every vertex of the cycles' graph, as ``solve``'s does.  Positions are
    kept per side by index, so each cycle must have ``FourCycle``'s (x, y, x', y') shape.
    """
    xpos, ypos = [0] * len(order), [0] * len(order)  # a vertex listed twice keeps its last position
    for t, v in enumerate(order):
        (xpos if v.side == "X" else ypos)[v.index] = t
    new, backward = tuple.__new__, []
    for cycle in cycles:
        x, y, x2, y2 = cycle.vertices
        a, b, c, d = xpos[x.index], ypos[y.index], xpos[x2.index], ypos[y2.index]
        if a > b:
            backward.append(new(Arc, (x, y)))
        if b > c:
            backward.append(new(Arc, (y, x2)))
        if c > d:
            backward.append(new(Arc, (x2, y2)))
        if d > a:
            backward.append(new(Arc, (y2, x)))
    return frozenset(backward)


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
    backward_part = backward_arcs(certificate.order, packing.cycles)
    require(check_fas(tournament, [*certificate.fas, *backward_part], bound, certificate.order))
    return FasOutcome(k, packing, certificate.fas, backward_part, certificate.order, bound)
