"""The k-cycles-or-small-feedback-arc-set pipeline for bipartite tournaments.

``solve`` either returns k arc-disjoint 4-cycles or a feedback arc set of at most 7(k-1) arcs: the
cut that certifies the 4-cycle-free residual of a greedy maximal packing with fewer than k cycles,
and the packed arcs running backward in the order that certified it, which :func:`backward_arcs`
reads as pair indices in one pass.  ``certify`` checks either outcome before it is returned, the
set as the pairs it crosses; the final check alone validates the order.  No ``Arc`` is built in
the call: the outcome holds the checked pairs, and its sets are built when first read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence, Union

from .c4free_fas import fas_c4free
from .certify import check_fas_pairs, check_packing, require
from .cycle_packing import Packing, greedy_pack
from .errors import NotATournament, OutOfRange
from .graph_core import Arc, BipartiteDigraph, HeldArcs, LazyArcSet, VertexRef


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
    ``solve`` holds both parts as their checked pairs and builds each set on
    its first read; threads racing on that read build equal sets.
    """

    requested: int
    packing: Packing
    residual_part: frozenset[Arc] = LazyArcSet()  # type: ignore[assignment]
    backward_part: frozenset[Arc] = LazyArcSet()  # type: ignore[assignment]
    order: tuple[VertexRef, ...]
    bound: int

    @property
    def fas(self) -> frozenset[Arc]:
        """The union of the two disjoint parts, built on each read, or one part itself if the other is empty."""
        residual, backward = self.residual_part, self.backward_part
        return residual | backward if residual and backward else residual or backward


SolveOutcome = Union[PackingOutcome, FasOutcome]


def backward_arcs(tournament: BipartiteDigraph, residual: BipartiteDigraph, order: Sequence[VertexRef]) -> list[int]:
    """The packed arcs that run backward in order, as pair indices, 1 to 3 per cycle.

    The packed pairs are those ``residual`` lacks, as the tournament has every pair.  One pass over
    ``order`` keeps the Y vertices placed so far: at x_i, a packed x_i -> y_j runs backward when y_j
    is placed, a packed y_j -> x_i when it is not; each row's pairs come out by y index.  ``order``
    must list each vertex once, as ``solve``'s does; the final check alone validates it.
    """
    n = tournament.n
    (t_out, t_in), (r_out, r_in) = tournament.x_masks, residual.x_masks
    placed_y, pairs = 0, []
    for side, i in order:
        if side == "Y":
            placed_y |= 1 << i
            continue
        mask, base = (t_out[i] & placed_y | t_in[i] & ~placed_y) & ~(r_out[i] | r_in[i]), i * n
        while mask:
            low = mask & -mask
            pairs.append(base + low.bit_length() - 1)
            mask ^= low
    return pairs


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
    cut = vars(certificate)["fas"]  # the cut's checked pairs, unless the set was built
    backward = backward_arcs(tournament, packing.residual, certificate.order)
    pairs = [*HeldArcs.pairs_of(packing.residual, cut), *backward]
    require(check_fas_pairs(tournament, pairs, bound=bound, order=certificate.order)[0])
    return FasOutcome(k, packing, cut, HeldArcs(tournament, array("q", backward)), certificate.order, bound)
