"""Greedy arc-disjoint 4-cycle packing with an optional early exit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .c4free_fas import find_4cycle
from .certify import check_packing
from .errors import OutOfRange
from .graph_core import BipartiteDigraph, FourCycle


@dataclass(frozen=True)
class Packing:
    """Pairwise arc-disjoint 4-cycles plus the input minus their arcs."""

    cycles: tuple[FourCycle, ...]
    residual: BipartiteDigraph

    def validate(self, source: BipartiteDigraph) -> bool:
        """Re-check the packing against the graph it was taken from."""
        residual_ok = self.residual.arc_count() == source.arc_count() - 4 * len(self.cycles)
        return residual_ok and check_packing(source, self.cycles) is None


def greedy_pack(graph: BipartiteDigraph, limit: Optional[int] = None) -> Packing:
    """Pack 4-cycles greedily until none remain or ``limit`` are found.

    Each round takes the first 4-cycle of the lexicographic scan and
    deletes its arcs, so the result is deterministic.  Without a limit the
    packing is maximal: the residual contains no 4-cycle.
    """
    if limit is not None and limit < 0:
        raise OutOfRange(f"limit must be non-negative, got {limit}")
    cycles: list[FourCycle] = []
    residual = graph
    cycle = None
    while limit is None or len(cycles) < limit:
        # Deleting arcs never creates a 4-cycle, so the pairs the previous
        # scan passed still hold none: resume at the last cycle's pair.
        cycle = find_4cycle(residual, after=cycle)
        if cycle is None:
            break
        residual = residual.delete_arcs(cycle.arcs())
        cycles.append(cycle)
    return Packing(tuple(cycles), residual)
