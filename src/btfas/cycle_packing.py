"""Greedy arc-disjoint 4-cycle packing with an optional early exit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .c4free_fas import find_4cycle
from .certify import check_packing_pairs
from .errors import OutOfRange
from .graph_core import BipartiteDigraph, FourCycle, Rows, VertexRef, cycle_pairs


@dataclass(frozen=True)
class Packing:
    """Pairwise arc-disjoint 4-cycles plus the input minus their arcs."""

    cycles: tuple[FourCycle, ...]
    residual: BipartiteDigraph

    def validate(self, source: BipartiteDigraph) -> bool:
        """Re-check the packing, and that the residual is ``source`` minus its arcs, on one pair list."""
        pairs = [cycle_pairs(source, c) for c in self.cycles]
        valid = check_packing_pairs(source, pairs, str) is None  # the reason is not read
        return valid and self.residual == source.clear_pairs(p for cycle in pairs for p in cycle)


class _MaskView(NamedTuple):
    """Side size, mutable (out, in) X-row masks and the graph's labels: all that find_4cycle reads."""

    m: int
    x_masks: tuple[list[int], list[int]]
    labels: tuple[tuple[VertexRef, ...], tuple[VertexRef, ...]]


def greedy_pack(graph: BipartiteDigraph, limit: Optional[int] = None) -> Packing:
    """Pack 4-cycles greedily until none remain or ``limit`` are found.

    Each round takes the first 4-cycle of the lexicographic scan, clearing
    its arcs in place in the one copy of the X-row masks that
    :func:`find_4cycle` reads through a view, so the result is deterministic.
    The residual is the input with the packed pairs cleared, by one copy of
    ``orient``, and takes the cleared X rows as its ``x_masks``.  Without a
    limit the packing is maximal: the residual contains no 4-cycle.
    """
    if limit is not None and limit < 0:
        raise OutOfRange(f"limit must be non-negative, got {limit}")
    out, inn = map(list, graph.x_masks)
    view = _MaskView(graph.m, (out, inn), graph.labels)
    n = graph.n
    cycles: list[FourCycle] = []
    pairs: list[int] = []
    cycle = None
    while limit is None or len(cycles) < limit:
        # Deleting arcs never creates a 4-cycle, so the pairs the previous
        # scan passed still hold none: resume at the last cycle's pair.
        cycle = find_4cycle(view, after=cycle)
        if cycle is None:
            break
        cycles.append(cycle)
        a, b, c, d = cycle.vertices
        xi, yj, xk, yl = a.index, b.index, c.index, d.index
        out[xi] ^= 1 << yj  # x_i -> y_j
        inn[xk] ^= 1 << yj  # y_j -> x_k
        out[xk] ^= 1 << yl  # x_k -> y_l
        inn[xi] ^= 1 << yl  # y_l -> x_i
        pairs += (xi * n + yj, xk * n + yj, xk * n + yl, xi * n + yl)
    return Packing(tuple(cycles), graph.clear_pairs(pairs, Rows(out, inn)))
