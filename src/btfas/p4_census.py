"""Closed-form counts of induced four-vertex path classes, per vertex.

An induced P4 is a directed path (v1, v2, v3, v4) with no arc between
non-consecutive vertices; in a bipartite digraph that reduces to v1 and v4
being non-adjacent.  Paths sharing (first, third, fourth) form one class,
paths sharing (first, second, fourth) another.  ``first_count`` and
``sec_count`` report, per vertex, how many classes of the first kind start
at it and how many of the second kind have it second, by a closed form
over the neighborhood partition around the vertex.  ``mask_census``
computes that partition and both counts at once on bitmasks, for a center
on either side; it is what the decomposition in ``c4free_fas`` uses.  The
path enumeration that checks these closed forms lives in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph_core import BipartiteDigraph, VertexRef, bit_indices, xv, yv


@dataclass(frozen=True)
class NeighborhoodPartition:
    """The five-way split of the other vertices around a center vertex.

    The opposite side falls into in-neighbors, out-neighbors and
    non-adjacent vertices; the center's own side splits into the
    out-neighbors of the center's out-neighbors (``two_step``) and the
    rest.
    """

    center: VertexRef
    in_nbrs: frozenset[VertexRef]
    out_nbrs: frozenset[VertexRef]
    non_adjacent: frozenset[VertexRef]
    two_step: frozenset[VertexRef]
    rest: frozenset[VertexRef]


class MaskPartition(NamedTuple):
    """The partition around a center as bitmasks over side indices.

    ``ins``, ``outs`` and ``non`` lie on the side opposite the center;
    ``two`` (the out-neighbors of ``outs``) and ``rest`` on its own side.
    """

    ins: int
    outs: int
    non: int
    two: int
    rest: int


def mask_census(
    c: int,
    p: tuple[Sequence[int], Sequence[int]],
    q: tuple[Sequence[int], Sequence[int]],
    ps: int,
    qs: int,
) -> tuple[MaskPartition, int, int]:
    """Partition around vertex c of side P, with its first and sec counts.

    ``p`` and ``q`` are the (out, in) per-vertex masks of P and of the
    opposite side Q; passing each pair swapped counts in the reversed
    graph.  Only the vertices in the live masks ``ps`` and ``qs`` count.
    first is the number of arcs from ``two`` to ``non``, sec the number of
    non-adjacent pairs between ``ins`` and ``two``.
    """
    p_out, p_in = p
    q_out, q_in = q
    ins = p_in[c] & qs
    outs = p_out[c] & qs
    non = qs & ~(ins | outs)
    two = 0
    for b in bit_indices(outs):
        two |= q_out[b]
    two &= ps
    # c is not in two: that would put both orientations on one pair.
    rest = ps & ~two & ~(1 << c)
    first = sum((p_out[a] & non).bit_count() for a in bit_indices(two))
    sec = sum((two & ~(q_out[b] | q_in[b])).bit_count() for b in bit_indices(ins))
    return MaskPartition(ins, outs, non, two, rest), first, sec


def _census(graph: BipartiteDigraph, v: VertexRef) -> tuple[MaskPartition, int, int]:
    graph._check_vertex(v)
    all_x, all_y = (1 << graph.m) - 1, (1 << graph.n) - 1
    if v.side == "X":
        return mask_census(v.index, graph.x_masks, graph.y_masks, all_x, all_y)
    return mask_census(v.index, graph.y_masks, graph.x_masks, all_y, all_x)


def partition_around(graph: BipartiteDigraph, center: VertexRef) -> NeighborhoodPartition:
    """Neighborhood partition around a vertex of either side."""
    part = _census(graph, center)[0]
    own, other = (xv, yv) if center.side == "X" else (yv, xv)

    def refs(mask: int, make) -> frozenset[VertexRef]:
        return frozenset(make(i) for i in bit_indices(mask))

    return NeighborhoodPartition(
        center,
        refs(part.ins, other),
        refs(part.outs, other),
        refs(part.non, other),
        refs(part.two, own),
        refs(part.rest, own),
    )


def first_count(graph: BipartiteDigraph, v: VertexRef) -> int:
    """Number of (first, third, fourth) classes whose paths start at v.

    Closed form: the classes starting at v correspond exactly to the arcs
    from ``two_step`` to ``non_adjacent`` in the partition around v.
    """
    return _census(graph, v)[1]


def sec_count(graph: BipartiteDigraph, v: VertexRef) -> int:
    """Number of (first, second, fourth) classes whose paths have v second.

    Closed form: such classes correspond to the non-adjacent pairs between
    ``in_nbrs`` and ``two_step`` in the partition around v.
    """
    return _census(graph, v)[2]
