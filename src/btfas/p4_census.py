"""Closed-form counts of induced four-vertex path classes, per vertex.

An induced P4 is a directed path (v1, v2, v3, v4) with no arc between
non-consecutive vertices; in a bipartite digraph that reduces to v1 and v4
being non-adjacent.  Paths sharing (first, third, fourth) form one class,
paths sharing (first, second, fourth) another.  ``first_count`` and
``sec_count`` report, per vertex, how many classes of the first kind start
at it and how many of the second kind have it second, by a closed form
over the neighborhood partition around the vertex, read from
``vertex_counts``, which gives both for every vertex.  ``census`` counts
a side's live vertices from its live rows packed into integers, one
(index, first, sec) row per vertex, and ``partition_around`` gives the
partition around one vertex as masks over side indices.  The
decomposition in ``c4free_fas`` calls both.
The path enumeration that checks the closed forms lives in ``oracles``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import OutOfRange
from .graph_core import BipartiteDigraph, Rows, VertexRef, bit_indices


# Widest row, in bytes, whose masks ``census`` repeats by multiplication.
MULTIPLY_MAX_STRIDE = 8


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


def census(rows: Rows, ps: int, qs: int) -> list[tuple[int, int, int]]:
    """(index, first, sec) of each vertex in the live mask ``ps`` of this side.

    Lowest index first; only the vertices in ``ps`` and ``qs`` count.  The
    live rows, cut to ``qs``, are packed into one integer per mask, each row
    ``stride`` bytes with a guard bit above ``qs``'s top column, so a center
    costs a few operations on live rows x stride bytes: each row of ``in``
    that meets the center's ``outs`` carries into its guard bit, marking the
    row as in ``two``, and ``sel`` spreads that bit over the row.  first
    counts the arcs from ``two`` to ``non``, sec the non-adjacent pairs
    between ``two`` and ``ins``.  A center without out-neighbours gets no
    carry, so both its counts come out 0.  ``rep`` repeats a mask in every
    live row: rows of at most ``MULTIPLY_MAX_STRIDE`` bytes multiply it by
    a constant with a 1 at the base of each row, which is cheaper there;
    wider rows repeat its bytes, since the product's cost grows with the
    mask's length and repetition's does not.
    """
    live = list(bit_indices(ps))
    stride, k, out, inn = qs.bit_length() // 8 + 1, len(live), rows.out, rows.inn
    width = 8 * stride - 1

    if stride <= MULTIPLY_MAX_STRIDE:
        rep = int.from_bytes(b"\1".ljust(stride, b"\0") * k, "little").__mul__
    else:

        def rep(mask: int) -> int:  # mask in every live row, by bytes repetition
            return int.from_bytes(mask.to_bytes(stride, "little") * k, "little")

    p_out, p_in = (  # the live rows of out and of in, packed
        int.from_bytes(b"".join([(masks[a] & qs).to_bytes(stride, "little") for a in live]), "little")
        for masks in rows
    )
    full, guard, live_q = rep((1 << width) - 1), rep(1 << width), rep(qs)
    apart = full & ~(p_out | p_in)
    counts = []
    for c in live:
        rep_outs, rep_ins = rep(out[c] & qs), rep(inn[c] & qs)
        carry = ((p_in & rep_outs) + full) & guard
        sel = carry - (carry >> width)
        non = live_q ^ rep_outs ^ rep_ins  # ins and outs are disjoint parts of qs
        counts.append((c, (p_out & sel & non).bit_count(), (apart & sel & rep_ins).bit_count()))
    return counts


def partition_around(rows: Rows, c: int, ps: int, qs: int) -> MaskPartition:
    """Partition around vertex c of the side of ``rows``, within the live masks."""
    ins, outs = rows.inn[c] & qs, rows.out[c] & qs
    two = sum(1 << a for a in bit_indices(ps) if rows.inn[a] & outs)
    # c is not in two: that would put both orientations on one pair.
    return MaskPartition(ins, outs, qs & ~(ins | outs), two, ps & ~two & ~(1 << c))


def vertex_counts(graph: BipartiteDigraph) -> dict[VertexRef, tuple[int, int]]:
    """(first, sec) of every vertex, X side first: one ``census`` per side."""
    xs, ys = (1 << graph.m) - 1, (1 << graph.n) - 1
    rows = census(graph.x_masks, xs, ys) + census(graph.y_masks, ys, xs)
    return {v: row[1:] for v, row in zip(graph.vertices(), rows)}


def _counts(graph: BipartiteDigraph, v: VertexRef) -> tuple[int, int]:
    counts = vertex_counts(graph).get(v)
    if counts is None:
        raise OutOfRange(f"vertex {v} outside a {graph.m}x{graph.n} graph")
    return counts


def first_count(graph: BipartiteDigraph, v: VertexRef) -> int:
    """Number of (first, third, fourth) classes whose paths start at v.

    Closed form: the classes starting at v correspond exactly to the arcs
    from ``two`` to ``non`` in the partition around v.
    """
    return _counts(graph, v)[0]


def sec_count(graph: BipartiteDigraph, v: VertexRef) -> int:
    """Number of (first, second, fourth) classes whose paths have v second.

    Closed form: such classes correspond to the non-adjacent pairs between
    ``ins`` and ``two`` in the partition around v.
    """
    return _counts(graph, v)[1]
