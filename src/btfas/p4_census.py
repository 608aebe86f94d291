"""Induced four-vertex paths, their equivalence classes, and local counts.

An induced P4 is a directed path (v1, v2, v3, v4) with no arc between
non-consecutive vertices; in a bipartite digraph that reduces to v1 and v4
being non-adjacent, since the other skew pairs stay on one side.  Two
grouping relations partition the paths: paths sharing (first, third,
fourth) form one class, paths sharing (first, second, fourth) another.

``first_count``/``sec_count`` report, per vertex, how many classes of the
first kind start at it and how many of the second kind have it second.
Both admit a closed form over the neighborhood partition around the
vertex.  ``mask_census`` computes that partition and both counts at once
on bitmasks, for a center on either side; it is what the decomposition in
``c4free_fas`` uses.  The enumeration-based route is kept as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph_core import ABSENT, Arc, BipartiteDigraph, VertexRef, bit_indices, xv, yv


@dataclass(frozen=True, order=True)
class P4:
    """An induced directed path on four vertices."""

    vertices: tuple[VertexRef, VertexRef, VertexRef, VertexRef]

    def key2(self) -> "ClassKey2":
        v1, _, v3, v4 = self.vertices
        return ClassKey2(v1, v3, v4)

    def key3(self) -> "ClassKey3":
        v1, v2, _, v4 = self.vertices
        return ClassKey3(v1, v2, v4)

    def reversed(self) -> "P4":
        a, b, c, d = self.vertices
        return P4((d, c, b, a))


@dataclass(frozen=True, order=True)
class ClassKey2:
    """Identifies the class of paths agreeing on first, third and fourth vertex."""

    first: VertexRef
    third: VertexRef
    fourth: VertexRef


@dataclass(frozen=True, order=True)
class ClassKey3:
    """Identifies the class of paths agreeing on first, second and fourth vertex."""

    first: VertexRef
    second: VertexRef
    fourth: VertexRef


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


def enumerate_induced_p4(graph: BipartiteDigraph) -> list[P4]:
    """All induced P4s, deduplicated, in sorted order.

    Brute force over ordered 4-tuples with O(1) pair lookups; fine at the
    instance sizes this package targets.
    """
    found: list[P4] = []
    for first_side in ("X", "Y"):
        a_range = range(graph.m) if first_side == "X" else range(graph.n)
        b_range = range(graph.n) if first_side == "X" else range(graph.m)
        mk_a = xv if first_side == "X" else yv
        mk_b = yv if first_side == "X" else xv
        for i1 in a_range:
            v1 = mk_a(i1)
            for j1 in b_range:
                v2 = mk_b(j1)
                if not graph.has_arc(Arc(v1, v2)):
                    continue
                for i2 in a_range:
                    if i2 == i1:
                        continue
                    v3 = mk_a(i2)
                    if not graph.has_arc(Arc(v2, v3)):
                        continue
                    for j2 in b_range:
                        if j2 == j1:
                            continue
                        v4 = mk_b(j2)
                        if not graph.has_arc(Arc(v3, v4)):
                            continue
                        state = (
                            graph.pair(i1, j2) if first_side == "X" else graph.pair(j2, i1)
                        )
                        if state == ABSENT:
                            found.append(P4((v1, v2, v3, v4)))
    found.sort()
    return found


def classes2(graph: BipartiteDigraph) -> dict[ClassKey2, frozenset[P4]]:
    """Partition of the induced P4s by (first, third, fourth), keys sorted."""
    buckets: dict[ClassKey2, set[P4]] = {}
    for path in enumerate_induced_p4(graph):
        buckets.setdefault(path.key2(), set()).add(path)
    return {k: frozenset(buckets[k]) for k in sorted(buckets)}


def classes3(graph: BipartiteDigraph) -> dict[ClassKey3, frozenset[P4]]:
    """Partition of the induced P4s by (first, second, fourth), keys sorted."""
    buckets: dict[ClassKey3, set[P4]] = {}
    for path in enumerate_induced_p4(graph):
        buckets.setdefault(path.key3(), set()).add(path)
    return {k: frozenset(buckets[k]) for k in sorted(buckets)}


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


def first_sec_by_buckets(graph: BipartiteDigraph) -> dict[VertexRef, tuple[int, int]]:
    """Enumeration-based first/sec counts for every vertex.

    Independent of the closed forms above; used to cross-check them.
    """
    firsts: dict[VertexRef, set[ClassKey2]] = {v: set() for v in graph.vertices()}
    seconds: dict[VertexRef, set[ClassKey3]] = {v: set() for v in graph.vertices()}
    for path in enumerate_induced_p4(graph):
        firsts[path.vertices[0]].add(path.key2())
        seconds[path.vertices[1]].add(path.key3())
    return {v: (len(firsts[v]), len(seconds[v])) for v in graph.vertices()}


class CensusSums(NamedTuple):
    sum_first: int
    sum_sec: int
    count2: int
    count3: int


def census_sums(graph: BipartiteDigraph) -> CensusSums:
    """Vertex sums of the closed-form counts next to the class-map sizes.

    The two routes must agree: the sum of per-vertex first counts is the
    number of (first, third, fourth) classes, and likewise for the second
    kind.
    """
    sum_first = 0
    sum_sec = 0
    for v in graph.vertices():
        sum_first += first_count(graph, v)
        sum_sec += sec_count(graph, v)
    return CensusSums(sum_first, sum_sec, len(classes2(graph)), len(classes3(graph)))
