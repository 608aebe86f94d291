"""Certified feedback arc sets for 4-cycle-free bipartite digraphs.

``fas_c4free`` returns a feedback arc set no larger than the number of
non-adjacent cross pairs of the input.  It works by recursive
decomposition: pick a vertex u whose first count does not exceed its
second count, split the graph around u's neighborhood partition, cut the
arcs from ``two_step`` to ``non_adjacent``, and recurse on the two
vertex-disjoint halves.  When the vertex sums favor the other direction,
the same step runs on the arc-reversed graph and the result is reversed
back.  Each call first deletes vertices that lie on no cycle.

The returned certificate carries the recursion trace and is re-verified
before it is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import HasFourCycle, InternalInvariantError
from .graph_core import (
    TO_X,
    TO_Y,
    Arc,
    BipartiteDigraph,
    FourCycle,
    Subgraph,
    VertexRef,
    four_cycle,
    low_bit,
    reverse_arcs,
    xv,
)
from .p4_census import first_count, partition_around, sec_count


@dataclass(frozen=True)
class TraceNode:
    """One decomposition step of the recursion, in root-instance labels."""

    depth: int
    mode: str  # "direct" or "reversed"
    center: VertexRef
    cut_size: int
    sub_bounds: tuple[int, int]  # absent-pair counts of the two sub-instances


@dataclass(frozen=True)
class FasCertificate:
    """A feedback arc set together with its proven size bound and trace."""

    fas: frozenset[Arc]
    bound: int
    trace: tuple[TraceNode, ...]


def find_4cycle(graph: BipartiteDigraph, after: Optional[FourCycle] = None) -> Optional[FourCycle]:
    """First 4-cycle under a lexicographic scan of (x, x', y, y'), if any.

    The ordered pair (x_i, x_k) closes a cycle iff some y_j has
    x_i -> y_j -> x_k and some y_l has x_k -> y_l -> x_i; the lowest such
    j and l give the first cycle through the pair.  With ``after``, a cycle
    returned by this function, the scan starts at that cycle's (x, x')
    pair instead of (x_0, x_0).
    """
    out, inn = graph.x_masks
    start_i = start_k = 0
    if after is not None:
        start_i, start_k = after.vertices[0].index, after.vertices[2].index
    for xi in range(start_i, graph.m):
        out_i, in_i = out[xi], inn[xi]
        if not (out_i and in_i):
            continue
        # xk == xi needs no skip: out_i & in_i is always 0.
        for xk in range(start_k if xi == start_i else 0, graph.m):
            forward = out_i & inn[xk]
            if forward:
                back = out[xk] & in_i
                if back:
                    return four_cycle(xi, low_bit(forward), xk, low_bit(back))
    return None


def trim_acyclic_vertices(graph: BipartiteDigraph) -> tuple[Subgraph, frozenset[VertexRef]]:
    """Repeatedly drop vertices with no in-neighbors or no out-neighbors.

    Removed vertices lie on no cycle, so any feedback arc set of the
    result is one of the input.  In the returned subgraph every vertex has
    both an in- and an out-neighbor.
    """
    xs = set(range(graph.m))
    ys = set(range(graph.n))
    changed = True
    while changed:
        changed = False
        for i in sorted(xs):
            row = i * graph.n
            has_out = any(graph.orient[row + j] == TO_Y for j in ys)
            has_in = any(graph.orient[row + j] == TO_X for j in ys)
            if not (has_out and has_in):
                xs.remove(i)
                changed = True
        for j in sorted(ys):
            has_out = any(graph.orient[i * graph.n + j] == TO_X for i in xs)
            has_in = any(graph.orient[i * graph.n + j] == TO_Y for i in xs)
            if not (has_out and has_in):
                ys.remove(j)
                changed = True
    sub = graph.induced_subgraph(xs, ys)
    removed = frozenset(
        v
        for v in graph.vertices()
        if (v.side == "X" and v.index not in xs) or (v.side == "Y" and v.index not in ys)
    )
    return sub, removed


def fas_c4free(graph: BipartiteDigraph) -> FasCertificate:
    """Feedback arc set of size at most the absent-pair count of the input.

    The input must contain no 4-cycle; otherwise :class:`HasFourCycle` is
    raised with a witness.  The certificate is verified (acyclic residual,
    size within bound) before being returned.
    """
    witness = find_4cycle(graph)
    if witness is not None:
        raise HasFourCycle(witness)
    fas, trace = _solve(graph, 0)
    bound = graph.absent_pair_count()
    if len(fas) > bound:
        raise InternalInvariantError(
            f"feedback arc set of size {len(fas)} exceeds the bound {bound}"
        )
    if not graph.is_feedback_arc_set(fas):
        raise InternalInvariantError("computed arc set does not break every cycle")
    return FasCertificate(frozenset(fas), bound, tuple(trace))


def _solve(graph: BipartiteDigraph, depth: int) -> tuple[set[Arc], list[TraceNode]]:
    """Full recursion step in ``graph``'s own labels."""
    if graph.m < 2 or graph.n < 2:
        return set(), []
    trimmed, _removed = trim_acyclic_vertices(graph)
    core = trimmed.graph
    if core.m < 2 or core.n < 2:
        return set(), []

    counts = {v: (first_count(core, v), sec_count(core, v)) for v in core.vertices()}
    sum_first = sum(c[0] for c in counts.values())
    sum_sec = sum(c[1] for c in counts.values())

    if sum_first <= sum_sec:
        fas, trace = _decompose(core, counts, depth, "direct")
    else:
        flipped = core.reverse()
        counts_r = {v: (first_count(flipped, v), sec_count(flipped, v)) for v in flipped.vertices()}
        fas_r, trace = _decompose(flipped, counts_r, depth, "reversed")
        fas = set(reverse_arcs(fas_r))

    return trimmed.to_parent_arcs(fas), [_lift_trace(t, trimmed) for t in trace]


def _decompose(
    graph: BipartiteDigraph,
    counts: dict[VertexRef, tuple[int, int]],
    depth: int,
    mode: str,
) -> tuple[set[Arc], list[TraceNode]]:
    """One split around a chosen center, then recursion on both halves."""
    candidates = [v for v, (first, sec) in counts.items() if first <= sec]
    assert candidates, "vertex sums guarantee a qualifying center"
    # Maximize the slack sec - first; remaining ties go to the smallest label.
    center = min(candidates, key=lambda v: (counts[v][0] - counts[v][1], v))

    if center.side == "Y":
        fas_s, trace_s = _split_at(graph.swap_sides(), xv(center.index), depth, mode)
        fas = {a.swapped() for a in fas_s}
        trace = [
            TraceNode(t.depth, t.mode, t.center.swapped(), t.cut_size, t.sub_bounds)
            for t in trace_s
        ]
        return fas, trace
    return _split_at(graph, center, depth, mode)


def _split_at(
    graph: BipartiteDigraph, center: VertexRef, depth: int, mode: str
) -> tuple[set[Arc], list[TraceNode]]:
    part = partition_around(graph, center)
    assert part.in_nbrs and part.out_nbrs, "trimming leaves no one-sided vertices"

    cut = {
        Arc(a, b)
        for a in part.two_step
        for b in part.non_adjacent
        if graph.has_arc(Arc(a, b))
    }
    assert len(cut) == first_count(graph, center)
    if __debug__:
        # 4-cycle-freeness forbids arcs from two_step back into in_nbrs, and
        # rest was defined to receive no arcs from out_nbrs.
        assert not any(
            graph.has_arc(Arc(a, b)) for a in part.two_step for b in part.in_nbrs
        )
        assert not any(
            graph.has_arc(Arc(b, a)) for a in part.rest for b in part.out_nbrs
        )

    half1 = graph.induced_subgraph(
        (v.index for v in part.rest),
        (v.index for v in part.in_nbrs | part.non_adjacent),
    )
    half2 = graph.induced_subgraph(
        [v.index for v in part.two_step] + [center.index],
        (v.index for v in part.out_nbrs),
    )
    assert half1.graph.m + half1.graph.n < graph.m + graph.n
    assert half2.graph.m + half2.graph.n < graph.m + graph.n

    fas1, trace1 = _solve(half1.graph, depth + 1)
    fas2, trace2 = _solve(half2.graph, depth + 1)

    node = TraceNode(
        depth,
        mode,
        center,
        len(cut),
        (half1.graph.absent_pair_count(), half2.graph.absent_pair_count()),
    )
    fas = half1.to_parent_arcs(fas1) | half2.to_parent_arcs(fas2) | cut
    trace = [node]
    trace.extend(_lift_trace(t, half1) for t in trace1)
    trace.extend(_lift_trace(t, half2) for t in trace2)
    return fas, trace


def _lift_trace(node: TraceNode, sub: Subgraph) -> TraceNode:
    return TraceNode(
        node.depth,
        node.mode,
        sub.to_parent_vertex(node.center),
        node.cut_size,
        node.sub_bounds,
    )
