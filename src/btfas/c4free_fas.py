"""Certified feedback arc sets for 4-cycle-free bipartite digraphs.

``fas_c4free`` returns a feedback arc set no larger than the number of
non-adjacent cross pairs of the input.  It works by decomposition: pick a
vertex u whose first count does not exceed its second count, split the
graph around u's neighborhood partition, cut the arcs from ``two_step``
to ``non_adjacent``, and go on with the two vertex-disjoint halves.  When
the vertex sums favor the other direction, the same step runs on the
arc-reversed graph.  Each step first drops vertices that lie on no cycle.

Sub-instances are never copied: each is a pair of live-vertex masks over
the root graph's cached adjacency masks, kept on an explicit work stack,
so cut arcs and trace nodes come out in root labels.  The returned
certificate carries the trace and the topological order that re-verified
it before it was handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .certify import check_fas_keys, require
from .errors import HasFourCycle, InternalInvariantError
from .graph_core import (
    TO_X,
    TO_Y,
    Arc,
    BipartiteDigraph,
    FourCycle,
    Subgraph,
    VertexRef,
    bit_indices,
    four_cycle,
    low_bit,
    pair_arc,
    xv,
    yv,
)
from .p4_census import Rows, census, mask_partition


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
    """A feedback arc set with its proven size bound, its trace and its certifying order."""

    fas: frozenset[Arc]
    bound: int
    trace: tuple[TraceNode, ...]
    order: tuple[VertexRef, ...]  # topological order of the input minus fas


def find_4cycle(graph: BipartiteDigraph, after: Optional[FourCycle] = None) -> Optional[FourCycle]:
    """First 4-cycle under a lexicographic scan of (x, x', y, y'), if any.

    The ordered pair (x_i, x_k) closes a cycle iff some y_j has
    x_i -> y_j -> x_k and some y_l has x_k -> y_l -> x_i; the lowest such
    j and l give the first cycle through the pair.  With ``after``, a cycle
    returned by this function, the scan starts at that cycle's (x, x')
    pair instead of (x_0, x_0).  The scan reads only ``graph.m`` and
    ``graph.x_masks``, so ``greedy_pack`` passes a view of masks it clears.
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


def _trim(xs: int, ys: int, x_masks, y_masks) -> tuple[int, int]:
    """Live masks with every vertex lacking a live in- or out-neighbor dropped, to fixpoint."""
    (x_out, x_in), (y_out, y_in) = x_masks, y_masks
    while True:
        keep_x = xs
        for i in bit_indices(xs):
            if not (x_out[i] & ys and x_in[i] & ys):
                keep_x ^= 1 << i
        keep_y = ys
        for j in bit_indices(ys):
            if not (y_out[j] & keep_x and y_in[j] & keep_x):
                keep_y ^= 1 << j
        if keep_x == xs and keep_y == ys:
            return xs, ys
        xs, ys = keep_x, keep_y


def trim_acyclic_vertices(graph: BipartiteDigraph) -> tuple[Subgraph, frozenset[VertexRef]]:
    """Repeatedly drop vertices with no in-neighbors or no out-neighbors.

    Removed vertices lie on no cycle, so any feedback arc set of the
    result is one of the input.  In the returned subgraph every vertex has
    both an in- and an out-neighbor.
    """
    xs, ys = _trim((1 << graph.m) - 1, (1 << graph.n) - 1, graph.x_masks, graph.y_masks)
    sub = graph.induced_subgraph(bit_indices(xs), bit_indices(ys))
    removed = frozenset(v for v in graph.vertices() if not (xs if v.side == "X" else ys) >> v.index & 1)
    return sub, removed


def fas_c4free(graph: BipartiteDigraph) -> FasCertificate:
    """Feedback arc set of size at most the absent-pair count of the input.

    The input must contain no 4-cycle; otherwise :class:`HasFourCycle` is
    raised with a witness.  The certificate is verified (acyclic residual,
    size within bound) by one topological sort before being returned; the
    certificate keeps that sort's order, so ``fas_engine.solve`` need not
    sort again.
    """
    witness = find_4cycle(graph)
    if witness is not None:
        raise HasFourCycle(witness)
    keys, trace = _decomposition(graph)
    bound, n = graph.absent_pair_count(), graph.n
    reason, _, order = check_fas_keys(graph, keys, lambda t: str(pair_arc(n, *keys[t])), bound)
    require(reason)
    return FasCertificate(frozenset(pair_arc(n, p, state) for p, state in keys), bound, tuple(trace), order)


def _decomposition(graph: BipartiteDigraph) -> tuple[list[tuple[int, int]], list[TraceNode]]:
    """Cut arcs as (pair index, state) keys and preorder trace, in root labels.

    A work item (xs, ys, rev, x_side, depth) is a sub-instance: the live X
    and Y vertices as masks over the root graph, whether an odd number of
    reversals lies on the path from the root (its "out" is then the root's
    "in"), which root side (0 for X, 1 for Y) the sub-instance calls X,
    and its depth.  A split always centers on the sub-instance's own X
    side, so a child calls the center's side X; that naming only breaks
    ties between centers of equal slack.
    """
    x_masks, y_masks = graph.x_masks, graph.y_masks
    sides = (Rows(*x_masks), Rows(*y_masks))
    views = (sides, [Rows(r.inn, r.out) for r in sides])  # views[rev][side]
    n = graph.n
    cut_keys: list[tuple[int, int]] = []
    trace: list[TraceNode] = []
    stack = [((1 << graph.m) - 1, (1 << graph.n) - 1, 0, 0, 0)]
    while stack:
        xs, ys, rev, x_side, depth = stack.pop()
        if xs.bit_count() < 2 or ys.bit_count() < 2:
            continue
        xs, ys = _trim(xs, ys, x_masks, y_masks)
        if xs.bit_count() < 2 or ys.bit_count() < 2:
            continue
        counts = _census_all(views[rev], xs, ys)
        mode = "direct"
        if sum(c[0] for c in counts.values()) > sum(c[1] for c in counts.values()):
            mode, rev = "reversed", rev ^ 1
            counts = _census_all(views[rev], xs, ys)
        # Maximize the slack sec - first; remaining ties go to the smallest
        # label, X before Y as this sub-instance names its sides.
        side, c = min(
            (key for key, (first, sec) in counts.items() if first <= sec),
            key=lambda key: (counts[key][0] - counts[key][1], key[0] ^ x_side, key[1]),
        )
        rows = views[rev][side]
        part = mask_partition(rows, c, *((xs, ys) if side == 0 else (ys, xs)))
        if not (part.ins and part.outs):
            raise InternalInvariantError(f"trimming left a one-sided center {c}")
        # An arc from two into ins would close a 4-cycle through the center.
        if any(rows.out[a] & part.ins for a in bit_indices(part.two)):
            raise InternalInvariantError(f"an arc runs from two into ins at center {c}")
        # The cut arcs run two -> non, or non -> two when reversed.
        state = TO_Y if side == rev else TO_X
        cut = [
            (a * n + b if side == 0 else b * n + a, state)
            for a in bit_indices(part.two)
            for b in bit_indices(rows.out[a] & part.non)
        ]
        cut_keys += cut
        half1 = (part.rest, part.ins | part.non)
        half2 = (part.two | 1 << c, part.outs)
        bounds = (_absent_pairs(rows, *half1), _absent_pairs(rows, *half2))
        trace.append(TraceNode(depth, mode, (xv if side == 0 else yv)(c), len(cut), bounds))
        # half2 goes below half1, so half1's subtree is traced first.
        for ps, qs in (half2, half1):
            xs, ys = (ps, qs) if side == 0 else (qs, ps)
            stack.append((xs, ys, rev, side, depth + 1))
    return cut_keys, trace


def _census_all(view, xs: int, ys: int) -> dict[tuple[int, int], tuple[int, int]]:
    """(first, sec) of every live vertex, keyed by (root side, index)."""
    counts = {}
    for side, live, other in ((0, xs, ys), (1, ys, xs)):
        keys = ((side, v) for v in bit_indices(live))
        counts.update(zip(keys, census(view[side], live, other)))
    return counts


def _absent_pairs(rows: Rows, ps: int, qs: int) -> int:
    """Non-adjacent pairs between ``ps`` on the side of ``rows`` and ``qs`` opposite."""
    arcs = sum(((rows.out[a] | rows.inn[a]) & qs).bit_count() for a in bit_indices(ps))
    return ps.bit_count() * qs.bit_count() - arcs
