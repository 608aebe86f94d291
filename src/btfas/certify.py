"""The one certificate checker: 4-cycle packings and feedback arc sets.

Each check returns None for a valid certificate and otherwise the reason
it is not.  Neither raises on certificate content: a foreign vertex, an
out-of-range index, a same-side arc or a non-alternating cycle is a reason.
An arc is any (tail, head) pair of vertices; an ``Arc`` is one.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import InternalInvariantError
from .graph_core import BipartiteDigraph, FourCycle, VertexRef, pair_state

Arcs = Iterable[tuple[VertexRef, VertexRef]]
Order = Optional[Sequence[VertexRef]]
Sized = tuple[Optional[str], int, Order]  # the reason, the number of distinct arcs, the order


def check_packing(
    graph: BipartiteDigraph, cycles: Sequence[FourCycle], k: Optional[int] = None
) -> Optional[str]:
    """Why ``cycles`` are not at least k pairwise arc-disjoint 4-cycles of graph.

    Each arc becomes its pair index and state, as in :func:`check_fas_keys`.
    A repeated vertex puts both orientations on one pair, so it fails too.
    """
    m, n, orient = graph.m, graph.n, graph.orient
    used: set[int] = set()
    for cycle in cycles:
        seq = cycle.vertices
        found = [pair_state(m, n, seq[t - 1], seq[t]) for t in range(len(seq))]
        if len(seq) != 4 or None in found or any(orient[p] != state for p, state in found):
            return f"{[str(v) for v in seq]} is not a 4-cycle here"
        pairs = {p for p, _ in found}
        if not used.isdisjoint(pairs):
            return "cycles share an arc"
        used |= pairs
    if k is not None and len(cycles) < k:
        return f"only {len(cycles)} cycles, need {k}"
    return None


def check_fas(
    graph: BipartiteDigraph, arcs: Arcs, bound: Optional[int] = None, order: Order = None
) -> Optional[str]:
    """Why deleting the (tail, head) ``arcs`` does not leave graph acyclic.

    A repeated arc counts once, in the size and against ``bound``.  With
    ``order``, acyclicity is certified by every other arc running forward
    in it; without, by a topological sort of the graph minus the arcs.
    Each arc's :func:`pair_state` key goes to :func:`check_fas_keys`.
    """
    arcs = list(arcs)
    keys = [pair_state(graph.m, graph.n, tail, head) for tail, head in arcs]
    return check_fas_keys(graph, keys, lambda t: "%s>%s" % tuple(arcs[t]), bound, order)[0]


def check_fas_keys(
    graph: BipartiteDigraph,
    keys: list[Optional[tuple[int, int]]],
    spell: Callable[[int], str],
    bound: Optional[int] = None,
    order: Order = None,
) -> Sized:
    """The one feedback-arc-set check, on (pair index, state) keys; None crosses no pair.

    Each key is tested against the unmodified graph, so x0>y0 and y0>x0
    together still reject one; ``spell(t)`` names the t-th arc then.  The
    order is ``order`` itself, or else a topological sort's, taken without
    a copy when nothing is deleted.
    """
    orient, deleted = graph.orient, set()
    for key in keys:
        if key is None or orient[key[0]] != key[1]:
            # Every earlier key passed, so the first key equal to this one is this one.
            return f"arc {spell(keys.index(key))} is not in the instance", 0, None
        deleted.add(key[0])
    size = len(deleted)
    remaining = graph.clear_pairs(deleted) if deleted else graph
    if order is None:
        order = remaining.topological_order().order
    elif not remaining.is_forward_order(order):
        order = None
    if order is None:
        return "deleting the arcs leaves a cycle", size, None
    if bound is not None and size > bound:
        return f"{size} arcs exceed the bound {bound}", size, order
    return None, size, order


def require(reason: Optional[str]) -> None:
    """Raise a failed self-check's reason as an internal invariant violation."""
    if reason is not None:
        raise InternalInvariantError(reason)

