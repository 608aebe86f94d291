"""The one certificate checker: 4-cycle packings and feedback arc sets.

Each check returns None for a valid certificate and otherwise the reason
it is not.  Neither raises on certificate content: a foreign vertex, an
out-of-range index, a same-side arc or a non-alternating cycle is a reason.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Sequence, Union

from .errors import InternalInvariantError, PreconditionError
from .graph_core import Arc, BipartiteDigraph, FourCycle, VertexRef


def check_packing(
    graph: BipartiteDigraph, cycles: Sequence[FourCycle], k: Optional[int] = None
) -> Optional[str]:
    """Why ``cycles`` are not at least k pairwise arc-disjoint 4-cycles of graph."""
    seen: set[Arc] = set()
    for cycle in cycles:
        if not _holds(lambda: cycle.is_cycle_of(graph)):
            return f"{[str(v) for v in cycle.vertices]} is not a 4-cycle here"
        if not seen.isdisjoint(cycle.arcs()):
            return "cycles share an arc"
        seen.update(cycle.arcs())
    if k is not None and len(cycles) < k:
        return f"only {len(cycles)} cycles, need {k}"
    return None


def check_fas(
    graph: BipartiteDigraph,
    arcs: Collection[Union[Arc, tuple[VertexRef, VertexRef]]],
    bound: Optional[int] = None,
    order: Optional[Sequence[VertexRef]] = None,
) -> Optional[str]:
    """Why deleting ``arcs`` (Arcs or (tail, head) pairs) does not leave graph acyclic.

    A repeated arc counts once, in the size and against ``bound``.  With
    ``order``, acyclicity is certified by every other arc running forward
    in it; without, by a topological sort of the graph minus the arcs.
    """
    try:
        if all(isinstance(a, Arc) for a in arcs):
            distinct = set(arcs)  # copying a set of Arcs reuses their slow-to-compute hashes
        else:
            distinct = {a if isinstance(a, Arc) else Arc(*a) for a in arcs}
        if order is None:
            acyclic = graph.delete_arcs(distinct).topological_order().order is not None
        else:
            acyclic = graph.is_forward_order(order, distinct)
    except PreconditionError:  # only a foreign arc raises; name the first one
        for tail, head in ((a.tail, a.head) if isinstance(a, Arc) else a for a in arcs):
            if not _holds(lambda: graph.has_arc(Arc(tail, head))):
                return f"arc {tail}>{head} is not in the instance"
        raise
    if not acyclic:
        return "deleting the arcs leaves a cycle"
    if bound is not None and len(distinct) > bound:
        return f"{len(distinct)} arcs exceed the bound {bound}"
    return None


def require(reason: Optional[str]) -> None:
    """Raise a failed self-check's reason as an internal invariant violation."""
    if reason is not None:
        raise InternalInvariantError(reason)


def _holds(test: Callable[[], bool]) -> bool:
    try:
        return test()
    except PreconditionError:  # a same-side pair or an out-of-range vertex
        return False
