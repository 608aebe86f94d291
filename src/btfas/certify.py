"""The one certificate checker: 4-cycle packings and feedback arc sets.

Each check returns None for a valid certificate and otherwise the reason
it is not, never raising on its content: a foreign vertex, an out-of-range
index, a same-side arc or a non-alternating cycle is a reason.  Packings have one core on
(pair index, state) keys, fed by vertex pairs here and by verify's tokens; feedback arc sets
one on pair indices, which those keys reach once :func:`check_fas_keys` has checked them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import InternalInvariantError
from .graph_core import BipartiteDigraph, FourCycle, HeldArcs, VertexRef, cycle_keys, key_arcs

Arcs = Iterable[tuple[VertexRef, VertexRef]]
Keys = Sequence[Optional[tuple[int, int]]]
Order = Optional[Sequence[VertexRef]]
Pairs = Iterable[int]  # pair indices: a Sequence, unless checked
Sized = tuple[Optional[str], int, Order]  # the reason, the number of distinct arcs, the order


def check_packing(
    graph: BipartiteDigraph, cycles: Sequence[FourCycle], k: Optional[int] = None
) -> Optional[str]:
    """Why ``cycles`` are not at least k arc-disjoint 4-cycles of graph; see :func:`check_packing_keys`."""
    keys = (cycle_keys(graph, c) for c in cycles)
    return check_packing_keys(graph, keys, lambda t: str([str(v) for v in cycles[t].vertices]), k)


def check_packing_keys(
    graph: BipartiteDigraph, cycles: Iterable[Keys], spell: Callable[[int], str], k: Optional[int] = None
) -> Optional[str]:
    """The one packing check, on each cycle's (pair index, state) keys; None crosses no pair.

    ``spell(t)`` names the t-th cycle unless its keys are four arcs of graph, which then
    cross four distinct pairs: each is marked used in one byte per pair.
    """
    orient, used, count = graph.orient, bytearray(len(graph.orient)), 0
    for count, keys in enumerate(cycles, 1):
        if len(keys) != 4 or None in keys or any(orient[p] != state for p, state in keys):
            return f"{spell(count - 1)} is not a 4-cycle here"
        for p, _ in keys:
            if used[p]:
                return "cycles share an arc"
            used[p] = 1
    if k is not None and count < k:
        return f"only {count} cycles, need {k}"
    return None


def check_fas(
    graph: BipartiteDigraph, arcs: Arcs, bound: Optional[int] = None, order: Order = None
) -> Optional[str]:
    """Why deleting the (tail, head) ``arcs`` does not leave graph acyclic.

    A repeated arc counts once, in the size and against ``bound``.  With
    ``order``, acyclicity is certified by every other arc running forward
    in it; without, by a topological sort of the graph minus the arcs.
    Each arc's :meth:`HeldArcs.keys` key goes to :func:`check_fas_keys`.
    """
    arcs = list(arcs)
    keys = list(HeldArcs.keys(graph, arcs))
    return check_fas_keys(graph, keys, lambda t: "%s>%s" % tuple(arcs[t]), bound, order)[0]


def check_fas_keys(
    graph: BipartiteDigraph,
    keys: list[Optional[tuple[int, int]]],
    spell: Optional[Callable[[int], str]] = None,
    bound: Optional[int] = None,
    order: Order = None,
) -> Sized:
    """The feedback-arc-set check on (pair index, state) keys; None crosses no pair.

    Each key is tested against the unmodified graph, so x0>y0 and y0>x0 together still
    reject one; ``spell(t)`` names the t-th arc then, and without it :func:`key_arcs` names
    the key's arc (a None key as None).  The core then reads each checked key's pair.
    """
    orient = graph.orient
    for key in keys:
        if key is None or orient[key[0]] != key[1]:
            # Every earlier key passed, so the first key equal to this one is this one.
            name = (key and key_arcs(graph, [key])[0]) if spell is None else spell(keys.index(key))
            return f"arc {name} is not in the instance", 0, None
    return check_fas_pairs(graph, map(itemgetter(0), keys) if keys else (), bound, order, checked=True)


def check_fas_pairs(
    graph: BipartiteDigraph, pairs: Pairs, bound: Optional[int] = None, order: Order = None, checked: bool = False
) -> Sized:
    """The one feedback-arc-set core, on pair indices, each standing for the arc graph holds there.

    The size is the rise in absent pairs.  Unless the pairs are ``checked`` (as the keys' pairs,
    which may repeat), a pair out of range by ``min`` or ``max``, or a size short of ``len(pairs)``
    (a repeated or arc-less pair), is a reason.  The order is ``order``, or else a topological sort's.
    """
    if not checked and pairs and not 0 <= min(pairs) <= max(pairs) < len(graph.orient):
        return f"pairs {min(pairs)}..{max(pairs)} are not all in the {graph.m}x{graph.n} graph", 0, None
    remaining = graph.clear_pairs(pairs) if pairs else graph
    size = remaining.absent_pair_count() - graph.absent_pair_count()
    if not checked and size != len(pairs):
        return f"{len(pairs) - size} of {len(pairs)} pairs repeat or carry no arc", size, None
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

