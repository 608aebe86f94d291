"""The one certificate checker: 4-cycle packings and feedback arc sets.

Each check returns None for a valid certificate and otherwise the reason
it is not, never raising on its content: a foreign vertex, an out-of-range
index, a same-side arc or a non-alternating cycle is a reason.  Both checks run on pair
indices, -1 for an arc the graph lacks, as :meth:`HeldArcs.pairs_of` turns arcs into pairs
and verify's tokens reach them; :func:`check_fas` and :func:`check_packing` take arcs and cycles.
:func:`check_fas_pairs` is the one feedback-arc-set core: given a ``spell``, its pairs are a
listed arc set, which may repeat and whose -1 or arc-less pair is an arc not in the instance;
without, each pair must carry a distinct arc.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import InternalInvariantError
from .graph_core import BipartiteDigraph, FourCycle, HeldArcs, VertexRef, cycle_pairs

Arcs = Iterable[tuple[VertexRef, VertexRef]]
Order = Optional[Sequence[VertexRef]]
Pairs = Sequence[int]  # pair indices
Spell = Callable[[int], str]  # the name of the t-th arc or cycle as its caller gave it
Sized = tuple[Optional[str], int, Order]  # the reason, the number of distinct arcs, the order


def check_packing(
    graph: BipartiteDigraph, cycles: Sequence[FourCycle], k: Optional[int] = None
) -> Optional[str]:
    """Why ``cycles`` are not at least k arc-disjoint 4-cycles of graph; see :func:`check_packing_pairs`."""
    pairs = (cycle_pairs(graph, c) for c in cycles)
    return check_packing_pairs(graph, pairs, lambda t: str([str(v) for v in cycles[t].vertices]), k)


def check_packing_pairs(
    graph: BipartiteDigraph, cycles: Iterable[Pairs], spell: Spell, k: Optional[int] = None
) -> Optional[str]:
    """The one packing check, on each cycle's pairs as :func:`cycle_pairs` gives them.

    ``spell(t)`` names the t-th cycle unless it is four pairs inside graph, which each cycle
    may use once: each is marked used in one byte per pair.
    """
    used, count = bytearray(len(graph.orient)), 0
    for count, pairs in enumerate(cycles, 1):
        if len(pairs) != 4 or not 0 <= min(pairs) <= max(pairs) < len(used):
            return f"{spell(count - 1)} is not a 4-cycle here"
        for p in pairs:
            if used[p]:
                return "cycles share an arc"
            used[p] = 1
    if k is not None and count < k:
        return f"only {count} cycles, need {k}"
    return None


def check_fas(graph: BipartiteDigraph, arcs: Arcs, bound: Optional[int] = None) -> Optional[str]:
    """Why deleting the (tail, head) ``arcs`` does not leave graph acyclic.

    A repeated arc counts once, in the size and against ``bound``.  Acyclicity
    is certified by a topological sort of the graph minus the arcs: the arcs'
    :meth:`HeldArcs.pairs_of` pairs go to :func:`check_fas_pairs` as a listed
    set, and a caller holding an order passes it there.
    """
    arcs = list(arcs)
    pairs = HeldArcs.pairs_of(graph, arcs)
    return check_fas_pairs(graph, pairs, bound, spell=lambda t: "%s>%s" % tuple(arcs[t]))[0]


def check_fas_pairs(
    graph: BipartiteDigraph, pairs: Pairs, bound: Optional[int] = None, order: Order = None,
    spell: Optional[Spell] = None,
) -> Sized:
    """The one feedback-arc-set core, on pair indices, each standing for the arc graph holds there.

    The size is the rise in absent pairs.  A pair out of range by ``min`` or ``max`` is a reason.
    Given ``spell``, the pairs are a listed arc set: ``spell(t)`` names the t-th arc when its pair is
    the first -1, before any other test, or, once every other test has passed, the first pair graph
    leaves absent; a repeated pair counts once.  Without, a size short of ``len(pairs)`` (a repeated
    or arc-less pair) is a reason.  The order is ``order``, or else a topological sort's.
    """
    if spell is not None and -1 in pairs:
        return f"arc {spell(pairs.index(-1))} is not in the instance", 0, None
    if pairs and not 0 <= min(pairs) <= max(pairs) < len(graph.orient):
        return f"pairs {min(pairs)}..{max(pairs)} are not all in the {graph.m}x{graph.n} graph", 0, None
    remaining = graph.clear_pairs(pairs) if pairs else graph
    size = remaining.absent_pair_count() - graph.absent_pair_count()
    if spell is None and size != len(pairs):
        return f"{len(pairs) - size} of {len(pairs)} pairs repeat or carry no arc", size, None
    if order is None:
        order = remaining.topological_order().order
    elif not remaining.is_forward_order(order):
        order = None
    if order is None:
        return "deleting the arcs leaves a cycle", size, None
    if bound is not None and size > bound:
        return f"{size} arcs exceed the bound {bound}", size, order
    # Only a repeat or an arc-less pair leaves the size short of len(pairs).
    if spell is not None and size != len(pairs) and not all(map(graph.orient.__getitem__, pairs)):
        absent = next(t for t, p in enumerate(pairs) if not graph.orient[p])
        return f"arc {spell(absent)} is not in the instance", size, None
    return None, size, order


def require(reason: Optional[str]) -> None:
    """Raise a failed self-check's reason as an internal invariant violation."""
    if reason is not None:
        raise InternalInvariantError(reason)

