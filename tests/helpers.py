"""Shared instances and independent brute-force oracles for the test suite.

The oracles here deliberately re-derive everything from definitions
(permutation scans, subset searches) so they share no code path with the
implementations they check.
"""

from __future__ import annotations

import heapq
import itertools
import random

from btfas import (
    Arc,
    BipartiteDigraph,
    P4,
    VertexRef,
    all_4cycles,
    build,
    four_cycle,
    xv,
    yv,
)
from btfas.graph_core import TO_X, TO_Y, TopoResult, is_cycle_sequence


def four_cycle_bt() -> BipartiteDigraph:
    """The 2x2 tournament whose arcs form the single cycle x0,y0,x1,y1."""
    return build(2, 2, [(xv(0), yv(0)), (yv(0), xv(1)), (xv(1), yv(1)), (yv(1), xv(0))])


def six_cycle() -> BipartiteDigraph:
    """3x3, six arcs forming the cycle x0,y0,x1,y1,x2,y2; three absent pairs."""
    return build(
        3,
        3,
        [
            (xv(0), yv(0)),
            (yv(0), xv(1)),
            (xv(1), yv(1)),
            (yv(1), xv(2)),
            (xv(2), yv(2)),
            (yv(2), xv(0)),
        ],
    )


def path_graph() -> BipartiteDigraph:
    """2x2 with the single induced path x0,y0,x1,y1."""
    return build(2, 2, [(xv(0), yv(0)), (yv(0), xv(1)), (xv(1), yv(1))])


def all_x_to_y(m: int, n: int) -> BipartiteDigraph:
    return build(m, n, [(xv(i), yv(j)) for i in range(m) for j in range(n)])


def all_oriented(m: int, n: int):
    """Every oriented bipartite digraph on m+n vertices, absents included."""
    for code in range(3 ** (m * n)):
        states = bytearray(m * n)
        c = code
        for p in range(m * n):
            states[p] = c % 3
            c //= 3
        yield BipartiteDigraph(m, n, bytes(states))


def random_digraph(rng: random.Random, m: int, n: int) -> BipartiteDigraph:
    """Random orientation allowing absent pairs, driven by the given rng."""
    return BipartiteDigraph(m, n, bytes(rng.choice((0, 1, 2)) for _ in range(m * n)))


def arc_exists(graph: BipartiteDigraph, a: VertexRef, b: VertexRef) -> bool:
    if a.side == b.side:
        return False
    return graph.has_arc(Arc(a, b))


def adjacent(graph: BipartiteDigraph, a: VertexRef, b: VertexRef) -> bool:
    return arc_exists(graph, a, b) or arc_exists(graph, b, a)


def p4_oracle(graph: BipartiteDigraph) -> set[P4]:
    """Induced P4s straight from the definition, via permutations of vertices."""
    found = set()
    for quad in itertools.permutations(list(graph.vertices()), 4):
        v1, v2, v3, v4 = quad
        if not (
            arc_exists(graph, v1, v2)
            and arc_exists(graph, v2, v3)
            and arc_exists(graph, v3, v4)
        ):
            continue
        if adjacent(graph, v1, v3) or adjacent(graph, v2, v4) or adjacent(graph, v1, v4):
            continue
        found.add(P4((v1, v2, v3, v4)))
    return found


def four_cycles_oracle(graph: BipartiteDigraph) -> set[frozenset[Arc]]:
    """All 4-cycles as arc sets, via permutations of vertex quadruples."""
    found = set()
    for quad in itertools.permutations(list(graph.vertices()), 4):
        arcs = []
        ok = True
        for t in range(4):
            a, b = quad[t], quad[(t + 1) % 4]
            if not arc_exists(graph, a, b):
                ok = False
                break
            arcs.append(Arc(a, b))
        if ok:
            found.add(frozenset(arcs))
    return found


def min_fas_subsets(graph: BipartiteDigraph) -> int:
    """Minimum feedback arc set size by subset search over the arcs."""
    arcs = graph.arcs()
    for size in range(len(arcs) + 1):
        for subset in itertools.combinations(arcs, size):
            if graph.is_feedback_arc_set(subset):
                return size
    raise AssertionError("deleting all arcs always leaves an acyclic graph")


def max_pack_combinations(graph: BipartiteDigraph) -> int:
    """Maximum arc-disjoint 4-cycle count by combination search."""
    cycles = all_4cycles(graph)
    best = 0
    for r in range(1, len(cycles) + 1):
        found = False
        for combo in itertools.combinations(cycles, r):
            arcs = [a for c in combo for a in c.arcs()]
            if len(set(arcs)) == 4 * r:
                found = True
                break
        if not found:
            break
        best = r
    return best


# ----------------------------------------------------------------------
# references for the bitmask scans: the plain loops they replaced


def find_4cycle_reference(graph: BipartiteDigraph, after=None):
    """First 4-cycle by a nested (x, x', y, y') loop over pair states.

    With ``after``, pairs (x, x') before that cycle's pair are skipped.
    """
    start = (after.vertices[0].index, after.vertices[2].index) if after is not None else (0, 0)
    for xi in range(graph.m):
        for xk in range(graph.m):
            if xk == xi or (xi, xk) < start:
                continue
            for yj in range(graph.n):
                if graph.pair(xi, yj) != TO_Y or graph.pair(xk, yj) != TO_X:
                    continue
                for yl in range(graph.n):
                    if yl != yj and graph.pair(xk, yl) == TO_Y and graph.pair(xi, yl) == TO_X:
                        return four_cycle(xi, yj, xk, yl)
    return None


def greedy_pack_reference(graph: BipartiteDigraph, limit=None):
    """(cycles, residual) of greedy packing that rescans from scratch each round."""
    cycles = []
    orient = bytearray(graph.orient)
    residual = graph
    while limit is None or len(cycles) < limit:
        cycle = find_4cycle_reference(residual)
        if cycle is None:
            break
        cycles.append(cycle)
        xi, yj, xk, yl = (v.index for v in cycle.vertices)
        for i, j in ((xi, yj), (xk, yj), (xk, yl), (xi, yl)):
            orient[i * graph.n + j] = 0
        residual = BipartiteDigraph(graph.m, graph.n, bytes(orient))
    return tuple(cycles), residual


def topological_order_reference(graph: BipartiteDigraph) -> TopoResult:
    """Kahn's algorithm on VertexRef labels with the smallest-label tie-break."""
    verts = list(graph.vertices())
    indeg = {v: len(graph.in_neighbors(v)) for v in verts}
    ready = [v for v in verts if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in graph.out_neighbors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) == len(verts):
        return TopoResult(tuple(order), None)
    remaining = set(verts) - set(order)
    path = [min(remaining)]
    seen_at = {path[0]: 0}
    while True:
        prev = next(u for u in graph.in_neighbors(path[-1]) if u in remaining)
        if prev in seen_at:
            p = seen_at[prev]
            cycle = tuple([path[p]] + path[p + 1 :][::-1])
            assert is_cycle_sequence(graph, cycle)
            return TopoResult(None, cycle)
        seen_at[prev] = len(path)
        path.append(prev)
