"""Shared instances and independent brute-force oracles for the test suite.

The oracles here deliberately re-derive everything from definitions
(permutation scans, subset searches) so they share no code path with the
implementations they check.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import itertools
import json
import pickle
import random
import re
from dataclasses import dataclass
from typing import NamedTuple

from btfas import (
    Arc,
    BipartiteDigraph,
    FasCertificate,
    FasOutcome,
    FourCycle,
    PackingOutcome,
    TraceNode,
    VertexRef,
    build,
    fas_c4free,
    greedy_pack,
    xv,
    yv,
)
from btfas.c4free_fas import trim_acyclic_vertices
from btfas.certify import check_fas_pairs, check_packing, require
from btfas.cli import MAX_PAIRS, MAX_SIDE, InstanceFormatError
from btfas.errors import DuplicatePair, NotATournament, OutOfRange, PreconditionError
from btfas.graph_core import (
    TO_X,
    TO_Y,
    HeldArcs,
    Subgraph,
    TopoResult,
    bit_indices,
    four_cycle,
)
from btfas.oracles import all_4cycles
from btfas.p4_census import MaskPartition, partition_around


# ----------------------------------------------------------------------
# object-graph helpers on VertexRef and Arc labels, from the definitions


def x_vertices(graph: BipartiteDigraph) -> list[VertexRef]:
    return [xv(i) for i in range(graph.m)]


def y_vertices(graph: BipartiteDigraph) -> list[VertexRef]:
    return [yv(j) for j in range(graph.n)]


def out_neighbors(graph: BipartiteDigraph, v: VertexRef) -> list[VertexRef]:
    if v.side == "X":
        return [yv(j) for j in range(graph.n) if graph.orient[v.index * graph.n + j] == TO_Y]
    return [xv(i) for i in range(graph.m) if graph.orient[i * graph.n + v.index] == TO_X]


def in_neighbors(graph: BipartiteDigraph, v: VertexRef) -> list[VertexRef]:
    if v.side == "X":
        return [yv(j) for j in range(graph.n) if graph.orient[v.index * graph.n + j] == TO_X]
    return [xv(i) for i in range(graph.m) if graph.orient[i * graph.n + v.index] == TO_Y]


def swap_vertex(v: VertexRef) -> VertexRef:
    """The same position on the other side, for side-swap relabeling."""
    return VertexRef("Y" if v.side == "X" else "X", v.index)


def swap_arc(arc: Arc) -> Arc:
    return Arc(swap_vertex(arc.tail), swap_vertex(arc.head))


def reverse_arcs(arcs) -> frozenset[Arc]:
    return frozenset(Arc(a.head, a.tail) for a in arcs)


def to_parent_vertex(sub: Subgraph, v: VertexRef) -> VertexRef:
    """A subgraph vertex under its label in the parent graph."""
    return xv(sub.x_map[v.index]) if v.side == "X" else yv(sub.y_map[v.index])


def to_parent_arcs(sub: Subgraph, arcs) -> set[Arc]:
    return {Arc(to_parent_vertex(sub, a.tail), to_parent_vertex(sub, a.head)) for a in arcs}


@dataclass(frozen=True, order=True)
class FourCycleReference:
    """``FourCycle`` as the frozen dataclass it was: the reference for its value semantics.

    Its ``repr`` differs only in the class name.
    """

    vertices: tuple[VertexRef, VertexRef, VertexRef, VertexRef]


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


def p4_oracle(graph: BipartiteDigraph) -> set[tuple[VertexRef, ...]]:
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
        found.add(quad)
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


def is_cycle_sequence(graph: BipartiteDigraph, seq) -> bool:
    """Check that seq lists the distinct vertices of a directed cycle in graph."""
    if len(seq) < 4 or len(set(seq)) != len(seq):
        return False
    return all(graph.has_arc((seq[i - 1], seq[i])) for i in range(len(seq)))


def topological_order_reference(graph: BipartiteDigraph) -> TopoResult:
    """Kahn's algorithm on VertexRef labels with the smallest-label tie-break.

    When it stops early, a backward walk over the unplaced vertices must
    close a cycle of graph, which is asserted before the cyclic verdict.
    """
    verts = list(graph.vertices())
    indeg = {v: len(in_neighbors(graph, v)) for v in verts}
    ready = [v for v in verts if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out_neighbors(graph, v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) == len(verts):
        return TopoResult(tuple(order))
    remaining = set(verts) - set(order)
    path = [min(remaining)]
    seen_at = {path[0]: 0}
    while True:
        prev = next(u for u in in_neighbors(graph, path[-1]) if u in remaining)
        if prev in seen_at:
            p = seen_at[prev]
            cycle = tuple([path[p]] + path[p + 1 :][::-1])
            assert is_cycle_sequence(graph, cycle)
            return TopoResult(None)
        seen_at[prev] = len(path)
        path.append(prev)


# ----------------------------------------------------------------------
# reference for fas_c4free: the recursive decomposition over copied
# subgraphs, with Y centers and Y-side partitions handled by swap_sides()


class RefPartition(NamedTuple):
    """The partition around a center as vertex sets, in ``MaskPartition``'s field order."""

    in_nbrs: frozenset[VertexRef]
    out_nbrs: frozenset[VertexRef]
    non_adjacent: frozenset[VertexRef]
    two_step: frozenset[VertexRef]
    rest: frozenset[VertexRef]


def partition_around_reference(graph: BipartiteDigraph, center: VertexRef) -> RefPartition:
    """Neighborhood partition from neighbor lists; a Y center goes through swap_sides()."""
    if center.side == "Y":
        part = partition_around_reference(graph.swap_sides(), xv(center.index))
        return RefPartition(*(frozenset(map(swap_vertex, s)) for s in part))
    ins = frozenset(in_neighbors(graph, center))
    outs = frozenset(out_neighbors(graph, center))
    non = frozenset(v for v in y_vertices(graph) if v not in ins and v not in outs)
    two_step = frozenset(w for v in outs for w in out_neighbors(graph, v))
    rest = frozenset(v for v in x_vertices(graph) if v not in two_step and v != center)
    return RefPartition(ins, outs, non, two_step, rest)


def mask_census(c: int, p, q, ps: int, qs: int) -> tuple[MaskPartition, int, int]:
    """Partition around vertex c of side P, with its first and sec counts, bit by bit.

    The reference for ``p4_census.census`` and ``partition_around``.  ``p``
    and ``q`` are the (out, in) per-vertex masks of P and of the opposite
    side Q; passing each pair swapped counts in the reversed graph.  Only
    the vertices in the live masks ``ps`` and ``qs`` count.
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
    rest = ps & ~two & ~(1 << c)
    first = sum((p_out[a] & non).bit_count() for a in bit_indices(two))
    sec = sum((two & ~(q_out[b] | q_in[b])).bit_count() for b in bit_indices(ins))
    return MaskPartition(ins, outs, non, two, rest), first, sec


def partition_of(graph: BipartiteDigraph, center: VertexRef) -> MaskPartition:
    """``p4_census.partition_around`` for a vertex of either side of a whole graph."""
    rows, width = (graph.x_masks, graph.n) if center.side == "X" else (graph.y_masks, graph.m)
    return partition_around(rows, center.index, (1 << len(rows.out)) - 1, (1 << width) - 1)


def trim_of(graph: BipartiteDigraph) -> tuple[Subgraph, frozenset[VertexRef]]:
    """``c4free_fas.trim_acyclic_vertices`` on a whole graph: what it keeps, induced, and what it drops."""
    xs, ys = trim_acyclic_vertices((1 << graph.m) - 1, (1 << graph.n) - 1, graph.x_masks, graph.y_masks)
    sub = graph.induced_subgraph(bit_indices(xs), bit_indices(ys))
    removed = frozenset(v for v in graph.vertices() if not (xs if v.side == "X" else ys) >> v.index & 1)
    return sub, removed


def _counts_reference(graph: BipartiteDigraph, v: VertexRef) -> tuple[int, int]:
    part = partition_around_reference(graph, v)
    first = sum(1 for a in part.two_step for b in part.non_adjacent if graph.has_arc(Arc(a, b)))
    sec = sum(
        1
        for a in part.in_nbrs
        for b in part.two_step
        if not graph.has_arc(Arc(a, b)) and not graph.has_arc(Arc(b, a))
    )
    return first, sec


def _trim_reference(graph: BipartiteDigraph) -> Subgraph:
    xs, ys = set(range(graph.m)), set(range(graph.n))
    changed = True
    while changed:
        changed = False
        for i in sorted(xs):
            row = i * graph.n
            if not (
                any(graph.orient[row + j] == TO_Y for j in ys)
                and any(graph.orient[row + j] == TO_X for j in ys)
            ):
                xs.remove(i)
                changed = True
        for j in sorted(ys):
            if not (
                any(graph.orient[i * graph.n + j] == TO_X for i in xs)
                and any(graph.orient[i * graph.n + j] == TO_Y for i in xs)
            ):
                ys.remove(j)
                changed = True
    return graph.induced_subgraph(xs, ys)


def fas_c4free_reference(graph: BipartiteDigraph) -> FasCertificate:
    """Certificate of the recursive decomposition; the input must be 4-cycle-free."""
    fas, trace = _solve_reference(graph, 0)
    order = graph.delete_arcs(fas).topological_order().order
    return FasCertificate(frozenset(fas), graph.absent_pair_count(), tuple(trace), order)


def _solve_reference(graph: BipartiteDigraph, depth: int):
    if graph.m < 2 or graph.n < 2:
        return set(), []
    trimmed = _trim_reference(graph)
    core = trimmed.graph
    if core.m < 2 or core.n < 2:
        return set(), []
    counts = {v: _counts_reference(core, v) for v in core.vertices()}
    if sum(c[0] for c in counts.values()) <= sum(c[1] for c in counts.values()):
        fas, trace = _decompose_reference(core, counts, depth, "direct")
    else:
        flipped = core.reverse()
        counts_r = {v: _counts_reference(flipped, v) for v in flipped.vertices()}
        fas_r, trace = _decompose_reference(flipped, counts_r, depth, "reversed")
        fas = set(reverse_arcs(fas_r))
    return to_parent_arcs(trimmed, fas), [_lift_reference(t, trimmed) for t in trace]


def _decompose_reference(graph, counts, depth, mode):
    candidates = [v for v, (first, sec) in counts.items() if first <= sec]
    center = min(candidates, key=lambda v: (counts[v][0] - counts[v][1], v))
    if center.side == "Y":
        fas_s, trace_s = _split_reference(graph.swap_sides(), xv(center.index), depth, mode)
        trace = [
            TraceNode(t.depth, t.mode, swap_vertex(t.center), t.cut_size, t.sub_bounds)
            for t in trace_s
        ]
        return set(map(swap_arc, fas_s)), trace
    return _split_reference(graph, center, depth, mode)


def _split_reference(graph, center, depth, mode):
    part = partition_around_reference(graph, center)
    cut = {
        Arc(a, b) for a in part.two_step for b in part.non_adjacent if graph.has_arc(Arc(a, b))
    }
    half1 = graph.induced_subgraph(
        (v.index for v in part.rest),
        (v.index for v in part.in_nbrs | part.non_adjacent),
    )
    half2 = graph.induced_subgraph(
        [v.index for v in part.two_step] + [center.index],
        (v.index for v in part.out_nbrs),
    )
    fas1, trace1 = _solve_reference(half1.graph, depth + 1)
    fas2, trace2 = _solve_reference(half2.graph, depth + 1)
    node = TraceNode(
        depth,
        mode,
        center,
        len(cut),
        (half1.graph.absent_pair_count(), half2.graph.absent_pair_count()),
    )
    trace = [node]
    trace.extend(_lift_reference(t, half1) for t in trace1)
    trace.extend(_lift_reference(t, half2) for t in trace2)
    return to_parent_arcs(half1, fas1) | to_parent_arcs(half2, fas2) | cut, trace


def _lift_reference(node: TraceNode, sub: Subgraph) -> TraceNode:
    return TraceNode(
        node.depth, node.mode, to_parent_vertex(sub, node.center), node.cut_size, node.sub_bounds
    )


# ----------------------------------------------------------------------
# cyclic 4-cycle-free instances whose decomposition recurses


def c4free_blowup(seed: int, sides: tuple[int, int] = (8, 16)) -> BipartiteDigraph:
    """A cyclic 4-cycle-free instance with ``sides`` (low, high) vertices per side.

    Each of two components blows up a directed cycle of length 2l
    (l in [5, 8]): blocks X_b -> Y_b -> X_{b+1} of 1 to ceil(high / 8)
    vertices each, so every cycle inside a component has length at least
    6.  Random extra arcs inside a component are kept only when they close
    no 4-cycle; they drive the decomposition below depth 1, into reversed
    mode and Y-side centers.  Arcs between the components run from the
    first to the second only (density 0.5), so no cycle leaves a component.
    Labels are shuffled at the end.
    """
    rng = random.Random(seed)
    low, high = sides
    block = -(-high // 8)
    while True:
        layout = [
            [(rng.randint(1, block), rng.randint(1, block)) for _ in range(rng.randint(5, 8))]
            for _ in range(2)
        ]
        m = sum(bx for comp in layout for bx, _ in comp)
        n = sum(by for comp in layout for _, by in comp)
        if low <= m <= high and low <= n <= high:
            break
    orient = bytearray(m * n)
    # rows[state][i] and cols[state][j]: the other ends of the pairs in that state
    rows = {TO_X: [0] * m, TO_Y: [0] * m}
    cols = {TO_X: [0] * n, TO_Y: [0] * n}

    def put(i: int, j: int, state: int) -> None:
        orient[i * n + j] = state
        rows[state][i] |= 1 << j
        cols[state][j] |= 1 << i

    def closes_c4(i: int, j: int, state: int) -> bool:
        # The arc on (x_i, y_j) closes a 4-cycle iff some x_k, y_l carry the
        # other three arcs: the opposite orientation on (x_k, y_j) and
        # (x_i, y_l), and the same one on (x_k, y_l).
        back = TO_X if state == TO_Y else TO_Y
        return any(rows[state][k] & rows[back][i] for k in bit_indices(cols[back][j]))

    components = []
    next_x = next_y = 0
    for comp in layout:
        blocks = []
        for bx, by in comp:
            blocks.append((range(next_x, next_x + bx), range(next_y, next_y + by)))
            next_x += bx
            next_y += by
        for b, (xs, ys) in enumerate(blocks):
            for i in xs:
                for j in ys:
                    put(i, j, TO_Y)
            for j in ys:
                for i in blocks[(b + 1) % len(blocks)][0]:
                    put(i, j, TO_X)
        components.append(([i for xs, _ in blocks for i in xs], [j for _, ys in blocks for j in ys]))

    for xs, ys in components:
        candidates = [(i, j) for i in xs for j in ys if orient[i * n + j] == 0]
        rng.shuffle(candidates)
        for i, j in candidates:
            if rng.random() < 0.5:
                continue
            states = (TO_Y, TO_X) if rng.random() < 0.5 else (TO_X, TO_Y)
            for state in states:
                if not closes_c4(i, j, state):
                    put(i, j, state)
                    break

    (xs_a, ys_a), (xs_b, ys_b) = components
    for i in xs_a:
        for j in ys_b:
            if rng.random() < 0.5:
                orient[i * n + j] = TO_Y
    for j in ys_a:
        for i in xs_b:
            if rng.random() < 0.5:
                orient[i * n + j] = TO_X

    return _shuffled(rng, m, n, orient)


def _shuffled(rng: random.Random, m: int, n: int, orient: bytearray) -> BipartiteDigraph:
    """The graph on the pair states ``orient`` with both sides' labels shuffled."""
    perm_x, perm_y = list(range(m)), list(range(n))
    rng.shuffle(perm_x)
    rng.shuffle(perm_y)
    shuffled = bytearray(m * n)
    for i in range(m):
        for j in range(n):
            shuffled[perm_x[i] * n + perm_y[j]] = orient[i * n + j]
    return BipartiteDigraph(m, n, bytes(shuffled))


# ----------------------------------------------------------------------
# references for the CLI boundary: the per-token parser, the Arc-building
# build and the Arc-set certificate check they replaced


_VERTEX_RE_REFERENCE = re.compile(r"([xy])([0-9]{1,4300})\Z")


def parse_vertex_reference(token: str) -> VertexRef:
    match = _VERTEX_RE_REFERENCE.fullmatch(token)
    if match is None:
        raise InstanceFormatError(f"bad vertex token {token!r}")
    side, index = match.groups()
    return xv(int(index)) if side == "x" else yv(int(index))


def vertex_pair_reference(token: str) -> tuple[VertexRef, VertexRef]:
    parts = token.split(">")
    if len(parts) != 2:
        raise InstanceFormatError(f"bad arc token {token!r}")
    return parse_vertex_reference(parts[0]), parse_vertex_reference(parts[1])


def build_reference(m: int, n: int, arcs=()) -> BipartiteDigraph:
    """build() making one Arc per item; the Arc rejects a same-side pair."""
    if m < 0 or n < 0:
        raise OutOfRange(f"side sizes must be non-negative, got {m}, {n}")
    orient = bytearray(m * n)
    for item in arcs:
        arc = Arc(*item)
        if arc.tail.side == "X":
            xi, yj, state = arc.tail.index, arc.head.index, TO_Y
        else:
            xi, yj, state = arc.head.index, arc.tail.index, TO_X
        if not (0 <= xi < m and 0 <= yj < n):
            raise OutOfRange(f"arc {arc} outside a {m}x{n} graph")
        p = xi * n + yj
        if orient[p] != 0:
            raise DuplicatePair(f"pair (x{xi}, y{yj}) listed more than once")
        orient[p] = state
    return BipartiteDigraph(m, n, bytes(orient))


def parse_instance_reference(text: str) -> BipartiteDigraph:
    """parse_instance with one regex match and VertexRef per arc token."""
    sizes = None
    arcs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if sizes is not None:
                raise InstanceFormatError(f"line {lineno}: second problem line")
            if len(fields) != 4 or fields[1] != "bt":
                raise InstanceFormatError(f"line {lineno}: expected 'p bt <m> <n>'")
            if not all(re.fullmatch(r"-?[0-9]{1,4300}", size) for size in fields[2:]):
                raise InstanceFormatError(f"line {lineno}: non-integer side size")
            sizes = (int(fields[2]), int(fields[3]))
            if min(sizes) >= 0 and sizes[0] * sizes[1] > MAX_PAIRS:
                raise InstanceFormatError(
                    f"line {lineno}: {sizes[0]}x{sizes[1]} has more than {MAX_PAIRS} cross pairs"
                )
            if max(sizes) > MAX_SIDE:
                raise InstanceFormatError(f"line {lineno}: a side has more than {MAX_SIDE} vertices")
        elif fields[0] == "a":
            if sizes is None:
                raise InstanceFormatError(f"line {lineno}: arc before the problem line")
            if len(fields) != 3:
                raise InstanceFormatError(f"line {lineno}: expected 'a <tail> <head>'")
            arcs.append((parse_vertex_reference(fields[1]), parse_vertex_reference(fields[2])))
        else:
            raise InstanceFormatError(f"line {lineno}: unknown line type {fields[0]!r}")
    if sizes is None:
        raise InstanceFormatError("missing problem line 'p bt <m> <n>'")
    try:
        return build_reference(sizes[0], sizes[1], arcs)
    except PreconditionError as exc:
        raise InstanceFormatError(str(exc)) from exc


def check_fas_reference(graph: BipartiteDigraph, arcs, bound=None):
    """check_fas over a set of Arcs: delete, sort, and scan for a foreign arc on failure."""

    def present(tail, head):
        try:
            return graph.has_arc(Arc(tail, head))
        except PreconditionError:
            return False

    try:
        distinct = {Arc(*a) for a in arcs}
        acyclic = graph.delete_arcs(distinct).topological_order().order is not None
    except PreconditionError:
        for tail, head in arcs:
            if not present(tail, head):
                return f"arc {tail}>{head} is not in the instance"
        raise
    if not acyclic:
        return "deleting the arcs leaves a cycle"
    if bound is not None and len(distinct) > bound:
        return f"{len(distinct)} arcs exceed the bound {bound}"
    return None


def verify_fas_reference(text: str, doc: dict, k=None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `btfas verify --fas` by the reference path."""

    def error(message: str, code: int, out: str = "") -> tuple[int, str, str]:
        return code, out, f"btfas: error: {message}\n"

    def emit(result: dict) -> str:
        return json.dumps({"mode": "verify", "kind": "fas", **result}, indent=2) + "\n"

    def fail(reason: str) -> tuple[int, str, str]:
        return error(f"certificate rejected: {reason}", 2, emit({"valid": False, "reason": reason}))

    try:
        graph = parse_instance_reference(text)
    except InstanceFormatError as exc:
        return error(str(exc), 1)
    raw = doc.get("fas")
    if not isinstance(raw, list):
        return fail("certificate has no arc list under 'fas'")
    for token in raw:
        if not isinstance(token, str):
            return fail(f"arc token {token!r} is not a string")
    try:
        arcs = [vertex_pair_reference(token) for token in raw]
    except InstanceFormatError as exc:
        return error(str(exc), 1)
    bound = None if k is None else 7 * (k - 1)
    reason = check_fas_reference(graph, arcs, bound)
    if reason is not None:
        return fail(reason)
    return 0, emit({"valid": True, "size": len(set(arcs)), "bound": bound}), ""


# ----------------------------------------------------------------------
# reference for check_packing: the Arc-set check it replaced

# A fragment of each reason check_packing gives.
PACKING_REASONS = ("is not a 4-cycle here", "cycles share an arc", "cycles, need")


def check_packing_reference(graph: BipartiteDigraph, cycles, k=None):
    """check_packing over Arcs: a cycle counts if its 4 distinct vertices close a cycle."""
    seen = set()
    for cycle in cycles:
        if not (len(cycle.vertices) == 4 and is_cycle_sequence(graph, cycle.vertices)):
            return f"{[str(v) for v in cycle.vertices]} is not a 4-cycle here"
        if not seen.isdisjoint(cycle.arcs()):
            return "cycles share an arc"
        seen.update(cycle.arcs())
    if k is not None and len(cycles) < k:
        return f"only {len(cycles)} cycles, need {k}"
    return None


def verify_packing_reference(text: str, doc: dict, k=None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `btfas verify --packing` by the reference path.

    Entry by entry, each entry's shape and then its tokens are read, before
    any cycle is checked by :func:`check_packing_reference`.
    """

    def error(message: str, code: int, out: str = "") -> tuple[int, str, str]:
        return code, out, f"btfas: error: {message}\n"

    def emit(result: dict) -> str:
        return json.dumps({"mode": "verify", "kind": "packing", **result}, indent=2) + "\n"

    def fail(reason: str) -> tuple[int, str, str]:
        return error(f"certificate rejected: {reason}", 2, emit({"valid": False, "reason": reason}))

    try:
        graph = parse_instance_reference(text)
    except InstanceFormatError as exc:
        return error(str(exc), 1)
    raw = doc.get("packing")
    if not isinstance(raw, list):
        return fail("certificate has no cycle list under 'packing'")
    cycles = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 4 and all(isinstance(t, str) for t in entry)):
            return fail(f"bad cycle entry {entry!r}")
        try:
            cycles.append(FourCycle(tuple(map(parse_vertex_reference, entry))))
        except InstanceFormatError as exc:
            return error(str(exc), 1)
    reason = check_packing_reference(graph, cycles, k)
    if reason is not None:
        return fail(reason)
    return 0, emit({"valid": True, "count": len(cycles)}), ""


def candidate_packing(rng: random.Random, graph: BipartiteDigraph, genuine) -> list[FourCycle]:
    """0 to 3 candidate cycles for a packing check, valid or not.

    Each is one of the ``genuine`` 4-cycles rotated (so two may share
    arcs), one reversed or with a repeated vertex, an alternating
    sequence of random indices, a sequence of random sides and indices
    (foreign, same-side and out-of-range vertices, some negative), or a
    walk along arcs of at most 3, 5 or 6 vertices, which may close a 6-cycle.
    """
    size = max(graph.m, graph.n) + 1
    cycles = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(7)
        if kind <= 2 and genuine:
            vertices = list(rng.choice(genuine).vertices)
            r = rng.randrange(4)
            vertices = vertices[r:] + vertices[:r]
            if kind == 1:
                vertices.reverse()
            elif kind == 2:
                vertices[rng.randrange(4)] = vertices[rng.randrange(4)]
        elif kind == 3:
            vertices = [make(rng.randrange(size)) for make in (xv, yv, xv, yv)]
        elif kind == 6 and graph.m:
            length, vertices = rng.choice((3, 5, 6)), [xv(rng.randrange(graph.m))]
            while len(vertices) < length and out_neighbors(graph, vertices[-1]):
                vertices.append(rng.choice(out_neighbors(graph, vertices[-1])))
        else:
            vertices = [VertexRef(rng.choice("XY"), rng.randrange(-1, size)) for _ in range(4)]
        cycles.append(FourCycle(tuple(vertices)))
    return cycles


# ----------------------------------------------------------------------
# planted tournaments whose greedy residual keeps a cycle


def planted_bt(seed: int, blocks: int) -> BipartiteDigraph:
    """A bipartite tournament with 2 * blocks vertices per side.

    A long-cycle blow-up X_b -> Y_b -> X_{b+1} over 2-vertex blocks, with
    every other 2x2 block pair oriented as a 4-cycle in one of its two
    directions, chosen at random.  Labels are shuffled at the end.  Greedy
    packing mostly takes the planted 4-cycles, and what it leaves of the
    blow-up often still holds a longer cycle.
    """
    rng = random.Random(seed)
    side = 2 * blocks
    orient = bytearray(side * side)
    for a in range(blocks):  # X block a against Y block c
        for c in range(blocks):
            flip = rng.random() < 0.5
            for s in range(2):
                for t in range(2):
                    if c == a:
                        state = TO_Y
                    elif c == (a - 1) % blocks:
                        state = TO_X
                    else:  # x_a0 -> y_c0 -> x_a1 -> y_c1 -> x_a0, or its reverse
                        state = TO_Y if (s == t) != flip else TO_X
                    orient[(2 * a + s) * side + 2 * c + t] = state
    return _shuffled(rng, side, side, orient)


# ----------------------------------------------------------------------
# reference for solve: the object-based pipeline the integer core replaced


def backward_arcs_reference(order, cycles) -> frozenset[Arc]:
    """Cycle arcs whose tail comes after their head, by a VertexRef position map."""
    position = {v: i for i, v in enumerate(order)}
    backward = []
    for cycle in cycles:
        verts = cycle.vertices
        backward.extend(
            Arc(verts[t], verts[(t + 1) % 4])
            for t in range(4)
            if position[verts[t]] > position[verts[(t + 1) % 4]]
        )
    return frozenset(backward)


def one_packed_cycle(rng: random.Random, m: int, n: int):
    """A random m x n tournament holding a random 4-cycle, without that cycle's pairs, and a random order.

    Returns (tournament, residual, order): the residual lacks exactly the cycle's four pairs,
    and the order lists every vertex once.
    """
    xi, xk = rng.sample(range(m), 2)
    yj, yl = rng.sample(range(n), 2)
    orient = bytearray(rng.choice((TO_Y, TO_X)) for _ in range(m * n))
    cycle = {xi * n + yj: TO_Y, xk * n + yj: TO_X, xk * n + yl: TO_Y, xi * n + yl: TO_X}
    for p, state in cycle.items():
        orient[p] = state
    tournament = BipartiteDigraph(m, n, bytes(orient))
    order = x_vertices(tournament) + y_vertices(tournament)
    rng.shuffle(order)
    return tournament, tournament.clear_pairs(cycle), order


def solve_reference(tournament: BipartiteDigraph, k: int):
    """solve over Arcs: the residual cut as Arcs, a second sort, Arc backward arcs."""
    if k < 0:
        raise OutOfRange(f"k must be non-negative, got {k}")
    absent = tournament.absent_pair_count()
    if absent != 0:
        raise NotATournament(f"{absent} cross pairs carry no arc")
    packing = greedy_pack(tournament, limit=k)
    if len(packing.cycles) >= k:
        require(check_packing(tournament, packing.cycles, k))
        return PackingOutcome(k, packing)
    certificate = fas_c4free(packing.residual)
    topo = packing.residual.delete_arcs(certificate.fas).topological_order()
    backward = backward_arcs_reference(topo.order, packing.cycles)
    fas = certificate.fas | backward
    bound = 7 * (k - 1)
    require(check_fas_pairs(tournament, HeldArcs.pairs_of(tournament, fas), bound, topo.order)[0])
    return FasOutcome(k, packing, certificate.fas, backward, topo.order, bound)


# ----------------------------------------------------------------------
# a seeded hill climb towards deep decompositions inside solve


def residual_trace_score(graph: BipartiteDigraph) -> tuple[int, bool, bool, int]:
    """(max depth, reversed reached, Y center reached, nodes) of the greedy residual's trace."""
    trace = fas_c4free(greedy_pack(graph).residual).trace
    return (
        max((node.depth for node in trace), default=-1),
        any(node.mode == "reversed" for node in trace),
        any(node.center.side == "Y" for node in trace),
        len(trace),
    )


def climb_deep_residual(seed: int, blocks: int, depth: int, steps: int) -> BipartiteDigraph:
    """Flip 1 or 2 random pairs of ``planted_bt(seed, blocks)`` per step until the residual reaches depth.

    A step's flips are kept unless ``residual_trace_score`` goes down; the
    climb stops at the first instance whose trace reaches ``depth`` with a
    reversed node and a Y center, or after ``steps`` steps.  The flips are
    drawn from ``random.Random(seed)``, so a call is deterministic.
    """
    graph = planted_bt(seed, blocks)
    rng, orient = random.Random(seed), bytearray(graph.orient)
    score = residual_trace_score(graph)
    for _ in range(steps):
        if score[:3] >= (depth, True, True):
            break
        pairs = rng.sample(range(len(orient)), rng.choice((1, 2)))
        for p in pairs:
            orient[p] ^= TO_X ^ TO_Y
        trial = BipartiteDigraph(graph.m, graph.n, bytes(orient))
        trial_score = residual_trace_score(trial)
        if trial_score >= score:
            graph, score = trial, trial_score
        else:
            for p in pairs:
                orient[p] ^= TO_X ^ TO_Y
    return graph


# ----------------------------------------------------------------------
# arc sets held as pairs until read


def check_lazy_arc_sets(lazy, eager, fields: tuple[str, ...]) -> None:
    """``lazy`` holds ``fields`` as pairs and behaves as ``eager``, built publicly from frozensets.

    ==, hash and repr each run on an unread shallow copy (which shares the held pairs), then again
    once that read has built the sets; a pickle round trip, ``copy.deepcopy`` and
    ``dataclasses.replace`` of unread copies each give an object of equal value and hash.  A round
    trip rebuilds each set by insertion, so its repr may list the arcs in another order, as it
    may for an object whose sets were built eagerly.
    """
    unread = lambda obj: all(isinstance(vars(obj)[name], HeldArcs) for name in fields)  # noqa: E731
    assert unread(lazy)
    for same in (lambda c: c == eager, lambda c: hash(c) == hash(eager), lambda c: repr(c) == repr(eager)):
        twin = copy.copy(lazy)
        assert unread(twin) and same(twin)
        assert not any(isinstance(vars(twin)[name], HeldArcs) for name in fields)
        assert same(twin)
    rebuilt = [pickle.loads(pickle.dumps(copy.copy(lazy))), copy.deepcopy(copy.copy(lazy))]
    rebuilt.append(dataclasses.replace(copy.copy(lazy)))
    assert unread(lazy)
    assert all(obj == eager and hash(obj) == hash(eager) for obj in rebuilt)
