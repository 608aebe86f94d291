"""Immutable bipartite digraphs with dense per-pair orientation storage.

Each instance keeps one byte per cross pair (x_i, y_j): the pair carries
the arc x->y, the arc y->x, or no arc at all.  Same-side arcs and 2-cycles
are unrepresentable, which every algorithm in this package relies on.  A
bipartite tournament is the special case with no absent pairs.

All values are frozen after construction; every operation returns a new
graph, so instances can be shared freely across threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ArcNotPresent, DuplicatePair, InternalInvariantError, OutOfRange, SameSideArc

ABSENT = 0
TO_Y = 1  # pair (x_i, y_j) carries the arc x_i -> y_j
TO_X = 2  # pair (x_i, y_j) carries the arc y_j -> x_i

# Byte translation table swapping TO_Y and TO_X, used by reverse() and swap_sides().
_REVERSE_TABLE = bytes(TO_X if b == TO_Y else TO_Y if b == TO_X else b for b in range(256))
# Tables mapping one orientation state to the digit "1" and all others to
# "0", so a translated run of pair states parses as a base-2 integer.
_TO_Y_DIGITS = bytes(ord("1") if b == TO_Y else ord("0") for b in range(256))
_TO_X_DIGITS = bytes(ord("1") if b == TO_X else ord("0") for b in range(256))


def _mask(states: bytes, digits: bytes) -> int:
    """Bitmask with bit t set iff states[t] is the state ``digits`` marks."""
    return int(states[::-1].translate(digits), 2) if states else 0


def low_bit(mask: int) -> int:
    """Index of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexRef(NamedTuple):
    """Handle for one vertex: side "X" or "Y" plus the position in that side.

    A tuple ordered (side, index), "X" before "Y"; the deterministic
    tie-breaks below depend on it.
    """

    side: str
    index: int

    def __str__(self) -> str:
        return f"{self.side.lower()}{self.index}"


# One shared VertexRef per index for the FourCycles and Arcs that solve
# returns; bounded, so indices from any source cannot grow it for good.
@lru_cache(maxsize=1 << 16)
def xv(i: int) -> VertexRef:
    return VertexRef("X", i)


@lru_cache(maxsize=1 << 16)
def yv(j: int) -> VertexRef:
    return VertexRef("Y", j)


class _ArcFields(NamedTuple):
    tail: VertexRef
    head: VertexRef


class Arc(_ArcFields):
    """A directed cross-pair edge: the (tail, head) pair, checked to cross sides.

    ``_make`` and ``_replace`` skip the check; :func:`pair_state` still rejects the pair.
    """

    __slots__ = ()

    def __new__(cls, tail: VertexRef, head: VertexRef) -> "Arc":
        if tail.side == head.side:
            raise SameSideArc(f"arc {tail}->{head} does not cross the bipartition")
        return tuple.__new__(cls, (tail, head))

    def __str__(self) -> str:
        return f"{self.tail}>{self.head}"


@dataclass(frozen=True, order=True)
class FourCycle:
    """A directed 4-cycle (x, y, x', y') with arcs x->y, y->x', x'->y', y'->x."""

    vertices: tuple[VertexRef, VertexRef, VertexRef, VertexRef]

    def arcs(self) -> tuple[Arc, Arc, Arc, Arc]:
        a, b, c, d = self.vertices
        return (Arc(a, b), Arc(b, c), Arc(c, d), Arc(d, a))


def four_cycle(xi: int, yj: int, xk: int, yl: int) -> FourCycle:
    """Build the 4-cycle x_i -> y_j -> x_k -> y_l -> x_i."""
    return FourCycle((xv(xi), yv(yj), xv(xk), yv(yl)))


class TopoResult(NamedTuple):
    """A topological order of all vertices, or None when the graph has a cycle."""

    order: Optional[tuple[VertexRef, ...]]


@dataclass(frozen=True)
class BipartiteDigraph:
    """Orientation state of every cross pair of a bipartition.

    ``orient`` is row-major over (x-index, y-index) with one of ABSENT,
    TO_Y, TO_X per pair.  Use :func:`build` for validated construction.

    ``x_masks`` and ``y_masks`` are per-vertex adjacency bitmasks derived
    from ``orient`` on first use and cached on the instance.  They are not
    fields, so they take no part in equality, hashing or ``repr``.
    """

    m: int
    n: int
    orient: bytes

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise OutOfRange(f"side sizes must be non-negative, got {self.m}, {self.n}")
        if len(self.orient) != self.m * self.n:
            raise ValueError(
                f"orientation storage has {len(self.orient)} entries, expected {self.m * self.n}"
            )

    # ------------------------------------------------------------------
    # basic queries

    def pair(self, xi: int, yj: int) -> int:
        """Orientation state of the cross pair (x_xi, y_yj)."""
        if not (0 <= xi < self.m and 0 <= yj < self.n):
            raise OutOfRange(f"pair (x{xi}, y{yj}) outside a {self.m}x{self.n} graph")
        return self.orient[xi * self.n + yj]

    def has_arc(self, arc: tuple[VertexRef, VertexRef]) -> bool:
        """False also for a pair that does not cross sides or leaves this graph."""
        found = pair_state(self.m, self.n, *arc)
        return found is not None and self.orient[found[0]] == found[1]

    def arc_count(self) -> int:
        return self.m * self.n - self.orient.count(ABSENT)

    def absent_pair_count(self) -> int:
        """Number of non-adjacent cross pairs; equals m*n minus the arc count."""
        return self.orient.count(ABSENT)

    def vertices(self) -> Iterator[VertexRef]:
        """X vertices by index, then Y vertices by index."""
        yield from map(xv, range(self.m))
        yield from map(yv, range(self.n))

    def arcs(self) -> list[Arc]:
        """All arcs in canonical order: X-tail arcs by (i, j), then Y-tail by (j, i)."""
        n, orient = self.n, self.orient
        out = [pair_arc(n, p, TO_Y) for p, state in enumerate(orient) if state == TO_Y]
        for j in range(n):  # Y-tail arcs by (j, i): pair column j
            out += [pair_arc(n, i * n + j, TO_X) for i, s in enumerate(orient[j::n]) if s == TO_X]
        return out

    @cached_property
    def x_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(out, in) per X row: bit j of out[i] is x_i -> y_j, of in[i] is y_j -> x_i."""
        n = self.n
        rows = [self.orient[i * n : (i + 1) * n] for i in range(self.m)]
        return (
            tuple(_mask(row, _TO_Y_DIGITS) for row in rows),
            tuple(_mask(row, _TO_X_DIGITS) for row in rows),
        )

    @cached_property
    def y_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(out, in) per Y column: bit i of out[j] is y_j -> x_i, of in[j] is x_i -> y_j."""
        cols = [self.orient[j :: self.n] for j in range(self.n)]
        return (
            tuple(_mask(col, _TO_X_DIGITS) for col in cols),
            tuple(_mask(col, _TO_Y_DIGITS) for col in cols),
        )

    def _check_vertex(self, v: VertexRef) -> None:
        bound = self.m if v.side == "X" else self.n
        if not (0 <= v.index < bound):
            raise OutOfRange(f"vertex {v} outside a {self.m}x{self.n} graph")

    # ------------------------------------------------------------------
    # structural transforms

    def reverse(self) -> "BipartiteDigraph":
        """The graph with every arc reversed; absent pairs stay absent."""
        return BipartiteDigraph(self.m, self.n, self.orient.translate(_REVERSE_TABLE))

    def swap_sides(self) -> "BipartiteDigraph":
        """Exchange the X and Y roles under index-preserving relabeling.

        The arc x_i -> y_j of the input becomes y_i -> x_j of the result,
        so the pair matrix is transposed and each oriented state flips.
        An involution.
        """
        columns = b"".join(self.orient[j :: self.n] for j in range(self.n))
        return BipartiteDigraph(self.n, self.m, columns.translate(_REVERSE_TABLE))

    def delete_arcs(self, arcs: Iterable[tuple[VertexRef, VertexRef]]) -> "BipartiteDigraph":
        """Remove the listed (tail, head) arcs; their pairs become absent."""
        m, n, orient = self.m, self.n, self.orient
        pairs = []
        for tail, head in arcs:
            found = pair_state(m, n, tail, head)
            if found is None or orient[found[0]] != found[1]:
                raise ArcNotPresent(f"arc {tail}>{head} not in the graph")
            pairs.append(found[0])
        return self.clear_pairs(pairs)

    def clear_pairs(self, pairs: Iterable[int]) -> "BipartiteDigraph":
        """The graph with the pairs at the given row-major indices made absent.

        Only ``orient`` is copied; the result derives its own masks on first
        use.  Clearing a pair twice is harmless.
        """
        orient = bytearray(self.orient)
        for p in pairs:
            orient[p] = ABSENT
        return BipartiteDigraph(self.m, self.n, bytes(orient))

    def induced_subgraph(self, xs: Iterable[int], ys: Iterable[int]) -> "Subgraph":
        """Induced subgraph on the given side indices, with compacted labels.

        The returned :class:`Subgraph` carries the translation maps back to
        this graph's labels.
        """
        x_map = tuple(sorted(set(xs)))
        y_map = tuple(sorted(set(ys)))
        for i in x_map:
            if not (0 <= i < self.m):
                raise OutOfRange(f"x-index {i} outside a {self.m}x{self.n} graph")
        for j in y_map:
            if not (0 <= j < self.n):
                raise OutOfRange(f"y-index {j} outside a {self.m}x{self.n} graph")
        n, orient = self.n, self.orient
        sub = b"".join(bytes(orient[i * n + j] for j in y_map) for i in x_map)
        graph = BipartiteDigraph(len(x_map), len(y_map), sub)
        return Subgraph(graph, x_map, y_map)

    # ------------------------------------------------------------------
    # order and acyclicity

    def topological_order(self) -> TopoResult:
        """Kahn's algorithm with a fixed tie-break; a cyclic verdict is checked in ``orient``.

        Repeatedly removes the in-degree-0 vertex with the smallest
        (side, index) label, X before Y, so the order is reproducible.
        Internally x_i has id i and y_j has id m + j, which sort the same
        way.  When Kahn stops early, each unplaced vertex must show an
        unplaced in-neighbor in the storage, so the unplaced set holds a cycle.
        """
        m, n, orient = self.m, self.n, self.orient
        x_out, x_in = self.x_masks
        y_out, y_in = self.y_masks
        out = x_out + y_out
        indeg = [mask.bit_count() for mask in x_in + y_in]
        ready = [v for v, d in enumerate(indeg) if d == 0]  # sorted, so a heap
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            mask = out[v]
            base = m if v < m else 0
            while mask:
                low = mask & -mask
                mask ^= low
                w = base + low.bit_length() - 1
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) == len(indeg):
            return TopoResult(tuple(map(self._vertex, order)))

        left = [v for v, d in enumerate(indeg) if d]  # the unplaced vertices
        left_x = sum(1 << v for v in left if v < m)
        left_y = sum(1 << (v - m) for v in left if v >= m)
        for v in left:
            if v < m:
                u = low_bit(x_in[v] & left_y)
                p, state = v * n + u, TO_X
            else:
                u = low_bit(y_in[v - m] & left_x)
                p, state = u * n + v - m, TO_Y
            if u < 0 or orient[p] != state:
                raise InternalInvariantError(f"Kahn left {self._vertex(v)} without an unplaced in-neighbor")
        return TopoResult(None)

    def _vertex(self, v: int) -> VertexRef:
        """The vertex with integer id v: x_v below m, else y_(v - m)."""
        return xv(v) if v < self.m else yv(v - self.m)

    def is_forward_order(self, order: Sequence[VertexRef]) -> bool:
        """True iff order lists every vertex once and every arc runs forward.

        Such an order certifies that the graph is acyclic.
        """
        m, n = self.m, self.n
        ids = []
        for v in order:
            if not 0 <= v.index < (m if v.side == "X" else n):
                return False
            ids.append(v.index if v.side == "X" else m + v.index)
        if sorted(ids) != list(range(m + n)):
            return False
        x_out, y_out = self.x_masks[0], self.y_masks[0]
        # Walk the order backwards; each vertex's out-neighbors must all
        # have been seen already, that is, come later in the order.
        later_x = later_y = 0
        for v in reversed(ids):
            if v < m:
                if x_out[v] & ~later_y:
                    return False
                later_x |= 1 << v
            else:
                if y_out[v - m] & ~later_x:
                    return False
                later_y |= 1 << (v - m)
        return True

    def is_feedback_arc_set(self, arcs: Iterable[Arc]) -> bool:
        """True iff deleting the given arcs leaves the graph acyclic."""
        return self.delete_arcs(arcs).topological_order().order is not None


@dataclass(frozen=True)
class Subgraph:
    """An induced subgraph plus the index translation back to its parent."""

    graph: BipartiteDigraph
    x_map: tuple[int, ...]  # subgraph x-index -> parent x-index
    y_map: tuple[int, ...]


def pair_state(m: int, n: int, tail: VertexRef, head: VertexRef) -> Optional[tuple[int, int]]:
    """The row-major index of the pair an arc tail->head crosses, and the state it sets.

    None when the arc does not cross the bipartition or an endpoint lies
    outside an m x n graph.
    """
    if tail.side == head.side:
        return None
    if tail.side == "X":
        i, j, state = tail.index, head.index, TO_Y
    else:
        i, j, state = head.index, tail.index, TO_X
    if not (0 <= i < m and 0 <= j < n):
        return None
    return i * n + j, state


def pair_arc(n: int, p: int, state: int) -> Arc:
    """The arc that state ``state`` of pair ``p`` carries: :func:`pair_state` inverted."""
    i, j = divmod(p, n)
    return Arc(xv(i), yv(j)) if state == TO_Y else Arc(yv(j), xv(i))


def place_arc(orient: bytearray, m: int, n: int, tail: VertexRef, head: VertexRef) -> None:
    """The one pair validator: set tail->head's pair in m x n ``orient``, or raise build's error."""
    found = pair_state(m, n, tail, head)
    if found is None:
        if tail.side == head.side:
            raise SameSideArc(f"arc {tail}->{head} does not cross the bipartition")
        raise OutOfRange(f"arc {tail}>{head} outside a {m}x{n} graph")
    p, state = found
    if orient[p] != ABSENT:
        raise DuplicatePair(f"pair (x{p // n}, y{p % n}) listed more than once")
    orient[p] = state


def build(m: int, n: int, arcs: Iterable[tuple[VertexRef, VertexRef]] = ()) -> BipartiteDigraph:
    """Validated construction from side sizes and arcs, by :func:`place_arc`; unlisted pairs are absent."""
    if m < 0 or n < 0:
        raise OutOfRange(f"side sizes must be non-negative, got {m}, {n}")
    orient = None  # made at the first arc: with none, the storage is allocated once
    for tail, head in arcs:
        if orient is None:
            orient = bytearray(m * n)
        place_arc(orient, m, n, tail, head)
    return BipartiteDigraph(m, n, bytes(m * n) if orient is None else bytes(orient))
