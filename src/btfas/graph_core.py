"""Immutable bipartite digraphs with dense per-pair orientation storage.

Each instance keeps one byte per cross pair (x_i, y_j): the pair carries
the arc x->y, the arc y->x, or no arc at all.  Same-side arcs and 2-cycles
are unrepresentable, which every algorithm in this package relies on.  A
bipartite tournament is the special case with no absent pairs.

All values are frozen after construction; every operation returns a new
graph, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ArcNotPresent, DuplicatePair, InternalInvariantError, OutOfRange, SameSideArc

ABSENT = 0
TO_Y = 1  # pair (x_i, y_j) carries the arc x_i -> y_j
TO_X = 2  # pair (x_i, y_j) carries the arc y_j -> x_i

# Byte translation table swapping TO_Y and TO_X, used by reverse() and swap_sides().
_REVERSE_TABLE = bytes(TO_X if b == TO_Y else TO_Y if b == TO_X else b for b in range(256))
_DIGITS = {s: bytes(ord("1") if b == s else ord("0") for b in range(256)) for s in (TO_Y, TO_X)}


def low_bit(mask: int) -> int:
    """Index of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _or_tree(masks: Sequence[int]) -> list[int]:
    """A segment tree of masks under OR: leaf i at ``size + i``, the OR of all at index 1."""
    size = 1 << max(len(masks) - 1, 0).bit_length()
    tree = [0] * size + list(masks) + [0] * (size - len(masks))
    for k in range(size - 1, 0, -1):
        tree[k] = tree[2 * k] | tree[2 * k + 1]
    return tree


def _or_tree_clear(tree: list[int], i: int) -> None:
    """Zero leaf i of an :func:`_or_tree` and recompute the ORs on its path to the root."""
    k = (len(tree) >> 1) + i
    tree[k] = 0
    while k > 1:
        tree[k >> 1] = tree[k] | tree[k ^ 1]
        k >>= 1


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


@lru_cache(maxsize=16)  # a table per (m, n), shared by every graph of that size
def _labels(m: int, n: int) -> tuple[tuple[VertexRef, ...], tuple[VertexRef, ...]]:
    return tuple(map(xv, range(m))), tuple(map(yv, range(n)))


class _ArcFields(NamedTuple):
    tail: VertexRef
    head: VertexRef


class Arc(_ArcFields):
    """A directed cross-pair edge: the (tail, head) pair, checked to cross sides.

    ``tuple.__new__(Arc, ...)``, ``_make`` and ``_replace`` skip the check; :func:`pair_state`
    still rejects the pair.
    """

    __slots__ = ()

    def __new__(cls, tail: VertexRef, head: VertexRef) -> "Arc":
        if tail.side == head.side:
            raise SameSideArc(f"arc {tail}->{head} does not cross the bipartition")
        return tuple.__new__(cls, (tail, head))

    def __str__(self) -> str:
        return f"{self.tail}>{self.head}"


class FourCycle(NamedTuple):
    """A directed 4-cycle (x, y, x', y') with arcs x->y, y->x', x'->y', y'->x.

    A 1-tuple: it equals, hashes and sorts as its plain ``(vertices,)``.
    """

    vertices: tuple[VertexRef, VertexRef, VertexRef, VertexRef]

    def arcs(self) -> tuple[Arc, Arc, Arc, Arc]:
        a, b, c, d = self.vertices
        return (Arc(a, b), Arc(b, c), Arc(c, d), Arc(d, a))


def four_cycle(xi: int, yj: int, xk: int, yl: int) -> FourCycle:
    """Build the 4-cycle x_i -> y_j -> x_k -> y_l -> x_i."""
    return FourCycle((xv(xi), yv(yj), xv(xk), yv(yl)))


class Rows(NamedTuple):
    """One side's out and in masks over the other side; reversal swaps them."""

    out: Sequence[int]
    inn: Sequence[int]


class TopoResult(NamedTuple):
    """A topological order of all vertices, or None when the graph has a cycle."""

    order: Optional[tuple[VertexRef, ...]]


@dataclass(frozen=True)
class BipartiteDigraph:
    """Orientation state of every cross pair of a bipartition.

    ``orient`` is row-major over (x-index, y-index) with one of ABSENT,
    TO_Y, TO_X per pair.  Use :func:`build` for validated construction.

    ``x_masks`` and ``y_masks`` are per-vertex adjacency bitmasks derived
    from ``orient`` on first use and cached on the instance; the greedy
    residual and ``fas_c4free``'s graph minus its cut are handed theirs by
    :meth:`clear_pairs`.  The ``labels`` table is shared by every graph of
    one size.  None of them is a field, so they take no part in equality,
    hashing or ``repr``.
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
        return HeldArcs.pairs_of(self, [arc])[0] >= 0

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
        y_tails = [p for j in range(n) for p in range(j, len(orient), n) if orient[p] == TO_X]  # by (j, i)
        return pair_arcs(self, [p for p, state in enumerate(orient) if state == TO_Y] + y_tails)

    @cached_property
    def x_masks(self) -> Rows:
        """(out, in) per X row: bit j of out[i] is x_i -> y_j, of in[i] is y_j -> x_i."""
        return self._masks(x_side=True)

    @cached_property
    def y_masks(self) -> Rows:
        """(out, in) per Y column: bit i of out[j] is y_j -> x_i, of in[j] is x_i -> y_j."""
        return self._masks(x_side=False)

    def _masks(self, x_side: bool) -> Rows:
        """One side's (out, in) masks, from ``orient`` reversed and translated by ``_DIGITS``.

        Reversed, a row or column lists its highest index first, and translated for one state
        it reads "1" at that state's pairs: a base-2 mask.  One translated copy is held at a time.
        """
        m, n = self.m, self.n
        if not self.orient:  # no pairs: every mask is 0
            return Rows(*[(0,) * (m if x_side else n)] * 2)
        flipped = self.orient[::-1]
        if x_side:  # row i starts at (m - 1 - i) * n when reversed
            read = lambda d: tuple(int(d[s : s + n], 2) for s in range((m - 1) * n, -1, -n))  # noqa: E731
        else:  # column j is every n-th byte from n - 1 - j when reversed
            read = lambda d: tuple(int(d[s::n], 2) for s in range(n - 1, -1, -1))  # noqa: E731
        states = (TO_Y, TO_X) if x_side else (TO_X, TO_Y)
        return Rows(*(read(flipped.translate(_DIGITS[state])) for state in states))

    @property
    def labels(self) -> tuple[tuple[VertexRef, ...], tuple[VertexRef, ...]]:
        """The X and the Y vertices by index, as the shared ``xv``/``yv`` handles: one table per size."""
        return _labels(self.m, self.n)

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
        arcs = list(arcs)
        pairs = HeldArcs.pairs_of(self, arcs)
        if -1 in pairs:
            raise ArcNotPresent("arc %s>%s not in the graph" % tuple(arcs[pairs.index(-1)]))
        return self.clear_pairs(pairs)

    def clear_pairs(self, pairs: Iterable[int], *rows: Rows) -> "BipartiteDigraph":
        """The graph with the pairs at the given row-major indices made absent.

        Only ``orient`` is copied.  ``rows`` are the result's (out, in) X rows and then, if given,
        its Y rows, already cleared by the caller: they become its ``x_masks`` and ``y_masks`` as
        tuples.  ``greedy_pack`` passes its scan's X rows, ``fas_c4free`` the decomposition's X and
        Y rows.  Every other mask is derived on first use.  Clearing a pair twice is harmless.
        """
        orient = bytearray(self.orient)
        for p in pairs:
            orient[p] = ABSENT
        graph = BipartiteDigraph(self.m, self.n, bytes(orient))
        for name, side in zip(("x_masks", "y_masks"), rows):
            graph.__dict__[name] = Rows(*map(tuple, side))
        return graph

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
        """Kahn's algorithm with the smallest-label tie-break, placed in ready runs.

        Kahn places the ready (in-degree 0) vertex with the smallest (side, index) label, X
        before Y.  Placing an X vertex frees only Y vertices and the reverse, so while X vertices
        are ready Kahn places them all in index order, freeing no X vertex, then places the one
        smallest ready Y vertex, which may free some, and repeats.  x_i is ready when bit i is
        clear in the OR of the unplaced Y vertices' out-masks, and y_j likewise; each OR is the
        root of an :func:`_or_tree`, so a placement costs one leaf-to-root path, not one step per
        arc.  When no vertex is ready, each unplaced vertex must show an unplaced in-neighbor in
        the storage, so the unplaced set holds a cycle.
        """
        m, n, orient = self.m, self.n, self.orient
        (x_out, x_in), (y_out, y_in) = self.x_masks, self.y_masks
        xs, ys = self.labels
        x_tree, y_tree = _or_tree(x_out), _or_tree(y_out)
        left_x, left_y = (1 << m) - 1, (1 << n) - 1
        ready_y = left_y & ~x_tree[1]
        order: list[VertexRef] = []
        while True:
            ready_x = left_x & ~y_tree[1]
            if ready_x:
                left_x ^= ready_x
                for i in bit_indices(ready_x):
                    order.append(xs[i])
                    _or_tree_clear(x_tree, i)
                ready_y = left_y & ~x_tree[1]
            elif ready_y:
                j = low_bit(ready_y)
                ready_y, left_y = ready_y ^ (1 << j), left_y ^ (1 << j)
                order.append(ys[j])
                _or_tree_clear(y_tree, j)
            else:
                break
        if not (left_x or left_y):
            return TopoResult(tuple(order))

        # Each unplaced vertex, X first, with its lowest unplaced in-neighbor by the masks (-1 for none).
        left = [(xs[i], i, low_bit(x_in[i] & left_y), TO_X) for i in bit_indices(left_x)]
        left += [(ys[j], low_bit(y_in[j] & left_x), j, TO_Y) for j in bit_indices(left_y)]
        for v, i, j, state in left:
            if min(i, j) < 0 or orient[i * n + j] != state:
                raise InternalInvariantError(f"Kahn left {v} without an unplaced in-neighbor")
        return TopoResult(None)

    def is_forward_order(self, order: Sequence[VertexRef]) -> bool:
        """True iff order lists every vertex once and every arc runs forward.

        Such an order certifies that the graph is acyclic.
        """
        m, n = self.m, self.n
        ids = []
        for v in order:
            if not 0 <= v.index < (m if v.side == "X" else n if v.side == "Y" else 0):
                return False
            ids.append(v.index if v.side == "X" else m + v.index)
        if sorted(ids) != list(range(m + n)):
            return False
        x_out, x_in = self.x_masks
        # Every arc has an X end, so walk the order backwards checking X rows
        # only: each X vertex's out-neighbors come later, its in-neighbors not.
        later_y = 0
        for v in reversed(ids):
            if v >= m:
                later_y |= 1 << (v - m)
            elif x_out[v] & ~later_y or x_in[v] & later_y:
                return False
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

    None unless one end is on side X and the other on side Y, both inside an m x n graph.
    Only :func:`place_arc` and :meth:`HeldArcs.pairs_of` read it.
    """
    if tail.side == "X" and head.side == "Y":
        i, j, state = tail.index, head.index, TO_Y
    elif tail.side == "Y" and head.side == "X":
        i, j, state = head.index, tail.index, TO_X
    else:
        return None
    if not (0 <= i < m and 0 <= j < n):
        return None
    return i * n + j, state


def cycle_pairs(graph: BipartiteDigraph, cycle: FourCycle) -> Sequence[int]:
    """A 4-cycle's pairs by :meth:`HeldArcs.pairs_of`, the closing arc first; -1 for an arc graph lacks."""
    return HeldArcs.pairs_of(graph, zip(cycle.vertices[-1:] + cycle.vertices[:-1], cycle.vertices))


def pair_arcs(graph: BipartiteDigraph, pairs: Iterable[int]) -> list[Arc]:
    """The arcs ``graph.orient`` holds at the pairs, on ``graph.labels``: :meth:`HeldArcs.pairs_of` inverted."""
    n, (xs, ys), orient, new = graph.n, graph.labels, graph.orient, tuple.__new__
    return [new(Arc, (xs[p // n], ys[p % n]) if orient[p] == TO_Y else (ys[p % n], xs[p // n])) for p in pairs]


class HeldArcs(NamedTuple):
    """An arc set held as a graph and an ``array('q')`` of its checked pairs, each arc the one
    ``graph.orient`` holds there.  Pickled and copied as the frozenset it stands for.

    :meth:`pairs_of` is the one step from arcs to pairs and :func:`pair_arcs` the one step back:
    outside this module, arcs travel as pair indices, -1 for an arc the graph lacks.
    """

    graph: BipartiteDigraph
    pairs: Sequence[int]

    @staticmethod
    def pairs_of(graph: BipartiteDigraph, arcs: Iterable) -> Sequence[int]:
        """Held pairs as they are, or the pair of each (tail, head) pair graph holds, else -1."""
        if isinstance(arcs, HeldArcs):
            return arcs.pairs
        m, n, orient = graph.m, graph.n, graph.orient
        return [key[0] if (key := pair_state(m, n, *arc)) and orient[key[0]] == key[1] else -1 for arc in arcs]

    def arcs(self) -> frozenset[Arc]:
        """The set, built by :func:`pair_arcs`."""
        return frozenset(pair_arcs(self.graph, self.pairs))

    def __reduce__(self):  # type: ignore[override]
        return frozenset, (self.arcs(),)


class LazyArcSet:
    """A ``frozenset[Arc]`` dataclass field, without default, that also takes a :class:`HeldArcs`:
    the first read builds the set in its place, and threads racing on that read build equal sets."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, owner: Optional[type] = None) -> frozenset[Arc]:
        if obj is None:  # no class-level value, so the dataclass field gets no default
            raise AttributeError(self.name)
        held = vars(obj)[self.name]
        if isinstance(held, HeldArcs):
            held = vars(obj)[self.name] = held.arcs()
        return held

    def __set__(self, obj: object, value: object) -> None:
        vars(obj)[self.name] = value


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
