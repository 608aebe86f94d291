"""Deterministic, seeded instance generation.

The random source is the Mersenne Twister as exposed by
``random.Random(seed)``, drawing one float per cross pair in row-major
(x-index, y-index) order; the pair orients x -> y when the draw is below
``bias``.  This procedure is part of the package contract: regenerating
from the same ``GenSpec`` yields the identical graph on every platform,
and golden tests pin the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .c4free_fas import find_4cycle
from .cycle_packing import greedy_pack
from .errors import InternalInvariantError, OutOfRange, TooLarge
from .graph_core import TO_X, TO_Y, BipartiteDigraph

MAX_ENUMERATION_PAIRS = 16


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random instance."""

    m: int
    n: int
    seed: int
    bias: float = 0.5

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise OutOfRange(f"side sizes must be non-negative, got {self.m}, {self.n}")
        if self.seed < 0:  # random.Random(-s) seeds the same stream as random.Random(s)
            raise OutOfRange(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.bias <= 1.0:
            raise OutOfRange(f"bias must lie in [0, 1], got {self.bias}")


def random_bt(spec: GenSpec) -> BipartiteDigraph:
    """Random bipartite tournament; every pair is oriented independently."""
    rng = random.Random(spec.seed)
    orient = bytearray(spec.m * spec.n)
    for p in range(spec.m * spec.n):
        orient[p] = TO_Y if rng.random() < spec.bias else TO_X
    return BipartiteDigraph(spec.m, spec.n, bytes(orient))


def random_c4free(spec: GenSpec) -> BipartiteDigraph:
    """Random 4-cycle-free instance: a tournament minus a maximal packing."""
    tournament = random_bt(spec)
    residual = greedy_pack(tournament).residual
    if find_4cycle(residual) is not None:
        raise InternalInvariantError("maximal packing left a 4-cycle behind")
    return residual


def enumerate_bt(m: int, n: int) -> Iterator[BipartiteDigraph]:
    """All 2^(m*n) complete orientations, in binary-counter order.

    Bit p of the counter controls pair p in row-major order: 0 orients
    x -> y, 1 orients y -> x.
    """
    if m < 0 or n < 0:
        raise OutOfRange(f"side sizes must be non-negative, got {m}, {n}")
    if m * n > MAX_ENUMERATION_PAIRS:
        raise TooLarge(f"{m * n} pairs exceed the enumeration limit of {MAX_ENUMERATION_PAIRS}")
    pairs = m * n
    for code in range(1 << pairs):
        yield BipartiteDigraph(m, n, bytes(TO_X if code >> p & 1 else TO_Y for p in range(pairs)))
