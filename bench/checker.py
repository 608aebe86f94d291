"""Independent certificate checks for benchmark outputs.

Vertices are plain ints: x_i is ``i`` and y_j is ``m + j``.  Arcs are
``(tail, head)`` pairs taken from the benchmark's own raw arc list, never
from the program's graph methods, so a defect in ``graph_core`` cannot
break the program and its check in the same way.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

# Pair states of an instance's ``orient`` bytes, as documented by the
# package's instance format: 1 carries x -> y, 2 carries y -> x.
TO_Y = 1
TO_X = 2


def arcs_from_orient(m: int, n: int, orient: bytes) -> list[tuple[int, int]]:
    """Raw arc list of a dense pair-orientation array."""
    arcs = []
    for p, state in enumerate(orient):
        i, j = divmod(p, n)
        if state == TO_Y:
            arcs.append((i, m + j))
        elif state == TO_X:
            arcs.append((m + j, i))
    return arcs


def vertex_id(m: int, side: str, index: int) -> int:
    return index if side in ("X", "x") else m + index


def parse_token(m: int, token: str) -> int:
    """``"x3"`` or ``"y5"`` as printed by the command line."""
    return vertex_id(m, token[0], int(token[1:]))


def acyclic(num_vertices: int, arcs: Iterable[tuple[int, int]]) -> bool:
    """Kahn's algorithm: True iff the arcs form no directed cycle."""
    out: list[list[int]] = [[] for _ in range(num_vertices)]
    indeg = [0] * num_vertices
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    ready = deque(v for v in range(num_vertices) if indeg[v] == 0)
    placed = 0
    while ready:
        u = ready.popleft()
        placed += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return placed == num_vertices


def check_fas(
    num_vertices: int,
    arcs: Sequence[tuple[int, int]],
    fas: Sequence[tuple[int, int]],
    bound: int,
) -> Optional[str]:
    """Reason the arc list is not a feedback arc set within ``bound``, or None."""
    chosen = set(fas)
    if len(chosen) != len(fas):
        return "feedback arc set lists an arc twice"
    if len(chosen) > bound:
        return f"{len(chosen)} arcs exceed the bound {bound}"
    present = set(arcs)
    if not chosen <= present:
        return "feedback arc set holds an arc the instance lacks"
    if not acyclic(num_vertices, (a for a in arcs if a not in chosen)):
        return "deleting the arcs leaves a cycle"
    return None


def check_packing(
    m: int, arcs: Iterable[tuple[int, int]], cycles: Sequence[Sequence[int]]
) -> Optional[str]:
    """Reason the cycles are not pairwise arc-disjoint 4-cycles, or None."""
    present = set(arcs)
    used: set[tuple[int, int]] = set()
    for cycle in cycles:
        if len(cycle) != 4 or len(set(cycle)) != 4:
            return f"{list(cycle)} does not have four distinct vertices"
        sides = [v < m for v in cycle]
        if sides[0] == sides[1] or sides != [sides[0], sides[1]] * 2:
            return f"{list(cycle)} does not alternate sides"
        cycle_arcs = [(cycle[i], cycle[(i + 1) % 4]) for i in range(4)]
        if not all(a in present for a in cycle_arcs):
            return f"{list(cycle)} is not a 4-cycle of the instance"
        if any(a in used for a in cycle_arcs):
            return "two cycles share an arc"
        used.update(cycle_arcs)
    return None
