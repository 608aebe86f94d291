"""The benchmark's three workloads: seeded corpora, requests and checks.

Every request of a run is a distinct seeded instance, so a result cache in
the program cannot show a gain.  Instances are made in passes of a fixed
size; ``make_pass(seed, index, workdir)`` returns the requests of one pass.
Library functions are looked up through their modules at call time, so the
traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Callable, NamedTuple, Optional

from btfas import c4free_fas, cli, fas_engine, instance_gen
from btfas.graph_core import BipartiteDigraph

import checker


class Verdict(NamedTuple):
    """Outcome of checking one request: ``reason`` is None when correct.

    ``cert`` and ``ref`` add up to the workload's certificate ratio: the
    size of the certificate returned and the reference size it is judged
    against.
    """

    reason: Optional[str]
    cert: int = 0
    ref: int = 0


class Request(NamedTuple):
    call: Callable[[], object]
    check: Callable[[object], Verdict]


def _instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def _vid(m: int, v) -> int:
    return checker.vertex_id(m, v.side, v.index)


def _arc_ids(m: int, arcs) -> list[tuple[int, int]]:
    return [(_vid(m, a.tail), _vid(m, a.head)) for a in arcs]


# ----------------------------------------------------------------------
# solve-fas: solve(T, k) on random 24x24 tournaments, feedback-arc-set branch

SOLVE_SIDE = 24
SOLVE_PASS = 10


def solve_fas_pass(seed: int, index: int, workdir: str) -> list[Request]:
    del workdir
    m = n = SOLVE_SIDE
    # No more than mn/4 arc-disjoint 4-cycles fit in mn arcs, so this k
    # always takes the feedback-arc-set branch.
    k = m * n // 4 + 1
    requests = []
    for i in range(SOLVE_PASS):
        spec = instance_gen.GenSpec(m, n, _instance_seed(seed, index * SOLVE_PASS + i))
        graph = instance_gen.random_bt(spec)
        arcs = checker.arcs_from_orient(m, n, graph.orient)
        requests.append(
            Request(lambda g=graph: fas_engine.solve(g, k), _solve_checker(m, n, k, arcs))
        )
    return requests


def _solve_checker(m: int, n: int, k: int, arcs) -> Callable[[object], Verdict]:
    def check(out) -> Verdict:
        if not isinstance(out, fas_engine.FasOutcome):
            return Verdict(f"expected the feedback-arc-set branch, got {type(out).__name__}")
        cycles = [[_vid(m, v) for v in c.vertices] for c in out.packing.cycles]
        if len(cycles) >= k:
            return Verdict(f"{len(cycles)} packed cycles but no packing outcome")
        reason = checker.check_packing(m, arcs, cycles)
        if reason is None:
            reason = checker.check_fas(m + n, arcs, _arc_ids(m, out.fas), 7 * (k - 1))
        return Verdict(reason, len(out.fas), len(cycles))

    return check


# ----------------------------------------------------------------------
# c4free-deep: fas_c4free on cyclic 4-cycle-free unions of long-cycle blow-ups

C4FREE_PASS = 10
C4FREE_COMPONENTS = 4
C4FREE_SIDE_RANGE = (31, 40)


def c4free_deep_instance(seed: int) -> tuple[int, int, list[tuple[int, int]]]:
    """A cyclic 4-cycle-free instance whose decomposition recurses deeply.

    Each of four components blows up a directed cycle of length 2l
    (l in [3, 6]): blocks X_b -> Y_b -> X_{b+1}, each block of 1 to 3
    vertices, so every cycle has length at least 6.  Random extra arcs
    inside a component are kept only when they close no 4-cycle.  Arcs
    between components run from lower to higher component only (density
    0.5), so no cycle leaves a component.  Plain blow-ups split only once;
    the extra arcs are what drive the recursion to depth 2 and beyond,
    into reversed mode and Y-side centers.  Labels are shuffled at the end.

    Returns (m, n, arcs) with vertex ids as in :mod:`checker`.
    """
    rng = random.Random(seed)
    low, high = C4FREE_SIDE_RANGE
    while True:
        layout = []
        for _ in range(C4FREE_COMPONENTS):
            l = rng.randint(3, 6)
            layout.append([(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(l)])
        m = sum(bx for comp in layout for bx, _ in comp)
        n = sum(by for comp in layout for _, by in comp)
        if low <= m <= high and low <= n <= high:
            break

    # Bitmasks over the opposite side: out_x[i] holds j for x_i -> y_j, etc.
    out_x, in_x, out_y, in_y = [0] * m, [0] * m, [0] * n, [0] * n

    def add_xy(i: int, j: int) -> None:
        out_x[i] |= 1 << j
        in_y[j] |= 1 << i

    def add_yx(j: int, i: int) -> None:
        out_y[j] |= 1 << i
        in_x[i] |= 1 << j

    def bits(mask: int):
        while mask:
            low_bit = mask & -mask
            yield low_bit.bit_length() - 1
            mask ^= low_bit

    def closes_c4_xy(i: int, j: int) -> bool:  # would x_i -> y_j close y_j -> x -> y -> x_i?
        return any(out_x[k] & in_x[i] for k in bits(out_y[j]))

    def closes_c4_yx(j: int, i: int) -> bool:
        return any(out_y[l] & in_y[j] for l in bits(out_x[i]))

    components = []
    next_x = next_y = 0
    for comp in layout:
        blocks = []
        for bx, by in comp:
            blocks.append((range(next_x, next_x + bx), range(next_y, next_y + by)))
            next_x += bx
            next_y += by
        for b, (xs, ys) in enumerate(blocks):
            following = blocks[(b + 1) % len(blocks)][0]
            for i in xs:
                for j in ys:
                    add_xy(i, j)
            for j in ys:
                for i in following:
                    add_yx(j, i)
        components.append(
            ([i for xs, _ in blocks for i in xs], [j for _, ys in blocks for j in ys])
        )

    for xs, ys in components:
        candidates = [
            (i, j) for i in xs for j in ys if not (out_x[i] >> j & 1 or in_x[i] >> j & 1)
        ]
        rng.shuffle(candidates)
        for i, j in candidates:
            if rng.random() >= 0.5:
                continue
            if rng.random() < 0.5:
                if not closes_c4_xy(i, j):
                    add_xy(i, j)
                elif not closes_c4_yx(j, i):
                    add_yx(j, i)
            elif not closes_c4_yx(j, i):
                add_yx(j, i)
            elif not closes_c4_xy(i, j):
                add_xy(i, j)

    for a, (xs_a, ys_a) in enumerate(components):
        for xs_b, ys_b in components[a + 1 :]:
            for i in xs_a:
                for j in ys_b:
                    if rng.random() < 0.5:
                        add_xy(i, j)
            for j in ys_a:
                for i in xs_b:
                    if rng.random() < 0.5:
                        add_yx(j, i)

    perm_x = list(range(m))
    perm_y = list(range(n))
    rng.shuffle(perm_x)
    rng.shuffle(perm_y)
    arcs = [(perm_x[i], m + perm_y[j]) for i in range(m) for j in bits(out_x[i])]
    arcs += [(m + perm_y[j], perm_x[i]) for j in range(n) for i in bits(out_y[j])]

    if has_4cycle(m, arcs) or checker.acyclic(m + n, arcs):
        raise RuntimeError(f"c4free-deep seed {seed} is not cyclic and 4-cycle-free")
    return m, n, arcs


def has_4cycle(m: int, arcs) -> bool:
    """True iff some x_i -> y -> x_k -> y' -> x_i exists."""
    out_x: dict[int, int] = {}
    in_x: dict[int, int] = {}
    for u, v in arcs:
        if u < m:
            out_x[u] = out_x.get(u, 0) | 1 << v
        else:
            in_x[v] = in_x.get(v, 0) | 1 << u
    xs = range(m)
    return any(
        out_x.get(i, 0) & in_x.get(k, 0) and out_x.get(k, 0) & in_x.get(i, 0)
        for i in xs
        for k in xs
        if i < k
    )


def to_graph(m: int, n: int, arcs) -> BipartiteDigraph:
    orient = bytearray(m * n)
    for u, v in arcs:
        if u < m:
            orient[u * n + v - m] = checker.TO_Y
        else:
            orient[v * n + u - m] = checker.TO_X
    return BipartiteDigraph(m, n, bytes(orient))


def c4free_deep_pass(seed: int, index: int, workdir: str) -> list[Request]:
    del workdir
    requests = []
    for i in range(C4FREE_PASS):
        m, n, arcs = c4free_deep_instance(_instance_seed(seed, index * C4FREE_PASS + i))
        graph = to_graph(m, n, arcs)
        requests.append(
            Request(lambda g=graph: c4free_fas.fas_c4free(g), _c4free_checker(m, n, arcs))
        )
    return requests


def _c4free_checker(m: int, n: int, arcs) -> Callable[[object], Verdict]:
    absent = m * n - len(arcs)

    def check(out) -> Verdict:
        if out.bound != absent:
            return Verdict(f"certificate bound {out.bound}, expected {absent}")
        reason = checker.check_fas(m + n, arcs, _arc_ids(m, out.fas), absent)
        return Verdict(reason, len(out.fas), absent)

    return check


# ----------------------------------------------------------------------
# cli-large: in-process cli.run on random 128x128 tournament files

CLI_SIDE = 128
CLI_PASS = 4  # instances per pass; each gives three requests
CLI_K = 32


def _token(m: int, v: int) -> str:
    return f"x{v}" if v < m else f"y{v - m}"


def first_4cycle(m: int, n: int, orient: bytes) -> tuple[int, int, int, int]:
    """First cycle x_i -> y_j -> x_k -> y_l -> x_i in (i, k, j, l) order."""
    for i in range(m):
        for k in range(m):
            if k == i:
                continue
            for j in range(n):
                if orient[i * n + j] != checker.TO_Y or orient[k * n + j] != checker.TO_X:
                    continue
                for l in range(n):
                    if l != j and orient[k * n + l] == checker.TO_Y and orient[i * n + l] == checker.TO_X:
                        return (i, m + j, k, m + l)
    raise RuntimeError("random 128x128 tournament without a 4-cycle")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_large_pass(seed: int, index: int, workdir: str) -> list[Request]:
    m = n = CLI_SIDE
    requests = []
    for slot in range(CLI_PASS):
        s = _instance_seed(seed, index * CLI_PASS + slot)
        graph = instance_gen.random_bt(instance_gen.GenSpec(m, n, s))
        path = os.path.join(workdir, f"i{slot}.bt")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(cli.render_instance(graph))
        arcs = checker.arcs_from_orient(m, n, graph.orient)

        # A valid certificate: the arcs running backward in a seeded order.
        order = list(range(m + n))
        random.Random(s).shuffle(order)
        position = {v: p for p, v in enumerate(order)}
        valid = [a for a in arcs if position[a[0]] > position[a[1]]]
        # Dropping the backward arcs of one cycle leaves that cycle intact.
        c = first_4cycle(m, n, graph.orient)
        kept_cycle = {(c[p], c[(p + 1) % 4]) for p in range(4)}
        invalid = [a for a in valid if a not in kept_cycle]

        cert_paths = []
        for name, cert in (("ok", valid), ("bad", invalid)):
            cert_path = os.path.join(workdir, f"c{slot}{name}.json")
            with open(cert_path, "w", encoding="utf-8") as handle:
                json.dump({"fas": [f"{_token(m, u)}>{_token(m, v)}" for u, v in cert]}, handle)
            cert_paths.append(cert_path)

        requests.append(
            Request(
                lambda p=path: _run_cli(["solve", p, "--k", str(CLI_K)]),
                _cli_solve_checker(m, arcs),
            )
        )
        requests.append(
            Request(
                lambda p=path, c=cert_paths[0]: _run_cli(["verify", p, "--fas", c]),
                _cli_verify_checker(m + n, arcs, valid, True),
            )
        )
        requests.append(
            Request(
                lambda p=path, c=cert_paths[1]: _run_cli(["verify", p, "--fas", c]),
                _cli_verify_checker(m + n, arcs, invalid, False),
            )
        )
    return requests


def _cli_solve_checker(m: int, arcs) -> Callable[[object], Verdict]:
    def check(out) -> Verdict:
        code, text = out
        if code != 0:
            return Verdict(f"solve exited {code}")
        doc = json.loads(text)
        if doc.get("branch") != "packing":
            return Verdict(f"solve took the {doc.get('branch')!r} branch")
        cycles = [[checker.parse_token(m, t) for t in c] for c in doc["packing"]]
        if len(cycles) != CLI_K:
            return Verdict(f"{len(cycles)} cycles, expected {CLI_K}")
        return Verdict(checker.check_packing(m, arcs, cycles), len(cycles), CLI_K)

    return check


def _cli_verify_checker(num_vertices: int, arcs, cert, expect_valid: bool) -> Callable[[object], Verdict]:
    def check(out) -> Verdict:
        code, text = out
        reason = checker.check_fas(num_vertices, arcs, cert, len(arcs))
        if (reason is None) != expect_valid:
            return Verdict(f"benchmark certificate has the wrong validity: {reason}")
        if code != (0 if expect_valid else 2):
            return Verdict(f"verify exited {code} on a {'valid' if expect_valid else 'invalid'} certificate")
        doc = json.loads(text)
        if doc.get("valid") is not expect_valid:
            return Verdict(f"verify reported valid={doc.get('valid')}")
        if expect_valid and doc.get("size") != len(cert):
            return Verdict(f"verify reported size {doc.get('size')}, expected {len(cert)}")
        return Verdict(None)

    return check


WORKLOADS: dict[str, Callable[[int, int, str], list[Request]]] = {
    "solve-fas": solve_fas_pass,
    "c4free-deep": c4free_deep_pass,
    "cli-large": cli_large_pass,
}

# Fewest requests an untraced run measures, so that latency_p90_ms has ten
# samples beyond it.
MIN_REQUESTS = 100
