"""Command-line front end: instance I/O, solving, oracles and self-tests.

Machine-readable results go to standard output as a single JSON document
(or, for ``gen`` without ``--out``, as the instance text itself); human
diagnostics go to standard error.  Exit codes: 0 success, 1 usage or
parse error, 2 precondition violation or failed verification, 3 internal
invariant violation.

Instance file format, bit-exact::

    c optional comment lines
    p bt <m> <n>
    a x<i> y<j>
    a y<j> x<i>

One line per arc, tail first; pairs not listed are absent.  Rendering
emits arcs in canonical order (X-tail arcs by (i, j), then Y-tail arcs by
(j, i)), UTF-8 with newline terminators.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import itertools
import json
import os
import re
import sys
from typing import Iterable, Optional, Sequence

from . import c4free_fas, certify, fas_engine, instance_gen, oracles, p4_census
from .cycle_packing import greedy_pack
from .errors import InternalInvariantError, PreconditionError
from .graph_core import (
    TO_X,
    TO_Y,
    Arc,
    BipartiteDigraph,
    FourCycle,
    VertexRef,
    build,
    place_arc,
    xv,
    yv,
)

# At most 4300 digits: int() refuses longer strings by default.
_VERTEX_RE = re.compile(r"([xy])([0-9]{1,4300})\Z")

# Largest m*n an instance file may declare.  Storage takes one byte per
# cross pair and is allocated before any arc is read, so the header is
# checked first; 2**26 is 8192x8192, above the 2048x2048 solved in-process.
MAX_PAIRS = 2**26
# Largest side size: masks are allocated per vertex even when m*n is 0.
MAX_SIDE = 2**16


class InstanceFormatError(ValueError):
    """The instance or certificate file cannot be parsed."""


class _UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# instance and certificate encoding


def parse_vertex(token: str) -> VertexRef:
    match = _VERTEX_RE.fullmatch(token)
    if match is None:
        raise InstanceFormatError(f"bad vertex token {token!r}")
    side, index = match.groups()
    return xv(int(index)) if side == "x" else yv(int(index))


class _Tokens(dict):
    """One input's token table, each token parsed once: x_i -> i*n and y_j -> ~j.

    The arc between x_i and y_j crosses pair i*n + j.  The range checks are
    folded in: x_m and beyond get m*n, y_n and beyond ~(m*n), so each pair
    they take part in is at least ``total``, the pair count (0 for a negative size).
    """

    def __init__(self, m: int, n: int) -> None:
        super().__init__()
        self.m, self.n, self.total = m, n, m * n if min(m, n) >= 0 else 0

    def __missing__(self, token: str) -> int:
        v = parse_vertex(token)
        if v.side == "X":
            code = self[token] = v.index * self.n if v.index < self.m else self.total
        else:
            code = self[token] = ~v.index if v.index < self.n else ~self.total
        return code

    def arc_keys(self, tokens: list[str]) -> list[Optional[tuple[int, int]]]:
        """The (pair index, state) each arc token ``tail>head`` sets; None off the pairs."""
        keys: list[Optional[tuple[int, int]]] = []
        total = self.total
        for token in tokens:
            ends = token.split(">")
            if len(ends) != 2:
                raise InstanceFormatError(f"bad arc token {token!r}")
            tail, head = self[ends[0]], self[ends[1]]
            if tail >= 0 > head:
                key = tail + ~head, TO_Y
            elif head >= 0 > tail:
                key = head + ~tail, TO_X
            else:  # same side
                key = total, 0
            keys.append(key if key[0] < total else None)
        return keys


def parse_arc(token: str) -> Arc:
    parts = token.split(">")
    if len(parts) != 2:
        raise InstanceFormatError(f"bad arc token {token!r}")
    return Arc(*map(parse_vertex, parts))


def parse_instance(text: str) -> BipartiteDigraph:
    """Parse the instance format; raises InstanceFormatError on any defect.

    One pass: each arc line's tokens go through the token table to a pair set
    straight in the storage.  An arc :func:`place_arc` rejects is held until the
    scan ends, so line and token errors come first, as if the file were read, then built.
    """
    sizes: Optional[tuple[int, int]] = None
    orient: Optional[bytearray] = None  # made at the first arc: no arcs, one allocation
    defect: Optional[PreconditionError] = None
    for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1):
        try:
            kind, tail, head = fields
        except ValueError:
            kind = None
        if kind != "a" or orient is None:  # all but the arc lines after the first
            if not fields or fields[0][0] == "c":  # blank, or a comment
                continue
            if fields[0] == "p":
                if sizes is not None:
                    raise InstanceFormatError(f"line {lineno}: second problem line")
                if len(fields) != 4 or fields[1] != "bt":
                    raise InstanceFormatError(f"line {lineno}: expected 'p bt <m> <n>'")
                try:
                    sizes = (int(fields[2]), int(fields[3]))
                except ValueError:
                    raise InstanceFormatError(f"line {lineno}: non-integer side size") from None
                if min(sizes) >= 0 and sizes[0] * sizes[1] > MAX_PAIRS:
                    raise InstanceFormatError(
                        f"line {lineno}: {sizes[0]}x{sizes[1]} has more than {MAX_PAIRS} cross pairs"
                    )
                if max(sizes) > MAX_SIDE:
                    raise InstanceFormatError(f"line {lineno}: a side has more than {MAX_SIDE} vertices")
                codes = _Tokens(*sizes)
                total = codes.total
                continue
            if fields[0] != "a":
                raise InstanceFormatError(f"line {lineno}: unknown line type {fields[0]!r}")
            if sizes is None:
                raise InstanceFormatError(f"line {lineno}: arc before the problem line")
            if len(fields) != 3:
                raise InstanceFormatError(f"line {lineno}: expected 'a <tail> <head>'")
            orient = bytearray(total)
        tail, head = codes[tail], codes[head]
        if tail >= 0 > head:
            p, state = tail + ~head, TO_Y
        elif head >= 0 > tail:
            p, state = head + ~tail, TO_X
        else:  # same side
            p = total
        if p < total and not orient[p]:
            orient[p] = state
        elif defect is None:
            try:
                place_arc(orient, *sizes, parse_vertex(fields[1]), parse_vertex(fields[2]))
            except PreconditionError as exc:  # always: the pair is taken, or off the pairs
                defect = exc
    if sizes is None:
        raise InstanceFormatError("missing problem line 'p bt <m> <n>'")
    try:
        # A negative size is rejected first, as in build, then the first held arc.
        graph = build(*sizes) if orient is None else BipartiteDigraph(*sizes, bytes(orient))
        if defect is not None:
            raise defect
    except PreconditionError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return graph


def render_instance(graph: BipartiteDigraph) -> str:
    m, n, orient = graph.m, graph.n, graph.orient
    lines = [f"p bt {m} {n}"]
    if orient:  # with no pairs, skip the token lists: one side may be huge
        xs = [f"x{i}" for i in range(m)]
        ys = [f"y{j}" for j in range(n)]
        for i, x in enumerate(xs):
            row = orient[i * n : (i + 1) * n]
            lines.extend([f"a {x} {ys[j]}" for j, state in enumerate(row) if state == TO_Y])
        for j, y in enumerate(ys):
            column = orient[j::n]
            lines.extend([f"a {y} {xs[i]}" for i, state in enumerate(column) if state == TO_X])
    return "\n".join(lines) + "\n"


def _arc_strings(arcs: Iterable[Arc]) -> list[str]:
    return [str(a) for a in sorted(arcs)]


def _cycle_lists(cycles: Iterable[FourCycle]) -> list[list[str]]:
    return [[str(v) for v in c.vertices] for c in cycles]


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _read(path: str, stdin: bool = False) -> str:
    """The file, or standard input, as strict UTF-8 whatever the locale."""
    try:
        if stdin:
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str) -> BipartiteDigraph:
    return parse_instance(_read(path, stdin=path == "-"))


def _load_json(path: str) -> dict:
    text = _read(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, or nested too deeply
        raise InstanceFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    return doc


# ----------------------------------------------------------------------
# diagnostics


def _diag(message: str) -> None:
    prefix = "error:"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"btfas: {prefix} {message}", file=sys.stderr)


def _note(message: str) -> None:
    print(f"btfas: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    if min(args.m, args.n) < 0 or max(args.m, args.n) > MAX_SIDE or args.m * args.n > MAX_PAIRS:
        raise _UsageError(f"gen needs 0 <= m, n <= {MAX_SIDE} and m*n <= {MAX_PAIRS}, got {args.m}x{args.n}")
    make = instance_gen.random_bt if args.mode == "random" else instance_gen.random_c4free
    seed = 0 if args.seed is None else args.seed
    bias = 0.5 if args.bias is None else args.bias
    if args.mode == "enumerate":
        for option in ("count", "seed", "bias"):
            if getattr(args, option) is not None:
                raise _UsageError(f"gen --mode enumerate does not take --{option}")
        if args.out is None:
            raise _UsageError("gen --mode enumerate requires --out PREFIX")
        graphs = instance_gen.enumerate_bt(args.m, args.n)
    elif args.count is not None:
        if args.count < 0:
            raise _UsageError(f"gen --count must be non-negative, got {args.count}")
        if args.out is None:
            raise _UsageError("gen --count requires --out PREFIX")
        seeds = range(seed, seed + args.count)
        graphs = (make(instance_gen.GenSpec(args.m, args.n, s, bias)) for s in seeds)
    else:
        text = render_instance(make(instance_gen.GenSpec(args.m, args.n, seed, bias)))
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            _emit({"mode": "gen", "count": 1, "files": [args.out]})
        return 0
    files = []
    for i, graph in enumerate(graphs):
        path = f"{args.out}{i:05d}.bt"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(render_instance(graph))
        files.append(path)
    _emit({"mode": "gen", "count": len(files), "files": files})
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = _load_instance(args.instance)
    outcome = fas_engine.solve(graph, args.k)
    packed = isinstance(outcome, fas_engine.PackingOutcome)
    doc = {
        "mode": "solve",
        "k": args.k,
        "lambda": graph.absent_pair_count(),
        "branch": "packing" if packed else "fas",
        "packing": _cycle_lists(outcome.packing.cycles),
        "fas": None,
        "bound": None,
    }
    if not packed:
        # fas is the disjoint union of the two parts: merge their sorted runs.
        residual, backward = sorted(outcome.residual_part), sorted(outcome.backward_part)
        residual_strings, backward_strings = [str(a) for a in residual], [str(a) for a in backward]
        merged = heapq.merge(zip(residual, residual_strings), zip(backward, backward_strings))
        doc.update(fas=[text for _, text in merged], bound=outcome.bound, residual_fas=residual_strings)
        doc.update(backward=backward_strings, order=[str(v) for v in outcome.order])
    _emit(doc)
    return 0


def _cmd_fas_c4free(args: argparse.Namespace) -> int:
    graph = _load_instance(args.instance)
    certificate = c4free_fas.fas_c4free(graph)
    _emit(
        {
            "mode": "fas-c4free",
            "branch": "fas",
            "lambda": graph.absent_pair_count(),
            "fas": _arc_strings(certificate.fas),
            "bound": certificate.bound,
            "trace": [dict(vars(t), center=str(t.center)) for t in certificate.trace],
        }
    )
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    graph = _load_instance(args.instance)
    packing = greedy_pack(graph, args.limit)
    maximal = args.limit is None or len(packing.cycles) < args.limit
    _emit(
        {
            "mode": "pack",
            "branch": "packing",
            "lambda": graph.absent_pair_count(),
            "limit": args.limit,
            "count": len(packing.cycles),
            "maximal": maximal,
            "packing": _cycle_lists(packing.cycles),
            "residual_lambda": packing.residual.absent_pair_count(),
        }
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    graph = _load_instance(args.instance)
    if args.min_fas:
        result = oracles.min_fas_exact(graph)
        witness = _arc_strings(result.witness)
        kind = "min-fas"
    else:
        result = oracles.max_c4_packing_exact(graph)
        witness = _cycle_lists(result.witness)
        kind = "max-packing"
    _emit({"mode": "oracle", "kind": kind, "value": result.value, "witness": witness})
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    graph = _load_instance(args.instance)
    sums = oracles.census_sums(graph)  # checks the size limit first
    counts = p4_census.vertex_counts(graph)
    per_vertex = [{"vertex": str(v), "first": counts[v][0], "sec": counts[v][1]} for v in graph.vertices()]
    _emit(
        {
            "mode": "census",
            "m": graph.m,
            "n": graph.n,
            "lambda": graph.absent_pair_count(),
            "per_vertex": per_vertex,
            "sum_first": sums.sum_first,
            "sum_sec": sums.sum_sec,
            "classes2": sums.count2,
            "classes3": sums.count3,
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_instance(args.instance)
    kind = "fas" if args.fas is not None else "packing"
    bound = None if args.k is None else fas_engine.fas_bound(args.k)  # rejects a negative k
    raw = _load_json(getattr(args, kind)).get(kind)

    def fail(reason: str) -> int:
        _emit({"mode": "verify", "kind": kind, "valid": False, "reason": reason})
        _diag(f"certificate rejected: {reason}")
        return 2

    if not isinstance(raw, list):
        return fail(f"certificate has no {'arc' if kind == 'fas' else 'cycle'} list under {kind!r}")
    if kind == "fas":
        for token in raw:
            if not isinstance(token, str):
                return fail(f"arc token {token!r} is not a string")
        keys = _Tokens(graph.m, graph.n).arc_keys(raw)
        spell = lambda t: "%s>%s" % tuple(map(parse_vertex, raw[t].split(">")))  # noqa: E731
        reason, size, _ = certify.check_fas_keys(graph, keys, spell, bound)
        result = {"size": size, "bound": bound}
    else:
        cycles, vertex = [], functools.cache(parse_vertex)  # each distinct token parsed once
        for entry in raw:
            strings = isinstance(entry, list) and all(isinstance(t, str) for t in entry)
            if not (strings and len(entry) == 4):
                return fail(f"bad cycle entry {entry!r}")
            cycles.append(FourCycle(tuple(map(vertex, entry))))
        reason = certify.check_packing(graph, cycles, args.k)
        result = {"count": len(cycles)}
    if reason is not None:
        return fail(reason)
    _emit({"mode": "verify", "kind": kind, "valid": True, **result})
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    del args
    tournaments = [g for size in (1, 2, 3) for g in instance_gen.enumerate_bt(size, size)]
    digraphs_2x2, digraphs_3x3 = (
        [BipartiteDigraph(m, m, bytes(s)) for s in itertools.product(range(3), repeat=m * m)]
        for m in (2, 3)
    )
    # A 4-cycle-free tournament is acyclic; the cyclic 3x3 digraphs give non-empty sets.
    small = [g for g in tournaments if g.m < 3] + digraphs_3x3
    c4free = [g for g in small if c4free_fas.find_4cycle(g) is None]
    suites = (
        ("census-identities-exhaustive", [(g,) for g in tournaments], oracles.check_census),
        ("acyclicity-vs-brute-2x2", [(g,) for g in digraphs_2x2], oracles.check_acyclicity),
        ("c4free-certificates", [(g,) for g in c4free], oracles.check_c4free),
        ("dichotomy-exhaustive", [(g, k) for g in tournaments for k in range(4)], oracles.check_dichotomy),
        ("min-fas-vs-packing-oracles", [(g,) for g in tournaments if g.m > 1], oracles.check_oracles),
    )
    checks: list[dict] = []
    for name, cases, check in suites:
        for case in cases:
            reason = check(*case)
            if reason is not None:
                raise InternalInvariantError(f"{name}: {reason} on {case}")
        checks.append({"name": name, "instances": len(cases)})
        _note(f"ok {name} ({len(cases)} instances)")
    _emit({"mode": "selftest", "ok": True, "checks": checks})
    return 0


# ----------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


@functools.cache  # one parser per process, built on first use: parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="btfas", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--mode", choices=("random", "random-c4free", "enumerate"), default="random")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, help="decimal non-negative seed")  # default 0, set in _cmd_gen
    gen.add_argument("--bias", type=float)  # default 0.5, set in _cmd_gen
    gen.add_argument("--out", help="output file, or prefix with --count/enumerate")
    gen.add_argument("--count", type=int, help="generate this many instances (seed, seed+1, ...)")
    gen.set_defaults(handler=_cmd_gen)

    solve = sub.add_parser("solve", help="k 4-cycles or a feedback arc set of size <= 7(k-1)")
    solve.add_argument("instance", help="instance file, or - for stdin")
    solve.add_argument("--k", type=int, required=True)
    solve.set_defaults(handler=_cmd_solve)

    fas = sub.add_parser("fas-c4free", help="certified feedback arc set of a 4-cycle-free instance")
    fas.add_argument("instance")
    fas.set_defaults(handler=_cmd_fas_c4free)

    pack = sub.add_parser("pack", help="greedy arc-disjoint 4-cycle packing")
    pack.add_argument("instance")
    pack.add_argument("--limit", type=int)
    pack.set_defaults(handler=_cmd_pack)

    oracle = sub.add_parser("oracle", help="exact exponential-time reference values")
    oracle.add_argument("instance")
    group = oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--min-fas", action="store_true")
    group.add_argument("--max-packing", action="store_true")
    oracle.set_defaults(handler=_cmd_oracle)

    verify = sub.add_parser("verify", help="re-check an emitted certificate")
    verify.add_argument("instance")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--fas", metavar="CERT")
    group.add_argument("--packing", metavar="CERT")
    verify.add_argument("--k", type=int)
    verify.set_defaults(handler=_cmd_verify)

    census = sub.add_parser("census", help="per-vertex first/sec counts and class totals")
    census.add_argument("instance")
    census.set_defaults(handler=_cmd_census)

    selftest = sub.add_parser("selftest", help="run the exhaustive small-size suites")
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv: Sequence[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except _UsageError as exc:
        _diag(str(exc))
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "handler", None) is None:
        _diag("a subcommand is required (see --help)")
        return 1
    try:
        return args.handler(args)
    except (_UsageError, InstanceFormatError, OSError) as exc:  # OSError: gen cannot write
        _diag(str(exc))
        return 1
    except PreconditionError as exc:
        _diag(str(exc))
        return 2
    except InternalInvariantError as exc:
        _diag(f"internal invariant violation: {exc}")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
