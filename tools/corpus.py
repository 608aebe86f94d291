"""The output corpus: one md5 per in-process ``cli.run`` over a fixed set of runs.

Each run's md5 is taken over its exit code, standard output and standard
error.  The instances are built from seeds, so the corpus needs no input
files beyond ``tests/golden``'s instances:

- random tournaments of 0 to 40 per side: ``solve`` at k = 0, 3 and
  greedy + 1, ``pack`` and ``pack --limit 2``, and ``verify`` of every
  certificate they emit
- ``solve`` on the golden tournaments at their pinned k and at k = 3, and
  ``fas-c4free``, which finds a 4-cycle in each
- ``fas-c4free`` on ``tests/helpers.c4free_blowup``, on the benchmark's
  c4free-deep instances and on the golden six-cycle.  Two wider blow-ups,
  75x79 at depth 3 and 72x80 at depth 4, give ``census`` rows wider than
  ``p4_census.MULTIPLY_MAX_STRIDE``, so its bytes-repetition path runs too
- ``verify`` of the certificates of the last two items, and of a copy of each
  with its first entry reversed, with a foreign arc or cycle added, emptied,
  with a same-side arc or cycle added, with its first entry repeated, and with
  an arc or cycle through y_n added
- ``solve --k 15132`` on a 256x256 random tournament, with no verify: 15,131
  packed cycles and their backward part
- ``census`` on instances of up to 1024 pairs, and on one above
- ``oracle`` on small tournaments

Only the standard library and the package are needed.  From the root of a
checkout::

    python3 tools/corpus.py                      # compare with tests/golden/corpus.json
    python3 tools/corpus.py --json               # print the computed hashes
    python3 tools/corpus.py --write              # regenerate tests/golden/corpus.json
    python3 tools/corpus.py --python python3.12  # compare under another interpreter

A change that means to alter outputs regenerates the file and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from typing import Iterator, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CORPUS = GOLDEN / "corpus.json"
PATHS = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
sys.path[:0] = [path for path in PATHS if path not in sys.path]

from btfas import cli  # noqa: E402
from btfas.graph_core import BipartiteDigraph  # noqa: E402
from btfas.instance_gen import GenSpec, random_bt  # noqa: E402
from helpers import c4free_blowup  # noqa: E402
from workloads import c4free_deep_instance, to_graph  # noqa: E402


def _random_tournaments() -> Iterator[tuple[str, BipartiteDigraph]]:
    """Degenerate sides, then 60 seeded sizes of 2 to 40 per side, a fifth of them biased."""
    for m, n in ((0, 3), (1, 1), (1, 5), (2, 2), (3, 1)):
        yield f"bt-{m}x{n}", random_bt(GenSpec(m, n, 0))
    rng = random.Random(29)
    for seed in range(60):
        m, n = rng.randint(2, 40), rng.randint(2, 40)
        bias = (0.5, 0.5, 0.5, 0.5, 0.25)[seed % 5]
        yield f"bt-{m}x{n}-s{seed}-b{bias}", random_bt(GenSpec(m, n, seed, bias))


def _c4free_instances() -> Iterator[tuple[str, BipartiteDigraph]]:
    for seed in range(10):
        yield f"blowup-s{seed}", c4free_blowup(seed)
    for seed in range(10):
        yield f"c4free-deep-s{seed}", to_graph(*c4free_deep_instance(seed))
    for seed, sides in ((1, (60, 80)), (3, (64, 96))):  # rows past MULTIPLY_MAX_STRIDE
        yield f"blowup-s{seed}-{sides[0]}-{sides[1]}", c4free_blowup(seed, sides)


def _tampered(doc: dict, kind: str, n: int) -> Iterator[tuple[str, dict]]:
    """A certificate of an m x n instance with its first entry reversed, with an off-graph arc added,
    emptied, with a same-side arc added, with its first entry repeated, and with an arc to y_n added."""
    entries = doc[kind]
    if entries:
        first = entries[0]
        flipped = ">".join(first.split(">")[::-1]) if kind == "fas" else first[::-1]
        yield "flipped", {kind: [flipped, *entries[1:]]}
    yield "foreign", {kind: [*entries, "x99>y0" if kind == "fas" else ["x0", "y0", "x99", "y1"]]}
    yield "empty", {kind: []}
    yield "same-side", {kind: [*entries, "x0>x1" if kind == "fas" else ["x0", "x1", "y0", "y1"]]}
    if entries:
        yield "repeated", {kind: [entries[0], *entries]}
    yield "past-side", {kind: [*entries, f"x0>y{n}" if kind == "fas" else ["x0", f"y{n}", "x1", "y0"]]}


class _Corpus:
    """The runs in order, each file written under ``workdir``."""

    def __init__(self, workdir: str) -> None:
        self.workdir, self.hashes = workdir, {}

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        return path

    def call(self, name: str, *argv: str) -> tuple[int, str]:
        """Run the command in-process and record its md5; the work directory is named ``.``."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        stdout, stderr = (s.getvalue().replace(self.workdir, ".") for s in (out, err))
        if name in self.hashes:
            raise ValueError(f"run {name!r} is listed twice")
        self.hashes[name] = hashlib.md5(json.dumps([code, stdout, stderr]).encode()).hexdigest()
        return code, stdout

    def verify(self, name: str, instance: str, stdout: str, k: Optional[int] = None, tamper: bool = False) -> None:
        """Verify the certificate a run printed, with ``--k`` when given, and optionally its tamperings."""
        doc = json.loads(stdout)
        kind = "packing" if doc["branch"] == "packing" else "fas"
        extra = () if k is None else ("--k", str(k))
        if tamper:
            n = cli.parse_instance(pathlib.Path(instance).read_text(encoding="utf-8")).n
            certs = [("", doc), *_tampered(doc, kind, n)]
        else:
            certs = [("", doc)]
        for label, cert in certs:
            path = self.write(f"{name} {label}.json", json.dumps(cert))
            self.call(f"{name} | verify --{kind} {label}".rstrip(), "verify", instance, f"--{kind}", path, *extra)

    def solve(self, name: str, instance: str, k: int, tamper: bool = False) -> None:
        code, stdout = self.call(f"{name} solve --k {k}", "solve", instance, "--k", str(k))
        if code == 0:
            self.verify(f"{name} solve --k {k}", instance, stdout, k, tamper)


def compute() -> dict[str, str]:
    """The md5 of every run, in run order."""
    with tempfile.TemporaryDirectory() as workdir:
        corpus = _Corpus(workdir)
        for name, graph in _random_tournaments():
            instance = corpus.write(f"{name}.bt", cli.render_instance(graph))
            _, stdout = corpus.call(f"{name} pack", "pack", instance)
            greedy = json.loads(stdout)["count"]
            corpus.verify(f"{name} pack", instance, stdout, greedy)
            _, stdout = corpus.call(f"{name} pack --limit 2", "pack", instance, "--limit", "2")
            corpus.verify(f"{name} pack --limit 2", instance, stdout)
            for k in sorted({0, 3, greedy + 1}):
                corpus.solve(name, instance, k)
        for name, pinned in (("deep_residual", 44), ("depth2_residual", 42), ("c4_bt", 2)):
            instance = str(GOLDEN / f"{name}.bt")
            for k in (pinned, 3):
                corpus.solve(name, instance, k, tamper=True)
            corpus.call(f"{name} fas-c4free", "fas-c4free", instance)  # a 4-cycle: exit 2
        instance = corpus.write("bt-256x256-s1.bt", cli.render_instance(random_bt(GenSpec(256, 256, 1))))
        corpus.call("bt-256x256-s1 solve --k 15132", "solve", instance, "--k", "15132")
        for name, graph in [*_c4free_instances(), ("six_cycle", None)]:
            if graph is None:
                instance = str(GOLDEN / f"{name}.bt")
            else:
                instance = corpus.write(f"{name}.bt", cli.render_instance(graph))
            _, stdout = corpus.call(f"{name} fas-c4free", "fas-c4free", instance)
            corpus.verify(f"{name} fas-c4free", instance, stdout, tamper=True)
            if name in ("blowup-s0", "c4free-deep-s0", "six_cycle"):
                corpus.call(f"{name} census", "census", instance)
        for m, n, seed in ((2, 2, 0), (3, 4, 1), (5, 5, 2), (8, 8, 3), (16, 20, 4), (32, 32, 5), (32, 33, 6)):
            instance = corpus.write(f"census-{m}x{n}.bt", cli.render_instance(random_bt(GenSpec(m, n, seed))))
            corpus.call(f"census-{m}x{n} census", "census", instance)
        for m, n, seed in ((2, 3, 0), (3, 3, 1), (3, 4, 2), (4, 4, 3)):
            instance = corpus.write(f"oracle-{m}x{n}.bt", cli.render_instance(random_bt(GenSpec(m, n, seed))))
            for kind in ("--min-fas", "--max-packing"):
                corpus.call(f"oracle-{m}x{n} oracle {kind}", "oracle", instance, kind)
        return corpus.hashes


def first_difference(found: dict[str, str], expected: dict[str, str]) -> Optional[str]:
    """The first run, in the expected order, whose hash differs or is missing; then any extra run."""
    for name, digest in expected.items():
        if found.get(name) != digest:
            return f"{name}: {found.get(name)} != {digest}"
    extra = [name for name in found if name not in expected]
    return f"{extra[0]}: not in the corpus" if extra else None


def under(python: str, hash_seed: Optional[str] = None) -> dict[str, str]:
    """The hashes computed by this script under another interpreter, optionally with a hash seed."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run(
        [python, str(pathlib.Path(__file__).resolve()), "--json"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="print the computed hashes as JSON")
    group.add_argument("--write", action="store_true", help=f"regenerate {CORPUS.relative_to(ROOT)}")
    group.add_argument("--python", metavar="PATH", help="compute the corpus under that interpreter")
    args = parser.parse_args(argv)
    if args.python is not None:
        found = under(args.python)
        version = subprocess.run([args.python, "--version"], capture_output=True, text=True).stdout.strip()
    else:
        found, version = compute(), f"Python {sys.version.split()[0]}"
    if args.json:
        print(json.dumps(found, indent=1))
        return 0
    if args.write:
        CORPUS.write_text(json.dumps(found, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(found)} runs to {CORPUS.relative_to(ROOT)}")
        return 0
    difference = first_difference(found, json.loads(CORPUS.read_text(encoding="utf-8")))
    verdict = "all match" if difference is None else f"first difference {difference}"
    print(f"{version}: {len(found)} runs, {verdict}")
    return 0 if difference is None else 1


if __name__ == "__main__":
    sys.exit(main())
