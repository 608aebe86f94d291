"""The solve ladder: in-process ``solve`` stage timings on random tournaments of growing size.

Each rung is ``random_bt(GenSpec(n, n, seed))`` at k = greedy + 1, which forces the
feedback-arc-set branch through the whole pipeline; the default rungs are n = 24 (the size
the solve-fas benchmark workload runs), 128, 512, 1024, 2048 and 4096.  Every measurement runs
in a fresh worker process that imports ``btfas`` from the tree it is given and times, from
outside, the stages ``solve`` looks up in ``fas_engine``:

- ``greedy_pack``
- ``fas_c4free`` (the residual's certified cut, with its own check)
- ``backward_arcs``
- the final check, ``check_fas_pairs``

and the whole of ``solve``, on a fresh copy of the tournament with no cached masks.  Beside
them, and not in their sum, it times three stages nested inside ``fas_c4free``:

- ``precheck``: the 4-cycle precheck's scan, through the ``c4free_fas.find_4cycle`` binding
  that ``fas_c4free`` reads.  ``greedy_pack`` calls through its own binding, so its scans are
  not timed.
- ``trim``: ``c4free_fas.trim_acyclic_vertices``, through the binding ``_decomposition``
  reads, over every work item of the decomposition.
- ``topological_order``: ``BipartiteDigraph.topological_order``, wrapped on the class, which
  the certificate check inside ``fas_c4free`` calls on the residual minus its cut.

A graph's masks are derived on first use, in the stage that first reads them.  ``greedy_pack``
derives the tournament's X rows and hands the residual the X rows its scan cleared.  The
residual's Y rows are derived in ``fas_c4free``, whose decomposition hands the residual minus
its cut both sides' rows, cleared of the cut in one copy of the residual's: the precheck and
``topological_order`` wrappers read a graph's masks before their timers start, so any
derivation stays out of the nested stages.  ``trim`` is given masks already built.  The final
check derives the X rows of the tournament minus the whole set.  The worker also counts the
generation-2 collections inside ``solve`` and records its peak RSS, and its RSS before it builds the
tournament, the interpreter's baseline.
With ``--against``, the other tree's workers run in the same session, alternating with this
tree's round by round, so that the two are compared under the same load.

A worker over ``--cap`` seconds is killed and its rung is written as skipped, with the cap.  A
rung's peak RSS is predicted from the rung below: its baseline plus its growth above the
baseline, scaled by the pair count.  A rung predicted past half the machine's memory is written
as skipped, with that prediction.  Every rung above a skipped one is skipped for the same reason.

Only the standard library is needed.  From the root of a checkout::

    python3 tools/ladder.py --out BENCH.json
    python3 tools/ladder.py --against ../parent --rounds 5 --sizes 128 512 --out BENCH.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
STAGES = ("greedy_pack", "fas_c4free", "backward_arcs", "final_check")
NESTED = ("precheck", "trim", "topological_order")  # timed inside a stage, so not part of the stages' sum
TIMED = ("solve", *STAGES, *NESTED)


def measure(n: int, seed: int, k: Optional[int], repeats: int) -> dict:
    """Time ``repeats`` solves of one rung with the ``btfas`` on ``sys.path``; k = greedy + 1 if None."""
    from btfas import c4free_fas, fas_engine
    from btfas.graph_core import BipartiteDigraph
    from btfas.instance_gen import GenSpec, random_bt

    base_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tournament = random_bt(GenSpec(n, n, seed))
    if k is None:
        k = len(fas_engine.greedy_pack(BipartiteDigraph(n, n, tournament.orient)).cycles) + 1
    spent = dict.fromkeys(STAGES + NESTED, 0.0)
    for stage, name in zip(STAGES, ("greedy_pack", "fas_c4free", "backward_arcs", "check_fas_pairs")):
        setattr(fas_engine, name, _timed(getattr(fas_engine, name), stage, spent))
    scan = _timed(c4free_fas.find_4cycle, "precheck", spent)

    def precheck(graph, *args, **kwargs):
        graph.x_masks  # derived here unless greedy_pack handed them on: in fas_c4free's time, not the scan's
        return scan(graph, *args, **kwargs)

    c4free_fas.find_4cycle = precheck
    c4free_fas.trim_acyclic_vertices = _timed(c4free_fas.trim_acyclic_vertices, "trim", spent)
    sort = _timed(BipartiteDigraph.topological_order, "topological_order", spent)

    def topological_order(graph):
        graph.x_masks, graph.y_masks  # derived on first use, as for the precheck
        return sort(graph)

    BipartiteDigraph.topological_order = topological_order
    collections = [0]

    def count(phase: str, info: dict) -> None:
        collections[0] += phase == "start" and info["generation"] == 2

    gc.callbacks.append(count)
    ms: dict[str, list[float]] = {stage: [] for stage in TIMED}
    gen2 = []
    for _ in range(repeats):
        graph = BipartiteDigraph(n, n, tournament.orient)  # no cached masks
        gc.collect()
        spent.update(dict.fromkeys(STAGES + NESTED, 0.0))
        collections[0] = 0
        start = perf_counter()
        fas_engine.solve(graph, k)
        ms["solve"].append(1000 * (perf_counter() - start))
        gen2.append(collections[0])
        for stage in STAGES + NESTED:
            ms[stage].append(1000 * spent[stage])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss = {"base_rss_mb": round(base_mb, 1), "peak_rss_mb": round(peak_mb, 1)}
    return {"k": k, "ms": ms, "gen2_collections": gen2, **rss}


def _timed(real, stage: str, spent: dict):
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent[stage] += perf_counter() - start

    return timed


def _worker(tree: pathlib.Path, n: int, seed: int, k: Optional[int], repeats: int, cap: float) -> Optional[dict]:
    """One fresh process measuring the rung on ``tree``; None if it ran over ``cap`` seconds."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--worker", "--sizes", str(n)]
    cmd += ["--seed", str(seed), "--repeats", str(repeats), *([] if k is None else ["--k", str(k)])]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=cap, env=env)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode:
        raise SystemExit(f"the worker for n = {n} on {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _rounds(trees: dict[str, pathlib.Path], n: int, args: argparse.Namespace) -> Optional[dict[str, list[dict]]]:
    """Each tree's runs of one rung, the trees alternating which runs first; None past the cap."""
    runs: dict[str, list[dict]] = {name: [] for name in trees}
    k = None
    for r in range(args.rounds):
        for name in list(trees)[:: 1 if r % 2 == 0 else -1]:
            run = _worker(trees[name], n, args.seed, k, args.repeats, args.cap)
            if run is None:
                return None
            runs[name].append(run)
            k = run["k"]
    return runs


def _commit(tree: pathlib.Path) -> str:
    """The tree's HEAD, marked ``+dirty`` if tracked files differ from it."""
    git = ["git", "-C", str(tree)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    return (head + "+dirty" * bool(dirty.stdout.strip())) if head else "unknown"


def _summary(runs: list[dict]) -> dict:
    """Medians over every solve of every round, in ms, with the smallest baseline and largest peak RSS."""
    out = {f"{stage}_ms": statistics.median(t for run in runs for t in run["ms"][stage]) for stage in TIMED}
    out["gen2_collections"] = statistics.median(c for run in runs for c in run["gen2_collections"])
    out["base_rss_mb"] = min(run["base_rss_mb"] for run in runs)
    out["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
    out["samples"] = sum(len(run["ms"]["solve"]) for run in runs)
    return {key: round(value, 3) if isinstance(value, float) else value for key, value in out.items()}


def ladder(trees: dict[str, pathlib.Path], args: argparse.Namespace) -> list[dict]:
    """Every rung on every tree; past a skipped rung, every larger rung is skipped for its reason."""
    rungs: list[dict] = []
    half_ram_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**21
    for n in args.sizes:
        below = rungs[-1] if rungs else None
        rung: dict = {"n": n}
        rungs.append(rung)
        if below and below["status"] != "measured":
            rung.update({key: value for key, value in below.items() if key != "n"})
            continue
        if below:
            scale = (n / below["n"]) ** 2
            base_peaks = [(tree["base_rss_mb"], tree["peak_rss_mb"]) for tree in below["trees"].values()]
            predicted = max(base + (peak - base) * scale for base, peak in base_peaks)
            if predicted > half_ram_mb:
                rung.update(status="skipped", predicted_peak_rss_mb=round(predicted), half_ram_mb=round(half_ram_mb))
                continue
        runs = _rounds(trees, n, args)
        if runs is None:
            rung.update(status="skipped", cap_s=args.cap)
            continue
        summaries = {name: _summary(tree_runs) for name, tree_runs in runs.items()}
        rung.update(status="measured", k=runs["change"][0]["k"], trees=summaries)
        if "against" in summaries:
            change, against = summaries["change"], summaries["against"]
            ratio = lambda key: round(change[key] / against[key], 3) if against[key] else None  # noqa: E731
            rung["ratio"] = {stage: ratio(f"{stage}_ms") for stage in TIMED}
    return rungs


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sizes = [24, 128, 512, 1024, 2048, 4096]
    parser.add_argument("--sizes", type=int, nargs="+", default=sizes, help="sides n of the n x n rungs")
    parser.add_argument("--rounds", type=int, default=3, help="worker processes per tree and rung")
    parser.add_argument("--repeats", type=int, default=1, help="solves per worker")
    parser.add_argument("--seed", type=int, default=1, help="random_bt seed of every rung")
    parser.add_argument("--cap", type=float, default=300.0, help="seconds one worker may take")
    parser.add_argument("--against", type=pathlib.Path, help="another checkout, measured in alternation")
    parser.add_argument("--out", type=pathlib.Path, help="where the JSON goes")
    parser.add_argument("--k", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.sizes[0], args.seed, args.k, args.repeats)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    trees = {"change": ROOT, **({"against": args.against.resolve()} if args.against else {})}
    doc = {
        "commits": {name: _commit(tree) for name, tree in trees.items()},
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "seed": args.seed,
        "rounds": args.rounds,
        "repeats": args.repeats,
        "cap_s": args.cap,
        "rungs": ladder(trees, args),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for rung in doc["rungs"]:
        print(json.dumps(rung))
    return 0


if __name__ == "__main__":
    sys.exit(main())
