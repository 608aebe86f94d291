"""The package namespace is the documented API, and the README's tour runs."""

import contextlib
import importlib
import io
import pathlib
import re

import btfas

README = pathlib.Path(__file__).parents[1] / "README.md"

PUBLIC = {
    "solve",
    "fas_c4free",
    "greedy_pack",
    "build",
    "random_bt",
    "random_c4free",
    "enumerate_bt",
    "min_fas_exact",
    "max_c4_packing_exact",
    "BipartiteDigraph",
    "VertexRef",
    "Arc",
    "FourCycle",
    "GenSpec",
    "Packing",
    "PackingOutcome",
    "FasOutcome",
    "SolveOutcome",
    "FasCertificate",
    "TraceNode",
    "OracleResult",
    "xv",
    "yv",
}

# Names that live only in their modules: proof machinery and oracle internals.
MODULE_ONLY = {
    "certify": ["check_fas_pairs", "check_packing_pairs"],
    "graph_core": [
        "ABSENT", "TO_X", "TO_Y", "HeldArcs", "LazyArcSet", "Rows", "Subgraph", "TopoResult",
        "cycle_pairs", "four_cycle", "pair_arcs",
    ],
    "c4free_fas": ["find_4cycle", "trim_acyclic_vertices"],
    "fas_engine": ["backward_arcs"],
    "p4_census": ["first_count", "sec_count", "partition_around"],
    "oracles": [
        "CensusSums",
        "all_4cycles",
        "census_sums",
        "enumerate_induced_p4",
        "find_cycle_brute",
    ],
}


def test_all_lists_the_documented_api():
    assert len(btfas.__all__) == len(PUBLIC) == 23
    assert set(btfas.__all__) == PUBLIC


def test_star_import_binds_exactly_the_documented_api():
    namespace: dict = {}
    exec("from btfas import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_module_only_names_import_from_their_modules():
    for module, names in MODULE_ONLY.items():
        owner = importlib.import_module(f"btfas.{module}")
        for name in names:
            assert hasattr(owner, name), f"btfas.{module}.{name}"
            assert not hasattr(btfas, name), f"btfas.{name} is still exported"


def test_readme_library_tour_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {"__name__": "readme_tour"})
    assert re.fullmatch(r"\d+ (arcs break every cycle, bound \d+|arc-disjoint 4-cycles)\n", out.getvalue())
