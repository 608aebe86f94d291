"""Cycle packings and certified feedback arc sets in bipartite tournaments.

Given a bipartite tournament and an integer k, :func:`solve` produces
either k arc-disjoint 4-cycles or a feedback arc set of size at most
7(k-1), each as a machine-checkable certificate.  The package exports
the entry points, the seeded instance generators, the exact oracles, the
types their results carry and the label helpers; everything else is
imported from its module.
"""

from .c4free_fas import FasCertificate, TraceNode, fas_c4free
from .cycle_packing import Packing, greedy_pack
from .fas_engine import FasOutcome, PackingOutcome, SolveOutcome, solve
from .graph_core import Arc, BipartiteDigraph, FourCycle, VertexRef, build, xv, yv
from .instance_gen import GenSpec, enumerate_bt, random_bt, random_c4free
from .oracles import OracleResult, max_c4_packing_exact, min_fas_exact

__all__ = [
    "Arc",
    "BipartiteDigraph",
    "FasCertificate",
    "FasOutcome",
    "FourCycle",
    "GenSpec",
    "OracleResult",
    "Packing",
    "PackingOutcome",
    "SolveOutcome",
    "TraceNode",
    "VertexRef",
    "build",
    "enumerate_bt",
    "fas_c4free",
    "greedy_pack",
    "max_c4_packing_exact",
    "min_fas_exact",
    "random_bt",
    "random_c4free",
    "solve",
    "xv",
    "yv",
]
