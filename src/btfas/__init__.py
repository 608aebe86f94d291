"""Cycle packings and certified feedback arc sets in bipartite tournaments.

Given a bipartite tournament and an integer k, :func:`solve` produces
either k arc-disjoint 4-cycles or a feedback arc set of size at most
7(k-1), each as a machine-checkable certificate.  The supporting pieces
(the 4-cycle-free solver, the induced-path census, greedy packing, exact
exponential-time oracles and seeded instance generators) are exposed
directly.
"""

from .c4free_fas import FasCertificate, TraceNode, fas_c4free, find_4cycle, trim_acyclic_vertices
from .cycle_packing import Packing, greedy_pack
from .fas_engine import FasOutcome, PackingOutcome, SolveOutcome, backward_arcs, solve
from .graph_core import (
    ABSENT,
    TO_X,
    TO_Y,
    Arc,
    BipartiteDigraph,
    FourCycle,
    Subgraph,
    TopoResult,
    VertexRef,
    build,
    four_cycle,
    is_cycle_sequence,
    xv,
    yv,
)
from .instance_gen import GenSpec, enumerate_bt, random_bt, random_c4free
from .oracles import (
    P4,
    CensusSums,
    ClassKey2,
    ClassKey3,
    OracleResult,
    all_4cycles,
    census_sums,
    classes2,
    classes3,
    enumerate_induced_p4,
    find_cycle_brute,
    first_sec_by_buckets,
    max_c4_packing_exact,
    min_fas_exact,
)
from .p4_census import NeighborhoodPartition, first_count, partition_around, sec_count

__all__ = [
    "ABSENT",
    "TO_X",
    "TO_Y",
    "Arc",
    "BipartiteDigraph",
    "CensusSums",
    "ClassKey2",
    "ClassKey3",
    "FasCertificate",
    "FasOutcome",
    "FourCycle",
    "GenSpec",
    "NeighborhoodPartition",
    "OracleResult",
    "P4",
    "Packing",
    "PackingOutcome",
    "SolveOutcome",
    "Subgraph",
    "TopoResult",
    "TraceNode",
    "VertexRef",
    "all_4cycles",
    "backward_arcs",
    "build",
    "census_sums",
    "classes2",
    "classes3",
    "enumerate_bt",
    "enumerate_induced_p4",
    "fas_c4free",
    "find_4cycle",
    "find_cycle_brute",
    "first_count",
    "first_sec_by_buckets",
    "four_cycle",
    "greedy_pack",
    "is_cycle_sequence",
    "max_c4_packing_exact",
    "min_fas_exact",
    "partition_around",
    "random_bt",
    "random_c4free",
    "sec_count",
    "solve",
    "trim_acyclic_vertices",
    "xv",
    "yv",
]
