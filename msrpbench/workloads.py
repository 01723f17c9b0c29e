"""The benchmark's workloads and the inputs it makes for them.

Every workload runs the whole preprocess -> store -> serve -> query
lifecycle; they differ in the instance and in where a run spends its
time.  See README.md for why each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    sigma: int
    strategy: str
    workers: int
    #: Solves measured per run (each in a fresh process, each on its own
    #: instance derived from the run's seed).
    solves: int
    #: Share of ``--seconds`` spent in the closed-loop query phase.
    query_share: float
    #: Whether set-up is the whole preprocess (graph, solver, solve, store
    #: write, server launch) and peak RSS the server's, as for a
    #: deployment that serves queries; otherwise set-up is graph plus
    #: solver construction and peak RSS the solving process's.
    preprocess: bool


#: solve-aux is not in BENCHMARK.json: the auxiliary strategy gives
#: wrong answers at its size (README.md), and a gated workload must pass.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-aux",
            n=240,
            sigma=3,
            strategy="auxiliary",
            workers=0,
            solves=3,
            query_share=0.5,
            preprocess=False,
        ),
        Workload(
            name="solve-direct",
            n=200,
            sigma=14,
            strategy="direct",
            workers=2,
            solves=4,
            query_share=0.8,
            preprocess=False,
        ),
        Workload(
            name="serve",
            n=960,
            sigma=3,
            strategy="direct",
            workers=0,
            solves=2,
            query_share=1.0,
            preprocess=True,
        ),
    )
}


def instance_seed(run_seed: int, index: int) -> int:
    """Seed of the ``index``-th instance of a run."""
    return run_seed * 1000 + index


def make_instance(n: int, sigma: int, seed: int) -> Tuple[List[Edge], List[int]]:
    """Edges of ``random_connected_graph(n, 2n, seed)`` and ``sigma`` sources.

    ``extra_edges=2n`` gives ``m ~ 3n``.  The program under test only
    receives the edge list and the sources; building the ``Graph`` from
    them is part of its timed set-up.
    """
    from repro.graph.generators import random_connected_graph, random_sources

    graph = random_connected_graph(n, extra_edges=2 * n, seed=seed)
    return list(graph.edges()), random_sources(graph, sigma, seed=seed)
