"""Result containers for the SSRP / MSRP pipelines.

The output of the MSRP problem is, for every source ``s``, target ``t`` and
edge ``e`` on the canonical ``s``-``t`` path, the length ``|st <> e|``.
With ``sigma`` sources this is ``Theta(sigma n^2)`` numbers in the worst
case (the paper's footnote 2), so the container stores them in nested
dictionaries keyed by source, then target, then normalised edge, and offers
a query interface that mirrors the fault-tolerant distance-oracle view of
Bernstein & Karger.
"""

from __future__ import annotations

import math
from operator import index as _vertex_id
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError, NotOnPathError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.tree import ShortestPathTree

#: target -> (edge -> replacement length)
PerSourceTable = Dict[int, Dict[Edge, float]]


class ReplacementPathResult:
    """Replacement-path lengths for a set of sources.

    Parameters
    ----------
    tables:
        ``tables[s][t][e]`` is ``|st <> e|`` for every edge ``e`` of the
        canonical ``s``-``t`` path.
    source_trees:
        The BFS trees that define the canonical paths; used to answer
        queries about edges *not* on the path and to reconstruct paths.
    graph:
        Optional originating graph.  When given, edge queries validate
        the edge actually exists — asking for the replacement length of a
        non-edge raises :class:`~repro.exceptions.InvalidParameterError`
        instead of silently returning the intact tree distance.
    """

    __slots__ = ("_tables", "_trees", "_graph", "_vertex_bound")

    def __init__(
        self,
        tables: Mapping[int, PerSourceTable],
        source_trees: Mapping[int, ShortestPathTree],
        graph: Optional[Graph] = None,
    ):
        # The copy also re-canonicalises infinities to the ``math.inf``
        # singleton: tables assembled in pool workers come back through
        # pickle, which materialises *new* float objects, and downstream
        # consumers (the benchmark fingerprint, ``is math.inf`` callers)
        # must not be able to tell a sharded run from a serial one.
        inf = math.inf
        self._tables: Dict[int, PerSourceTable] = {
            int(s): {
                t: {
                    e: (inf if value == inf else value)
                    for e, value in per_target.items()
                }
                for t, per_target in per_source.items()
            }
            for s, per_source in tables.items()
        }
        self._trees: Dict[int, ShortestPathTree] = dict(source_trees)
        self._graph = graph
        # Vertex bound for graph-less edge validation, resolved once.
        self._vertex_bound = (
            graph.num_vertices
            if graph is not None
            else min(
                (tree.num_vertices for tree in self._trees.values()), default=0
            )
        )
        for s in self._tables:
            if s not in self._trees:
                raise InvalidParameterError(f"missing source tree for source {s}")

    # -- basic accessors ------------------------------------------------------

    @property
    def sources(self) -> Tuple[int, ...]:
        """The sources the result covers, in sorted order."""
        return tuple(sorted(self._tables))

    @property
    def graph(self) -> Optional[Graph]:
        """The originating graph, when the result carries one.

        A graph-backed result validates edge queries against the real edge
        set; the on-disk store (:mod:`repro.store`) persists the graph so
        that validation survives a save/load round-trip.
        """
        return self._graph

    def source_tree(self, source: int) -> ShortestPathTree:
        """The BFS tree that defines the canonical paths from ``source``."""
        return self._trees[self._require_source(source)]

    def targets(self, source: int) -> List[int]:
        """Targets for which replacement data is stored for ``source``."""
        return sorted(self._tables[self._require_source(source)])

    def table(self, source: int) -> PerSourceTable:
        """The raw per-source table (target -> edge -> length)."""
        return self._tables[self._require_source(source)]

    # -- queries ---------------------------------------------------------------

    def distance(self, source: int, target: int) -> float:
        """Length of the canonical shortest ``source``-``target`` path."""
        source = self._require_source(source)
        return self._trees[source].distance(self._require_target(target))

    def canonical_path(self, source: int, target: int) -> List[int]:
        """The canonical shortest ``source``-``target`` path (vertex list)."""
        source = self._require_source(source)
        return self._trees[source].path_to(self._require_target(target))

    def replacement_length(
        self, source: int, target: int, edge: Sequence[int]
    ) -> float:
        """Return ``|st <> e|``.

        Edges that do not lie on the canonical ``source``-``target`` path do
        not change the distance, so the original shortest distance is
        returned for them.  ``math.inf`` means removing the edge disconnects
        the pair.

        The edge must be an actual edge of the instance: a pair that is not
        an edge of the graph (or, when the result was built without a graph
        reference, whose endpoints are not even vertices) raises
        :class:`~repro.exceptions.InvalidParameterError` rather than
        answering for a deletion that cannot happen.
        """
        source = self._require_source(source)
        target = self._require_target(target)
        e = self._require_edge(edge)
        per_target = self._tables[source].get(target, {})
        if e in per_target:
            return per_target[e]
        tree = self._trees[source]
        if not tree.is_reachable(target):
            return math.inf
        if tree.tree_path_uses_edge(e, target):
            raise NotOnPathError(
                f"edge {e} is on the canonical {source}-{target} path but has no "
                "stored replacement length; the result tables are incomplete"
            )
        return tree.distance(target)

    def require_edge(self, edge: Sequence[int]) -> Edge:
        """Validate and normalise ``edge`` exactly as the query path does.

        Public so the serving layer's cached ``(source, edge)`` sweeps
        (which bypass :meth:`replacement_length`) apply the same non-edge
        rejection; returns the normalised ``(min, max)`` tuple.
        """
        return self._require_edge(edge)

    def replacement_lengths(self, source: int, target: int) -> Dict[Edge, float]:
        """All stored ``edge -> length`` entries for a ``(source, target)`` pair."""
        source = self._require_source(source)
        return dict(self._tables[source].get(self._require_target(target), {}))

    # -- bulk views -------------------------------------------------------------

    def iter_entries(self) -> Iterator[Tuple[int, int, Edge, float]]:
        """Yield ``(source, target, edge, length)`` for every stored entry."""
        for s, per_source in self._tables.items():
            for t, per_target in per_source.items():
                for e, value in per_target.items():
                    yield s, t, e, value

    @property
    def output_size(self) -> int:
        """Total number of stored ``(s, t, e)`` triples (the ``sigma n^2`` term)."""
        return sum(
            len(per_target)
            for per_source in self._tables.values()
            for per_target in per_source.values()
        )

    def to_dict(self) -> Dict[int, PerSourceTable]:
        """Deep-copy the result into plain nested dictionaries."""
        return {
            s: {t: dict(per_target) for t, per_target in per_source.items()}
            for s, per_source in self._tables.items()
        }

    # -- comparisons -------------------------------------------------------------

    def differences_from(
        self, reference: Mapping[int, PerSourceTable]
    ) -> List[Tuple[int, int, Edge, float, float]]:
        """Compare against a reference table (e.g. the brute-force oracle).

        Returns a list of ``(source, target, edge, ours, theirs)`` tuples for
        every entry present in either side whose values differ.  An empty
        list means the two answers agree exactly.
        """
        mismatches: List[Tuple[int, int, Edge, float, float]] = []
        all_sources = set(self._tables) | set(reference)
        for s in all_sources:
            ours_source = self._tables.get(s, {})
            ref_source = reference.get(s, {})
            all_targets = set(ours_source) | set(ref_source)
            for t in all_targets:
                ours_target = ours_source.get(t, {})
                ref_target = ref_source.get(t, {})
                for e in set(ours_target) | set(ref_target):
                    ours = ours_target.get(e, math.nan)
                    theirs = ref_target.get(e, math.nan)
                    if ours != theirs and not (math.isnan(ours) and math.isnan(theirs)):
                        mismatches.append((s, t, e, ours, theirs))
        return mismatches

    def matches(self, reference: Mapping[int, PerSourceTable]) -> bool:
        """``True`` when the result agrees entirely with ``reference``."""
        return not self.differences_from(reference)

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Explicit pickled form: tables, trees and the graph reference.

        Without these methods a ``__slots__`` class pickles through the
        default reduce protocol, which restores the slots *directly* —
        skipping the constructor and therefore the ``math.inf``
        re-canonicalisation it performs.  An unpickled result would then
        hold ``inf`` objects that are ``== math.inf`` but not ``is
        math.inf``, silently breaking the byte-identical-parallelism
        invariant (benchmark fingerprints, ``is math.inf`` callers).

        The graph reference is part of the state on purpose: dropping it
        would downgrade ``_require_edge`` to the permissive vertex-range
        check, re-opening the non-edge-query hole for round-tripped
        results.
        """
        return (self._tables, self._trees, self._graph)

    def __setstate__(self, state) -> None:
        tables, trees, graph = state
        # Route restoration through the constructor so every invariant it
        # establishes (inf canonicalisation, source/tree consistency,
        # vertex bound) holds for unpickled results too.
        self.__init__(tables, trees, graph=graph)

    # -- internals ---------------------------------------------------------------

    def _require_source(self, source: int) -> int:
        """Coerce ``source`` onto the constructor's plain-``int`` keys.

        ``operator.index`` accepts every true integer type (``bool``, numpy
        integer scalars) so such inputs address the same entries they would
        have created instead of falling through lookups into the "not
        stored" branches — while rejecting non-integral values like ``0.7``
        (``TypeError``) instead of silently truncating to a valid source.
        Returns the coerced key.
        """
        source = _vertex_id(source)
        if source not in self._tables:
            raise InvalidParameterError(
                f"{source} is not one of the result's sources {self.sources}"
            )
        return source

    def _require_target(self, target: int) -> int:
        """Coerce ``target`` like a source and reject ids outside ``0..n-1``.

        A negative id would otherwise wrap around the trees' flat arrays
        (``-1`` answering for vertex ``n - 1``), and an id ``>= n`` would
        raise a bare ``IndexError``.
        """
        target = _vertex_id(target)
        n = self._vertex_bound
        if not 0 <= target < n:
            raise InvalidParameterError(
                f"target {target} is not a vertex of a graph on {n} vertices"
            )
        return target

    def _require_edge(self, edge: Sequence[int]) -> Edge:
        """Normalise ``edge`` and reject pairs that are not graph edges."""
        u, v = int(edge[0]), int(edge[1])
        graph = self._graph
        if graph is not None:
            if not graph.has_edge(u, v):
                raise InvalidParameterError(
                    f"({u}, {v}) is not an edge of the graph; replacement "
                    "lengths are only defined for deletable edges"
                )
        else:
            # No graph reference: the trees still bound the vertex range.
            n = self._vertex_bound
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidParameterError(
                    f"({u}, {v}) is not an edge of a graph on {n} vertices"
                )
        return normalize_edge(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ReplacementPathResult(sources={len(self._tables)}, "
            f"entries={self.output_size})"
        )
