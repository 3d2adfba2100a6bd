"""The basic edge-level indexes ``Iα_bs`` and ``Iβ_bs`` (Section III-A).

``Iα_bs`` stores, for every α from 1 to α_max and every vertex of the
(α,1)-core, the vertex's neighbours sorted by decreasing α-offset (together
with the edge weight).  A query ``C_{α,β}(q)`` is answered by a breadth-first
search over the level-α lists, truncating every list at the first offset below
β (Algorithm 2), which is optimal in the answer size.  ``Iβ_bs`` is the
symmetric structure indexed by β.

The weakness the paper points out — and the reason the degeneracy-bounded
index exists — is the space: a vertex of the (α_max,1)-core has its adjacency
list replicated α_max times.  The ``max_level`` argument lets callers cap the
number of levels so the construction stays tractable on graphs with huge hub
degrees; a full-fidelity build simply omits it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.decomposition.offsets import (
    alpha_offsets,
    beta_offsets,
    max_alpha,
    max_beta,
    offsets_dict_from_arrays,
)
from repro.exceptions import EmptyCommunityError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.csr import resolve_backend
from repro.index.base import (
    BatchQuery,
    CommunityIndex,
    IndexStats,
    apply_batch_policy,
    gc_paused,
)
from repro.index.traversal import AdjacencyLists, IndexEntry, bfs_over_lists
from repro.utils.timer import Timer
from repro.utils.validation import check_query_vertex, check_thresholds

__all__ = ["BasicIndex"]


class BasicIndex(CommunityIndex):
    """One of the two basic indexes, selected by ``direction``.

    Parameters
    ----------
    graph:
        The weighted bipartite graph to index.
    direction:
        ``"alpha"`` builds ``Iα_bs`` (levels are α values, offsets are
        α-offsets); ``"beta"`` builds ``Iβ_bs``.
    max_level:
        Optional cap on the number of levels (defaults to α_max / β_max).
    backend:
        Construction engine (``"dict"``, ``"csr"`` or ``"auto"``); both
        engines produce identical index structures.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        direction: str = "alpha",
        max_level: Optional[int] = None,
        backend: str = "auto",
    ) -> None:
        super().__init__(graph)
        if direction not in ("alpha", "beta"):
            raise InvalidParameterError(
                f"direction must be 'alpha' or 'beta', got {direction!r}"
            )
        self.direction = direction
        self._backend = resolve_backend(backend, graph)
        self._lists: Dict[int, AdjacencyLists] = {}
        self._offsets: Dict[int, Dict[Vertex, int]] = {}
        self._array_path = None
        self._max_level = 0
        self._build_seconds = 0.0
        self._build(max_level)

    # ------------------------------------------------------------------ #
    def _build(self, max_level: Optional[int]) -> None:
        graph = self._graph
        natural_max = max_alpha(graph) if self.direction == "alpha" else max_beta(graph)
        self._max_level = natural_max if max_level is None else min(max_level, natural_max)
        with Timer() as timer, gc_paused():
            if self._backend == "csr":
                self._build_levels_csr()
            else:
                self._build_levels_dict()
        self._build_seconds = timer.elapsed

    def _build_levels_dict(self) -> None:
        graph = self._graph
        offsets_fn = alpha_offsets if self.direction == "alpha" else beta_offsets
        for level in range(1, self._max_level + 1):
            offsets = offsets_fn(graph, level, backend="dict")
            self._offsets[level] = offsets
            level_lists: AdjacencyLists = {}
            for vertex, offset in offsets.items():
                if offset < 1:
                    continue
                other = vertex.side.other
                entries: List[IndexEntry] = []
                for nbr_label, weight in graph.neighbors(vertex.side, vertex.label).items():
                    nbr = Vertex(other, nbr_label)
                    nbr_offset = offsets[nbr]
                    if nbr_offset >= 1:
                        entries.append((nbr, weight, nbr_offset))
                entries.sort(key=lambda entry: -entry[2])
                level_lists[vertex] = entries
            self._lists[level] = level_lists

    def _build_levels_csr(self) -> None:
        """Array-native construction: freeze once, reuse across all levels."""
        from repro.decomposition.csr_kernels import csr_offsets_fixed_primary
        from repro.graph.csr import freeze
        from repro.index.csr_build import build_sorted_adjacency, edge_sources

        csr = freeze(self._graph)
        primary = Side.UPPER if self.direction == "alpha" else Side.LOWER
        src_upper = edge_sources(csr, Side.UPPER)
        src_lower = edge_sources(csr, Side.LOWER)
        for level in range(1, self._max_level + 1):
            off_u, off_l = csr_offsets_fixed_primary(csr, primary, level)
            self._offsets[level] = offsets_dict_from_arrays(csr, off_u, off_l)
            self._lists[level] = build_sorted_adjacency(
                csr,
                off_u >= 1,
                off_l >= 1,
                off_u,
                off_l,
                1,
                strict=False,
                include_empty=True,
                src_upper=src_upper,
                src_lower=src_lower,
            )

    # ------------------------------------------------------------------ #
    @property
    def max_level(self) -> int:
        """Highest α (or β) value covered by the index."""
        return self._max_level

    @property
    def backend(self) -> str:
        """The resolved construction backend (``"dict"`` or ``"csr"``)."""
        return self._backend

    def _route(self, query: Vertex, alpha: int, beta: int) -> Tuple[int, int]:
        """Validate a query and resolve its ``(level, requirement)`` pair."""
        check_thresholds(alpha, beta)
        check_query_vertex(self._graph, query)
        if self.direction == "alpha":
            level, requirement = alpha, beta
        else:
            level, requirement = beta, alpha
        if level > self._max_level:
            if level > (
                max_alpha(self._graph) if self.direction == "alpha" else max_beta(self._graph)
            ):
                raise EmptyCommunityError(query, alpha, beta)
            raise InvalidParameterError(
                f"index was built with max_level={self._max_level}, "
                f"cannot answer a query at level {level}"
            )
        return level, requirement

    def community(self, query: Vertex, alpha: int, beta: int) -> BipartiteGraph:
        level, requirement = self._route(query, alpha, beta)
        offsets = self._offsets.get(level, {})
        if offsets.get(query, 0) < requirement:
            raise EmptyCommunityError(query, alpha, beta)
        return bfs_over_lists(
            self._lists[level],
            query,
            requirement,
            name=f"C({alpha},{beta})[{query.label!r}]",
        )

    def batch_community(
        self,
        queries: Iterable[BatchQuery],
        on_empty: str = "raise",
    ) -> List[Optional[BipartiteGraph]]:
        """Batched queries through the array path (lazily converted levels).

        Mirrors :meth:`DegeneracyIndex.batch_community`: each queried level is
        flattened into arrays at most once for the whole stream.
        """
        path = self.query_path()
        cache: Dict = {}

        def answer_one(query: Vertex, alpha: int, beta: int) -> BipartiteGraph:
            level, requirement = self._route(query, alpha, beta)
            path.ensure_level(
                level, self._offsets.get(level, {}), self._lists.get(level, {})
            )
            if path.offset_of(level, query) < requirement:
                raise EmptyCommunityError(query, alpha, beta)
            return path.community(
                level,
                query,
                requirement,
                name=f"C({alpha},{beta})[{query.label!r}]",
                cache=cache,
            )

        return apply_batch_policy(queries, answer_one, on_empty)

    def stats(self) -> IndexStats:
        entries = sum(
            len(entry_list)
            for level_lists in self._lists.values()
            for entry_list in level_lists.values()
        )
        lists = sum(len(level_lists) for level_lists in self._lists.values())
        return IndexStats(
            name="Ia_bs" if self.direction == "alpha" else "Ib_bs",
            entries=entries,
            adjacency_lists=lists,
            build_seconds=self._build_seconds,
            extra={"levels": float(self._max_level)},
        )
