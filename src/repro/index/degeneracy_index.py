"""The degeneracy-bounded index ``I_δ`` and its optimal query ``Qopt``.

Section III-B of the paper: because every non-empty (α,β)-core has
``min(α,β) ≤ δ`` (Lemma 4), it suffices to store adjacency lists for the
levels τ = 1..δ on *both* sides:

* ``Iα_δ[u][τ]`` — for every vertex ``u`` of the (τ,τ)-core, its neighbours
  whose α-offset at level τ is at least τ, sorted by decreasing α-offset;
* ``Iβ_δ[u][τ]`` — its neighbours whose β-offset at level τ is strictly larger
  than τ, sorted by decreasing β-offset.

A query with α ≤ β is answered from ``Iα_δ`` at level α with requirement β;
a query with β < α from ``Iβ_δ`` at level β with requirement α.  Only entries
belonging to the answer are touched, so retrieval is O(size(C_{α,β}(q))) —
optimal.  Construction follows Algorithm 3 and costs O(δ·m); the index stores
O(δ·m) entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

    from repro.graph.csr import CSRBipartiteGraph
    from repro.index.csr_build import LevelArrays
    from repro.index.parallel_build import LevelPayload

from repro.decomposition.degeneracy import degeneracy
from repro.decomposition.offsets import alpha_offsets, beta_offsets, offsets_dict_from_arrays
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
from repro.index.traversal import (
    AdjacencyLists,
    ArrayQueryPath,
    IndexEntry,
    bfs_over_lists,
)
from repro.utils.timer import Timer
from repro.utils.validation import check_epsilon, check_query_vertex, check_thresholds

__all__ = ["DegeneracyIndex"]


class DegeneracyIndex(CommunityIndex):
    """The paper's ``I_δ`` index with optimal (α,β)-community retrieval.

    ``backend`` selects the construction engine: ``"dict"`` walks the
    label-level adjacency, ``"csr"`` freezes the graph once and runs the
    vectorised kernels, ``"auto"`` picks by graph size.  Both engines produce
    identical index structures, so queries are backend-agnostic.

    This static index keeps every level twice — ``Vertex``-keyed offset
    dicts and sorted adjacency lists (the reference the agreement tests and
    paper-figure comparisons read) plus the flat
    :class:`~repro.index.csr_build.LevelArrays` of the array query path.
    The maintained :class:`~repro.index.maintenance.DynamicDegeneracyIndex`
    keeps only the arrays.

    ``n_jobs`` shards the CSR backend's per-level construction passes across
    a process pool (see :mod:`repro.index.parallel_build`); every worker
    count — including the dict backend, which runs sequentially regardless —
    produces element-wise identical structures.
    """

    def __init__(
        self, graph: BipartiteGraph, backend: str = "auto", n_jobs: int = 1
    ) -> None:
        super().__init__(graph)
        if isinstance(n_jobs, bool) or not isinstance(n_jobs, int) or n_jobs < 1:
            raise InvalidParameterError(
                f"n_jobs must be a positive integer, got {n_jobs!r}"
            )
        self._backend = resolve_backend(backend, graph)
        self._n_jobs = n_jobs
        self._delta = 0
        self._alpha_lists: Dict[int, AdjacencyLists] = {}
        self._beta_lists: Dict[int, AdjacencyLists] = {}
        self._alpha_offsets: Dict[int, Dict[Vertex, int]] = {}
        self._beta_offsets: Dict[int, Dict[Vertex, int]] = {}
        self._array_path: Optional[ArrayQueryPath] = None
        self._build_seconds = 0.0
        self._build_extra: Dict[str, float] = {}
        self._build()

    # ------------------------------------------------------------------ #
    # construction (Algorithm 3)
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        with Timer() as timer, gc_paused():
            if self._backend == "csr":
                from repro.graph.csr import freeze

                self._build_csr(freeze(self._graph))
            else:
                self._delta = degeneracy(self._graph, backend="dict")
                for tau in range(1, self._delta + 1):
                    self._build_level(tau)
        self._build_seconds = timer.elapsed

    def _build_csr(self, csr: "CSRBipartiteGraph") -> None:
        """Array-native construction: run every level on the frozen ``csr``.

        Each level is materialised twice from the same filtered/sorted edge
        arrays: as the dict mirror (:meth:`_mirror_level`) and as the flat
        :class:`LevelArrays` the array query path consumes — so batch
        queries never pay a conversion.

        The per-level array passes come from
        :func:`~repro.index.parallel_build.compute_level_payloads` (sharded
        across processes when ``n_jobs > 1``); assembly of the dict/handle
        structures always happens here, in increasing τ order, so the built
        index is identical for every worker count.
        """
        from repro.decomposition.csr_kernels import csr_degeneracy
        from repro.index.csr_build import build_level_arrays
        from repro.index.parallel_build import compute_level_payloads

        self._delta = csr_degeneracy(csr)
        payloads, self._build_extra = compute_level_payloads(
            csr, self._delta, self._n_jobs
        )
        path = ArrayQueryPath(
            csr.upper_labels, csr.lower_labels, global_ids=csr.global_id_map()
        )
        for payload in payloads:
            self._mirror_level(csr, payload)
            path.set_level(
                ("alpha", payload.tau),
                build_level_arrays(
                    csr, payload.alpha_upper, payload.alpha_lower, payload.alpha_entries
                ),
            )
            path.set_level(
                ("beta", payload.tau),
                build_level_arrays(
                    csr, payload.beta_upper, payload.beta_lower, payload.beta_entries
                ),
            )
        self._array_path = path

    def _mirror_level(self, csr: "CSRBipartiteGraph", payload: "LevelPayload") -> None:
        """Assemble one level's dict mirror (offset dicts and sorted lists)."""
        from repro.index.csr_build import assemble_sorted_adjacency

        tau = payload.tau
        sa_u, sa_l = payload.alpha_upper, payload.alpha_lower
        self._alpha_offsets[tau] = offsets_dict_from_arrays(csr, sa_u, sa_l)
        self._beta_offsets[tau] = offsets_dict_from_arrays(
            csr, payload.beta_upper, payload.beta_lower
        )
        member_upper = sa_u >= tau
        member_lower = sa_l >= tau
        self._alpha_lists[tau] = assemble_sorted_adjacency(
            csr, member_upper, member_lower, True, payload.alpha_entries
        )
        self._beta_lists[tau] = assemble_sorted_adjacency(
            csr, member_upper, member_lower, False, payload.beta_entries
        )

    def _build_level(self, tau: int) -> None:
        """Compute the level-τ adjacency lists of both halves of the index.

        Honours the index's resolved backend so an explicit ``backend="dict"``
        build never routes through the CSR kernels.
        """
        graph = self._graph
        sa = alpha_offsets(graph, tau, backend=self._backend)
        sb = beta_offsets(graph, tau, backend=self._backend)
        self._alpha_offsets[tau] = sa
        self._beta_offsets[tau] = sb

        alpha_lists: AdjacencyLists = {}
        beta_lists: AdjacencyLists = {}
        for vertex, offset in sa.items():
            # Membership in the (τ,τ)-core: the α-offset at level τ is >= τ.
            if offset < tau:
                continue
            other = vertex.side.other
            alpha_entries: List[IndexEntry] = []
            beta_entries: List[IndexEntry] = []
            for nbr_label, weight in graph.neighbors(vertex.side, vertex.label).items():
                nbr = Vertex(other, nbr_label)
                nbr_sa = sa[nbr]
                if nbr_sa >= tau:
                    alpha_entries.append((nbr, weight, nbr_sa))
                nbr_sb = sb[nbr]
                if nbr_sb > tau:
                    beta_entries.append((nbr, weight, nbr_sb))
            alpha_entries.sort(key=lambda entry: -entry[2])
            beta_entries.sort(key=lambda entry: -entry[2])
            alpha_lists[vertex] = alpha_entries
            if beta_entries:
                beta_lists[vertex] = beta_entries
        self._alpha_lists[tau] = alpha_lists
        self._beta_lists[tau] = beta_lists

    # ------------------------------------------------------------------ #
    # querying (Qopt)
    # ------------------------------------------------------------------ #
    @property
    def delta(self) -> int:
        """The degeneracy of the indexed graph."""
        return self._delta

    @property
    def backend(self) -> str:
        """The resolved construction backend (``"dict"`` or ``"csr"``)."""
        return self._backend

    @property
    def native_array_levels(self) -> bool:
        """True when the flat level arrays already exist (CSR construction).

        Per-query entry points use this to decide whether the array-native
        step 2 is free to reach for: a dict-built index would pay a
        whole-level conversion for a single query, so only batch streams
        (which amortise the conversion) route it through the array path.
        """
        return self._array_path is not None

    def _route(self, alpha: int, beta: int) -> Tuple[Dict[Vertex, int], AdjacencyLists, int]:
        """Choose the index half, level and offset requirement for a query."""
        if alpha <= beta:
            return self._alpha_offsets[alpha], self._alpha_lists[alpha], beta
        return self._beta_offsets[beta], self._beta_lists[beta], alpha

    def contains(self, vertex: Vertex, alpha: int, beta: int) -> bool:
        """True when ``vertex`` belongs to the (α,β)-core."""
        check_thresholds(alpha, beta)
        if min(alpha, beta) > self._delta:
            return False
        offsets, _, requirement = self._route(alpha, beta)
        return offsets.get(vertex, 0) >= requirement

    def community(self, query: Vertex, alpha: int, beta: int) -> BipartiteGraph:
        """``Qopt``: optimal retrieval of ``C_{α,β}(query)``."""
        check_thresholds(alpha, beta)
        check_query_vertex(self._graph, query)
        if min(alpha, beta) > self._delta:
            raise EmptyCommunityError(query, alpha, beta)
        offsets, lists, requirement = self._route(alpha, beta)
        if offsets.get(query, 0) < requirement:
            raise EmptyCommunityError(query, alpha, beta)
        return bfs_over_lists(
            lists,
            query,
            requirement,
            name=f"C({alpha},{beta})[{query.label!r}]",
        )

    # ------------------------------------------------------------------ #
    # array-backed query path (batch Qopt)
    # ------------------------------------------------------------------ #
    def _array_community(
        self,
        path: ArrayQueryPath,
        query: Vertex,
        alpha: int,
        beta: int,
        cache: Optional[Dict] = None,
    ) -> BipartiteGraph:
        """``Qopt`` over the flat level arrays; same answers as dict lists."""
        key, requirement = self._route_array(path, query, alpha, beta)
        return path.community(
            key,
            query,
            requirement,
            name=f"C({alpha},{beta})[{query.label!r}]",
            cache=cache,
        )

    def batch_community(
        self,
        queries: Iterable[BatchQuery],
        on_empty: str = "raise",
    ) -> List[Optional[BipartiteGraph]]:
        """Answer many ``(query, alpha, beta)`` triples through the array path.

        The index is frozen into flat per-level arrays at most once for the
        whole stream (natively for CSR-built indexes, lazily per touched
        level otherwise) and every retrieval reuses the same visited scratch,
        so per-query cost is the vectorised BFS plus the answer allocation.
        Results are element-wise identical to per-query :meth:`community`
        calls; see :meth:`CommunityIndex.batch_community` for ``on_empty``.
        """
        path = self.query_path()
        cache: Dict = {}
        return apply_batch_policy(
            queries,
            lambda query, alpha, beta: self._array_community(
                path, query, alpha, beta, cache=cache
            ),
            on_empty,
        )

    def _route_array(
        self, path: ArrayQueryPath, query: Vertex, alpha: int, beta: int
    ) -> Tuple[Tuple[str, int], int]:
        """Validate an array-path query and resolve its level key/requirement.

        Shares the exact raise behaviour of :meth:`community`; converts the
        touched level from its dict lists on first use.
        """
        check_thresholds(alpha, beta)
        check_query_vertex(self._graph, query)
        if min(alpha, beta) > self._delta:
            raise EmptyCommunityError(query, alpha, beta)
        if alpha <= beta:
            key, requirement = ("alpha", alpha), beta
            path.ensure_level(key, self._alpha_offsets[alpha], self._alpha_lists[alpha])
        else:
            key, requirement = ("beta", beta), alpha
            path.ensure_level(key, self._beta_offsets[beta], self._beta_lists[beta])
        if path.offset_of(key, query) < requirement:
            raise EmptyCommunityError(query, alpha, beta)
        return key, requirement

    def batch_significant_edges(
        self,
        queries: Iterable[BatchQuery],
        method: str = "auto",
        epsilon: float = 2.0,
        on_empty: str = "raise",
        cache: Optional[Dict] = None,
    ) -> List:
        """Array-native step 1 + step 2 for a query stream, in wire form.

        Each answer is a ``(edge triple, resolved method, search-space edge
        count)`` tuple: the significant community as raw ``(src upper ids,
        dst lower ids, weights)`` arrays straight from the SCS kernels — no
        graph object is built anywhere in the pipeline.  ``method`` accepts
        ``"peel"`` / ``"expand"`` / ``"binary"`` / ``"auto"`` (``"baseline"``
        is inherently graph-based and stays with the dict path).
        """
        from repro.search import resolve_scs_method

        if method not in ("peel", "expand", "binary", "auto"):
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of "
                "('peel', 'expand', 'binary', 'auto')"
            )
        check_epsilon(epsilon)
        path = self.query_path()
        if cache is None:
            cache = {}

        def answer_one(
            query: Vertex, alpha: int, beta: int
        ) -> "Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], str, int]":
            key, requirement = self._route_array(path, query, alpha, beta)
            resolved = resolve_scs_method(method, alpha, beta, self._delta)
            edges, space = path.significant_edges(
                key,
                query,
                requirement,
                alpha,
                beta,
                method=resolved,
                epsilon=epsilon,
                cache=cache,
            )
            return edges, resolved, space

        return apply_batch_policy(queries, answer_one, on_empty)

    def export_level_arrays(self) -> "Dict[Tuple[str, int], LevelArrays]":
        """All flat level arrays of both halves, keyed ``("alpha"|"beta", τ)``.

        The snapshot store (:mod:`repro.serving.snapshot`) persists exactly
        these structures.  Levels the array query path has not touched yet are
        converted from their dict lists on the spot, so the export works for
        every construction backend.
        """
        path = self.query_path()
        keys = []
        for tau in range(1, self._delta + 1):
            alpha_key, beta_key = ("alpha", tau), ("beta", tau)
            path.ensure_level(alpha_key, self._alpha_offsets[tau], self._alpha_lists[tau])
            path.ensure_level(beta_key, self._beta_offsets[tau], self._beta_lists[tau])
            keys.extend((alpha_key, beta_key))
        return {key: path.level(key) for key in keys}

    def vertices_in_core(self, alpha: int, beta: int) -> List[Vertex]:
        """All vertices of the (α,β)-core (useful for sampling benchmark queries)."""
        check_thresholds(alpha, beta)
        if min(alpha, beta) > self._delta:
            return []
        offsets, _, requirement = self._route(alpha, beta)
        return [vertex for vertex, offset in offsets.items() if offset >= requirement]

    # ------------------------------------------------------------------ #
    def stats(self) -> IndexStats:
        entries = sum(
            len(entry_list)
            for level in self._alpha_lists.values()
            for entry_list in level.values()
        ) + sum(
            len(entry_list)
            for level in self._beta_lists.values()
            for entry_list in level.values()
        )
        lists = sum(len(level) for level in self._alpha_lists.values()) + sum(
            len(level) for level in self._beta_lists.values()
        )
        extra = {"delta": float(self._delta)}
        # Old pickled indexes predate the build metrics; default them away.
        extra.update(getattr(self, "_build_extra", {}))
        return IndexStats(
            name="Idelta",
            entries=entries,
            adjacency_lists=lists,
            build_seconds=self._build_seconds,
            extra=extra,
        )
