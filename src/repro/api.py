"""High-level facade: build an index once, run community searches against it.

:class:`CommunitySearcher` wires together the two-step framework of the paper:

1. the degeneracy-bounded index ``I_δ`` answers (α,β)-community queries in
   optimal time;
2. one of the search algorithms (peel / expand / binary / baseline) extracts
   the significant (α,β)-community from it.

For query *streams*, :meth:`CommunitySearcher.batch_community` and
:meth:`CommunitySearcher.batch_significant_communities` route every retrieval
through the index's array-backed CSR query path: the index is frozen into
flat per-level arrays once for the whole batch, answers come back in input
order, and each element is identical to the corresponding sequential call.

Step 2 is array-native for every index that exposes
``batch_significant_edges`` (the degeneracy family and snapshots): retrieval
yields the community as raw parallel edge arrays and the SCS kernels of
:mod:`repro.decomposition.csr_kernels` peel those arrays directly, so no
intermediate graph object — not even a lazy one — is built per query.
Answers come back as :class:`~repro.serving.wire.DeferredCommunity` graphs
that materialise their adjacency dicts only if something reads the structure.
Other indexes run the dict-backed ``scs_*`` routines (element-wise identical
answers, see the agreement suite); ``method="auto"`` resolves through the one
shared rule in :func:`repro.search.resolve_scs_method` on both paths.

Example
-------
>>> from repro import CommunitySearcher, upper
>>> from repro.graph.generators import paper_example_graph
>>> searcher = CommunitySearcher(paper_example_graph())
>>> result = searcher.significant_community(upper("u3"), 2, 2)
>>> sorted(result.graph.upper_labels())
['u3', 'u4']
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.serving.server import CommunityServer

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.index.base import BatchQuery, apply_batch_policy, check_on_empty
from repro.index.degeneracy_index import DegeneracyIndex
from repro.search import resolve_scs_method
from repro.search.baseline import scs_baseline
from repro.search.binary import scs_binary
from repro.search.expand import scs_expand
from repro.search.peel import scs_peel
from repro.search.result import SearchResult
from repro.utils.validation import check_epsilon

__all__ = ["CommunitySearcher"]

_COMMUNITY_METHODS = ("peel", "expand", "binary", "baseline", "auto")


class CommunitySearcher:
    """Two-step significant (α,β)-community search over one graph.

    ``backend`` selects the engine used to build the index when one is not
    supplied: ``"dict"`` (label-level adjacency), ``"csr"`` (frozen integer
    arrays with vectorised peeling kernels) or ``"auto"`` (CSR once the graph
    is large enough to amortise the freeze).  ``n_jobs`` shards the CSR
    build's per-level passes across worker processes.  Query results are
    identical across backends and worker counts.
    """

    def __init__(
        self,
        graph: Optional[BipartiteGraph] = None,
        index: Optional[DegeneracyIndex] = None,
        backend: str = "auto",
        n_jobs: int = 1,
    ) -> None:
        if index is None:
            if graph is None:
                raise InvalidParameterError(
                    "CommunitySearcher needs a graph to index or a prebuilt index"
                )
            index = DegeneracyIndex(graph, backend=backend, n_jobs=n_jobs)
        self._graph = graph
        self._index = index

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> BipartiteGraph:
        """The searched graph (taken from the index when not supplied).

        For a snapshot-backed searcher the graph is thawed from the mapped
        arrays on first access, so index-only construction stays cheap; a
        maintained index builds its current graph on each access.
        """
        return self._index.graph if self._graph is None else self._graph

    @property
    def index(self) -> DegeneracyIndex:
        return self._index

    @property
    def backend(self) -> str:
        """The resolved construction backend of the underlying index."""
        return self._index.backend

    @property
    def degeneracy(self) -> int:
        """δ of the indexed graph — the largest usable ``min(α, β)``."""
        return self._index.delta

    # ------------------------------------------------------------------ #
    def community(self, query: Vertex, alpha: int, beta: int) -> BipartiteGraph:
        """Step 1: the (α,β)-community ``C_{α,β}(q)`` (Definition 3)."""
        return self._index.community(query, alpha, beta)

    def significant_community(
        self,
        query: Vertex,
        alpha: int,
        beta: int,
        method: str = "auto",
        epsilon: float = 2.0,
    ) -> SearchResult:
        """Step 2: the significant (α,β)-community ``R`` (Definition 5).

        ``method`` selects the extraction algorithm: ``"peel"``, ``"expand"``,
        ``"binary"``, ``"baseline"`` (index-free) or ``"auto"``.  The paper's
        guidance, which ``"auto"`` follows, is that expansion wins when the
        thresholds are small relative to δ (large search space, small answer)
        while peeling wins for large thresholds.
        """
        if method not in _COMMUNITY_METHODS:
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of {_COMMUNITY_METHODS}"
            )
        check_epsilon(epsilon)
        if method == "baseline":
            return self._baseline_result(query, alpha, beta, epsilon)
        index = self._index
        if getattr(index, "native_array_levels", False):
            # Array-native step 2: retrieval and extraction both run over the
            # wire edge arrays, no per-query graph assembly.  Only taken when
            # the index's level arrays already exist (CSR-built or
            # snapshot-backed) — a dict-built index would pay a whole-level
            # conversion for one query, so it keeps the dict algorithms.
            packed = index.batch_significant_edges(
                [(query, alpha, beta)], method=method, epsilon=epsilon
            )
            return self._wire_result(packed[0], query, alpha, beta)
        community = self.community(query, alpha, beta)
        return self._extract(community, query, alpha, beta, method, epsilon)

    # ------------------------------------------------------------------ #
    # batch querying
    # ------------------------------------------------------------------ #
    def batch_community(
        self,
        queries: Iterable[BatchQuery],
        on_empty: str = "raise",
    ) -> List[Optional[BipartiteGraph]]:
        """Step 1 for a whole stream of ``(query, alpha, beta)`` triples.

        The underlying index is frozen into its array-backed query path once
        and every retrieval runs the vectorised CSR BFS, so throughput on a
        query stream is far higher than per-query :meth:`community` calls
        (``benchmarks/bench_batch_query.py`` gates the speedup).  Results come
        back in input order and are element-wise identical to sequential
        calls; ``on_empty`` picks the policy for queries outside their core —
        ``"raise"`` (default), ``"none"`` (aligned placeholder) or ``"skip"``
        (drop).
        """
        return self._index.batch_community(queries, on_empty=on_empty)

    def batch_significant_communities(
        self,
        queries: Iterable[BatchQuery],
        method: str = "auto",
        epsilon: float = 2.0,
        on_empty: str = "raise",
    ) -> List[Optional[SearchResult]]:
        """Step 1 + step 2 for a whole query stream, in input order.

        Equivalent to calling :meth:`significant_community` per triple but
        with the (α,β)-community retrievals routed through the batched array
        path.  Each element of the result is exactly what the sequential call
        returns; queries outside their core follow ``on_empty`` (``"raise"``
        by default, ``"none"`` keeps an aligned ``None``, ``"skip"`` drops
        the query from the output).
        """
        if method not in _COMMUNITY_METHODS:
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of {_COMMUNITY_METHODS}"
            )
        check_epsilon(epsilon)
        check_on_empty(on_empty)
        queries = list(queries)
        if method == "baseline":
            return apply_batch_policy(
                queries,
                lambda query, alpha, beta: self._baseline_result(
                    query, alpha, beta, epsilon
                ),
                on_empty,
            )
        index = self._index
        if hasattr(index, "batch_significant_edges"):
            # Array-native pipeline: retrieval and extraction run over the
            # wire edge arrays (levels converted lazily at most once for the
            # whole stream) and no dict graph is built per community.
            packed = index.batch_significant_edges(
                queries,
                method=method,
                epsilon=epsilon,
                on_empty="raise" if on_empty == "raise" else "none",
            )
            results = []
            for (query, alpha, beta), item in zip(queries, packed):
                if item is None:
                    if on_empty == "none":
                        results.append(None)
                    continue
                results.append(self._wire_result(item, query, alpha, beta))
            return results
        communities = self._index.batch_community(
            queries, on_empty="raise" if on_empty == "raise" else "none"
        )
        results = []
        for (query, alpha, beta), community in zip(queries, communities):
            if community is None:
                if on_empty == "none":
                    results.append(None)
                continue
            results.append(
                self._extract(community, query, alpha, beta, method, epsilon)
            )
        return results

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(
        self,
        num_workers: Optional[int] = None,
        snapshot_dir: Optional[str] = None,
        start_method: Optional[str] = None,
        supervised: bool = False,
    ) -> "CommunityServer":
        """Snapshot the index and return a multi-process ``CommunityServer``.

        The index is persisted once in the mmap-able snapshot format (skipped
        when it already *is* a snapshot-backed index), then every worker
        process reopens it read-only so the OS shares one set of index pages
        across the fleet.  The server is returned un-started; use it as a
        context manager (or call ``start()``)::

            with searcher.serve(num_workers=4) as server:
                answers = server.batch_community(stream, on_empty="none")

        With ``snapshot_dir`` the snapshot is written there and left behind
        for future cold starts; otherwise a temporary directory is used and
        removed when the server stops.  Workers memoise component answers
        per batch only (the cross-batch answer cache belongs to the network
        front end, :class:`~repro.serving.frontend.ServingFrontend`).
        ``supervised=True`` returns a
        :class:`~repro.serving.supervisor.SupervisedCommunityServer`, which
        respawns crashed workers instead of failing the batch.
        """
        from repro.serving.server import CommunityServer
        from repro.serving.snapshot import SnapshotIndex, save_snapshot
        from repro.serving.supervisor import SupervisedCommunityServer

        cleanup = False
        if isinstance(self._index, SnapshotIndex):
            if snapshot_dir is None:
                directory = self._index.directory
            else:
                # A snapshot-backed index cannot be re-exported (its levels
                # live only as mapped segments) — replicate the directory.
                import shutil

                directory = shutil.copytree(
                    self._index.directory, snapshot_dir, dirs_exist_ok=True
                )
        elif snapshot_dir is not None:
            directory = save_snapshot(self._index, snapshot_dir)
        else:
            import shutil
            import tempfile

            directory = tempfile.mkdtemp(prefix="repro-snapshot-")
            try:
                save_snapshot(self._index, directory)
            except BaseException:
                shutil.rmtree(directory, ignore_errors=True)
                raise
            cleanup = True
        server_cls = SupervisedCommunityServer if supervised else CommunityServer
        return server_cls(
            directory,
            num_workers=num_workers,
            start_method=start_method,
            cleanup_snapshot=cleanup,
        )

    # ------------------------------------------------------------------ #
    # shared step-2 machinery
    # ------------------------------------------------------------------ #
    def _baseline_result(
        self, query: Vertex, alpha: int, beta: int, epsilon: float
    ) -> SearchResult:
        graph = self.graph
        answer = scs_baseline(graph, query, alpha, beta, epsilon=epsilon)
        return SearchResult(
            graph=answer,
            query=query,
            alpha=alpha,
            beta=beta,
            method="baseline",
            search_space_edges=graph.num_edges,
        )

    def _wire_result(
        self, packed: Tuple[object, str, int], query: Vertex, alpha: int, beta: int
    ) -> SearchResult:
        """Wrap one ``batch_significant_edges`` answer into a ``SearchResult``.

        The graph is a lazy :class:`~repro.serving.wire.DeferredCommunity`
        over the kept wire arrays — reading its structure later assembles the
        exact graph the dict algorithms return, but the search pipeline itself
        never materialises it.
        """
        from repro.serving.wire import DeferredCommunity

        edges, resolved, space = packed
        graph = DeferredCommunity(
            edges,
            self._index.query_path().label_arrays(),
            name=f"R({alpha},{beta})[{query.label!r}]",
        )
        return SearchResult(
            graph=graph,
            query=query,
            alpha=alpha,
            beta=beta,
            method=resolved,
            search_space_edges=space,
        )

    def _extract(
        self,
        community: BipartiteGraph,
        query: Vertex,
        alpha: int,
        beta: int,
        method: str,
        epsilon: float,
    ) -> SearchResult:
        """Run the selected extraction algorithm over a retrieved community."""
        method = resolve_scs_method(method, alpha, beta, self.degeneracy)
        extractor: Dict[str, Callable[..., BipartiteGraph]] = {
            "peel": scs_peel,
            "expand": scs_expand,
            "binary": scs_binary,
        }
        if method == "expand":
            answer = scs_expand(community, query, alpha, beta, epsilon=epsilon)
        else:
            answer = extractor[method](community, query, alpha, beta)
        return SearchResult(
            graph=answer,
            query=query,
            alpha=alpha,
            beta=beta,
            method=method,
            search_space_edges=community.num_edges,
        )
