"""Shared BFS over sorted index adjacency lists — and their array form.

Both the basic indexes and the degeneracy-bounded index answer queries the
same way (Algorithm 2 of the paper): starting from the query vertex, walk the
pre-sorted adjacency lists, stopping the scan of each list as soon as an
offset drops below the query requirement.  Because a list entry is touched
only when it corresponds to an edge of the answer, the traversal runs in
O(size(C_{α,β}(q))) time.

:func:`bfs_over_lists` is the dict-backend implementation.
:func:`bfs_over_arrays` answers the same query over the flat per-level
:class:`~repro.index.csr_build.LevelArrays`: whole frontiers are expanded
with vectorised gathers, per-vertex qualifying prefixes are found with a
binary search on the sorted offsets (preserving the answer-size bound up to a
logarithmic factor), and the answer graph is assembled from sorted edge
arrays instead of per-edge ``add_edge`` calls.  :class:`ArrayQueryPath`
bundles the levels of one index with the interned id space and a reusable
visited bitmap, which is what makes batched query streams cheap: the index is
"frozen" into arrays once and every retrieval allocates only its answer.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph, Side, Vertex

if TYPE_CHECKING:
    from repro.index.csr_build import LevelArrays

__all__ = [
    "IndexEntry",
    "AdjacencyLists",
    "bfs_over_lists",
    "bfs_edges_over_arrays",
    "bfs_over_arrays",
    "ArrayQueryPath",
]

# (neighbour handle, edge weight, neighbour offset at this index level)
IndexEntry = Tuple[Vertex, float, int]
AdjacencyLists = Dict[Vertex, List[IndexEntry]]


def bfs_over_lists(
    lists: AdjacencyLists,
    query: Vertex,
    requirement: int,
    name: str = "",
) -> BipartiteGraph:
    """Collect the community of ``query`` from sorted adjacency lists.

    Contract: query's connected component over vertices with offset >= requirement; each edge once.

    ``lists[v]`` must be sorted by decreasing offset; an entry whose offset is
    >= ``requirement`` corresponds to an edge of the answer.  The caller is
    responsible for checking that ``query`` itself belongs to the queried core.
    """
    community = BipartiteGraph(name=name)
    seen: Set[Vertex] = {query}
    queue: deque[Vertex] = deque([query])
    while queue:
        vertex = queue.popleft()
        for nbr, weight, offset in lists.get(vertex, ()):  # sorted descending
            if offset < requirement:
                break
            if vertex.side is Side.UPPER:
                community.add_edge(vertex.label, nbr.label, weight)
            else:
                community.add_edge(nbr.label, vertex.label, weight)
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    return community


def _qualifying_counts(
    level: "LevelArrays", frontier: "np.ndarray", requirement: int
) -> "np.ndarray":
    """Entries of each frontier vertex whose offset meets ``requirement``.

    Slices are sorted by decreasing offset, so the qualifying entries form a
    prefix.  The common case — the whole slice qualifies — is detected with
    one vectorised gather of each slice's minimum offset; only the remaining
    vertices pay a binary search, keeping the scan within the answer size up
    to a logarithmic factor (no full-list walks past the cut-off).
    """
    indptr = level.indptr
    entry_offset = level.entry_offset
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    nonempty = counts > 0
    if entry_offset.size:
        last = np.where(nonempty, starts + counts - 1, 0)
        full = nonempty & (entry_offset[last] >= requirement)
    else:
        full = np.zeros(frontier.shape[0], dtype=bool)
    for i in np.flatnonzero(nonempty & ~full).tolist():
        lo = int(starts[i])
        hi = lo + int(counts[i])
        ascending = entry_offset[lo:hi][::-1]
        counts[i] = (hi - lo) - int(
            np.searchsorted(ascending, requirement, side="left")
        )
    return starts, counts


def _grouped_adjacency(
    owners: "np.ndarray",
    owner_label_arr: "np.ndarray",
    other_labels: "np.ndarray",
    weights: "np.ndarray",
) -> Dict[Hashable, Dict[Hashable, float]]:
    """``{owner label: {other label: weight}}`` from contiguous owner runs.

    ``owners`` must list each distinct owner in one contiguous run (BFS
    expansion order for the upper direction, a sorted array for the mirror);
    the inner dicts are then built by draining one shared pair iterator with
    ``islice`` — no per-owner slice copies, no per-edge ``add_edge`` calls.
    """
    boundaries = np.flatnonzero(owners[1:] != owners[:-1]) + 1
    run_starts = np.concatenate(([0], boundaries))
    run_counts = np.diff(np.concatenate((run_starts, [owners.shape[0]])))
    labels = owner_label_arr[owners[run_starts]].tolist()
    pairs = zip(other_labels, weights)
    return {
        label: dict(islice(pairs, count))
        for label, count in zip(labels, run_counts.tolist())
    }


def _graph_from_edge_arrays(
    src: "np.ndarray",
    dst: "np.ndarray",
    weight: "np.ndarray",
    upper_label_arr: "np.ndarray",
    lower_label_arr: "np.ndarray",
    name: str,
) -> BipartiteGraph:
    """Materialise a :class:`BipartiteGraph` from parallel edge-id arrays.

    The upper direction needs no sort at all: every upper vertex is expanded
    in exactly one BFS round, so its edges are already contiguous in ``src``.
    The mirror direction pays a single stable sort by lower id.
    """
    upper_adj = _grouped_adjacency(
        src, upper_label_arr, lower_label_arr[dst].tolist(), weight.tolist()
    )
    order = np.argsort(dst, kind="stable")
    lower_adj = _grouped_adjacency(
        dst[order],
        lower_label_arr,
        upper_label_arr[src[order]].tolist(),
        weight[order].tolist(),
    )
    return BipartiteGraph._from_mirrored_adjacency(
        upper_adj, lower_adj, num_edges=int(src.shape[0]), name=name
    )


def bfs_edges_over_arrays(
    level: "LevelArrays",
    query_id: int,
    requirement: int,
    visited: "Optional[np.ndarray]" = None,
) -> "Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]":
    """Collect one community as raw edge arrays — the zero-materialisation core.

    Contract: query's connected component over vertices with offset >= requirement; each edge once.

    The pure array half of :func:`bfs_over_arrays`, split out so the
    statically-checked zero-materialisation path (rule ``MAT00x`` in
    ``repro.analysis``) never even *reaches* the dict-assembly code: the
    answer is returned as parallel ``(src upper ids, dst lower ids,
    weights)`` arrays — the compact wire form the multi-process serving
    layer ships between processes — together with the member global ids
    that let batch callers memoise whole connected components.  ``visited``
    may supply a reusable boolean scratch array of length
    ``level.offsets.shape[0]``; it is restored to all-``False`` before
    returning, so a batch of queries can share one allocation.
    """
    num_upper = level.num_upper
    indptr = level.indptr
    entry_vertex = level.entry_vertex
    entry_weight = level.entry_weight
    if visited is None:
        visited = np.zeros(level.offsets.shape[0], dtype=bool)
    visited[query_id] = True
    frontier = np.array([query_id], dtype=np.int64)
    seen_parts = [frontier]
    src_parts: List = []
    dst_parts: List = []
    weight_parts: List = []
    while frontier.size:
        starts, counts = _qualifying_counts(level, frontier, requirement)
        total = int(counts.sum())
        if total == 0:
            break
        segment_starts = np.cumsum(counts) - counts
        positions = np.repeat(starts - segment_starts, counts) + np.arange(total)
        neighbours = entry_vertex[positions]
        sources = np.repeat(frontier, counts)
        from_upper = sources < num_upper
        src_parts.append(sources[from_upper])
        dst_parts.append(neighbours[from_upper] - num_upper)
        weight_parts.append(entry_weight[positions[from_upper]])
        unseen = neighbours[~visited[neighbours]]
        if unseen.size:
            frontier = np.unique(unseen)
            visited[frontier] = True
            seen_parts.append(frontier)
        else:
            frontier = unseen
    members = np.concatenate(seen_parts)
    visited[members] = False
    if not src_parts or not any(part.size for part in src_parts):
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        weight = np.empty(0, dtype=np.float64)
    else:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        weight = np.concatenate(weight_parts)
    return (src, dst, weight), members


def bfs_over_arrays(
    level: "LevelArrays",
    query_id: int,
    requirement: int,
    upper_label_arr: "Optional[np.ndarray]" = None,
    lower_label_arr: "Optional[np.ndarray]" = None,
    visited: "Optional[np.ndarray]" = None,
    name: str = "",
    return_members: bool = False,
    assemble: bool = True,
) -> Any:
    """Collect the community of the vertex ``query_id`` from one
    :class:`~repro.index.csr_build.LevelArrays` level.

    Contract: query's connected component over vertices with offset >= requirement; each edge once.

    The array twin of :func:`bfs_over_lists`: identical answers, but whole
    frontiers are expanded per round with vectorised gathers (the BFS core
    lives in :func:`bfs_edges_over_arrays`).  ``visited`` may supply a
    reusable boolean scratch array of length ``level.offsets.shape[0]``; it
    is restored to all-``False`` before returning, so a batch of queries can
    share one allocation.  With ``return_members`` the result is a
    ``(community, member global ids)`` pair, which lets batch callers
    memoise whole connected components.

    With ``assemble=False`` the dict-building final step is skipped and the
    raw ``(src upper ids, dst lower ids, weights)`` triple of
    :func:`bfs_edges_over_arrays` is returned unchanged (label arrays may
    then be ``None``); the same arrays fed to the assembly step later
    reproduce the identical community graph.  Zero-materialisation callers
    use :func:`bfs_edges_over_arrays` directly so the assembly below stays
    statically unreachable from them.
    """
    (src, dst, weight), members = bfs_edges_over_arrays(
        level, query_id, requirement, visited=visited
    )
    if not assemble:
        result = (src, dst, weight)
    elif src.size == 0:
        result = BipartiteGraph(name=name)
    else:
        result = _graph_from_edge_arrays(
            src, dst, weight, upper_label_arr, lower_label_arr, name
        )
    if return_members:
        return result, members
    return result


class ArrayQueryPath:
    """The array-backed query engine of one index.

    Holds the interned global id space of the indexed graph (upper vertices
    first), the registered per-level :class:`~repro.index.csr_build.LevelArrays`
    keyed by an index-specific level key, and one reusable visited bitmap.
    Levels are either registered natively by the CSR construction backend
    (:meth:`set_level`) or converted lazily from the dict adjacency lists on
    first use (:meth:`ensure_level`), so only the levels a query stream
    actually touches pay the conversion.
    """

    __slots__ = (
        "num_upper",
        "num_vertices",
        "_global_ids",
        "_upper_label_arr",
        "_lower_label_arr",
        "_levels",
        "_visited",
    )

    def __init__(
        self,
        upper_labels: Iterable[Hashable],
        lower_labels: Iterable[Hashable],
        global_ids: Optional[Dict[Vertex, int]] = None,
    ) -> None:
        upper_labels = list(upper_labels)
        lower_labels = list(lower_labels)
        self.num_upper = len(upper_labels)
        self.num_vertices = self.num_upper + len(lower_labels)
        if global_ids is None:
            global_ids = {
                Vertex(Side.UPPER, label): gid
                for gid, label in enumerate(upper_labels)
            }
            global_ids.update(
                (Vertex(Side.LOWER, label), self.num_upper + lid)
                for lid, label in enumerate(lower_labels)
            )
        self._global_ids = global_ids
        self._upper_label_arr = np.empty(len(upper_labels), dtype=object)
        self._upper_label_arr[:] = upper_labels
        self._lower_label_arr = np.empty(len(lower_labels), dtype=object)
        self._lower_label_arr[:] = lower_labels
        self._levels: Dict[Hashable, object] = {}
        self._visited = np.zeros(self.num_vertices, dtype=bool)

    def has_level(self, key: Hashable) -> bool:
        return key in self._levels

    def level(self, key: Hashable) -> "LevelArrays":
        """The registered :class:`~repro.index.csr_build.LevelArrays` of ``key``."""
        return self._levels[key]

    def has_vertex(self, vertex: Vertex) -> bool:
        """True when ``vertex`` belongs to the interned id space."""
        return vertex in self._global_ids

    def global_id(self, vertex: Vertex) -> Optional[int]:
        """The interned global id of ``vertex`` (``None`` when unknown)."""
        return self._global_ids.get(vertex)

    def global_id_map(self) -> Dict[Vertex, int]:
        """The full ``{vertex: global id}`` mapping of this path's id space."""
        return self._global_ids

    def level_keys(self) -> List[Hashable]:
        """The keys of every materialised level (patch targets)."""
        return list(self._levels)

    def set_level(self, key: Hashable, arrays: "LevelArrays") -> None:
        """Register a natively built level (or swap in a patched one)."""
        self._levels[key] = arrays

    def drop_level(self, key: Hashable) -> None:
        """Forget a level (it vanished or must be rebuilt lazily)."""
        self._levels.pop(key, None)

    def ensure_level(
        self,
        key: Hashable,
        offsets: Dict[Vertex, int],
        lists: AdjacencyLists,
    ) -> None:
        """Convert and cache a level from its dict structures if missing."""
        if key not in self._levels:
            from repro.index.csr_build import level_arrays_from_dicts

            self._levels[key] = level_arrays_from_dicts(
                offsets, lists, self._global_ids, self.num_upper, self.num_vertices
            )

    def offset_of(self, key: Hashable, vertex: Vertex) -> int:
        """The vertex's offset at the keyed level (0 when unknown)."""
        gid = self._global_ids.get(vertex)
        if gid is None:
            return 0
        return int(self._levels[key].offsets[gid])

    def community(
        self,
        key: Hashable,
        query: Vertex,
        requirement: int,
        name: str = "",
        cache: Optional[Dict] = None,
    ) -> BipartiteGraph:
        """Array-path retrieval; the caller has already checked membership.

        ``cache`` memoises whole connected components: an (α,β)-community is
        the component of the query vertex, so every later query landing in an
        already-retrieved component at the same ``(key, requirement)`` gets
        an O(answer) copy instead of a fresh traversal.  Copies keep results
        independent — a caller mutating one answer cannot corrupt another.
        The cache is a plain dict scoped by its owner (one batch call, or one
        worker batch); caching across batches is the network front end's
        :class:`~repro.serving.answer_cache.AnswerCache`, not this memo.
        """
        query_id = self._global_ids[query]
        bucket = None
        if cache is not None:
            bucket = cache.setdefault((key, requirement), {})
            hit = bucket.get(query_id)
            if hit is not None:
                return hit.copy(name=name)
        community, members = bfs_over_arrays(
            self._levels[key],
            query_id,
            requirement,
            self._upper_label_arr,
            self._lower_label_arr,
            visited=self._visited,
            name=name,
            return_members=True,
        )
        if bucket is not None:
            for member in members.tolist():
                bucket[member] = community
        return community

    def community_edges(
        self,
        key: Hashable,
        query: Vertex,
        requirement: int,
        cache: Optional[Dict] = None,
    ) -> Tuple:
        """Array-path retrieval of the *raw edge arrays* of one community.

        The compact sibling of :meth:`community`: the BFS runs identically but
        the dict-building assembly step is skipped and the answer comes back
        as parallel ``(src upper ids, dst lower ids, weights)`` arrays.  The
        component memoisation stores the array triple itself — the arrays are
        immutable by convention, so repeated hits share the same objects
        (which also lets pickle's memo collapse duplicates when a shard of
        answers crosses a process boundary).  ``cache`` is a per-batch dict;
        the front end's :class:`~repro.serving.answer_cache.AnswerCache`
        caches the answers across batches.
        """
        query_id = self._global_ids[query]
        bucket = None
        if cache is not None:
            bucket = cache.setdefault(("edges", key, requirement), {})
            hit = bucket.get(query_id)
            if hit is not None:
                return hit
        edges, members = bfs_edges_over_arrays(
            self._levels[key],
            query_id,
            requirement,
            visited=self._visited,
        )
        if bucket is not None:
            for member in members.tolist():
                bucket[member] = edges
        return edges

    def label_arrays(self) -> Tuple:
        """The ``(upper, lower)`` label intern arrays of this id space.

        The pair :class:`~repro.serving.wire.DeferredCommunity` needs to
        assemble wire edges back into labelled graphs.
        """
        return self._upper_label_arr, self._lower_label_arr

    def significant_edges(
        self,
        key: Hashable,
        query: Vertex,
        requirement: int,
        alpha: int,
        beta: int,
        method: str = "peel",
        epsilon: float = 2.0,
        cache: Optional[Dict] = None,
    ) -> Tuple[Tuple, int]:
        """Array-native step 2: ``R(α,β)[q]`` straight from the wire arrays.

        Retrieves the community in wire form (sharing :meth:`community_edges`'
        per-batch component memoisation) and runs the selected SCS kernel over
        the raw arrays — no graph object is ever assembled.  Returns the kept
        ``(src upper ids, dst lower ids, weights)`` triple together with the
        search-space edge count.  A masked subset of the BFS output keeps each
        upper vertex's edges contiguous, so the triple assembles exactly like
        a fresh retrieval.
        """
        from repro.decomposition.csr_kernels import csr_significant_edges

        src, dst, weight = self.community_edges(key, query, requirement, cache=cache)
        gid = self._global_ids[query]
        query_upper = query.side is Side.UPPER
        query_id = gid if query_upper else gid - self.num_upper
        kept = csr_significant_edges(
            src,
            dst,
            weight,
            query_upper,
            query_id,
            alpha,
            beta,
            method=method,
            epsilon=epsilon,
        )
        return (src[kept], dst[kept], weight[kept]), int(src.shape[0])

    def assemble_community(self, edges: Tuple, name: str = "") -> BipartiteGraph:
        """Materialise a wire edge triple against this path's intern table."""
        src, dst, weight = edges
        if src.shape[0] == 0:
            return BipartiteGraph(name=name)
        return _graph_from_edge_arrays(
            src, dst, weight, self._upper_label_arr, self._lower_label_arr, name
        )
