"""Array-native assembly of sorted index adjacency lists and level arrays.

The edge-level indexes (``BasicIndex`` and ``DegeneracyIndex``) store, per
level, a map ``{vertex: [(neighbour, weight, neighbour_offset), ...]}`` with
every list sorted by decreasing offset.  The dict backend builds those lists
one vertex at a time (iterate the neighbour dict, filter, ``list.sort``); this
module builds a whole level at once from a frozen CSR snapshot:

1. expand each layer's CSR into parallel edge arrays ``(src, dst, weight)``;
2. filter with boolean masks (list-owner membership × entry eligibility);
3. one stable ``np.lexsort`` by ``(src, -offset)`` orders *all* lists of the
   level simultaneously;
4. a single linear pass materialises the Python tuples.

Because ``np.lexsort`` is stable and the CSR neighbour order preserves the
source graph's adjacency order, ties inside a list come out in exactly the
order the dict backend produces, so both backends build *identical*
structures.  :class:`~repro.index.maintenance.DynamicDegeneracyIndex` keeps
only the flat :class:`LevelArrays` below and rebuilds the slices an update
touches with the same filter and stable sort over its own neighbour ids, so
a maintained level equals a fresh build of the same graph.

The same sorted edge arrays also feed :class:`LevelArrays`, the flat CSR-like
representation of one index level consumed by the array-backed query path
(:mod:`repro.index.traversal`): per-vertex entry slices over parallel
``entry_vertex`` / ``entry_weight`` / ``entry_offset`` arrays in a *global*
vertex id space (upper vertex ``i`` ↦ ``i``, lower vertex ``j`` ↦
``num_upper + j``).  :func:`level_arrays_from_dicts` derives the identical
structure from the dict adjacency lists, so dict-built indexes can serve the
array query path too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bipartite import Side, Vertex
from repro.graph.csr import CSRBipartiteGraph
from repro.index.traversal import AdjacencyLists

__all__ = [
    "edge_sources",
    "build_sorted_adjacency",
    "assemble_sorted_adjacency",
    "LevelArrays",
    "level_side_entries",
    "build_level_arrays",
    "level_arrays_from_dicts",
    "retained_lists",
    "level_sizes",
    "gather_slices",
    "patch_level_arrays",
    "merge_level_patches",
    "remap_level_arrays",
    "assemble_sorted_vertex_table",
]

#: Per-side filtered edge arrays sorted by (owner id, decreasing offset):
#: ``{side: (owner_ids, neighbour_ids, weights, neighbour_offsets)}``.
SideEntries = Dict[Side, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class LevelArrays:
    """One index level flattened into parallel arrays with per-vertex slices.

    Vertices are numbered in the global id space (upper layer first).  The
    entries of vertex ``g`` occupy ``indptr[g]:indptr[g + 1]`` in the three
    parallel entry arrays, sorted by decreasing ``entry_offset`` — the array
    analogue of one level of the sorted dict adjacency lists.  ``offsets``
    holds the per-vertex offset at this level, indexed by global id, for O(1)
    core-membership checks.
    """

    num_upper: int
    indptr: np.ndarray
    entry_vertex: np.ndarray
    entry_weight: np.ndarray
    entry_offset: np.ndarray
    offsets: np.ndarray

    @property
    def num_entries(self) -> int:
        return int(self.entry_vertex.shape[0])


def edge_sources(csr: CSRBipartiteGraph, side: Side) -> np.ndarray:
    """Row ids of each CSR entry of ``side`` (the COO expansion of indptr)."""
    indptr, _, _ = csr.layer(side)
    n = csr.num_upper if side is Side.UPPER else csr.num_lower
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def level_side_entries(
    csr: CSRBipartiteGraph,
    member_upper: np.ndarray,
    member_lower: np.ndarray,
    entry_offsets_upper: np.ndarray,
    entry_offsets_lower: np.ndarray,
    threshold: int,
    strict: bool = False,
    src_upper: Optional[np.ndarray] = None,
    src_lower: Optional[np.ndarray] = None,
) -> SideEntries:
    """Filter and sort one level's eligible edges, per adjacency direction.

    ``member_*`` are boolean masks selecting which vertices own a list;
    ``entry_offsets_*`` give the offset attached to a vertex when it appears
    as a *neighbour* inside someone else's list.  An entry is kept when its
    offset is ``> threshold`` (``strict``) or ``>= threshold``.  Each side's
    arrays come out sorted by ``(owner id, decreasing offset)`` with the
    source adjacency order as the (stable) tie-break — the shared input of
    both the dict-list assembly and the flat level arrays.  ``src_upper`` /
    ``src_lower`` allow reusing :func:`edge_sources` expansions across levels.
    """
    entries: SideEntries = {}
    for side in (Side.UPPER, Side.LOWER):
        _, indices, weights = csr.layer(side)
        if side is Side.UPPER:
            src = src_upper if src_upper is not None else edge_sources(csr, side)
            owner_member = member_upper
            nbr_offsets = entry_offsets_lower
        else:
            src = src_lower if src_lower is not None else edge_sources(csr, side)
            owner_member = member_lower
            nbr_offsets = entry_offsets_upper
        edge_offsets = nbr_offsets[indices]
        if strict:
            keep = owner_member[src] & (edge_offsets > threshold)
        else:
            keep = owner_member[src] & (edge_offsets >= threshold)
        s = src[keep]
        d = indices[keep]
        w = weights[keep]
        o = edge_offsets[keep]
        order = np.lexsort((-o, s))
        entries[side] = (s[order], d[order], w[order], o[order])
    return entries


def build_sorted_adjacency(
    csr: CSRBipartiteGraph,
    member_upper: np.ndarray,
    member_lower: np.ndarray,
    entry_offsets_upper: np.ndarray,
    entry_offsets_lower: np.ndarray,
    threshold: int,
    strict: bool = False,
    include_empty: bool = True,
    src_upper: Optional[np.ndarray] = None,
    src_lower: Optional[np.ndarray] = None,
) -> AdjacencyLists:
    """Build one level of sorted adjacency lists from offset arrays.

    Convenience wrapper: :func:`level_side_entries` followed by
    :func:`assemble_sorted_adjacency`.  Callers that also need the flat
    :class:`LevelArrays` of the level call the two stages themselves and
    share the filtered/sorted arrays with :func:`build_level_arrays`, paying
    for the masking and sorting only once per level.
    """
    side_entries = level_side_entries(
        csr,
        member_upper,
        member_lower,
        entry_offsets_upper,
        entry_offsets_lower,
        threshold,
        strict=strict,
        src_upper=src_upper,
        src_lower=src_lower,
    )
    return assemble_sorted_adjacency(
        csr, member_upper, member_lower, include_empty, side_entries
    )


def assemble_sorted_adjacency(
    csr: CSRBipartiteGraph,
    member_upper: np.ndarray,
    member_lower: np.ndarray,
    include_empty: bool,
    side_entries: SideEntries,
) -> AdjacencyLists:
    """Materialise the dict adjacency lists of one level from sorted entries.

    With ``include_empty`` every member vertex gets a (possibly empty) list,
    which is what the α-half of the indexes stores; the β-half only keeps
    non-empty lists.
    """
    lists: AdjacencyLists = {}
    upper_handles = csr.upper_handles()
    lower_handles = csr.lower_handles()
    for side in (Side.UPPER, Side.LOWER):
        s, d, w, o = side_entries[side]
        if side is Side.UPPER:
            src_handles = upper_handles
            dst_handle_arr = csr.lower_handle_array()
        else:
            src_handles = lower_handles
            dst_handle_arr = csr.upper_handle_array()
        if s.size == 0:
            continue
        d_handles = dst_handle_arr[d].tolist()
        w_list = w.tolist()
        o_list = o.tolist()
        # One zip() builds every entry tuple of the level at C speed; each
        # vertex's list is then a contiguous slice of equal-src entries.
        entries = list(zip(d_handles, w_list, o_list))
        boundaries = np.flatnonzero(s[1:] != s[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        owners = s[starts].tolist()
        starts = starts.tolist()
        ends = boundaries.tolist()
        ends.append(s.size)
        for owner, lo, hi in zip(owners, starts, ends):
            lists[src_handles[owner]] = entries[lo:hi]
    if include_empty:
        for i in np.flatnonzero(member_upper).tolist():
            lists.setdefault(upper_handles[i], [])
        for i in np.flatnonzero(member_lower).tolist():
            lists.setdefault(lower_handles[i], [])
    return lists


def build_level_arrays(
    csr: CSRBipartiteGraph,
    entry_offsets_upper: np.ndarray,
    entry_offsets_lower: np.ndarray,
    side_entries: SideEntries,
) -> LevelArrays:
    """Assemble the flat :class:`LevelArrays` of one level, array-natively.

    ``side_entries`` must come from :func:`level_side_entries` for the same
    level.  Because each side's arrays are already sorted by owner id and all
    upper global ids precede all lower global ids, concatenating the two
    sides yields the globally ordered entry arrays directly; only a bincount
    and a cumulative sum are needed for the slice boundaries.

    Contract: the flat LevelArrays of one level, per-vertex entry slices grouped by global id in the index's sorted entry order.
    """
    num_upper = csr.num_upper
    num_vertices = num_upper + csr.num_lower
    s_u, d_u, w_u, o_u = side_entries[Side.UPPER]
    s_l, d_l, w_l, o_l = side_entries[Side.LOWER]
    owners = np.concatenate((s_u, s_l + num_upper))
    entry_vertex = np.concatenate((d_u + num_upper, d_l))
    entry_weight = np.concatenate((w_u, w_l)).astype(np.float64, copy=False)
    entry_offset = np.concatenate((o_u, o_l)).astype(np.int64, copy=False)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    if owners.size:
        np.cumsum(np.bincount(owners, minlength=num_vertices), out=indptr[1:])
    offsets = np.concatenate(
        (entry_offsets_upper, entry_offsets_lower)
    ).astype(np.int64, copy=False)
    return LevelArrays(
        num_upper=num_upper,
        indptr=indptr,
        entry_vertex=entry_vertex.astype(np.int64, copy=False),
        entry_weight=entry_weight,
        entry_offset=entry_offset,
        offsets=offsets,
    )


def retained_lists(arrays: LevelArrays, tau: int, alpha_half: bool) -> np.ndarray:
    """Per global id, whether the index stores an adjacency list at this level.

    Every vertex with entries has one; the α-half also stores an empty list
    for each (τ,τ)-core member without entries — what ``_build_level``
    produces, so counting the mask gives the index's ``adjacency_lists``.
    """
    kept = np.diff(arrays.indptr) > 0
    if alpha_half:
        kept |= arrays.offsets >= tau
    return kept


def level_sizes(levels: Mapping[Tuple[str, int], LevelArrays]) -> Tuple[int, int]:
    """``(entries, adjacency lists)`` of an index stored as level arrays."""
    entries = sum(level.num_entries for level in levels.values())
    lists = sum(
        int(np.count_nonzero(retained_lists(level, tau, half == "alpha")))
        for (half, tau), level in levels.items()
    )
    return entries, lists


def _slice_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated positions ``starts[i] : starts[i] + counts[i]``, in order."""
    total = int(counts.sum())
    heads = np.cumsum(counts) - counts
    return np.repeat(starts - heads, counts) + np.arange(total, dtype=np.int64)


def gather_slices(
    arrays: LevelArrays, gids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, entry_vertex, entry_weight, entry_offset)`` of ``gids``' slices.

    The slices come out concatenated in ``gids`` order — the patch form
    :func:`patch_level_arrays` consumes.
    """
    counts = arrays.indptr[gids + 1] - arrays.indptr[gids]
    positions = _slice_positions(arrays.indptr[gids], counts)
    return (
        counts,
        arrays.entry_vertex[positions],
        np.asarray(arrays.entry_weight[positions], dtype=np.float64),
        np.asarray(arrays.entry_offset[positions], dtype=np.int64),
    )


def patch_level_arrays(
    arrays: LevelArrays,
    gids: np.ndarray,
    counts: np.ndarray,
    entry_vertex: np.ndarray,
    entry_weight: np.ndarray,
    entry_offset: np.ndarray,
    offset_gids: np.ndarray,
    offset_values: np.ndarray,
    allow_in_place: bool = True,
) -> LevelArrays:
    """Splice patched per-vertex entry slices into a :class:`LevelArrays`.

    ``gids`` (ascending, unique) name the patched vertices, ``counts`` their
    new slice lengths and the entry arrays their concatenated slices (the
    form :func:`gather_slices` returns); ``offset_gids``/``offset_values`` assign
    the patched per-vertex offsets (zeros included, so vanished vertices are
    wiped).  When every patched vertex keeps its entry count and the
    underlying buffers are writable, the patch is scattered in place (the
    common case for reweights and small updates); otherwise the arrays are
    rebuilt with two masks over the new entry positions — *fresh* slots owned
    by a patched vertex take the patch entries, the rest take the old
    entries of every unpatched vertex in order — never touching entries
    outside the patched region.  Snapshot replay passes
    ``allow_in_place=False`` because its base segments are read-only memory
    maps.

    Contract: splice recomputed per-vertex entries and offsets of one level; vertices outside the patched set are untouched.
    """
    gids = np.asarray(gids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    offset_gids = np.asarray(offset_gids, dtype=np.int64)
    offset_values = np.asarray(offset_values, dtype=np.int64)
    indptr = arrays.indptr
    writable = all(
        getattr(buf, "flags", None) is not None and buf.flags.writeable
        for buf in (
            arrays.indptr,
            arrays.entry_vertex,
            arrays.entry_weight,
            arrays.entry_offset,
            arrays.offsets,
        )
    )
    old_counts = indptr[gids + 1] - indptr[gids] if gids.size else counts
    if allow_in_place and writable and np.array_equal(old_counts, counts):
        if gids.size:
            positions = _slice_positions(indptr[gids], counts)
            arrays.entry_vertex[positions] = entry_vertex
            arrays.entry_weight[positions] = entry_weight
            arrays.entry_offset[positions] = entry_offset
        if offset_gids.size:
            arrays.offsets[offset_gids] = offset_values
        return arrays

    per_vertex = np.diff(indptr)
    patched = np.zeros(per_vertex.shape[0], dtype=bool)
    patched[gids] = True
    keep = np.repeat(~patched, per_vertex)
    per_vertex[gids] = counts
    new_indptr = np.zeros(indptr.shape[0], dtype=np.int64)
    np.cumsum(per_vertex, out=new_indptr[1:])
    fresh = np.repeat(patched, per_vertex)
    total = int(new_indptr[-1])
    new_vertex = np.empty(total, dtype=np.int64)
    new_weight = np.empty(total, dtype=np.float64)
    new_offset = np.empty(total, dtype=np.int64)
    stale = ~fresh
    new_vertex[stale] = arrays.entry_vertex[keep]
    new_weight[stale] = arrays.entry_weight[keep]
    new_offset[stale] = arrays.entry_offset[keep]
    new_vertex[fresh] = entry_vertex
    new_weight[fresh] = entry_weight
    new_offset[fresh] = entry_offset

    offsets = np.array(arrays.offsets, dtype=np.int64, copy=True)
    if offset_gids.size:
        offsets[offset_gids] = offset_values
    return LevelArrays(
        num_upper=arrays.num_upper,
        indptr=new_indptr,
        entry_vertex=new_vertex,
        entry_weight=new_weight,
        entry_offset=new_offset,
        offsets=offsets,
    )


#: One recorded level patch: ``(gids, counts, entry_vertex, entry_weight,
#: entry_offset, offset_values)`` with the offsets assigned to ``gids``.
LevelPatch = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def merge_level_patches(patches: Sequence[LevelPatch]) -> LevelPatch:
    """Collapse a sequence of one level's patches into one equivalent patch.

    Each patch replaces whole per-vertex slices and offsets, so applying the
    sequence one by one leaves every gid with the slice and offset of the
    *last* patch that wrote it: the merge keeps exactly those records
    (ascending gid, like every patch) and one :func:`patch_level_arrays` call
    then reproduces the sequential replay bit for bit.
    """
    if len(patches) == 1:
        return patches[0]
    gids = np.concatenate([np.asarray(p[0], dtype=np.int64) for p in patches])
    counts = np.concatenate([np.asarray(p[1], dtype=np.int64) for p in patches])
    ev, ew, eo, values = (
        np.concatenate([p[i] for p in patches]) for i in range(2, 6)
    )
    # np.unique on the reversed gids finds each gid's last writer.
    last = gids.shape[0] - 1
    unique, first_in_reversed = np.unique(gids[::-1], return_index=True)
    chosen = last - first_in_reversed
    starts = (np.cumsum(counts) - counts)[chosen]
    positions = _slice_positions(starts, counts[chosen])
    return (
        unique,
        counts[chosen],
        ev[positions],
        ew[positions],
        eo[positions],
        values[chosen],
    )


def remap_level_arrays(
    arrays: LevelArrays, old_ids: np.ndarray, new_ids: np.ndarray, num_upper: int
) -> LevelArrays:
    """One level moved onto a compacted id space with vectorised gathers.

    New vertex ``g`` is old vertex ``old_ids[g]``; ``new_ids`` maps every old
    id to its new one (``-1`` for dead ids, which own no entries and which
    no entry names).  Entry slices keep their order, so the result equals
    the level a fresh export of the same index would write.
    """
    counts, entry_vertex, entry_weight, entry_offset = gather_slices(arrays, old_ids)
    indptr = np.zeros(old_ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return LevelArrays(
        num_upper=num_upper,
        indptr=indptr,
        entry_vertex=new_ids[entry_vertex],
        entry_weight=entry_weight,
        entry_offset=entry_offset,
        offsets=np.asarray(arrays.offsets[old_ids], dtype=np.int64),
    )


def assemble_sorted_vertex_table(
    csr: CSRBipartiteGraph, upper_offsets: np.ndarray, lower_offsets: np.ndarray
) -> "List[Tuple[Vertex, int]]":
    """One bicore-index membership table, assembled array-natively.

    The table lists every vertex with a non-zero offset, sorted by decreasing
    offset; a stable argsort over the concatenated (upper first) offset arrays
    reproduces exactly the order the dict backend's ``sorted`` produces, so
    both backends build identical tables.
    """
    offsets = np.concatenate((upper_offsets, lower_offsets))
    nonzero = np.flatnonzero(offsets >= 1)
    order = np.argsort(-offsets[nonzero], kind="stable")
    chosen = nonzero[order]
    handles = csr.global_handles()
    return [
        (handles[gid], offset)
        for gid, offset in zip(chosen.tolist(), offsets[chosen].tolist())
    ]


def level_arrays_from_dicts(
    offsets: Mapping[Vertex, int],
    lists: AdjacencyLists,
    global_ids: Mapping[Vertex, int],
    num_upper: int,
    num_vertices: int,
) -> LevelArrays:
    """Derive the flat :class:`LevelArrays` of one level from dict structures.

    This is the bridge that lets dict-built indexes serve the array query
    path: one O(entries) conversion per level, amortised across a batch of
    queries.  Vertices absent from ``global_ids`` (stale zero-offset entries
    left behind by graph shrinkage) are skipped.

    Contract: the flat LevelArrays of one level, per-vertex entry slices grouped by global id in the index's sorted entry order.
    """
    counts = np.zeros(num_vertices, dtype=np.int64)
    for vertex, entries in lists.items():
        gid = global_ids.get(vertex)
        if gid is not None:
            counts[gid] = len(entries)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    entry_vertex = np.zeros(total, dtype=np.int64)
    entry_weight = np.zeros(total, dtype=np.float64)
    entry_offset = np.zeros(total, dtype=np.int64)
    for vertex, entries in lists.items():
        if not entries:
            continue
        gid = global_ids.get(vertex)
        if gid is None:
            continue
        lo = int(indptr[gid])
        hi = lo + len(entries)
        neighbours, weights, offs = zip(*entries)
        entry_vertex[lo:hi] = [global_ids[nbr] for nbr in neighbours]
        entry_weight[lo:hi] = weights
        entry_offset[lo:hi] = offs
    offset_arr = np.zeros(num_vertices, dtype=np.int64)
    for vertex, offset in offsets.items():
        if offset:
            gid = global_ids.get(vertex)
            if gid is not None:
                offset_arr[gid] = offset
    return LevelArrays(
        num_upper=num_upper,
        indptr=indptr,
        entry_vertex=entry_vertex,
        entry_weight=entry_weight,
        entry_offset=entry_offset,
        offsets=offset_arr,
    )
