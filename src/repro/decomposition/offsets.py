"""α-offsets and β-offsets (Definition 6).

For a fixed α, the α-offset ``sa(v, α)`` of a vertex ``v`` is the largest β
such that ``v`` belongs to the (α,β)-core (0 when ``v`` is not even in the
(α,1)-core).  The β-offset ``sb(v, β)`` is defined symmetrically.

These values are the backbone of every index in the paper: a vertex ``v`` is
in the (α,β)-core exactly when ``sa(v, α) ≥ β`` (equivalently ``sb(v, β) ≥ α``).

The computation for a fixed α is a single peeling pass:

1. reduce the graph to its (α,1)-core (vertices dropped here get offset 0);
2. peel lower vertices in increasing order of their current degree while
   cascading the removal of upper vertices that fall below α; a vertex removed
   while the peeling threshold is β+1 has offset β.

A lazy min-heap over lower-vertex degrees keeps the pass near-linear
(O(m log m)) without the bookkeeping of a full bucket queue.  That is the
dict backend; with ``backend="csr"`` the same pass runs as a vectorised
frontier cascade over a frozen :class:`~repro.graph.csr.CSRBipartiteGraph`
(see :mod:`repro.decomposition.csr_kernels`), which is the hot path of index
construction on large graphs.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

if TYPE_CHECKING:
    import numpy as np

from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.csr import CSRBipartiteGraph, resolve_backend
from repro.utils.validation import check_positive_int

__all__ = [
    "alpha_offsets",
    "beta_offsets",
    "max_alpha",
    "max_beta",
    "offset_tables",
    "offsets_dict_from_arrays",
]


def max_alpha(graph: BipartiteGraph) -> int:
    """α_max: the largest α for which an (α,1)-core exists.

    It equals the maximum degree of the upper layer.
    """
    return graph.max_degree(Side.UPPER)


def max_beta(graph: BipartiteGraph) -> int:
    """β_max: the largest β for which a (1,β)-core exists."""
    return graph.max_degree(Side.LOWER)


def _snapshot(
    graph: BipartiteGraph,
) -> Tuple[Dict[Vertex, int], Dict[Vertex, Tuple[Vertex, ...]]]:
    degrees: Dict[Vertex, int] = {}
    neighbors: Dict[Vertex, Tuple[Vertex, ...]] = {}
    for vertex in graph.vertices():
        nbr_labels = graph.neighbors(vertex.side, vertex.label)
        other = vertex.side.other
        degrees[vertex] = len(nbr_labels)
        neighbors[vertex] = tuple(Vertex(other, label) for label in nbr_labels)
    return degrees, neighbors


def _offsets_for_fixed_primary(
    degrees: Dict[Vertex, int],
    neighbors: Dict[Vertex, Tuple[Vertex, ...]],
    primary_side: Side,
    primary_threshold: int,
) -> Dict[Vertex, int]:
    """Core of the offset computation.

    ``primary_side`` is the layer whose threshold is fixed (the upper layer for
    α-offsets); the other ("secondary") layer is peeled by increasing degree.
    Returns, for every vertex, the largest secondary threshold under which it
    survives together with the fixed primary threshold.

    Contract: per-vertex largest secondary threshold survived together with the fixed primary threshold; removed vertices keep offset 0.
    """
    secondary_side = primary_side.other
    offsets: Dict[Vertex, int] = {vertex: 0 for vertex in degrees}
    alive = set(degrees)

    def cascade(seed: Iterable[Vertex], secondary_threshold: int, offset_value: int) -> List[Vertex]:
        """Remove ``seed`` and everything forced out by the thresholds."""
        removed: List[Vertex] = []
        queue: deque[Vertex] = deque(seed)
        while queue:
            vertex = queue.popleft()
            if vertex not in alive:
                continue
            alive.discard(vertex)
            offsets[vertex] = offset_value
            removed.append(vertex)
            for nbr in neighbors[vertex]:
                if nbr not in alive:
                    continue
                degrees[nbr] -= 1
                if nbr.side is primary_side:
                    if degrees[nbr] < primary_threshold:
                        queue.append(nbr)
                else:
                    if degrees[nbr] < secondary_threshold:
                        queue.append(nbr)
        return removed

    # Phase 1: reduce to the (primary_threshold, 1)-core; dropped vertices keep
    # their offset of 0.
    initial = [
        v
        for v in alive
        if (v.side is primary_side and degrees[v] < primary_threshold)
        or (v.side is secondary_side and degrees[v] < 1)
    ]
    cascade(initial, 1, 0)

    # Phase 2: peel the secondary layer level by level.  A lazy heap tracks the
    # minimum current degree among alive secondary vertices.
    tiebreak = count()
    heap: List[Tuple[int, int, Vertex]] = [
        (degrees[v], next(tiebreak), v)
        for v in alive
        if v.side is secondary_side
    ]
    heapq.heapify(heap)

    def push_secondary(vertex: Vertex) -> None:
        heapq.heappush(heap, (degrees[vertex], next(tiebreak), vertex))

    level = 1
    while True:
        # Discard stale heap entries (dead vertices or outdated degrees).
        while heap and (heap[0][2] not in alive or heap[0][0] != degrees[heap[0][2]]):
            heapq.heappop(heap)
        if not heap:
            break
        min_degree = heap[0][0]
        # The whole remaining graph satisfies (primary_threshold, min_degree),
        # so every alive vertex survives at least to that level.
        level = max(level, min_degree)
        target = level + 1

        seeds: List[Vertex] = []
        while heap and heap[0][0] < target:
            degree, _, vertex = heapq.heappop(heap)
            if vertex in alive and degree == degrees[vertex]:
                seeds.append(vertex)
        removed = cascade(seeds, target, level)
        # Surviving secondary vertices whose degree changed need fresh heap entries.
        touched = {
            nbr
            for vertex in removed
            for nbr in neighbors[vertex]
            if nbr in alive and nbr.side is secondary_side
        }
        for vertex in touched:
            push_secondary(vertex)
        level = target
    return offsets


def offsets_dict_from_arrays(
    csr: CSRBipartiteGraph, upper_offsets: "np.ndarray", lower_offsets: "np.ndarray"
) -> Dict[Vertex, int]:
    """Translate per-layer offset arrays into the dict-backend ``{Vertex: int}``.

    Starts from the graph's cached all-zero prototype (copied without
    re-hashing) and writes only the non-zero offsets; cores shrink quickly
    with the level, so this touches a small fraction of the vertices.
    """
    offsets = csr.zero_offsets()
    nz = upper_offsets.nonzero()[0]
    if nz.size:
        offsets.update(
            zip(csr.upper_handle_array()[nz].tolist(), upper_offsets[nz].tolist())
        )
    nz = lower_offsets.nonzero()[0]
    if nz.size:
        offsets.update(
            zip(csr.lower_handle_array()[nz].tolist(), lower_offsets[nz].tolist())
        )
    return offsets


def _offsets_csr(
    graph: BipartiteGraph, primary_side: Side, threshold: int
) -> Dict[Vertex, int]:
    from repro.decomposition.csr_kernels import csr_offsets_fixed_primary
    from repro.graph.csr import freeze

    csr = freeze(graph)
    off_u, off_l = csr_offsets_fixed_primary(csr, primary_side, threshold)
    return offsets_dict_from_arrays(csr, off_u, off_l)


def alpha_offsets(graph: BipartiteGraph, alpha: int, backend: str = "auto") -> Dict[Vertex, int]:
    """Return ``sa(v, alpha)`` for every vertex of ``graph``."""
    check_positive_int(alpha, "alpha")
    if resolve_backend(backend, graph) == "csr":
        return _offsets_csr(graph, Side.UPPER, alpha)
    degrees, neighbors = _snapshot(graph)
    return _offsets_for_fixed_primary(degrees, neighbors, Side.UPPER, alpha)


def beta_offsets(graph: BipartiteGraph, beta: int, backend: str = "auto") -> Dict[Vertex, int]:
    """Return ``sb(v, beta)`` for every vertex of ``graph``."""
    check_positive_int(beta, "beta")
    if resolve_backend(backend, graph) == "csr":
        return _offsets_csr(graph, Side.LOWER, beta)
    degrees, neighbors = _snapshot(graph)
    return _offsets_for_fixed_primary(degrees, neighbors, Side.LOWER, beta)


def offset_tables(
    graph: BipartiteGraph,
    max_primary: int,
    side: Side = Side.UPPER,
    backend: str = "auto",
) -> Dict[int, Dict[Vertex, int]]:
    """Offsets for every fixed threshold 1..``max_primary`` on ``side``.

    ``side=Side.UPPER`` yields ``{alpha: {vertex: sa(vertex, alpha)}}``; the
    symmetric call with ``side=Side.LOWER`` yields β-offset tables.  This is
    the workhorse of the basic-index and bicore-index construction and runs in
    O(max_primary · m log m) on the dict backend.  The CSR backend freezes the
    graph once and reuses the snapshot across all levels.
    """
    tables: Dict[int, Dict[Vertex, int]] = {}
    if resolve_backend(backend, graph) == "csr":
        from repro.decomposition.csr_kernels import csr_offsets_fixed_primary
        from repro.graph.csr import freeze

        csr = freeze(graph)
        for threshold in range(1, max_primary + 1):
            off_u, off_l = csr_offsets_fixed_primary(csr, side, threshold)
            tables[threshold] = offsets_dict_from_arrays(csr, off_u, off_l)
        return tables
    for threshold in range(1, max_primary + 1):
        degrees, neighbors = _snapshot(graph)
        tables[threshold] = _offsets_for_fixed_primary(degrees, neighbors, side, threshold)
    return tables
