"""Naive reference implementations used to validate the optimised library code.

Everything here is written directly from the definitions in Section II of the
paper with no attention to efficiency, so that agreement between these
functions and the library constitutes a meaningful correctness check.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.views import connected_component, weight_threshold_subgraph


def naive_abcore(graph: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """(α,β)-core by repeated full-scan vertex removal (Definition 1)."""
    core = graph.copy()
    changed = True
    while changed:
        changed = False
        for side, threshold in ((Side.UPPER, alpha), (Side.LOWER, beta)):
            for label in list(core.labels(side)):
                if core.degree(side, label) < threshold:
                    core.remove_vertex(side, label)
                    changed = True
    core.discard_isolated()
    return core


def naive_community(
    graph: BipartiteGraph, query: Vertex, alpha: int, beta: int
) -> Optional[BipartiteGraph]:
    """The (α,β)-community of ``query`` or None if it is not in the core."""
    core = naive_abcore(graph, alpha, beta)
    if not core.has_vertex(query.side, query.label):
        return None
    return connected_component(core, query)


def naive_significant_community(
    graph: BipartiteGraph, query: Vertex, alpha: int, beta: int
) -> Optional[BipartiteGraph]:
    """The significant (α,β)-community straight from Definition 5.

    For every distinct weight threshold (descending) keep only the edges at or
    above it, compute the (α,β)-core, and check whether the query vertex
    survives; the first (largest) threshold that works gives the answer as the
    query's connected component.
    """
    community = naive_community(graph, query, alpha, beta)
    if community is None:
        return None
    thresholds = sorted({w for _, _, w in graph.edges()}, reverse=True)
    for threshold in thresholds:
        restricted = weight_threshold_subgraph(graph, threshold)
        if not restricted.has_vertex(query.side, query.label):
            continue
        core = naive_abcore(restricted, alpha, beta)
        if core.has_vertex(query.side, query.label):
            return connected_component(core, query)
    return None


def graph_edge_weights(graph: BipartiteGraph) -> Set[Tuple[object, object, float]]:
    """Canonical edge representation for equality assertions."""
    return {(u, v, w) for u, v, w in graph.edges()}


def assert_same_graph(actual: BipartiteGraph, expected: BipartiteGraph) -> None:
    """Assert two graphs have identical edge sets (with weights)."""
    assert graph_edge_weights(actual) == graph_edge_weights(expected)


def qualifying_counts_reference(
    level, frontier: Sequence[int], requirement: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of each frontier vertex's qualifying prefix.

    One ``searchsorted`` per slice, written straight from the layout of
    :class:`~repro.index.csr_build.LevelArrays`: the entries of vertex ``g``
    occupy ``indptr[g]:indptr[g + 1]`` sorted by decreasing offset, and the
    qualifying ones are those whose offset is at least ``requirement``.
    """
    starts = []
    counts = []
    for g in frontier:
        lo = int(level.indptr[g])
        hi = int(level.indptr[g + 1])
        ascending = np.asarray(level.entry_offset[lo:hi])[::-1]
        starts.append(lo)
        failing = int(np.searchsorted(ascending, requirement, side="left"))
        counts.append((hi - lo) - failing)
    return np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64)


def plan_level_region_reference(
    graph: BipartiteGraph,
    old_offsets: Dict[Vertex, int],
    primary_side: Side,
    threshold: int,
    seeds: Sequence[Vertex],
    removal: bool,
    budget: Optional[int] = None,
) -> Optional[List[Vertex]]:
    """The S⁺/S⁻ candidate closure, one :class:`Vertex` at a time.

    The dict-keyed planner the maintenance engine ran before it moved to
    global ids, kept as the oracle of
    :func:`repro.index.maintenance.plan_level_region`: a sequential
    breadth-first expansion with the same trigger and feasibility gates
    (see that function's docstring), returning ``None`` as soon as the
    closure exceeds ``budget``.
    """
    endpoint_set = set(seeds)
    candidates: Set[Vertex] = set(endpoint_set)
    ordered: List[Vertex] = list(candidates)
    queue: deque = deque(ordered)
    rejected: Set[Vertex] = set()
    slack: Dict[Vertex, int] = {}
    pressure: Dict[Vertex, int] = {}
    while queue:
        candidate = queue.popleft()
        offset_c = old_offsets.get(candidate, 0)
        is_endpoint = candidate in endpoint_set
        other = candidate.side.other
        for nbr_label in graph.neighbors(candidate.side, candidate.label):
            vertex = Vertex(other, nbr_label)
            if vertex in candidates or vertex in rejected:
                continue
            offset_x = old_offsets.get(vertex, 0)
            mirror = vertex.side.other
            if removal:
                if offset_x < 1:
                    continue  # already at the floor
                crossed = offset_c >= offset_x if is_endpoint else offset_c == offset_x
                if not crossed:
                    continue
                if vertex not in slack:
                    need = threshold if vertex.side is primary_side else offset_x
                    support = sum(
                        1
                        for m_label in graph.neighbors(vertex.side, vertex.label)
                        if old_offsets.get(Vertex(mirror, m_label), 0) >= offset_x
                    )
                    slack[vertex] = support - need
                    pressure[vertex] = 0
                pressure[vertex] += 1
                if pressure[vertex] <= slack[vertex]:
                    continue
            else:
                helps = offset_c <= offset_x if is_endpoint else offset_c == offset_x
                if not helps:
                    continue
                need = threshold if vertex.side is primary_side else offset_x + 1
                support = 0
                for m_label in graph.neighbors(vertex.side, vertex.label):
                    m = Vertex(mirror, m_label)
                    if m in endpoint_set or old_offsets.get(m, 0) >= offset_x:
                        support += 1
                if support < need:
                    rejected.add(vertex)
                    continue
            candidates.add(vertex)
            ordered.append(vertex)
            queue.append(vertex)
            if budget is not None and len(candidates) > budget:
                return None
    return ordered
