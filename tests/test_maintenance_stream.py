"""Property tests: maintained indexes answer like fresh rebuilds, always.

Random mixed insert/remove/reweight streams — including brand-new vertices
and removals that discard endpoints — are applied to a
:class:`DynamicDegeneracyIndex` on both construction backends, and after
*every* update ``batch_community`` / ``batch_significant_communities`` must
be element-wise identical to a from-scratch :class:`DegeneracyIndex` of the
same graph.  Because the batch APIs route through the patched
:class:`LevelArrays`, this exercises the whole maintenance engine: the
S⁺/S⁻ candidate closures, the frozen-boundary region peels, the in-place
array patching, and the incremental degeneracy adjustment.
"""

from __future__ import annotations

import random

import pytest

from repro.api import CommunitySearcher
from repro.graph.bipartite import BipartiteGraph
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DynamicDegeneracyIndex

BACKENDS = ["dict", "csr"]


def _mixed_stream(rng: random.Random, working: BipartiteGraph, labels: int):
    """One random update applied to ``working``; returns the op description."""
    roll = rng.random()
    if roll < 0.40 or working.num_edges < 4:
        u, v = f"u{rng.randrange(labels)}", f"v{rng.randrange(labels)}"
        weight = float(rng.randint(1, 9))
        working.add_edge(u, v, weight)
        return ("insert", u, v, weight)
    if roll < 0.55:  # reweight an existing edge
        u, v, _ = rng.choice(sorted(working.edges(), key=repr))
        weight = float(rng.randint(1, 9))
        working.add_edge(u, v, weight)
        return ("insert", u, v, weight)
    u, v, _ = rng.choice(sorted(working.edges(), key=repr))
    working.remove_edge(u, v)
    working.discard_isolated()
    return ("remove", u, v, 0.0)


def _probe_queries(graph: BipartiteGraph, delta: int):
    delta = max(delta, 1)
    pairs = [(1, 1), (2, 2), (delta, delta), (1, delta), (delta, 1), (2, 3), (3, 2)]
    return [(vertex, a, b) for a, b in pairs for vertex in graph.vertices()]


def _assert_batches_match(dynamic, fresh, graph) -> None:
    queries = _probe_queries(graph, fresh.delta)
    maintained = dynamic.batch_community(queries, on_empty="none")
    rebuilt = fresh.batch_community(queries, on_empty="none")
    assert len(maintained) == len(rebuilt)
    for (query, alpha, beta), got, want in zip(queries, maintained, rebuilt):
        assert (got is None) == (want is None), (query, alpha, beta)
        if got is not None:
            assert got.same_structure(want), (query, alpha, beta)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_community_matches_rebuild_after_every_update(backend, seed):
    rng = random.Random(seed)
    labels = 8
    graph = BipartiteGraph.from_edges(
        [
            (f"u{rng.randrange(labels - 1)}", f"v{rng.randrange(labels - 1)}", float(rng.randint(1, 9)))
            for _ in range(26)
        ]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend=backend)
    working = graph.copy()
    for _ in range(24):
        kind, u, v, weight = _mixed_stream(rng, working, labels)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
        fresh = DegeneracyIndex(working, backend="dict")
        assert dynamic.delta == fresh.delta
        _assert_batches_match(dynamic, fresh, working)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_region_budget_still_agrees(backend):
    # A budget of 4 forces the full re-peel fallback on nearly every level.
    rng = random.Random(3)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(6)}", f"v{rng.randrange(6)}", float(rng.randint(1, 9))) for _ in range(20)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend=backend, region_budget=4)
    working = graph.copy()
    for _ in range(18):
        kind, u, v, weight = _mixed_stream(rng, working, 7)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
        fresh = DegeneracyIndex(working, backend="dict")
        assert dynamic.delta == fresh.delta
        _assert_batches_match(dynamic, fresh, working)


@pytest.mark.parametrize("seed", [4, 5])
def test_batch_significant_communities_match_rebuild(seed):
    rng = random.Random(seed)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(7)}", f"v{rng.randrange(7)}", float(rng.randint(1, 9))) for _ in range(28)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend="dict")
    working = graph.copy()
    for _ in range(10):
        kind, u, v, weight = _mixed_stream(rng, working, 8)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
        fresh = DegeneracyIndex(working, backend="dict")
        maintained = CommunitySearcher(index=dynamic)
        rebuilt = CommunitySearcher(index=fresh)
        delta = max(fresh.delta, 1)
        queries = [
            (vertex, a, b)
            for a, b in [(1, 1), (2, 2), (delta, delta)]
            for vertex in working.vertices()
        ]
        got = maintained.batch_significant_communities(queries, on_empty="none")
        want = rebuilt.batch_significant_communities(queries, on_empty="none")
        assert len(got) == len(want)
        for (query, alpha, beta), result, expected in zip(queries, got, want):
            assert (result is None) == (expected is None), (query, alpha, beta)
            if result is not None:
                assert result.graph.same_structure(expected.graph), (query, alpha, beta)


def test_maintenance_keeps_the_array_path_hot():
    # A stream over a fixed vertex universe must patch the materialised
    # LevelArrays in place rather than invalidating the query path.
    rng = random.Random(6)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(8)}", f"v{rng.randrange(8)}", float(rng.randint(1, 9))) for _ in range(40)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend="csr")
    # Materialise the arrays once, then churn edges among existing vertices
    # without ever isolating one (insert-only churn on a dense block).
    core = dynamic.vertices_in_core(1, 1)
    dynamic.batch_community([(core[0], 1, 1)])
    path_before = dynamic.query_path()
    for _ in range(12):
        u, v = f"u{rng.randrange(8)}", f"v{rng.randrange(8)}"
        dynamic.insert_edge(u, v, float(rng.randint(1, 9)))
    assert dynamic.query_path() is path_before, "array path was invalidated"
    stats = dynamic.stats()
    assert stats.extra["arrays_patched"] > 0
    assert stats.extra["arrays_patch_hit_rate"] == 1.0


def test_maintenance_observability_counters():
    rng = random.Random(7)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(7)}", f"v{rng.randrange(7)}", float(rng.randint(1, 9))) for _ in range(30)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend="dict")
    working = graph.copy()
    for _ in range(12):
        kind, u, v, weight = _mixed_stream(rng, working, 8)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
    extra = dynamic.stats().extra
    for key in (
        "levels_patched",
        "levels_rebuilt",
        "levels_built",
        "levels_dropped",
        "region_updates",
        "reweight_updates",
        "region_mean_vertices",
        "arrays_patched",
        "arrays_invalidated",
        "arrays_dropped",
        "arrays_patch_hit_rate",
        "updates_applied",
        "maintenance_seconds",
    ):
        assert key in extra, key
    assert extra["updates_applied"] == 12.0
    assert extra["levels_patched"] + extra["levels_rebuilt"] > 0
    assert 0.0 <= extra["arrays_patch_hit_rate"] <= 1.0
