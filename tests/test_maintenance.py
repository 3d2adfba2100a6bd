"""Unit tests for index maintenance under edge insertions and removals."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import CommunitySearcher
from repro.exceptions import EdgeNotFoundError, EmptyCommunityError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, upper
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DynamicDegeneracyIndex

from tests.reference import assert_same_graph


def assert_index_equivalent(dynamic: DynamicDegeneracyIndex, graph: BipartiteGraph) -> None:
    """The maintained index must answer every query like a fresh rebuild."""
    fresh = DegeneracyIndex(graph)
    assert dynamic.delta == fresh.delta
    delta = max(fresh.delta, 1)
    probes = [(1, 1), (2, 2), (delta, delta), (1, delta), (delta, 1), (2, 3), (3, 2)]
    for alpha, beta in probes:
        for vertex in graph.vertices():
            try:
                expected = fresh.community(vertex, alpha, beta)
            except EmptyCommunityError:
                with pytest.raises(EmptyCommunityError):
                    dynamic.community(vertex, alpha, beta)
                continue
            assert_same_graph(dynamic.community(vertex, alpha, beta), expected)


class TestInsertion:
    def test_insert_edge_into_tiny_graph(self, tiny_graph):
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        working = tiny_graph.copy()
        dynamic.insert_edge("u3", "v1", 2.0)
        working.add_edge("u3", "v1", 2.0)
        assert_index_equivalent(dynamic, working)

    def test_insert_increases_degeneracy(self):
        # A 2x2 block becomes a 3x3 block one edge at a time.
        graph = BipartiteGraph.from_edges(
            [("u0", "v0", 1), ("u0", "v1", 1), ("u1", "v0", 1), ("u1", "v1", 1)]
        )
        dynamic = DynamicDegeneracyIndex(graph)
        assert dynamic.delta == 2
        working = graph.copy()
        for u, v in [("u0", "v2"), ("u1", "v2"), ("u2", "v0"), ("u2", "v1"), ("u2", "v2")]:
            dynamic.insert_edge(u, v, 1.0)
            working.add_edge(u, v, 1.0)
        assert dynamic.delta == 3
        assert_index_equivalent(dynamic, working)

    def test_reweighting_existing_edge(self, two_block_graph):
        dynamic = DynamicDegeneracyIndex(two_block_graph)
        working = two_block_graph.copy()
        dynamic.insert_edge("a0", "x0", 9.0)
        working.add_edge("a0", "x0", 9.0)
        assert_index_equivalent(dynamic, working)

    def test_insert_connecting_two_components(self):
        graph = BipartiteGraph.from_edges(
            [("a", "x", 1), ("a", "y", 1), ("b", "x", 1), ("b", "y", 1),
             ("c", "p", 1), ("c", "q", 1), ("d", "p", 1), ("d", "q", 1)]
        )
        dynamic = DynamicDegeneracyIndex(graph)
        working = graph.copy()
        dynamic.insert_edge("a", "p", 1.0)
        working.add_edge("a", "p", 1.0)
        assert_index_equivalent(dynamic, working)


class TestRemoval:
    def test_remove_edge_from_tiny_graph(self, tiny_graph):
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        working = tiny_graph.copy()
        dynamic.remove_edge("u0", "v0")
        working.remove_edge("u0", "v0")
        working.discard_isolated()
        assert_index_equivalent(dynamic, working)

    def test_remove_decreases_degeneracy(self):
        graph = BipartiteGraph.from_edges(
            [(f"u{i}", f"v{j}", 1.0) for i in range(3) for j in range(3)]
        )
        dynamic = DynamicDegeneracyIndex(graph)
        assert dynamic.delta == 3
        dynamic.remove_edge("u0", "v0")
        assert dynamic.delta == 2

    def test_remove_bridge_splits_components(self, two_block_graph):
        dynamic = DynamicDegeneracyIndex(two_block_graph)
        working = two_block_graph.copy()
        dynamic.remove_edge("a0", "y0")
        working.remove_edge("a0", "y0")
        working.discard_isolated()
        assert_index_equivalent(dynamic, working)

    def test_remove_pendant_edge(self, tiny_graph):
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        working = tiny_graph.copy()
        dynamic.remove_edge("u3", "v0")
        working.remove_edge("u3", "v0")
        working.discard_isolated()
        assert_index_equivalent(dynamic, working)


def assert_same_cores(dynamic: DynamicDegeneracyIndex, graph: BipartiteGraph) -> None:
    """``vertices_in_core`` must agree with a from-scratch rebuild everywhere."""
    fresh = DegeneracyIndex(graph)
    assert dynamic.delta == fresh.delta
    delta = max(fresh.delta, 1)
    for alpha in range(1, delta + 2):
        for beta in range(1, delta + 2):
            assert sorted(dynamic.vertices_in_core(alpha, beta), key=repr) == sorted(
                fresh.vertices_in_core(alpha, beta), key=repr
            ), f"core membership diverged at ({alpha},{beta})"


class TestStaleEntryPurging:
    def test_remove_isolated_edge_purges_both_endpoints(self):
        # Removing a degree-1/degree-1 edge discards both endpoints, so no
        # affected component remains to refresh — the purge must still happen.
        graph = BipartiteGraph.from_edges(
            [("u0", "v0", 1), ("u0", "v1", 1), ("u1", "v0", 1), ("u1", "v1", 1),
             ("p", "q", 1)]
        )
        dynamic = DynamicDegeneracyIndex(graph)
        dynamic.remove_edge("p", "q")
        working = graph.copy()
        working.remove_edge("p", "q")
        working.discard_isolated()
        assert not dynamic.contains(upper("p"), 1, 1)
        assert upper("p") not in dynamic.vertices_in_core(1, 1)
        assert_same_cores(dynamic, working)
        assert_index_equivalent(dynamic, working)

    def test_remove_last_edge_of_whole_graph(self):
        graph = BipartiteGraph.from_edges([("a", "x", 2.0)])
        dynamic = DynamicDegeneracyIndex(graph)
        dynamic.remove_edge("a", "x")
        assert dynamic.delta == 0
        assert dynamic.vertices_in_core(1, 1) == []

    def test_discarded_preexisting_isolated_vertex_is_purged(self):
        # A vertex isolated since construction is dropped by the first
        # removal's discard_isolated(); every vanished vertex keeps its id
        # with offset 0 and an empty slice at every level.
        graph = BipartiteGraph.from_edges(
            [("u0", "v0", 1), ("u0", "v1", 1), ("u1", "v0", 1), ("u1", "v1", 1)]
        )
        graph.add_vertex(Side.UPPER, "iso")
        dynamic = DynamicDegeneracyIndex(graph)
        dynamic.remove_edge("u0", "v0")
        assert not dynamic.graph.has_vertex(Side.UPPER, "iso")
        handles = dynamic.global_handles()
        vanished = [
            gid
            for gid, vertex in enumerate(handles)
            if not dynamic.graph.has_vertex(vertex.side, vertex.label)
        ]
        assert upper("iso") in [handles[gid] for gid in vanished]
        for level in dynamic.level_arrays().values():
            for gid in vanished:
                assert level.offsets[gid] == 0
                assert level.indptr[gid + 1] == level.indptr[gid]
            assert not set(vanished) & set(level.entry_vertex.tolist())

    def test_remove_pendant_edge_purges_vanished_endpoint(self, tiny_graph):
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        dynamic.remove_edge("u3", "v0")
        working = tiny_graph.copy()
        working.remove_edge("u3", "v0")
        working.discard_isolated()
        assert not dynamic.contains(upper("u3"), 1, 1)
        assert_same_cores(dynamic, working)


class TestRandomisedUpdateSequences:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_cores_match_rebuild_after_every_update(self, seed):
        # Property test: under a random insert/remove stream (biased towards
        # removals so components regularly vanish), the maintained index must
        # report the same core membership as a from-scratch rebuild after
        # *every* single update.
        rng = random.Random(seed)
        graph = BipartiteGraph.from_edges(
            [
                (f"u{rng.randrange(6)}", f"v{rng.randrange(6)}", float(rng.randint(1, 9)))
                for _ in range(18)
            ]
        )
        dynamic = DynamicDegeneracyIndex(graph)
        working = graph.copy()
        for _ in range(25):
            if rng.random() < 0.4 or working.num_edges < 3:
                u, v = f"u{rng.randrange(6)}", f"v{rng.randrange(6)}"
                w = float(rng.randint(1, 9))
                dynamic.insert_edge(u, v, w)
                working.add_edge(u, v, w)
            else:
                u, v, _ = rng.choice(sorted(working.edges(), key=repr))
                dynamic.remove_edge(u, v)
                working.remove_edge(u, v)
                working.discard_isolated()
            assert_same_cores(dynamic, working)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_update_stream_stays_consistent(self, seed):
        rng = random.Random(seed)
        graph = BipartiteGraph.from_edges(
            [
                (f"u{rng.randrange(8)}", f"v{rng.randrange(8)}", float(rng.randint(1, 9)))
                for _ in range(40)
            ]
        )
        dynamic = DynamicDegeneracyIndex(graph)
        working = graph.copy()
        for _ in range(12):
            if rng.random() < 0.55 or working.num_edges < 5:
                u, v = f"u{rng.randrange(8)}", f"v{rng.randrange(8)}"
                w = float(rng.randint(1, 9))
                dynamic.insert_edge(u, v, w)
                working.add_edge(u, v, w)
            else:
                u, v, _ = rng.choice(list(working.edges()))
                dynamic.remove_edge(u, v)
                working.remove_edge(u, v)
                working.discard_isolated()
        assert_index_equivalent(dynamic, working)

    def test_stats_track_updates(self, tiny_graph):
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        dynamic.insert_edge("u3", "v1", 1.0)
        dynamic.remove_edge("u3", "v1")
        stats = dynamic.stats()
        assert stats.name == "Idelta-dynamic"
        assert stats.extra["updates_applied"] == 2.0
        assert stats.extra["maintenance_seconds"] >= 0.0

    def test_original_graph_not_mutated(self, tiny_graph):
        before = tiny_graph.copy()
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        dynamic.insert_edge("u3", "v2", 4.0)
        assert tiny_graph.same_structure(before)


LEVEL_FIELDS = ("indptr", "entry_vertex", "entry_weight", "entry_offset", "offsets")


def _state(dynamic: DynamicDegeneracyIndex):
    """Everything a rejected update must leave as it was."""
    exports = {
        key: {f: getattr(level, f).copy() for f in LEVEL_FIELDS}
        for key, level in dynamic.export_level_arrays().items()
    }
    return exports, list(dynamic.journal.ops), dynamic.graph


def _assert_unchanged(dynamic: DynamicDegeneracyIndex, before) -> None:
    exports, ops, graph = _state(dynamic)
    assert sorted(exports) == sorted(before[0])
    for key, fields in before[0].items():
        for name, array in fields.items():
            assert np.array_equal(exports[key][name], array), (key, name)
    assert ops == before[1]
    assert graph.same_structure(before[2])


class TestRejectedUpdates:
    """The maintained index validates updates itself and a rejected one
    changes nothing: not the levels, not the journal, not the graph."""

    @pytest.mark.parametrize("edge", [("u3", "v1"), ("u0", "never-seen"), ("never-seen", "v0")])
    def test_removing_a_missing_edge_raises(self, tiny_graph, edge):
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        dynamic.remove_edge("u0", "v0")  # something in the journal already
        before = _state(dynamic)
        with pytest.raises(EdgeNotFoundError):
            dynamic.remove_edge(*edge)
        _assert_unchanged(dynamic, before)
        assert not dynamic.graph.has_edge(*edge)

    @pytest.mark.parametrize("edge", [("u3", "v1"), ("u0", "v1"), ("new-u", "new-v")])
    def test_a_nan_weight_raises(self, tiny_graph, edge):
        # A new edge, a re-weight of an existing one, and never-seen labels.
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        dynamic.insert_edge("u3", "v2", 2.0)
        before = _state(dynamic)
        with pytest.raises(InvalidParameterError):
            dynamic.insert_edge(*edge, float("nan"))
        _assert_unchanged(dynamic, before)
        assert dynamic.graph.has_edge(*edge) == tiny_graph.has_edge(*edge)
        assert dynamic.contains(upper("new-u"), 1, 1) is False


class TestGraphOnDemand:
    def test_a_searcher_sees_the_current_graph(self, tiny_graph):
        dynamic = DynamicDegeneracyIndex(tiny_graph)
        searcher = CommunitySearcher(index=dynamic)
        assert not searcher.graph.has_edge("u3", "v1")
        dynamic.insert_edge("u3", "v1", 2.0)
        assert searcher.graph.has_edge("u3", "v1")
        result = searcher.significant_community(upper("u3"), 1, 1, method="baseline")
        assert result.search_space_edges == tiny_graph.num_edges + 1
