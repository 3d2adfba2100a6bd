"""Unit tests for the snapshot store: SnapshotIndex answers == DegeneracyIndex."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import EmptyCommunityError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, upper
from repro.index.degeneracy_index import DegeneracyIndex
from repro.serving.snapshot import load_label_arrays, load_snapshot, save_snapshot
from repro.serving.wire import DeferredCommunity


@pytest.fixture(params=["dict", "csr"])
def index_and_snapshot(request, tmp_path, random_graph):
    index = DegeneracyIndex(random_graph, backend=request.param)
    directory = save_snapshot(index, tmp_path / "snap")
    return index, load_snapshot(directory)


class TestQueryEquality:
    def test_every_core_query_matches(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        assert snapshot.delta == index.delta
        for alpha, beta in ((1, 1), (2, 2), (2, 4), (4, 2), (3, 3)):
            core = index.vertices_in_core(alpha, beta)
            assert set(core) == set(snapshot.vertices_in_core(alpha, beta))
            for query in core:
                expected = index.community(query, alpha, beta)
                answer = snapshot.community(query, alpha, beta)
                assert answer.same_structure(expected)
                assert answer.name == expected.name

    def test_batch_matches_sequential(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        queries = [(q, 2, 2) for q in index.vertices_in_core(2, 2)]
        queries += [(q, 3, 3) for q in index.vertices_in_core(3, 3)]
        expected = index.batch_community(queries)
        answers = snapshot.batch_community(queries)
        assert len(answers) == len(expected)
        for answer, want in zip(answers, expected):
            assert answer.same_structure(want)

    def test_contains_matches(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        for alpha, beta in ((1, 1), (2, 2), (3, 5)):
            for vertex in index.graph.vertices():
                assert snapshot.contains(vertex, alpha, beta) == index.contains(
                    vertex, alpha, beta
                )

    def test_raises_like_the_original(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        outside = [
            v
            for v in index.graph.vertices()
            if not index.contains(v, index.delta, index.delta)
        ]
        if outside:
            with pytest.raises(EmptyCommunityError):
                snapshot.community(outside[0], index.delta, index.delta)
        with pytest.raises(InvalidParameterError):
            snapshot.community(upper("no-such-vertex-anywhere"), 1, 1)
        with pytest.raises(InvalidParameterError):
            snapshot.community("not-a-vertex", 1, 1)
        with pytest.raises(InvalidParameterError):
            snapshot.community(upper("u1"), 0, 1)

    def test_deep_thresholds_are_empty(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        query = next(index.graph.vertices())
        with pytest.raises(EmptyCommunityError):
            snapshot.community(query, index.delta + 1, index.delta + 1)
        assert snapshot.vertices_in_core(index.delta + 1, index.delta + 1) == []


class TestSnapshotMaterialisation:
    def test_graph_thaws_identically(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        assert snapshot.graph.same_structure(index.graph)

    def test_stats_round_trip(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        original, stored = index.stats(), snapshot.stats()
        assert stored.name == original.name
        assert stored.entries == original.entries
        assert stored.adjacency_lists == original.adjacency_lists
        assert stored.extra["delta"] == float(index.delta)

    def test_non_json_labels_fall_back_to_pickle(self, tmp_path):
        graph = BipartiteGraph(name="tuple-labels")
        for i in range(3):
            for j in range(3):
                graph.add_edge(("u", i), ("v", j), float(i + j + 1))
        index = DegeneracyIndex(graph)
        directory = save_snapshot(index, tmp_path / "snap")
        assert (directory / "labels.pkl").is_file()
        snapshot = load_snapshot(directory)
        query = upper(("u", 0))
        assert snapshot.community(query, 2, 2).same_structure(
            index.community(query, 2, 2)
        )


class TestWireFormat:
    def test_edge_arrays_assemble_to_identical_graphs(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        queries = [(q, 2, 2) for q in index.vertices_in_core(2, 2)]
        if not queries:
            pytest.skip("graph has no (2,2)-core")
        labels = load_label_arrays(snapshot.directory)
        wire = snapshot.batch_community_edges(queries)
        expected = index.batch_community(queries)
        for (query, alpha, beta), edges, want in zip(queries, wire, expected):
            deferred = DeferredCommunity(edges, labels, name=want.name)
            assert deferred.num_edges == want.num_edges  # before materialising
            assert deferred.same_structure(want)

    def test_shared_components_share_arrays(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        core = index.vertices_in_core(2, 2)
        if len(core) < 2:
            pytest.skip("graph has no shared (2,2) component")
        community = index.community(core[0], 2, 2)
        partner = next(
            (v for v in core[1:] if community.has_vertex(v.side, v.label)), None
        )
        if partner is None:
            pytest.skip("no two queries share a component")
        wire = snapshot.batch_community_edges([(core[0], 2, 2), (partner, 2, 2)])
        assert wire[0] is wire[1]  # memoised: the same array objects

    def test_deferred_community_survives_pickle(self, index_and_snapshot):
        index, snapshot = index_and_snapshot
        core = index.vertices_in_core(2, 2)
        if not core:
            pytest.skip("graph has no (2,2)-core")
        labels = load_label_arrays(snapshot.directory)
        edges = snapshot.batch_community_edges([(core[0], 2, 2)])[0]
        deferred = DeferredCommunity(edges, labels, name="answer")
        clone = pickle.loads(pickle.dumps(deferred))
        assert clone.same_structure(index.community(core[0], 2, 2))
