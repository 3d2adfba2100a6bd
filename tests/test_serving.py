"""Integration tests for the multi-process serving layer (2 workers)."""

from __future__ import annotations

import pytest

from repro.api import CommunitySearcher
from repro.exceptions import (
    EmptyCommunityError,
    InvalidParameterError,
    ServingError,
)
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex
from repro.serving.server import CommunityServer
from repro.serving.snapshot import load_snapshot, save_snapshot


@pytest.fixture(scope="module")
def serving_graph():
    return power_law_bipartite(80, 70, 600, seed=13, name="serving-test")


@pytest.fixture(scope="module")
def serving_index(serving_graph):
    return DegeneracyIndex(serving_graph, backend="csr")


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, serving_index):
    return save_snapshot(serving_index, tmp_path_factory.mktemp("serving") / "snap")


@pytest.fixture(scope="module")
def server(snapshot_dir):
    """One running 2-worker server shared by the whole module (startup is slow)."""
    with CommunityServer(snapshot_dir, num_workers=2) as running:
        yield running


@pytest.fixture(scope="module")
def mixed_queries(serving_index):
    queries = [(q, 2, 2) for q in serving_index.vertices_in_core(2, 2)[:15]]
    queries += [(q, 3, 3) for q in serving_index.vertices_in_core(3, 3)[:10]]
    queries += [(q, 2, 4) for q in serving_index.vertices_in_core(2, 4)[:5]]
    assert len(queries) >= 10
    return queries


class TestBatchCommunity:
    def test_matches_sequential_batch(self, server, serving_index, mixed_queries):
        served = server.batch_community(mixed_queries)
        sequential = serving_index.batch_community(mixed_queries)
        assert len(served) == len(sequential)
        for answer, expected in zip(served, sequential):
            assert answer.same_structure(expected)
            assert answer.name == expected.name

    def test_matches_snapshot_batch(self, server, snapshot_dir, mixed_queries):
        served = server.batch_community(mixed_queries)
        sequential = load_snapshot(snapshot_dir).batch_community(mixed_queries)
        for answer, expected in zip(served, sequential):
            assert answer.same_structure(expected)

    def test_empty_stream(self, server):
        assert server.batch_community([]) == []

    def test_on_empty_policies(self, server, serving_index):
        core = serving_index.vertices_in_core(2, 2)
        deep = serving_index.delta + 1
        mixed = [(core[0], 2, 2), (core[1], deep, deep), (core[2], 2, 2)]
        aligned = server.batch_community(mixed, on_empty="none")
        assert aligned[0] is not None and aligned[2] is not None
        assert aligned[1] is None
        skipped = server.batch_community(mixed, on_empty="skip")
        assert len(skipped) == 2
        with pytest.raises(EmptyCommunityError):
            server.batch_community(mixed, on_empty="raise")
        with pytest.raises(InvalidParameterError):
            server.batch_community(mixed, on_empty="sometimes")

    def test_worker_errors_propagate_with_type(self, server, serving_index):
        core = serving_index.vertices_in_core(2, 2)
        with pytest.raises(InvalidParameterError):
            server.batch_community([(core[0], 0, 2)])

    def test_server_survives_an_error(self, server, serving_index):
        core = serving_index.vertices_in_core(2, 2)
        with pytest.raises(InvalidParameterError):
            server.batch_community([(core[0], -1, 2)])
        answers = server.batch_community([(core[0], 2, 2)])
        assert answers[0].same_structure(serving_index.community(core[0], 2, 2))


class TestBatchSignificant:
    def test_matches_sequential_search(
        self, server, serving_graph, serving_index, mixed_queries
    ):
        searcher = CommunitySearcher(serving_graph, index=serving_index)
        served = server.batch_significant_communities(mixed_queries[:12])
        sequential = searcher.batch_significant_communities(mixed_queries[:12])
        for result, expected in zip(served, sequential):
            assert result.method == expected.method
            assert result.search_space_edges == expected.search_space_edges
            assert result.graph.same_structure(expected.graph)

    def test_method_and_policy_forwarded(self, server, serving_index):
        core = serving_index.vertices_in_core(2, 2)
        deep = serving_index.delta + 1
        results = server.batch_significant_communities(
            [(core[0], 2, 2), (core[1], deep, deep)],
            method="peel",
            on_empty="none",
        )
        assert results[0].method == "peel"
        assert results[1] is None
        with pytest.raises(InvalidParameterError):
            server.batch_significant_communities([(core[0], 2, 2)], method="magic")


class TestLifecycle:
    def test_missing_snapshot_rejected(self, tmp_path):
        with pytest.raises(ServingError):
            CommunityServer(tmp_path / "nowhere", num_workers=1).start()

    def test_bad_worker_count_rejected(self, snapshot_dir):
        with pytest.raises(ServingError):
            CommunityServer(snapshot_dir, num_workers=0)

    def test_start_is_idempotent(self, server):
        assert server.start() is server
        assert server.is_running

    def test_searcher_serve_round_trip(self, serving_graph, serving_index):
        searcher = CommunitySearcher(serving_graph, index=serving_index)
        queries = [(q, 2, 2) for q in serving_index.vertices_in_core(2, 2)[:6]]
        server = searcher.serve(num_workers=2)
        snapshot_dir = server.snapshot_dir
        try:
            with server:
                served = server.batch_community(queries)
        finally:
            server.stop()
        for answer, expected in zip(served, serving_index.batch_community(queries)):
            assert answer.same_structure(expected)
        # serve() wrote a temporary snapshot and cleans it up on stop
        assert not snapshot_dir.exists()

    def test_serve_reuses_snapshot_backed_index(self, snapshot_dir):
        searcher = CommunitySearcher(index=load_snapshot(snapshot_dir))
        server = searcher.serve(num_workers=1)
        try:
            assert server.snapshot_dir == snapshot_dir
        finally:
            server.stop()
        assert snapshot_dir.exists()  # not owned, never removed

    def test_serve_copies_snapshot_backed_index_to_new_dir(
        self, tmp_path, snapshot_dir, serving_index
    ):
        searcher = CommunitySearcher(index=load_snapshot(snapshot_dir))
        target = tmp_path / "replica"
        server = searcher.serve(num_workers=1, snapshot_dir=target)
        try:
            assert server.snapshot_dir == target
            queries = [(q, 2, 2) for q in serving_index.vertices_in_core(2, 2)[:3]]
            served = server.batch_community(queries)
        finally:
            server.stop()
        assert (target / "manifest.json").is_file()  # left behind for reuse
        for answer, expected in zip(served, serving_index.batch_community(queries)):
            assert answer.same_structure(expected)
