"""Tests for the array-backed batch query path and the batch search API."""

from __future__ import annotations

import pytest

from repro.api import CommunitySearcher
from repro.exceptions import EmptyCommunityError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, upper
from repro.index.basic_index import BasicIndex
from repro.index.bicore_index import BicoreIndex
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DynamicDegeneracyIndex

from tests.conftest import make_random_weighted_graph

BACKENDS = ["dict", "csr"]

THRESHOLD_GRID = [(1, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (4, 4)]


def all_queries(graph: BipartiteGraph):
    """Every vertex crossed with the threshold grid — including empty answers."""
    return [
        (vertex, alpha, beta)
        for vertex in graph.vertices()
        for alpha, beta in THRESHOLD_GRID
    ]


def sequential_answers(index, queries):
    answers = []
    for query, alpha, beta in queries:
        try:
            answers.append(index.community(query, alpha, beta))
        except EmptyCommunityError:
            answers.append(None)
    return answers


class TestDegeneracyIndexBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_sequential(self, random_graph, backend):
        index = DegeneracyIndex(random_graph, backend=backend)
        queries = all_queries(random_graph)
        expected = sequential_answers(index, queries)
        batched = index.batch_community(queries, on_empty="none")
        assert len(batched) == len(expected)
        for answer, reference in zip(batched, expected):
            if reference is None:
                assert answer is None
            else:
                assert answer is not None
                assert answer.same_structure(reference)

    def test_batch_answers_are_independent_objects(self, paper_graph):
        # Two queries landing in the same component must not share a graph:
        # mutating one answer cannot corrupt another.
        index = DegeneracyIndex(paper_graph, backend="dict")
        first, second = index.batch_community(
            [(upper("u3"), 2, 2), (upper("u4"), 2, 2)]
        )
        assert first.same_structure(second)
        first.remove_edge(next(iter(first.edges()))[0], next(iter(first.edges()))[1])
        assert not first.same_structure(second)

    def test_on_empty_policies(self, tiny_graph):
        index = DegeneracyIndex(tiny_graph, backend="dict")
        queries = [(upper("u0"), 2, 2), (upper("u3"), 2, 2), (upper("u1"), 1, 1)]
        with pytest.raises(EmptyCommunityError):
            index.batch_community(queries)
        padded = index.batch_community(queries, on_empty="none")
        assert len(padded) == 3 and padded[1] is None
        assert padded[0] is not None and padded[2] is not None
        skipped = index.batch_community(queries, on_empty="skip")
        assert len(skipped) == 2
        with pytest.raises(InvalidParameterError):
            index.batch_community(queries, on_empty="drop")

    def test_batch_reflects_maintenance_updates(self):
        graph = BipartiteGraph.from_edges(
            [("u0", "v0", 1), ("u0", "v1", 2), ("u1", "v0", 3), ("u1", "v1", 4)]
        )
        dynamic = DynamicDegeneracyIndex(graph)
        before = dynamic.batch_community([(upper("u0"), 2, 2)])[0]
        assert before.num_edges == 4
        dynamic.remove_edge("u0", "v0")
        with pytest.raises(EmptyCommunityError):
            dynamic.batch_community([(upper("u0"), 2, 2)])
        after = dynamic.batch_community([(upper("u0"), 1, 1)])[0]
        assert after.same_structure(dynamic.community(upper("u0"), 1, 1))

    def test_generic_fallback_matches_array_path(self, random_graph):
        # The base-class implementation (BicoreIndex uses it) must agree with
        # the array path.
        index = DegeneracyIndex(random_graph, backend="dict")
        bicore = BicoreIndex(random_graph)
        queries = all_queries(random_graph)
        array_answers = index.batch_community(queries, on_empty="none")
        generic_answers = bicore.batch_community(queries, on_empty="none")
        for array_answer, generic_answer in zip(array_answers, generic_answers):
            if array_answer is None:
                assert generic_answer is None
            else:
                assert generic_answer is not None
                assert array_answer.same_structure(generic_answer)


class TestBasicIndexBatch:
    @pytest.mark.parametrize("direction", ["alpha", "beta"])
    def test_batch_matches_sequential(self, random_graph, direction):
        index = BasicIndex(random_graph, direction=direction, backend="dict")
        queries = all_queries(random_graph)
        expected = sequential_answers(index, queries)
        batched = index.batch_community(queries, on_empty="none")
        for answer, reference in zip(batched, expected):
            if reference is None:
                assert answer is None
            else:
                assert answer.same_structure(reference)

    def test_capped_level_still_raises_in_batch(self, tiny_graph):
        index = BasicIndex(tiny_graph, direction="alpha", max_level=1)
        with pytest.raises(InvalidParameterError):
            index.batch_community([(upper("u0"), 2, 2)], on_empty="none")


class TestSearcherBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", ["auto", "peel", "expand", "binary"])
    def test_batch_search_matches_sequential(self, backend, method):
        graph = make_random_weighted_graph(6)
        searcher = CommunitySearcher(graph, backend=backend)
        queries = [
            (vertex, alpha, beta)
            for vertex in list(graph.vertices())[::3]
            for alpha, beta in [(1, 1), (2, 2), (2, 3)]
        ]
        batched = searcher.batch_significant_communities(
            queries, method=method, on_empty="none"
        )
        assert len(batched) == len(queries)
        for (query, alpha, beta), result in zip(queries, batched):
            try:
                expected = searcher.significant_community(query, alpha, beta, method=method)
            except EmptyCommunityError:
                assert result is None
                continue
            assert result is not None
            assert result.method == expected.method
            assert result.search_space_edges == expected.search_space_edges
            assert result.graph.same_structure(expected.graph)

    def test_batch_baseline_method(self, two_block_graph):
        searcher = CommunitySearcher(two_block_graph, backend="dict")
        queries = [(upper("a0"), 2, 2), (upper("b1"), 2, 2)]
        batched = searcher.batch_significant_communities(queries, method="baseline")
        for (query, alpha, beta), result in zip(queries, batched):
            expected = searcher.significant_community(query, alpha, beta, method="baseline")
            assert result.graph.same_structure(expected.graph)

    def test_batch_community_order_and_policy(self, two_block_graph):
        searcher = CommunitySearcher(two_block_graph, backend="dict")
        queries = [(upper("a0"), 2, 2), (upper("a0"), 9, 9), (upper("b1"), 2, 2)]
        padded = searcher.batch_community(queries, on_empty="none")
        assert padded[1] is None
        assert padded[0].same_structure(searcher.community(upper("a0"), 2, 2))
        assert padded[2].same_structure(searcher.community(upper("b1"), 2, 2))
        assert len(searcher.batch_community(queries, on_empty="skip")) == 2
        with pytest.raises(EmptyCommunityError):
            searcher.batch_community(queries)
        with pytest.raises(InvalidParameterError):
            searcher.batch_significant_communities(queries, method="teleport")


class TestBicoreBackendParameter:
    def test_backend_validation_matches_other_indexes(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            BicoreIndex(tiny_graph, backend="sparse")

    @pytest.mark.parametrize("backend", BACKENDS + ["auto"])
    def test_backends_agree(self, random_graph, backend):
        reference = BicoreIndex(random_graph, backend="dict")
        index = BicoreIndex(random_graph, backend=backend)
        assert index.backend in ("dict", "csr")
        assert index.delta == reference.delta
        for alpha, beta in THRESHOLD_GRID:
            assert index.core_vertices(alpha, beta) == reference.core_vertices(alpha, beta)
