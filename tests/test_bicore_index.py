"""Unit tests for the vertex-level bicore index Iv and query Qv."""

from __future__ import annotations

import pytest

from repro.decomposition.abcore import abcore_vertices
from repro.decomposition.degeneracy import degeneracy
from repro.exceptions import EmptyCommunityError
from repro.graph.bipartite import upper
from repro.index.bicore_index import BicoreIndex
from repro.index.queries import online_community_query

from tests.reference import assert_same_graph


class TestBicoreIndexConstruction:
    def test_delta_matches_decomposition(self, random_graph):
        index = BicoreIndex(random_graph)
        assert index.delta == degeneracy(random_graph)

    def test_stats_shape(self, tiny_graph):
        stats = BicoreIndex(tiny_graph).stats()
        assert stats.name == "Iv"
        assert stats.entries > 0
        assert stats.build_seconds >= 0.0
        assert stats.extra["delta"] == degeneracy(tiny_graph)


class TestCoreVertexRetrieval:
    @pytest.mark.parametrize("alpha,beta", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 2), (2, 4)])
    def test_core_vertices_match_peeling(self, random_graph, alpha, beta):
        index = BicoreIndex(random_graph)
        assert index.core_vertices(alpha, beta) == abcore_vertices(random_graph, alpha, beta)

    def test_above_degeneracy_is_empty(self, random_graph):
        index = BicoreIndex(random_graph)
        delta = index.delta
        assert index.core_vertices(delta + 1, delta + 1) == set()


class TestQv:
    def test_matches_online_query(self, random_graph):
        index = BicoreIndex(random_graph)
        for vertex in index.core_vertices(2, 2):
            expected = online_community_query(random_graph, vertex, 2, 2)
            assert_same_graph(index.community(vertex, 2, 2), expected)
            break

    def test_paper_example(self, paper_graph):
        index = BicoreIndex(paper_graph)
        community = index.community(upper("u3"), 2, 2)
        assert community.num_edges == 16

    def test_outside_core_raises(self, tiny_graph):
        index = BicoreIndex(tiny_graph)
        with pytest.raises(EmptyCommunityError):
            index.community(upper("u3"), 2, 2)

    def test_asymmetric_thresholds(self, paper_graph):
        index = BicoreIndex(paper_graph)
        # α=1, β=4: u1 is adjacent to v1..v4 each of which needs 4 neighbours.
        community = index.community(upper("u1"), 1, 4)
        assert set(community.lower_labels()) == {"v1", "v2", "v3", "v4"}


class TestBackendAgreement:
    def test_csr_tables_identical_to_dict(self, random_graph):
        dict_index = BicoreIndex(random_graph, backend="dict")
        csr_index = BicoreIndex(random_graph, backend="csr")
        assert csr_index.delta == dict_index.delta
        # The sorted membership tables must match entry for entry: the CSR
        # assembly's stable argsort reproduces the dict backend's sort order.
        assert csr_index._alpha_tables == dict_index._alpha_tables
        assert csr_index._beta_tables == dict_index._beta_tables

    def test_csr_queries_identical_to_dict(self, random_graph):
        dict_index = BicoreIndex(random_graph, backend="dict")
        csr_index = BicoreIndex(random_graph, backend="csr")
        for alpha, beta in ((1, 1), (2, 2), (2, 3), (3, 2)):
            assert csr_index.core_vertices(alpha, beta) == dict_index.core_vertices(alpha, beta)
