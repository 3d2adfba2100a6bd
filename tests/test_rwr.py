"""Unit tests for random walk with restart."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex, upper
from repro.graph.generators import complete_bipartite, random_bipartite
from repro.graph.rwr import rwr_edge_weights, rwr_scores


class TestRwrScores:
    def test_scores_sum_to_one(self):
        graph = complete_bipartite(4, 4)
        scores = rwr_scores(graph, upper("u0"))
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_restart_vertex_has_highest_score(self):
        graph = random_bipartite(8, 8, 30, seed=2)
        seed_vertex = upper("u0")
        scores = rwr_scores(graph, seed_vertex, restart_prob=0.3)
        assert scores[seed_vertex] == max(scores.values())

    def test_closer_vertices_score_higher(self):
        # Path-like graph: u0 - v0 - u1 - v1 ; v0 is closer to u0 than v1.
        graph = BipartiteGraph.from_edges([("u0", "v0"), ("u1", "v0"), ("u1", "v1")])
        scores = rwr_scores(graph, upper("u0"))
        assert scores[Vertex(Side.LOWER, "v0")] > scores[Vertex(Side.LOWER, "v1")]

    def test_invalid_restart_probability(self):
        graph = complete_bipartite(2, 2)
        with pytest.raises(InvalidParameterError):
            rwr_scores(graph, upper("u0"), restart_prob=1.5)

    def test_missing_restart_vertex(self):
        graph = complete_bipartite(2, 2)
        with pytest.raises(InvalidParameterError):
            rwr_scores(graph, upper("ghost"))

    def test_symmetry_on_complete_graph(self):
        graph = complete_bipartite(3, 3)
        scores = rwr_scores(graph, upper("u0"))
        # The two non-restart upper vertices are interchangeable.
        assert scores[upper("u1")] == pytest.approx(scores[upper("u2")], rel=1e-9)


class TestRwrEdgeWeights:
    def test_weights_cover_requested_range(self):
        graph = random_bipartite(10, 10, 40, seed=5)
        weights = rwr_edge_weights(graph, weight_range=(1.0, 5.0))
        assert min(weights.values()) == pytest.approx(1.0)
        assert max(weights.values()) == pytest.approx(5.0)
        assert len(weights) == graph.num_edges

    def test_empty_graph_gives_empty_weights(self):
        assert rwr_edge_weights(BipartiteGraph()) == {}

    def test_constant_scores_map_to_midpoint(self):
        # A single edge: both endpoints get whatever score they get, but the
        # span of raw values is zero, so the midpoint of the range is used.
        graph = BipartiteGraph.from_edges([("u", "v")])
        weights = rwr_edge_weights(graph, weight_range=(2.0, 4.0))
        assert weights[("u", "v")] == pytest.approx(3.0)


def shuffled_load(edges, seed):
    """The same edge set inserted in a seed-dependent order."""
    shuffled = list(edges)
    random.Random(seed).shuffle(shuffled)
    graph = BipartiteGraph()
    for u, v, w in shuffled:
        graph.add_edge(u, v, w)
    return graph


class TestRwrDeterminism:
    """Regression: derived weights must not depend on edge insertion order.

    Hub selection used to break degree ties by dict insertion order, so two
    loads of the same graph could pick different restart hubs and derive
    different weight maps.  The tie now breaks on the label.
    """

    def tied_hub_edges(self):
        # u0 and u9 both have the maximal degree (4) — a genuine tie.
        edges = [(f"u0", f"v{j}", 1.0) for j in range(4)]
        edges += [(f"u9", f"v{j}", 1.0) for j in range(2, 6)]
        edges += [("u5", "v0", 1.0), ("u5", "v5", 1.0)]
        return edges

    def test_shuffled_loads_identical_weight_maps_dict(self):
        edges = self.tied_hub_edges()
        first = rwr_edge_weights(shuffled_load(edges, 1), backend="dict")
        second = rwr_edge_weights(shuffled_load(edges, 2), backend="dict")
        assert first == second  # bit-identical, not just approximately equal

    def test_shuffled_loads_identical_on_random_graph(self):
        base = random_bipartite(12, 10, 48, seed=7)
        edges = list(base.edges())
        first = rwr_edge_weights(shuffled_load(edges, 3), backend="dict")
        second = rwr_edge_weights(shuffled_load(edges, 4), backend="dict")
        assert first == second

    def test_csr_backend_stable_and_close_to_dict(self):
        edges = self.tied_hub_edges()
        first = rwr_edge_weights(shuffled_load(edges, 5), backend="csr")
        second = rwr_edge_weights(shuffled_load(edges, 6), backend="csr")
        assert set(first) == set(second)
        for key in first:
            assert first[key] == pytest.approx(second[key], abs=1e-9)
        exact = rwr_edge_weights(shuffled_load(edges, 5), backend="dict")
        assert set(first) == set(exact)
        for key in first:
            assert first[key] == pytest.approx(exact[key], abs=1e-6)

    def test_scores_agree_across_backends(self):
        graph = random_bipartite(10, 9, 36, seed=9)
        seed_vertex = upper("u0")
        dict_scores = rwr_scores(graph, seed_vertex, backend="dict")
        csr_scores = rwr_scores(graph, seed_vertex, backend="csr")
        assert set(dict_scores) == set(csr_scores)
        for vertex in dict_scores:
            assert csr_scores[vertex] == pytest.approx(dict_scores[vertex], abs=1e-8)
