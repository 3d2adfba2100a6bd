"""Unit tests for the BipartiteGraph data structure."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidParameterError,
    VertexNotFoundError,
)
from repro.graph.bipartite import BipartiteGraph, Side, Vertex, lower, upper


class TestConstruction:
    def test_empty_graph(self):
        graph = BipartiteGraph()
        assert graph.num_edges == 0
        assert graph.num_upper == 0
        assert graph.num_lower == 0
        assert graph.num_vertices == 0
        assert graph.is_empty()

    def test_from_edges_without_weights(self):
        graph = BipartiteGraph.from_edges([("u1", "v1"), ("u1", "v2")])
        assert graph.num_edges == 2
        assert graph.weight("u1", "v1") == 1.0

    def test_from_edges_with_weights(self):
        graph = BipartiteGraph.from_edges([("u1", "v1", 2.5), ("u2", "v1", 3.5)])
        assert graph.weight("u1", "v1") == 2.5
        assert graph.weight("u2", "v1") == 3.5

    @pytest.mark.parametrize(
        "bad_edge",
        [(), ("u1",), ("u1", "v1", 1.0, "extra"), ("u1", "v1", 1.0, 2.0, 3.0)],
    )
    def test_from_edges_rejects_wrong_arity(self, bad_edge):
        with pytest.raises(GraphError, match="2 or 3 elements"):
            BipartiteGraph.from_edges([("u0", "v0"), bad_edge])

    def test_from_edges_rejects_non_sequence_edge(self):
        with pytest.raises(GraphError, match="not a .*tuple"):
            BipartiteGraph.from_edges([("u0", "v0"), 42])  # type: ignore[list-item]

    def test_from_edges_rejects_bare_string_edge(self):
        with pytest.raises(GraphError, match="not a .*tuple"):
            BipartiteGraph.from_edges(["uv"])  # type: ignore[list-item]

    def test_name_is_kept(self):
        graph = BipartiteGraph(name="demo")
        assert graph.name == "demo"

    def test_same_label_on_both_sides_is_two_vertices(self):
        graph = BipartiteGraph.from_edges([(3, 3, 1.0)])
        assert graph.has_vertex(Side.UPPER, 3)
        assert graph.has_vertex(Side.LOWER, 3)
        assert graph.num_vertices == 2


class TestMutation:
    def test_add_edge_creates_vertices(self):
        graph = BipartiteGraph()
        graph.add_edge("u", "v", 2.0)
        assert graph.has_vertex(Side.UPPER, "u")
        assert graph.has_vertex(Side.LOWER, "v")
        assert graph.has_edge("u", "v")

    def test_re_adding_edge_overwrites_weight_without_duplication(self):
        graph = BipartiteGraph()
        graph.add_edge("u", "v", 2.0)
        graph.add_edge("u", "v", 7.0)
        assert graph.num_edges == 1
        assert graph.weight("u", "v") == 7.0

    def test_nan_weight_is_rejected_and_inf_accepted(self):
        graph = BipartiteGraph()
        with pytest.raises(InvalidParameterError, match=r"\('u', 'v'\).*NaN"):
            graph.add_edge("u", "v", float("nan"))
        assert graph.num_edges == 0 and graph.num_vertices == 0
        graph.add_edge("u", "v", 2.0)
        with pytest.raises(InvalidParameterError):
            graph.add_edge("u", "v", float("nan"))  # nor as a re-weight
        assert graph.weight("u", "v") == 2.0
        graph.add_edge("u", "w", float("inf"))
        assert graph.weight("u", "w") == float("inf")

    def test_remove_edge_returns_weight(self):
        graph = BipartiteGraph.from_edges([("u", "v", 4.0)])
        assert graph.remove_edge("u", "v") == 4.0
        assert graph.num_edges == 0
        assert not graph.has_edge("u", "v")

    def test_remove_edge_keeps_vertices(self):
        graph = BipartiteGraph.from_edges([("u", "v", 4.0)])
        graph.remove_edge("u", "v")
        assert graph.has_vertex(Side.UPPER, "u")
        assert graph.has_vertex(Side.LOWER, "v")

    def test_remove_missing_edge_raises(self):
        graph = BipartiteGraph()
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge("u", "v")

    def test_remove_vertex_removes_incident_edges(self):
        graph = BipartiteGraph.from_edges([("u", "v1"), ("u", "v2"), ("w", "v1")])
        graph.remove_vertex(Side.UPPER, "u")
        assert graph.num_edges == 1
        assert not graph.has_vertex(Side.UPPER, "u")
        assert graph.has_edge("w", "v1")

    def test_remove_missing_vertex_raises(self):
        graph = BipartiteGraph()
        with pytest.raises(VertexNotFoundError):
            graph.remove_vertex(Side.LOWER, "nope")

    def test_add_vertex_is_idempotent(self):
        graph = BipartiteGraph()
        graph.add_vertex(Side.UPPER, "u")
        graph.add_vertex(Side.UPPER, "u")
        assert graph.num_upper == 1

    def test_discard_isolated(self):
        graph = BipartiteGraph.from_edges([("u", "v")])
        graph.add_vertex(Side.UPPER, "alone")
        graph.remove_edge("u", "v")
        dropped = graph.discard_isolated()
        assert dropped == 3
        assert graph.num_vertices == 0


class TestInspection:
    def test_degree_and_neighbors(self, tiny_graph):
        assert tiny_graph.degree(Side.UPPER, "u0") == 3
        assert tiny_graph.degree(Side.LOWER, "v0") == 4
        assert set(tiny_graph.neighbors(Side.UPPER, "u0")) == {"v0", "v1", "v2"}

    def test_neighbors_of_handle(self, tiny_graph):
        assert set(tiny_graph.neighbors_of(upper("u0"))) == {"v0", "v1", "v2"}
        assert tiny_graph.degree_of(lower("v0")) == 4

    def test_missing_vertex_raises(self, tiny_graph):
        with pytest.raises(VertexNotFoundError):
            tiny_graph.neighbors(Side.UPPER, "missing")

    def test_missing_edge_weight_raises(self, tiny_graph):
        with pytest.raises(EdgeNotFoundError):
            tiny_graph.weight("u0", "nonexistent")

    def test_degrees_map(self, tiny_graph):
        degrees = tiny_graph.degrees(Side.UPPER)
        assert degrees == {"u0": 3, "u1": 3, "u2": 3, "u3": 1}

    def test_max_degree(self, tiny_graph):
        assert tiny_graph.max_degree(Side.UPPER) == 3
        assert tiny_graph.max_degree(Side.LOWER) == 4
        assert BipartiteGraph().max_degree(Side.UPPER) == 0

    def test_contains_vertex_handle(self, tiny_graph):
        assert upper("u0") in tiny_graph
        assert lower("v0") in tiny_graph
        assert upper("v0") not in tiny_graph
        assert "u0" not in tiny_graph  # only handles are recognised

    def test_len_is_vertex_count(self, tiny_graph):
        assert len(tiny_graph) == 4 + 3


class TestIteration:
    def test_edges_iteration(self, tiny_graph):
        edges = list(tiny_graph.edges())
        assert len(edges) == 10
        assert ("u3", "v0", 0.5) in edges

    def test_vertices_iteration_covers_both_sides(self, tiny_graph):
        vertices = list(tiny_graph.vertices())
        uppers = [v for v in vertices if v.side is Side.UPPER]
        lowers = [v for v in vertices if v.side is Side.LOWER]
        assert len(uppers) == 4
        assert len(lowers) == 3

    def test_edge_weights_iteration(self, tiny_graph):
        weights = sorted(tiny_graph.edge_weights())
        assert weights[0] == 0.5
        assert weights[-1] == 9.0

    def test_edge_set(self, tiny_graph):
        assert ("u3", "v0") in tiny_graph.edge_set()
        assert len(tiny_graph.edge_set()) == tiny_graph.num_edges


class TestAggregates:
    def test_significance_is_min_weight(self, tiny_graph):
        assert tiny_graph.significance() == 0.5

    def test_significance_of_empty_graph_raises(self):
        with pytest.raises(GraphError):
            BipartiteGraph().significance()

    def test_max_and_total_weight(self, tiny_graph):
        assert tiny_graph.max_weight() == 9.0
        assert tiny_graph.total_weight() == pytest.approx(sum(range(1, 10)) + 0.5)

    def test_size_matches_edge_count(self, tiny_graph):
        assert tiny_graph.size() == tiny_graph.num_edges == 10

    def test_summary_contains_expected_keys(self, tiny_graph):
        summary = tiny_graph.summary()
        assert summary["num_edges"] == 10
        assert summary["min_weight"] == 0.5
        assert summary["max_weight"] == 9.0


class TestTraversalAndValidation:
    def test_connected_component_vertices(self, two_block_graph):
        component = two_block_graph.connected_component_vertices(upper("b1"))
        labels = {v.label for v in component if v.side is Side.UPPER}
        # Block B reaches block A through the bridge edge (a0, y0).
        assert "a0" in labels

    def test_connected_component_of_missing_vertex_raises(self, tiny_graph):
        with pytest.raises(VertexNotFoundError):
            tiny_graph.connected_component_vertices(upper("missing"))

    def test_is_connected(self, tiny_graph):
        assert tiny_graph.is_connected()
        disconnected = BipartiteGraph.from_edges([("a", "x"), ("b", "y")])
        assert not disconnected.is_connected()
        assert not BipartiteGraph().is_connected()

    def test_copy_is_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.remove_edge("u0", "v0")
        assert tiny_graph.has_edge("u0", "v0")
        assert not clone.has_edge("u0", "v0")

    def test_copy_preserves_structure(self, tiny_graph):
        clone = tiny_graph.copy()
        assert clone.same_structure(tiny_graph)

    def test_same_structure_detects_weight_difference(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.add_edge("u0", "v0", 99.0)
        assert not clone.same_structure(tiny_graph)

    def test_same_structure_detects_missing_vertex(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.remove_vertex(Side.UPPER, "u3")
        assert not clone.same_structure(tiny_graph)

    def test_validate_passes_on_consistent_graph(self, tiny_graph):
        tiny_graph.validate()

    def test_validate_detects_corruption(self, tiny_graph):
        tiny_graph._num_edges += 1  # deliberately corrupt the counter
        with pytest.raises(GraphError):
            tiny_graph.validate()


class TestVertexHelpers:
    def test_upper_and_lower_constructors(self):
        assert upper("x") == Vertex(Side.UPPER, "x")
        assert lower("x") == Vertex(Side.LOWER, "x")
        assert upper("x") != lower("x")

    def test_side_other(self):
        assert Side.UPPER.other is Side.LOWER
        assert Side.LOWER.other is Side.UPPER
