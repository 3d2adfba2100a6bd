"""Unit tests for the frozen CSR graph backend and the backend resolver."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, InvalidParameterError, VertexNotFoundError
from repro.graph.bipartite import BipartiteGraph, Side, lower, upper
from repro.graph.csr import (
    AUTO_CSR_EDGE_THRESHOLD,
    CSRBipartiteGraph,
    freeze,
    resolve_backend,
    thaw,
)
from repro.graph.generators import paper_example_graph, random_bipartite


class TestFreeze:
    def test_freeze_preserves_sizes(self, tiny_graph):
        csr = freeze(tiny_graph)
        assert csr.num_upper == tiny_graph.num_upper
        assert csr.num_lower == tiny_graph.num_lower
        assert csr.num_edges == tiny_graph.num_edges
        assert csr.num_vertices == tiny_graph.num_vertices
        csr.validate()

    def test_freeze_preserves_label_order(self, tiny_graph):
        csr = freeze(tiny_graph)
        assert csr.upper_labels == list(tiny_graph.upper_labels())
        assert csr.lower_labels == list(tiny_graph.lower_labels())

    def test_degrees_match(self, tiny_graph):
        csr = freeze(tiny_graph)
        for i, label in enumerate(csr.upper_labels):
            assert int(csr.upper_degrees()[i]) == tiny_graph.degree(Side.UPPER, label)
        for i, label in enumerate(csr.lower_labels):
            assert int(csr.lower_degrees()[i]) == tiny_graph.degree(Side.LOWER, label)

    def test_weights_preserved(self, tiny_graph):
        csr = freeze(tiny_graph)
        indptr, indices, weights = csr.layer(Side.UPPER)
        for i, label in enumerate(csr.upper_labels):
            for pos in range(int(indptr[i]), int(indptr[i + 1])):
                nbr = csr.lower_labels[int(indices[pos])]
                assert weights[pos] == tiny_graph.weight(label, nbr)

    def test_freeze_keeps_isolated_vertices(self):
        graph = BipartiteGraph.from_edges([("u0", "v0")])
        graph.add_vertex(Side.UPPER, "alone_u")
        graph.add_vertex(Side.LOWER, "alone_v")
        csr = freeze(graph)
        assert csr.num_upper == 2
        assert csr.num_lower == 2
        assert int(csr.upper_degrees()[csr.vertex_id(upper("alone_u"))]) == 0

    def test_freeze_empty_graph(self):
        csr = freeze(BipartiteGraph(name="empty"))
        assert csr.num_vertices == 0
        assert csr.num_edges == 0
        csr.validate()
        assert thaw(csr).is_empty()

    def test_duplicate_labels_across_layers(self):
        graph = BipartiteGraph.from_edges([(3, 3, 2.0), (3, 4, 1.0)])
        csr = freeze(graph)
        assert csr.vertex_id(upper(3)) != csr.vertex_id(lower(3)) or (
            csr.upper_labels[csr.vertex_id(upper(3))] == 3
            and csr.lower_labels[csr.vertex_id(lower(3))] == 3
        )
        assert thaw(csr).same_structure(graph)


class TestThaw:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_random(self, seed):
        graph = random_bipartite(20, 18, 60, seed=seed)
        assert thaw(freeze(graph)).same_structure(graph)

    def test_round_trip_paper_example(self):
        graph = paper_example_graph()
        thawed = thaw(freeze(graph))
        assert thawed.same_structure(graph)
        assert thawed.name == graph.name

    def test_method_aliases(self, tiny_graph):
        csr = CSRBipartiteGraph.freeze(tiny_graph)
        assert csr.thaw().same_structure(tiny_graph)


class TestIdTranslation:
    def test_vertex_id_and_handles(self, tiny_graph):
        csr = freeze(tiny_graph)
        for handle in list(tiny_graph.vertices()):
            vid = csr.vertex_id(handle)
            assert csr.handles(handle.side)[vid] == handle
        assert csr.has_vertex(Side.UPPER, "u0")
        assert not csr.has_vertex(Side.UPPER, "missing")

    def test_missing_vertex_raises(self, tiny_graph):
        csr = freeze(tiny_graph)
        with pytest.raises(VertexNotFoundError):
            csr.vertex_id(upper("missing"))

    def test_handle_arrays_align_with_lists(self, tiny_graph):
        csr = freeze(tiny_graph)
        assert csr.upper_handle_array().tolist() == csr.upper_handles()
        assert csr.lower_handle_array().tolist() == csr.lower_handles()

    def test_zero_offsets_covers_all_vertices(self, tiny_graph):
        csr = freeze(tiny_graph)
        zeros = csr.zero_offsets()
        assert set(zeros) == set(tiny_graph.vertices())
        assert all(value == 0 for value in zeros.values())
        # The returned dict is a private copy, not the shared prototype.
        zeros[upper("u0")] = 99
        assert csr.zero_offsets()[upper("u0")] == 0


class TestValidate:
    def test_validate_detects_corruption(self, tiny_graph):
        csr = freeze(tiny_graph)
        csr.u_indices = csr.u_indices.copy()
        csr.u_indices[0] = csr.num_lower + 5
        with pytest.raises(GraphError):
            csr.validate()


class TestResolveBackend:
    def test_explicit_backends_are_honoured(self, tiny_graph):
        assert resolve_backend("dict", tiny_graph) == "dict"
        assert resolve_backend("csr", tiny_graph) == "csr"

    def test_unknown_backend_rejected(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            resolve_backend("numpy", tiny_graph)

    def test_auto_uses_dict_below_threshold(self, tiny_graph):
        assert tiny_graph.num_edges < AUTO_CSR_EDGE_THRESHOLD
        assert resolve_backend("auto", tiny_graph) == "dict"

    def test_auto_uses_csr_above_threshold(self):
        graph = random_bipartite(120, 120, AUTO_CSR_EDGE_THRESHOLD, seed=0)
        assert resolve_backend("auto", graph) == "csr"
