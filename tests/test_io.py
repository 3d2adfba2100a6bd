"""Unit tests for edge-list reading and writing."""

from __future__ import annotations

import gzip

import pytest

from repro.exceptions import DatasetError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.io import iter_edge_lines, read_edge_list, read_konect, write_edge_list


class TestReading:
    def test_round_trip(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(tiny_graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_edges == tiny_graph.num_edges
        assert loaded.weight("u3", "v0") == pytest.approx(0.5)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("% comment\n\n# another\nu1 v1 2.5\nu2 v1\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2
        assert graph.weight("u1", "v1") == 2.5
        assert graph.weight("u2", "v1") == 1.0  # missing weight defaults to 1

    def test_nan_weight_is_rejected_and_inf_loads(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("u1 v1 2.5\nu2 v1 nan\n")
        with pytest.raises(InvalidParameterError, match="NaN"):
            read_edge_list(path)
        path.write_text("u1 v1 2.5\nu2 v1 inf\n")
        assert read_edge_list(path).weight("u2", "v1") == float("inf")

    def test_gzipped_input(self, tmp_path):
        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("a x 1.5\nb x 2.5\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("only-one-column\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    def test_invalid_weight_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u v notanumber\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    def test_read_konect_alias(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("u v 3\n")
        assert read_konect(path).num_edges == 1

    def test_iter_edge_lines_yields_triples(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("u v 3\nw x\n")
        triples = list(iter_edge_lines(path))
        assert triples == [("u", "v", 3.0), ("w", "x", 1.0)]


class TestWriting:
    def test_header_lines_written_as_comments(self, tmp_path):
        graph = BipartiteGraph.from_edges([("u", "v", 1.25)])
        path = tmp_path / "out" / "graph.txt"
        write_edge_list(graph, path, header=["hello", "world"])
        text = path.read_text()
        assert text.startswith("% hello\n% world\n")
        assert "u v 1.25" in text

    def test_default_name_from_filename(self, tmp_path):
        graph = BipartiteGraph.from_edges([("u", "v", 1.0)])
        path = tmp_path / "mygraph.txt"
        write_edge_list(graph, path)
        assert read_edge_list(path).name == "mygraph"
