"""Unit tests for index serialisation: version-1 pickle and version-2 snapshot."""

from __future__ import annotations

import json
import pickle

import pytest

from repro import __version__
from repro.exceptions import (
    EmptyCommunityError,
    IndexConsistencyError,
    InvalidParameterError,
)
from repro.graph.bipartite import upper
from repro.index.bicore_index import BicoreIndex
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.serialization import index_stats_path, load_index, save_index

from tests.reference import assert_same_graph


class TestSaveLoad:
    def test_round_trip_degeneracy_index(self, tmp_path, two_block_graph):
        index = DegeneracyIndex(two_block_graph)
        path = save_index(index, tmp_path / "idx.pkl")
        loaded = load_index(path)
        assert isinstance(loaded, DegeneracyIndex)
        assert loaded.delta == index.delta
        assert_same_graph(
            loaded.community(upper("a0"), 2, 2), index.community(upper("a0"), 2, 2)
        )

    def test_round_trip_bicore_index(self, tmp_path, tiny_graph):
        index = BicoreIndex(tiny_graph)
        path = save_index(index, tmp_path / "sub" / "iv.pkl")
        loaded = load_index(path)
        assert loaded.core_vertices(2, 2) == index.core_vertices(2, 2)

    def test_stats_sidecar_written(self, tmp_path, tiny_graph):
        index = DegeneracyIndex(tiny_graph)
        path = save_index(index, tmp_path / "idx.pkl")
        sidecar = index_stats_path(path)
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        assert payload["name"] == "Idelta"
        assert payload["entries"] == index.stats().entries

    def test_stats_sidecar_records_provenance(self, tmp_path, tiny_graph):
        index = DegeneracyIndex(tiny_graph, backend="dict")
        payload = json.loads(
            index_stats_path(save_index(index, tmp_path / "idx.pkl")).read_text()
        )
        assert payload["backend"] == "dict"
        assert payload["repro_version"] == __version__
        assert payload["format"] == "pickle"
        assert payload["format_version"] == 1

    def test_loaded_index_raises_like_original(self, tmp_path, tiny_graph):
        index = DegeneracyIndex(tiny_graph)
        loaded = load_index(save_index(index, tmp_path / "idx.pkl"))
        with pytest.raises(EmptyCommunityError):
            loaded.community(upper("u3"), 2, 2)

    def test_unknown_format_rejected(self, tmp_path, tiny_graph):
        index = DegeneracyIndex(tiny_graph)
        with pytest.raises(InvalidParameterError):
            save_index(index, tmp_path / "idx.bin", format="parquet")


class TestErrorHandling:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"magic": "something-else"}, handle)
        with pytest.raises(IndexConsistencyError):
            load_index(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"magic": "repro-community-index", "version": 999, "index": None}, handle)
        with pytest.raises(IndexConsistencyError):
            load_index(path)

    def test_non_index_payload_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": "repro-community-index", "version": 1, "index": "not an index"},
                handle,
            )
        with pytest.raises(IndexConsistencyError):
            load_index(path)

    def test_non_pickle_file_rejected_with_path(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_text("this was never a pickle")
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(path)
        assert str(path) in str(excinfo.value)

    def test_truncated_pickle_rejected_with_path(self, tmp_path, tiny_graph):
        index = DegeneracyIndex(tiny_graph)
        path = save_index(index, tmp_path / "idx.pkl")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(path)
        assert str(path) in str(excinfo.value)

    def test_missing_file_still_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "absent.pkl")


class TestSnapshotFormat:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_round_trip_both_backends(self, tmp_path, two_block_graph, backend):
        index = DegeneracyIndex(two_block_graph, backend=backend)
        directory = save_index(index, tmp_path / f"snap-{backend}", format="snapshot")
        assert (directory / "manifest.json").is_file()
        loaded = load_index(directory)
        assert loaded.delta == index.delta
        assert loaded.backend == backend
        for alpha, beta in ((1, 1), (2, 2), (3, 3)):
            assert set(loaded.vertices_in_core(alpha, beta)) == set(
                index.vertices_in_core(alpha, beta)
            )
        assert_same_graph(
            loaded.community(upper("a0"), 2, 2), index.community(upper("a0"), 2, 2)
        )

    def test_load_by_manifest_path(self, tmp_path, two_block_graph):
        index = DegeneracyIndex(two_block_graph)
        directory = save_index(index, tmp_path / "snap", format="snapshot")
        loaded = load_index(directory / "manifest.json")
        assert loaded.delta == index.delta

    def test_manifest_records_provenance(self, tmp_path, two_block_graph):
        index = DegeneracyIndex(two_block_graph, backend="dict")
        directory = save_index(index, tmp_path / "snap", format="snapshot")
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["magic"] == "repro-community-index"
        assert manifest["version"] == 2
        assert manifest["backend"] == "dict"
        assert manifest["repro_version"] == __version__
        assert manifest["index"]["delta"] == index.delta
        assert manifest["graph"]["num_edges"] == two_block_graph.num_edges

    def test_snapshot_rejected_for_unsupported_index(self, tmp_path, tiny_graph):
        index = BicoreIndex(tiny_graph)
        with pytest.raises(InvalidParameterError):
            save_index(index, tmp_path / "snap", format="snapshot")

    def test_corrupted_manifest_json(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        (directory / "manifest.json").write_text("{ not json")
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(directory)
        assert str(directory) in str(excinfo.value)

    def test_wrong_manifest_magic(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["magic"] = "other"
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexConsistencyError):
            load_index(directory)

    def test_wrong_manifest_version(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["version"] = 999
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexConsistencyError):
            load_index(directory)

    def test_missing_data_file(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        (directory / "arrays.bin").unlink()
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(directory)
        assert "arrays.bin" in str(excinfo.value)

    def test_truncated_data_file(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        data = (directory / "arrays.bin").read_bytes()
        (directory / "arrays.bin").write_bytes(data[: len(data) // 3])
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(directory)
        assert "segment" in str(excinfo.value)

    def test_missing_segment_record(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        manifest = json.loads((directory / "manifest.json").read_text())
        del manifest["segments"]["graph/u_indptr"]
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(directory)
        assert "graph/u_indptr" in str(excinfo.value)

    def test_inconsistent_segment_record(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["segments"]["graph/u_indices"]["nbytes"] -= 8  # shape no longer fits
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(directory)
        assert str(directory) in str(excinfo.value)

    def test_resave_over_existing_snapshot(self, tmp_path, two_block_graph, tiny_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        save_index(DegeneracyIndex(tiny_graph), directory, format="snapshot")
        loaded = load_index(directory)
        assert loaded.graph.same_structure(tiny_graph)

    def test_missing_label_table(self, tmp_path, two_block_graph):
        directory = save_index(
            DegeneracyIndex(two_block_graph), tmp_path / "snap", format="snapshot"
        )
        (directory / "labels.json").unlink()
        with pytest.raises(IndexConsistencyError) as excinfo:
            load_index(directory)
        assert "labels.json" in str(excinfo.value)

    def test_directory_without_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(IndexConsistencyError):
            load_index(empty)
