"""Unit tests for the user-facing ``python -m repro`` command line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.graph.generators import paper_example_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "paper.txt"
    write_edge_list(paper_example_graph(), path)
    return path


class TestInfo:
    def test_info_on_dataset(self, capsys):
        assert main(["info", "--dataset", "BS", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "degeneracy" in out
        assert "alpha_max" in out

    def test_info_on_edge_file(self, capsys, edge_file):
        assert main(["info", "--edges", str(edge_file)]) == 0
        out = capsys.readouterr().out
        assert "999 / 999 / 2006" in out


class TestSearch:
    def test_search_with_explicit_query(self, capsys, edge_file):
        code = main(
            ["search", "--edges", str(edge_file), "--alpha", "2", "--beta", "2",
             "--query-upper", "u3", "--method", "peel"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "significant (2,2)-community" in out
        assert "u3, u4" in out

    def test_search_picks_query_automatically(self, capsys):
        code = main(["search", "--dataset", "GH", "--scale", "0.2", "--alpha", "2", "--beta", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no query vertex given" in out
        assert "significant (2,2)-community" in out

    def test_search_query_outside_core_fails_cleanly(self, capsys, edge_file):
        code = main(
            ["search", "--edges", str(edge_file), "--alpha", "3", "--beta", "3",
             "--query-upper", "u999"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_search_impossible_thresholds_fail_cleanly(self, capsys, edge_file):
        code = main(
            ["search", "--edges", str(edge_file), "--alpha", "50", "--beta", "50"]
        )
        assert code == 1
        assert "choose smaller thresholds" in capsys.readouterr().err

    def test_lower_side_query(self, capsys, edge_file):
        code = main(
            ["search", "--edges", str(edge_file), "--alpha", "2", "--beta", "2",
             "--query-lower", "v2", "--max-print", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "more edges" in out or "weight" in out

    def test_search_without_any_source_fails_cleanly(self, capsys):
        code = main(["search", "--alpha", "2", "--beta", "2"])
        assert code == 1
        assert "--dataset, --edges or --index" in capsys.readouterr().err

    def test_search_from_saved_pickle_index(self, capsys, tmp_path, edge_file):
        from repro.graph.io import read_edge_list
        from repro.index.degeneracy_index import DegeneracyIndex
        from repro.index.serialization import save_index

        index = DegeneracyIndex(read_edge_list(edge_file))
        path = save_index(index, tmp_path / "idx.pkl")
        code = main(
            ["search", "--index", str(path), "--alpha", "2", "--beta", "2",
             "--query-upper", "u3", "--method", "peel"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "significant (2,2)-community" in out
        assert "u3, u4" in out

    def test_search_with_missing_index_fails_cleanly(self, capsys, tmp_path):
        code = main(
            ["search", "--index", str(tmp_path / "missing.pkl"),
             "--alpha", "2", "--beta", "2"]
        )
        assert code == 1
        assert "cannot open index" in capsys.readouterr().err

    def test_search_rejects_index_plus_graph_source(self, capsys, tmp_path, edge_file):
        code = main(
            ["search", "--edges", str(edge_file), "--index", str(tmp_path / "x"),
             "--alpha", "2", "--beta", "2"]
        )
        assert code == 1
        assert "not both" in capsys.readouterr().err


class TestSnapshotAndServe:
    @pytest.fixture
    def snapshot_dir(self, capsys, tmp_path, edge_file):
        out_dir = tmp_path / "snap"
        assert main(["snapshot", "--edges", str(edge_file), "--out", str(out_dir)]) == 0
        output = capsys.readouterr().out
        assert "delta" in output
        return out_dir

    def test_snapshot_writes_manifest(self, snapshot_dir):
        assert (snapshot_dir / "manifest.json").is_file()
        assert (snapshot_dir / "arrays.bin").is_file()

    def test_search_from_snapshot(self, capsys, snapshot_dir):
        code = main(
            ["search", "--index", str(snapshot_dir), "--alpha", "2", "--beta", "2",
             "--query-upper", "u3", "--method", "peel"]
        )
        assert code == 0
        assert "significant (2,2)-community" in capsys.readouterr().out

    def test_serve_with_sampled_queries(self, capsys, snapshot_dir):
        code = main(
            ["serve", "--snapshot", str(snapshot_dir), "--workers", "2",
             "--alpha", "2", "--beta", "2", "--sample", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "queries/s" in out

    def test_serve_with_query_file(self, capsys, tmp_path, snapshot_dir):
        queries = tmp_path / "queries.txt"
        queries.write_text("# a comment\nupper u3 2 2\nlower v2 2 2\nupper u3 50 50\n")
        code = main(
            ["serve", "--snapshot", str(snapshot_dir), "--workers", "1",
             "--queries", str(queries), "--on-empty", "none"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-> empty" in out
        assert "answered 3 queries" in out

    def test_serve_rejects_malformed_query_file(self, capsys, tmp_path, snapshot_dir):
        queries = tmp_path / "bad.txt"
        queries.write_text("sideways u3 2 2\n")
        code = main(
            ["serve", "--snapshot", str(snapshot_dir), "--queries", str(queries)]
        )
        assert code == 1
        assert "expected" in capsys.readouterr().err

    def test_serve_on_missing_snapshot_fails_cleanly(self, capsys, tmp_path):
        code = main(["serve", "--snapshot", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUpdateAndStats:
    @pytest.fixture
    def snapshot_dir(self, capsys, tmp_path, edge_file):
        out_dir = tmp_path / "snap"
        assert main(["snapshot", "--edges", str(edge_file), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        return out_dir

    def test_update_appends_a_delta_segment(self, capsys, tmp_path, snapshot_dir):
        # The paper example graph's labels: updates stay inside the base id
        # space, so the re-save appends a delta instead of rewriting.
        ops = tmp_path / "ops.tsv"
        ops.write_text("remove u1 v1\ninsert u3 v6 2.5\n+ u4 v1 1.5\n", encoding="utf-8")
        assert main(["update", "--index", str(snapshot_dir), "--ops", str(ops)]) == 0
        out = capsys.readouterr().out
        assert "applied    : 3 updates" in out
        assert "base + 1 delta segment(s)" in out
        assert (snapshot_dir / "delta-00001.json").is_file()
        # The updated snapshot answers like a fresh rebuild of the new graph.
        from repro.graph.bipartite import upper
        from repro.index.degeneracy_index import DegeneracyIndex
        from repro.serving.snapshot import load_snapshot

        replayed = load_snapshot(snapshot_dir)
        graph = paper_example_graph()
        graph.remove_edge("u1", "v1")
        graph.discard_isolated()
        graph.add_edge("u3", "v6", 2.5)
        graph.add_edge("u4", "v1", 1.5)
        fresh = DegeneracyIndex(graph)
        assert replayed.delta == fresh.delta
        answer = replayed.community(upper("u3"), 2, 2)
        assert answer.same_structure(fresh.community(upper("u3"), 2, 2))

    def test_update_never_materialises_the_graph_per_op(
        self, capsys, monkeypatch, tmp_path, snapshot_dir
    ):
        import random

        from repro.graph.bipartite import Side, Vertex
        from repro.index import serialization
        from repro.index.degeneracy_index import DegeneracyIndex
        from repro.index.maintenance import DynamicDegeneracyIndex
        from repro.serving.snapshot import load_snapshot

        # 50 ops over the base's labels, mirrored on a dict graph.
        rng = random.Random(7)
        working = paper_example_graph()
        uppers, lowers = sorted(working.upper_labels()), sorted(working.lower_labels())
        lines = []
        for step in range(50):
            edges = sorted((u, v) for u, v, _ in working.edges())
            if step % 2 and edges:
                u, v = rng.choice(edges)
                working.remove_edge(u, v)
                working.discard_isolated()
                lines.append(f"remove {u} {v}")
            else:
                u, v, w = rng.choice(uppers), rng.choice(lowers), rng.randint(1, 9)
                working.add_edge(u, v, float(w))
                lines.append(f"insert {u} {v} {w}")
        ops = tmp_path / "ops.tsv"
        ops.write_text("\n".join(lines) + "\n", encoding="utf-8")

        calls = {"graph": 0, "before_save": None}
        materialise = DynamicDegeneracyIndex.graph.fget

        def counting_graph(index):
            calls["graph"] += 1
            return materialise(index)

        save_index = serialization.save_index

        def counting_save(*args, **kwargs):
            calls["before_save"] = calls["graph"]
            return save_index(*args, **kwargs)

        monkeypatch.setattr(DynamicDegeneracyIndex, "graph", property(counting_graph))
        monkeypatch.setattr(serialization, "save_index", counting_save)
        assert main(["update", "--index", str(snapshot_dir), "--ops", str(ops)]) == 0
        assert "applied    : 50 updates" in capsys.readouterr().out
        assert calls["before_save"] == 0

        replayed = load_snapshot(snapshot_dir)
        fresh = DegeneracyIndex(working)
        assert replayed.graph.same_structure(working)
        assert replayed.delta == fresh.delta
        queries = [
            (Vertex(side, label), a, b)
            for side in (Side.UPPER, Side.LOWER)
            for label in sorted(working.labels(side))
            for a, b in ((1, 1), (2, 2), (2, 3))
        ]
        for got, want in zip(
            replayed.batch_community(queries, on_empty="none"),
            fresh.batch_community(queries, on_empty="none"),
        ):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.same_structure(want)

    def test_update_skips_absent_removals(self, capsys, tmp_path, snapshot_dir):
        ops = tmp_path / "ops.tsv"
        ops.write_text("remove nope nothere\ninsert u3 v6 1.0\n", encoding="utf-8")
        assert main(["update", "--index", str(snapshot_dir), "--ops", str(ops)]) == 0
        assert "1 removals skipped" in capsys.readouterr().out

    def test_update_rejects_malformed_ops(self, capsys, tmp_path, snapshot_dir):
        ops = tmp_path / "ops.tsv"
        ops.write_text("frobnicate u1 v1\n", encoding="utf-8")
        assert main(["update", "--index", str(snapshot_dir), "--ops", str(ops)]) == 1
        assert "expected 'insert" in capsys.readouterr().err

    def test_update_rejects_a_nan_weight(self, capsys, tmp_path, snapshot_dir):
        from repro.serving.snapshot import snapshot_version

        ops = tmp_path / "ops.tsv"
        ops.write_text("insert u3 v6 nan\n", encoding="utf-8")
        assert main(["update", "--index", str(snapshot_dir), "--ops", str(ops)]) == 1
        assert "NaN weight" in capsys.readouterr().err
        assert snapshot_version(snapshot_dir) == 0  # nothing was saved
        ops.write_text("insert u3 v6 inf\n", encoding="utf-8")
        assert main(["update", "--index", str(snapshot_dir), "--ops", str(ops)]) == 0

    def test_stats_reports_maintenance_counters(self, capsys, tmp_path, snapshot_dir):
        ops = tmp_path / "ops.tsv"
        ops.write_text("insert u3 v6 2.0\n", encoding="utf-8")
        assert main(["update", "--index", str(snapshot_dir), "--ops", str(ops)]) == 0
        capsys.readouterr()
        assert main(["stats", "--index", str(snapshot_dir)]) == 0
        out = capsys.readouterr().out
        assert "levels_patched" in out
        assert "region_mean_vertices" in out
        assert "arrays_patch_hit_rate" not in out
        assert "snapshot_version" in out

    def test_update_pickle_round_trip(self, capsys, tmp_path, edge_file):
        from repro.graph.io import read_edge_list
        from repro.index.maintenance import DynamicDegeneracyIndex
        from repro.index.serialization import load_index, save_index

        index_path = tmp_path / "index.pkl"
        save_index(DynamicDegeneracyIndex(read_edge_list(edge_file)), index_path)
        ops = tmp_path / "ops.tsv"
        ops.write_text("insert u3 v6 2.0\n", encoding="utf-8")
        assert main(["update", "--index", str(index_path), "--ops", str(ops)]) == 0
        reloaded = load_index(index_path)
        assert reloaded.graph.has_edge("u3", "v6")
