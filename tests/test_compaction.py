"""Snapshot compaction: folding a delta chain into a fresh base generation.

:func:`repro.serving.compaction.compact_snapshot` must be answer-preserving
(batch answers on the compacted base equal answers on the un-compacted
chain), reset the version to 0, keep the directory loadable through every
crash window of its swap protocol, and re-bind a live writer's journal so
appends continue on the new base.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from repro.exceptions import IndexConsistencyError
from repro.index.maintenance import DynamicDegeneracyIndex
from repro.index.serialization import save_index
from repro.serving.compaction import CompactionReport, compact_snapshot
from repro.serving.snapshot import (
    DATA_NAME,
    MANIFEST_NAME,
    load_snapshot,
    snapshot_version,
)
from tests.test_snapshot_deltas import (
    all_queries,
    apply_churn,
    assert_same_answers,
    churn_graph,
)


def saved_chain(tmp_path, seed: int = 21, segments: int = 3, updates: int = 10):
    """A snapshot directory with ``segments`` delta segments, plus its writer."""
    dynamic = DynamicDegeneracyIndex(churn_graph(seed), backend="dict")
    target = tmp_path / "snap"
    save_index(dynamic, target, format="snapshot")
    rng = random.Random(seed + 1)
    for _ in range(segments):
        apply_churn(dynamic, rng, updates)
        save_index(dynamic, target, format="snapshot")
    return target, dynamic


class TestCompaction:
    def test_folds_chain_and_preserves_answers(self, tmp_path):
        target, dynamic = saved_chain(tmp_path)
        chained = load_snapshot(target)
        queries = all_queries(chained.graph, chained.delta)
        before = chained.batch_community(queries, on_empty="none")
        old_id = chained.snapshot_id

        report = compact_snapshot(target)
        assert isinstance(report, CompactionReport)
        assert report.compacted and report.folded_deltas == 3
        assert report.previous_id == old_id
        assert report.snapshot_id != old_id
        assert snapshot_version(target) == 0

        compacted = load_snapshot(target)
        assert compacted.snapshot_id == report.snapshot_id
        assert compacted.version == 0
        after = compacted.batch_community(queries, on_empty="none")
        for got, want in zip(after, before):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.same_structure(want)
        assert compacted.graph.same_structure(dynamic.graph)

    def test_cleanup_retires_old_generation(self, tmp_path):
        target, _ = saved_chain(tmp_path)
        compact_snapshot(target)
        names = sorted(path.name for path in target.iterdir())
        assert MANIFEST_NAME in names
        assert not any(name.startswith("delta-") for name in names)
        assert DATA_NAME not in names  # the base moved to a generation file
        assert any(name.startswith("arrays-") for name in names)
        assert not any(name.startswith(".compact-") for name in names)
        manifest = json.loads((target / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["compacted"]["sequence"] == 3
        assert manifest["data"]["file"].startswith("arrays-")

    def test_noop_on_chainless_base(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(4), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        before = sorted(path.name for path in target.iterdir())
        report = compact_snapshot(target)
        assert not report.compacted
        assert report.snapshot_id == report.previous_id
        assert sorted(path.name for path in target.iterdir()) == before

    def test_intern_table_is_rewritten(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(6), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        from repro.graph.bipartite import Side

        victim = sorted(dynamic.graph.upper_labels())[0]
        for neighbor in list(dynamic.graph.neighbors(Side.UPPER, victim)):
            dynamic.remove_edge(victim, neighbor)
        save_index(dynamic, target, format="snapshot")
        assert victim in json.loads(
            (target / "labels.json").read_text(encoding="utf-8")
        )["upper"]
        compact_snapshot(target)
        manifest = json.loads((target / MANIFEST_NAME).read_text(encoding="utf-8"))
        labels = json.loads(
            (target / manifest["labels"]["file"]).read_text(encoding="utf-8")
        )
        assert victim not in labels["upper"]

    def test_double_compaction_is_stable(self, tmp_path):
        target, dynamic = saved_chain(tmp_path)
        compact_snapshot(target, journal=dynamic.journal)
        report = compact_snapshot(target, journal=dynamic.journal)
        assert not report.compacted
        queries = all_queries(dynamic.graph, dynamic.delta)
        assert_same_answers(load_snapshot(target), dynamic, queries)


class TestWriterRebind:
    def test_journal_rebinds_and_appends_continue(self, tmp_path):
        target, dynamic = saved_chain(tmp_path)
        report = compact_snapshot(target, journal=dynamic.journal)
        assert dynamic.journal.base_id == report.snapshot_id
        assert dynamic.journal.base_sequence == 0
        apply_churn(dynamic, random.Random(99), 8)
        save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 1
        queries = all_queries(dynamic.graph, dynamic.delta)
        assert_same_answers(load_snapshot(target), dynamic, queries)

    def test_auto_compaction_policy_bounds_the_chain(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(
            churn_graph(31), backend="dict", max_chain_len=2
        )
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        rng = random.Random(32)
        versions = []
        for _ in range(5):
            apply_churn(dynamic, rng, 6)
            save_index(dynamic, target, format="snapshot")
            versions.append(snapshot_version(target))
        assert max(versions) < 2  # the chain never reaches the policy length
        assert 0 in versions  # ... because compactions kept resetting it
        extra = dynamic.stats().extra
        assert extra["compactions"] >= 2
        assert extra["deltas_folded"] >= 2 * extra["compactions"] - 1
        queries = all_queries(dynamic.graph, dynamic.delta)
        assert_same_answers(load_snapshot(target), dynamic, queries)

    def test_from_snapshot_carries_the_policy(self, tmp_path):
        target, _ = saved_chain(tmp_path, segments=1)
        reopened = DynamicDegeneracyIndex.from_snapshot(
            load_snapshot(target), max_chain_len=1
        )
        apply_churn(reopened, random.Random(7), 6)
        save_index(reopened, target, format="snapshot")
        assert snapshot_version(target) == 0  # append + immediate fold
        assert reopened.stats().extra["compactions"] == 1


class TestCrashWindows:
    def test_folded_segments_left_by_crashed_cleanup_are_skipped(self, tmp_path):
        target, dynamic = saved_chain(tmp_path)
        backup = tmp_path / "backup"
        shutil.copytree(target, backup)
        compact_snapshot(target)
        # Simulate a crash after the manifest swap but before any cleanup:
        # every old chain file reappears next to the compacted manifest.
        for path in backup.glob("delta-*"):
            shutil.copy2(path, target / path.name)
        assert snapshot_version(target) == 0
        compacted = load_snapshot(target)
        assert compacted.version == 0
        queries = all_queries(dynamic.graph, dynamic.delta)
        assert_same_answers(compacted, dynamic, queries)
        # The next compaction (or save) clears the leftovers for good.
        compact_snapshot(target)
        assert not list(target.glob("delta-*"))

    def test_partial_tail_first_cleanup_stays_loadable(self, tmp_path):
        target, dynamic = saved_chain(tmp_path)
        backup = tmp_path / "backup"
        shutil.copytree(target, backup)
        compact_snapshot(target)
        # Tail-first deletion crashed halfway: only the head of the old chain
        # survives, still contiguous from delta-00001.
        for path in backup.glob("delta-0000[12].*"):
            shutil.copy2(path, target / path.name)
        assert snapshot_version(target) == 0
        queries = all_queries(dynamic.graph, dynamic.delta)
        assert_same_answers(load_snapshot(target), dynamic, queries)

    def test_crashed_staging_and_orphan_generations_are_cleared(self, tmp_path):
        target, dynamic = saved_chain(tmp_path)
        staging = target / ".compact-dead"
        staging.mkdir()
        (staging / "arrays.bin").write_bytes(b"junk")
        (target / "arrays-00000000dead.bin").write_bytes(b"junk")
        # Neither artifact affects reads...
        chained = load_snapshot(target)
        assert chained.version == 3
        # ... and a compaction clears both.
        compact_snapshot(target)
        assert not (target / ".compact-dead").exists()
        assert not (target / "arrays-00000000dead.bin").exists()
        queries = all_queries(dynamic.graph, dynamic.delta)
        assert_same_answers(load_snapshot(target), dynamic, queries)

    def test_foreign_delta_still_raises(self, tmp_path):
        target, _ = saved_chain(tmp_path, segments=1)
        manifest_path = target / "delta-00001.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["base_id"] = "not-the-base"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexConsistencyError, match="different base"):
            load_snapshot(target)
        with pytest.raises(IndexConsistencyError, match="different base"):
            snapshot_version(target)


class TestServingAndCli:
    def test_server_reload_picks_up_the_compacted_generation(self, tmp_path):
        from repro.serving.server import CommunityServer

        target, dynamic = saved_chain(tmp_path, seed=41, segments=2)
        queries = [(v, 2, 2) for v in dynamic.vertices_in_core(2, 2)[:8]]
        if not queries:
            pytest.skip("graph has no (2,2)-core")
        with CommunityServer(target, num_workers=2) as server:
            assert server.snapshot_version() == 2
            before = server.batch_community(queries, on_empty="none")
            compact_snapshot(target, journal=dynamic.journal)
            server.reload()
            assert server.snapshot_version() == 0
            after = server.batch_community(queries, on_empty="none")
            for got, want in zip(after, before):
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.same_structure(want)

    def test_cli_compact_and_stats(self, tmp_path, capsys):
        from repro.__main__ import main

        target, _ = saved_chain(tmp_path, seed=51, segments=2)
        assert main(["compact", "--snapshot", str(target)]) == 0
        out = capsys.readouterr().out
        assert "folded     : 2 delta segment(s)" in out
        assert snapshot_version(target) == 0
        assert main(["compact", "--snapshot", str(target)]) == 0
        assert "nothing to fold" in capsys.readouterr().out
        assert main(["stats", "--index", str(target)]) == 0
        assert "base + 0 delta segment(s)" in capsys.readouterr().out

    def test_cli_update_with_max_chain_len(self, tmp_path, capsys):
        from repro.__main__ import main

        target, dynamic = saved_chain(tmp_path, seed=61, segments=1)
        upper = sorted(dynamic.graph.upper_labels())[0]
        lower = sorted(dynamic.graph.lower_labels())[0]
        ops = tmp_path / "ops.txt"
        ops.write_text(f"insert {upper} {lower} 5\n", encoding="utf-8")
        assert (
            main(
                [
                    "update",
                    "--index",
                    str(target),
                    "--ops",
                    str(ops),
                    "--max-chain-len",
                    "2",
                ]
            )
            == 0
        )
        # chain was 1, the update appended the 2nd segment -> policy folded it
        assert snapshot_version(target) == 0
        assert "base + 0 delta segment(s)" in capsys.readouterr().out
