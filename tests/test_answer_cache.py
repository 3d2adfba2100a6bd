"""Unit and integration tests for the cross-batch answer cache."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.generators import power_law_bipartite
from repro.serving.answer_cache import AnswerCache


class TestDirectProtocol:
    def test_get_by_any_member(self):
        cache = AnswerCache(max_entries=8)
        assert cache.put("space", [3, 1, 2], "answer")
        for member in (1, 2, 3):
            assert cache.get("space", member) == "answer"
        assert cache.get("space", 4) is None
        assert cache.get("other", 1, default="missing") == "missing"

    def test_entry_is_per_component_not_per_member(self):
        cache = AnswerCache(max_entries=8)
        cache.put("s", range(100), "big")
        assert len(cache) == 1

    def test_spaces_are_disjoint(self):
        cache = AnswerCache(max_entries=8)
        cache.put((2, 2), [1], "a")
        cache.put((3, 3), [1], "b")
        assert cache.get((2, 2), 1) == "a"
        assert cache.get((3, 3), 1) == "b"

    def test_lru_eviction_order_and_counters(self):
        cache = AnswerCache(max_entries=2)
        cache.put("s", [1], "one")
        cache.put("s", [2], "two")
        assert cache.get("s", 1) == "one"  # touch 1 so 2 is oldest
        cache.put("s", [3], "three")
        assert cache.evictions == 1
        assert cache.get("s", 2) is None  # evicted
        assert cache.get("s", 1) == "one"
        assert cache.get("s", 3) == "three"
        stats = cache.stats()
        assert stats["answer_cache_entries"] == 2.0
        assert stats["answer_cache_hits"] == 3.0
        assert stats["answer_cache_misses"] == 1.0
        assert stats["answer_cache_evictions"] == 1.0

    def test_eviction_unlinks_every_member(self):
        cache = AnswerCache(max_entries=1)
        cache.put("s", [1, 2, 3], "a")
        cache.put("s", [9], "b")
        for member in (1, 2, 3):
            assert cache.get("s", member) is None
        assert cache.get("s", 9) == "b"

    def test_put_refreshes_existing_root(self):
        cache = AnswerCache(max_entries=4)
        cache.put("s", [1, 2], "old")
        cache.put("s", [1, 2], "new")
        assert len(cache) == 1
        assert cache.get("s", 2) == "new"

    def test_rejects_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            AnswerCache(max_entries=0)
        with pytest.raises(InvalidParameterError):
            AnswerCache(max_entries="many")  # type: ignore[arg-type]


class TestGenerationFencing:
    def test_put_refuses_stale_generation(self):
        cache = AnswerCache(max_entries=4, generation=("snap", 1))
        assert cache.put("s", [1], "current", generation=("snap", 1))
        assert not cache.put("s", [2], "stale", generation=("snap", 0))
        assert cache.get("s", 1) == "current"
        assert cache.get("s", 2) is None

    def test_reset_swaps_generation_and_drops_everything(self):
        cache = AnswerCache(max_entries=4, generation=("snap", 1))
        cache.put("s", [1], "old", generation=("snap", 1))
        cache.reset(("snap", 2))
        assert cache.generation == ("snap", 2)
        assert len(cache) == 0
        assert cache.get("s", 1) is None
        # an answer computed before the swap must now be refused
        assert not cache.put("s", [1], "old", generation=("snap", 1))
        assert cache.put("s", [1], "new", generation=("snap", 2))

    def test_counters_survive_reset(self):
        cache = AnswerCache(max_entries=4)
        cache.put("s", [1], "a")
        cache.get("s", 1)
        cache.get("s", 2)
        cache.reset(("snap", 1))
        stats = cache.stats()
        assert stats["answer_cache_hits"] == 1.0
        assert stats["answer_cache_misses"] == 1.0
        assert stats["answer_cache_resets"] == 1.0

    def test_unchecked_put_always_admits(self):
        cache = AnswerCache(max_entries=4, generation=("snap", 7))
        assert cache.put("s", [1], "value")  # no generation argument
        assert cache.get("s", 1) == "value"


class TestDictShapedProtocol:
    def test_bucket_groups_shared_answers_into_one_entry(self):
        cache = AnswerCache(max_entries=8)
        bucket = cache.setdefault(("edges", ("alpha", 2), 2), {})
        shared = ("edges-triple",)
        for member in (5, 6, 7):
            bucket[member] = shared
        assert len(cache) == 1
        assert bucket.get(5) is shared
        assert bucket.get(6) is shared
        assert bucket.get(99) is None

    def test_bucket_distinct_answers_stay_distinct(self):
        cache = AnswerCache(max_entries=8)
        bucket = cache.setdefault("space", {})
        bucket[1] = ("a",)
        bucket[2] = ("b",)
        assert len(cache) == 2
        assert bucket.get(1) == ("a",)
        assert bucket.get(2) == ("b",)


class TestSnapshotIntegration:
    """The cache plugged into the snapshot query path and the worker fleet."""

    @pytest.fixture(scope="class")
    def snapshot_dir(self, tmp_path_factory):
        from repro.index.degeneracy_index import DegeneracyIndex
        from repro.serving.snapshot import save_snapshot

        graph = power_law_bipartite(80, 70, 600, seed=13)
        index = DegeneracyIndex(graph, backend="csr")
        return save_snapshot(index, tmp_path_factory.mktemp("ac") / "snap")

    def test_attached_cache_absorbs_repeat_batches(self, snapshot_dir):
        from repro.serving.snapshot import load_snapshot

        index = load_snapshot(snapshot_dir)
        cache = AnswerCache(
            max_entries=256, generation=(index.snapshot_id, index.version)
        )
        index.use_answer_cache(cache)
        queries = [(q, 2, 2) for q in index.vertices_in_core(2, 2)[:12]]
        first = index.batch_community(queries, on_empty="none")
        hits_after_first = cache.hits
        second = index.batch_community(queries, on_empty="none")
        assert cache.hits >= hits_after_first + len(queries)
        fresh = load_snapshot(snapshot_dir).batch_community(queries, on_empty="none")
        for a, b, c in zip(first, second, fresh):
            assert a.same_structure(c)
            assert b.same_structure(c)
        extra = index.stats().extra
        assert extra["answer_cache_hits"] == float(cache.hits)
        assert extra["answer_cache_entries"] >= 1.0

    def test_server_cache_entries_matches_uncached_fleet(self, snapshot_dir):
        from repro.serving.server import CommunityServer
        from repro.serving.snapshot import load_snapshot

        index = load_snapshot(snapshot_dir)
        queries = [(q, 2, 2) for q in index.vertices_in_core(2, 2)[:10]]
        queries += [(q, 3, 3) for q in index.vertices_in_core(3, 3)[:6]]
        expected = index.batch_community(queries, on_empty="none")
        with CommunityServer(
            snapshot_dir, num_workers=2, cache_entries=128
        ) as server:
            for _ in range(3):  # repeat batches hit the worker-side caches
                answers = server.batch_community(queries, on_empty="none")
                for answer, want in zip(answers, expected):
                    assert (answer is None) == (want is None)
                    if want is not None:
                        assert answer.same_structure(want)
