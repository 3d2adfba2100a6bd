"""Unit and integration tests for the cross-batch answer cache."""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.generators import power_law_bipartite
from repro.serving.answer_cache import AnswerCache


def ids(*members):
    return np.array(members, dtype=np.int64)


class TestDirectProtocol:
    def test_get_by_any_member(self):
        cache = AnswerCache(max_entries=8)
        assert cache.put("space", ids(3, 1, 2), "answer")
        for member in (1, 2, 3):
            assert cache.get("space", member) == "answer"
        assert cache.get("space", 4) is None
        assert cache.get("space", 0) is None
        assert cache.get("other", 1, default="missing") == "missing"

    def test_members_accept_any_integer_sequence(self):
        cache = AnswerCache(max_entries=8)
        assert cache.put("s", [5, 4, 4], "list")
        assert cache.put("s", np.arange(10, 20, dtype=np.int32), "int32")
        assert cache.get("s", 4) == "list"
        assert cache.get("s", 19) == "int32"
        assert not cache.put("s", [], "empty")
        with pytest.raises(InvalidParameterError):
            cache.put("s", [1.5, 2.5], "floats")
        with pytest.raises(InvalidParameterError):
            cache.put("s", [2**40], "too wide")

    def test_entry_is_per_component_not_per_member(self):
        cache = AnswerCache(max_entries=8)
        cache.put("s", np.arange(100), "big")
        assert len(cache) == 1

    def test_spaces_are_disjoint(self):
        cache = AnswerCache(max_entries=8)
        cache.put((2, 2), ids(1), "a")
        cache.put((3, 3), ids(1), "b")
        assert cache.get((2, 2), 1) == "a"
        assert cache.get((3, 3), 1) == "b"

    def test_lru_eviction_order_and_counters(self):
        cache = AnswerCache(max_entries=2)
        cache.put("s", ids(1), "one")
        cache.put("s", ids(2), "two")
        assert cache.get("s", 1) == "one"  # touch 1 so 2 is oldest
        cache.put("s", ids(3), "three")
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
        cache.put("s", ids(1, 2, 3), "a")
        assert cache.get("s", 2) == "a"  # memoise one resolved member
        cache.put("s", ids(9), "b")
        for member in (1, 2, 3):
            assert cache.get("s", member) is None
        assert cache.get("s", 9) == "b"
        # the evicted component's slot is reused without aliasing
        cache.put("s", ids(2, 7), "c")
        assert cache.get("s", 2) == "c"
        assert cache.get("s", 9) is None

    def test_many_components_in_one_space(self):
        cache = AnswerCache(max_entries=16)
        rng = np.random.default_rng(3)
        components = np.array_split(rng.permutation(400), 40)
        for number, members in enumerate(components):
            cache.put("s", members, number)
        survivors = range(len(components) - 16, len(components))
        for number, members in enumerate(components):
            want = number if number in survivors else None
            for member in members.tolist():
                assert cache.get("s", member) == want

    def test_put_refreshes_existing_root(self):
        cache = AnswerCache(max_entries=4)
        cache.put("s", ids(1, 2), "old")
        cache.put("s", ids(1, 2), "new")
        assert len(cache) == 1
        assert cache.get("s", 2) == "new"

    def test_rejects_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            AnswerCache(max_entries=0)
        with pytest.raises(InvalidParameterError):
            AnswerCache(max_entries="many")  # type: ignore[arg-type]


class TestBytesGauge:
    def test_counts_membership_and_value_arrays(self):
        cache = AnswerCache(max_entries=4)
        assert cache.stats()["answer_cache_bytes"] == 0.0
        value = np.zeros(10, dtype=np.float64)
        cache.put("s", np.arange(5), value)
        # 5 members x (int32 id + int32 slot) + the value's 80 bytes
        assert cache.stats()["answer_cache_bytes"] == 5 * 8 + 80.0
        cache.put("t", np.arange(3), "no arrays")
        assert cache.stats()["answer_cache_bytes"] == 8 * 8 + 80.0

    def test_drops_to_zero_on_reset_and_with_evictions(self):
        cache = AnswerCache(max_entries=1)
        cache.put("s", np.arange(5), np.zeros(4))
        cache.put("s", np.arange(10, 12), np.zeros(1))
        assert cache.stats()["answer_cache_bytes"] == 2 * 8 + 8.0
        cache.reset(("snap", 1))
        assert cache.stats()["answer_cache_bytes"] == 0.0


class TestGenerationFencing:
    def test_put_refuses_stale_generation(self):
        cache = AnswerCache(max_entries=4, generation=("snap", 1))
        assert cache.put("s", ids(1), "current", generation=("snap", 1))
        assert not cache.put("s", ids(2), "stale", generation=("snap", 0))
        assert cache.get("s", 1) == "current"
        assert cache.get("s", 2) is None

    def test_reset_swaps_generation_and_drops_everything(self):
        cache = AnswerCache(max_entries=4, generation=("snap", 1))
        cache.put("s", ids(1, 4), "old", generation=("snap", 1))
        assert cache.get("s", 4) == "old"  # memoised before the swap
        cache.reset(("snap", 2))
        assert cache.generation == ("snap", 2)
        assert len(cache) == 0
        assert cache.get("s", 1) is None
        assert cache.get("s", 4) is None
        # an answer computed before the swap must now be refused
        assert not cache.put("s", ids(1), "old", generation=("snap", 1))
        assert cache.put("s", ids(1), "new", generation=("snap", 2))

    def test_counters_survive_reset(self):
        cache = AnswerCache(max_entries=4)
        cache.put("s", ids(1), "a")
        cache.get("s", 1)
        cache.get("s", 2)
        cache.reset(("snap", 1))
        stats = cache.stats()
        assert stats["answer_cache_hits"] == 1.0
        assert stats["answer_cache_misses"] == 1.0
        assert stats["answer_cache_resets"] == 1.0

    def test_unchecked_put_always_admits(self):
        cache = AnswerCache(max_entries=4, generation=("snap", 7))
        assert cache.put("s", ids(1), "value")  # no generation argument
        assert cache.get("s", 1) == "value"


class TestConcurrency:
    def test_threads_never_see_a_foreign_answer(self):
        """Puts, gets and resets from more threads than cores: every hit is
        the answer of the component holding the asked member."""
        cache = AnswerCache(max_entries=8)
        components = np.arange(600).reshape(60, 10)
        errors = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for step in range(3000):
                    number = int(rng.integers(60))
                    if step % 3 == 0:
                        cache.put(number % 4, components[number], number)
                    elif step % 997 == 0:
                        cache.reset(None)
                    member = int(components[number][rng.integers(10)])
                    hit = cache.get(number % 4, member)
                    if hit is not None and hit != number:
                        errors.append((member, hit))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 8


class TestFrontendAdmission:
    """The front end's cached answers are flat arrays, not Python objects."""

    @pytest.fixture(scope="class")
    def snapshot_dir(self, tmp_path_factory):
        from repro.index.degeneracy_index import DegeneracyIndex
        from repro.serving.snapshot import save_snapshot

        # A sparse graph: its giant component has about as many edges as
        # members, so a per-member object cost cannot hide behind 16 B/edge.
        graph = power_law_bipartite(3000, 3000, 7000, seed=13)
        index = DegeneracyIndex(graph, backend="csr")
        return save_snapshot(index, tmp_path_factory.mktemp("ac") / "snap")

    def test_admitting_a_component_costs_only_its_arrays(self, snapshot_dir):
        from repro.serving.frontend import _CachedAnswer, _LabelSpace, _SnapshotMeta
        from repro.serving.snapshot import load_snapshot

        index = load_snapshot(snapshot_dir)
        generation = (index.snapshot_id, index.version)
        meta = _SnapshotMeta(_LabelSpace(index.directory), generation, {})
        triples = index.batch_community_edges(
            [(q, 1, 1) for q in index.vertices_in_core(1, 1)[:50]],
            on_empty="none",
            cache={},
        )
        triple = max(triples, key=lambda t: t[0].shape[0])
        num_edges = int(triple[0].shape[0])
        num_members = int(np.unique(triple[0]).size + np.unique(triple[1]).size)
        assert num_members > 1000
        cache = AnswerCache(max_entries=8, generation=generation)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            answer, members = _CachedAnswer.from_wire(triple, meta)
            assert cache.put((1, 1), members, answer, generation=generation)
            del answer, members
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 16 * num_edges + 8 * num_members + 4096, (
            grown,
            num_edges,
            num_members,
        )
        stats = cache.stats()
        assert stats["answer_cache_bytes"] <= 16 * num_edges + 8 * num_members
