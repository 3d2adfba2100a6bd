"""Tests for worker supervision, snapshot watching and reload consistency."""

from __future__ import annotations

import multiprocessing
import os
import signal
import struct
import threading
import time

import pytest

from repro.exceptions import ServingError
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex


@pytest.fixture(scope="module")
def supervisor_graph():
    return power_law_bipartite(80, 70, 600, seed=13, name="supervisor-test")


@pytest.fixture(scope="module")
def supervisor_index(supervisor_graph):
    return DegeneracyIndex(supervisor_graph, backend="csr")


@pytest.fixture()
def snapshot_dir(tmp_path, supervisor_index):
    """A fresh snapshot per test: several tests mutate it (deltas/compaction)."""
    from repro.serving.snapshot import save_snapshot

    return save_snapshot(supervisor_index, tmp_path / "snap")


@pytest.fixture(scope="module")
def mixed_queries(supervisor_index):
    queries = [(q, 2, 2) for q in supervisor_index.vertices_in_core(2, 2)[:20]]
    queries += [(q, 3, 3) for q in supervisor_index.vertices_in_core(3, 3)[:10]]
    assert len(queries) >= 10
    return queries


@pytest.fixture(scope="module")
def expected(supervisor_index, mixed_queries):
    return supervisor_index.batch_community(mixed_queries, on_empty="none")


def _assert_matches(answers, expected):
    assert len(answers) == len(expected)
    for answer, want in zip(answers, expected):
        assert (answer is None) == (want is None)
        if want is not None:
            assert answer.same_structure(want)


def _append_delta(snapshot_dir):
    """Reweight an existing edge: stays in the base id space, so saving
    appends a true delta segment (a new vertex would force a rewrite)."""
    from repro.index.maintenance import DynamicDegeneracyIndex
    from repro.index.serialization import save_index
    from repro.serving.snapshot import load_snapshot, snapshot_version

    before = snapshot_version(snapshot_dir)
    dynamic = DynamicDegeneracyIndex.from_snapshot(load_snapshot(snapshot_dir))
    upper, lower, weight = next(iter(dynamic.graph.edges()))
    dynamic.insert_edge(upper, lower, weight + 1.0)
    save_index(dynamic, snapshot_dir, format="snapshot")
    assert snapshot_version(snapshot_dir) == before + 1


def _wait_for_exit(pid: int, timeout: float = 10.0) -> None:
    """Wait until the killed worker ``pid`` has exited and been reaped.

    ``active_children()`` reaps finished children as a side effect; nobody
    else reaps a SIGKILLed worker between batches, so its zombie would keep
    ``/proc/<pid>`` around indefinitely.
    """
    deadline = time.monotonic() + timeout
    while any(child.pid == pid for child in multiprocessing.active_children()):
        assert time.monotonic() < deadline, f"worker {pid} never exited"
        time.sleep(0.01)


class _TearFirstResult:
    """A worker's result channel that dies halfway through its first result.

    The first worker (fleet-wide, claimed through ``marker``) to send a shard
    result writes a frame header announcing a megabyte, four bytes of body,
    and exits on the spot — exactly what a SIGKILL during a large send leaves
    behind.  Every other message goes through untouched.
    """

    def __init__(self, channel, marker):
        self._channel = channel
        self._marker = marker

    def send(self, message):
        if message[0] == "result":
            try:
                os.close(os.open(self._marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                # multiprocessing frames a message as a 4-byte big-endian
                # length followed by the pickled body.
                header = struct.pack("!i", 1 << 20)
                os.write(self._channel.fileno(), header + b"torn")
                os._exit(1)
        self._channel.send(message)


def _torn_frame_worker(marker):
    from repro.serving.worker import worker_main

    def worker(snapshot_dir, tasks, results):
        channel = _TearFirstResult(results, marker)
        worker_main(snapshot_dir, tasks, channel)

    return worker


def _run_bounded(call, timeout: float = 30.0):
    """Run ``call`` on a daemon thread; fail (instead of hanging) on timeout."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"batch still blocked after {timeout:.0f}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _stop_unless_wedged(server) -> None:
    """Stop ``server`` — unless a wedged batch thread still holds its fleet
    lock, in which case ``stop()`` would block too; its daemon workers are
    then left to interpreter exit."""
    if server.fleet_lock.acquire(timeout=1.0):
        try:
            server.stop()
        finally:
            server.fleet_lock.release()


class TestTornResultFrame:
    """Regression: a worker dying mid-send must not wedge the driving process."""

    @pytest.fixture()
    def tearing_fleet(self, monkeypatch, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork so workers inherit the patched worker")
        import repro.serving.server as server_module

        monkeypatch.setattr(
            server_module, "worker_main", _torn_frame_worker(tmp_path / "torn")
        )

    def test_base_server_raises_serving_error(
        self, tearing_fleet, snapshot_dir, mixed_queries
    ):
        from repro.serving.server import CommunityServer

        server = CommunityServer(snapshot_dir, num_workers=2, start_method="fork")
        try:
            server.start()
            with pytest.raises(ServingError, match="died"):
                _run_bounded(
                    lambda: server.batch_community(mixed_queries, on_empty="none")
                )
            assert not server.is_running
        finally:
            _stop_unless_wedged(server)

    def test_supervised_server_respawns_and_answers_match(
        self, tearing_fleet, snapshot_dir, mixed_queries, expected
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        server = SupervisedCommunityServer(
            snapshot_dir, num_workers=2, start_method="fork"
        )
        try:
            server.start()
            answers = _run_bounded(
                lambda: server.batch_community(mixed_queries, on_empty="none")
            )
            assert server.respawns == 1
            _assert_matches(answers, expected)
        finally:
            _stop_unless_wedged(server)


class TestSupervisedServer:
    def test_respawns_after_idle_kill_and_answers_match(
        self, snapshot_dir, mixed_queries, expected
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(snapshot_dir, num_workers=2) as server:
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_for_exit(victim)
            answers = server.batch_community(mixed_queries, on_empty="none")
            assert server.respawns >= 1
            _assert_matches(answers, expected)
            assert len(server.worker_pids()) == 2
            assert victim not in server.worker_pids()

    def test_respawns_after_mid_batch_kill(
        self, snapshot_dir, mixed_queries, expected
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(snapshot_dir, num_workers=2) as server:
            server.batch_community(mixed_queries[:2], on_empty="none")  # warm

            def killer():
                time.sleep(0.005)
                pids = server.worker_pids()
                if pids:
                    try:
                        os.kill(pids[-1], signal.SIGKILL)
                    except ProcessLookupError:
                        pass

            thread = threading.Thread(target=killer)
            thread.start()
            answers = server.batch_community(mixed_queries * 5, on_empty="none")
            thread.join()
            _assert_matches(answers, expected * 5)

    def test_crash_budget_surfaces_single_typed_error(
        self, snapshot_dir, mixed_queries
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        server = SupervisedCommunityServer(
            snapshot_dir, num_workers=1, max_respawns_per_batch=0
        )
        try:
            server.start()
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_for_exit(victim)
            with pytest.raises(ServingError, match="kept crashing"):
                server.batch_community(mixed_queries[:4], on_empty="none")
            assert not server.is_running
        finally:
            server.stop()

    def test_ensure_workers_heals_idle_deaths(self, snapshot_dir, mixed_queries):
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(snapshot_dir, num_workers=2) as server:
            assert server.ensure_workers() == 0  # nothing to do
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_for_exit(victim)
            assert server.ensure_workers() == 1
            assert len(server.worker_pids()) == 2
            answers = server.batch_community(mixed_queries[:5], on_empty="none")
            assert len(answers) == 5

    def test_reload_waits_for_inflight_batch(
        self, snapshot_dir, mixed_queries, expected
    ):
        """Regression: reload() must drain a running batch, not drop shards."""
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(snapshot_dir, num_workers=2) as server:
            server.batch_community(mixed_queries[:2], on_empty="none")  # warm
            results = {}

            def run_batch():
                results["answers"] = server.batch_community(
                    mixed_queries * 5, on_empty="none"
                )

            thread = threading.Thread(target=run_batch)
            thread.start()
            time.sleep(0.005)  # let the batch take the fleet lock
            server.reload()
            thread.join()
            _assert_matches(results["answers"], expected * 5)


class TestReloadUnderTraffic:
    """The front end auto-reloads on snapshot changes without wrong answers."""

    def _edge_sets(self, snapshot_dir, queries):
        from repro.serving.snapshot import load_snapshot

        answers = load_snapshot(snapshot_dir).batch_community(
            queries, on_empty="none"
        )
        return [
            None
            if answer is None
            else {(u, v, float(w)) for u, v, w in answer.edges()}
            for answer in answers
        ]

    def _stream(self, frontend, queries, stop, replies, slot):
        from repro.serving.frontend import FrontendClient

        with FrontendClient(frontend.host, frontend.port, timeout=60.0) as client:
            while not stop.is_set():
                for position, (vertex, alpha, beta) in enumerate(queries):
                    side = "upper" if vertex.side.name == "UPPER" else "lower"
                    reply = client.community(
                        vertex.label, alpha, beta, side=side, edges=True
                    )
                    assert reply["ok"], reply
                    replies[slot].append((position, reply))

    def _wait_for_reload(self, frontend, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while frontend.reloads < 1:
            assert time.monotonic() < deadline, "front end never detected the swap"
            time.sleep(0.05)

    def _reply_edges(self, snapshot_dir, queries):
        """The exact ``edges`` lists the ``load_snapshot`` answers render to."""
        from repro.serving.snapshot import load_snapshot

        index = load_snapshot(snapshot_dir)
        upper, lower = (labels.tolist() for labels in index.query_path().label_arrays())
        triples = index.batch_community_edges(queries, on_empty="none", cache={})
        return [
            None
            if triple is None
            else [
                [upper[u], lower[l], w]
                for u, l, w in zip(*(part.tolist() for part in triple))
            ]
            for triple in triples
        ]

    def test_miss_then_hit_match_snapshot_answers_across_reload(
        self, snapshot_dir, supervisor_index
    ):
        """Each query asked twice with edges: the miss and the cache hit both
        render exactly the in-process answer, before and after a reload."""
        from repro.serving.frontend import FrontendClient, ServingFrontend

        queries = [(q, 2, 2) for q in supervisor_index.vertices_in_core(2, 2)[:6]]
        queries += [(q, 3, 3) for q in supervisor_index.vertices_in_core(3, 3)[:3]]
        with ServingFrontend(
            snapshot_dir, num_workers=2, cache_entries=128, watch_interval=0.05
        ) as frontend:
            with FrontendClient(frontend.host, frontend.port, timeout=60.0) as client:
                for generation in range(2):
                    if generation:
                        _append_delta(snapshot_dir)
                        self._wait_for_reload(frontend)
                    expected = self._reply_edges(snapshot_dir, queries)
                    misses = 0
                    for (vertex, alpha, beta), want in zip(queries, expected):
                        side = "upper" if vertex.side.name == "UPPER" else "lower"
                        first, second = (
                            client.community(
                                vertex.label, alpha, beta, side=side, edges=True
                            )
                            for _ in range(2)
                        )
                        misses += first["cached"] is False
                        assert second["cached"] is True
                        for reply in (first, second):
                            assert reply["ok"] and reply["found"]
                            assert reply["edges"] == want
                    assert misses >= 2, "every component's first ask is a miss"
            assert frontend.reloads == 1

    def test_streams_identical_across_autodetected_compaction(
        self, snapshot_dir, supervisor_index
    ):
        """Compaction folds deltas without changing answers: every reply of a
        stream crossing the swap must be element-wise identical to the
        sequential batch, and the front end must notice the swap by itself."""
        from repro.serving.compaction import compact_snapshot
        from repro.serving.frontend import ServingFrontend

        _append_delta(snapshot_dir)
        queries = [(q, 2, 2) for q in supervisor_index.vertices_in_core(2, 2)[:6]]
        expected = self._edge_sets(snapshot_dir, queries)
        replies = [[], []]
        stop = threading.Event()
        with ServingFrontend(
            snapshot_dir, num_workers=2, cache_entries=128, watch_interval=0.05
        ) as frontend:
            threads = [
                threading.Thread(
                    target=self._stream,
                    args=(frontend, queries, stop, replies, slot),
                )
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            report = compact_snapshot(snapshot_dir)
            assert report.compacted
            self._wait_for_reload(frontend)
            time.sleep(0.3)  # keep streaming on the new generation
            stop.set()
            for thread in threads:
                thread.join()
            assert frontend.reloads >= 1
            cache_generation = (
                None if frontend.cache is None else frontend.cache.generation
            )
        assert cache_generation is not None
        assert cache_generation[0] == report.snapshot_id
        total = 0
        for slot in range(2):
            for position, reply in replies[slot]:
                want = expected[position]
                assert reply["found"] == (want is not None)
                if want is not None:
                    got = {(u, v, float(w)) for u, v, w in reply["edges"]}
                    assert got == want, "answer changed across a compaction swap"
                total += 1
        assert total > 0

    def test_no_stale_cache_hits_after_content_change(
        self, snapshot_dir, supervisor_index
    ):
        """A delta that reweights an edge changes answers: once the front end
        reloads, cached pre-swap answers must never surface again."""
        from repro.serving.frontend import ServingFrontend

        queries = [(q, 2, 2) for q in supervisor_index.vertices_in_core(2, 2)[:6]]
        pre = self._edge_sets(snapshot_dir, queries)
        replies = [[], []]
        stop = threading.Event()
        with ServingFrontend(
            snapshot_dir, num_workers=2, cache_entries=128, watch_interval=0.05
        ) as frontend:
            threads = [
                threading.Thread(
                    target=self._stream,
                    args=(frontend, queries, stop, replies, slot),
                )
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            _append_delta(snapshot_dir)
            post = self._edge_sets(snapshot_dir, queries)
            self._wait_for_reload(frontend)
            time.sleep(0.3)  # post-swap traffic, including cache hits
            stop.set()
            for thread in threads:
                thread.join()
        assert pre != post, "the reweight delta should have changed some answer"
        post_seen = 0
        for slot in range(2):
            seen_post = False
            for position, reply in replies[slot]:
                got = (
                    {(u, v, float(w)) for u, v, w in reply["edges"]}
                    if reply["found"]
                    else None
                )
                if got == pre[position] and pre[position] == post[position]:
                    continue  # this query's answer is version-independent
                if got == post[position]:
                    seen_post = True
                    post_seen += 1
                    continue
                assert got == pre[position], "reply matches neither version"
                # a pre-swap answer after a post-swap one is a stale cache hit
                assert not seen_post, "stale pre-swap answer served after reload"
        assert post_seen > 0, "no reply ever reflected the new snapshot version"


class TestSnapshotWatcher:
    def test_no_change_no_trigger(self, snapshot_dir):
        from repro.serving.supervisor import SnapshotWatcher

        watcher = SnapshotWatcher(snapshot_dir)
        assert watcher.poll() is False
        assert watcher.poll() is False

    def test_delta_append_trips_the_watcher(self, snapshot_dir):
        from repro.serving.supervisor import SnapshotWatcher

        watcher = SnapshotWatcher(snapshot_dir)
        _append_delta(snapshot_dir)
        assert watcher.poll() is True
        assert watcher.poll() is False  # edge-triggered, not level-triggered

    def test_compaction_trips_the_watcher(self, snapshot_dir):
        from repro.serving.compaction import compact_snapshot
        from repro.serving.supervisor import SnapshotWatcher

        _append_delta(snapshot_dir)
        watcher = SnapshotWatcher(snapshot_dir)
        report = compact_snapshot(snapshot_dir)
        assert report.compacted
        assert watcher.poll() is True
        assert watcher.poll() is False

    def test_missing_manifest_is_no_change(self, tmp_path):
        from repro.serving.supervisor import SnapshotWatcher

        watcher = SnapshotWatcher(tmp_path / "does-not-exist")
        assert watcher.signature is None
        assert watcher.poll() is False
