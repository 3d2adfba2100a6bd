"""Integration tests for the asyncio network front end (newline-JSON protocol)."""

from __future__ import annotations

import json
import socket

import pytest

from repro.api import CommunitySearcher
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex


@pytest.fixture(scope="module")
def frontend_graph():
    return power_law_bipartite(80, 70, 600, seed=13, name="frontend-test")


@pytest.fixture(scope="module")
def frontend_index(frontend_graph):
    return DegeneracyIndex(frontend_graph, backend="csr")


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, frontend_index):
    from repro.serving.snapshot import save_snapshot

    return save_snapshot(frontend_index, tmp_path_factory.mktemp("frontend") / "snap")


@pytest.fixture(scope="module")
def frontend(snapshot_dir):
    """One running 2-worker front end shared by the whole module."""
    from repro.serving.frontend import ServingFrontend

    with ServingFrontend(
        snapshot_dir, num_workers=2, cache_entries=256, batch_window=0.002
    ) as running:
        yield running


@pytest.fixture()
def client(frontend):
    from repro.serving.frontend import FrontendClient

    with FrontendClient(frontend.host, frontend.port, timeout=60.0) as connected:
        yield connected


@pytest.fixture(scope="module")
def core_vertex(frontend_index):
    return frontend_index.vertices_in_core(2, 2)[0]


class TestHealthAndStats:
    def test_health(self, client, frontend):
        reply = client.health()
        assert reply["ok"] and reply["status"] == "serving"
        assert reply["workers"] == 2
        assert reply["version"] == 0
        assert reply["snapshot_id"]

    def test_stats_carries_cache_and_frontend_counters(self, client, core_vertex):
        client.community(core_vertex.label, 2, 2)
        reply = client.stats()
        assert reply["ok"]
        extra = reply["stats"]["extra"]
        for key in (
            "answer_cache_hits",
            "answer_cache_misses",
            "answer_cache_bytes",
            "frontend_requests_community",
            "frontend_batches",
            "frontend_overload_rejections",
            "snapshot_version",
        ):
            assert key in extra, key
        assert reply["stats"]["entries"] > 0


class TestCommunity:
    def test_answer_matches_searcher(
        self, client, frontend_index, core_vertex
    ):
        expected = frontend_index.community(core_vertex, 2, 2)
        reply = client.community(core_vertex.label, 2, 2, edges=True)
        assert reply["ok"] and reply["found"]
        assert reply["num_upper"] == expected.num_upper
        assert reply["num_lower"] == expected.num_lower
        got = {(u, v, float(w)) for u, v, w in reply["edges"]}
        want = {(u, v, float(w)) for u, v, w in expected.edges()}
        assert got == want

    def test_repeat_query_is_served_from_cache(self, client, core_vertex):
        first = client.community(core_vertex.label, 2, 2, edges=True)
        second = client.community(core_vertex.label, 2, 2, edges=True)
        assert second["cached"] is True
        assert second["edges"] == first["edges"]

    def test_edges_hits_keep_no_rendered_list(self, frontend, client, core_vertex):
        """Regression: an edges=true hit memoised the rendered edge list on
        the cache entry, several times the size of its arrays."""
        side = "upper" if core_vertex.side.name == "UPPER" else "lower"
        replies = [
            client.community(core_vertex.label, 2, 2, side=side, edges=True)
            for _ in range(3)
        ]
        assert replies[1]["cached"] and replies[2]["cached"]
        assert replies[0]["edges"] == replies[1]["edges"] == replies[2]["edges"]
        gid = frontend._meta.labels.gids[(side, core_vertex.label)]
        entry = frontend.cache.get((2, 2), gid)
        held = [getattr(entry, name, None) for name in type(entry).__slots__]
        assert not any(isinstance(value, list) for value in held)

    def test_vertex_outside_core_reports_not_found(
        self, client, frontend_graph, frontend_index
    ):
        deep_core = set(frontend_index.vertices_in_core(6, 6))
        outside = next(
            vertex
            for vertex in frontend_graph.vertices()
            if vertex not in deep_core
        )
        side = "upper" if outside.side.name == "UPPER" else "lower"
        reply = client.community(outside.label, 6, 6, side=side)
        assert reply["ok"] and reply["found"] is False

    def test_lower_side_query(self, client, frontend_index):
        lower = next(
            v
            for v in frontend_index.vertices_in_core(2, 2)
            if v.side.name == "LOWER"
        )
        reply = client.community(lower.label, 2, 2, side="lower")
        assert reply["ok"] and reply["found"]

    def test_request_id_echoed(self, client, core_vertex):
        reply = client.request(
            {
                "op": "community",
                "label": core_vertex.label,
                "alpha": 2,
                "beta": 2,
                "id": "req-42",
            }
        )
        assert reply["id"] == "req-42"


class TestSignificant:
    def test_matches_searcher_result(self, client, frontend_index, core_vertex):
        searcher = CommunitySearcher(index=frontend_index)
        expected = searcher.significant_community(core_vertex, 2, 2)
        reply = client.significant(core_vertex.label, 2, 2, edges=True)
        assert reply["ok"] and reply["found"]
        assert reply["method"] == expected.method
        assert reply["search_space_edges"] == expected.search_space_edges
        got = {(u, v, float(w)) for u, v, w in reply["edges"]}
        want = {(u, v, float(w)) for u, v, w in expected.edges()}
        assert got == want

    def test_explicit_methods_agree(self, client, core_vertex):
        replies = [
            client.significant(core_vertex.label, 2, 2, method=method, edges=True)
            for method in ("peel", "expand", "binary")
        ]
        edge_sets = [
            {(u, v, float(w)) for u, v, w in reply["edges"]} for reply in replies
        ]
        assert edge_sets[0] == edge_sets[1] == edge_sets[2]

    def test_baseline_method_is_rejected(self, client, core_vertex):
        reply = client.significant(core_vertex.label, 2, 2, method="baseline")
        assert not reply["ok"]
        assert reply["error"]["type"] == "InvalidParameterError"


class TestErrors:
    def test_unknown_label(self, client):
        reply = client.community("no-such-vertex", 2, 2)
        assert not reply["ok"]
        assert reply["error"]["type"] == "InvalidParameterError"
        assert "not in the graph" in reply["error"]["message"]

    def test_bad_thresholds(self, client, core_vertex):
        for alpha, beta in ((0, 2), (2, -1), (None, 2)):
            reply = client.request(
                {
                    "op": "community",
                    "label": core_vertex.label,
                    "alpha": alpha,
                    "beta": beta,
                }
            )
            assert not reply["ok"], (alpha, beta)
            assert reply["error"]["type"] == "InvalidParameterError"

    def test_unknown_op_and_missing_label(self, client):
        reply = client.request({"op": "mystery"})
        assert not reply["ok"]
        reply = client.request({"op": "community", "alpha": 2, "beta": 2})
        assert not reply["ok"]
        assert "label" in reply["error"]["message"]

    def test_malformed_json_line(self, frontend):
        with socket.create_connection(
            (frontend.host, frontend.port), timeout=30
        ) as raw:
            raw.sendall(b"this is not json\n")
            reply = json.loads(raw.makefile("rb").readline())
        assert not reply["ok"]
        assert reply["error"]["type"] == "InvalidParameterError"

    def test_error_does_not_poison_the_stream(self, client, core_vertex):
        bad = client.community("no-such-vertex", 2, 2)
        assert not bad["ok"]
        good = client.community(core_vertex.label, 2, 2)
        assert good["ok"] and good["found"]


class TestAdmissionControl:
    def test_zero_budget_rejects_with_typed_overload(
        self, snapshot_dir, frontend_index
    ):
        from repro.serving.frontend import FrontendClient, ServingFrontend

        vertex = frontend_index.vertices_in_core(2, 2)[0]
        with ServingFrontend(
            snapshot_dir, num_workers=1, cache_entries=0, max_pending=0
        ) as frontend:
            with FrontendClient(frontend.host, frontend.port) as client:
                reply = client.community(vertex.label, 2, 2)
                assert not reply["ok"]
                assert reply["error"]["type"] == "OverloadedError"
                stats = client.stats()
                assert (
                    stats["stats"]["extra"]["frontend_overload_rejections"] >= 1.0
                )



class TestWorkConservingBatching:
    def test_zero_window_coalesces_a_backlog(self, snapshot_dir, frontend_index):
        """Regression: with ``batch_window=0`` the batcher sent every queued
        query alone, so a burst of N pipelined queries cost N batches."""
        from repro.serving.frontend import FrontendClient, ServingFrontend

        queries = [
            (vertex, t, t)
            for t in (2, 3)
            for vertex in frontend_index.vertices_in_core(t, t)[:12]
        ]
        lines = []
        for i, (vertex, alpha, beta) in enumerate(queries):
            side = "upper" if vertex.side.name == "UPPER" else "lower"
            request = {"op": "community", "side": side, "label": vertex.label,
                       "alpha": alpha, "beta": beta, "edges": True, "id": i}
            lines.append(json.dumps(request).encode("utf-8") + b"\n")
        with ServingFrontend(
            snapshot_dir, num_workers=1, cache_entries=0, batch_window=0
        ) as frontend:
            with socket.create_connection(
                (frontend.host, frontend.port), timeout=60
            ) as raw:
                raw.sendall(b"".join(lines))
                stream = raw.makefile("rb")
                replies = [json.loads(stream.readline()) for _ in queries]
            with FrontendClient(frontend.host, frontend.port) as client:
                extra = client.stats()["stats"]["extra"]
        assert extra["frontend_batched_requests"] == len(queries)
        assert extra["frontend_batches"] < len(queries)
        by_id = {reply["id"]: reply for reply in replies}
        for i, (vertex, alpha, beta) in enumerate(queries):
            reply = by_id[i]
            assert reply["ok"] and reply["found"], reply
            expected = frontend_index.community(vertex, alpha, beta)
            got = {(u, v, float(w)) for u, v, w in reply["edges"]}
            assert got == {(u, v, float(w)) for u, v, w in expected.edges()}

    def test_lone_query_on_idle_fleet_skips_the_window(
        self, snapshot_dir, core_vertex
    ):
        import time

        from repro.serving.frontend import FrontendClient, ServingFrontend

        window = 20.0
        with ServingFrontend(
            snapshot_dir, num_workers=1, cache_entries=0, batch_window=window
        ) as frontend:
            with FrontendClient(frontend.host, frontend.port) as client:
                for _ in range(2):
                    started = time.perf_counter()
                    reply = client.community(core_vertex.label, 2, 2)
                    assert reply["ok"] and reply["found"]
                    assert time.perf_counter() - started < window / 4

    def test_positive_window_waits_only_on_a_backlog(self, snapshot_dir):
        """The batching policy over a stub dispatch that takes 0.1 s: a query
        on an idle fleet goes out alone at once; queries that queued behind
        the dispatch wait out the window for a late arrival."""
        import asyncio
        import contextlib

        from repro.serving.frontend import ServingFrontend, _Pending

        frontend = ServingFrontend(snapshot_dir, num_workers=1, batch_window=0.2)
        sent = []

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()

            async def dispatch(kind, options, items, isolate=True):
                sent.append(([item.triple for item in items], loop.time() - started))
                await asyncio.sleep(0.1)

            def submit(n):
                future = loop.create_future()
                frontend._queue.put_nowait(_Pending("community", n, None, future))

            frontend._dispatch_group = dispatch
            frontend._queue = asyncio.Queue()
            task = loop.create_task(frontend._dispatch_loop())
            await asyncio.sleep(0)  # the loop now waits on an empty queue
            started = loop.time()
            submit(0)
            await asyncio.sleep(0.05)
            submit(1)
            submit(2)
            await asyncio.sleep(0.1)  # the first dispatch has returned
            submit(3)
            await asyncio.sleep(0.4)
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

        asyncio.run(scenario())
        assert [batch for batch, _ in sent] == [[0], [1, 2, 3]]
        assert sent[0][1] < 0.05  # not held for the 0.2 s window
        assert sent[1][1] >= 0.3  # the backlog waited out the window

@pytest.fixture(scope="module")
def weighted_frontend(tmp_path_factory):
    """A 1-worker front end over a graph with distinct edge weights, so the
    significant answer is a proper subgraph with a meaningful significance."""
    import random

    from repro.serving.frontend import ServingFrontend
    from repro.serving.snapshot import save_snapshot

    graph = power_law_bipartite(80, 70, 600, seed=13, name="frontend-weighted")
    rng = random.Random(13)
    for u, v, _ in list(graph.edges()):
        graph.add_edge(u, v, float(rng.randint(1, 12)))
    index = DegeneracyIndex(graph, backend="csr")
    directory = save_snapshot(index, tmp_path_factory.mktemp("weighted") / "snap")
    with ServingFrontend(directory, num_workers=1, batch_window=0.002) as running:
        yield index, running


class TestSignificantReplyFields:
    def routes(self, index):
        """One (α,β) whose ``auto`` resolves to expand, one to peel."""
        from repro.search import resolve_scs_method

        pairs = {resolve_scs_method("auto", t, t, index.delta): (t, t) for t in (2, 4)}
        assert set(pairs) == {"expand", "peel"}
        return list(pairs.values())

    def test_min_weight_is_the_answers_significance(self, weighted_frontend):
        from repro.serving.frontend import FrontendClient

        index, frontend = weighted_frontend
        searcher = CommunitySearcher(index=index)
        seen = set()
        with FrontendClient(frontend.host, frontend.port, timeout=60.0) as client:
            for alpha, beta in self.routes(index):
                for vertex in index.vertices_in_core(alpha, beta)[:3]:
                    side = "upper" if vertex.side.name == "UPPER" else "lower"
                    summary = client.significant(vertex.label, alpha, beta, side=side)
                    full = client.significant(
                        vertex.label, alpha, beta, side=side, edges=True
                    )
                    expected = searcher.significant_community(vertex, alpha, beta)
                    want = min(w for _, _, w in expected.graph.edges())
                    assert summary["min_weight"] == full["min_weight"] == want
                    assert full["min_weight"] == min(w for _, _, w in full["edges"])
                    seen.add(want)
        assert len(seen) > 1  # not trivially the graph's lightest weight

    def test_bad_epsilon_refused_before_dispatch_on_every_route(
        self, weighted_frontend
    ):
        """A bad ε used to be rejected only where ``auto`` resolved to expand
        (and NaN nowhere); now it is refused up front, without a batch."""
        from repro.serving.frontend import FrontendClient

        index, frontend = weighted_frontend
        with FrontendClient(frontend.host, frontend.port, timeout=60.0) as client:
            before = client.stats()["stats"]["extra"]["frontend_batches"]
            for alpha, beta in self.routes(index):
                vertex = index.vertices_in_core(alpha, beta)[0]
                side = "upper" if vertex.side.name == "UPPER" else "lower"
                for epsilon in (0.5, 1.0, float("nan")):
                    reply = client.significant(
                        vertex.label, alpha, beta, side=side, epsilon=epsilon
                    )
                    assert not reply["ok"], (alpha, beta, epsilon)
                    assert reply["error"]["type"] == "InvalidParameterError"
                    assert "epsilon" in reply["error"]["message"]
                good = client.significant(vertex.label, alpha, beta, side=side)
                assert good["ok"] and good["found"]
            after = client.stats()["stats"]["extra"]["frontend_batches"]
        assert after - before == len(self.routes(index))  # only the good ones
