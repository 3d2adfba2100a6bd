"""No ``np.unique`` on the first-touch query path or the maintenance planner.

On numpy 2.x a plain ``np.unique`` of an integer array takes a hash path that
is several times slower than sorting a copy, and the significant kernel's
interning needs no sort at all when the ids are dense.  These tests patch
``numpy.unique`` to raise, then drive every per-query and per-op path that
used to call it: the array BFS (``batch_community_edges``), the significant
kernel through ``batch_significant_edges`` for every method on integer and
on distinct float weights, the front end's miss path and significant reply,
and one maintenance insert and removal.  The communities here span few ids
per edge, so the kernel takes its dense interning branch; the sparse
fallback is covered in ``tests/test_scs_agreement.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex

GRID = [(1, 1), (2, 2), (2, 3), (3, 3)]
METHODS = ("expand", "peel", "binary", "auto")


def _refuse(*args, **kwargs):
    raise AssertionError("np.unique called on a path that must not call it")


@pytest.fixture()
def no_unique(monkeypatch):
    """Patch ``numpy.unique`` to raise for the rest of the test."""

    def patch():
        monkeypatch.setattr(np, "unique", _refuse)

    return patch


def graph_with(weights: str):
    graph = power_law_bipartite(60, 50, 420, seed=7, name="unique-free")
    if weights == "distinct":
        rng = random.Random(3)
        edges = list(graph.edges())
        ranks = rng.sample(range(len(edges)), len(edges))
        for (u, v, _), rank in zip(edges, ranks):
            graph.add_edge(u, v, (rank + 0.5) / len(edges))
    return graph


def grid_queries(index):
    queries = []
    for alpha, beta in GRID:
        core = index.vertices_in_core(alpha, beta)
        queries.extend((vertex, alpha, beta) for vertex in core[:: max(1, len(core) // 6)])
    return queries


@pytest.fixture(params=["integer", "distinct"])
def indexes(request, tmp_path):
    """The static CSR index and a snapshot reader over it, plus queries."""
    from repro.serving.snapshot import load_snapshot, save_snapshot

    static = DegeneracyIndex(graph_with(request.param), backend="csr")
    reader = load_snapshot(save_snapshot(static, tmp_path / "snap"))
    return (static, reader), grid_queries(static)


def test_batch_community_edges(indexes, no_unique):
    (static, reader), queries = indexes
    expected = [static.community(*query) for query in queries]
    no_unique()
    answers = reader.batch_community_edges(queries)
    for (src, dst, _), community in zip(answers, expected):
        assert src.shape[0] == community.num_edges
        assert len(set(src.tolist())) == community.num_upper
        assert len(set(dst.tolist())) == community.num_lower


@pytest.mark.parametrize("method", METHODS)
def test_batch_significant_edges(indexes, method, no_unique):
    (static, reader), queries = indexes
    expected = static.batch_significant_edges(queries, method=method)
    no_unique()
    for index in (static, reader):
        answers = index.batch_significant_edges(queries, method=method)
        for (got, resolved, space), (want, want_resolved, want_space) in zip(answers, expected):
            assert (resolved, space) == (want_resolved, want_space)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)


def test_frontend_miss_path_and_significant_reply(tmp_path, no_unique):
    from repro.serving.frontend import FrontendClient, ServingFrontend, _CachedAnswer
    from repro.serving.snapshot import load_snapshot, save_snapshot

    static = DegeneracyIndex(graph_with("integer"), backend="csr")
    snapshot = save_snapshot(static, tmp_path / "snap")
    reader = load_snapshot(snapshot)
    vertex = static.vertices_in_core(2, 2)[0]
    community = static.community(vertex, 2, 2)
    significant = static.batch_significant_edges([(vertex, 2, 2)])[0][0]
    # Patched before the fleet forks, so the worker runs patched as well.
    no_unique()
    with ServingFrontend(snapshot, num_workers=1, cache_entries=64) as frontend:
        with FrontendClient(frontend.host, frontend.port, timeout=60.0) as client:
            reply = client.community(vertex.label, 2, 2)
            assert reply["ok"] and reply["found"] and not reply["cached"]
            assert reply["num_edges"] == community.num_edges
            assert reply["num_upper"] == community.num_upper
            assert reply["num_lower"] == community.num_lower
            reply = client.significant(vertex.label, 2, 2, method="auto")
            assert reply["ok"] and reply["found"]
            src, dst, _ = significant
            assert reply["num_edges"] == src.shape[0]
            assert reply["num_upper"] == len(set(src.tolist()))
            assert reply["num_lower"] == len(set(dst.tolist()))
        triple = reader.batch_community_edges([(vertex, 2, 2)])[0]
        answer, members = _CachedAnswer.from_wire(triple, frontend._meta)
    assert (answer.num_upper, answer.num_lower) == (community.num_upper, community.num_lower)
    assert members.tolist() == sorted(set(members.tolist()))


def test_maintenance_insert_and_removal(no_unique):
    from repro.index.maintenance import DynamicDegeneracyIndex

    graph = graph_with("integer")
    dynamic = DynamicDegeneracyIndex(graph.copy(), backend="csr")
    upper = sorted(graph.upper_labels(), key=repr)
    lower = sorted(graph.lower_labels(), key=repr)
    absent = next((u, v) for u in upper for v in lower if not graph.has_edge(u, v))
    present = next(iter(graph.edges()))[:2]
    no_unique()
    dynamic.insert_edge(*absent, 1.0)
    dynamic.remove_edge(*present)
    assert dynamic.has_edge(*absent) and not dynamic.has_edge(*present)
    assert dynamic.stats().extra["levels_patched"] > 0
