"""Differential maintenance: one op stream, three ways of answering.

A seeded stream of edge updates — inserts naming never-seen upper and lower
vertices, removals that isolate vertices, re-weights — runs against a
:class:`DynamicDegeneracyIndex` that saves a snapshot delta after every op,
with random folds and reopens through ``from_snapshot``.  After each op the
maintained index, a ``load_snapshot`` reader and a fresh dict-backend
:class:`DegeneracyIndex` of the same graph must give the same community and
significant answers, and the maintained export must equal the fresh
build's bit for bit.  ``region_budget=3`` sends most levels down the full
re-peel and makes δ grow and shrink.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import CommunitySearcher
from repro.exceptions import EmptyCommunityError
from repro.graph.bipartite import BipartiteGraph, Side
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DEFAULT_REGION_BUDGET, DynamicDegeneracyIndex
from repro.index.serialization import save_index
from repro.serving.compaction import compact_snapshot
from repro.serving.snapshot import load_snapshot
from tests.reference import graph_edge_weights

OPS = 32
LABELS = 6


def _graph(seed: int) -> BipartiteGraph:
    rng = random.Random(seed)
    return BipartiteGraph.from_edges(
        [
            (f"u{rng.randrange(LABELS)}", f"v{rng.randrange(LABELS)}", float(rng.randint(1, 5)))
            for _ in range(22)
        ]
    )


def _next_op(rng: random.Random, graph: BipartiteGraph, step: int):
    """One op; the first half of a stream densifies the graph, the second
    thins it, so δ grows and shrinks."""
    uppers, lowers = sorted(graph.upper_labels()), sorted(graph.lower_labels())
    edges = sorted((u, v) for u, v, _ in graph.edges())
    weight = float(rng.randint(1, 5))
    growing = step < OPS // 2
    roll = rng.random()
    if roll < 0.1 or not edges:
        return ("insert", f"new-u{step}", rng.choice(lowers or ["v0"]), weight)
    if roll < 0.2:
        return ("insert", rng.choice(uppers), f"new-v{step}", weight)
    if roll < (0.75 if growing else 0.25):
        return ("insert", f"u{rng.randrange(LABELS)}", f"v{rng.randrange(LABELS)}", weight)
    if roll < (0.85 if growing else 0.35):
        return ("insert", *rng.choice(edges), weight)  # a re-weight
    if roll < (0.92 if growing else 0.75):
        # Removals at a lowest-degree endpoint isolate vertices.
        pendant = min(
            edges,
            key=lambda e: (min(graph.degree(Side.UPPER, e[0]), graph.degree(Side.LOWER, e[1])), e),
        )
        return ("remove", *pendant, 0.0)
    return ("remove", *rng.choice(edges), 0.0)


def _answers(index, queries):
    """Community and significant answers as edge sets (``None`` when empty)."""
    searcher = CommunitySearcher(index=index)
    communities = index.batch_community(queries, on_empty="none")
    significant = searcher.batch_significant_communities(queries, on_empty="none")
    return (
        [None if c is None else graph_edge_weights(c) for c in communities],
        [None if r is None else graph_edge_weights(r.graph) for r in significant],
    )


def _dict_answers(index: DegeneracyIndex, queries):
    """:func:`_answers` from the dict lists, one query at a time."""
    searcher = CommunitySearcher(index=index)
    communities, significant = [], []
    for query, alpha, beta in queries:
        try:
            communities.append(graph_edge_weights(index.community(query, alpha, beta)))
            result = searcher.significant_community(query, alpha, beta)
            significant.append(graph_edge_weights(result.graph))
        except EmptyCommunityError:
            communities.append(None)
            significant.append(None)
    return communities, significant


def _check(dynamic: DynamicDegeneracyIndex, directory, op) -> None:
    fresh = DegeneracyIndex(dynamic.graph.copy(), backend="dict")
    reader = load_snapshot(directory)
    assert dynamic.delta == reader.delta == fresh.delta, op
    delta = max(fresh.delta, 1)
    pairs = sorted({(1, 1), (2, 1), (delta, delta), (1, delta)})
    queries = [(vertex, a, b) for a, b in pairs for vertex in dynamic.graph.vertices()]
    want = _dict_answers(fresh, queries)  # before any array path exists
    assert _answers(dynamic, queries) == want, op
    assert _answers(reader, queries) == want, op
    got, expected = dynamic.export_level_arrays(), fresh.export_level_arrays()
    assert sorted(got) == sorted(expected), op
    for key, level in expected.items():
        assert got[key].num_upper == level.num_upper, (op, key)
        for field in ("indptr", "entry_vertex", "entry_weight", "entry_offset", "offsets"):
            mine, theirs = getattr(got[key], field), getattr(level, field)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), (op, key, field)


@pytest.mark.parametrize("budget", [DEFAULT_REGION_BUDGET, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maintained_reader_and_fresh_build_agree_after_every_op(tmp_path, seed, budget):
    rng = random.Random(1000 * seed + budget)
    directory = tmp_path / "snap"
    dynamic = DynamicDegeneracyIndex(_graph(seed), backend="dict", region_budget=budget)
    save_index(dynamic, directory, format="snapshot")
    counters = {"levels_rebuilt": 0.0, "levels_built": 0.0, "levels_dropped": 0.0}

    def tally(index):
        for key in counters:
            counters[key] += index.stats().extra[key]

    for step in range(OPS):
        op = _next_op(rng, dynamic.graph, step)
        if op[0] == "insert":
            dynamic.insert_edge(*op[1:])
        else:
            dynamic.remove_edge(*op[1:3])
        save_index(dynamic, directory, format="snapshot")
        roll = rng.random()
        if roll < 0.15:
            compact_snapshot(directory, journal=dynamic.journal)
        elif roll < 0.3:
            tally(dynamic)
            dynamic = DynamicDegeneracyIndex.from_snapshot(load_snapshot(directory))
            dynamic._region_budget = budget
        _check(dynamic, directory, (step, op))
    tally(dynamic)
    assert counters["levels_built"] and counters["levels_dropped"], counters
    assert bool(counters["levels_rebuilt"]) == (budget == 3), counters


@pytest.mark.parametrize("query_first", [True, False])
def test_delta_after_a_full_save_of_appended_upper_vertex(tmp_path, query_first):
    """A never-seen upper vertex breaks the upper-first id order.  The full
    save it forces must not bind the base to ids a later query renumbers:
    deltas saved after that save still carry the changed vertices."""
    directory = tmp_path / "snap"
    dynamic = DynamicDegeneracyIndex(_graph(4), backend="dict")
    save_index(dynamic, directory, format="snapshot")
    dynamic.insert_edge("new-u", "v0", 2.0)
    save_index(dynamic, directory, format="snapshot")  # full: the base lacks new-u
    rng = random.Random(4)
    for step in range(8):
        edges = sorted((u, v) for u, v, _ in dynamic.graph.edges())
        if step % 3 == 2:
            op = ("remove", *rng.choice(edges), 0.0)
            dynamic.remove_edge(*op[1:3])
        else:
            op = ("insert", f"u{rng.randrange(LABELS)}", f"v{rng.randrange(LABELS)}", 3.0)
            dynamic.insert_edge(*op[1:])
        if query_first:
            dynamic.batch_community([(v, 1, 1) for v in dynamic.graph.vertices()], on_empty="none")
        save_index(dynamic, directory, format="snapshot")
        assert load_snapshot(directory).version > 0, "the save must append a delta"
        _check(dynamic, directory, (step, op))
