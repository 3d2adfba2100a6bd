"""Batched CSR query path vs per-query dict ``Qopt`` on a 100k-edge graph.

The paper's headline is optimal *per-query* retrieval; the ROADMAP's serving
story is heavy *query traffic*.  This benchmark measures the gap between the
two on the shape that traffic takes: one prebuilt ``DegeneracyIndex`` and a
stream of 500 community queries sampled (seeded) from several (α,β)-cores of
a skewed power-law graph.

* **per-query dict Qopt** — ``index.community(q, α, β)`` in a loop: the
  classic BFS over dict-of-tuples adjacency lists, one answer graph built
  edge by edge per call.
* **batch CSR path** — ``index.batch_community(stream)``: the index is
  frozen into flat per-level arrays once, every retrieval runs the
  vectorised array BFS with a shared visited bitmap, and repeated hits on an
  already-retrieved component are served as copies.

Both produce element-wise identical answers (asserted below, as is agreement
between batch and sequential *significant-community* search on both
backends).  The acceptance gate is a ≥ ``REPRO_BENCH_MIN_BATCH_SPEEDUP``
(default 3) throughput ratio.

Run standalone for a human-readable table::

    PYTHONPATH=src python benchmarks/bench_batch_query.py

or as a pytest gate (not collected by the tier-1 run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_query.py -q

Scale knobs: ``REPRO_BENCH_BATCH_EDGES`` (default 100_000) and
``REPRO_BENCH_BATCH_QUERIES`` (default 500).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

import pytest

from repro.api import CommunitySearcher
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex

NUM_EDGES = int(os.environ.get("REPRO_BENCH_BATCH_EDGES", "100000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_BATCH_QUERIES", "500"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_BATCH_SPEEDUP", "3.0"))

#: Threshold pairs the query stream mixes (weighted towards the deeper cores
#: so per-query answers stay large — the worst case for the batch path, since
#: component memoisation aside every answer must still be materialised).
QUERY_THRESHOLDS: Tuple[Tuple[int, int], ...] = (
    (2, 2),
    (3, 3),
    (4, 4),
    (5, 5),
    (3, 6),
    (6, 3),
)

_cache: Dict[str, object] = {}


def benchmark_graph() -> BipartiteGraph:
    if "graph" not in _cache:
        _cache["graph"] = power_law_bipartite(
            num_upper=max(NUM_EDGES * 3 // 20, 10),
            num_lower=max(NUM_EDGES * 3 // 25, 10),
            num_edges=NUM_EDGES,
            seed=7,
            name="batch-query",
        )
    return _cache["graph"]  # type: ignore[return-value]


def benchmark_index() -> DegeneracyIndex:
    if "index" not in _cache:
        _cache["index"] = DegeneracyIndex(benchmark_graph(), backend="csr")
    return _cache["index"]  # type: ignore[return-value]


def sample_queries(index: DegeneracyIndex) -> List[Tuple[Vertex, int, int]]:
    """A seeded stream of NUM_QUERIES triples spread over the threshold grid."""
    rng = random.Random(11)
    queries: List[Tuple[Vertex, int, int]] = []
    per_pair = max(-(-NUM_QUERIES // len(QUERY_THRESHOLDS)), 1)
    for alpha, beta in QUERY_THRESHOLDS:
        core = index.vertices_in_core(alpha, beta)
        if not core:
            continue
        for vertex in rng.choices(core, k=per_pair):
            queries.append((vertex, alpha, beta))
    rng.shuffle(queries)
    return queries[:NUM_QUERIES]


def run_comparison() -> Dict[str, float]:
    index = benchmark_index()
    queries = sample_queries(index)

    start = time.perf_counter()
    sequential = [index.community(q, a, b) for q, a, b in queries]
    dict_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = index.batch_community(queries)
    batch_seconds = time.perf_counter() - start

    if len(sequential) != len(batched):
        raise AssertionError("batch result count disagrees with the query stream")
    for answer, expected in zip(batched, sequential):
        if not answer.same_structure(expected):
            raise AssertionError("batch answer differs from per-query Qopt")

    return {
        "queries": float(len(queries)),
        "dict_seconds": dict_seconds,
        "batch_seconds": batch_seconds,
        "speedup": dict_seconds / batch_seconds,
        "dict_qps": len(queries) / dict_seconds,
        "batch_qps": len(queries) / batch_seconds,
    }


def assert_batch_matches_sequential_search() -> None:
    """Batch significant-community search must equal sequential, per backend."""
    graph = benchmark_graph()
    index = benchmark_index()
    rng = random.Random(23)
    stream = [(q, 5, 5) for q in rng.sample(index.vertices_in_core(5, 5), 6)]
    stream += [(q, 3, 3) for q in rng.sample(index.vertices_in_core(3, 3), 6)]
    for backend in ("dict", "csr"):
        searcher = CommunitySearcher(graph, backend=backend)
        batched = searcher.batch_significant_communities(stream)
        for (q, a, b), result in zip(stream, batched):
            expected = searcher.significant_community(q, a, b)
            if (
                result.method != expected.method
                or result.search_space_edges != expected.search_space_edges
                or not result.graph.same_structure(expected.graph)
            ):
                raise AssertionError(
                    f"batch search disagrees with sequential on backend {backend!r}"
                )


def format_report(report: Dict[str, float]) -> str:
    graph = benchmark_graph()
    return "\n".join(
        [
            f"batch query comparison on {graph.name!r}: "
            f"|U|={graph.num_upper} |L|={graph.num_lower} |E|={graph.num_edges}, "
            f"{int(report['queries'])} queries",
            f"{'path':<24} {'total [s]':>10} {'queries/s':>10}",
            f"{'per-query dict Qopt':<24} {report['dict_seconds']:>10.3f} "
            f"{report['dict_qps']:>10.1f}",
            f"{'batch CSR path':<24} {report['batch_seconds']:>10.3f} "
            f"{report['batch_qps']:>10.1f}",
            f"speedup: {report['speedup']:.1f}x",
        ]
    )


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def comparison_report():
    return run_comparison()


def test_batch_csr_path_meets_speedup_target(comparison_report):
    print()
    print(format_report(comparison_report))
    assert comparison_report["speedup"] >= MIN_SPEEDUP, (
        f"batch CSR query speedup {comparison_report['speedup']:.1f}x "
        f"below the {MIN_SPEEDUP:.1f}x target"
    )


def test_batch_search_matches_sequential_on_both_backends():
    assert_batch_matches_sequential_search()


def main() -> int:
    report = run_comparison()
    print(format_report(report))
    assert_batch_matches_sequential_search()
    print("batch vs sequential significant-community agreement: ok")
    if report["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: below the {MIN_SPEEDUP:.1f}x speedup target")
        return 1
    print(f"OK: batch CSR path {report['speedup']:.1f}x faster")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
