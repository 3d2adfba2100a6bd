"""Cold-start cost of a long delta chain vs its compacted base.

Every delta segment a maintained index appends makes the next cold start a
little slower: ``load_snapshot`` replays the whole chain before the first
query.  :func:`~repro.serving.compaction.compact_snapshot` folds the chain
into a fresh base generation, so after ~1k churn updates spread over
``REPRO_BENCH_COMPACT_SEGMENTS`` segments the cold start drops back to
base-snapshot cost.  This benchmark builds exactly that scenario on a
100k-edge power-law graph and gates two things:

* **cold start** — the median open-plus-first-query time of the compacted
  directory must be within ``REPRO_BENCH_MAX_COMPACT_COLD_RATIO`` (default
  1.2) of a fresh full base written from the same final index state.  It is
  also reported against the un-compacted chain, which is strictly slower.
* **identity** — before/after compaction, the batch answers over a seeded
  query stream are asserted element-wise identical (checked outside every
  timed region).

Run standalone for a human-readable table::

    PYTHONPATH=src python benchmarks/bench_compaction.py

or as a pytest gate (not collected by the tier-1 run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_compaction.py -q

Scale knobs: ``REPRO_BENCH_COMPACT_EDGES`` (default 100_000),
``REPRO_BENCH_COMPACT_OPS`` (default 1000) and
``REPRO_BENCH_COMPACT_SEGMENTS`` (default 10).
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.generators import power_law_bipartite
from repro.index.maintenance import DynamicDegeneracyIndex
from repro.index.serialization import save_index

NUM_EDGES = int(os.environ.get("REPRO_BENCH_COMPACT_EDGES", "100000"))
NUM_OPS = int(os.environ.get("REPRO_BENCH_COMPACT_OPS", "1000"))
NUM_SEGMENTS = int(os.environ.get("REPRO_BENCH_COMPACT_SEGMENTS", "10"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_COMPACT_QUERIES", "40"))
COLD_RUNS = int(os.environ.get("REPRO_BENCH_COMPACT_COLD_RUNS", "5"))
MAX_COLD_RATIO = float(os.environ.get("REPRO_BENCH_MAX_COMPACT_COLD_RATIO", "1.2"))

_cache: Dict[str, object] = {}


def benchmark_graph() -> BipartiteGraph:
    if "graph" not in _cache:
        _cache["graph"] = power_law_bipartite(
            num_upper=max(NUM_EDGES * 3 // 20, 10),
            num_lower=max(NUM_EDGES * 3 // 25, 10),
            num_edges=NUM_EDGES,
            seed=7,
            name="compaction",
        )
    return _cache["graph"]  # type: ignore[return-value]


def churned_directories(tmp_root: Path) -> Tuple[Path, Path, Path]:
    """Three directories from one churned writer: chain, compacted, fresh.

    One :class:`DynamicDegeneracyIndex` absorbs ``NUM_OPS`` updates spread
    evenly over ``NUM_SEGMENTS`` delta appends.  The chained directory is
    then copied and compacted, and the final index state is saved once more
    as a fresh full base — the floor the compacted cold start is gated
    against.
    """
    if "dirs" not in _cache:
        try:
            from benchmarks.bench_maintenance_stream import apply_update, churn_stream
        except ImportError:  # standalone run: sys.path[0] is benchmarks/
            from bench_maintenance_stream import apply_update, churn_stream
        from repro.serving.compaction import compact_snapshot

        graph = benchmark_graph()
        stream = churn_stream(graph, NUM_OPS, seed=11)
        dynamic = DynamicDegeneracyIndex(graph, backend="csr")
        chained = tmp_root / "chained"
        save_index(dynamic, chained, format="snapshot")
        per_segment = max(NUM_OPS // NUM_SEGMENTS, 1)
        for start in range(0, len(stream), per_segment):
            for update in stream[start : start + per_segment]:
                apply_update(dynamic, update)
            save_index(dynamic, chained, format="snapshot")

        compacted = tmp_root / "compacted"
        shutil.copytree(chained, compacted)
        report = compact_snapshot(compacted)
        _cache["report"] = report

        fresh = tmp_root / "fresh"
        from repro.serving.snapshot import save_snapshot

        save_snapshot(dynamic, fresh)
        _cache["dynamic"] = dynamic
        _cache["dirs"] = (chained, compacted, fresh)
    return _cache["dirs"]  # type: ignore[return-value]


def sample_queries(tmp_root: Path) -> List[Tuple[Vertex, int, int]]:
    if "queries" not in _cache:
        dynamic = _cache["dynamic"]
        rng = random.Random(13)
        queries: List[Tuple[Vertex, int, int]] = []
        for alpha, beta in ((3, 3), (4, 4), (5, 5), (3, 6)):
            core = dynamic.vertices_in_core(alpha, beta)
            if core:
                queries.extend(
                    (vertex, alpha, beta)
                    for vertex in rng.choices(core, k=NUM_QUERIES // 4)
                )
        _cache["queries"] = queries
    return _cache["queries"]  # type: ignore[return-value]


def cold_start_seconds(directory: Path, query) -> float:
    """Median over ``COLD_RUNS`` of open + first community answered."""
    from repro.serving.snapshot import load_snapshot

    samples = []
    for _ in range(COLD_RUNS):
        start = time.perf_counter()
        index = load_snapshot(directory)
        index.community(*query)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_compaction(tmp_root: Path) -> Dict[str, float]:
    from repro.serving.snapshot import load_snapshot

    chained, compacted, fresh = churned_directories(tmp_root)
    queries = sample_queries(tmp_root)
    if not queries:
        raise AssertionError("churned graph has no deep cores to query")

    # Identity first, outside every timed region: compaction must not change
    # a single answer.
    chain_answers = load_snapshot(chained).batch_community(queries, on_empty="none")
    compact_answers = load_snapshot(compacted).batch_community(queries, on_empty="none")
    for got, want in zip(compact_answers, chain_answers):
        if (got is None) != (want is None) or (
            got is not None and not got.same_structure(want)
        ):
            raise AssertionError("compacted answers differ from the chained ones")

    query = queries[0]
    chained_cold = cold_start_seconds(chained, query)
    compacted_cold = cold_start_seconds(compacted, query)
    fresh_cold = cold_start_seconds(fresh, query)
    report = _cache["report"]
    return {
        "ops": float(NUM_OPS),
        "segments": float(report.folded_deltas),
        "chained_cold": chained_cold,
        "compacted_cold": compacted_cold,
        "fresh_cold": fresh_cold,
        "cold_ratio": compacted_cold / fresh_cold,
        "chain_penalty": chained_cold / fresh_cold,
        "bytes_before": float(report.bytes_before),
        "bytes_after": float(report.bytes_after),
        "compact_seconds": report.seconds,
    }


def format_report(results: Dict[str, float]) -> str:
    graph = benchmark_graph()
    return "\n".join(
        [
            f"compaction benchmark on {graph.name!r}: "
            f"|U|={graph.num_upper} |L|={graph.num_lower} |E|={graph.num_edges}, "
            f"{int(results['ops'])} updates over {int(results['segments'])} segments",
            f"{'cold start (open + first query)':<36} {'median [s]':>11}",
            f"{'  base + %d-segment chain' % int(results['segments']):<36} "
            f"{results['chained_cold']:>11.4f}",
            f"{'  compacted base':<36} {results['compacted_cold']:>11.4f}",
            f"{'  fresh full base (floor)':<36} {results['fresh_cold']:>11.4f}",
            f"chain penalty {results['chain_penalty']:.2f}x -> compacted/fresh "
            f"{results['cold_ratio']:.2f}x "
            f"(fold took {results['compact_seconds']:.2f}s, "
            f"{results['bytes_before'] / 1e6:.1f} -> "
            f"{results['bytes_after'] / 1e6:.1f} MB)",
        ]
    )


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-compaction")


def test_compacted_cold_start_within_ratio_of_fresh_base(bench_root):
    results = run_compaction(bench_root)
    print()
    print(format_report(results))
    assert results["cold_ratio"] <= MAX_COLD_RATIO, (
        f"compacted cold start {results['cold_ratio']:.2f}x of a fresh base, "
        f"above the {MAX_COLD_RATIO:.1f}x ceiling"
    )


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-compaction-") as tmp:
        results = run_compaction(Path(tmp))
        print(format_report(results))
        if results["cold_ratio"] > MAX_COLD_RATIO:
            print(
                f"FAIL: compacted cold start above the {MAX_COLD_RATIO:.1f}x ceiling"
            )
            return 1
        print(
            f"OK: compacted cold start {results['cold_ratio']:.2f}x of a fresh "
            f"base (chain was {results['chain_penalty']:.2f}x)"
        )
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
