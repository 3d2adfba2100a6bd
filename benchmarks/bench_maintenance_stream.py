"""Incremental maintenance vs invalidate-and-rebuild on a 100k-edge churn stream.

An evolving deployment interleaves edge updates with query traffic.  Before
this engine, every update rebuilt the affected structures and discarded the
array query path, so the next batch paid a full conversion; the maintenance
engine instead patches the S⁺/S⁻ candidate regions into its
:class:`LevelArrays`, the only per-level store it keeps.  This benchmark replays a
mixed churn stream (inserts, removals and reweights over the existing vertex
universe) against both strategies, running the same probe batch after every
update so the arrays stay on the serving path:

* **maintained** — one :class:`DynamicDegeneracyIndex` absorbs every update
  (timed together with its per-update probe batch).
* **invalidate-and-rebuild** — a from-scratch :class:`DegeneracyIndex` build
  plus the same probe batch, measured over the first
  ``REPRO_BENCH_MAINT_BASELINE_UPDATES`` updates of the same stream and
  extrapolated (rebuilding after each of the 1k updates would take hours).

Correctness is asserted, not assumed: after *every* update the maintained
index's batch answers are compared element-wise against its own
per-query answers, and at every ``REPRO_BENCH_MAINT_VERIFY_EVERY``
updates (and at the end) against a from-scratch rebuild of the current graph.
The gate: maintained throughput must beat invalidate-and-rebuild by
``REPRO_BENCH_MIN_MAINT_SPEEDUP`` (default 5×).

Run standalone for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_maintenance_stream.py

or as a pytest gate (not collected by the tier-1 run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_maintenance_stream.py -q

Scale knobs: ``REPRO_BENCH_MAINT_EDGES`` (default 100_000) and
``REPRO_BENCH_MAINT_UPDATES`` (default 1000).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

import pytest

from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DynamicDegeneracyIndex

NUM_EDGES = int(os.environ.get("REPRO_BENCH_MAINT_EDGES", "100000"))
NUM_UPDATES = int(os.environ.get("REPRO_BENCH_MAINT_UPDATES", "1000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_MAINT_QUERIES", "12"))
VERIFY_EVERY = int(os.environ.get("REPRO_BENCH_MAINT_VERIFY_EVERY", "100"))
BASELINE_UPDATES = int(os.environ.get("REPRO_BENCH_MAINT_BASELINE_UPDATES", "10"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_MAINT_SPEEDUP", "5.0"))

#: Probe thresholds: deep enough that answers stay serving-sized.
QUERY_THRESHOLDS: Tuple[Tuple[int, int], ...] = ((3, 3), (4, 4), (3, 5), (5, 3))

_cache: Dict[str, object] = {}


def benchmark_graph() -> BipartiteGraph:
    if "graph" not in _cache:
        _cache["graph"] = power_law_bipartite(
            num_upper=max(NUM_EDGES * 3 // 10, 10),
            num_lower=max(NUM_EDGES // 4, 10),
            num_edges=NUM_EDGES,
            exponent_upper=0.6,
            exponent_lower=0.6,
            seed=7,
            name="maintenance",
        )
    return _cache["graph"]  # type: ignore[return-value]


Update = Tuple[str, object, object, float]


def churn_stream(graph: BipartiteGraph, updates: int, seed: int = 11) -> List[Update]:
    """A seeded mixed stream over the graph's existing vertex universe.

    ~40% inserts between random existing vertices, ~45% removals of live
    edges, ~15% reweights — the rating-stream shape an evolving bipartite
    deployment sees.  Removals always name a live edge (the stream tracks
    liveness while it is generated), so both strategies replay identical
    work.
    """
    rng = random.Random(seed)
    uppers = list(graph.upper_labels())
    lowers = list(graph.lower_labels())
    live: List[Tuple[object, object]] = [(u, v) for u, v, _ in graph.edges()]
    live_set = set(live)
    stream: List[Update] = []
    while len(stream) < updates:
        roll = rng.random()
        if roll < 0.40:
            u, v = rng.choice(uppers), rng.choice(lowers)
            if (u, v) in live_set:
                continue
            live.append((u, v))
            live_set.add((u, v))
            stream.append(("insert", u, v, float(rng.randint(1, 5))))
        elif roll < 0.85:
            while True:
                position = rng.randrange(len(live))
                u, v = live[position]
                if (u, v) in live_set:
                    break
            live_set.discard((u, v))
            stream.append(("remove", u, v, 0.0))
        else:
            u, v = rng.choice(sorted(live_set)) if len(live_set) < 64 else live[
                rng.randrange(len(live))
            ]
            if (u, v) not in live_set:
                continue
            stream.append(("reweight", u, v, float(rng.randint(1, 5))))
    return stream


def apply_update(index: DynamicDegeneracyIndex, update: Update) -> None:
    kind, u, v, weight = update
    if kind == "remove":
        index.remove_edge(u, v)
    else:
        index.insert_edge(u, v, weight)


def apply_to_graph(graph: BipartiteGraph, update: Update) -> None:
    kind, u, v, weight = update
    if kind == "remove":
        graph.remove_edge(u, v)
        graph.discard_isolated()
    else:
        graph.add_edge(u, v, weight)


def probe_queries(index: DegeneracyIndex) -> List[Tuple[Vertex, int, int]]:
    rng = random.Random(13)
    queries: List[Tuple[Vertex, int, int]] = []
    per_pair = max(-(-NUM_QUERIES // len(QUERY_THRESHOLDS)), 1)
    for alpha, beta in QUERY_THRESHOLDS:
        core = index.vertices_in_core(alpha, beta)
        if core:
            queries.extend((vertex, alpha, beta) for vertex in rng.sample(core, min(per_pair, len(core))))
    return queries[:NUM_QUERIES]


def _assert_same_answers(got, want, context: str) -> None:
    if len(got) != len(want):
        raise AssertionError(f"{context}: answer counts diverged")
    for position, (answer, expected) in enumerate(zip(got, want)):
        if (answer is None) != (expected is None):
            raise AssertionError(f"{context}: query {position} emptiness diverged")
        if answer is not None and not answer.same_structure(expected):
            raise AssertionError(f"{context}: query {position} structure diverged")


def run_maintained(stream: List[Update]) -> Dict[str, float]:
    """Replay the stream through the maintenance engine; verify throughout."""
    index = DynamicDegeneracyIndex(benchmark_graph(), backend="csr")
    queries = probe_queries(index)
    index.batch_community(queries, on_empty="none")  # materialise the arrays
    verification_graph = index.graph.copy()
    maintained_seconds = 0.0
    for step, update in enumerate(stream, start=1):
        start = time.perf_counter()
        apply_update(index, update)
        batched = index.batch_community(queries, on_empty="none")
        maintained_seconds += time.perf_counter() - start

        # Every update: the memoised batch must agree with per-query answers
        # over the same patched arrays.
        sequential = []
        for query, alpha, beta in queries:
            try:
                sequential.append(index.community(query, alpha, beta))
            except Exception:  # noqa: BLE001 - outside-the-core probes
                sequential.append(None)
        _assert_same_answers(batched, sequential, f"update {step} (batch vs per-query)")

        apply_to_graph(verification_graph, update)
        if step % VERIFY_EVERY == 0 or step == len(stream):
            fresh = DegeneracyIndex(verification_graph, backend="csr")
            if fresh.delta != index.delta:
                raise AssertionError(f"update {step}: degeneracy diverged")
            _assert_same_answers(
                batched,
                fresh.batch_community(queries, on_empty="none"),
                f"update {step} (vs from-scratch rebuild)",
            )
    stats = index.stats()
    return {
        "seconds": maintained_seconds,
        "per_update": maintained_seconds / len(stream),
        "updates_per_second": len(stream) / maintained_seconds,
        **{key: stats.extra[key] for key in (
            "levels_patched",
            "levels_rebuilt",
            "levels_built",
            "region_mean_vertices",
            "reweight_updates",
        )},
    }


def run_rebuild_baseline(stream: List[Update]) -> Dict[str, float]:
    """Invalidate-and-rebuild over a sampled prefix of the same stream."""
    graph = benchmark_graph().copy()
    index = DegeneracyIndex(graph, backend="csr")
    queries = probe_queries(index)
    sampled = stream[:BASELINE_UPDATES]
    start = time.perf_counter()
    for update in sampled:
        apply_to_graph(graph, update)
        index = DegeneracyIndex(graph, backend="csr")
        index.batch_community(queries, on_empty="none")
    seconds = time.perf_counter() - start
    return {
        "sampled_updates": float(len(sampled)),
        "per_update": seconds / len(sampled),
        "updates_per_second": len(sampled) / seconds,
    }


def format_report(maintained: Dict[str, float], baseline: Dict[str, float]) -> str:
    graph = benchmark_graph()
    speedup = baseline["per_update"] / maintained["per_update"]
    lines = [
        f"maintenance stream on {graph.name!r}: |U|={graph.num_upper} "
        f"|L|={graph.num_lower} |E|={graph.num_edges}, {NUM_UPDATES} updates, "
        f"{NUM_QUERIES} probe queries per update",
        f"{'strategy':<28} {'ms/update':>10} {'updates/s':>10}",
        f"{'  maintained (patched)':<28} {maintained['per_update'] * 1000:>10.1f} "
        f"{maintained['updates_per_second']:>10.1f}",
        f"{'  invalidate-and-rebuild':<28} {baseline['per_update'] * 1000:>10.1f} "
        f"{baseline['updates_per_second']:>10.2f}   "
        f"(sampled over {int(baseline['sampled_updates'])} updates)",
        f"speedup: {speedup:.1f}x",
        f"levels patched/rebuilt/built: {maintained['levels_patched']:.0f} / "
        f"{maintained['levels_rebuilt']:.0f} / {maintained['levels_built']:.0f}; "
        f"mean candidate region {maintained['region_mean_vertices']:.0f} vertices; "
        f"reweights {maintained['reweight_updates']:.0f}",
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# pytest entry point
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def stream():
    return churn_stream(benchmark_graph(), NUM_UPDATES)


def test_maintenance_stream_meets_speedup_target(stream):
    maintained = run_maintained(stream)
    baseline = run_rebuild_baseline(stream)
    print()
    print(format_report(maintained, baseline))
    speedup = baseline["per_update"] / maintained["per_update"]
    assert speedup >= MIN_SPEEDUP, (
        f"maintained throughput {speedup:.1f}x below the {MIN_SPEEDUP:.1f}x target"
    )


def main() -> int:
    updates = churn_stream(benchmark_graph(), NUM_UPDATES)
    maintained = run_maintained(updates)
    baseline = run_rebuild_baseline(updates)
    print(format_report(maintained, baseline))
    speedup = baseline["per_update"] / maintained["per_update"]
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup below the {MIN_SPEEDUP:.1f}x target")
        return 1
    print(f"OK: maintained updates {speedup:.1f}x faster than invalidate-and-rebuild")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
