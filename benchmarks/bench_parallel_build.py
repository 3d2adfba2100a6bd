"""Parallel index construction speedup on a 100k-edge power-law graph.

Index construction is the expensive half of the two-step framework, and its
per-τ level passes are embarrassingly parallel: each level's offset and peel
computation reads only the frozen CSR arrays.  ``DegeneracyIndex(...,
n_jobs=N)`` shards those passes across a process pool
(:mod:`repro.index.parallel_build`); this benchmark gates the payoff and the
contract:

* **speedup** — wall-clock of a ``backend="csr"`` build at
  ``REPRO_BENCH_BUILD_JOBS`` (default 4) workers against the sequential
  ``n_jobs=1`` build of the same graph.  Gate:
  ``REPRO_BENCH_MIN_BUILD_SPEEDUP`` (default 2).  Skipped (never failed)
  when the machine has fewer usable cores than it takes to show parallelism
  — identity is still asserted everywhere by ``tests/test_parallel_build.py``.
* **identity** — the parallel build's exported ``LevelArrays`` are asserted
  element-wise equal to the sequential build's, outside the timed region.
  A speedup that changes a single offset is a bug, not a win.

Run standalone for a human-readable table::

    PYTHONPATH=src python benchmarks/bench_parallel_build.py

or as a pytest gate (not collected by the tier-1 run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_build.py -q

Scale knobs: ``REPRO_BENCH_BUILD_EDGES`` (default 100_000) and
``REPRO_BENCH_BUILD_JOBS`` (default 4).
"""

from __future__ import annotations

import os
import time
from typing import Dict

import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex

NUM_EDGES = int(os.environ.get("REPRO_BENCH_BUILD_EDGES", "100000"))
NUM_JOBS = int(os.environ.get("REPRO_BENCH_BUILD_JOBS", "4"))
MIN_BUILD_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_BUILD_SPEEDUP", "2.0"))

_cache: Dict[str, object] = {}


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def benchmark_graph() -> BipartiteGraph:
    if "graph" not in _cache:
        _cache["graph"] = power_law_bipartite(
            num_upper=max(NUM_EDGES * 3 // 20, 10),
            num_lower=max(NUM_EDGES * 3 // 25, 10),
            num_edges=NUM_EDGES,
            seed=7,
            name="par-build",
        )
    return _cache["graph"]  # type: ignore[return-value]


def assert_identical(sequential: DegeneracyIndex, parallel: DegeneracyIndex) -> None:
    import numpy as np

    if sequential.delta != parallel.delta:
        raise AssertionError("parallel build changed the degeneracy")
    arrays_a = sequential.export_level_arrays()
    arrays_b = parallel.export_level_arrays()
    if arrays_a.keys() != arrays_b.keys():
        raise AssertionError("parallel build changed the level set")
    for key, level_a in arrays_a.items():
        level_b = arrays_b[key]
        for field in ("indptr", "entry_vertex", "entry_weight", "entry_offset", "offsets"):
            if not np.array_equal(getattr(level_a, field), getattr(level_b, field)):
                raise AssertionError(
                    f"parallel build diverged at level {key}, field {field}"
                )


def run_build(n_jobs: int) -> Dict[str, float]:
    graph = benchmark_graph()
    start = time.perf_counter()
    index = DegeneracyIndex(graph, backend="csr", n_jobs=n_jobs)
    seconds = time.perf_counter() - start
    extra = index.stats().extra
    _cache[f"index-{n_jobs}"] = index
    return {
        "jobs": float(n_jobs),
        "seconds": seconds,
        "delta": float(index.delta),
        "shipped_mb": extra.get("build_shipped_bytes", 0.0) / 1e6,
        "level_seconds_total": extra.get("build_level_seconds_total", 0.0),
        "level_seconds_max": extra.get("build_level_seconds_max", 0.0),
    }


def format_report(sequential: Dict[str, float], parallel: Dict[str, float]) -> str:
    graph = benchmark_graph()
    speedup = sequential["seconds"] / parallel["seconds"]
    return "\n".join(
        [
            f"parallel build benchmark on {graph.name!r}: "
            f"|U|={graph.num_upper} |L|={graph.num_lower} |E|={graph.num_edges} "
            f"delta={int(sequential['delta'])}",
            f"{'build':<28} {'wall [s]':>10} {'levels [s]':>11} {'shipped [MB]':>13}",
            f"{'  sequential (n_jobs=1)':<28} {sequential['seconds']:>10.3f} "
            f"{sequential['level_seconds_total']:>11.3f} {0.0:>13.1f}",
            f"{'  %d-worker pool' % int(parallel['jobs']):<28} "
            f"{parallel['seconds']:>10.3f} "
            f"{parallel['level_seconds_total']:>11.3f} "
            f"{parallel['shipped_mb']:>13.1f}",
            f"build speedup: {speedup:.2f}x at {int(parallel['jobs'])} workers "
            f"(slowest level {parallel['level_seconds_max']:.3f}s)",
        ]
    )


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #


def test_parallel_build_meets_speedup_target():
    cores = _usable_cores()
    if cores < 2:
        pytest.skip(
            f"the {NUM_JOBS}-worker speedup gate needs >= 2 usable cores, "
            f"this machine has {cores} (tests/test_parallel_build.py still "
            "verifies identity everywhere)"
        )
    sequential = run_build(1)
    parallel = run_build(NUM_JOBS)
    assert_identical(_cache["index-1"], _cache[f"index-{NUM_JOBS}"])
    print()
    print(format_report(sequential, parallel))
    speedup = sequential["seconds"] / parallel["seconds"]
    assert speedup >= MIN_BUILD_SPEEDUP, (
        f"parallel build {speedup:.2f}x with {NUM_JOBS} workers "
        f"below the {MIN_BUILD_SPEEDUP:.1f}x target"
    )


def main() -> int:
    sequential = run_build(1)
    parallel = run_build(NUM_JOBS)
    assert_identical(_cache["index-1"], _cache[f"index-{NUM_JOBS}"])
    print(format_report(sequential, parallel))
    speedup = sequential["seconds"] / parallel["seconds"]
    if _usable_cores() < 2:
        print(
            "NOTE: single usable core; pool parallelism cannot show, "
            "only the identity contract is meaningful here"
        )
        return 0
    if speedup < MIN_BUILD_SPEEDUP:
        print(f"FAIL: build speedup below the {MIN_BUILD_SPEEDUP:.1f}x target")
        return 1
    print(f"OK: build speedup {speedup:.2f}x at {NUM_JOBS} workers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
