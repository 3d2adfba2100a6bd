"""Dict vs CSR backend comparison on a 100k-edge synthetic graph.

The CSR engine exists for one reason — speed at scale — so this benchmark
*measures* the speedup instead of asserting it in prose.  Three workloads are
compared on the same skewed power-law graph (the typical shape of user-item
data):

* **index build** — full ``DegeneracyIndex`` construction, the O(δ·m) hot
  path of the two-step framework;
* **core peeling sweep** — the (α,β)-core for a grid of threshold pairs.
  The dict backend snapshots adjacency per call; the CSR backend freezes
  once (freeze time is charged to the CSR total) and reuses the snapshot,
  which is exactly how parameter sweeps and index construction consume the
  kernel;
* **single offset pass** — one ``alpha_offsets`` computation, reported for
  context (not part of the acceptance gate).

Run standalone for a human-readable table::

    PYTHONPATH=src python benchmarks/bench_backend_compare.py

or as a pytest gate (not collected by the tier-1 run, which only picks up
``test_*.py`` files)::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend_compare.py -q

Both modes fail when the CSR engine is less than ``REPRO_BENCH_MIN_SPEEDUP``
(default 5) times faster than the dict engine on index build or peeling.
Scale knobs: ``REPRO_BENCH_COMPARE_EDGES`` (default 100_000) and
``REPRO_BENCH_COMPARE_REPEATS`` (default 1).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Set, Tuple

import pytest

from repro.decomposition.abcore import abcore_vertices
from repro.decomposition.csr_kernels import csr_abcore_masks
from repro.decomposition.offsets import alpha_offsets
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.csr import freeze
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex

NUM_EDGES = int(os.environ.get("REPRO_BENCH_COMPARE_EDGES", "100000"))
REPEATS = int(os.environ.get("REPRO_BENCH_COMPARE_REPEATS", "1"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))

#: Threshold grid for the peeling sweep (a typical core-structure analysis).
PEEL_PAIRS: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4))

_graph_cache: Dict[int, BipartiteGraph] = {}


def comparison_graph() -> BipartiteGraph:
    """The shared benchmark graph: skewed degrees, ~NUM_EDGES edges."""
    if NUM_EDGES not in _graph_cache:
        _graph_cache[NUM_EDGES] = power_law_bipartite(
            num_upper=max(NUM_EDGES * 3 // 20, 10),
            num_lower=max(NUM_EDGES * 3 // 25, 10),
            num_edges=NUM_EDGES,
            seed=7,
            name="backend-compare",
        )
    return _graph_cache[NUM_EDGES]


def best_of(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def dict_peel_sweep(graph: BipartiteGraph) -> List[Set[Vertex]]:
    return [abcore_vertices(graph, a, b, backend="dict") for a, b in PEEL_PAIRS]


def csr_peel_sweep(graph: BipartiteGraph) -> List[Set[Vertex]]:
    csr = freeze(graph)
    upper_handles = csr.upper_handles()
    lower_handles = csr.lower_handles()
    results: List[Set[Vertex]] = []
    for a, b in PEEL_PAIRS:
        alive_upper, alive_lower = csr_abcore_masks(csr, a, b)
        survivors = {upper_handles[i] for i in alive_upper.nonzero()[0].tolist()}
        survivors.update(lower_handles[i] for i in alive_lower.nonzero()[0].tolist())
        results.append(survivors)
    return results


def run_comparison() -> Dict[str, Dict[str, float]]:
    """Time every workload on both backends; returns {workload: metrics}."""
    graph = comparison_graph()
    report: Dict[str, Dict[str, float]] = {}

    dict_sweep = dict_peel_sweep(graph)
    csr_sweep = csr_peel_sweep(graph)
    if dict_sweep != csr_sweep:
        raise AssertionError("backends disagree on the peeling sweep results")
    report["core peeling sweep"] = {
        "dict": best_of(lambda: dict_peel_sweep(graph)),
        "csr": best_of(lambda: csr_peel_sweep(graph)),
    }

    report["alpha offsets (α=2)"] = {
        "dict": best_of(lambda: alpha_offsets(graph, 2, backend="dict")),
        "csr": best_of(lambda: alpha_offsets(graph, 2, backend="csr")),
    }

    report["index build (I_δ)"] = {
        "dict": best_of(lambda: DegeneracyIndex(graph, backend="dict")),
        "csr": best_of(lambda: DegeneracyIndex(graph, backend="csr")),
    }

    for metrics in report.values():
        metrics["speedup"] = metrics["dict"] / metrics["csr"]
    return report


def format_report(report: Dict[str, Dict[str, float]]) -> str:
    graph = comparison_graph()
    lines = [
        f"backend comparison on {graph.name!r}: "
        f"|U|={graph.num_upper} |L|={graph.num_lower} |E|={graph.num_edges}",
        f"{'workload':<24} {'dict [s]':>10} {'csr [s]':>10} {'speedup':>9}",
    ]
    for workload, metrics in report.items():
        lines.append(
            f"{workload:<24} {metrics['dict']:>10.3f} {metrics['csr']:>10.3f} "
            f"{metrics['speedup']:>8.1f}x"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def comparison_report():
    return run_comparison()


def test_csr_backend_meets_speedup_targets(comparison_report):
    print()
    print(format_report(comparison_report))
    build = comparison_report["index build (I_δ)"]["speedup"]
    peel = comparison_report["core peeling sweep"]["speedup"]
    assert build >= MIN_SPEEDUP, (
        f"CSR index build speedup {build:.1f}x below the {MIN_SPEEDUP:.1f}x target"
    )
    assert peel >= MIN_SPEEDUP, (
        f"CSR core peeling speedup {peel:.1f}x below the {MIN_SPEEDUP:.1f}x target"
    )


def main() -> int:
    report = run_comparison()
    print(format_report(report))
    build = report["index build (I_δ)"]["speedup"]
    peel = report["core peeling sweep"]["speedup"]
    if build < MIN_SPEEDUP or peel < MIN_SPEEDUP:
        print(f"FAIL: below the {MIN_SPEEDUP:.1f}x speedup target")
        return 1
    print(f"OK: index build {build:.1f}x, core peeling {peel:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
