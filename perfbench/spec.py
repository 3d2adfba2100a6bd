"""The benchmark's contract, read from ``BENCHMARK.json`` at the checkout root.

That file is the single source of workloads, metric names, units and
bounds; this module only looks names up in it.

Every run reports every end-to-end metric, so each one is defined on all
three workloads.  An *op* is the workload's unit of work: a community
request on serve-hot, a community or significant request on serve-cold,
and on churn an edge update made visible: applied, published as a delta
(folded when due) and answered by a freshly opened reader.

* ``setup_s``: median of three set-ups, each ``repro build`` + (serve-*)
  front end ready + warm pass, or (churn) writer and reader open.
* ``build_s`` / ``build_peak_mb``: median wall time and peak RSS of five
  (churn: seven) ``repro build`` children, edge file to snapshot, spread
  over the run.
* ``op_p50_ms``: median op latency; over the socket from the due time on
  serve-*, publish + reader open + probe on churn.  Tails are per-layer
  metrics (``community_p90_ms``, ``significant_p90_ms``,
  ``publish_p90_ms``): on a shared two-core host the p90 of sub-millisecond
  cache hits swung by a factor of five between runs.
* ``op_cpu_ms``: CPU time per op of the processes doing the work; the
  front end and its workers on serve-*, the writer and reader on churn.
* ``resident_pss_mb``: PSS of the processes holding the index at the end
  of the measured phase; front end plus workers on serve-*, the writer
  and reader on churn.

Failures, refusals, wrong answers and runs the benchmark itself judges
invalid are the result's ``failed`` count; the traced run reports them as
``error_rate``.  Per-layer metrics a workload does not exercise are
reported as 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

SPEC: Dict = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names() -> List[str]:
    return [w["name"] for w in SPEC["workloads"]]


def metric_names(trace: bool) -> List[str]:
    return [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]


def unit_of(name: str) -> str:
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    raise KeyError(name)
