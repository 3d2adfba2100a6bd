"""churn: edge writes beside reads, on one thread in-process.

A seeded op stream (40% insert, 45% remove, 15% reweight, the mix of
``benchmarks/bench_maintenance_stream.py``) runs against a skewed power-law
graph opened with ``DynamicDegeneracyIndex.from_snapshot``.  Each op is
published as a snapshot delta with ``save_index(..., format="snapshot")``
and every ``FOLD_EVERY`` publishes the chain is folded with an explicit
``compact_snapshot(journal=...)``.  After each publish a reader opens the
snapshot with ``load_snapshot`` and answers a fixed community and
significant probe, which must equal the maintained index's answers; the
final generation must equal a from-scratch ``DegeneracyIndex``.

Ops differ too much in cost for traced and untraced ops to be compared:
the traced run opens each reader twice, with and without spans, and takes
the tracing overhead from those pairs.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import answers
import buildpath
import inputs
import measure
import procs
from context import Context, Outcome
from inputs import Query
from measure import Tracer

# Smaller and flatter than the serving graph: on a skewed graph a removal
# costs about as much as a rebuild, and a run must publish enough ops for
# steady medians and a p90.  5400 edges keeps ``backend="auto"`` on CSR.
CHURN_EDGES = 5_400
UPPER_PER_EDGE, LOWER_PER_EDGE = 3 / 10, 1 / 4
EXPONENT = 0.8
SETUPS = 3
BUILDS = 7
FOLD_EVERY = 16
PROBE_PAIRS = ((2, 2), (3, 3))
SIGNIFICANT_PROBE_PAIRS = ((3, 3),)
STREAM_LENGTH = 4_000
MIN_TRACED_REMOVALS = 100  # so maintenance.remove_ms_p90 has its sample
FINAL_CHECKS = 40


def offered_rate() -> str:
    return (
        f"closed loop, one writer: ops published back to back, fold every {FOLD_EVERY}; "
        f"reader probe of {len(PROBE_PAIRS)} community + {len(SIGNIFICANT_PROBE_PAIRS)} significant per publish"
    )


def probes(table: inputs.CoreTable, pairs) -> List[Query]:
    """One deep member per pair: the vertex with the highest offset, which
    random removals are least likely to push out of its core."""
    out = []
    for alpha, beta in pairs:
        if table.core_size(alpha, beta):
            out.append((*table.member(alpha, beta, 0), alpha, beta))
    return out


def apply(dynamic, op) -> None:
    kind, upper, lower, weight = op
    if kind == "remove":
        dynamic.remove_edge(upper, lower)
    else:
        dynamic.insert_edge(upper, lower, weight)


class Loop:
    """Publishes ops, opens readers and checks them; collects timings."""

    def __init__(self, snapshot: Path, dynamic, ops, community_probes, significant_probes, outcome: Outcome) -> None:
        self.snapshot = snapshot
        self.dynamic = dynamic
        self.ops = ops
        self.community_probes = answers.to_batch(community_probes)
        self.significant_probes = answers.to_batch(significant_probes)
        self.outcome = outcome
        self.next_op = 0

    def run(self, seconds: float, traced: bool, enough=lambda t: True, cap: float = 0.0) -> Dict[str, List[float]]:
        """Publish ops for ``seconds``, and on until ``enough(timings)`` holds
        or ``cap`` seconds have passed.

        With ``traced``, every call records a span, and after each publish
        the reader is opened a second time without spans, the two opens
        taking turns at going first: the same work timed both ways gives
        the tracing overhead (``span_cost``)."""
        from repro.index.serialization import save_index
        from repro.serving.compaction import compact_snapshot

        tracer, untraced = Tracer(enabled=traced), Tracer(enabled=False)
        t: Dict[str, List[float]] = {
            key: []
            for key in ("visible", "publish", "cpu", "insert", "remove", "reweight", "append", "fold", "fold_bytes",
                        "load", "reader_open", "community", "significant", "chain", "written", "span_cost")
        }
        started = time.perf_counter()
        while self.next_op < len(self.ops):
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (enough(t) or elapsed >= cap):
                break
            i = self.next_op
            self.next_op += 1
            op = self.ops[i]
            written = measure.bytes_written()
            cpu = time.process_time()
            with tracer.span("publish") as publish:
                with tracer.span(f"maintenance.{op[0]}") as step:
                    apply(self.dynamic, op)
                t[op[0]].append(step.duration * 1e3)
                with tracer.span("snapshot.delta_append") as step:
                    save_index(self.dynamic, self.snapshot, format="snapshot")
                t["append"].append(step.duration * 1e3)
                if (i + 1) % FOLD_EVERY == 0:
                    with tracer.span("compaction.fold") as step:
                        report = compact_snapshot(self.snapshot, journal=self.dynamic.journal)
                    t["fold"].append(step.duration * 1e3)
                    t["fold_bytes"].append(float(report.bytes_after))
            t["written"].append(float(measure.bytes_written() - written))
            t["publish"].append(publish.duration * 1e3)

            if traced and i % 2:
                bare = self.open_reader(untraced, defaultdict(list))[0]
            reader_open, reader, community, significant = self.open_reader(tracer, t)
            if traced and not i % 2:
                bare = self.open_reader(untraced, defaultdict(list))[0]
            if traced:
                t["span_cost"].append(reader_open / bare)
            t["reader_open"].append(reader_open * 1e3)
            t["visible"].append((publish.duration + reader_open) * 1e3)
            t["cpu"].append((time.process_time() - cpu) * 1e3)
            t["chain"].append(float(reader.version))
            self.check(i, reader, community, significant)
        self.outcome.attempted += len(t["publish"])
        return t

    def open_reader(self, tracer: Tracer, t: Dict[str, List[float]]) -> Tuple[float, object, list, list]:
        """Open the snapshot and answer the probes; (seconds, reader, answers)."""
        from repro.serving.snapshot import load_snapshot

        with tracer.span("reader.open") as reader_open:
            with tracer.span("snapshot.load") as step:
                reader = load_snapshot(self.snapshot)
                reader.query_path()
            t["load"].append(step.duration * 1e3)
            community = []
            for query in self.community_probes:
                with tracer.span("reader.community") as step:
                    community.append(reader.batch_community_edges([query], on_empty="none", cache={})[0])
                t["community"].append(step.duration * 1e3)
            significant = []
            for query in self.significant_probes:
                with tracer.span("reader.significant") as step:
                    significant.append(reader.batch_significant_edges([query], on_empty="none", cache={})[0])
                t["significant"].append(step.duration * 1e3)
        return reader_open.duration, reader, community, significant

    def check(self, i: int, reader, community, significant) -> None:
        """Outside the timed region: the reader must see the maintained index."""
        got = [None if c is None else answers.wire_edges(reader, c) for c in community]
        got += [None if s is None else answers.wire_edges(reader, s[0]) for s in significant]
        want = answers.community(self.dynamic, self.community_probes)
        want += answers.significant(self.dynamic, self.significant_probes)
        if got != want:
            self.outcome.fail(("publish", i), f"reader answers differ from the maintained index after {self.ops[i]}")


def run(ctx: Context) -> Outcome:
    from repro.index.degeneracy_index import DegeneracyIndex
    from repro.index.maintenance import DynamicDegeneracyIndex
    from repro.serving.snapshot import load_snapshot

    outcome = Outcome()
    edges = inputs.power_law_edges(CHURN_EDGES, UPPER_PER_EDGE, LOWER_PER_EDGE, EXPONENT, ctx.seed)
    edge_file = inputs.write_edge_file(edges, ctx.work / "edges.txt")
    ops = inputs.churn_ops(edges, STREAM_LENGTH, ctx.seed)
    snapshot = ctx.work / "snapshot"
    setups: List[float] = []
    builds: List[Tuple[float, float]] = []
    for _ in range(1 if ctx.trace else SETUPS):
        shutil.rmtree(snapshot, ignore_errors=True)
        builds.append(procs.run_build(ctx.checkout, edge_file, snapshot, ctx.log))
        started = time.perf_counter()
        dynamic = DynamicDegeneracyIndex.from_snapshot(load_snapshot(snapshot))
        reader = load_snapshot(snapshot)
        reader.query_path()
        setups.append(builds[-1][0] + time.perf_counter() - started)

    table = inputs.CoreTable(reader)
    loop = Loop(snapshot, dynamic, ops, probes(table, PROBE_PAIRS), probes(table, SIGNIFICANT_PROBE_PAIRS), outcome)
    if ctx.trace:
        timed = loop.run(ctx.seconds, True, lambda t: len(t["remove"]) >= MIN_TRACED_REMOVALS, 5 * ctx.seconds)
    else:
        timed = loop.run(ctx.seconds, False)
        pss = measure.pss_mb([os.getpid()])

    # More builds for the build_s median, after the loop so that the median
    # spans the run and not only the host's speed in its first seconds.
    for _ in range(0 if ctx.trace else BUILDS - SETUPS):
        builds.append(procs.run_build(ctx.checkout, edge_file, ctx.work / "snapshot-extra", ctx.log))
        shutil.rmtree(ctx.work / "snapshot-extra")

    # The final generation against a from-scratch build of the same graph.
    started = time.perf_counter()
    fresh = DegeneracyIndex(loop.dynamic.graph.copy(), backend="auto")
    rebuild_s = time.perf_counter() - started
    final = load_snapshot(snapshot)
    final_table = inputs.CoreTable(final)
    rng = inputs.rng_for(ctx.seed, "final")
    pairs = final_table.nonempty_pairs()
    sample = answers.to_batch(
        probes(table, PROBE_PAIRS)
        + [final_table.random_query(a, b, rng) for a, b in rng.sample(pairs, min(FINAL_CHECKS, len(pairs)))]
    )
    outcome.attempted += 1
    if fresh.delta != final.delta or answers.community(final, sample) != answers.community(fresh, sample) or (
        answers.significant(final, sample) != answers.significant(fresh, sample)
    ):
        outcome.fail("final", "final generation differs from a from-scratch DegeneracyIndex")
    outcome.notes.append(
        f"answer check: reader vs maintained index after each of {outcome.attempted - 1} publishes; "
        f"final generation vs from-scratch build on {len(sample)} queries"
    )

    if not ctx.trace:
        outcome.metrics = {
            "setup_s": measure.median(setups),
            "build_s": measure.median(wall for wall, _ in builds),
            "build_peak_mb": measure.median(peak for _, peak in builds),
            "op_p50_ms": measure.median(timed["visible"]),
            "op_cpu_ms": sum(timed["cpu"]) / len(timed["cpu"]),
            "resident_pss_mb": pss,
        }
        return outcome

    layer = outcome.metrics
    layer.update(buildpath.replay(edge_file, ctx.work / "replay-snapshot", outcome))
    extra = loop.dynamic.stats().extra
    layer.update(
        {
            "publish_p50_ms": measure.median(timed["publish"]),
            "publish_p90_ms": measure.percentile(timed["publish"], 90),
            "community_p50_ms": measure.median(timed["community"]),
            "community_p90_ms": measure.percentile(timed["community"], 90),
            "reader_open_p50_ms": measure.median(timed["reader_open"]),
            "write_bytes_per_op": sum(timed["written"]) / len(timed["written"]),
            "ingest_ops_per_s": block_rate(timed["publish"]),
            "significant_p50_ms": measure.median(timed["significant"]),
            "significant_p90_ms": measure.percentile(timed["significant"], 90),
            "maintenance.insert_ms_p50": measure.median(timed["insert"]),
            "maintenance.remove_ms_p50": measure.median(timed["remove"]),
            "maintenance.remove_ms_p90": measure.percentile(timed["remove"], 90),
            "maintenance.reweight_ms_p50": measure.median(timed["reweight"]),
            "maintenance.levels_patched": extra["levels_patched"],
            "maintenance.region_mean_vertices": extra["region_mean_vertices"],
            "maintenance.rebuild_s": rebuild_s,
            "snapshot.delta_append_ms_p50": measure.median(timed["append"]),
            "compaction.fold_ms_p50": measure.median(timed["fold"]),
            "compaction.bytes_rewritten": measure.median(timed["fold_bytes"]),
            "snapshot.load_ms_p50": measure.median(timed["load"]),
            "snapshot.chain_len_mean": sum(timed["chain"]) / len(timed["chain"]),
            "trace.overhead_ratio": measure.median(timed["span_cost"]) - 1,
        }
    )
    return outcome


def block_rate(publish_ms: List[float]) -> float:
    """Ops per second, as the median over blocks of ``FOLD_EVERY`` publishes.

    Every block holds exactly one fold, and one slow removal moves one
    block instead of the whole figure.
    """
    blocks = [publish_ms[i:i + FOLD_EVERY] for i in range(0, len(publish_ms) - FOLD_EVERY + 1, FOLD_EVERY)]
    return measure.median(len(block) / (sum(block) / 1e3) for block in blocks)
