"""serve-hot and serve-cold: ``repro serve --port 0`` as a separate process.

Both build the same seeded 40k-edge weighted power-law graph (the shape of
``benchmarks/bench_frontend.py``) with ``repro build`` and serve it with the
CLI defaults (2 workers, 5 ms batch window, 4096-entry answer cache).

* serve-hot offers a fixed-rate open loop of Zipf(1.1) community requests
  over one query per non-empty (α,β) with α,β ≤ δ.  A warm pass over that
  pool is part of set-up, so the answer cache and the front end's
  asyncio/JSON path do nearly all the work.
* serve-cold offers a fixed-rate open loop interleaving first-touch
  community requests (each (α,β) at most once per run, so the cache only
  admits and evicts) with significant requests spread uniformly over a few
  mid-depth cores (never cached by the front end).  Batching, fleet IPC,
  index BFS and the SCS kernels do the work.  Its traced run adds a closed
  loop of significant requests for the saturated rate.

The traced run offers the same requests as the untraced one.  Nothing on
the socket path carries a span: request spans are recorded from the load
generator's own timings after the phase.  Tracing overhead is therefore
measured where spans are taken, on the in-process query replay, by timing
each replayed call under a recording and a disabled tracer.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import answers
import buildpath
import inputs
import loadgen
import measure
import procs
from context import Context, Outcome
from inputs import Query
from measure import Tracer

SERVE_EDGES = 40_000
UPPER_PER_EDGE, LOWER_PER_EDGE = 3 / 20, 3 / 25
SETUPS = 3
BUILDS = 5  # the set-ups' builds plus standalone ones, for the build_s median
# At 1000 req/s the cores idle between requests and every reply pays a
# virtual-CPU wake-up whose cost drifts with the host's load; 4000 req/s
# keeps them busy enough for a steady figure.
HOT_RATE = 4000.0
HOT_SKEW = 1.1
COLD_COMMUNITY_RATE = 16.0
COLD_SIGNIFICANT_RATE = 8.0
COLD_OUTSTANDING = 4  # significant requests per connection in the closed loop
RATE_GROUPS = 8
CHECK_PER_KIND = 40
REPLAY_QUERIES = 100
FLEET_BATCHES = 12
FLEET_WORKERS, SHARDS_PER_WORKER = 2, 4  # the CLI's defaults
LAG_SHARE = 0.5  # generator lag p50 beyond this share of the op p50 invalidates a run
_TICKS = os.sysconf("SC_CLK_TCK")

Request = Tuple[Query, str]  # (query, op)


def offered_rates() -> Dict[str, str]:
    return {
        "serve-hot": f"open loop {HOT_RATE:g} req/s Zipf({HOT_SKEW:g}) community",
        "serve-cold": f"open loop {COLD_COMMUNITY_RATE:g} req/s first-touch community + "
        f"{COLD_SIGNIFICANT_RATE:g} req/s significant, interleaved; traced run adds a closed loop of "
        f"{COLD_OUTSTANDING} significant outstanding per connection",
    }


def wire(requests: Sequence[Request], edges: bool = False) -> List[Dict]:
    out = []
    for (side, label, alpha, beta), op in requests:
        payload = {"op": op, "side": side, "label": label, "alpha": alpha, "beta": beta}
        if edges:
            payload["edges"] = True
        out.append(payload)
    return out


class Traffic:
    """Every request of one run, drawn from the seed before the run starts."""

    def __init__(self, table: inputs.CoreTable, hot: bool, seed: int, seconds: float) -> None:
        self.pool_wraps = 0
        if hot:
            pool = inputs.hot_pool(table, seed)
            stream = inputs.zipf_stream(pool, int(HOT_RATE * seconds), HOT_SKEW, seed)
            self.rate = HOT_RATE
            self.warm: List[Request] = [(q, "community") for q in pool]
            self.open = [(q, "community") for q in stream]
            self.replay_community = pool[:REPLAY_QUERIES]
        else:
            first_touch = inputs.first_touch_pool(table, seed)
            communities = int(COLD_COMMUNITY_RATE * seconds)
            significants = int(COLD_SIGNIFICANT_RATE * seconds)
            # A wrap would turn first-touch misses into hits; report it.
            self.pool_wraps = (communities - 1) // len(first_touch)
            touch = itertools.cycle(first_touch)
            sig = iter(inputs.significant_stream(table, significants, seed))
            kinds = inputs.interleave(communities, significants)
            self.rate = COLD_COMMUNITY_RATE + COLD_SIGNIFICANT_RATE
            self.warm = [(q, "significant") for q in inputs.significant_stream(table, 8, seed, "warm")]
            self.open = [(next(touch), k) if k == "community" else (next(sig), k) for k in kinds]
            self.closed = [(q, "significant") for q in inputs.significant_stream(table, 4000, seed, "closed")]
            self.replay_community = first_touch[:REPLAY_QUERIES]
        self.replay_significant = inputs.significant_stream(table, REPLAY_QUERIES, seed, "replay")


class Phase:
    """The open-loop phase: latencies from due time (ms) and served replies."""

    def __init__(self) -> None:
        self.latency: List[float] = []
        self.lag_ms: List[float] = []
        self.replies: List[Tuple[Request, Dict]] = []
        self.cpu_ms_per_op = 0.0


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system time of ``pids`` so far (clock-tick resolution)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def run_open(server: procs.ServerProcess, requests: Sequence[Request], rate: float, outcome: Outcome, tracer: Tracer) -> Phase:
    """Offer ``requests`` at ``rate``; spans are recorded after the phase."""
    cpu = cpu_seconds(server.pids)
    result = loadgen.open_loop(server.host, server.port, wire(requests), rate)
    phase = Phase()
    phase.cpu_ms_per_op = (cpu_seconds(server.pids) - cpu) * 1e3 / len(requests)
    phase.lag_ms = [lag * 1e3 for lag in result.lag]
    outcome.attempted += len(requests)
    for i, (request, reply) in enumerate(zip(requests, result.replies)):
        op = request[1]
        if reply is None or not reply.get("ok") or not reply.get("found"):
            outcome.fail(("open", i), f"{op} {request[0]} -> {reply}")
            continue
        latency = result.latency[i]
        phase.latency.append(latency * 1e3)
        phase.replies.append((request, reply))
        tracer.record(f"socket.{op}", result.due[i], result.due[i] + latency)
    return phase


def warm(server: procs.ServerProcess, requests: Sequence[Request]) -> float:
    started = time.perf_counter()
    result = loadgen.open_loop(server.host, server.port, wire(requests), rate=0)
    elapsed = time.perf_counter() - started
    bad = [r for r in result.replies if r is None or not r.get("ok")]
    if bad:
        raise RuntimeError(f"warm pass failed: {bad[0]}")
    return elapsed


def check_answers(server: procs.ServerProcess, reference, sampled: Sequence[Tuple[Request, Dict]], outcome: Outcome) -> int:
    """Summaries as served must match the reference; the same requests asked
    again with ``edges=true`` must return the reference edge sets."""
    community = [(req, reply) for req, reply in sampled if req[1] == "community"]
    significant = [(req, reply) for req, reply in sampled if req[1] == "significant"]
    expected = answers.community(reference, answers.to_batch(req[0] for req, _ in community))
    expected += answers.significant(reference, answers.to_batch(req[0] for req, _ in significant))
    ordered = community + significant
    again = loadgen.open_loop(server.host, server.port, wire([req for req, _ in ordered], edges=True), rate=0)
    for (request, reply), want, full in zip(ordered, expected, again.replies):
        if not answers.summary_matches(reply, want):
            outcome.fail(("check", request), f"served summary {reply} differs from reference")
        elif full is None or not answers.summary_matches(full, want) or answers.reply_edges(full) != want:
            outcome.fail(("check", request), "served edges differ from reference")
    return len(ordered)


def sample(replies: Sequence[Tuple[Request, Dict]], seed: int) -> List[Tuple[Request, Dict]]:
    rng = inputs.rng_for(seed, "check")
    chosen: List[Tuple[Request, Dict]] = []
    for op in ("community", "significant"):
        of_kind = [item for item in replies if item[0][1] == op]
        chosen += rng.sample(of_kind, min(CHECK_PER_KIND, len(of_kind)))
    return chosen


def run(ctx: Context, hot: bool) -> Outcome:
    from repro.serving.snapshot import load_snapshot

    outcome = Outcome()
    edge_file = inputs.write_edge_file(
        inputs.power_law_edges(SERVE_EDGES, UPPER_PER_EDGE, LOWER_PER_EDGE, 1.0, ctx.seed),
        ctx.work / "edges.txt",
    )
    snapshot = ctx.work / "snapshot"
    setups: List[Tuple[float, float, float]] = []
    builds: List[Tuple[float, float]] = []
    server = None
    try:
        for attempt in range(1 if ctx.trace else SETUPS):
            if server is not None:
                server.stop()
                server = None
                shutil.rmtree(snapshot)
            builds.append(procs.run_build(ctx.checkout, edge_file, snapshot, ctx.log))
            if attempt == 0:  # input generation is not set-up work
                traffic = Traffic(inputs.CoreTable(load_snapshot(snapshot)), hot, ctx.seed, ctx.seconds)
            server = procs.ServerProcess(ctx.checkout, snapshot, ctx.log)
            setups.append((builds[-1][0], server.ready_s, warm(server, traffic.warm)))

        tracer = Tracer(enabled=ctx.trace)
        before = server.stats()
        phase = run_open(server, traffic.open, traffic.rate, outcome, tracer)
        replies = list(phase.replies)
        if ctx.trace and not hot:
            saturated_rps, closed = closed_loop(server, traffic, ctx.seconds / 2, outcome)
            replies += closed
        after = server.stats()
        pss = measure.pss_mb(server.pids)

        reference = load_snapshot(snapshot)
        checked = check_answers(server, reference, sample(replies, ctx.seed), outcome)
        outcome.notes.append(f"answer check: {checked} sampled replies re-asked with edges=true")
    finally:
        if server is not None:
            server.stop()
    if not ctx.trace:
        for _ in range(BUILDS - len(builds)):
            builds.append(procs.run_build(ctx.checkout, edge_file, ctx.work / "snapshot-extra", ctx.log))
            shutil.rmtree(ctx.work / "snapshot-extra")

    check_generator(phase, traffic, outcome)
    if not ctx.trace:
        outcome.metrics = {
            "setup_s": measure.median(sum(setup) for setup in setups),
            "build_s": measure.median(wall for wall, _ in builds),
            "build_peak_mb": measure.median(peak for _, peak in builds),
            "op_p50_ms": measure.median(phase.latency),
            "op_cpu_ms": phase.cpu_ms_per_op,
            "resident_pss_mb": pss,
        }
        return outcome

    layer = outcome.metrics
    layer.update(buildpath.replay(edge_file, ctx.work / "replay-snapshot", outcome))
    layer.update(counters(before, after))
    _, layer["frontend.ready_s"], layer["frontend.warm_s"] = setups[0]
    layer["generator.lag_p90_ms"] = measure.percentile(phase.lag_ms, 90)
    layer["generator.pool_wraps"] = float(traffic.pool_wraps)
    for op in ("community", "significant"):
        spans = [d * 1e3 for d in tracer.durations(f"socket.{op}")]
        if spans:
            layer[f"{op}_p50_ms"] = measure.median(spans)
            layer[f"{op}_p90_ms"] = measure.percentile(spans, 90)
    if not hot:
        layer["saturated_rps"] = saturated_rps
    outcome.notes.append("the socket path carries no spans; trace.overhead_ratio is measured on the in-process replay")
    replayed = replay_layers(reference, snapshot, traffic, layer["frontend.batch_size_mean"])
    fleet_community_ms = replayed.pop("fleet.community_batch_ms_p50")
    layer.update(replayed)
    # A hit never reaches the fleet, so on serve-hot the whole socket
    # latency is front-end overhead.
    layer["frontend.overhead_ms_p50"] = layer["community_p50_ms"] - (0.0 if hot else fleet_community_ms)
    return outcome


def check_generator(phase: Phase, traffic: Traffic, outcome: Outcome) -> None:
    """The run is failed when the load generator, not the server, shaped it.

    Latency is timed from the due time, so a late send is part of it; the
    run is invalid when the generator's median lateness is comparable to
    the median latency, or when serve-cold's first-touch pool wrapped and
    turned misses into hits.
    """
    lag, latency = measure.median(phase.lag_ms), measure.median(phase.latency)
    outcome.notes.append(
        f"generator lag p50 {lag:.4f} ms, p90 {measure.percentile(phase.lag_ms, 90):.4f} ms; op p50 {latency:.4f} ms"
    )
    outcome.attempted += 1
    if lag > LAG_SHARE * latency:
        outcome.fail("generator-lag", f"INVALID: generator lag p50 {lag:.3f} ms is comparable to the op p50 {latency:.3f} ms")
    if traffic.pool_wraps:
        outcome.fail("pool-wrap", f"INVALID: first-touch pool wrapped {traffic.pool_wraps} time(s): misses became hits")


def closed_loop(server: procs.ServerProcess, traffic: Traffic, seconds: float, outcome: Outcome) -> Tuple[float, List]:
    """Significant requests with a fixed number outstanding: the saturated rate."""
    requests = traffic.closed
    times, _, _, replies = loadgen.closed_loop(server.host, server.port, wire(requests), seconds, COLD_OUTSTANDING)
    served = []
    outcome.attempted += len(replies)
    for reply in replies:
        request = requests[reply["id"] % len(requests)]
        if not reply.get("ok") or not reply.get("found"):
            outcome.fail(("closed", reply["id"]), f"{request} -> {reply}")
        else:
            served.append((request, reply))
    return measure.group_rate(times, RATE_GROUPS), served


def counters(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Front-end counters over the measured phases, from the stats verb."""

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    lookups = delta("answer_cache_hits") + delta("answer_cache_misses")
    batches = delta("frontend_batches")
    return {
        "frontend.cache_hit_ratio": delta("answer_cache_hits") / lookups if lookups else 0.0,
        "frontend.cache_entries": after.get("answer_cache_entries", 0.0),
        "frontend.cache_evictions": delta("answer_cache_evictions"),
        "frontend.batch_size_mean": delta("frontend_batched_requests") / batches if batches else 0.0,
        "frontend.overload_rejections": after.get("frontend_overload_rejections", 0.0),
        "fleet.respawns": after.get("frontend_respawns", 0.0),
    }


def fleet_compute(seconds: Sequence[float], workers: int, shards_per_worker: int) -> float:
    """The compute a fleet batch waits for, from each query's in-process time.

    Like ``CommunityServer``, the batch is cut into at most ``workers *
    shards_per_worker`` contiguous shards dealt round-robin to the workers,
    which run in parallel: the batch waits for the busiest worker.
    """
    shards = min(len(seconds), workers * shards_per_worker)
    base, extra = divmod(len(seconds), shards)
    busy = [0.0] * workers
    position = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        busy[shard % workers] += sum(seconds[position:position + size])
        position += size
    return max(busy)


def replay_layers(reference, snapshot: Path, traffic: Traffic, batch_size_mean: float) -> Dict[str, float]:
    """Per-layer times of the query path, replayed in-process with spans."""
    from repro.serving.server import CommunityServer

    tracer, untraced = Tracer(), Tracer(enabled=False)
    span_cost: List[float] = []

    def timed(k: int, name: str, call) -> float:
        """Run ``call`` under the recording and under the disabled tracer,
        the two taking turns at going first; return the recorded duration."""
        times = {}
        for t in (tracer, untraced) if k % 2 == 0 else (untraced, tracer):
            with t.span(name) as span:
                call()
            times[t] = span.duration
        span_cost.append(times[tracer] / times[untraced])
        return times[tracer]

    community = answers.to_batch(traffic.replay_community)
    significant = answers.to_batch(traffic.replay_significant)
    for k, query in enumerate(community):
        timed(k, "index.community_edges", lambda: reference.batch_community_edges([query], on_empty="none", cache={}))
    search_ms = []
    for k, query in enumerate(significant):
        # Significant search retrieves the community first; its own share
        # is the total minus a retrieval of the same query.
        retrieval = timed(k, "index.community_edges.for_significant",
                          lambda: reference.batch_community_edges([query], on_empty="none", cache={}))
        total = timed(k, "search.significant_edges",
                      lambda: reference.batch_significant_edges([query], on_empty="none", cache={}))
        search_ms.append((total - retrieval) * 1e3)

    size = max(1, round(batch_size_mean))
    fleet_ms: Dict[str, List[float]] = {"community": [], "significant": []}
    ipc_ms: List[float] = []
    with CommunityServer(snapshot, num_workers=FLEET_WORKERS, shards_per_worker=SHARDS_PER_WORKER) as fleet:
        fleet.batch_community_wire(community[:size])  # first batch maps the snapshot
        for b in range(FLEET_BATCHES):
            for kind, queries in (("community", community), ("significant", significant)):
                batch = [queries[(b * size + i) % len(queries)] for i in range(size)]
                remote_call = fleet.batch_community_wire if kind == "community" else fleet.batch_significant_wire
                local_call = (
                    reference.batch_community_edges if kind == "community" else reference.batch_significant_edges
                )
                with tracer.span(f"fleet.{remote_call.__name__}") as remote:
                    remote_call(batch)
                local = []
                for query in batch:
                    with tracer.span(f"in_process.{local_call.__name__}") as one:
                        local_call([query], on_empty="none", cache={})
                    local.append(one.duration)
                fleet_ms[kind].append(remote.duration * 1e3)
                ipc_ms.append((remote.duration - fleet_compute(local, FLEET_WORKERS, SHARDS_PER_WORKER)) * 1e3)
    return {
        "index.community_edges_ms_p50": measure.median(d * 1e3 for d in tracer.durations("index.community_edges")),
        "search.significant_ms_p50": measure.median(search_ms),
        "search.significant_ms_p90": measure.percentile(search_ms, 90),
        "fleet.batch_ms_p50": measure.median(fleet_ms["community"] + fleet_ms["significant"]),
        "fleet.ipc_ms_p50": measure.median(ipc_ms),
        "fleet.community_batch_ms_p50": measure.median(fleet_ms["community"]),
        "trace.overhead_ratio": measure.median(span_cost) - 1,
    }
