"""Tests for the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import churn  # noqa: E402
import context  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import procs  # noqa: E402
import serve  # noqa: E402
import spec  # noqa: E402


# --------------------------------------------------------------------------- #
# the "at least ten samples beyond" percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("pct, need", [(50, 20), (90, 100), (95, 200), (99, 1000), (99.9, 10000)])
def test_min_samples_leaves_ten_beyond(pct, need):
    assert measure.min_samples(pct) == need
    values = list(range(1, need + 1))
    value = measure.percentile(values, pct)
    assert sum(1 for v in values if v > value) == 10


@pytest.mark.parametrize("pct, need", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_refuses_a_short_sample(pct, need):
    with pytest.raises(ValueError):
        measure.percentile(range(need - 1), pct)


def test_percentile_is_nearest_rank():
    assert measure.percentile(range(1, 101), 90) == 90
    assert measure.percentile(range(1, 21), 50) == 10


def test_group_rate_is_the_median_group():
    # three groups running at about 1.1, 2 and 4 events per second
    times = [0, 1, 2, 3, 3.5, 4, 4.5, 5, 5.25, 5.5, 5.75, 6]
    assert measure.group_rate(times, 3) == pytest.approx(2.0)


def test_churn_block_rate_takes_the_median_block():
    fold = churn.FOLD_EVERY
    fast = [10.0] * fold  # 100 ops/s
    slow = [20.0] * fold  # 50 ops/s
    spike = [10.0] * (fold - 1) + [1000.0]
    assert churn.block_rate(fast + slow + spike) == pytest.approx(fold / (sum(slow) / 1e3))


# --------------------------------------------------------------------------- #
# spans and self time
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_nested_spans_have_a_parent_and_self_time():
    tracer = measure.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    with tracer.span("outer") as outer:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    assert outer.duration == 10.0
    outer_span, a, b = tracer.spans
    assert a.parent == b.parent == outer_span.span_id and outer_span.parent is None
    assert tracer.durations("a") == [2.0]
    assert tracer.self_times("outer") == [10.0 - 2.0 - 2.0]
    assert tracer.self_times("a") == [2.0]


def test_disabled_tracer_still_times_but_stores_nothing():
    tracer = measure.Tracer(enabled=False, clock=FakeClock([1.0, 3.5]))
    with tracer.span("x") as span:
        pass
    assert span.duration == 2.5
    assert tracer.spans == []


# --------------------------------------------------------------------------- #
# process memory and write counters
# --------------------------------------------------------------------------- #
def test_pss_reader_sums_processes(tmp_path):
    for pid, kb in ((11, 2048), (12, 1024)):
        (tmp_path / str(pid)).mkdir()
        (tmp_path / str(pid) / "smaps_rollup").write_text(
            "55d0-7ffd ---p 00000000 00:00 0  [rollup]\n"
            f"Rss:    {kb * 2} kB\nPss:    {kb} kB\nPss_Anon:   10 kB\n"
        )
    assert measure.pss_kb(11, str(tmp_path)) == 2048
    assert measure.pss_mb([11, 12], str(tmp_path)) == 3.0


def test_pss_reader_rejects_a_file_without_pss(tmp_path):
    (tmp_path / "7").mkdir()
    (tmp_path / "7" / "smaps_rollup").write_text("Rss: 5 kB\n")
    with pytest.raises(ValueError):
        measure.pss_kb(7, str(tmp_path))


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"), reason="needs Linux /proc")
def test_pss_reader_reads_this_process():
    assert measure.pss_mb([os.getpid()]) > 1.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_build_peak_is_the_childs_own_not_the_parents(tmp_path):
    pytest.importorskip("numpy")
    checkout = Path(__file__).resolve().parents[1]
    edges = inputs.write_edge_file(inputs.power_law_edges(1000, 0.3, 0.25, 1.0, seed=2), tmp_path / "e.txt")
    ballast = bytearray(160 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    wall, peak_mb = procs.run_build(checkout, edges, tmp_path / "snap", tmp_path / "log")
    del ballast
    assert wall > 0 and (tmp_path / "snap" / "manifest.json").is_file()
    assert 5 < peak_mb < 150, "the peak must not include the parent's memory"
    assert not (tmp_path / "snap.peak").exists()


def test_fleet_compute_waits_for_the_busiest_worker():
    # two queries go to two workers and run side by side
    assert serve.fleet_compute([3.0, 5.0], workers=2, shards_per_worker=4) == 5.0
    # ten queries make eight shards: sizes 2,2,1,1,1,1,1,1 dealt to workers 0,1,0,1,...
    times = [1.0] * 10
    assert serve.fleet_compute(times, workers=2, shards_per_worker=4) == 5.0
    assert serve.fleet_compute([2.0, 7.0, 1.0], workers=1, shards_per_worker=4) == 10.0


def test_generator_lag_comparable_to_latency_fails_the_run():
    class Traffic:
        pool_wraps = 0

    phase = serve.Phase()
    phase.latency = [1.0] * 100
    phase.lag_ms = [0.1] * 100
    outcome = context.Outcome()
    serve.check_generator(phase, Traffic(), outcome)
    assert outcome.failed == 0
    phase.lag_ms = [0.6] * 100
    serve.check_generator(phase, Traffic(), outcome)
    assert outcome.failed == 1 and any("INVALID" in note for note in outcome.notes)


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs Linux /proc")
def test_bytes_written_counts_writes(tmp_path):
    before = measure.bytes_written()
    with open(tmp_path / "f", "wb") as handle:
        handle.write(b"x" * 12345)
    assert measure.bytes_written() - before == 12345


# --------------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------------- #
def test_same_seed_same_inputs():
    edges = inputs.power_law_edges(2000, 0.3, 0.25, 1.0, seed=5)
    assert edges == inputs.power_law_edges(2000, 0.3, 0.25, 1.0, seed=5)
    assert edges != inputs.power_law_edges(2000, 0.3, 0.25, 1.0, seed=6)
    assert len({w for _, _, w in edges}) > 1, "weights must not be uniform"
    assert inputs.churn_ops(edges, 300, seed=5) == inputs.churn_ops(edges, 300, seed=5)
    ops, other = inputs.churn_ops(edges, 300, seed=5), inputs.churn_ops(edges, 300, seed=6)
    assert [op[:3] for op in ops] == [op[:3] for op in other], "the edge sequence is part of the workload"
    assert ops != other, "the seed draws the weights"
    pool = [("upper", f"u{i}", 1, 1) for i in range(50)]
    assert inputs.zipf_stream(pool, 500, 1.1, 3) == inputs.zipf_stream(pool, 500, 1.1, 3)
    assert inputs.zipf_stream(pool, 500, 1.1, 3) != inputs.zipf_stream(pool, 500, 1.1, 3, "closed")


def test_churn_ops_keep_the_mix_and_name_live_edges():
    edges = inputs.power_law_edges(2000, 0.3, 0.25, 1.0, seed=1)
    ops = inputs.churn_ops(edges, 2000, seed=1)
    live = {(u, v) for u, v, _ in edges}
    for kind, u, v, _ in ops:
        if kind == "insert":
            assert (u, v) not in live
            live.add((u, v))
        else:
            assert (u, v) in live
            if kind == "remove":
                live.discard((u, v))
    for block in range(0, len(ops), 20):
        kinds = [op[0] for op in ops[block:block + 20]]
        assert (kinds.count("insert"), kinds.count("remove"), kinds.count("reweight")) == (8, 9, 3)


def test_interleave_spreads_kinds_evenly():
    kinds = inputs.interleave(24, 12)
    assert kinds.count("community") == 24 and kinds.count("significant") == 12
    assert kinds[:6] == ["community", "community", "significant"] * 2
    assert inputs.interleave(30, 7).count("significant") == 7


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    pytest.importorskip("numpy")
    from repro.graph.bipartite import BipartiteGraph
    from repro.index.degeneracy_index import DegeneracyIndex
    from repro.serving.snapshot import load_snapshot, save_snapshot

    graph = BipartiteGraph(name="t")
    for u, v, w in inputs.power_law_edges(3000, 0.15, 0.12, 1.0, seed=3):
        graph.add_edge(u, v, w)
    directory = tmp_path_factory.mktemp("snap") / "s"
    save_snapshot(DegeneracyIndex(graph, backend="csr"), directory)
    return load_snapshot(directory)


def test_core_table_matches_the_library(snapshot):
    table = inputs.CoreTable(snapshot)
    pairs = table.nonempty_pairs()
    assert (1, 1) in pairs and (snapshot.delta, snapshot.delta) in pairs
    for alpha, beta in pairs[:: max(1, len(pairs) // 60)] + [(snapshot.delta + 1,) * 2]:
        assert table.core_size(alpha, beta) == len(snapshot.vertices_in_core(alpha, beta))
    assert all(table.core_size(a, b) for a, b in pairs)


def test_first_touch_pool_never_repeats_a_pair(snapshot):
    table = inputs.CoreTable(snapshot)
    pool = inputs.first_touch_pool(table, seed=4)
    pairs = [(a, b) for _, _, a, b in pool]
    assert len(pairs) == len(set(pairs)) == len(table.nonempty_pairs())
    assert pool == inputs.first_touch_pool(table, seed=4)
    assert pool != inputs.first_touch_pool(table, seed=5)


def test_hot_pool_covers_the_degeneracy_box_once(snapshot):
    table = inputs.CoreTable(snapshot)
    pool = inputs.hot_pool(table, seed=4)
    pairs = {(a, b) for _, _, a, b in pool}
    assert len(pairs) == len(pool)
    assert all(max(p) <= snapshot.delta for p in pairs)
    assert len(pairs) == len(table.nonempty_pairs(snapshot.delta))


# --------------------------------------------------------------------------- #
# the contract in BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_spec_respects_the_limits():
    import re

    data = spec.SPEC
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]] + [w["name"] for w in data["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
