"""Churn on global ids: the id planner and peel, merged chain replay, and
array-native compaction, each against the representation it replaced."""

from __future__ import annotations

import pickle
import random
import shutil
import sys
import tracemalloc

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.csr import freeze
from repro.graph.generators import power_law_bipartite
from repro.index.csr_build import LevelArrays, patch_level_arrays
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import (
    DynamicDegeneracyIndex,
    IdAdjacency,
    _RegionPeel,
    plan_level_region,
)
from repro.index.serialization import index_metadata, save_index
from repro.serving.compaction import compact_snapshot
from repro.serving.snapshot import (
    _LEVEL_FIELDS,
    _live_chain,
    _parse_level_key,
    _read_manifest,
    _segment_reader,
    load_snapshot,
)
from tests.reference import plan_level_region_reference


class TestSideHash:
    def test_equal_handles_hash_equal(self):
        assert hash(Side.UPPER) == hash(Side.UPPER)
        assert hash(Side.UPPER) != hash(Side.LOWER)
        assert hash(Vertex(Side.LOWER, "v1")) == hash(Vertex(Side.LOWER, "v1"))
        assert Vertex(Side.UPPER, 1) != Vertex(Side.LOWER, 1)

    def test_vertex_keyed_dict_survives_pickle(self):
        table = {Vertex(Side.UPPER, "u"): 1, Vertex(Side.LOWER, 7): 2}
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert clone[Vertex(Side.UPPER, "u")] == 1
        assert next(iter(clone)).side is Side.UPPER


# --------------------------------------------------------------------------- #
# the id planner against the Vertex-dict oracle
# --------------------------------------------------------------------------- #
def _id_space(graph: BipartiteGraph):
    upper, lower = list(graph.upper_labels()), list(graph.lower_labels())
    handles = [Vertex(Side.UPPER, u) for u in upper] + [Vertex(Side.LOWER, v) for v in lower]
    return upper, lower, handles, {handle: gid for gid, handle in enumerate(handles)}


def _offset_array(offsets, handles):
    return np.array([offsets.get(handle, 0) for handle in handles], dtype=np.int64)


def _planner_cases(seed: int):
    """(graph before, graph after, endpoints, removal) on a skewed graph."""
    graph = power_law_bipartite(70, 60, 420, 0.9, 0.9, seed=seed)
    rng = random.Random(seed)
    edges = sorted((u, v) for u, v, _ in graph.edges())
    hub = max(graph.upper_labels(), key=lambda u: graph.degree(Side.UPPER, u))
    removals = [(hub, next(iter(graph.neighbors(Side.UPPER, hub))))]
    removals += rng.sample(edges, 5)
    uppers, lowers = sorted(graph.upper_labels()), sorted(graph.lower_labels())
    inserts = []
    while len(inserts) < 6:
        pair = (hub if not inserts else rng.choice(uppers), rng.choice(lowers))
        if not graph.has_edge(*pair) and pair not in inserts:
            inserts.append(pair)
    for (u, v), removal in [(e, True) for e in removals] + [(e, False) for e in inserts]:
        after = graph.copy()
        if removal:
            after.remove_edge(u, v)
        else:
            after.add_edge(u, v, 1.0)
        endpoints = [
            handle
            for handle in (Vertex(Side.UPPER, u), Vertex(Side.LOWER, v))
            if after.degree_of(handle) > 0
        ]
        yield graph, after, endpoints, removal


class TestPlannerOracle:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_same_candidate_set_at_every_level_and_half(self, seed):
        compared = overflowed = 0
        for before, after, endpoints, removal in _planner_cases(seed):
            index = DegeneracyIndex(before, backend="dict")
            upper, lower, handles, gids = _id_space(before)
            adjacency = IdAdjacency.from_csr(freeze(after))
            seeds = np.array([gids[e] for e in endpoints], dtype=np.int64)
            for tau in range(1, index.delta + 1):
                for primary, offsets in (
                    (Side.UPPER, index._alpha_offsets[tau]),
                    (Side.LOWER, index._beta_offsets[tau]),
                ):
                    old = _offset_array(offsets, handles)
                    want = plan_level_region_reference(
                        after, offsets, primary, tau, endpoints, removal
                    )
                    got = plan_level_region(adjacency, old, primary, tau, seeds, removal)
                    assert {handles[g] for g in got.tolist()} == set(want)
                    assert len(got) == len(want)  # no duplicates
                    compared += 1
                    if len(want) > len(endpoints):
                        # The budget overflow: one short of the closure.
                        budget = len(want) - 1
                        assert plan_level_region_reference(
                            after, offsets, primary, tau, endpoints, removal, budget
                        ) is None
                        assert plan_level_region(
                            adjacency, old, primary, tau, seeds, removal, budget
                        ) is None
                        assert plan_level_region(
                            adjacency, old, primary, tau, seeds, removal, len(want)
                        ) is not None
                        overflowed += 1
        assert compared > 50 and overflowed > 5


class TestCallCountGuard:
    def test_hub_removal_makes_fewer_calls_than_the_hub_degree(self):
        """Planning and peeling a removal at a 600-neighbour hub runs no
        Python per neighbour (the Vertex planner made several calls each)."""
        rng = random.Random(3)
        graph = BipartiteGraph()
        degree = 600
        for j in range(degree):
            graph.add_edge("hub", f"v{j}", 1.0)
            for u in rng.sample(range(40), 3):
                graph.add_edge(f"u{u}", f"v{j}", 1.0)
        index = DegeneracyIndex(graph, backend="csr")
        levels = index.export_level_arrays()
        upper, lower, handles, gids = _id_space(graph)
        after = graph.copy()
        after.remove_edge("hub", "v0")
        adjacency = IdAdjacency.from_csr(freeze(after))
        seeds = np.array([gids[Vertex(Side.UPPER, "hub")], gids[Vertex(Side.LOWER, "v0")]])
        tau = 1
        primary, old = Side.LOWER, levels[("beta", tau)].offsets

        def run():
            region = plan_level_region(adjacency, old, primary, tau, seeds, True)
            return region, _RegionPeel(adjacency, region).offsets(old, primary, tau)

        region, _ = run()  # first-call imports are not the planner's cost
        assert region.shape[0] > degree / 2  # the removal threatens the hub's ball
        calls = [0]

        def count(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(count)
        try:
            run()
        finally:
            sys.setprofile(None)
        assert calls[0] < degree, calls[0]


class TestRegionSizedScratch:
    def test_plan_and_peel_allocate_by_region_not_id_space(self):
        """A small region in a large id space: neither the planner nor the
        region peel allocates an array as long as the id space."""
        graph = power_law_bipartite(40, 30, 200, 0.9, 0.9, seed=5)
        upper, lower, handles, gids = _id_space(graph)
        filler = 200_000  # edgeless ids after the graph's own
        padded = graph.copy()
        for i in range(filler):
            padded.add_vertex(Side.UPPER, f"far{i}")
        adjacency = IdAdjacency.from_csr(freeze(padded))
        index = DegeneracyIndex(graph, backend="dict")
        hub = max(graph.upper_labels(), key=lambda u: graph.degree(Side.UPPER, u))
        seeds = np.array([adjacency.ids[Vertex(Side.UPPER, hub)]], dtype=np.int64)
        old = np.zeros(adjacency.capacity, dtype=np.int64)
        for handle, offset in index._alpha_offsets[1].items():
            old[adjacency.ids[handle]] = offset

        def run():
            region = plan_level_region(adjacency, old, Side.UPPER, 1, seeds, True)
            _RegionPeel(adjacency, region).offsets(old, Side.UPPER, 1)
            return region

        region = run()  # first-call imports are not the planner's cost
        assert 1 < region.shape[0] < 300
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < adjacency.capacity, peak  # under one byte per id


class TestGrowingIdSpace:
    def test_new_vertices_grow_the_ids_in_place(self):
        graph = power_law_bipartite(30, 25, 150, 0.9, 0.9, seed=8)
        dynamic = DynamicDegeneracyIndex(graph, backend="dict")
        edges = sorted((u, v) for u, v, _ in graph.edges())
        dynamic.remove_edge(*edges[0])  # interns the id space
        ids = dynamic._ids
        start = ids.capacity
        rng = random.Random(8)
        uppers, lowers = sorted(graph.upper_labels()), sorted(graph.lower_labels())
        for i in range(2 * start):
            edge = edges[i % len(edges)]
            if i % 3 == 0:
                dynamic.insert_edge(f"nu{i}", rng.choice(lowers), 1.0)
            elif i % 3 == 1:
                dynamic.insert_edge(rng.choice(uppers), f"nl{i}", 2.0)
            elif dynamic.graph.has_edge(*edge):
                dynamic.remove_edge(*edge)
            else:
                dynamic.insert_edge(*edge, 3.0)  # a vanished vertex may return
        assert dynamic._ids is ids  # never re-interned
        assert ids.capacity > start
        # The id adjacency matches the graph, and every level's offsets
        # match a fresh build's.
        for gid, handle in enumerate(ids.handles):
            nbrs = sorted(ids.handles[g].label for g in ids.neighbours[gid].tolist())
            alive = dynamic.graph.has_vertex(handle.side, handle.label)
            nbr_weights = dynamic.graph.neighbors(handle.side, handle.label) if alive else {}
            assert nbrs == sorted(nbr_weights), handle
            assert ids.degrees[gid] == len(nbr_weights)
            assert ids.upper[gid] == (handle.side is Side.UPPER)
            assert dict(
                zip(
                    (ids.handles[g].label for g in ids.neighbours[gid].tolist()),
                    ids.weights[gid].tolist(),
                )
            ) == dict(nbr_weights)
        fresh = DegeneracyIndex(dynamic.graph.copy(), backend="dict")
        levels = dynamic.level_arrays()
        assert sorted(levels) == sorted(
            (half, tau) for tau in range(1, fresh.delta + 1) for half in ("alpha", "beta")
        )
        for (half, tau), level in levels.items():
            store = (fresh._alpha_offsets if half == "alpha" else fresh._beta_offsets)[tau]
            got = {ids.handles[g]: int(o) for g, o in enumerate(level.offsets.tolist()) if o}
            assert got == {v: o for v, o in store.items() if o}, (half, tau)
        assert fresh.delta == dynamic.delta
        queries = [(v, a, b) for v in dynamic.graph.vertices() for a, b in ((1, 1), (2, 2))]
        for got, want in zip(
            dynamic.batch_community(queries, on_empty="none"),
            fresh.batch_community(queries, on_empty="none"),
        ):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.same_structure(want)

    def test_a_writer_that_never_queries_builds_no_array_path(self, tmp_path):
        graph = power_law_bipartite(30, 25, 150, 0.9, 0.9, seed=9)
        save_index(DegeneracyIndex(graph, backend="csr"), tmp_path / "s", format="snapshot")
        dynamic = DynamicDegeneracyIndex.from_snapshot(load_snapshot(tmp_path / "s"))
        for u, v, _ in sorted(graph.edges())[:10]:
            dynamic.remove_edge(u, v)
        dynamic.insert_edge("new-u", "new-v", 1.0)
        assert dynamic._array_path is None


class TestGraphRoundTrip:
    @pytest.mark.parametrize("opened", ["dict", "csr", "snapshot"])
    def test_graph_equals_the_dict_graph_with_the_same_history(self, tmp_path, opened):
        """The on-demand graph lists the vertices of each side, and every
        vertex its neighbours, in the order a dict graph given the same ops
        does — across re-weights, a vertex isolated from the start, and a
        vertex that vanishes and comes back."""
        graph = power_law_bipartite(30, 25, 150, 0.9, 0.9, seed=21)
        graph.add_vertex(Side.UPPER, "iso")
        reference = graph.copy()
        dynamic = DynamicDegeneracyIndex(graph, backend="dict" if opened == "dict" else "csr")
        rng = random.Random(21)
        uppers = sorted(u for u in graph.upper_labels() if u != "iso")
        lowers = sorted(graph.lower_labels())
        victim = uppers[0]
        for step in range(60):
            edges = sorted((u, v) for u, v, _ in reference.edges())
            roll = rng.random()
            if step == 30:  # the victim vanishes ...
                ops = [("remove", victim, v) for v in sorted(reference.neighbors(Side.UPPER, victim))]
            elif step == 45:  # ... and comes back
                ops = [("insert", victim, lowers[-1], 7.0)]
            elif roll < 0.35:
                u = f"new-u{step}" if roll < 0.05 else rng.choice(uppers)
                ops = [("insert", u, rng.choice(lowers), float(rng.randint(1, 9)))]
            elif roll < 0.5:
                ops = [("insert", *rng.choice(edges), float(rng.randint(1, 9)))]
            else:
                ops = [("remove", *rng.choice(edges))]
            for kind, u, v, *weight in ops:
                if kind == "insert":
                    reference.add_edge(u, v, weight[0])
                    dynamic.insert_edge(u, v, weight[0])
                else:
                    reference.remove_edge(u, v)
                    reference.discard_isolated()
                    dynamic.remove_edge(u, v)
            if opened == "snapshot" and step in (20, 35, 50):
                save_index(dynamic, tmp_path / "s", format="snapshot")  # base, then deltas
                if step > 20:
                    dynamic = DynamicDegeneracyIndex.from_snapshot(load_snapshot(tmp_path / "s"))
        assert not reference.has_vertex(Side.UPPER, "iso")
        assert reference.has_vertex(Side.UPPER, victim)

        got = dynamic.graph
        assert got.same_structure(reference)
        for side in (Side.UPPER, Side.LOWER):
            assert list(got.labels(side)) == list(reference.labels(side)), side
            for label in reference.labels(side):
                assert list(got.neighbors(side, label).items()) == list(
                    reference.neighbors(side, label).items()
                ), (side, label)


# --------------------------------------------------------------------------- #
# merged chain replay and array-native compaction
# --------------------------------------------------------------------------- #
def _chain_graph() -> BipartiteGraph:
    graph = BipartiteGraph(name="chain")
    for a in range(3):
        for b in range(3):
            graph.add_edge(f"a{a}", f"b{b}", 1.0 + a + b)  # the unique (3,3)-core
    for i in range(6):
        graph.add_edge(f"p{i}", f"q{i}", 2.0)
        if i < 5:
            graph.add_edge(f"p{i}", f"q{i + 1}", 3.0)
    graph.add_edge("a2", "q0", 1.5)
    graph.add_edge("z0", "b0", 4.0)  # a pendant vertex
    return graph


#: Every op is published as its own delta.
CHAIN_OPS = (
    ("insert", "a0", "q3", 2.0),  # patches level 3 through its endpoint
    ("remove", "z0", "b0", 0.0),  # z0 vanishes
    ("remove", "a0", "b0", 0.0),  # δ shrinks 3 → 2: level 3 dropped
    ("insert", "a0", "b0", 5.0),  # δ regrows: level 3 as a full replacement
    ("insert", "z0", "b1", 1.0),  # z0 comes back under its base id
    ("insert", "a1", "b1", 9.0),  # a reweight, patched at every level
    ("remove", "p5", "q5", 0.0),  # p5 stays dead
)


def _saved_chain(tmp_path):
    target = tmp_path / "snap"
    dynamic = DynamicDegeneracyIndex(_chain_graph(), backend="csr")
    save_index(dynamic, target, format="snapshot")
    deltas = [dynamic.delta]
    for kind, u, v, w in CHAIN_OPS:
        if kind == "insert":
            dynamic.insert_edge(u, v, w)
        else:
            dynamic.remove_edge(u, v)
        save_index(dynamic, target, format="snapshot")
        deltas.append(dynamic.delta)
    assert deltas == [3, 3, 3, 2, 3, 3, 3, 3]
    return target, dynamic


def _sequential_replay(directory):
    """The per-delta replay the loader ran before it merged patches."""
    manifest = _read_manifest(directory)
    segment = _segment_reader(directory, manifest, "arrays.bin")
    num_upper = int(manifest["graph"]["num_upper"])
    delta = int(manifest["index"]["delta"])
    levels = {
        (half, tau): LevelArrays(
            num_upper=num_upper,
            **{f: segment(f"level/{half}/{tau}/{f}") for f in _LEVEL_FIELDS},
        )
        for tau in range(1, delta + 1)
        for half in ("alpha", "beta")
    }
    seen = {"full": set(), "patched": []}
    for path, delta_manifest in _live_chain(directory, manifest):
        read = _segment_reader(directory, delta_manifest, path.with_suffix(".bin").name)
        for spec in delta_manifest["full_levels"]:
            key = _parse_level_key(directory, spec)
            levels[key] = LevelArrays(
                num_upper=num_upper,
                **{f: read(f"level/{key[0]}/{key[1]}/{f}") for f in _LEVEL_FIELDS},
            )
            seen["full"].add(key)
        for spec in delta_manifest["patched_levels"]:
            key = _parse_level_key(directory, spec)
            prefix = f"patch/{key[0]}/{key[1]}"
            gids = read(f"{prefix}/gids")
            levels[key] = patch_level_arrays(
                levels[key],
                gids,
                read(f"{prefix}/counts"),
                read(f"{prefix}/entry_vertex"),
                read(f"{prefix}/entry_weight"),
                read(f"{prefix}/entry_offset"),
                gids,
                read(f"{prefix}/offset_values"),
                allow_in_place=False,
            )
            seen["patched"].append(key)
        delta = int(delta_manifest["index"]["delta"])
        levels = {k: v for k, v in levels.items() if k[1] <= delta}
    return levels, seen


def _assert_levels_identical(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        for f in _LEVEL_FIELDS:
            a, b = getattr(got[key], f), getattr(want[key], f)
            assert a.dtype == b.dtype, (key, f)
            assert np.array_equal(a, b), (key, f)


class TestMergedReplay:
    def test_merged_replay_is_bit_identical_to_sequential(self, tmp_path):
        target, dynamic = _saved_chain(tmp_path)
        want, seen = _sequential_replay(target)
        # The chain exercises a patch before the shrink, the regrowth's full
        # replacement, and patches after it, all on level 3.
        assert ("alpha", 3) in seen["full"]
        positions = [i for i, key in enumerate(seen["patched"]) if key == ("alpha", 3)]
        assert len(positions) >= 2
        replayed = load_snapshot(target)
        assert replayed.version == len(CHAIN_OPS)
        _assert_levels_identical(replayed.level_arrays(), want)
        queries = [(v, a, b) for v in dynamic.graph.vertices() for a, b in ((1, 1), (2, 2), (3, 3))]
        for got, expected in zip(
            replayed.batch_community(queries, on_empty="none"),
            dynamic.batch_community(queries, on_empty="none"),
        ):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.same_structure(expected)


class TestArrayNativeCompaction:
    def test_compacted_generation_equals_the_dict_round_trip(self, tmp_path):
        target, dynamic = _saved_chain(tmp_path)
        reference_dir = tmp_path / "reference"
        shutil.copytree(target, reference_dir)
        folded = DynamicDegeneracyIndex.from_snapshot(load_snapshot(reference_dir))
        want_levels = folded.export_level_arrays()
        want_csr = freeze(folded.graph)
        # The reopened export is what a dict build of the same graph exports.
        _assert_levels_identical(
            DegeneracyIndex(folded.graph.copy(), backend="dict").export_level_arrays(),
            want_levels,
        )

        report = compact_snapshot(target, journal=dynamic.journal)
        assert report.folded_deltas == len(CHAIN_OPS)
        compacted = load_snapshot(target)
        assert compacted.version == 0
        assert Vertex(Side.UPPER, "p5") not in compacted.global_handles()  # dead id dropped
        assert compacted.global_handles() == want_csr.global_handles()
        _assert_levels_identical(compacted.level_arrays(), want_levels)
        got_csr = compacted.csr_graph()
        for field in ("u_indptr", "u_indices", "u_weights", "l_indptr", "l_indices", "l_weights"):
            assert np.array_equal(getattr(got_csr, field), getattr(want_csr, field)), field
        assert compacted.stats().entries == sum(a.num_entries for a in want_levels.values())
        assert compacted.stats().adjacency_lists == folded.stats().adjacency_lists
        manifest = _read_manifest(target)
        for key, value in index_metadata(folded).items():
            assert manifest[key] == value, key

        # The writer's journal is bound to the compacted id space and keeps
        # appending deltas that replay onto it.
        dynamic.remove_edge("a2", "q0")
        save_index(dynamic, target, format="snapshot")
        reopened = load_snapshot(target)
        assert reopened.version == 1
        queries = [(v, a, b) for v in dynamic.graph.vertices() for a, b in ((1, 1), (2, 3), (3, 3))]
        for got, expected in zip(
            reopened.batch_community(queries, on_empty="none"),
            dynamic.batch_community(queries, on_empty="none"),
        ):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.same_structure(expected)
