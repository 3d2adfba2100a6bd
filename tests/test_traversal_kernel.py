"""The qualifying-prefix kernel of the array BFS.

``_qualifying_counts`` cuts every frontier vertex's offset-sorted slice at the
query requirement.  These tests hold it element-wise to the one
``searchsorted`` per slice of :func:`tests.reference.qualifying_counts_reference`
on random levels (empty, all-qualifying and none-qualifying slices, ties at
the requirement) and on memory-mapped snapshot levels, and guard that a
retrieval no longer pays Python work per frontier vertex.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.generators import power_law_bipartite
from repro.index.csr_build import LevelArrays
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.traversal import _qualifying_counts
from repro.serving.snapshot import load_snapshot, save_snapshot
from tests.reference import qualifying_counts_reference


def random_level(seed: int, num_vertices: int = 60, max_len: int = 40) -> LevelArrays:
    """A level with random slice lengths (about a fifth empty) and offsets
    drawn from a small range, so ties are everywhere."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len + 1, size=num_vertices)
    lengths[rng.random(num_vertices) < 0.2] = 0
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    total = int(indptr[-1])
    entry_offset = np.empty(total, dtype=np.int64)
    for g in range(num_vertices):
        lo, hi = indptr[g], indptr[g + 1]
        entry_offset[lo:hi] = np.sort(rng.integers(0, 9, size=hi - lo))[::-1]
    return LevelArrays(
        num_upper=num_vertices // 2,
        indptr=indptr,
        entry_vertex=rng.integers(0, num_vertices, size=total),
        entry_weight=np.ones(total),
        entry_offset=entry_offset,
        offsets=rng.integers(0, 9, size=num_vertices),
    )


def level_from_slices(slices) -> LevelArrays:
    lengths = [len(s) for s in slices]
    indptr = np.zeros(len(slices) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    flat = [offset for s in slices for offset in s]
    entry_offset = np.array(flat, dtype=np.int64)
    return LevelArrays(
        num_upper=len(slices),
        indptr=indptr,
        entry_vertex=np.zeros(len(flat), dtype=np.int64),
        entry_weight=np.ones(len(flat)),
        entry_offset=entry_offset,
        offsets=np.zeros(len(slices), dtype=np.int64),
    )


def assert_matches_reference(level, frontier, requirement) -> None:
    frontier = np.asarray(frontier, dtype=np.int64)
    starts, counts = _qualifying_counts(level, frontier, requirement)
    want_starts, want_counts = qualifying_counts_reference(
        level, frontier.tolist(), requirement
    )
    assert starts.tolist() == want_starts.tolist()
    assert counts.tolist() == want_counts.tolist(), (requirement, frontier.tolist())


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_levels_every_requirement(self, seed):
        level = random_level(seed)
        rng = np.random.default_rng(100 + seed)
        everyone = np.arange(level.offsets.shape[0])
        for requirement in range(0, 11):
            assert_matches_reference(level, everyone, requirement)
            subset = rng.choice(everyone, size=17, replace=False)
            assert_matches_reference(level, subset, requirement)

    def test_long_slices_need_many_rounds(self):
        level = random_level(7, num_vertices=20, max_len=3000)
        for requirement in (1, 4, 8):
            assert_matches_reference(level, np.arange(20), requirement)

    def test_edge_shapes(self):
        level = level_from_slices(
            [
                [],  # empty
                [9, 7, 5],  # all qualify
                [2, 1, 0],  # none qualify
                [5, 5, 3, 3, 3, 1],  # ties at the requirement
                [3],  # a single entry exactly at the requirement
                [2],  # a single failing entry
                [3, 3, 3, 3],  # every entry ties the requirement
                [4, 3, 2, 2, 2, 2, 2, 2, 2],  # cut after a short run
            ]
        )
        starts, counts = _qualifying_counts(level, np.arange(8), 3)
        assert counts.tolist() == [0, 3, 0, 5, 1, 0, 4, 2]
        assert starts.tolist() == level.indptr[:-1].tolist()
        for requirement in range(0, 11):
            assert_matches_reference(level, np.arange(8), requirement)

    def test_level_without_entries(self):
        level = level_from_slices([[], [], []])
        starts, counts = _qualifying_counts(level, np.arange(3), 1)
        assert counts.tolist() == [0, 0, 0]
        assert starts.tolist() == [0, 0, 0]

    def test_memmapped_snapshot_levels(self, tmp_path):
        graph = power_law_bipartite(120, 110, 1500, seed=3, name="kernel-mmap")
        snapshot = load_snapshot(
            save_snapshot(DegeneracyIndex(graph, backend="csr"), tmp_path / "snap")
        )
        levels = snapshot.level_arrays()
        assert levels
        mapped = 0
        for level in levels.values():
            mapped += not level.entry_offset.flags.writeable
            everyone = np.arange(level.offsets.shape[0])
            top = int(level.entry_offset.max()) if level.entry_offset.size else 0
            for requirement in range(0, top + 2):
                assert_matches_reference(level, everyone, requirement)
        assert mapped  # read-only views into the snapshot's mapping


def core_with_fringe(seed: int = 11) -> BipartiteGraph:
    """A dense (2,8)-core plus lower vertices of degree 2 hanging off it.

    Every upper core vertex keeps a couple of fringe entries whose offset at
    level α=2 is below 8, so its slice qualifies only partially.
    """
    rng = np.random.default_rng(seed)
    core_upper, core_lower, fringe = 1200, 600, 1200
    edges = set()
    for u in range(core_upper):
        for v in rng.choice(core_lower, size=30, replace=False).tolist():
            edges.add((f"u{u}", f"l{v}"))
    for f in range(fringe):
        for u in rng.choice(core_upper, size=2, replace=False).tolist():
            edges.add((f"u{u}", f"f{f}"))
    return BipartiteGraph.from_edges(sorted(edges), name="core-with-fringe")


def test_retrieval_makes_no_per_vertex_python_calls(tmp_path):
    """A retrieval whose frontier holds >= 1000 partially qualifying slices
    makes < E/100 Python calls (one ``searchsorted`` per slice made several
    per vertex)."""
    graph = core_with_fringe()
    index = DegeneracyIndex(graph, backend="csr")
    snapshot = load_snapshot(save_snapshot(index, tmp_path / "snap"))
    query = (Vertex(Side.UPPER, "u0"), 2, 8)

    def run():
        return snapshot.batch_community_edges([query], cache={})

    (src, dst, _), = run()  # first-call imports are not the kernel's cost
    level = snapshot.level_arrays()[("alpha", 2)]
    num_upper = snapshot.query_path().num_upper
    members = np.unique(np.concatenate((src, dst + num_upper)))
    starts = level.indptr[members]
    ends = level.indptr[members + 1]
    partial = (ends > starts) & (level.entry_offset[np.maximum(ends - 1, 0)] < 8)
    assert int(partial.sum()) >= 1000  # the guard bites on a per-vertex loop

    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        (got,) = run()
    finally:
        sys.setprofile(None)
    assert calls[0] < src.shape[0] / 100, (calls[0], src.shape[0])
    expected = index.community(query[0], 2, 8)
    assert got[0].shape[0] == expected.num_edges
