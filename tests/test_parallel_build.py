"""Parallel index construction: every worker count builds the same index.

The ``n_jobs`` path shards the per-level CSR passes across processes
(:mod:`repro.index.parallel_build`); the contract is element-wise identity —
offsets, adjacency lists, ``LevelArrays`` and even the persisted snapshot
bytes must not depend on the worker count or the backend.
"""

from __future__ import annotations

import pytest

from repro.api import CommunitySearcher
from repro.exceptions import InvalidParameterError
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex


def build_graph(seed: int = 3):
    return power_law_bipartite(
        num_upper=90, num_lower=75, num_edges=450, seed=seed, name="par-build"
    )


def assert_identical_indexes(a: DegeneracyIndex, b: DegeneracyIndex) -> None:
    """Element-wise comparison of every structure both backends understand."""
    assert a.delta == b.delta
    assert a._alpha_offsets == b._alpha_offsets
    assert a._beta_offsets == b._beta_offsets
    assert a._alpha_lists == b._alpha_lists
    assert a._beta_lists == b._beta_lists


def assert_identical_arrays(a: DegeneracyIndex, b: DegeneracyIndex) -> None:
    import numpy as np

    arrays_a, arrays_b = a.export_level_arrays(), b.export_level_arrays()
    assert arrays_a.keys() == arrays_b.keys()
    for key, level_a in arrays_a.items():
        level_b = arrays_b[key]
        assert level_a.num_upper == level_b.num_upper, key
        for field in ("indptr", "entry_vertex", "entry_weight", "entry_offset", "offsets"):
            assert np.array_equal(getattr(level_a, field), getattr(level_b, field)), (
                key,
                field,
            )


class TestValidation:
    @pytest.mark.parametrize("n_jobs", [0, -1, 1.5, True, "2"])
    def test_invalid_n_jobs_rejected(self, n_jobs):
        with pytest.raises(InvalidParameterError):
            DegeneracyIndex(build_graph(), backend="dict", n_jobs=n_jobs)

    def test_dict_backend_accepts_n_jobs(self):
        # The dict backend runs sequentially regardless; a worker count must be accepted, not crash.
        index = DegeneracyIndex(build_graph(), backend="dict", n_jobs=4)
        baseline = DegeneracyIndex(build_graph(), backend="dict")
        assert_identical_indexes(index, baseline)


class TestParallelIdentity:
    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_matches_sequential_csr_build(self, n_jobs):
        graph = build_graph()
        sequential = DegeneracyIndex(graph, backend="csr", n_jobs=1)
        parallel = DegeneracyIndex(graph, backend="csr", n_jobs=n_jobs)
        assert_identical_indexes(sequential, parallel)
        assert_identical_arrays(sequential, parallel)

    def test_matches_dict_backend(self):
        graph = build_graph(seed=5)
        assert_identical_indexes(
            DegeneracyIndex(graph, backend="dict"),
            DegeneracyIndex(graph, backend="csr", n_jobs=2),
        )

    def test_more_workers_than_levels(self):
        # n_jobs caps at delta; a tiny graph with delta < n_jobs must not hang
        # or diverge.
        graph = power_law_bipartite(
            num_upper=12, num_lower=10, num_edges=30, seed=1, name="tiny"
        )
        sequential = DegeneracyIndex(graph, backend="csr", n_jobs=1)
        parallel = DegeneracyIndex(graph, backend="csr", n_jobs=8)
        assert_identical_indexes(sequential, parallel)

    def test_snapshot_bytes_identical(self, tmp_path):
        from repro.serving.snapshot import DATA_NAME, save_snapshot

        graph = build_graph(seed=7)
        paths = []
        for n_jobs in (1, 4):
            index = DegeneracyIndex(graph, backend="csr", n_jobs=n_jobs)
            paths.append(save_snapshot(index, tmp_path / f"jobs{n_jobs}"))
        data_a = (paths[0] / DATA_NAME).read_bytes()
        data_b = (paths[1] / DATA_NAME).read_bytes()
        assert data_a == data_b

    def test_build_metrics_surface_in_stats(self):
        index = DegeneracyIndex(build_graph(), backend="csr", n_jobs=2)
        extra = index.stats().extra
        assert extra["build_jobs"] == 2.0
        assert extra["build_shipped_bytes"] > 0
        assert extra["build_level_seconds_total"] >= extra["build_level_seconds_max"] >= 0
        sequential = DegeneracyIndex(build_graph(), backend="csr", n_jobs=1)
        assert sequential.stats().extra["build_shipped_bytes"] == 0.0

    def test_searcher_passthrough(self):
        graph = build_graph(seed=9)
        fast = CommunitySearcher(graph, backend="csr", n_jobs=2)
        slow = CommunitySearcher(graph, backend="csr")
        queries = [
            (vertex, alpha, beta)
            for alpha, beta in ((1, 1), (2, 2), (2, 3))
            for vertex in sorted(graph.vertices(), key=repr)[:40]
        ]
        for got, want in zip(
            fast.index.batch_community(queries, on_empty="none"),
            slow.index.batch_community(queries, on_empty="none"),
        ):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.same_structure(want)


class TestPayloadTwins:
    """The registered kernel/twin pair really returns identical payloads."""

    def test_parallel_payloads_match_sequential(self):
        import numpy as np

        from repro.decomposition.csr_kernels import csr_degeneracy
        from repro.graph.csr import freeze
        from repro.index.parallel_build import (
            _parallel_payloads,
            _sequential_payloads,
        )

        csr = freeze(build_graph(seed=11))
        delta = csr_degeneracy(csr)
        assert delta >= 2
        sequential = _sequential_payloads(csr, delta)
        parallel = _parallel_payloads(csr, delta, 2)
        assert [p.tau for p in parallel] == [p.tau for p in sequential]
        for seq, par in zip(sequential, parallel):
            for field in ("alpha_upper", "alpha_lower", "beta_upper", "beta_lower"):
                assert np.array_equal(getattr(seq, field), getattr(par, field))
            for seq_entries, par_entries in (
                (seq.alpha_entries, par.alpha_entries),
                (seq.beta_entries, par.beta_entries),
            ):
                assert seq_entries.keys() == par_entries.keys()
                for side in seq_entries:
                    for a, b in zip(seq_entries[side], par_entries[side]):
                        assert np.array_equal(a, b)
