"""Randomized cross-backend agreement: dict and CSR engines must be twins.

Fifty seeded random bipartite graphs — varying density, degree skew, weight
models, isolated vertices and labels shared across layers — are pushed
through both backends.  For each graph the suite asserts *exact* equality of:

* the (α,β)-core vertex sets over a grid of threshold pairs;
* the α-offset and β-offset tables for several fixed thresholds;
* the degeneracy δ;
* the ``DegeneracyIndex`` internal structures (offset tables and sorted
  adjacency lists per level) — the strongest invariant, since incremental
  maintenance patches these dicts in place and therefore relies on both
  construction engines producing literally identical state;
* ``significant_community`` answers through the high-level facade.

Any divergence in the vectorised kernels (off-by-one peeling levels, tie
ordering, mask bookkeeping) surfaces here as a small reproducible diff.
"""

from __future__ import annotations

import random

import pytest

from repro.api import CommunitySearcher
from repro.decomposition.abcore import abcore_vertices
from repro.decomposition.degeneracy import degeneracy
from repro.decomposition.offsets import alpha_offsets, beta_offsets
from repro.exceptions import EmptyCommunityError
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.index.basic_index import BasicIndex
from repro.index.degeneracy_index import DegeneracyIndex

from tests.reference import graph_edge_weights

SEEDS = list(range(50))

THRESHOLD_PAIRS = ((1, 1), (2, 2), (1, 3), (3, 1), (2, 4), (3, 3))
OFFSET_THRESHOLDS = (1, 2, 3)


def build_agreement_graph(seed: int) -> BipartiteGraph:
    """A reproducible random graph whose shape varies with the seed."""
    rng = random.Random(seed * 7919 + 13)
    shape = seed % 3
    if shape == 0:
        graph = random_bipartite(
            20 + seed % 9,
            17 + seed % 7,
            110 + 5 * (seed % 11),
            seed=seed,
            # Same label universe on both layers: "x3" exists as an upper and
            # a lower vertex, exercising the per-layer interning.
            upper_prefix="x",
            lower_prefix="x",
        )
    elif shape == 1:
        graph = power_law_bipartite(
            24 + seed % 13,
            20 + seed % 5,
            140 + 6 * (seed % 9),
            exponent_upper=0.5 + (seed % 4) * 0.35,
            exponent_lower=0.4 + (seed % 3) * 0.45,
            seed=seed,
        )
    else:
        graph = power_law_bipartite(
            35,
            14 + seed % 4,
            150,
            exponent_upper=1.3,
            exponent_lower=0.3,
            seed=seed,
        )
    weight_model = seed % 4
    if weight_model == 1:
        for u, v, _ in list(graph.edges()):
            graph.add_edge(u, v, float(rng.randint(1, 10)))
    elif weight_model == 2:
        for u, v, _ in list(graph.edges()):
            graph.add_edge(u, v, round(rng.uniform(0.1, 5.0), 3))
    # weight_model 0 and 3 keep uniform weights (the generators' default).
    if seed % 2 == 0:
        graph.add_vertex(Side.UPPER, f"isolated_u{seed}")
        graph.add_vertex(Side.LOWER, f"isolated_v{seed}")
    return graph


@pytest.mark.parametrize("seed", SEEDS)
def test_core_and_offset_agreement(seed):
    graph = build_agreement_graph(seed)
    assert degeneracy(graph, backend="dict") == degeneracy(graph, backend="csr")
    for alpha, beta in THRESHOLD_PAIRS:
        assert abcore_vertices(graph, alpha, beta, backend="dict") == abcore_vertices(
            graph, alpha, beta, backend="csr"
        ), f"(α,β)=({alpha},{beta})"
    for threshold in OFFSET_THRESHOLDS:
        assert alpha_offsets(graph, threshold, backend="dict") == alpha_offsets(
            graph, threshold, backend="csr"
        ), f"alpha offsets at {threshold}"
        assert beta_offsets(graph, threshold, backend="dict") == beta_offsets(
            graph, threshold, backend="csr"
        ), f"beta offsets at {threshold}"


@pytest.mark.parametrize("seed", SEEDS[::2])
def test_degeneracy_index_structures_are_identical(seed):
    graph = build_agreement_graph(seed)
    dict_index = DegeneracyIndex(graph, backend="dict")
    csr_index = DegeneracyIndex(graph, backend="csr")
    assert dict_index.backend == "dict" and csr_index.backend == "csr"
    assert dict_index.delta == csr_index.delta
    assert dict_index._alpha_offsets == csr_index._alpha_offsets
    assert dict_index._beta_offsets == csr_index._beta_offsets
    assert dict_index._alpha_lists == csr_index._alpha_lists
    assert dict_index._beta_lists == csr_index._beta_lists
    dict_stats, csr_stats = dict_index.stats(), csr_index.stats()
    assert dict_stats.entries == csr_stats.entries
    assert dict_stats.adjacency_lists == csr_stats.adjacency_lists


@pytest.mark.parametrize("seed", SEEDS[1::4])
def test_basic_index_structures_are_identical(seed):
    graph = build_agreement_graph(seed)
    for direction in ("alpha", "beta"):
        dict_index = BasicIndex(graph, direction, max_level=4, backend="dict")
        csr_index = BasicIndex(graph, direction, max_level=4, backend="csr")
        assert dict_index._offsets == csr_index._offsets, direction
        assert dict_index._lists == csr_index._lists, direction


def test_explicit_dict_backend_never_touches_csr(monkeypatch):
    """``backend="dict"`` must not route through the CSR kernels, even on
    graphs large enough for ``auto`` to pick CSR (regression: _build_level
    used to call the offset functions with the default auto backend)."""
    from repro.graph.csr import AUTO_CSR_EDGE_THRESHOLD

    graph = random_bipartite(400, 400, AUTO_CSR_EDGE_THRESHOLD, seed=11)

    def forbidden_freeze(_graph):
        raise AssertionError("CSR freeze invoked from an explicit dict build")

    monkeypatch.setattr("repro.graph.csr.CSRBipartiteGraph.freeze", forbidden_freeze)
    index = DegeneracyIndex(graph, backend="dict")
    assert index.backend == "dict"
    assert index.delta >= 1


@pytest.mark.parametrize("seed", SEEDS[::5])
def test_significant_community_agreement(seed):
    graph = build_agreement_graph(seed)
    dict_searcher = CommunitySearcher(graph, backend="dict")
    csr_searcher = CommunitySearcher(graph, backend="csr")
    assert dict_searcher.degeneracy == csr_searcher.degeneracy
    for alpha, beta in ((1, 1), (2, 2), (2, 3)):
        members = dict_searcher.index.vertices_in_core(alpha, beta)
        assert members == csr_searcher.index.vertices_in_core(alpha, beta)
        for query in members[:3]:
            for method in ("peel", "expand"):
                try:
                    expected = dict_searcher.significant_community(
                        query, alpha, beta, method=method
                    )
                except EmptyCommunityError:
                    with pytest.raises(EmptyCommunityError):
                        csr_searcher.significant_community(query, alpha, beta, method=method)
                    continue
                actual = csr_searcher.significant_community(query, alpha, beta, method=method)
                assert graph_edge_weights(actual.graph) == graph_edge_weights(expected.graph)
                assert actual.alpha == expected.alpha and actual.beta == expected.beta
