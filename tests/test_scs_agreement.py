"""Agreement suite for the array-native significant search (step 2).

The dict-backed ``scs_*`` algorithms are the oracle.  The vectorised edge
kernel (:func:`repro.decomposition.csr_kernels.csr_significant_edges`) must
return element-wise identical answers — same vertices, same edges — on many
seeded weighted graphs, for a grid of (α,β), for every algorithm, through
every entry point (direct kernel calls, batch APIs on both construction
backends, and the snapshot/serving pipeline).
"""

from __future__ import annotations

import pytest

from repro.api import CommunitySearcher
from repro.decomposition.csr_kernels import csr_significant_edges
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import Side, Vertex
from repro.index.degeneracy_index import DegeneracyIndex
from repro.search.baseline import scs_baseline
from repro.search.binary import scs_binary
from repro.search.expand import scs_expand
from repro.search.peel import scs_peel

from tests.conftest import make_random_weighted_graph
from tests.reference import assert_same_graph

BACKENDS = ["dict", "csr"]

GRID = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
METHODS = ("peel", "expand", "binary")


def community_edge_lists(community):
    """The wire form of a community: parallel edge lists over interned ids."""
    upper_ids = {label: i for i, label in enumerate(sorted(community.upper_labels(), key=repr))}
    lower_ids = {label: i for i, label in enumerate(sorted(community.lower_labels(), key=repr))}
    src, dst, weight = [], [], []
    for u, v, w in community.edges():
        src.append(upper_ids[u])
        dst.append(lower_ids[v])
        weight.append(w)
    return src, dst, weight, upper_ids, lower_ids


def edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids):
    inv_u = {i: label for label, i in upper_ids.items()}
    inv_l = {i: label for label, i in lower_ids.items()}
    return {(inv_u[src[e]], inv_l[dst[e]], weight[e]) for e in kept}


def core_queries(index, alpha, beta, per_side=1):
    candidates = index.vertices_in_core(alpha, beta)
    uppers = [v for v in candidates if v.side is Side.UPPER][:per_side]
    lowers = [v for v in candidates if v.side is Side.LOWER][:per_side]
    return uppers + lowers


@pytest.mark.parametrize("seed", range(30))
def test_oracle_and_array_twins_agree(seed):
    """peel == expand == binary == baseline == edge kernel, per method."""
    graph = make_random_weighted_graph(seed)
    index = DegeneracyIndex(graph, backend="dict")
    checked = 0
    for alpha, beta in GRID:
        for query in core_queries(index, alpha, beta):
            community = index.community(query, alpha, beta)
            oracle = scs_peel(community, query, alpha, beta)
            assert_same_graph(scs_expand(community, query, alpha, beta), oracle)
            assert_same_graph(scs_binary(community, query, alpha, beta), oracle)
            assert_same_graph(scs_baseline(graph, query, alpha, beta), oracle)

            src, dst, weight, upper_ids, lower_ids = community_edge_lists(community)
            query_upper = query.side is Side.UPPER
            query_id = (upper_ids if query_upper else lower_ids)[query.label]
            oracle_edges = set(graph_edge_triples(oracle))
            for method in METHODS:
                kept = csr_significant_edges(
                    src, dst, weight, query_upper, query_id, alpha, beta, method=method
                ).tolist()
                assert kept == sorted(kept), (seed, alpha, beta, query, method)
                got = edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids)
                assert got == oracle_edges, (seed, alpha, beta, query, method)
            checked += 1
    assert checked > 0


def graph_edge_triples(graph):
    return {(u, v, w) for u, v, w in graph.edges()}


class TestBatchBackends:
    """The batch pipeline agrees with the sequential dict oracle per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [3, 7, 19])
    def test_batch_matches_dict_oracle(self, seed, backend):
        graph = make_random_weighted_graph(seed)
        oracle = CommunitySearcher(graph, backend="dict")
        searcher = CommunitySearcher(graph, backend=backend)
        queries = []
        for alpha, beta in GRID:
            queries.extend(
                (query, alpha, beta)
                for query in core_queries(oracle.index, alpha, beta)
            )
        for method in ("peel", "expand", "binary", "auto"):
            expected = [
                oracle._extract(
                    oracle.community(query, alpha, beta), query, alpha, beta,
                    method, 2.0,
                )
                for query, alpha, beta in queries
            ]
            batched = searcher.batch_significant_communities(queries, method=method)
            assert len(batched) == len(expected)
            for got, want in zip(batched, expected):
                assert got.method == want.method
                assert got.search_space_edges == want.search_space_edges
                assert_same_graph(got.graph, want.graph)


class TestUniformWeightExit:
    """Regression: the single-distinct-weight short-circuits must behave like
    the general paths — canonical ``R(α,β)[q]`` name, query validated."""

    def algorithms(self):
        return (scs_peel, scs_expand, scs_binary)

    @pytest.fixture()
    def uniform_blocks(self):
        """Two disconnected 3x3 blocks, every edge weight 3.0."""
        from repro.graph.bipartite import BipartiteGraph

        graph = BipartiteGraph(name="uniform-blocks")
        for i in range(3):
            for j in range(3):
                graph.add_edge(f"a{i}", f"x{j}", 3.0)
                graph.add_edge(f"b{i}", f"y{j}", 3.0)
        return graph

    def test_named_and_equal_to_community(self, uniform_blocks):
        searcher = CommunitySearcher(uniform_blocks, backend="dict")
        query = Vertex(Side.UPPER, "b0")
        community = searcher.community(query, 2, 2)
        assert len(set(community.edge_weights())) == 1
        for algorithm in self.algorithms():
            result = algorithm(community, query, 2, 2)
            assert result.name == "R(2,2)['b0']"
            assert_same_graph(result, community)

    def test_foreign_query_rejected(self, uniform_blocks):
        searcher = CommunitySearcher(uniform_blocks, backend="dict")
        community = searcher.community(Vertex(Side.UPPER, "b0"), 2, 2)
        foreign = Vertex(Side.UPPER, "a0")  # in the graph, not in this community
        for algorithm in self.algorithms():
            with pytest.raises(InvalidParameterError):
                algorithm(community, foreign, 2, 2)

    def test_array_twins_match_exit(self):
        src, dst, weight = [0, 0, 1, 1], [0, 1, 0, 1], [3.0, 3.0, 3.0, 3.0]
        for method in METHODS:
            kept = csr_significant_edges(src, dst, weight, True, 1, 2, 2, method=method)
            assert kept.tolist() == [0, 1, 2, 3], method
            with pytest.raises(InvalidParameterError):
                csr_significant_edges(src, dst, weight, True, 9, 2, 2, method=method)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            csr_significant_edges([0], [0], [1.0], True, 0, 1, 1, method="magic")

    def test_expand_epsilon_validated(self):
        with pytest.raises(InvalidParameterError):
            csr_significant_edges(
                [0], [0], [1.0], True, 0, 1, 1, method="expand", epsilon=1.0
            )


class TestNoMaterialisation:
    """The array-native pipeline must never assemble a dict graph per answer.

    ``_graph_from_edge_arrays`` is the single assembly entry point (the lazy
    ``DeferredCommunity`` late-imports it too), so patching it intercepts
    every possible materialisation.
    """

    @pytest.fixture()
    def snapshot_searcher(self, tmp_path):
        from repro.serving.snapshot import load_snapshot, save_snapshot

        graph = make_random_weighted_graph(23)
        index = DegeneracyIndex(graph, backend="csr")
        directory = save_snapshot(index, tmp_path / "snap")
        return graph, CommunitySearcher(index=load_snapshot(directory))

    def test_snapshot_batch_builds_no_graphs(self, snapshot_searcher, monkeypatch):
        import repro.index.traversal as traversal

        graph, searcher = snapshot_searcher
        oracle = CommunitySearcher(graph, backend="dict")
        queries = [
            (query, alpha, beta)
            for alpha, beta in GRID
            for query in core_queries(searcher.index, alpha, beta)
        ]
        assert queries

        calls = []
        real = traversal._graph_from_edge_arrays

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(traversal, "_graph_from_edge_arrays", counting)
        results = searcher.batch_significant_communities(queries, method="auto")
        assert calls == [], "array-native search materialised a dict graph"
        monkeypatch.undo()

        expected = oracle.batch_significant_communities(queries, method="auto")
        for got, want in zip(results, expected):
            assert got.method == want.method
            assert got.search_space_edges == want.search_space_edges
            assert_same_graph(got.graph, want.graph)

    def test_sequential_snapshot_query_builds_no_graphs(
        self, snapshot_searcher, monkeypatch
    ):
        import repro.index.traversal as traversal

        graph, searcher = snapshot_searcher
        query = core_queries(searcher.index, 2, 2)[0]
        expected = CommunitySearcher(graph, backend="dict").significant_community(
            query, 2, 2, method="peel"
        )

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("dict graph materialised during array-native search")

        monkeypatch.setattr(traversal, "_graph_from_edge_arrays", boom)
        result = searcher.significant_community(query, 2, 2, method="peel")
        monkeypatch.undo()
        assert result.method == "peel"
        assert_same_graph(result.graph, expected.graph)

    def test_served_batch_builds_no_graphs(self, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork so workers inherit the patched assembly hook")
        import repro.index.traversal as traversal

        graph = make_random_weighted_graph(29)
        searcher = CommunitySearcher(graph, backend="csr")
        oracle = CommunitySearcher(graph, backend="dict")
        queries = [
            (query, alpha, beta)
            for alpha, beta in [(2, 2), (3, 3)]
            for query in core_queries(searcher.index, alpha, beta, per_side=2)
        ]
        assert queries

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("dict graph materialised inside the serving pipeline")

        real = traversal._graph_from_edge_arrays
        traversal._graph_from_edge_arrays = boom
        try:
            # Workers fork with the hook in place: any assembly on either side
            # of the process boundary turns into a worker error or a local
            # AssertionError.
            with searcher.serve(
                num_workers=2, snapshot_dir=str(tmp_path / "snap"), start_method="fork"
            ) as server:
                results = server.batch_significant_communities(queries, method="peel")
        finally:
            traversal._graph_from_edge_arrays = real

        expected = oracle.batch_significant_communities(queries, method="peel")
        for got, want in zip(results, expected):
            assert got.method == want.method
            assert got.search_space_edges == want.search_space_edges
            assert_same_graph(got.graph, want.graph)
