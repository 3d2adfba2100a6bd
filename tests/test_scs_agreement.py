"""Agreement suite for the array-native significant search (step 2).

The dict-backed ``scs_*`` algorithms are the oracle.  The vectorised edge
kernel (:func:`repro.decomposition.csr_kernels.csr_significant_edges`) must
return element-wise identical answers — same vertices, same edges — on many
seeded weighted graphs, for a grid of (α,β), for every algorithm, through
every entry point (direct kernel calls, batch APIs on both construction
backends, and the snapshot/serving pipeline).
"""

from __future__ import annotations

import random

import pytest

from repro.api import CommunitySearcher
from repro.decomposition.csr_kernels import csr_significant_edges
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
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


def with_distinct_float_weights(graph: BipartiteGraph, seed: int) -> BipartiteGraph:
    """``graph`` re-weighted so that no two edges share a weight (the
    paper's random-walk weights look like this): every peel round strips
    one edge."""
    rng = random.Random(seed)
    edges = list(graph.edges())
    ranks = rng.sample(range(len(edges)), len(edges))
    reweighted = graph.copy()
    for (u, v, _), rank in zip(edges, ranks):
        reweighted.add_edge(u, v, (rank + 0.5) / len(edges))
    return reweighted


@pytest.mark.parametrize("seed", range(30))
def test_oracle_and_array_twins_agree(seed):
    """peel == expand == binary == baseline == edge kernel, per method, on
    integer weights and on distinct float weights."""
    integer_weights = make_random_weighted_graph(seed)
    for graph in (integer_weights, with_distinct_float_weights(integer_weights, seed)):
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
        """ε is checked for every method, NaN included, not only for expand."""
        for method in METHODS:
            for epsilon in (1.0, 0.5, float("nan")):
                with pytest.raises(InvalidParameterError):
                    csr_significant_edges(
                        [0], [0], [1.0], True, 0, 1, 1, method=method, epsilon=epsilon
                    )


class TestInterning:
    """The kernel interns endpoint ids by a dense table over their span, or
    by numpy's sort-based inverse when the span is much wider than the edge
    count; both branches give the oracle's answer."""

    @staticmethod
    def count_unique_calls(monkeypatch):
        import numpy as np

        calls = []
        real = np.unique

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        return calls

    @pytest.mark.parametrize("scale", [1, 10**6], ids=["dense", "sparse"])
    @pytest.mark.parametrize("seed", [2, 5, 11, 17])
    def test_both_branches_match_the_oracle(self, seed, scale, monkeypatch):
        integer_weights = make_random_weighted_graph(seed)
        calls = self.count_unique_calls(monkeypatch)
        checked = 0
        for graph in (integer_weights, with_distinct_float_weights(integer_weights, seed)):
            index = DegeneracyIndex(graph, backend="dict")
            for alpha, beta in GRID:
                for query in core_queries(index, alpha, beta):
                    community = index.community(query, alpha, beta)
                    oracle_edges = graph_edge_triples(scs_peel(community, query, alpha, beta))
                    src, dst, weight, upper_ids, lower_ids = community_edge_lists(community)
                    query_upper = query.side is Side.UPPER
                    query_id = (upper_ids if query_upper else lower_ids)[query.label]
                    wide_src = [i * scale for i in src]
                    wide_dst = [i * scale for i in dst]
                    for method in METHODS:
                        kept = csr_significant_edges(
                            wide_src, wide_dst, weight, query_upper, query_id * scale,
                            alpha, beta, method=method,
                        ).tolist()
                        got = edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids)
                        assert got == oracle_edges, (seed, alpha, beta, query, method)
                    checked += 1
        assert checked > 0
        if scale == 1:
            assert calls == []
        else:
            assert calls and all(call.get("return_inverse") for call in calls)

    @pytest.mark.parametrize("scale", [1, 10**6], ids=["dense", "sparse"])
    def test_absent_query_rejected(self, scale):
        src = [0, 0, 2 * scale, 2 * scale]
        dst = [0, scale, 0, scale]
        weight = [1.0, 2.0, 3.0, 4.0]
        for method in METHODS:
            for absent in (scale, 3 * scale, -1):
                with pytest.raises(InvalidParameterError):
                    csr_significant_edges(src, dst, weight, True, absent, 1, 1, method=method)
            with pytest.raises(InvalidParameterError):
                csr_significant_edges(src, dst, weight, False, 2 * scale, 1, 1, method=method)

    def test_empty_edges_rejected(self):
        for method in METHODS:
            for query_upper in (True, False):
                with pytest.raises(InvalidParameterError):
                    csr_significant_edges([], [], [], query_upper, 0, 1, 1, method=method)

    def test_single_edge_is_returned_whole(self):
        for method in METHODS:
            for query_upper, query_id in ((True, 5), (False, 9)):
                kept = csr_significant_edges(
                    [5], [9], [2.5], query_upper, query_id, 1, 1, method=method
                )
                assert kept.tolist() == [0]
                assert kept.dtype.name == "int64"


def _biclique(graph, uppers, lowers, weight_of):
    for i, u in enumerate(uppers):
        for j, v in enumerate(lowers):
            graph.add_edge(u, v, float(weight_of(i, j)))


def _heavy_block_far_from_query():
    """q's 4x4 block reaches a heavy 6x6 block only through a light chain, so
    the heaviest prefixes grow while q's component stays put."""
    graph = BipartiteGraph(name="heavy-far")
    _biclique(graph, ["q0", "q1", "q2", "q3"], ["r0", "r1", "r2", "r3"], lambda i, j: 8 - (i + j))
    _biclique(graph, [f"h{i}" for i in range(6)], [f"k{j}" for j in range(6)], lambda i, j: 9)
    previous = "r3"
    for block in range(3):
        _biclique(graph, [f"c{block}a", f"c{block}b"], [f"d{block}a", f"d{block}b"], lambda i, j: 1)
        graph.add_edge(f"c{block}a", previous, 1.0)
        previous = f"d{block}a"
    graph.add_edge("h0", previous, 1.0)
    return graph, Vertex(Side.UPPER, "q0")


def _runs_straddle_checkpoints():
    """Three weights over a random 8x8 block: long equal-weight runs, so
    ε·prefix lands inside a run and the checkpoint moves to its end."""
    rng = random.Random(22)
    graph = BipartiteGraph(name="runs")
    for i in range(8):
        for j in range(8):
            if rng.random() < 0.55:
                graph.add_edge(f"u{i}", f"v{j}", float(rng.choice((1, 2, 2, 3, 3, 3))))
    return graph, Vertex(Side.UPPER, "u0")


def _query_only_on_lightest_edges():
    """Every edge of q carries the minimum weight: the query-degree rule
    leaves the full prefix as the only checkpoint."""
    graph = BipartiteGraph(name="light-query")
    _biclique(graph, ["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"], lambda i, j: 2 + (i + 2 * j) % 5)
    for label in ("b0", "b1", "b2"):
        graph.add_edge("q", label, 1.0)
    return graph, Vertex(Side.UPPER, "q")


def _distinct_weights():
    """Every edge weight distinct: each position is a run boundary, so the
    bisection back from the first passing checkpoint has the most to do."""
    rng = random.Random(6)
    graph = BipartiteGraph(name="distinct")
    for i in range(9):
        for j in range(9):
            if rng.random() < 0.6:
                graph.add_edge(f"u{i}", f"v{j}", rng.random())
    return graph, Vertex(Side.UPPER, "u0")


EXPAND_SCENARIOS = {
    "heavy_block_far": _heavy_block_far_from_query,
    "runs_straddle": _runs_straddle_checkpoints,
    "query_lightest": _query_only_on_lightest_edges,
    "distinct_weights": _distinct_weights,
}


class TestExpandKernel:
    """The prefix-checkpoint expand kernel against the dict ``scs_peel`` oracle."""

    @pytest.mark.parametrize("epsilon", [1.01, 2.0, 1e9])
    @pytest.mark.parametrize("scenario", sorted(EXPAND_SCENARIOS))
    def test_matches_peel_oracle(self, scenario, epsilon, monkeypatch):
        import repro.decomposition.csr_kernels as kernels

        graph, query = EXPAND_SCENARIOS[scenario]()
        community = DegeneracyIndex(graph, backend="dict").community(query, 2, 2)
        oracle = scs_peel(community, query, 2, 2)
        src, dst, weight, upper_ids, lower_ids = community_edge_lists(community)
        ids = upper_ids if query.side is Side.UPPER else lower_ids

        validated = []
        real_core = kernels._edge_core

        def recording_core(us, *args):
            validated.append(int(us.shape[0]))
            return real_core(us, *args)

        monkeypatch.setattr(kernels, "_edge_core", recording_core)
        kept = csr_significant_edges(
            src, dst, weight, query.side is Side.UPPER, ids[query.label], 2, 2,
            method="expand", epsilon=epsilon,
        ).tolist()
        assert kept == sorted(kept)
        got = edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids)
        assert got == graph_edge_triples(oracle)
        monkeypatch.undo()
        binary = csr_significant_edges(
            src, dst, weight, query.side is Side.UPPER, ids[query.label], 2, 2,
            method="binary",
        ).tolist()
        assert binary == kept  # the same kernel on the ε = ∞ schedule

        # Every validated prefix is a whole threshold graph G≥w: it ends at a
        # weight-run boundary of the descending order.
        descending = sorted(weight, reverse=True)
        total = len(descending)
        assert validated
        for prefix in validated:
            assert prefix == total or descending[prefix - 1] != descending[prefix]
        assert len(validated) == len(set(validated))
        if scenario == "query_lightest":
            assert validated == [total]
        else:
            assert len(validated) >= 2  # a failed validation came first
        if scenario == "heavy_block_far":
            assert validated[0] > 36  # the heavy block came first

    def test_no_per_edge_python_calls(self):
        """One expand or peel over a ~22k-edge community makes < E/100
        Python calls (the union-find version made several per edge, the
        round-per-weight peel several per distinct weight)."""
        import sys

        import numpy as np

        rng = np.random.default_rng(5)
        src, dst = np.nonzero(rng.random((160, 160)) < 0.85)
        weight = rng.integers(1, 33, size=src.shape[0]).astype(float)
        # Light query edges push the first checkpoint deep into the order.
        weight[src == 0] = rng.integers(1, 5, size=int((src == 0).sum()))
        assert src.shape[0] >= 20_000

        def profiled(method, weight):
            """The kept edges and the Python calls one search made."""

            def run():
                return csr_significant_edges(src, dst, weight, True, 0, 3, 3, method=method)

            run()  # first-call imports inside numpy are not the kernel's cost
            calls = [0]

            def count(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            sys.setprofile(count)
            try:
                kept = run()
            finally:
                sys.setprofile(None)
            return kept, calls[0]

        # The same order with every weight distinct: a peel round per edge.
        distinct = np.argsort(np.argsort(weight, kind="stable")) + 0.5
        for weights in (weight, distinct):
            kept, calls = profiled("expand", weights)
            assert calls < src.shape[0] / 100, calls
            peeled, calls = profiled("peel", weights)
            assert calls < src.shape[0] / 100, calls
            assert np.array_equal(kept, peeled)


class TestEpsilonValidation:
    """A bad ε is refused before ``auto`` resolves, on every route."""

    BAD = (0.5, 1.0, float("nan"))

    @pytest.fixture(scope="class")
    def graph(self):
        return make_random_weighted_graph(3)

    def routes(self, delta):
        """(α,β) pairs that resolve ``auto`` to expand and to peel."""
        from repro.search import resolve_scs_method

        pairs = {resolve_scs_method("auto", t, t, delta): (t, t) for t in (1, delta)}
        assert set(pairs) == {"expand", "peel"}
        return list(pairs.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_searcher_entry_points(self, graph, backend):
        searcher = CommunitySearcher(graph, backend=backend)
        for alpha, beta in self.routes(searcher.degeneracy):
            query = core_queries(searcher.index, alpha, beta)[0]
            for epsilon in self.BAD:
                for method in ("auto", "peel", "baseline"):
                    with pytest.raises(InvalidParameterError):
                        searcher.significant_community(
                            query, alpha, beta, method=method, epsilon=epsilon
                        )
                    with pytest.raises(InvalidParameterError):
                        searcher.batch_significant_communities(
                            [(query, alpha, beta)], method=method, epsilon=epsilon,
                            on_empty="none",
                        )
            assert searcher.significant_community(query, alpha, beta).graph.num_edges

    def test_index_and_snapshot_batches(self, graph, tmp_path):
        from repro.serving.snapshot import load_snapshot, save_snapshot

        index = DegeneracyIndex(graph, backend="csr")
        snapshot = load_snapshot(save_snapshot(index, tmp_path / "snap"))
        for source in (index, snapshot):
            for alpha, beta in self.routes(index.delta):
                query = core_queries(index, alpha, beta)[0]
                for epsilon in self.BAD:
                    with pytest.raises(InvalidParameterError):
                        source.batch_significant_edges(
                            [(query, alpha, beta)], epsilon=epsilon, on_empty="none"
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
