"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.datasets.movielens import movielens_like
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    paper_example_graph,
    power_law_bipartite,
    random_bipartite,
)
from repro.graph.weights import apply_weights

#: Longest a single test's setup or call phase may run before the test
#: fails.  The slowest phase in the suite takes a few seconds; the budget
#: keeps sleeps and oversized inputs from creeping into the tier-1 run.
PHASE_BUDGET_SECONDS = 20.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail a passing setup or call phase that overran the time budget."""
    outcome = yield
    report = outcome.get_result()
    if (
        report.when in ("setup", "call")
        and report.passed
        and call.duration > PHASE_BUDGET_SECONDS
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"{report.when} phase took {call.duration:.1f} s, over the "
            f"{PHASE_BUDGET_SECONDS:g} s per-phase test budget"
        )


@pytest.fixture
def tiny_graph() -> BipartiteGraph:
    """A 3x3 block plus a pendant edge; handy for hand-checked expectations.

    Edges: full block u0..u2 x v0..v2 with weights 1..9 (row-major), plus the
    pendant edge (u3, v0) with weight 0.5.
    """
    graph = BipartiteGraph(name="tiny")
    weight = 1.0
    for i in range(3):
        for j in range(3):
            graph.add_edge(f"u{i}", f"v{j}", weight)
            weight += 1.0
    graph.add_edge("u3", "v0", 0.5)
    return graph


@pytest.fixture
def paper_graph() -> BipartiteGraph:
    """The running example of Figure 2 of the paper."""
    return paper_example_graph()


@pytest.fixture
def two_block_graph() -> BipartiteGraph:
    """Two dense blocks joined by a light bridge edge.

    Block A: a0..a2 x x0..x2, all weights 5.0.
    Block B: b0..b2 x y0..y2, all weights 3.0.
    Bridge: (a0, y0) with weight 1.0.
    The significant (2,2)-community of any A vertex is block A.
    """
    graph = BipartiteGraph(name="two-block")
    for i in range(3):
        for j in range(3):
            graph.add_edge(f"a{i}", f"x{j}", 5.0)
            graph.add_edge(f"b{i}", f"y{j}", 3.0)
    graph.add_edge("a0", "y0", 1.0)
    return graph


def make_random_weighted_graph(seed: int, num_edges: int = 160) -> BipartiteGraph:
    """A reproducible random weighted bipartite graph for randomized tests."""
    rng = random.Random(seed)
    graph = power_law_bipartite(
        num_upper=20 + seed % 7,
        num_lower=18 + seed % 5,
        num_edges=num_edges,
        exponent_upper=0.7,
        exponent_lower=0.7,
        seed=seed,
    )
    for u, v, _ in list(graph.edges()):
        graph.add_edge(u, v, float(rng.randint(1, 12)))
    return graph


@pytest.fixture(params=[1, 2, 3])
def random_graph(request) -> BipartiteGraph:
    """Three reproducible random graphs for parametrised consistency tests."""
    return make_random_weighted_graph(request.param)


@pytest.fixture(scope="session")
def movielens_data():
    """A single shared MovieLens-like dataset (session scoped: it is static)."""
    return movielens_like(
        num_fans=25,
        num_fan_movies=20,
        num_casual_users=80,
        num_casual_movies=25,
        num_other_movies=20,
        seed=99,
    )


@pytest.fixture
def uniform_random_graph() -> BipartiteGraph:
    """A small Erdos-Renyi style graph with uniform weights."""
    graph = random_bipartite(14, 14, 70, seed=5)
    apply_weights(graph, "UF", seed=5)
    return graph
