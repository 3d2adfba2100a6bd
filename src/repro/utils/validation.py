"""Parameter and result validation helpers shared across modules."""

from __future__ import annotations

from typing import Callable, Optional

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex

__all__ = [
    "check_positive_int",
    "check_thresholds",
    "check_epsilon",
    "check_query_vertex",
    "check_query_membership",
    "satisfies_degree_constraints",
    "is_significant_candidate",
]


def check_positive_int(value: int, name: str) -> int:
    """Ensure ``value`` is an integer >= 1; return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_thresholds(alpha: int, beta: int) -> None:
    """Validate the (alpha, beta) degree thresholds of a query."""
    check_positive_int(alpha, "alpha")
    check_positive_int(beta, "beta")


def check_epsilon(epsilon: float) -> None:
    """Validate the expansion growth factor ε of a significant query.

    Checked for every method, before ``"auto"`` resolves, so whether a
    request is accepted never depends on which algorithm ends up running.
    Written as ``not epsilon > 1`` so NaN is rejected too.
    """
    if not epsilon > 1.0:
        raise InvalidParameterError(f"epsilon must be larger than 1, got {epsilon!r}")


def check_query_membership(contains: Callable[[Vertex], bool], query: Vertex) -> Vertex:
    """Validate a query handle against an arbitrary membership test.

    The graph-free twin of :func:`check_query_vertex`, used by array-only
    indexes (the snapshot store) that know their vertex set without holding a
    materialised :class:`BipartiteGraph`.  Raises the same errors with the
    same messages, so both validation paths are interchangeable.
    """
    if not isinstance(query, Vertex):
        raise InvalidParameterError(
            f"query must be a Vertex handle (use repro.upper/lower), got {query!r}"
        )
    if not contains(query):
        raise InvalidParameterError(f"query vertex {query!r} is not in the graph")
    return query


def check_query_vertex(graph: BipartiteGraph, query: Vertex) -> Vertex:
    """Ensure the query vertex exists in ``graph``; return it."""
    return check_query_membership(
        lambda vertex: graph.has_vertex(vertex.side, vertex.label), query
    )


def satisfies_degree_constraints(graph: BipartiteGraph, alpha: int, beta: int) -> bool:
    """True if every upper vertex has degree >= alpha and lower >= beta."""
    for label in graph.upper_labels():
        if graph.degree(Side.UPPER, label) < alpha:
            return False
    for label in graph.lower_labels():
        if graph.degree(Side.LOWER, label) < beta:
            return False
    return True


def is_significant_candidate(
    graph: BipartiteGraph,
    query: Vertex,
    alpha: int,
    beta: int,
    minimum_weight: Optional[float] = None,
) -> bool:
    """Check constraints (1) and (2) of Definition 5 for a candidate subgraph.

    The candidate must contain the query vertex, be connected, satisfy the
    degree thresholds, and (optionally) have significance >= ``minimum_weight``.
    """
    if graph.is_empty():
        return False
    if not graph.has_vertex(query.side, query.label):
        return False
    if not graph.is_connected():
        return False
    if not satisfies_degree_constraints(graph, alpha, beta):
        return False
    if minimum_weight is not None and graph.significance() < minimum_weight:
        return False
    return True
