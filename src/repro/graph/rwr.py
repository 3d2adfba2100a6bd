"""Random walk with restart (RWR) on bipartite graphs.

The paper derives edge weights for the unweighted datasets (``DT`` and ``PA``)
from node relevance scores computed with the random walk with restart model of
Tong et al. (ICDM 2006).  This module implements that substrate: a power
iteration computing, for a restart vertex ``q``, the stationary probability of
a walk that at each step either restarts at ``q`` (with probability
``restart_prob``) or moves to a uniformly random neighbour.

:func:`rwr_scores` returns the score vector for one restart vertex and
:func:`rwr_edge_weights` turns scores into edge weights (the paper uses node
relevance between the two endpoints; we use the symmetric combination
``score(u) + score(v)`` rescaled to a target range).

Two engines share the same update rule: the pure-python power iteration walks
the dict adjacency in a canonical (``repr``-sorted) vertex order, so the same
graph loaded in any edge order produces bit-identical scores; the CSR engine
(``backend="csr"``, or ``"auto"`` on large graphs) freezes the graph once and
runs every iteration as a handful of vectorised gathers and ``bincount``
scatter-adds, which is what makes deriving weights for 100k-edge benchmark
graphs cheap.  The two engines agree to float
round-off (their summation orders differ); each engine is individually
deterministic for a given graph.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.csr import CSRBipartiteGraph, resolve_backend

__all__ = ["rwr_scores", "rwr_edge_weights"]


def _check_restart(graph: BipartiteGraph, restart: Vertex, restart_prob: float) -> None:
    if not 0.0 < restart_prob < 1.0:
        raise InvalidParameterError("restart_prob must lie strictly between 0 and 1")
    if not graph.has_vertex(restart.side, restart.label):
        raise InvalidParameterError(f"restart vertex {restart!r} is not in the graph")


def _dict_scores(
    graph: BipartiteGraph,
    restart: Vertex,
    restart_prob: float,
    max_iterations: int,
    tolerance: float,
) -> Dict[Vertex, float]:
    """Pure-python power iteration over the dict adjacency.

    Vertices are visited in ``repr``-sorted order, which pins the float
    accumulation order: two loads of the same graph with shuffled edge lists
    produce bit-identical score maps.
    """
    ordered: List[Vertex] = sorted(graph.vertices(), key=repr)
    scores: Dict[Vertex, float] = {vertex: 0.0 for vertex in ordered}
    scores[restart] = 1.0

    for _ in range(max_iterations):
        updated: Dict[Vertex, float] = {vertex: 0.0 for vertex in ordered}
        for vertex in ordered:
            mass = scores[vertex]
            if mass == 0.0:
                continue
            degree = graph.degree(vertex.side, vertex.label)
            if degree == 0:
                # Dangling mass teleports home.
                updated[restart] += (1.0 - restart_prob) * mass
                continue
            share = (1.0 - restart_prob) * mass / degree
            other = vertex.side.other
            for nbr in sorted(graph.neighbors(vertex.side, vertex.label), key=repr):
                updated[Vertex(other, nbr)] += share
        updated[restart] += restart_prob
        delta = sum(abs(updated[v] - scores[v]) for v in ordered)
        scores = updated
        if delta < tolerance:
            break
    return scores


def _csr_scores(
    csr: "CSRBipartiteGraph",
    restart: Vertex,
    restart_prob: float,
    max_iterations: int,
    tolerance: float,
) -> "Tuple[np.ndarray, np.ndarray]":
    """Vectorised power iteration over the frozen CSR adjacency.

    Returns ``(upper_scores, lower_scores)`` float arrays indexed by the CSR's
    interned local ids.  Each round is two ``repeat`` gathers and two
    ``bincount`` scatter-adds — O(E) with numpy constants instead of python
    dict constants, which is what lets weight derivation keep up with the
    array-resident index builds.
    """
    num_upper = len(csr.upper_labels)
    num_lower = len(csr.lower_labels)
    deg_u = np.diff(csr.u_indptr)
    deg_l = np.diff(csr.l_indptr)
    keep = 1.0 - restart_prob

    s_u = np.zeros(num_upper, dtype=np.float64)
    s_l = np.zeros(num_lower, dtype=np.float64)
    if restart.side is Side.UPPER:
        restart_arr, restart_id = s_u, csr._upper_ids[restart.label]
    else:
        restart_arr, restart_id = s_l, csr._lower_ids[restart.label]
    restart_arr[restart_id] = 1.0

    dangling_u = deg_u == 0
    dangling_l = deg_l == 0
    for _ in range(max_iterations):
        share_u = np.divide(
            keep * s_u, deg_u, out=np.zeros_like(s_u), where=~dangling_u
        )
        share_l = np.divide(
            keep * s_l, deg_l, out=np.zeros_like(s_l), where=~dangling_l
        )
        new_l = np.bincount(
            csr.u_indices, weights=np.repeat(share_u, deg_u), minlength=num_lower
        )
        new_u = np.bincount(
            csr.l_indices, weights=np.repeat(share_l, deg_l), minlength=num_upper
        )
        home = restart_prob + keep * (
            float(s_u[dangling_u].sum()) + float(s_l[dangling_l].sum())
        )
        if restart.side is Side.UPPER:
            new_u[restart_id] += home
        else:
            new_l[restart_id] += home
        delta = float(np.abs(new_u - s_u).sum() + np.abs(new_l - s_l).sum())
        s_u, s_l = new_u, new_l
        if delta < tolerance:
            break
    return s_u, s_l


def rwr_scores(
    graph: BipartiteGraph,
    restart: Vertex,
    restart_prob: float = 0.15,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
    backend: str = "auto",
) -> Dict[Vertex, float]:
    """Compute random-walk-with-restart scores for every vertex.

    Parameters
    ----------
    graph:
        The bipartite graph to walk on.
    restart:
        The restart vertex ``q``.
    restart_prob:
        Probability of teleporting back to ``q`` at each step (``c`` in the
        original paper); must lie in ``(0, 1)``.
    max_iterations, tolerance:
        Power iteration stops when the L1 change drops below ``tolerance`` or
        after ``max_iterations`` rounds.
    backend:
        ``"dict"`` for the pure-python iteration, ``"csr"`` for the vectorised
        one over a frozen CSR adjacency, ``"auto"`` (default) to pick CSR on
        large graphs.  Both engines implement the same update rule and agree
        to float round-off.
    """
    _check_restart(graph, restart, restart_prob)
    if resolve_backend(backend, graph) == "csr":
        csr = CSRBipartiteGraph.freeze(graph)
        s_u, s_l = _csr_scores(csr, restart, restart_prob, max_iterations, tolerance)
        scores = {
            Vertex(Side.UPPER, label): float(s_u[i])
            for i, label in enumerate(csr.upper_labels)
        }
        scores.update(
            (Vertex(Side.LOWER, label), float(s_l[j]))
            for j, label in enumerate(csr.lower_labels)
        )
        return scores
    return _dict_scores(graph, restart, restart_prob, max_iterations, tolerance)


def rwr_edge_weights(
    graph: BipartiteGraph,
    restart: Optional[Vertex] = None,
    restart_prob: float = 0.15,
    weight_range: Tuple[float, float] = (1.0, 5.0),
    max_iterations: int = 50,
    backend: str = "auto",
) -> Dict[Tuple[Hashable, Hashable], float]:
    """Derive an edge-weight map from RWR relevance scores.

    If ``restart`` is omitted the highest-degree upper vertex is used, which
    mirrors the paper's use of a representative seed for weight generation;
    degree ties are broken deterministically on the label's ``repr``, so the
    same graph loaded in any edge order selects the same hub (and therefore
    derives the same weights and the same index).  Each edge ``(u, v)``
    receives ``score(u) + score(v)``, linearly rescaled to ``weight_range``.
    """
    if graph.is_empty():
        return {}
    if restart is None:
        top_degree = max(
            graph.degree(Side.UPPER, label) for label in graph.upper_labels()
        )
        hub = min(
            (
                label
                for label in graph.upper_labels()
                if graph.degree(Side.UPPER, label) == top_degree
            ),
            key=repr,
        )
        restart = Vertex(Side.UPPER, hub)
    scores = rwr_scores(
        graph,
        restart,
        restart_prob=restart_prob,
        max_iterations=max_iterations,
        backend=backend,
    )
    raw: Dict[Tuple[Hashable, Hashable], float] = {}
    for u, v, _ in graph.edges():
        raw[(u, v)] = scores[Vertex(Side.UPPER, u)] + scores[Vertex(Side.LOWER, v)]
    low, high = min(raw.values()), max(raw.values())
    target_low, target_high = weight_range
    span = high - low
    weights: Dict[Tuple[Hashable, Hashable], float] = {}
    for edge, value in raw.items():
        if span == 0.0:
            weights[edge] = (target_low + target_high) / 2.0
        else:
            weights[edge] = target_low + (value - low) / span * (target_high - target_low)
    return weights
