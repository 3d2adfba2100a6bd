"""In-process reference answers, as sets of labelled weighted edges.

Every served or published answer the benchmark checks is compared
element-wise with one of these, computed straight from the library.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from inputs import Query

EdgeSet = FrozenSet[Tuple[str, str, float]]


def to_batch(queries: Iterable[Query]) -> List[Tuple[object, int, int]]:
    from repro.graph.bipartite import Side, Vertex

    return [
        (Vertex(Side.UPPER if side == "upper" else Side.LOWER, label), alpha, beta)
        for side, label, alpha, beta in queries
    ]


def wire_edges(index, triple) -> EdgeSet:
    """A wire triple ``(upper ids, lower ids, weights)`` as labelled edges."""
    upper, lower = index.query_path().label_arrays()
    src, dst, weight = triple
    return frozenset(
        (upper[u], lower[v], float(w))
        for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist())
    )


def reply_edges(reply: dict) -> EdgeSet:
    return frozenset((u, v, float(w)) for u, v, w in reply.get("edges", ()))


def community(index, batch: List[Tuple[object, int, int]]) -> List[Optional[EdgeSet]]:
    """Community answers of a :func:`to_batch` batch (fresh memo)."""
    if hasattr(index, "batch_community_edges"):
        triples = index.batch_community_edges(batch, on_empty="none", cache={})
        return [None if t is None else wire_edges(index, t) for t in triples]
    graphs = index.batch_community(batch, on_empty="none")
    return [None if g is None else frozenset((u, v, float(w)) for u, v, w in g.edges()) for g in graphs]


def significant(index, batch: List[Tuple[object, int, int]]) -> List[Optional[EdgeSet]]:
    answers = index.batch_significant_edges(batch, method="auto", epsilon=2.0, on_empty="none", cache={})
    return [None if a is None else wire_edges(index, a[0]) for a in answers]


def summary_matches(reply: dict, expected: Optional[EdgeSet]) -> bool:
    """The counts a summary reply carries agree with the reference answer."""
    if not reply.get("ok"):
        return False
    if expected is None:
        return not reply.get("found")
    return (
        bool(reply.get("found"))
        and reply.get("num_edges") == len(expected)
        and reply.get("num_upper") == len({u for u, _, _ in expected})
        and reply.get("num_lower") == len({v for _, v, _ in expected})
    )
