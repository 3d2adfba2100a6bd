"""Shared interface and bookkeeping for the community-retrieval indexes."""

from __future__ import annotations

import abc
import contextlib
import gc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.index.traversal import ArrayQueryPath

from repro.exceptions import EmptyCommunityError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Vertex

__all__ = [
    "IndexStats",
    "CommunityIndex",
    "gc_paused",
    "BatchQuery",
    "ON_EMPTY_POLICIES",
    "apply_batch_policy",
    "check_on_empty",
]

#: One retrieval of a batch: ``(query vertex, alpha, beta)``.
BatchQuery = Tuple[Vertex, int, int]

#: Accepted values of every ``on_empty=`` parameter of the batch query APIs:
#: ``"raise"`` propagates the first :class:`EmptyCommunityError` (the
#: sequential semantics), ``"none"`` keeps a ``None`` placeholder so results
#: stay aligned with the input order, ``"skip"`` silently drops the query.
ON_EMPTY_POLICIES = ("raise", "none", "skip")


def check_on_empty(on_empty: str) -> None:
    """Validate an ``on_empty=`` batch policy argument."""
    if on_empty not in ON_EMPTY_POLICIES:
        raise InvalidParameterError(
            f"unknown on_empty policy {on_empty!r}; expected one of {ON_EMPTY_POLICIES}"
        )


def apply_batch_policy(
    queries: "Iterable[BatchQuery]",
    answer_one: "Callable[[Vertex, int, int], object]",
    on_empty: str,
) -> List:
    """Answer every ``(query, alpha, beta)`` triple under one empty-policy.

    The single implementation of the ``on_empty`` semantics shared by every
    batch entry point: ``answer_one(query, alpha, beta)`` produces one
    answer, an :class:`EmptyCommunityError` is propagated (``"raise"``),
    recorded as ``None`` (``"none"``) or dropped (``"skip"``); any other
    exception always propagates.
    """
    check_on_empty(on_empty)
    results: List = []
    for query, alpha, beta in queries:
        try:
            results.append(answer_one(query, alpha, beta))
        except EmptyCommunityError:
            if on_empty == "raise":
                raise
            if on_empty == "none":
                results.append(None)
    return results


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection for the duration of a bulk build.

    Index construction allocates millions of long-lived acyclic objects
    (entry tuples, vertex handles, per-level dicts); letting the generational
    collector repeatedly scan them can more than double the build time on
    large graphs.  The caller's GC state is restored on exit.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class IndexStats:
    """Size and build-time statistics reported by every index.

    ``entries`` counts the atomic stored items (per-vertex offsets for the
    bicore index, adjacency entries for the edge-level indexes); it is the
    quantity Figure 11 of the paper compares across indexes.
    """

    name: str
    entries: int = 0
    adjacency_lists: int = 0
    build_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        data: Dict[str, float] = {
            "entries": self.entries,
            "adjacency_lists": self.adjacency_lists,
            "build_seconds": self.build_seconds,
        }
        data.update(self.extra)
        return data


class CommunityIndex(abc.ABC):
    """Abstract base class of all (α,β)-community indexes.

    Every index is built once for a graph and then answers
    :meth:`community` queries: the connected component of a query vertex in
    the (α,β)-core, returned as a weighted edge subgraph.
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> BipartiteGraph:
        """The graph this index was built for."""
        return self._graph

    @abc.abstractmethod
    def community(self, query: Vertex, alpha: int, beta: int) -> BipartiteGraph:
        """Return ``C_{α,β}(query)``.

        Raises :class:`~repro.exceptions.EmptyCommunityError` when the query
        vertex is not contained in the (α,β)-core.
        """

    def batch_community(
        self,
        queries: Iterable[BatchQuery],
        on_empty: str = "raise",
    ) -> List[Optional[BipartiteGraph]]:
        """Answer a stream of ``(query, alpha, beta)`` triples in input order.

        Generic implementation: one :meth:`community` call per query.
        Subclasses with an array-backed query path override this to amortise
        index freezing across the stream.  ``on_empty`` decides what happens
        to queries outside their (α,β)-core: ``"raise"`` (default, sequential
        semantics), ``"none"`` (aligned ``None`` placeholder) or ``"skip"``
        (drop the query from the output).
        """
        return apply_batch_policy(queries, self.community, on_empty)

    def query_path(self) -> "ArrayQueryPath":
        """The array-backed query engine of this index.

        Lazily creates and caches one
        :class:`~repro.index.traversal.ArrayQueryPath` over the indexed
        graph's vertices; subclasses that build level arrays natively (the
        CSR construction backend) pre-populate ``self._array_path`` instead.
        """
        path = getattr(self, "_array_path", None)
        if path is None:
            from repro.index.traversal import ArrayQueryPath

            path = ArrayQueryPath(
                self._graph.upper_labels(), self._graph.lower_labels()
            )
            self._array_path = path
        return path

    @abc.abstractmethod
    def stats(self) -> IndexStats:
        """Return size / build-time statistics for reporting."""
