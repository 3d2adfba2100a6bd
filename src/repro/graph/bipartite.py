"""The weighted bipartite graph data structure.

The graph stores two disjoint vertex layers, the *upper* layer ``U(G)`` and the
*lower* layer ``L(G)``, and a set of weighted edges between them.  Vertices on
each layer are identified by arbitrary hashable labels; the same label may be
used on both layers without clashing (a user id ``3`` and a movie id ``3`` are
different vertices).

Algorithms in this package refer to a vertex with a :class:`Vertex` handle, a
named tuple ``(side, label)``; :func:`upper` and :func:`lower` are convenience
constructors.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidParameterError,
    VertexNotFoundError,
)

__all__ = ["Side", "Vertex", "BipartiteGraph", "upper", "lower"]


class Side(enum.Enum):
    """The two layers of a bipartite graph."""

    UPPER = "upper"
    LOWER = "lower"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; it runs in C, where ``Enum.__hash__`` costs
    # a Python frame on every ``Vertex`` dict lookup.
    __hash__ = object.__hash__

    @property
    def other(self) -> "Side":
        """Return the opposite layer."""
        return Side.LOWER if self is Side.UPPER else Side.UPPER

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Side.{self.name}"


class Vertex(NamedTuple):
    """A handle identifying one vertex: its layer plus its label."""

    side: Side
    label: Hashable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        prefix = "U" if self.side is Side.UPPER else "L"
        return f"{prefix}({self.label!r})"


def upper(label: Hashable) -> Vertex:
    """Return the handle of the upper-layer vertex with ``label``."""
    return Vertex(Side.UPPER, label)


def lower(label: Hashable) -> Vertex:
    """Return the handle of the lower-layer vertex with ``label``."""
    return Vertex(Side.LOWER, label)


EdgeTuple = Tuple[Hashable, Hashable, float]


class BipartiteGraph:
    """A mutable, undirected, weighted bipartite graph.

    Edges always connect an upper-layer vertex to a lower-layer vertex and
    carry a numeric weight (default ``1.0``).  Parallel edges are not allowed;
    re-adding an existing edge overwrites its weight.

    The adjacency structure is a dict-of-dicts per layer, which gives O(1)
    expected-time edge queries and O(deg) neighbourhood iteration — the access
    pattern every peeling / traversal algorithm in the paper relies on.
    """

    __slots__ = ("_adj", "_num_edges", "name")

    def __init__(self, name: str = "") -> None:
        self._adj: Dict[Side, Dict[Hashable, Dict[Hashable, float]]] = {
            Side.UPPER: {},
            Side.LOWER: {},
        }
        self._num_edges = 0
        self.name = name

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable] | EdgeTuple],
        name: str = "",
    ) -> "BipartiteGraph":
        """Build a graph from ``(upper, lower)`` or ``(upper, lower, weight)`` tuples.

        Raises :class:`GraphError` for malformed edge tuples (wrong arity or
        not a sequence) instead of leaking an opaque unpacking ``ValueError``.
        """
        graph = cls(name=name)
        for edge in edges:
            # A bare string would "unpack" into characters; reject it early.
            if isinstance(edge, (str, bytes)):
                raise GraphError(
                    f"edge {edge!r} is not a (upper, lower[, weight]) tuple"
                )
            try:
                arity = len(edge)
            except TypeError as exc:
                raise GraphError(
                    f"edge {edge!r} is not a (upper, lower[, weight]) tuple"
                ) from exc
            if arity == 2:
                u, v = edge  # type: ignore[misc]
                graph.add_edge(u, v)
            elif arity == 3:
                u, v, w = edge  # type: ignore[misc]
                graph.add_edge(u, v, w)
            else:
                raise GraphError(
                    f"edge tuple must have 2 or 3 elements, got {arity}: {edge!r}"
                )
        return graph

    @classmethod
    def _from_mirrored_adjacency(
        cls,
        upper_adj: Dict[Hashable, Dict[Hashable, float]],
        lower_adj: Dict[Hashable, Dict[Hashable, float]],
        num_edges: int,
        name: str = "",
    ) -> "BipartiteGraph":
        """Adopt pre-built mirrored adjacency dicts without per-edge checks.

        Internal fast path used by the array-backed query engine, which
        assembles both adjacency directions from sorted edge arrays at C
        speed.  The caller guarantees that ``upper_adj`` and ``lower_adj``
        describe the same ``num_edges`` weighted edges.
        """
        graph = cls(name=name)
        graph._adj[Side.UPPER] = upper_adj
        graph._adj[Side.LOWER] = lower_adj
        graph._num_edges = num_edges
        return graph

    def copy(self, name: Optional[str] = None) -> "BipartiteGraph":
        """Return a deep copy of the graph (labels are shared, structure is not)."""
        clone = BipartiteGraph(name=self.name if name is None else name)
        for side in (Side.UPPER, Side.LOWER):
            clone._adj[side] = {
                label: dict(nbrs) for label, nbrs in self._adj[side].items()
            }
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, side: Side, label: Hashable) -> Vertex:
        """Add an isolated vertex (no-op if it already exists)."""
        self._adj[side].setdefault(label, {})
        return Vertex(side, label)

    def add_edge(self, upper_label: Hashable, lower_label: Hashable, weight: float = 1.0) -> None:
        """Add (or re-weight) the edge between ``upper_label`` and ``lower_label``.

        A NaN weight is rejected: it compares false with every threshold, so
        significant search could never order it.
        """
        if weight != weight:
            raise InvalidParameterError(
                f"edge ({upper_label!r}, {lower_label!r}) has a NaN weight"
            )
        upper_nbrs = self._adj[Side.UPPER].setdefault(upper_label, {})
        lower_nbrs = self._adj[Side.LOWER].setdefault(lower_label, {})
        if lower_label not in upper_nbrs:
            self._num_edges += 1
        upper_nbrs[lower_label] = weight
        lower_nbrs[upper_label] = weight

    def remove_edge(self, upper_label: Hashable, lower_label: Hashable) -> float:
        """Remove an edge and return its weight.

        Raises :class:`EdgeNotFoundError` if the edge does not exist.  Endpoint
        vertices are kept even if they become isolated.
        """
        try:
            weight = self._adj[Side.UPPER][upper_label].pop(lower_label)
        except KeyError as exc:
            raise EdgeNotFoundError(upper_label, lower_label) from exc
        del self._adj[Side.LOWER][lower_label][upper_label]
        self._num_edges -= 1
        return weight

    def remove_vertex(self, side: Side, label: Hashable) -> None:
        """Remove a vertex and all its incident edges."""
        try:
            nbrs = self._adj[side].pop(label)
        except KeyError as exc:
            raise VertexNotFoundError(side, label) from exc
        other = side.other
        for nbr in nbrs:
            del self._adj[other][nbr][label]
        self._num_edges -= len(nbrs)

    def discard_isolated(self) -> int:
        """Drop all vertices with no incident edge; return how many were dropped."""
        dropped = 0
        for side in (Side.UPPER, Side.LOWER):
            isolated = [label for label, nbrs in self._adj[side].items() if not nbrs]
            for label in isolated:
                del self._adj[side][label]
            dropped += len(isolated)
        return dropped

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def has_vertex(self, side: Side, label: Hashable) -> bool:
        return label in self._adj[side]

    def has_edge(self, upper_label: Hashable, lower_label: Hashable) -> bool:
        nbrs = self._adj[Side.UPPER].get(upper_label)
        return nbrs is not None and lower_label in nbrs

    def weight(self, upper_label: Hashable, lower_label: Hashable) -> float:
        """Return the weight of an edge, raising if it is absent."""
        try:
            return self._adj[Side.UPPER][upper_label][lower_label]
        except KeyError as exc:
            raise EdgeNotFoundError(upper_label, lower_label) from exc

    def neighbors(self, side: Side, label: Hashable) -> Mapping[Hashable, float]:
        """Return a read-only view ``{neighbour_label: weight}`` for one vertex."""
        try:
            return self._adj[side][label]
        except KeyError as exc:
            raise VertexNotFoundError(side, label) from exc

    def neighbors_of(self, vertex: Vertex) -> Mapping[Hashable, float]:
        """Vertex-handle variant of :meth:`neighbors`."""
        return self.neighbors(vertex.side, vertex.label)

    def degree(self, side: Side, label: Hashable) -> int:
        return len(self.neighbors(side, label))

    def degree_of(self, vertex: Vertex) -> int:
        return len(self.neighbors(vertex.side, vertex.label))

    def degrees(self, side: Side) -> Dict[Hashable, int]:
        """Return the degree of every vertex on ``side``."""
        return {label: len(nbrs) for label, nbrs in self._adj[side].items()}

    def max_degree(self, side: Side) -> int:
        """Return the largest degree on ``side`` (0 for an empty layer)."""
        layer = self._adj[side]
        if not layer:
            return 0
        return max(len(nbrs) for nbrs in layer.values())

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def labels(self, side: Side) -> Iterator[Hashable]:
        return iter(self._adj[side])

    def upper_labels(self) -> Iterator[Hashable]:
        return iter(self._adj[Side.UPPER])

    def lower_labels(self) -> Iterator[Hashable]:
        return iter(self._adj[Side.LOWER])

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over every vertex handle, upper layer first."""
        for label in self._adj[Side.UPPER]:
            yield Vertex(Side.UPPER, label)
        for label in self._adj[Side.LOWER]:
            yield Vertex(Side.LOWER, label)

    def edges(self) -> Iterator[EdgeTuple]:
        """Iterate over ``(upper_label, lower_label, weight)`` triples."""
        for u, nbrs in self._adj[Side.UPPER].items():
            for v, w in nbrs.items():
                yield (u, v, w)

    def edge_weights(self) -> Iterator[float]:
        for nbrs in self._adj[Side.UPPER].values():
            yield from nbrs.values()

    # ------------------------------------------------------------------ #
    # sizes / aggregates
    # ------------------------------------------------------------------ #
    @property
    def num_upper(self) -> int:
        return len(self._adj[Side.UPPER])

    @property
    def num_lower(self) -> int:
        return len(self._adj[Side.LOWER])

    @property
    def num_vertices(self) -> int:
        return self.num_upper + self.num_lower

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def size(self) -> int:
        """The paper's ``size(G)``: the number of edges."""
        return self._num_edges

    def is_empty(self) -> bool:
        return self._num_edges == 0

    def significance(self) -> float:
        """The paper's ``f(G)``: the minimum edge weight (Definition 4).

        Raises :class:`GraphError` on an edgeless graph, for which the weight
        is undefined.
        """
        if self._num_edges == 0:
            raise GraphError("the weight f(G) of an edgeless graph is undefined")
        return min(self.edge_weights())

    def max_weight(self) -> float:
        if self._num_edges == 0:
            raise GraphError("the maximum weight of an edgeless graph is undefined")
        return max(self.edge_weights())

    def total_weight(self) -> float:
        return sum(self.edge_weights())

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def connected_component_vertices(self, start: Vertex) -> Set[Vertex]:
        """Return the vertex set of the connected component containing ``start``."""
        if not self.has_vertex(start.side, start.label):
            raise VertexNotFoundError(start.side, start.label)
        seen: Set[Vertex] = {start}
        queue: deque[Vertex] = deque([start])
        while queue:
            side, label = queue.popleft()
            other = side.other
            for nbr in self._adj[side][label]:
                handle = Vertex(other, nbr)
                if handle not in seen:
                    seen.add(handle)
                    queue.append(handle)
        return seen

    def is_connected(self) -> bool:
        """True if the graph is non-empty and forms a single connected component."""
        first: Optional[Vertex] = next(self.vertices(), None)
        if first is None:
            return False
        return len(self.connected_component_vertices(first)) == self.num_vertices

    # ------------------------------------------------------------------ #
    # validation / comparison
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check internal consistency; raises :class:`GraphError` on corruption."""
        forward = sum(len(nbrs) for nbrs in self._adj[Side.UPPER].values())
        backward = sum(len(nbrs) for nbrs in self._adj[Side.LOWER].values())
        if forward != backward or forward != self._num_edges:
            raise GraphError(
                f"edge bookkeeping mismatch: forward={forward}, "
                f"backward={backward}, counter={self._num_edges}"
            )
        for u, nbrs in self._adj[Side.UPPER].items():
            for v, w in nbrs.items():
                mirror = self._adj[Side.LOWER].get(v, {}).get(u)
                if mirror != w:
                    raise GraphError(f"asymmetric edge ({u!r}, {v!r})")

    def edge_set(self) -> Set[Tuple[Hashable, Hashable]]:
        """Return the set of ``(upper, lower)`` pairs (weights ignored)."""
        return {(u, v) for u, v, _ in self.edges()}

    def same_structure(self, other: "BipartiteGraph") -> bool:
        """True when both graphs have identical vertices, edges and weights."""
        if (
            self.num_edges != other.num_edges
            or self.num_upper != other.num_upper
            or self.num_lower != other.num_lower
        ):
            return False
        for side in (Side.UPPER, Side.LOWER):
            if self._adj[side].keys() != other._adj[side].keys():
                return False
        for u, v, w in self.edges():
            if not other.has_edge(u, v) or other.weight(u, v) != w:
                return False
        return True

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: object) -> bool:
        if isinstance(vertex, Vertex):
            return self.has_vertex(vertex.side, vertex.label)
        return False

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<BipartiteGraph{tag} |U|={self.num_upper} |L|={self.num_lower} "
            f"|E|={self.num_edges}>"
        )

    def summary(self) -> Dict[str, float]:
        """Return simple descriptive statistics used by the dataset registry."""
        stats: Dict[str, float] = {
            "num_upper": self.num_upper,
            "num_lower": self.num_lower,
            "num_edges": self.num_edges,
            "max_upper_degree": self.max_degree(Side.UPPER),
            "max_lower_degree": self.max_degree(Side.LOWER),
        }
        if self.num_edges:
            weights: List[float] = list(self.edge_weights())
            stats["min_weight"] = min(weights)
            stats["max_weight"] = max(weights)
            stats["mean_weight"] = sum(weights) / len(weights)
        return stats
