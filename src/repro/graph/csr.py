"""Frozen CSR (compressed sparse row) backend for bipartite graphs.

:class:`~repro.graph.bipartite.BipartiteGraph` stores adjacency as a
dict-of-dicts keyed by hashable labels, which is flexible and ideal for
incremental mutation but slow for whole-graph scans: every peeling pass walks
millions of dict entries and allocates a :class:`Vertex` namedtuple per touched
endpoint.  :class:`CSRBipartiteGraph` is the compact, immutable alternative:
vertex labels are interned into dense integer ids (``0..n-1`` per layer) and
each layer's adjacency is stored as the classic CSR triple

* ``indptr`` — ``int64`` array of length ``n + 1``; the neighbours of vertex
  ``i`` occupy the slice ``indptr[i]:indptr[i + 1]``;
* ``indices`` — ``int64`` array of the neighbour ids on the *other* layer;
* ``weights`` — ``float64`` array of the matching edge weights.

Both directions (upper→lower and lower→upper) are materialised so peeling can
cascade across layers without transposes.  The array-native kernels in
:mod:`repro.decomposition.csr_kernels` operate directly on these buffers.

``freeze`` / ``thaw`` bridge the two worlds: ``freeze`` snapshots a mutable
graph into a :class:`CSRBipartiteGraph` and ``thaw`` reconstructs an
equivalent :class:`BipartiteGraph` (same vertices, edges, weights and name).
The CSR form is strictly a *compute* representation — mutation always happens
on the dict graph, then the graph is re-frozen.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError, InvalidParameterError, VertexNotFoundError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex

__all__ = [
    "AUTO_CSR_EDGE_THRESHOLD",
    "BACKENDS",
    "CSRBipartiteGraph",
    "freeze",
    "thaw",
    "resolve_backend",
    "sorted_unique",
]

#: Edge count above which ``backend="auto"`` switches from dict to CSR.  Below
#: this size the O(m) freeze plus numpy call overhead eats the kernel savings.
AUTO_CSR_EDGE_THRESHOLD = 5000

#: The accepted values of every ``backend=`` parameter in the library.
BACKENDS = ("dict", "csr", "auto")


def resolve_backend(backend: str, graph: BipartiteGraph) -> str:
    """Resolve a ``backend=`` argument to a concrete ``"dict"`` or ``"csr"``.

    ``"auto"`` picks CSR when the graph has at least
    :data:`AUTO_CSR_EDGE_THRESHOLD` edges; explicit requests are honoured.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        if graph.num_edges >= AUTO_CSR_EDGE_THRESHOLD:
            return "csr"
        return "dict"
    return backend


class CSRBipartiteGraph:
    """An immutable integer-id CSR snapshot of a :class:`BipartiteGraph`.

    Labels keep their original layer-local iteration order: upper label ``i``
    of the source graph becomes upper id ``i``, and each id's neighbour slice
    preserves the source adjacency order.  This makes freezing deterministic,
    so two freezes of equal graphs produce identical arrays.
    """

    __slots__ = (
        "name",
        "upper_labels",
        "lower_labels",
        "_upper_ids",
        "_lower_ids",
        "u_indptr",
        "u_indices",
        "u_weights",
        "l_indptr",
        "l_indices",
        "l_weights",
        "_upper_handles",
        "_lower_handles",
        "_upper_handle_arr",
        "_lower_handle_arr",
        "_zero_offsets_proto",
        "_global_id_map",
    )

    def __init__(
        self,
        name: str,
        upper_labels: List[Hashable],
        lower_labels: List[Hashable],
        u_indptr: np.ndarray,
        u_indices: np.ndarray,
        u_weights: np.ndarray,
        l_indptr: np.ndarray,
        l_indices: np.ndarray,
        l_weights: np.ndarray,
    ) -> None:
        self.name = name
        self.upper_labels = upper_labels
        self.lower_labels = lower_labels
        self._upper_ids: Dict[Hashable, int] = {
            label: i for i, label in enumerate(upper_labels)
        }
        self._lower_ids: Dict[Hashable, int] = {
            label: i for i, label in enumerate(lower_labels)
        }
        self.u_indptr = u_indptr
        self.u_indices = u_indices
        self.u_weights = u_weights
        self.l_indptr = l_indptr
        self.l_indices = l_indices
        self.l_weights = l_weights
        self._upper_handles: Optional[List[Vertex]] = None
        self._lower_handles: Optional[List[Vertex]] = None
        self._upper_handle_arr = None
        self._lower_handle_arr = None
        self._zero_offsets_proto: Optional[Dict[Vertex, int]] = None
        self._global_id_map: Optional[Dict[Vertex, int]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def freeze(cls, graph: BipartiteGraph) -> "CSRBipartiteGraph":
        """Snapshot ``graph`` into its CSR form."""
        upper_labels = list(graph.upper_labels())
        lower_labels = list(graph.lower_labels())
        upper_ids = {label: i for i, label in enumerate(upper_labels)}
        lower_ids = {label: i for i, label in enumerate(lower_labels)}

        def build_layer(
            side: Side, labels: List[Hashable], other_ids: Dict[Hashable, int]
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            indptr = np.zeros(len(labels) + 1, dtype=np.int64)
            index_chunks: List[int] = []
            weight_chunks: List[float] = []
            for i, label in enumerate(labels):
                nbrs = graph.neighbors(side, label)
                indptr[i + 1] = indptr[i] + len(nbrs)
                index_chunks.extend(map(other_ids.__getitem__, nbrs.keys()))
                weight_chunks.extend(nbrs.values())
            indices = np.array(index_chunks, dtype=np.int64)
            weights = np.array(weight_chunks, dtype=np.float64)
            return indptr, indices, weights

        u_indptr, u_indices, u_weights = build_layer(Side.UPPER, upper_labels, lower_ids)
        l_indptr, l_indices, l_weights = build_layer(Side.LOWER, lower_labels, upper_ids)
        return cls(
            graph.name,
            upper_labels,
            lower_labels,
            u_indptr,
            u_indices,
            u_weights,
            l_indptr,
            l_indices,
            l_weights,
        )

    def thaw(self) -> BipartiteGraph:
        """Reconstruct an equivalent mutable :class:`BipartiteGraph`.

        The inverse of :meth:`freeze`: vertices come back in id order and
        every vertex lists its neighbours in its CSR slice order, on both
        layers — so a reopened snapshot's graph has the writer's orders, and
        an index built from it ties its entries exactly as the writer did.
        """
        upper_labels = list(self.upper_labels)
        lower_labels = list(self.lower_labels)
        upper_arr = np.fromiter(upper_labels, dtype=object, count=self.num_upper)
        lower_arr = np.fromiter(lower_labels, dtype=object, count=self.num_lower)
        return BipartiteGraph._from_mirrored_adjacency(
            _grouped_adjacency(
                upper_labels,
                np.diff(self.u_indptr).tolist(),
                lower_arr[self.u_indices].tolist(),
                self.u_weights.tolist(),
            ),
            _grouped_adjacency(
                lower_labels,
                np.diff(self.l_indptr).tolist(),
                upper_arr[self.l_indices].tolist(),
                self.l_weights.tolist(),
            ),
            num_edges=self.num_edges,
            name=self.name,
        )

    # ------------------------------------------------------------------ #
    # sizes / degrees
    # ------------------------------------------------------------------ #
    @property
    def num_upper(self) -> int:
        return len(self.upper_labels)

    @property
    def num_lower(self) -> int:
        return len(self.lower_labels)

    @property
    def num_vertices(self) -> int:
        return self.num_upper + self.num_lower

    @property
    def num_edges(self) -> int:
        return int(self.u_indices.shape[0])

    def upper_degrees(self) -> np.ndarray:
        """Degrees of all upper vertices as an ``int64`` array."""
        return np.diff(self.u_indptr)

    def lower_degrees(self) -> np.ndarray:
        """Degrees of all lower vertices as an ``int64`` array."""
        return np.diff(self.l_indptr)

    def layer(self, side: Side) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(indptr, indices, weights)`` for one layer."""
        if side is Side.UPPER:
            return self.u_indptr, self.u_indices, self.u_weights
        return self.l_indptr, self.l_indices, self.l_weights

    # ------------------------------------------------------------------ #
    # id <-> label translation
    # ------------------------------------------------------------------ #
    def vertex_id(self, vertex: Vertex) -> int:
        """Map a :class:`Vertex` handle to its dense integer id."""
        ids = self._upper_ids if vertex.side is Side.UPPER else self._lower_ids
        try:
            return ids[vertex.label]
        except KeyError as exc:
            raise VertexNotFoundError(vertex.side, vertex.label) from exc

    def has_vertex(self, side: Side, label: Hashable) -> bool:
        ids = self._upper_ids if side is Side.UPPER else self._lower_ids
        return label in ids

    def upper_handles(self) -> List[Vertex]:
        """Vertex handles of the upper layer, indexed by id (cached)."""
        if self._upper_handles is None:
            self._upper_handles = [
                Vertex(Side.UPPER, label) for label in self.upper_labels
            ]
        return self._upper_handles

    def lower_handles(self) -> List[Vertex]:
        """Vertex handles of the lower layer, indexed by id (cached)."""
        if self._lower_handles is None:
            self._lower_handles = [
                Vertex(Side.LOWER, label) for label in self.lower_labels
            ]
        return self._lower_handles

    def handles(self, side: Side) -> List[Vertex]:
        return self.upper_handles() if side is Side.UPPER else self.lower_handles()

    def upper_handle_array(self) -> np.ndarray:
        """Upper handles as a numpy object array (cached), for fancy indexing."""
        if self._upper_handle_arr is None:
            arr = np.empty(self.num_upper, dtype=object)
            arr[:] = self.upper_handles()
            self._upper_handle_arr = arr
        return self._upper_handle_arr

    def lower_handle_array(self) -> np.ndarray:
        """Lower handles as a numpy object array (cached), for fancy indexing."""
        if self._lower_handle_arr is None:
            arr = np.empty(self.num_lower, dtype=object)
            arr[:] = self.lower_handles()
            self._lower_handle_arr = arr
        return self._lower_handle_arr

    def handle_array(self, side: Side) -> np.ndarray:
        return (
            self.upper_handle_array()
            if side is Side.UPPER
            else self.lower_handle_array()
        )

    def global_handles(self) -> List[Vertex]:
        """Vertex handles of both layers in *global* id order (upper first).

        The global id space maps upper vertex ``i`` to ``i`` and lower vertex
        ``j`` to ``num_upper + j``; it is the vertex numbering used by the
        flat per-level index arrays of the array-backed query engine.
        """
        return self.upper_handles() + self.lower_handles()

    def global_id_map(self) -> Dict[Vertex, int]:
        """A cached ``{vertex handle: global id}`` map covering every vertex.

        Built once per snapshot so index construction can hand the mapping to
        the query engine instead of re-interning every label.
        """
        if self._global_id_map is None:
            self._global_id_map = {
                handle: gid for gid, handle in enumerate(self.global_handles())
            }
        return self._global_id_map

    def zero_offsets(self) -> Dict[Vertex, int]:
        """A fresh ``{vertex: 0}`` dict covering every vertex, upper layer first.

        The all-zero prototype is hashed once and then ``dict.copy()``-ed, so
        repeated offset-table materialisation (one table per index level)
        skips re-hashing every vertex handle.
        """
        if self._zero_offsets_proto is None:
            proto: Dict[Vertex, int] = dict.fromkeys(self.upper_handles(), 0)
            proto.update(dict.fromkeys(self.lower_handles(), 0))
            self._zero_offsets_proto = proto
        return self._zero_offsets_proto.copy()

    # ------------------------------------------------------------------ #
    # validation / cosmetics
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check CSR invariants; raises :class:`GraphError` on corruption."""
        if self.u_indptr[0] != 0 or self.l_indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self.u_indptr) < 0) or np.any(np.diff(self.l_indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if int(self.u_indptr[-1]) != self.u_indices.shape[0]:
            raise GraphError("upper indptr/indices length mismatch")
        if int(self.l_indptr[-1]) != self.l_indices.shape[0]:
            raise GraphError("lower indptr/indices length mismatch")
        if self.u_indices.shape[0] != self.l_indices.shape[0]:
            raise GraphError("layer edge counts disagree")
        if self.u_indices.size and (
            self.u_indices.min() < 0 or self.u_indices.max() >= self.num_lower
        ):
            raise GraphError("upper neighbour id out of range")
        if self.l_indices.size and (
            self.l_indices.min() < 0 or self.l_indices.max() >= self.num_upper
        ):
            raise GraphError("lower neighbour id out of range")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRBipartiteGraph{tag} |U|={self.num_upper} |L|={self.num_lower} "
            f"|E|={self.num_edges}>"
        )


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids`` in ascending order: ``np.unique(ids)``.

    Sorts a copy and keeps each element that differs from its predecessor.
    On numpy 2.x plain ``np.unique`` of an integer array takes a hash-based
    path that is several times slower than this sort on the id arrays that
    queries and maintenance dedupe, so the hot paths call this instead.
    """
    out = ids.copy()
    out.sort()
    if out.shape[0] <= 1:
        return out
    keep = np.empty(out.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _owner_runs(owners: np.ndarray, label_arr: np.ndarray) -> Tuple[List, List[int]]:
    """The labels and lengths of the contiguous runs of a non-empty ``owners``."""
    boundaries = np.flatnonzero(owners[1:] != owners[:-1]) + 1
    run_starts = np.concatenate(([0], boundaries))
    run_counts = np.diff(np.concatenate((run_starts, [owners.shape[0]])))
    return label_arr[owners[run_starts]].tolist(), run_counts.tolist()


def _grouped_adjacency(
    owner_labels: List[Hashable],
    counts: List[int],
    other_labels: List[Hashable],
    weights: List[float],
) -> Dict[Hashable, Dict[Hashable, float]]:
    """``{owner label: {other label: weight}}``, owners in the given order.

    Owner ``i`` takes the next ``counts[i]`` (other label, weight) pairs, a
    zero count giving it an empty dict; the inner dicts are built by
    draining one shared pair iterator with ``islice`` — no per-owner slice
    copies, no per-edge ``add_edge`` calls.
    """
    pairs = zip(other_labels, weights)
    return {
        label: dict(islice(pairs, count)) for label, count in zip(owner_labels, counts)
    }


def _graph_from_edge_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    upper_label_arr: np.ndarray,
    lower_label_arr: np.ndarray,
    name: str,
) -> BipartiteGraph:
    """Materialise a :class:`BipartiteGraph` from parallel edge-id arrays.

    ``src`` must list each upper id in one contiguous run (BFS expansion
    order, or CSR order), so the upper direction needs no sort; the mirror
    pays a single stable sort by lower id, so every lower vertex lists its
    neighbours in edge order.  Only vertices with an edge appear: uppers in
    run order, lowers by ascending id.
    """
    order = np.argsort(dst, kind="stable")
    upper_owners, upper_counts = _owner_runs(src, upper_label_arr)
    lower_owners, lower_counts = _owner_runs(dst[order], lower_label_arr)
    upper_adj = _grouped_adjacency(
        upper_owners, upper_counts, lower_label_arr[dst].tolist(), weight.tolist()
    )
    lower_adj = _grouped_adjacency(
        lower_owners,
        lower_counts,
        upper_label_arr[src[order]].tolist(),
        weight[order].tolist(),
    )
    return BipartiteGraph._from_mirrored_adjacency(
        upper_adj, lower_adj, num_edges=int(src.shape[0]), name=name
    )


def freeze(graph: BipartiteGraph) -> CSRBipartiteGraph:
    """Module-level alias of :meth:`CSRBipartiteGraph.freeze`."""
    return CSRBipartiteGraph.freeze(graph)


def thaw(csr: CSRBipartiteGraph) -> BipartiteGraph:
    """Module-level alias of :meth:`CSRBipartiteGraph.thaw`."""
    return csr.thaw()
