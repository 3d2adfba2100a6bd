"""Weighted bipartite graph substrate.

This subpackage provides the data structures and helpers that every other part
of the library builds on.  There are **two graph backends**:

* :class:`~repro.graph.bipartite.BipartiteGraph` — the mutable, label-level,
  dict-of-dicts graph used by all algorithms.  O(1) edge queries, O(deg)
  neighbourhood iteration, cheap incremental mutation.
* :class:`~repro.graph.csr.CSRBipartiteGraph` — a frozen CSR (compressed
  sparse row) snapshot with interned integer vertex ids and contiguous
  ``indptr`` / ``indices`` / ``weights`` arrays per layer.  It is the engine
  behind the vectorised peeling kernels
  (:mod:`repro.decomposition.csr_kernels`) that make core decomposition and
  index construction fast on large graphs.

``freeze(graph)`` / ``thaw(csr)`` (or the equivalent
``CSRBipartiteGraph.freeze`` / ``.thaw`` methods) convert between the two.
Algorithms never require callers to pick: every entry point that peels or
builds an index takes ``backend="dict" | "csr" | "auto"`` and ``"auto"``
freezes automatically above
:data:`~repro.graph.csr.AUTO_CSR_EDGE_THRESHOLD` edges.  Both backends are
guaranteed to produce identical results — ``tests/test_csr_agreement.py``
enforces this on randomized inputs.

Supporting modules:

* :mod:`~repro.graph.views` — subgraph extraction and connectivity helpers.
* :mod:`~repro.graph.generators` — synthetic graph generators.
* :mod:`~repro.graph.weights` — edge-weight models (AE / UF / SK / RW).
* :mod:`~repro.graph.rwr` — random walk with restart used to derive weights
  for unweighted datasets, as in the paper.
* :mod:`~repro.graph.io` — KONECT-style edge-list readers and writers.
"""

from repro.graph.bipartite import BipartiteGraph, Side, Vertex, lower, upper
from repro.graph.csr import (
    AUTO_CSR_EDGE_THRESHOLD,
    BACKENDS,
    CSRBipartiteGraph,
    freeze,
    resolve_backend,
    thaw,
)
from repro.graph.views import (
    connected_component,
    connected_components,
    edge_subgraph,
    induced_subgraph,
)

__all__ = [
    "BipartiteGraph",
    "CSRBipartiteGraph",
    "Side",
    "Vertex",
    "upper",
    "lower",
    "freeze",
    "thaw",
    "resolve_backend",
    "AUTO_CSR_EDGE_THRESHOLD",
    "BACKENDS",
    "connected_component",
    "connected_components",
    "edge_subgraph",
    "induced_subgraph",
]
