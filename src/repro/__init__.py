"""repro — significant (α,β)-community search on weighted bipartite graphs.

A from-scratch Python reproduction of *"Efficient and Effective Community
Search on Large-scale Bipartite Graphs"* (Wang et al., ICDE 2021): the
(α,β)-core machinery, the optimal community-retrieval indexes (``Iv``,
``Iα_bs``/``Iβ_bs``, ``I_δ``), the significant-community search algorithms
(``SCS-Peel``, ``SCS-Expand``, ``SCS-Binary``, ``SCS-Baseline``), the
comparison community models (bitruss, biclique, threshold) and the full
experiment harness that regenerates every table and figure of the paper's
evaluation at laptop scale.

Quickstart
----------
>>> from repro import CommunitySearcher, upper
>>> from repro.graph.generators import paper_example_graph
>>> searcher = CommunitySearcher(paper_example_graph())
>>> searcher.significant_community(upper("u3"), 2, 2).describe()
"significant (2,2)-community of U('u3'): 2 upper x 2 lower vertices, 4 edges, significance 13"
"""

import importlib
from typing import Any

from repro.exceptions import (
    DatasetError,
    EmptyCommunityError,
    GraphError,
    IndexConsistencyError,
    InvalidParameterError,
    ReproError,
    ServingError,
)

# The numpy-backed exports load on first access (PEP 562), so importing a
# subpackage that needs only the stdlib — the ``repro.analysis`` lint engine —
# never pulls in numpy.
_LAZY_EXPORTS = {
    "CommunitySearcher": "repro.api",
    "BipartiteGraph": "repro.graph.bipartite",
    "Side": "repro.graph.bipartite",
    "Vertex": "repro.graph.bipartite",
    "lower": "repro.graph.bipartite",
    "upper": "repro.graph.bipartite",
    "BasicIndex": "repro.index.basic_index",
    "BicoreIndex": "repro.index.bicore_index",
    "DegeneracyIndex": "repro.index.degeneracy_index",
    "DynamicDegeneracyIndex": "repro.index.maintenance",
    "online_community_query": "repro.index.queries",
    "scs_baseline": "repro.search.baseline",
    "scs_binary": "repro.search.binary",
    "scs_expand": "repro.search.expand",
    "scs_peel": "repro.search.peel",
    "SearchResult": "repro.search.result",
}


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph
    "BipartiteGraph",
    "Side",
    "Vertex",
    "upper",
    "lower",
    # facade
    "CommunitySearcher",
    "SearchResult",
    # indexes and queries
    "DegeneracyIndex",
    "DynamicDegeneracyIndex",
    "BicoreIndex",
    "BasicIndex",
    "online_community_query",
    # search algorithms
    "scs_peel",
    "scs_expand",
    "scs_binary",
    "scs_baseline",
    # errors
    "ReproError",
    "GraphError",
    "InvalidParameterError",
    "EmptyCommunityError",
    "IndexConsistencyError",
    "DatasetError",
    "ServingError",
]
