"""Significant (α,β)-community search algorithms (Section IV of the paper).

All algorithms take the (α,β)-community ``C_{α,β}(q)`` produced by an index
(or, for the baseline, the raw connected component of the query vertex) and
extract the significant (α,β)-community ``R``:

* :func:`~repro.search.peel.scs_peel` — Algorithm 4, iteratively removes the
  lightest edges.
* :func:`~repro.search.expand.scs_expand` — Algorithm 5, grows a subgraph from
  the heaviest edges with union-find and pruning rules.
* :func:`~repro.search.binary.scs_binary` — binary search over edge weights.
* :func:`~repro.search.baseline.scs_baseline` — index-free expansion over the
  whole connected component (the paper's ``SCS-Baseline``).

The dict-backed functions above are the *oracles*: peel, expand and binary
also have an array-native twin operating directly on the parallel edge arrays
a frozen index retrieves, without materialising a graph object —
:func:`repro.decomposition.csr_kernels.csr_significant_edges`.  The array
expand differs from Algorithm 5 in mechanism only: it sorts the edges by
descending weight once, validates weight-ordered prefixes (threshold graphs
``G≥w``) at ε-geometric checkpoints and bisects back to the smallest prefix
whose core keeps the query — no union-find, no peel, and no Lemma 7 or
saturation pruning, which only skip validations.  The answer is the query's
component of the (α,β)-core of ``G≥w*`` for the largest surviving weight
``w*`` either way.  The array binary search and the array peel are the
same kernel with ε = ∞.  The agreement suite asserts both produce
element-wise identical answers;
:meth:`repro.api.CommunitySearcher.significant_community` and the batch /
serving entry points route through the array twin whenever an array query
path is available.

``method="auto"`` resolves with :func:`resolve_scs_method`: peeling when the
thresholds are large relative to the graph's degeneracy δ (small search
space), expansion otherwise — every entry point (sequential, batch, serving
worker) shares this one rule so resolved methods never diverge between paths.
"""

from repro.search.baseline import scs_baseline
from repro.search.binary import scs_binary
from repro.search.expand import scs_expand
from repro.search.peel import scs_peel
from repro.search.result import SearchResult

__all__ = [
    "SearchResult",
    "resolve_scs_method",
    "scs_peel",
    "scs_expand",
    "scs_binary",
    "scs_baseline",
]


def resolve_scs_method(method: str, alpha: int, beta: int, delta: int) -> str:
    """Resolve ``"auto"`` to a concrete step-2 algorithm (paper Section VI).

    Expansion wins when the thresholds are small relative to the degeneracy δ
    (large search space, small answer); peeling wins for large thresholds.
    Concrete method names pass through unchanged.
    """
    if method != "auto":
        return method
    threshold_ratio = min(alpha, beta) / max(1, delta)
    return "peel" if threshold_ratio >= 0.5 else "expand"
