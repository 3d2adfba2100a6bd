"""(α,β)-core decomposition machinery.

* :mod:`~repro.decomposition.abcore` — peeling computation of the (α,β)-core.
* :mod:`~repro.decomposition.offsets` — α-offsets / β-offsets (Definition 6).
* :mod:`~repro.decomposition.kcore` — unipartite k-core decomposition used to
  obtain the degeneracy.
* :mod:`~repro.decomposition.degeneracy` — the degeneracy δ (Definition 7).
* :mod:`~repro.decomposition.csr_kernels` — vectorised CSR twins of the
  peeling / offset / degeneracy kernels, selected via the ``backend=``
  parameter of the functions above (not imported here: the dispatchers load
  it on first CSR use).
"""

from repro.decomposition.abcore import abcore_subgraph, abcore_vertices
from repro.decomposition.degeneracy import degeneracy
from repro.decomposition.kcore import core_numbers
from repro.decomposition.offsets import alpha_offsets, beta_offsets, max_alpha, max_beta

__all__ = [
    "abcore_vertices",
    "abcore_subgraph",
    "alpha_offsets",
    "beta_offsets",
    "max_alpha",
    "max_beta",
    "core_numbers",
    "degeneracy",
]
