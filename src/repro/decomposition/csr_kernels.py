"""Array-native peeling kernels over :class:`~repro.graph.csr.CSRBipartiteGraph`.

These are the CSR counterparts of the dict-backend algorithms in
:mod:`repro.decomposition.abcore`, :mod:`repro.decomposition.offsets` and
:mod:`repro.decomposition.degeneracy`.  They share one building block: a
*vectorised frontier cascade*.  Instead of popping vertices one at a time off
a queue or lazy heap, each round removes the entire current frontier at once,
decrements neighbour degrees with a single ``bincount`` (or ``subtract.at``
for sparse frontiers) and derives the next frontier from the set of touched
vertices — so the per-vertex Python bookkeeping of the dict backend collapses
into a handful of numpy calls per cascade depth.

All kernels return plain numpy arrays indexed by the dense vertex ids of the
frozen graph; translating back to :class:`~repro.graph.bipartite.Vertex`
handles is the caller's job (see the ``backend=`` dispatchers).  Every kernel
is semantically identical to its dict twin — the cross-backend agreement suite
(``tests/test_csr_agreement.py``) asserts exact equality on randomized inputs.

The last section holds step 2 of a query, significant search
(:func:`csr_significant_edges`), over the edge arrays of one retrieved
community.  Peeling, binary search and expansion share one kernel with no
per-edge Python loop: it validates weight-ordered prefixes with whole-array
core passes instead of growing Algorithm 5's union-find edge by edge (see
:func:`_expand_over_edges` for how that differs from the paper and why the
answers do not); peeling and binary search are its ε = ∞ schedule.
``tests/test_scs_agreement.py`` asserts peel, expand and binary against the
dict ``scs_*`` oracles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import Side
from repro.graph.csr import CSRBipartiteGraph, sorted_unique
from repro.utils.validation import check_epsilon, check_thresholds

__all__ = [
    "SCS_EDGE_METHODS",
    "csr_abcore_masks",
    "csr_degeneracy",
    "csr_offsets_fixed_primary",
    "csr_region_offsets_fixed_primary",
    "csr_significant_edges",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: The step-2 methods :func:`csr_significant_edges` runs over edge arrays
#: (``"baseline"`` is graph-based and stays with the dict ``scs_*`` routines).
SCS_EDGE_METHODS = ("peel", "expand", "binary")


def _expand_neighbors(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Concatenate the CSR neighbour slices of ``verts`` (with multiplicity)."""
    if verts.size == 1:
        v = int(verts[0])
        return indices[indptr[v] : indptr[v + 1]]
    counts = indptr[verts + 1] - indptr[verts]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    starts = indptr[verts]
    # Positions of each slice inside the concatenated output.
    slice_offsets = np.cumsum(counts) - counts
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - slice_offsets, counts)
    return indices[flat]


def _violators(touched: np.ndarray, alive: np.ndarray, degrees: np.ndarray, threshold: int) -> np.ndarray:
    """Deduplicated, currently-alive vertices of ``touched`` below ``threshold``.

    Filters before deduplicating (violators are usually a small fraction of
    the touched frontier) and dedups with :func:`sorted_unique`, which beats
    ``np.unique``'s machinery on the small arrays cascades produce.
    """
    cand = touched[alive[touched] & (degrees[touched] < threshold)]
    if cand.size <= 1:
        return cand
    return sorted_unique(cand)


def _decrement(degrees: np.ndarray, touched: np.ndarray) -> None:
    """``degrees[v] -= multiplicity of v in touched`` for every touched vertex."""
    if touched.size == 0:
        return
    # bincount is O(n + t); ufunc.at is O(t) with a bigger constant.  Switch on
    # frontier density so both the "one huge wave" and the "long thin chain"
    # cascade shapes stay cheap.
    if touched.size * 16 >= degrees.shape[0]:
        degrees -= np.bincount(touched, minlength=degrees.shape[0])
    else:
        np.subtract.at(degrees, touched, 1)


def _cascade(
    csr: CSRBipartiteGraph,
    alive_u: np.ndarray,
    alive_l: np.ndarray,
    deg_u: np.ndarray,
    deg_l: np.ndarray,
    thr_u: int,
    thr_l: int,
    seeds_u: np.ndarray,
    seeds_l: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Remove ``seeds`` plus everything forced out by the degree thresholds.

    ``alive_*`` and ``deg_*`` are mutated in place; degrees of removed
    vertices become meaningless (exactly like the dict-backend peeling).
    Returns the removed vertex ids per layer, in removal-wave order.
    """
    removed_u = []
    removed_l = []
    while seeds_u.size or seeds_l.size:
        if seeds_u.size:
            alive_u[seeds_u] = False
            removed_u.append(seeds_u)
        if seeds_l.size:
            alive_l[seeds_l] = False
            removed_l.append(seeds_l)
        touched_l = _expand_neighbors(csr.u_indptr, csr.u_indices, seeds_u)
        touched_u = _expand_neighbors(csr.l_indptr, csr.l_indices, seeds_l)
        _decrement(deg_l, touched_l)
        _decrement(deg_u, touched_u)
        seeds_l = _violators(touched_l, alive_l, deg_l, thr_l) if touched_l.size else _EMPTY
        seeds_u = _violators(touched_u, alive_u, deg_u, thr_u) if touched_u.size else _EMPTY
    cat_u = np.concatenate(removed_u) if removed_u else _EMPTY
    cat_l = np.concatenate(removed_l) if removed_l else _EMPTY
    return cat_u, cat_l


def csr_abcore_masks(
    csr: CSRBipartiteGraph, alpha: int, beta: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Boolean membership masks of the (α,β)-core, per layer.

    ``masks[0][i]`` is True when upper vertex ``i`` survives the peeling;
    symmetric for the lower layer.
    """
    deg_u = csr.upper_degrees().copy()
    deg_l = csr.lower_degrees().copy()
    alive_u = np.ones(csr.num_upper, dtype=bool)
    alive_l = np.ones(csr.num_lower, dtype=bool)
    seeds_u = np.flatnonzero(deg_u < alpha)
    seeds_l = np.flatnonzero(deg_l < beta)
    _cascade(csr, alive_u, alive_l, deg_u, deg_l, alpha, beta, seeds_u, seeds_l)
    return alive_u, alive_l


def csr_degeneracy(csr: CSRBipartiteGraph) -> int:
    """δ: the largest τ with a non-empty (τ,τ)-core (0 for an edgeless graph).

    Peels at τ = 1, 2, … over the *same* degree arrays — each round reuses the
    residual (τ-1,τ-1)-core, so total work is O(δ·n + m) like the bin-sort
    decomposition, but with whole-frontier numpy steps.
    """
    deg_u = csr.upper_degrees().copy()
    deg_l = csr.lower_degrees().copy()
    alive_u = np.ones(csr.num_upper, dtype=bool)
    alive_l = np.ones(csr.num_lower, dtype=bool)
    tau = 0
    while bool(alive_u.any()) or bool(alive_l.any()):
        tau += 1
        seeds_u = np.flatnonzero(alive_u & (deg_u < tau))
        seeds_l = np.flatnonzero(alive_l & (deg_l < tau))
        _cascade(csr, alive_u, alive_l, deg_u, deg_l, tau, tau, seeds_u, seeds_l)
    return max(tau - 1, 0)


def csr_offsets_fixed_primary(
    csr: CSRBipartiteGraph, primary_side: Side, threshold: int
) -> Tuple[np.ndarray, np.ndarray]:
    """α-offsets (``primary_side=UPPER``) or β-offsets (``LOWER``) as arrays.

    Returns ``(upper_offsets, lower_offsets)``: for every vertex, the largest
    secondary threshold under which it survives together with the fixed
    primary ``threshold`` — the CSR twin of
    :func:`repro.decomposition.offsets._offsets_for_fixed_primary`.

    Contract: per-vertex largest secondary threshold survived together with the fixed primary threshold; removed vertices keep offset 0.
    """
    deg_u = csr.upper_degrees().copy()
    deg_l = csr.lower_degrees().copy()
    alive_u = np.ones(csr.num_upper, dtype=bool)
    alive_l = np.ones(csr.num_lower, dtype=bool)
    off_u = np.zeros(csr.num_upper, dtype=np.int64)
    off_l = np.zeros(csr.num_lower, dtype=np.int64)

    if primary_side is Side.UPPER:
        thr_u, thr_l = threshold, 1
    else:
        thr_u, thr_l = 1, threshold

    # Phase 1: reduce to the (threshold, 1)-core; dropped vertices keep 0.
    seeds_u = np.flatnonzero(deg_u < thr_u)
    seeds_l = np.flatnonzero(deg_l < thr_l)
    _cascade(csr, alive_u, alive_l, deg_u, deg_l, thr_u, thr_l, seeds_u, seeds_l)

    alive_sec, deg_sec = (
        (alive_l, deg_l) if primary_side is Side.UPPER else (alive_u, deg_u)
    )

    # Phase 2: peel the secondary layer level by level.  Everything removed
    # while the peeling target is ``level + 1`` has offset ``level``.  The
    # alive id set is carried across iterations and re-filtered instead of
    # re-scanning the full layer at every level.
    alive_ids = np.flatnonzero(alive_sec)
    level = 1
    while alive_ids.size:
        alive_ids = alive_ids[alive_sec[alive_ids]]
        if alive_ids.size == 0:
            break
        alive_degrees = deg_sec[alive_ids]
        min_degree = int(alive_degrees.min())
        level = max(level, min_degree)
        target = level + 1
        seeds_sec = alive_ids[alive_degrees < target]
        if primary_side is Side.UPPER:
            removed_u, removed_l = _cascade(
                csr, alive_u, alive_l, deg_u, deg_l, threshold, target, _EMPTY, seeds_sec
            )
        else:
            removed_u, removed_l = _cascade(
                csr, alive_u, alive_l, deg_u, deg_l, target, threshold, seeds_sec, _EMPTY
            )
        off_u[removed_u] = level
        off_l[removed_l] = level
        level = target
    return off_u, off_l


#: "No further event": larger than any degree or offset.
_NEVER = int(np.iinfo(np.int64).max)


class _ExternalSupports:
    """External support entries of one layer, consumed in offset order.

    Each entry ``(owner, offset)`` says: the region vertex ``owner`` has one
    neighbour *outside* the region whose old offset at the processed level is
    ``offset`` — that neighbour keeps supporting ``owner`` exactly while the
    secondary peeling target stays ``<= offset``.  Entries are sorted by
    offset once; :meth:`drop_below` consumes the prefix that expires when the
    target rises and returns the owners whose degrees must drop.
    """

    __slots__ = ("owners", "offsets", "cursor")

    def __init__(self, owners: np.ndarray, offsets: np.ndarray) -> None:
        owners = np.asarray(owners, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        keep = offsets >= 1  # an offset-0 neighbour never supports anyone
        order = np.argsort(offsets[keep], kind="stable")
        self.owners = owners[keep][order]
        self.offsets = offsets[keep][order]
        self.cursor = 0

    def next_expiry(self) -> int:
        """Smallest offset still supporting anyone (:data:`_NEVER` when exhausted)."""
        if self.cursor >= self.offsets.shape[0]:
            return _NEVER
        return int(self.offsets[self.cursor])

    def drop_below(self, target: int) -> np.ndarray:
        """Owners of the entries that stop counting once the target is ``target``."""
        end = int(self.offsets.searchsorted(target, side="left"))
        dropped = self.owners[self.cursor : end]
        self.cursor = end
        return dropped


def csr_region_offsets_fixed_primary(
    csr: CSRBipartiteGraph,
    ext_owner_u: np.ndarray,
    ext_offset_u: np.ndarray,
    ext_owner_l: np.ndarray,
    ext_offset_l: np.ndarray,
    primary_side: Side,
    threshold: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets of a *region* sub-CSR with the rest of the graph frozen.

    ``csr`` holds only the edges internal to the candidate region (the paper's
    S⁺/S⁻ set around an updated edge); every edge leaving the region is
    represented by one external entry ``(owner id, old offset of the outside
    neighbour at this level)``.  Because a vertex belongs to the (τ,β)-core
    exactly when its offset at level τ is ≥ β, an outside neighbour supports
    its region owner for every secondary target up to that old offset — so as
    long as no boundary vertex's offset actually changes (which the caller
    verifies afterwards), peeling the region against these frozen supports
    reproduces exactly the offsets a whole-graph pass would compute.

    The structure mirrors :func:`csr_offsets_fixed_primary`; the one extra
    move is that every rise of the secondary target first expires the external
    entries below it (a plain degree decrement), and the level jump is capped
    by the next external expiry so supports stay constant across a jump.

    Contract: region offsets with outside neighbours frozen at their old offsets; exact whenever no boundary vertex's offset changes.
    """
    num_u, num_l = csr.num_upper, csr.num_lower
    deg_u = csr.upper_degrees().copy()
    deg_l = csr.lower_degrees().copy()
    ext_u = _ExternalSupports(ext_owner_u, ext_offset_u)
    ext_l = _ExternalSupports(ext_owner_l, ext_offset_l)
    if ext_u.owners.size:
        deg_u += np.bincount(ext_u.owners, minlength=num_u)
    if ext_l.owners.size:
        deg_l += np.bincount(ext_l.owners, minlength=num_l)
    alive_u = np.ones(num_u, dtype=bool)
    alive_l = np.ones(num_l, dtype=bool)
    off_u = np.zeros(num_u, dtype=np.int64)
    off_l = np.zeros(num_l, dtype=np.int64)

    if primary_side is Side.UPPER:
        thr_u, thr_l = threshold, 1
    else:
        thr_u, thr_l = 1, threshold

    # Phase 1: reduce to the (threshold, 1)-core under target-1 supports.
    # Array methods instead of numpy's Python-level wrappers keep the loop
    # below to a fixed handful of Python calls per level: regions are peeled
    # on every update, most of them small.
    seeds_u = (deg_u < thr_u).nonzero()[0]
    seeds_l = (deg_l < thr_l).nonzero()[0]
    removed_u, removed_l = _cascade(
        csr, alive_u, alive_l, deg_u, deg_l, thr_u, thr_l, seeds_u, seeds_l
    )
    num_alive = num_u + num_l - removed_u.shape[0] - removed_l.shape[0]

    alive_sec, deg_sec = (
        (alive_l, deg_l) if primary_side is Side.UPPER else (alive_u, deg_u)
    )

    # Phase 2: raise the secondary target step by step.  Unlike the
    # whole-graph kernel the loop runs while *either* layer is alive: a
    # primary vertex supported purely by external neighbours outlives every
    # internal secondary vertex and still has to be expired by offset.
    level = 1
    while num_alive:
        alive_degrees = deg_sec[alive_sec]
        jump = min(
            int(np.minimum.reduce(alive_degrees)) if alive_degrees.shape[0] else _NEVER,
            ext_u.next_expiry(),
            ext_l.next_expiry(),
        )
        if jump == _NEVER:  # pragma: no cover - defensive
            break  # nothing left to expire and no secondary vertex alive
        level = max(level, jump)
        target = level + 1
        _decrement(deg_u, ext_u.drop_below(target))
        _decrement(deg_l, ext_l.drop_below(target))
        if primary_side is Side.UPPER:
            thr_u, thr_l = threshold, target
        else:
            thr_u, thr_l = target, threshold
        seeds_u = (alive_u & (deg_u < thr_u)).nonzero()[0]
        seeds_l = (alive_l & (deg_l < thr_l)).nonzero()[0]
        removed_u, removed_l = _cascade(
            csr, alive_u, alive_l, deg_u, deg_l, thr_u, thr_l, seeds_u, seeds_l
        )
        num_alive -= removed_u.shape[0] + removed_l.shape[0]
        off_u[removed_u] = level
        off_l[removed_l] = level
        level = target
    return off_u, off_l


# --------------------------------------------------------------------------- #
# significant search over community edge arrays (step 2 of the query pipeline)
# --------------------------------------------------------------------------- #
#
# Unlike the kernels above, these operate on the *wire form* of one retrieved
# community — three parallel edge arrays — rather than a frozen whole-graph
# CSR.  They are asserted element-wise identical to the dict-backed ``scs_*``
# oracle by the agreement suite.


def _edge_core(
    us: np.ndarray,
    ls: np.ndarray,
    num_u: int,
    num_l: int,
    alive: np.ndarray,
    alpha: int,
    beta: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrink ``alive`` to the (α,β)-core of the kept edges.

    The round cascade of Algorithm 4 run to fixpoint: every iteration kills
    all edges incident to a below-threshold vertex at once.  Returns the core
    mask together with the per-vertex degrees at the fixpoint (removed
    vertices end at degree 0).
    """
    du = np.bincount(us[alive], minlength=num_u)
    dl = np.bincount(ls[alive], minlength=num_l)
    while True:
        bad_u = (du > 0) & (du < alpha)
        bad_l = (dl > 0) & (dl < beta)
        doomed = alive & (bad_u[us] | bad_l[ls])
        if not doomed.any():
            return alive, du, dl
        alive = alive & ~doomed
        du = du - np.bincount(us[doomed], minlength=num_u)
        dl = dl - np.bincount(ls[doomed], minlength=num_l)


def _edge_component(
    us: np.ndarray,
    ls: np.ndarray,
    alive: np.ndarray,
    query_upper: bool,
    query: int,
    num_u: int,
    num_l: int,
) -> np.ndarray:
    """Edge positions of the query's connected component inside ``alive``."""
    in_u = np.zeros(num_u, dtype=bool)
    in_l = np.zeros(num_l, dtype=bool)
    (in_u if query_upper else in_l)[query] = True
    while True:
        reach = alive & (in_u[us] | in_l[ls])
        known_u, known_l = int(in_u.sum()), int(in_l.sum())
        in_u[us[reach]] = True
        in_l[ls[reach]] = True
        if int(in_u.sum()) == known_u and int(in_l.sum()) == known_l:
            # At the fixpoint every reached edge has both endpoints inside.
            return np.flatnonzero(reach)


def _expand_over_edges(
    us: np.ndarray,
    ls: np.ndarray,
    weight: np.ndarray,
    num_u: int,
    num_l: int,
    query_upper: bool,
    query: int,
    alpha: int,
    beta: int,
    epsilon: float,
) -> np.ndarray:
    """Heaviest-first expansion over weight-ordered prefixes (Algorithm 5).

    The edges are sorted by descending weight once, so every threshold graph
    ``G≥w`` is a prefix of that order ending at a weight-run boundary.  The
    run boundaries are the candidate checkpoints; Algorithm 5's query-degree
    rule (a cumulative count of the query's edges) drops the ones where the
    query cannot yet meet its threshold.  A checkpoint is validated — the
    vectorised core fixpoint over the prefix slices — only once the prefix
    has grown by a factor ``epsilon`` since the last validation, and the
    full prefix is always validated last.  The first checkpoint whose core
    keeps the query ends the growth; bisecting back to the last failed one
    finds the smallest such prefix, ``G≥w*``.  That is O(log_ε E + log E)
    core passes and no per-edge Python work.

    Unlike the dict twin there is no union-find: validation works on the
    whole prefix instead of the query's component, Lemma 7 and the
    saturation rule (which need per-component counters, and only ever skip
    validations) are dropped, and the bisection stands in for peeling the
    validated component.  The answer cannot change: ``R`` is the query's
    component of the (α,β)-core of ``G≥w*``, where ``w*`` is the largest
    weight at which the query survives, and survival is monotone in the
    prefix — exactly what peeling a validated component also returns.

    The weight order need not be stable.  Ties only move edges inside one
    weight run, and everything the search reads is taken at run ends: the
    checkpoints, the query degrees and every validated prefix are the same
    edge sets under any tie order.  The core fixpoint and the component
    are set computations, and the kept positions are mapped back through
    ``order`` and sorted, so the answer is the same array either way.
    """
    order = np.argsort(-weight)
    us, ls, weight = us[order], ls[order], weight[order]
    total = int(order.shape[0])
    run_ends = np.append(np.flatnonzero(weight[1:] != weight[:-1]) + 1, total)
    query_degree = np.cumsum((us if query_upper else ls) == query)[run_ends - 1]
    checkpoints = run_ends[query_degree >= (alpha if query_upper else beta)]

    def core_keeping_query(i: int) -> Optional[np.ndarray]:
        """The core mask of checkpoint ``i``'s prefix, or None if q is peeled."""
        prefix = int(checkpoints[i])
        core, du, dl = _edge_core(
            us[:prefix], ls[:prefix], num_u, num_l, np.ones(prefix, dtype=bool), alpha, beta
        )
        return core if (du[query] if query_upper else dl[query]) > 0 else None

    last = int(checkpoints.shape[0]) - 1
    failed, i = -1, 0
    while i <= last:
        core = core_keeping_query(i)
        if core is not None:
            while i - failed > 1:
                mid = (failed + i) // 2
                found = core_keeping_query(mid)
                if found is None:
                    failed = mid
                else:
                    i, core = mid, found
            prefix = int(checkpoints[i])
            kept = _edge_component(
                us[:prefix], ls[:prefix], core, query_upper, query, num_u, num_l
            )
            return np.sort(order[kept])
        if i == last:
            break
        failed = i
        i = min(int(np.searchsorted(checkpoints, checkpoints[i] * epsilon)), last)
    raise InvalidParameterError(
        f"the supplied edges contain no ({alpha},{beta})-community "
        "of the query vertex"
    )


#: Dense interning's id-span bound, as a multiple of the edge count.  Past it
#: a lookup table over the span costs more than sorting the ids.
_DENSE_INTERN_FACTOR = 8


def _intern(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ids of a non-empty id array and each id's rank
    among them (``np.unique`` with ``return_inverse``).

    When the ids span at most :data:`_DENSE_INTERN_FACTOR` times as many
    values as there are edges, the local ids come from a dense table over
    the span (mark the ids present, number the marks in order, gather), so
    no sort runs at all.  A sparse community in a wide id space falls back
    to numpy's sort-based inverse, so it never pays for the whole space.
    """
    low = int(ids.min())
    span = int(ids.max()) - low + 1
    if span > _DENSE_INTERN_FACTOR * ids.shape[0]:
        return np.unique(ids, return_inverse=True)
    shifted = ids - low
    seen = np.zeros(span, dtype=bool)
    seen[shifted] = True
    present = np.flatnonzero(seen)
    local = np.empty(span, dtype=np.int64)
    local[present] = np.arange(present.shape[0], dtype=np.int64)
    return present + low, local[shifted]


def csr_significant_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    query_in_upper: bool,
    query_id: int,
    alpha: int,
    beta: int,
    method: str = "peel",
    epsilon: float = 2.0,
) -> np.ndarray:
    """Extract ``R(α,β)[q]`` from community edge arrays; return edge positions.

    The array-native counterpart of the dict ``scs_*`` routines: ``src`` /
    ``dst`` / ``weight`` are the parallel edge arrays of one retrieved
    (α,β)-community (endpoint ids live in two independent spaces, as on the
    wire), ``query_id`` names the query vertex in the space selected by
    ``query_in_upper``.  Returns the ascending ``np.int64`` positions whose
    edges form the significant community.

    ``epsilon`` is validated for every method (it must be > 1; NaN is
    refused).  ``"expand"`` is the array form of Algorithm 5: it validates
    weight-ordered prefixes at ε-geometric checkpoints and bisects back to
    the first one that keeps the query, instead of running a union-find and
    peeling; the Lemma 7 and saturation pruning rules, which only skip
    validations, are dropped — so it returns the same answer as the oracle.
    ``"binary"`` and ``"peel"`` run the same kernel with ε = ∞: the first
    checkpoint, the full prefix, then bisection, instead of bisecting the
    distinct weights or stripping one distinct weight per round.

    The endpoint ids are interned per side into local ``0..n-1`` ids (the
    rank among that side's distinct ids) by a dense lookup table over the
    id span when the span is at most a small multiple of the edge count,
    and by numpy's sort-based inverse otherwise (see :func:`_intern`).  A
    community with a single distinct weight is returned whole.  Empty
    edge arrays, and a query absent from them, raise
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    check_thresholds(alpha, beta)
    if method not in SCS_EDGE_METHODS:
        raise InvalidParameterError(
            f"unknown edge-search method {method!r}; expected one of {SCS_EDGE_METHODS}"
        )
    check_epsilon(epsilon)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)

    if src.shape[0] == 0:
        raise InvalidParameterError(
            f"query vertex {query_id!r} is not in the supplied community edges"
        )
    upper_ids, us = _intern(src)
    lower_ids, ls = _intern(dst)
    num_u, num_l = int(upper_ids.shape[0]), int(lower_ids.shape[0])
    pool = upper_ids if query_in_upper else lower_ids
    slot = int(np.searchsorted(pool, query_id))
    if slot >= pool.shape[0] or int(pool[slot]) != query_id:
        raise InvalidParameterError(
            f"query vertex {query_id!r} is not in the supplied community edges"
        )
    query = slot
    if weight.min() == weight.max():
        # Single distinct weight: the community itself is the answer (the
        # same short-circuit every dict algorithm takes).
        return np.arange(src.shape[0], dtype=np.int64)
    # Peel and binary search are the same threshold search with an unbounded
    # growth factor: the first checkpoint, then the full prefix, then
    # bisection back to the smallest prefix whose core keeps the query.
    return _expand_over_edges(
        us, ls, weight, num_u, num_l, query_in_upper, query, alpha, beta,
        epsilon if method == "expand" else np.inf,
    )
