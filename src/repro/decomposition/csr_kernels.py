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
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import Side
from repro.graph.csr import CSRBipartiteGraph
from repro.utils.validation import check_thresholds

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
    the touched frontier) and dedups with an in-place sort, which beats
    ``np.unique``'s machinery on the small arrays cascades produce.
    """
    cand = touched[alive[touched] & (degrees[touched] < threshold)]
    if cand.size <= 1:
        return cand
    cand.sort()
    keep = np.empty(cand.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(cand[1:], cand[:-1], out=keep[1:])
    return cand[keep]


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
        """Smallest offset still supporting anyone (-1 when exhausted)."""
        if self.cursor >= self.offsets.shape[0]:
            return -1
        return int(self.offsets[self.cursor])

    def drop_below(self, target: int) -> np.ndarray:
        """Owners of the entries that stop counting once the target is ``target``."""
        end = int(np.searchsorted(self.offsets, target, side="left"))
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
    seeds_u = np.flatnonzero(deg_u < thr_u)
    seeds_l = np.flatnonzero(deg_l < thr_l)
    _cascade(csr, alive_u, alive_l, deg_u, deg_l, thr_u, thr_l, seeds_u, seeds_l)

    alive_sec, deg_sec = (
        (alive_l, deg_l) if primary_side is Side.UPPER else (alive_u, deg_u)
    )

    # Phase 2: raise the secondary target step by step.  Unlike the
    # whole-graph kernel the loop runs while *either* layer is alive: a
    # primary vertex supported purely by external neighbours outlives every
    # internal secondary vertex and still has to be expired by offset.
    level = 1
    while bool(alive_u.any()) or bool(alive_l.any()):
        alive_ids = np.flatnonzero(alive_sec)
        min_degree = (
            int(deg_sec[alive_ids].min()) if alive_ids.size else np.iinfo(np.int64).max
        )
        expiries = [e for e in (ext_u.next_expiry(), ext_l.next_expiry()) if e >= 0]
        jump = min([min_degree] + expiries)
        if jump == np.iinfo(np.int64).max:  # pragma: no cover - defensive
            break  # nothing left to expire and no secondary vertex alive
        level = max(level, jump)
        target = level + 1
        _decrement(deg_u, ext_u.drop_below(target))
        _decrement(deg_l, ext_l.drop_below(target))
        if primary_side is Side.UPPER:
            thr_u, thr_l = threshold, target
        else:
            thr_u, thr_l = target, threshold
        seeds_u = np.flatnonzero(alive_u & (deg_u < thr_u))
        seeds_l = np.flatnonzero(alive_l & (deg_l < thr_l))
        removed_u, removed_l = _cascade(
            csr, alive_u, alive_l, deg_u, deg_l, thr_u, thr_l, seeds_u, seeds_l
        )
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


def _peel_mask(
    us: np.ndarray,
    ls: np.ndarray,
    weight: np.ndarray,
    num_u: int,
    num_l: int,
    alive: np.ndarray,
    query_upper: bool,
    query: int,
    alpha: int,
    beta: int,
) -> np.ndarray:
    """Peel the ``alive`` edge subset; the array twin of ``scs_peel``.

    Returns the kept edge positions (ascending).  Rounds remove every alive
    edge carrying the current minimum weight, cascade, and on query death
    restore the round and return the query's component.
    """
    live = np.flatnonzero(alive)
    if np.unique(weight[live]).shape[0] <= 1:
        # Single distinct weight: the (sub)community itself is the answer.
        return live
    alive = alive.copy()
    order = live[np.argsort(weight[live], kind="stable")]
    sorted_w = weight[order]
    du = np.bincount(us[alive], minlength=num_u)
    dl = np.bincount(ls[alive], minlength=num_l)
    query_threshold = alpha if query_upper else beta
    pos, total = 0, int(order.shape[0])
    while pos < total:
        # Skip edges already removed by an earlier cascade (the cursor only
        # moves forward, so this stays amortised O(E) over the whole peel).
        while pos < total and not alive[order[pos]]:
            pos += 1
        if pos >= total:
            break
        current_weight = sorted_w[pos]
        run_end = int(np.searchsorted(sorted_w, current_weight, side="right"))
        round_edges = order[pos:run_end]
        round_edges = round_edges[alive[round_edges]]
        pos = run_end
        previous = alive.copy()
        alive[round_edges] = False
        du -= np.bincount(us[round_edges], minlength=num_u)
        dl -= np.bincount(ls[round_edges], minlength=num_l)
        while True:
            bad_u = (du > 0) & (du < alpha)
            bad_l = (dl > 0) & (dl < beta)
            doomed = alive & (bad_u[us] | bad_l[ls])
            if not doomed.any():
                break
            alive &= ~doomed
            du -= np.bincount(us[doomed], minlength=num_u)
            dl -= np.bincount(ls[doomed], minlength=num_l)
        query_degree = int(du[query]) if query_upper else int(dl[query])
        if query_degree < query_threshold:
            # The graph as it stood at the start of this round is the last
            # valid one: return the query's component inside it.
            return _edge_component(us, ls, previous, query_upper, query, num_u, num_l)
    # Unreachable for a well-formed input; same safe fall-back as the oracle.
    return live


def _binary_over_edges(
    us: np.ndarray,
    ls: np.ndarray,
    weight: np.ndarray,
    num_u: int,
    num_l: int,
    query_upper: bool,
    query: int,
    alpha: int,
    beta: int,
) -> np.ndarray:
    """Binary search over the distinct weights; array twin of ``scs_binary``.

    Returns the query's component of the core at the largest weight threshold
    that keeps the query alive; raises if none does.
    """
    distinct = np.unique(weight)
    low, high = 0, int(distinct.shape[0]) - 1
    best = None
    while low <= high:
        mid = (low + high) // 2
        alive, du, dl = _edge_core(
            us, ls, num_u, num_l, weight >= distinct[mid], alpha, beta
        )
        survives = (int(du[query]) if query_upper else int(dl[query])) > 0
        if survives:
            best = alive
            low = mid + 1
        else:
            high = mid - 1
    if best is None:
        raise InvalidParameterError(
            f"the supplied edges are not a valid ({alpha},{beta})-community "
            "of the query vertex"
        )
    return _edge_component(us, ls, best, query_upper, query, num_u, num_l)


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
    """Heaviest-first expansion; array twin of ``expand_over_pool``.

    The union-find itself runs as a python loop over the interned ids (its
    per-edge work is O(α(n)) and resists vectorisation), but each validation —
    the expensive part the geometric rule amortises — is the vectorised core
    fixpoint plus masked peel above.  The first component passing
    validation is the answer.
    """
    order = np.argsort(-weight, kind="stable")
    descending = weight[order]
    order_list = order.tolist()
    us_list, ls_list = us.tolist(), ls.tolist()
    total = int(order.shape[0])
    n = num_u + num_l
    query_vertex = query if query_upper else num_u + query
    query_threshold = alpha if query_upper else beta

    parent = list(range(n))
    size = [1] * n
    degree = [0] * n
    comp_edges = [0] * n
    comp_upper = [1 if v < num_u else 0 for v in range(n)]
    comp_lower = [0 if v < num_u else 1 for v in range(n)]
    comp_usat = [0] * n
    comp_lsat = [0] * n

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def add_edge(e: int) -> None:
        a, b = us_list[e], num_u + ls_list[e]
        ra, rb = find(a), find(b)
        if ra == rb:
            comp_edges[ra] += 1
        else:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            comp_edges[ra] += comp_edges[rb] + 1
            comp_upper[ra] += comp_upper[rb]
            comp_lower[ra] += comp_lower[rb]
            comp_usat[ra] += comp_usat[rb]
            comp_lsat[ra] += comp_lsat[rb]
        for v in (a, b):
            degree[v] += 1
            threshold = alpha if v < num_u else beta
            if degree[v] == threshold:
                root = find(v)
                if v < num_u:
                    comp_usat[root] += 1
                else:
                    comp_lsat[root] += 1

    def validate(inserted: int) -> Optional[np.ndarray]:
        root = find(query_vertex)
        candidate = np.zeros(total, dtype=bool)
        members = [e for e in order_list[:inserted] if find(us_list[e]) == root]
        candidate[members] = True
        core, du, dl = _edge_core(us, ls, num_u, num_l, candidate, alpha, beta)
        if (int(du[query]) if query_upper else int(dl[query])) == 0:
            return None
        component = _edge_component(us, ls, core, query_upper, query, num_u, num_l)
        mask = np.zeros(total, dtype=bool)
        mask[component] = True
        return _peel_mask(
            us, ls, weight, num_u, num_l, mask, query_upper, query, alpha, beta
        )

    previous_checked_size = 0
    pos = 0
    while pos < total:
        batch_weight = descending[pos]
        before = comp_edges[find(query_vertex)] if degree[query_vertex] else -1
        run_end = pos + int(
            np.searchsorted(-descending[pos:], -batch_weight, side="right")
        )
        while pos < run_end:
            add_edge(order_list[pos])
            pos += 1
        if not degree[query_vertex]:
            continue
        root = find(query_vertex)
        component_edges = comp_edges[root]
        if component_edges == before:
            continue  # C* unchanged in this round.
        # Lemma 7 / saturation / query-degree pruning, as in the dict twin.
        if alpha * beta - alpha - beta > (
            component_edges - comp_upper[root] - comp_lower[root]
        ):
            continue
        if comp_usat[root] < beta or comp_lsat[root] < alpha:
            continue
        if degree[query_vertex] < query_threshold:
            continue
        if previous_checked_size and component_edges < previous_checked_size * epsilon:
            continue
        previous_checked_size = component_edges
        answer = validate(pos)
        if answer is not None:
            return answer
    if degree[query_vertex]:
        answer = validate(total)
        if answer is not None:
            return answer
    raise InvalidParameterError(
        f"the supplied edges contain no ({alpha},{beta})-community "
        "of the query vertex"
    )


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
    """
    check_thresholds(alpha, beta)
    if method not in SCS_EDGE_METHODS:
        raise InvalidParameterError(
            f"unknown edge-search method {method!r}; expected one of {SCS_EDGE_METHODS}"
        )
    if method == "expand" and epsilon <= 1.0:
        raise InvalidParameterError("epsilon must be larger than 1")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)

    upper_ids, us = np.unique(src, return_inverse=True)
    lower_ids, ls = np.unique(dst, return_inverse=True)
    num_u, num_l = int(upper_ids.shape[0]), int(lower_ids.shape[0])
    pool = upper_ids if query_in_upper else lower_ids
    slot = int(np.searchsorted(pool, query_id))
    if slot >= pool.shape[0] or int(pool[slot]) != query_id:
        raise InvalidParameterError(
            f"query vertex {query_id!r} is not in the supplied community edges"
        )
    query = slot
    if np.unique(weight).shape[0] <= 1:
        # Single distinct weight: the community itself is the answer (the
        # same short-circuit every dict algorithm takes).
        return np.arange(src.shape[0], dtype=np.int64)
    if method == "peel":
        return _peel_mask(
            us, ls, weight, num_u, num_l, np.ones(src.shape[0], dtype=bool),
            query_in_upper, query, alpha, beta,
        )
    if method == "binary":
        return _binary_over_edges(
            us, ls, weight, num_u, num_l, query_in_upper, query, alpha, beta
        )
    return _expand_over_edges(
        us, ls, weight, num_u, num_l, query_in_upper, query, alpha, beta, epsilon
    )
