"""The incremental maintenance engine of the degeneracy-bounded index.

The paper's maintenance section observes that after inserting or removing an
edge ``(u, v)`` only a bounded *candidate region* around the edge — the S⁺
(insertion) / S⁻ (removal) sets — can change its offsets at any level, and
only those vertices' index entries need recomputing.  This module implements
that outline as three cooperating pieces, all running on global integer ids
(as in :class:`~repro.index.csr_build.LevelArrays`) and numpy arrays:

**Region planner** (:func:`plan_level_region`)
    Per level and index half, a slack-aware closure expands from the updated
    edge's endpoints through exactly the vertices whose offsets *could*
    change.  It leans on two structural facts of a single edge update: a
    non-endpoint offset moves by at most one, and every change chains back
    to the edge through changed vertices.  A vertex joins the S⁻ closure
    only when more of its supporters may stop covering its old offset than
    it has slack, and the S⁺ closure only when its optimistic support at
    ``old + 1`` reaches the peeling requirement — so the closure stays a
    small ball around the edge even on graphs with one giant component.
    Its inputs are the level's offsets (``LevelArrays.offsets``) and the
    graph's neighbour ids (:class:`IdAdjacency`), both in the maintained
    index's one append-only id space and updated on every edge insert and
    removal — a never-seen vertex is appended, not a reason to re-intern.
    Each round expands a whole frontier with numpy gathers over
    generation-stamped scratch, so no :class:`Vertex` is built or hashed
    per neighbour and the work follows the closure, not the graph size.

**Region peel** (:class:`_RegionPeel`)
    The candidate region is frozen into a private sub-CSR with numpy
    gathers, and every edge leaving it becomes an external support frozen
    at the outside endpoint's old offset (an outside vertex belongs to the
    (τ,β)-core exactly when its old offset is ≥ β, so it supports its region
    neighbour for secondary targets up to that offset).  Because vertices
    outside the closure provably keep their offsets, the frozen peel —
    :func:`~repro.decomposition.csr_kernels.csr_region_offsets_fixed_primary`
    — is *exact*; no verification pass is needed.  A closure that outgrows
    the region budget sends just that level down the full re-peel fallback.

**Patch applier** (:meth:`DynamicDegeneracyIndex._splice`)
    The maintained index stores each level once, as the
    :class:`~repro.index.csr_build.LevelArrays` the queries read (the
    paper's per-level offsets plus neighbour lists sorted by decreasing
    offset).  Level results are applied change-driven: only vertices whose
    offsets moved, their neighbours (whose sorted entries embed those
    offsets) and the edge's endpoints get their slices rebuilt — one
    vectorised pass (:func:`level_slices`: gather, offset filter, stable
    ``lexsort``) spliced in with
    :func:`~repro.index.csr_build.patch_level_arrays`.  The same builder,
    run over every id, serves the budget fallback and a fresh level when δ
    grows.  Every patch is also recorded in a :class:`MaintenanceJournal`
    (dirty ids per level) so ``save_index(format="snapshot")`` can slice
    just the delta out of the arrays next to an existing base snapshot
    (:mod:`repro.serving.snapshot`).

Degeneracy is adjusted incrementally too: a single edge update moves δ by at
most one, growth is pre-screened by an O(1) endpoint check before the (rare)
candidate-core peel, and shrink is read off the top level's offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:
    from repro.graph.csr import CSRBipartiteGraph
    from repro.index.csr_build import LevelArrays
    from repro.index.parallel_build import LevelPayload
    from repro.serving.snapshot import SnapshotIndex

from repro.exceptions import EdgeNotFoundError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.csr import sorted_unique
from repro.index.base import IndexStats
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.traversal import ArrayLevelIndex, ArrayQueryPath
from repro.utils.timer import Timer

__all__ = [
    "DEFAULT_REGION_BUDGET",
    "IdAdjacency",
    "plan_level_region",
    "level_slices",
    "MaintenanceJournal",
    "DynamicDegeneracyIndex",
]

#: Default cap on the number of vertices an S⁺/S⁻ candidate region may
#: contain before that level's maintenance falls back to a full re-peel.
DEFAULT_REGION_BUDGET = 4096

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


# --------------------------------------------------------------------------- #
# the graph over global ids
# --------------------------------------------------------------------------- #
class IdAdjacency:
    """The maintained graph — the writer's only copy — over an append-only
    global id space.

    ``handles[g]`` is the :class:`Vertex` of id ``g`` (``ids`` the reverse
    map), ``upper[g]`` flags the upper side, ``neighbours[g]`` holds the
    neighbour ids in arrival order, ``weights[g]`` the matching edge weights
    and ``degrees[g]`` their count.  The maintained index updates the
    adjacency on every edge insert, re-weight and removal, so planning a
    candidate region and rebuilding index slices gathers neighbour ids and
    weights with numpy instead of building and hashing one :class:`Vertex`
    per neighbour.  A vertex exists (``alive[g]``) from its first sighting
    until a removal leaves it isolated, and every removal also drops the
    vertices isolated since construction — the dict graph's rule; a
    vanished vertex keeps its id (with no neighbours) and a never-seen one
    is appended by :meth:`intern`.  ``birth[g]`` orders each side's vertices
    as a dict graph with the same history lists them.  The per-id arrays
    keep spare capacity, so the id space grows in place.  ``num_upper``
    counts the upper ids, and ``upper_first`` turns False once an upper
    vertex is appended after a lower one — the array query path needs upper
    ids first, which :meth:`renumber` restores.

    The planner's per-id scratch lives here too: marks stamped with a
    per-plan generation, so a plan reads and writes only the ids it visits
    and never allocates or clears an array as long as the id space.
    """

    __slots__ = (
        "name",
        "handles",
        "ids",
        "upper",
        "alive",
        "birth",
        "neighbours",
        "weights",
        "degrees",
        "num_upper",
        "num_edges",
        "upper_first",
        "_births",
        "_generation",
        "_seed",
        "_inside",
        "_settled",
        "_slack",
    )

    def __init__(
        self,
        name: str,
        handles: List[Vertex],
        neighbours: List[np.ndarray],
        weights: List[np.ndarray],
        num_upper: int,
    ) -> None:
        self.name = name
        self.handles = handles
        self.ids = {handle: gid for gid, handle in enumerate(handles)}
        self.neighbours = neighbours
        self.weights = weights
        count = self._births = len(handles)
        capacity = max(count, 1)
        self.upper = np.arange(capacity) < num_upper
        self.alive = np.arange(capacity) < count
        self.birth = np.arange(capacity, dtype=np.int64)
        self.degrees = np.zeros(capacity, dtype=np.int64)
        self.degrees[:count] = [nbrs.shape[0] for nbrs in neighbours]
        self.num_upper = num_upper
        self.num_edges = int(self.degrees[:num_upper].sum())
        self.upper_first = True
        self._generation = 0
        self._seed = np.zeros(capacity, dtype=np.int64)
        self._inside = np.zeros(capacity, dtype=np.int64)
        self._settled = np.zeros(capacity, dtype=np.int64)
        self._slack = np.zeros(capacity, dtype=np.int64)

    @classmethod
    def from_csr(cls, csr: "CSRBipartiteGraph") -> "IdAdjacency":
        """The adjacency of ``csr`` over its global ids (upper ids first),
        each vertex's neighbours cut out of the CSR arrays in slice order."""
        neighbours: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        for indptr, indices, values, shift in (
            (csr.u_indptr, csr.u_indices, csr.u_weights, csr.num_upper),
            (csr.l_indptr, csr.l_indices, csr.l_weights, 0),
        ):
            bounds = indptr.tolist()
            cuts = list(zip(bounds[:-1], bounds[1:]))
            indices, values = np.asarray(indices) + shift, np.asarray(values)
            neighbours += [indices[lo:hi] for lo, hi in cuts]
            weights += [values[lo:hi] for lo, hi in cuts]
        return cls(csr.name, csr.global_handles(), neighbours, weights, csr.num_upper)

    @property
    def capacity(self) -> int:
        """The length of every per-id array (at least the number of ids)."""
        return self.upper.shape[0]

    def intern(self, vertex: Vertex) -> int:
        """The id of ``vertex``, appending it when it was never seen and
        bringing it to life when it does not exist."""
        gid = self.ids.get(vertex)
        if gid is None:
            gid = len(self.handles)
            self.handles.append(vertex)
            self.ids[vertex] = gid
            self.neighbours.append(_EMPTY_IDS)
            self.weights.append(_EMPTY_WEIGHTS)
            if gid == self.capacity:
                for name in (
                    "upper", "alive", "birth", "degrees", "_seed", "_inside", "_settled", "_slack"
                ):
                    array = getattr(self, name)
                    setattr(self, name, np.concatenate((array, np.zeros_like(array))))
            if vertex.side is Side.UPPER:
                self.upper[gid] = True
                self.upper_first &= gid == self.num_upper
                self.num_upper += 1
        if not self.alive[gid]:
            self.alive[gid], self.birth[gid] = True, self._births
            self._births += 1
        return gid

    def edge(self, upper_label: Hashable, lower_label: Hashable) -> Optional[Tuple[int, int]]:
        """The endpoint ids of an edge, or None when the graph lacks it."""
        gu = self.ids.get(Vertex(Side.UPPER, upper_label))
        gv = self.ids.get(Vertex(Side.LOWER, lower_label))
        if gu is None or gv is None or not (self.neighbours[gu] == gv).any():
            return None
        return gu, gv

    def insert(
        self, upper_label: Hashable, lower_label: Hashable, weight: float
    ) -> Tuple[int, int, bool]:
        """Add or re-weight an edge: its endpoint ids and whether it existed."""
        edge = self.edge(upper_label, lower_label)
        if edge is not None:
            for owner, nbr in (edge, edge[::-1]):
                weights = self.weights[owner].copy()
                weights[self.neighbours[owner] == nbr] = weight
                self.weights[owner] = weights
            return edge[0], edge[1], True
        gu = self.intern(Vertex(Side.UPPER, upper_label))
        gv = self.intern(Vertex(Side.LOWER, lower_label))
        for owner, nbr in ((gu, gv), (gv, gu)):
            self.neighbours[owner] = np.append(self.neighbours[owner], nbr)
            self.weights[owner] = np.append(self.weights[owner], weight)
            self.degrees[owner] += 1
        self.num_edges += 1
        return gu, gv, False

    def remove(self, upper_label: Hashable, lower_label: Hashable) -> Tuple[int, int, np.ndarray]:
        """Remove an edge: its endpoint ids and the ids that stopped existing."""
        edge = self.edge(upper_label, lower_label)
        if edge is None:
            raise EdgeNotFoundError(upper_label, lower_label)
        for owner, nbr in (edge, edge[::-1]):
            keep = self.neighbours[owner] != nbr
            self.neighbours[owner] = self.neighbours[owner][keep]
            self.weights[owner] = self.weights[owner][keep]
            self.degrees[owner] -= 1
        self.num_edges -= 1
        vanished = np.flatnonzero(self.alive & (self.degrees == 0))
        self.alive[vanished] = False
        return edge[0], edge[1], vanished

    def gather(self, gids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(owner position in gids, neighbour id)`` for every edge of ``gids``."""
        if gids.shape[0] == 1:
            nbrs = self.neighbours[int(gids[0])]
        elif gids.shape[0]:
            nbrs = np.concatenate([self.neighbours[g] for g in gids.tolist()])
        else:
            nbrs = _EMPTY_IDS
        owners = np.repeat(np.arange(gids.shape[0], dtype=np.int64), self.degrees[gids])
        return owners, nbrs

    def gather_weights(self, gids: np.ndarray) -> np.ndarray:
        """The edge weights of ``gids``, aligned with :meth:`gather`'s neighbours."""
        if not gids.shape[0]:
            return _EMPTY_WEIGHTS
        return np.concatenate([self.weights[g] for g in gids.tolist()])

    def live(self) -> Tuple[np.ndarray, np.ndarray]:
        """The existing upper and lower ids, each side in birth order."""
        count = len(self.handles)
        sides = []
        for side in (self.upper[:count], ~self.upper[:count]):
            gids = np.flatnonzero(self.alive[:count] & side)
            sides.append(gids[np.argsort(self.birth[gids])])
        return sides[0], sides[1]

    def to_csr(self) -> "CSRBipartiteGraph":
        """The existing graph, vertices in birth order and neighbours in
        arrival order — what freezing the dict graph with the same history
        gives."""
        from repro.graph.csr import CSRBipartiteGraph

        sides = self.live()
        local = np.zeros(len(self.handles), dtype=np.int64)
        for gids in sides:
            local[gids] = np.arange(gids.shape[0], dtype=np.int64)
        layers = []
        for gids in sides:
            indptr = np.zeros(gids.shape[0] + 1, dtype=np.int64)
            np.cumsum(self.degrees[gids], out=indptr[1:])
            layers.extend((indptr, local[self.gather(gids)[1]], self.gather_weights(gids)))
        labels = [[self.handles[g].label for g in gids.tolist()] for gids in sides]
        return CSRBipartiteGraph(self.name, *labels, *layers)

    def renumber(self, old_ids: np.ndarray, new_ids: np.ndarray) -> None:
        """Reorder the ids: new id ``g`` is old id ``old_ids[g]``.

        ``new_ids`` is the inverse permutation; every neighbour list is
        remapped with one gather.  The planner's scratch needs no reorder —
        its generation stamps never match a later plan.
        """
        order = old_ids.tolist()
        self.handles = [self.handles[g] for g in order]
        self.ids = {handle: gid for gid, handle in enumerate(self.handles)}
        for name in ("upper", "alive", "birth", "degrees"):
            array = getattr(self, name)
            array[: len(order)] = array[old_ids]
        if order:
            flat = new_ids[np.concatenate([self.neighbours[g] for g in order])]
            self.neighbours = np.split(flat, np.cumsum(self.degrees[: len(order)])[:-1])
        self.weights = [self.weights[g] for g in order]
        self.upper_first = True


def _support(
    adjacency: IdAdjacency,
    offsets: np.ndarray,
    vertices: np.ndarray,
    levels: np.ndarray,
    seed_generation: int = 0,
) -> np.ndarray:
    """Per vertex, how many neighbours have an old offset ≥ its ``level``.

    With a ``seed_generation``, the seeds stamped by that plan (the
    endpoints of an insertion) count regardless of their offset.
    """
    owners, nbrs = adjacency.gather(vertices)
    counted = offsets[nbrs] >= levels[owners]
    if seed_generation:
        counted |= adjacency._seed[nbrs] == seed_generation
    return np.bincount(owners[counted], minlength=vertices.shape[0])


def _requirement(
    adjacency: IdAdjacency,
    vertices: np.ndarray,
    primary_side: Side,
    threshold: int,
    secondary: np.ndarray,
) -> np.ndarray:
    """The peeling requirement: ``threshold`` on the primary side, else ``secondary``."""
    primary = adjacency.upper[vertices] == (primary_side is Side.UPPER)
    return np.where(primary, threshold, secondary)


# --------------------------------------------------------------------------- #
# region planning — the S⁺ / S⁻ candidate closure
# --------------------------------------------------------------------------- #
def plan_level_region(
    adjacency: IdAdjacency,
    old_offsets: np.ndarray,
    primary_side: Side,
    threshold: int,
    seeds: np.ndarray,
    removal: bool,
    budget: Optional[int] = None,
) -> Optional[np.ndarray]:
    """The global ids whose offsets can change at one level and half.

    ``old_offsets`` is the level half's id-indexed offset array (the
    paper's ``Iα_δ``/``Iβ_δ`` offsets at that level) and ``seeds`` the
    updated edge's live endpoints.  The closure exploits two structural
    facts of a single edge update: a *non-endpoint* offset moves by at most
    one, and every changed vertex has a changed neighbour that caused it
    (the change chains back to the updated edge).  Expansion therefore
    needs two gates:

    * a **trigger** — a candidate neighbour whose potential move crosses the
      vertex's old offset: for a non-endpoint that means equal old offsets;
      an endpoint (which may move multiple steps) triggers every neighbour
      on the relevant side of its own offset;
    * a **feasibility test**:

      - **S⁻ (removal)** counts *pressure*: a vertex can drop only once more
        of its candidate supporters may cross its old offset than it has
        slack — support above the peeling requirement.  This keeps the
        closure to the genuinely threatened vertices even on large
        equal-offset plateaus.
      - **S⁺ (insertion)** must be optimistic, because rises can be mutual
        (a group may only be able to rise together): a vertex is a candidate
        as soon as every neighbour that *might* reach ``old + 1`` (those at
        or above its old offset, plus endpoints) covers the requirement at
        that target.  The region peel afterwards prunes the optimism.

    Both gates are monotone in the candidate set, so the closure is a least
    fixed point and is expanded one whole frontier per round with numpy
    gathers; the membership marks are the adjacency's generation-stamped
    scratch, so the work is proportional to the closure and its edges.
    Vertices outside the returned ids provably keep their offsets, so
    peeling the candidates with external support frozen at the old offsets
    is exact.  Returns ``None`` when the closure exceeds ``budget`` — the
    caller then re-peels the level in full.
    """
    adjacency._generation += 1
    generation = adjacency._generation
    is_seed, inside = adjacency._seed, adjacency._inside
    settled, slack = adjacency._settled, adjacency._slack
    seeds = np.asarray(seeds, dtype=np.int64)
    is_seed[seeds] = generation
    inside[seeds] = generation
    parts = [seeds]
    size = seeds.shape[0]
    frontier = seeds
    while frontier.shape[0]:
        owners, nbrs = adjacency.gather(frontier)
        offset_c = old_offsets[frontier][owners]
        offset_x = old_offsets[nbrs]
        from_endpoint = (is_seed[frontier] == generation)[owners]
        outside = inside[nbrs] != generation
        if removal:
            crossed = np.where(
                from_endpoint, offset_c >= offset_x, offset_c == offset_x
            )
            pressed = nbrs[crossed & (offset_x >= 1) & outside]
            # ``settled``: the vertex's slack is already computed.
            fresh = sorted_unique(pressed[settled[pressed] != generation])
            if fresh.shape[0]:
                levels = old_offsets[fresh]
                slack[fresh] = _support(adjacency, old_offsets, fresh, levels) - (
                    _requirement(adjacency, fresh, primary_side, threshold, levels)
                )
                settled[fresh] = generation
            # Every crossing candidate neighbour consumes one unit of slack.
            np.subtract.at(slack, pressed, 1)
            joined = sorted_unique(pressed[slack[pressed] < 0])
        else:
            helps = np.where(from_endpoint, offset_c <= offset_x, offset_c == offset_x)
            # ``settled``: the vertex was already found infeasible.
            tried = sorted_unique(nbrs[helps & outside & (settled[nbrs] != generation)])
            levels = old_offsets[tried]
            feasible = _support(
                adjacency, old_offsets, tried, levels, generation
            ) >= _requirement(adjacency, tried, primary_side, threshold, levels + 1)
            settled[tried[~feasible]] = generation
            joined = tried[feasible]
        if not joined.shape[0]:
            break
        inside[joined] = generation
        parts.append(joined)
        size += joined.shape[0]
        if budget is not None and size > budget:
            return None
        frontier = joined
    return np.concatenate(parts)


class _RegionPeel:
    """One candidate region frozen into a private sub-CSR for the peel kernel.

    ``gids`` lists the region's global ids, upper vertices first; the
    sub-CSR is unweighted (the peel never looks at weights), and every edge
    leaving the region becomes one external support whose neighbour id is
    kept, so :meth:`offsets` reads the frozen supports off an offset array
    with one gather.  Neighbour ids are mapped to region-local ids by a
    binary search over the sorted region, so the cost follows the region's
    edges, not the size of the id space.
    """

    def __init__(self, adjacency: IdAdjacency, region: np.ndarray) -> None:
        from repro.graph.csr import CSRBipartiteGraph

        region = np.sort(region)
        is_upper = adjacency.upper[region]
        # Position in the sorted region → local id within its side.
        local = np.where(is_upper, np.cumsum(is_upper), np.cumsum(~is_upper)) - 1
        uppers, lowers = region[is_upper], region[~is_upper]
        self.gids = np.concatenate((uppers, lowers))
        last = region.shape[0] - 1
        layers = []
        self._external = []
        for vertices in (uppers, lowers):
            owners, nbrs = adjacency.gather(vertices)
            position = np.minimum(region.searchsorted(nbrs), last)
            internal = region[position] == nbrs
            indptr = np.zeros(vertices.shape[0] + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(owners[internal], minlength=vertices.shape[0]),
                out=indptr[1:],
            )
            indices = local[position[internal]]
            layers.extend((indptr, indices, np.zeros(indices.shape[0], dtype=np.float64)))
            self._external.append((owners[~internal], nbrs[~internal]))
        self._csr = CSRBipartiteGraph(
            "region", range(uppers.shape[0]), range(lowers.shape[0]), *layers
        )

    def offsets(
        self,
        old_offsets: np.ndarray,
        primary_side: Side,
        threshold: int,
        shift: int = 0,
    ) -> np.ndarray:
        """Region offsets at one level/half, aligned with :attr:`gids`.

        Exact when the region is an S⁺/S⁻ candidate closure: every vertex
        outside it provably keeps its old offset, so an outside neighbour
        supports its region owner for secondary targets up to exactly that
        old offset.  ``shift=1`` instead freezes every external one step
        *above* its old offset (clamped at 0 from below) — the admissible
        optimum for an insertion, turning the peel into an upper bound used
        by the endpoint pre-screen.
        """
        from repro.decomposition.csr_kernels import csr_region_offsets_fixed_primary

        (owner_u, ext_u), (owner_l, ext_l) = self._external
        off_u, off_l = csr_region_offsets_fixed_primary(
            self._csr,
            owner_u,
            np.maximum(old_offsets[ext_u] + shift, 0),
            owner_l,
            np.maximum(old_offsets[ext_l] + shift, 0),
            primary_side,
            threshold,
        )
        return np.concatenate((off_u, off_l))


def level_slices(
    adjacency: IdAdjacency,
    gids: np.ndarray,
    members: np.ndarray,
    entry_offsets: np.ndarray,
    tau: int,
    strict: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index entries of ``gids`` at one level half, as patch arrays.

    A vertex owns a list when its α-offset at level τ (``members``) is ≥ τ —
    it is in the (τ,τ)-core; a neighbour is an entry when its offset in
    ``entry_offsets`` is ≥ τ, or > τ with ``strict`` (the β-half).  One
    gather, one filter and one stable ``lexsort`` by (owner, −offset) build
    every slice at once, ties kept in adjacency order — the order
    Algorithm 3 produces.  Returns ``(counts, entry_vertex, entry_weight,
    entry_offset)`` aligned with ``gids``, the form
    :func:`~repro.index.csr_build.patch_level_arrays` splices.
    """
    owners, nbrs = adjacency.gather(gids)
    weights = adjacency.gather_weights(gids)
    offsets = entry_offsets[nbrs]
    keep = (members[gids] >= tau)[owners] & (
        offsets > tau if strict else offsets >= tau
    )
    owners, offsets = owners[keep], offsets[keep]
    order = np.lexsort((-offsets, owners))
    return (
        np.bincount(owners, minlength=gids.shape[0]),
        nbrs[keep][order],
        weights[keep][order],
        offsets[order],
    )


# --------------------------------------------------------------------------- #
# the patch journal
# --------------------------------------------------------------------------- #
@dataclass
class MaintenanceJournal:
    """What changed since the index was last persisted as a snapshot.

    The journal stores no entry data — the level arrays are always current —
    only *which* ids of which levels are dirty, the applied graph
    operations, and the net set of ids the updates removed, all in the
    maintained index's id space.  Encoding a delta then slices exactly the
    dirty ids out of the live level arrays and maps them to base ids
    (:meth:`base_id_map`).  A base binding (directory, snapshot id, global-id
    map of the base's label order) is attached when the index is saved to /
    loaded from a snapshot; ``compatible`` turns False once an update
    introduces a vertex the base id space has never seen, at which point the
    next save rewrites a full snapshot instead of appending a delta.
    """

    ops: List[Tuple[str, Hashable, Hashable, float]] = field(default_factory=list)
    removed: Set[int] = field(default_factory=set)
    dirty: Dict[Tuple[str, int], Set[int]] = field(default_factory=dict)
    full_levels: Set[Tuple[str, int]] = field(default_factory=set)
    base_directory: Optional[str] = None
    base_id: Optional[str] = None
    base_sequence: int = 0
    base_delta: int = 0
    base_num_upper: int = 0
    base_num_vertices: int = 0
    base_global_ids: Optional[Dict[Vertex, int]] = None
    compatible: bool = True
    _base_ids: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def has_changes(self) -> bool:
        return bool(self.ops or self.removed or self.dirty or self.full_levels)

    def record_insert(
        self,
        upper_label: Hashable,
        lower_label: Hashable,
        weight: float,
        gids: Iterable[int],
    ) -> None:
        self.ops.append(("insert", upper_label, lower_label, weight))
        self.removed.difference_update(gids)

    def record_remove(self, upper_label: Hashable, lower_label: Hashable) -> None:
        self.ops.append(("remove", upper_label, lower_label, 0.0))

    def record_removed_vertices(self, gids: Iterable[int]) -> None:
        self.removed.update(gids)

    def note_vertex(self, vertex: Vertex) -> None:
        """A (possibly new) vertex entered the graph."""
        if self.base_global_ids is not None and vertex not in self.base_global_ids:
            self.compatible = False

    def mark_dirty(self, key: Tuple[str, int], gids: Iterable[int]) -> None:
        if key in self.full_levels:
            return
        self.dirty.setdefault(key, set()).update(gids)

    def mark_full(self, key: Tuple[str, int]) -> None:
        self.full_levels.add(key)
        self.dirty.pop(key, None)

    def bind_base(
        self,
        directory: str,
        snapshot_id: str,
        sequence: int,
        delta: int,
        num_upper: int,
        num_vertices: int,
        global_ids: Dict[Vertex, int],
    ) -> None:
        """Attach the journal to a persisted base and clear pending changes."""
        self.advance(sequence, delta)
        self.base_directory = directory
        self.base_id = snapshot_id
        self.base_num_upper = num_upper
        self.base_num_vertices = num_vertices
        self.base_global_ids = global_ids
        self.compatible = True
        self._base_ids = None

    def advance(self, sequence: int, delta: int) -> None:
        """A delta was persisted: clear pending changes, keep the base binding."""
        self.ops = []
        self.removed = set()
        self.dirty = {}
        self.full_levels = set()
        self.base_sequence = sequence
        self.base_delta = delta

    def can_append_to(self, directory: str) -> bool:
        return (
            self.base_directory == directory
            and bool(self.base_id)  # pre-delta-era snapshots carry no id
            and self.base_global_ids is not None
            and self.compatible
        )

    def renumber(self, new_ids: np.ndarray) -> None:
        """The maintained ids moved (``old id → new_ids[old id]``): follow them.

        The pending dirty and removed ids are mapped through ``new_ids``
        and the cached base-id map is dropped, so the next delta save
        recomputes it in the new id order.
        """
        self.dirty = {
            key: set(new_ids[np.fromiter(gids, dtype=np.int64, count=len(gids))].tolist())
            for key, gids in self.dirty.items()
        }
        self.removed = {int(new_ids[gid]) for gid in self.removed}
        self._base_ids = None

    def base_id_map(self, handles: Sequence[Vertex]) -> np.ndarray:
        """Maintained id → base id (``-1`` where the base lacks the vertex).

        ``handles`` lists the maintained index's vertices in id order.  The
        map is computed once per base binding; ids appended since only
        extend it.  A ``-1`` on a dirty id means the base cannot take the
        change — what ``compatible = False`` already records.
        """
        known = 0 if self._base_ids is None else self._base_ids.shape[0]
        if known < len(handles):
            ids = self.base_global_ids
            tail = np.fromiter(
                (ids.get(handle, -1) for handle in handles[known:]),
                dtype=np.int64,
                count=len(handles) - known,
            )
            self._base_ids = (
                tail if self._base_ids is None else np.concatenate((self._base_ids, tail))
            )
        return self._base_ids


# --------------------------------------------------------------------------- #
# the maintained index
# --------------------------------------------------------------------------- #
def _read_only(level: "LevelArrays") -> "LevelArrays":
    """``level`` over read-only views: an adopted level is copied, never written."""
    views = {}
    for name in ("indptr", "entry_vertex", "entry_weight", "entry_offset", "offsets"):
        view = getattr(level, name).view()
        view.flags.writeable = False
        views[name] = view
    return replace(level, **views)


class DynamicDegeneracyIndex(ArrayLevelIndex, DegeneracyIndex):
    """A :class:`DegeneracyIndex` that absorbs edge updates by region patching.

    The maintained index holds its graph once, as its :class:`IdAdjacency`
    (:attr:`graph` is built from it on demand), and stores each level once:
    one :class:`~repro.index.csr_build.LevelArrays` per (half, τ), over the
    adjacency's ids — the build's (or the reopened snapshot's) upper-first
    ids, with never-seen vertices appended and vanished ones kept as ids
    with offset 0 and no entries.  Every update patches those arrays in
    place of the static index's dict mirror, and every query
    (``community``, ``contains``, ``vertices_in_core``, the batch verbs)
    runs the shared :class:`~repro.index.traversal.ArrayLevelIndex` queries
    over them.

    ``max_chain_len`` is the optional auto-compaction policy: when set, a
    ``save_index(..., format="snapshot")`` that grows the on-disk delta chain
    to that length immediately folds it into a fresh base
    (:func:`repro.serving.compaction.compact_snapshot`) and re-binds the
    journal, so cold-start replay cost stays bounded under sustained churn.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        backend: str = "auto",
        region_budget: int = DEFAULT_REGION_BUDGET,
        n_jobs: int = 1,
        max_chain_len: Optional[int] = None,
    ) -> None:
        super().__init__(graph, backend=backend, n_jobs=n_jobs)
        del self._graph  # no reference, so no private copy, to the caller's graph
        built, self._array_path, self._levels = self._array_path, None, {}
        if built is not None:  # a CSR build registered every level natively
            self._levels.update((key, built.level(key)) for key in built.level_keys())
        else:  # a dict build converts its mirror once, into the shared levels
            from repro.graph.csr import freeze

            self._ids = IdAdjacency.from_csr(freeze(graph))
            DegeneracyIndex.export_level_arrays(self)
        del self._alpha_offsets, self._beta_offsets, self._alpha_lists, self._beta_lists
        self._finish_init(region_budget, max_chain_len)

    def _build_csr(self, csr: "CSRBipartiteGraph") -> None:
        """The CSR build, whose frozen graph also becomes the id adjacency."""
        self._ids = IdAdjacency.from_csr(csr)
        super()._build_csr(csr)

    def _mirror_level(self, csr: "CSRBipartiteGraph", payload: "LevelPayload") -> None:
        """No dict mirror: the maintained index keeps only the level arrays."""

    def _finish_init(self, region_budget: int, max_chain_len: Optional[int]) -> None:
        self._region_budget = region_budget
        self.max_chain_len = max_chain_len
        self._maintenance_seconds = 0.0
        self._updates_applied = 0
        self._journal = MaintenanceJournal()
        # observability
        self._levels_patched = 0
        self._levels_rebuilt = 0
        self._levels_built = 0
        self._levels_dropped = 0
        self._region_updates = 0
        self._regions_peeled = 0
        self._reweight_updates = 0
        self._region_vertices_total = 0
        self._compactions = 0
        self._deltas_folded = 0

    @classmethod
    def from_snapshot(
        cls, snapshot: "SnapshotIndex", max_chain_len: Optional[int] = None
    ) -> "DynamicDegeneracyIndex":
        """Reopen a persisted snapshot as a mutable, maintainable index.

        The snapshot's level arrays are adopted as they are (copied only
        when an update first writes them) — no dict mirror, no from-scratch
        peel.  The id adjacency is cut out of the base's CSR arrays and the
        deltas' graph operations are replayed onto it — no dict graph — so
        it spans the snapshot's id space, and a vertex the deltas removed
        keeps its id with no neighbours.  The journal is bound to the
        snapshot's directory so the next ``save_index(..., format="snapshot")``
        to the same directory appends a delta instead of rewriting the base.
        ``max_chain_len`` installs the auto-compaction policy, as in the
        constructor.
        """
        from repro.graph.csr import resolve_backend

        csr = snapshot.base_csr()
        self = cls.__new__(cls)
        # Manual field initialisation: DegeneracyIndex.__init__ would trigger
        # a full rebuild, which from_snapshot exists to avoid.
        self._n_jobs = 1
        self._delta = snapshot.delta
        self._array_path = None
        self._build_seconds = 0.0
        self._build_extra = {}
        self._ids = ids = IdAdjacency.from_csr(csr)
        self._levels = {
            key: _read_only(level) for key, level in snapshot.level_arrays().items()
        }
        self._finish_init(DEFAULT_REGION_BUDGET, max_chain_len)
        self._journal.bind_base(
            str(snapshot.directory),
            snapshot.snapshot_id,
            snapshot.version,
            snapshot.delta,
            csr.num_upper,
            csr.num_vertices,
            dict(ids.ids),
        )
        # A delta only names base vertices (else a full base is written).
        for kind, upper_label, lower_label, weight in snapshot.pending_ops:
            if kind == "insert":
                ids.insert(upper_label, lower_label, weight)
            else:
                ids.remove(upper_label, lower_label)
        self._backend = resolve_backend("auto", ids)  # reads only num_edges
        return self

    # ------------------------------------------------------------------ #
    # public update API
    # ------------------------------------------------------------------ #
    def insert_edge(
        self, upper_label: Hashable, lower_label: Hashable, weight: float = 1.0
    ) -> None:
        """Insert (or re-weight) an edge and patch the affected index levels."""
        if weight != weight:
            raise InvalidParameterError(
                f"edge ({upper_label!r}, {lower_label!r}) has a NaN weight"
            )
        with Timer() as timer:
            before = len(self._ids.handles)
            gu, gv, reweight = self._ids.insert(upper_label, lower_label, weight)
            self._grow_levels(before)
            self._journal.record_insert(upper_label, lower_label, weight, (gu, gv))
            for gid in (gu, gv):
                self._journal.note_vertex(self._ids.handles[gid])
            if reweight:
                # Offsets depend only on the structure: a pure re-weight
                # touches nothing but the two mirrored entry weights per level.
                self._reweight_updates += 1
                self._reweight_entries(gu, gv, weight)
            else:
                self._refresh_after_update(gu, gv, None)
        self._maintenance_seconds += timer.elapsed
        self._updates_applied += 1

    def remove_edge(self, upper_label: Hashable, lower_label: Hashable) -> None:
        """Remove an edge and patch the affected index levels.

        Raises :class:`~repro.exceptions.EdgeNotFoundError` when the graph
        lacks the edge.
        """
        with Timer() as timer:
            gu, gv, vanished = self._ids.remove(upper_label, lower_label)
            self._journal.record_remove(upper_label, lower_label)
            self._refresh_after_update(gu, gv, vanished)
        self._maintenance_seconds += timer.elapsed
        self._updates_applied += 1

    def has_edge(self, upper_label: Hashable, lower_label: Hashable) -> bool:
        """True when the maintained graph holds the edge."""
        return self._ids.edge(upper_label, lower_label) is not None

    @property
    def graph(self) -> BipartiteGraph:
        """The maintained graph, built from the id adjacency on each access
        (:meth:`IdAdjacency.to_csr`) — a pass over every edge, so per-op
        paths use :meth:`has_edge` and :meth:`graph_summary` instead."""
        return self._ids.to_csr().thaw()

    def graph_summary(self) -> Dict[str, object]:
        """The graph's name and sizes, as a snapshot manifest records them."""
        ids = self._ids
        upper = int(np.count_nonzero(ids.alive & ids.upper))
        return {
            "name": ids.name,
            "num_upper": upper,
            "num_lower": int(np.count_nonzero(ids.alive)) - upper,
            "num_edges": ids.num_edges,
        }

    @property
    def journal(self) -> MaintenanceJournal:
        """The pending-changes journal consumed by snapshot delta saves."""
        return self._journal

    # ------------------------------------------------------------------ #
    # the id space and the query path
    # ------------------------------------------------------------------ #
    def global_handles(self) -> List[Vertex]:
        """The vertex of every id (dead ids included), in id order."""
        return self._ids.handles

    def _contains_vertex(self, vertex: Vertex) -> bool:
        gid = self._ids.ids.get(vertex)
        return gid is not None and bool(self._ids.alive[gid])

    def _grow_levels(self, before: int) -> None:
        """Give the ids appended since there were ``before`` an empty slice
        and offset 0 at every level."""
        added = len(self._ids.handles) - before
        if not added:
            return
        for key, level in self._levels.items():
            self._levels[key] = replace(
                level,
                indptr=np.append(level.indptr, np.full(added, level.indptr[-1])),
                offsets=np.append(level.offsets, np.zeros(added, dtype=np.int64)),
            )
        self._array_path = None  # its label arrays span the old ids

    def query_path(self) -> ArrayQueryPath:
        """The array query engine over the maintained levels.

        It shares the id adjacency's id map and the level dict itself, so
        patches need no registration.  Upper ids must come first: after a
        never-seen upper vertex was appended, the first query renumbers once
        (:meth:`_renumber`).
        """
        if not self._ids.upper_first:
            self._renumber()
        if self._array_path is None:
            handles, num_upper = self._ids.handles, self._ids.num_upper
            self._array_path = ArrayQueryPath(
                [handle.label for handle in handles[:num_upper]],
                [handle.label for handle in handles[num_upper:]],
                global_ids=self._ids.ids,
                levels=self._levels,
            )
        return self._array_path

    def _renumber(self) -> None:
        """Move the upper ids ahead of the lower ones again.

        One :func:`~repro.index.csr_build.remap_level_arrays` per level plus
        one gather over the id adjacency — the remap compaction uses.  The
        journal's pending ids follow (:meth:`MaintenanceJournal.renumber`),
        so a delta saved afterwards still slices the ids that changed.
        """
        from repro.index.csr_build import remap_level_arrays

        ids = self._ids
        upper = ids.upper[: len(ids.handles)]
        old_ids = np.concatenate((np.flatnonzero(upper), np.flatnonzero(~upper)))
        new_ids = np.empty(old_ids.shape[0], dtype=np.int64)
        new_ids[old_ids] = np.arange(old_ids.shape[0], dtype=np.int64)
        for key, level in self._levels.items():
            self._levels[key] = remap_level_arrays(level, old_ids, new_ids, ids.num_upper)
        ids.renumber(old_ids, new_ids)
        self._journal.renumber(new_ids)
        self._array_path = None

    def export_level_arrays(self) -> "Dict[Tuple[str, int], LevelArrays]":
        """Every level in the graph's own id order — what a fresh build exports.

        The maintained ids keep dead vertices and a returning vertex keeps
        its old id; a full snapshot needs exactly the graph's current
        vertices in :attr:`graph` order (:meth:`IdAdjacency.live`), so each
        level is remapped once (:func:`~repro.index.csr_build.remap_level_arrays`).
        The maintained ids are first made upper-first (:meth:`_renumber`),
        so a base bound to this export never sees them move.
        """
        from repro.index.csr_build import remap_level_arrays

        if not self._ids.upper_first:
            self._renumber()
        uppers, lowers = self._ids.live()
        old_ids = np.concatenate((uppers, lowers))
        new_ids = np.full(len(self._ids.handles), -1, dtype=np.int64)
        new_ids[old_ids] = np.arange(old_ids.shape[0], dtype=np.int64)
        return {
            (half, tau): remap_level_arrays(
                self._levels[(half, tau)], old_ids, new_ids, uppers.shape[0]
            )
            for tau in range(1, self._delta + 1)
            for half in ("alpha", "beta")
        }

    # ------------------------------------------------------------------ #
    # the update pipeline
    # ------------------------------------------------------------------ #
    def _purge(self, gids: np.ndarray) -> None:
        """Zero the offsets and empty the slices of vanished ids at every level."""
        if not gids.shape[0]:
            return
        from repro.index.csr_build import patch_level_arrays

        self._journal.record_removed_vertices(gids.tolist())
        zeros = np.zeros(gids.shape[0], dtype=np.int64)
        for key, level in self._levels.items():
            indptr = level.indptr
            if np.any(level.offsets[gids] != 0) or np.any(indptr[gids + 1] != indptr[gids]):
                self._levels[key] = patch_level_arrays(
                    level, gids, zeros, _EMPTY_IDS, _EMPTY_WEIGHTS, _EMPTY_IDS, gids, zeros
                )
                self._journal.mark_dirty(key, gids.tolist())

    def _affected_levels(self, gu: int, gv: int, removal: bool) -> List[int]:
        """Levels the update can possibly change (a sound prefilter).

        A core at ``(τ,β)`` differs between the old and new graph only when
        the updated edge lies *inside* the differing core, so both endpoints
        must belong to it.  For an insertion that requires the fixed-primary
        endpoint to have degree ≥ τ; for a removal it requires both endpoints
        to have had a non-zero old offset at that level.  Offsets fall off
        quickly with τ, so this cuts the per-update work from every level to
        the handful the edge actually touches.  Must run *before* the purge
        (a vanished endpoint's old offsets are part of the evidence).
        """
        if not removal:
            cap = int(max(self._ids.degrees[gu], self._ids.degrees[gv]))
            return list(range(1, min(self._delta, cap) + 1))
        return [
            tau
            for tau in range(1, self._delta + 1)
            if any(
                self._levels[(half, tau)].offsets[gu] >= 1
                and self._levels[(half, tau)].offsets[gv] >= 1
                for half in ("alpha", "beta")
            )
        ]

    def _refresh_after_update(
        self, gu: int, gv: int, vanished: Optional[np.ndarray]
    ) -> None:
        """``vanished`` is None after an insertion, else the ids a removal dropped."""
        removal = vanished is not None
        levels = self._affected_levels(gu, gv, removal)
        if removal:
            self._purge(vanished)
        seeds = np.array(
            [gid for gid in (gu, gv) if self._ids.degrees[gid] > 0], dtype=np.int64
        )
        if seeds.shape[0] and levels:
            self._region_updates += 1
            self._patch_levels(seeds, levels, removal)
        self._adjust_degeneracy(seeds, not removal)

    def _patch_levels(self, seeds: np.ndarray, levels: Sequence[int], removal: bool) -> None:
        """Re-peel each affected level inside its S⁺/S⁻ candidate region.

        The first changed vertex of any cascade is an endpoint (the updated
        edge is the only thing that changed), so each level and half is
        pre-screened by asking only whether an *endpoint* moves there: a
        removal is screened with an exact support count at the endpoint's
        old offset, an insertion with a two-vertex optimistic mini-peel that
        upper-bounds the endpoints' new offsets.  Levels that pass touch
        nothing but the endpoints' own slices.  Levels that fail get a
        candidate closure per half, peeled with the frozen-boundary kernels
        — exact, because non-candidates provably keep their offsets.  Only a
        closure that blows past the region budget sends its level down the
        full re-peel fallback.
        """
        adjacency = self._ids
        mini = None if removal else _RegionPeel(adjacency, seeds)
        for tau in levels:
            if tau > self._delta:  # pragma: no cover - defensive
                break
            old_a = self._levels[("alpha", tau)].offsets
            old_b = self._levels[("beta", tau)].offsets
            halves = []
            overflow = False
            for primary, old in ((Side.UPPER, old_a), (Side.LOWER, old_b)):
                if self._endpoints_hold(adjacency, seeds, old, primary, tau, removal, mini):
                    halves.append(None)
                    continue
                region = plan_level_region(
                    adjacency, old, primary, tau, seeds, removal, self._region_budget
                )
                if region is None:
                    overflow = True
                    break
                peel = _RegionPeel(adjacency, region)
                self._region_vertices_total += region.shape[0]
                self._regions_peeled += 1
                halves.append((peel.gids, peel.offsets(old, primary, tau)))
            if overflow:
                # The closure outgrew the budget: re-peel the whole graph at
                # this level (vertices that keep their offsets are no-ops).
                touched = np.arange(len(adjacency.handles), dtype=np.int64)
                new_a, new_b = self._full_level_offsets(tau)
                self._levels_rebuilt += 1
            else:
                touched = sorted_unique(
                    np.concatenate([seeds] + [half[0] for half in halves if half])
                )
                new_a, new_b = old_a[touched], old_b[touched]
                for new, half in ((new_a, halves[0]), (new_b, halves[1])):
                    if half is not None:
                        new[np.searchsorted(touched, half[0])] = half[1]
                self._levels_patched += 1
            self._splice(tau, touched, new_a, new_b, seeds)

    def _endpoints_hold(
        self,
        adjacency: IdAdjacency,
        seeds: np.ndarray,
        old: np.ndarray,
        primary_side: Side,
        tau: int,
        removal: bool,
        mini: Optional[_RegionPeel],
    ) -> bool:
        """True when provably neither endpoint's offset moves at this half.

        Removal: an endpoint keeps its old offset exactly when its support
        at that offset (counted over the already-updated graph, everyone
        else at their old offsets) still meets the peeling requirement — and
        if both endpoints hold, no cascade can start.  Insertion: the
        two-vertex mini-peel with every external frozen one step above its
        old offset upper-bounds the endpoints' new offsets; if neither bound
        exceeds the old value, nothing rises.
        """
        if removal:
            seeds = seeds[old[seeds] >= 1]
            levels = old[seeds]
            need = _requirement(adjacency, seeds, primary_side, tau, levels)
            return bool(np.all(_support(adjacency, old, seeds, levels) >= need))
        return bool(np.all(mini.offsets(old, primary_side, tau, shift=1) <= old[mini.gids]))

    def _region_offsets(self, peel: _RegionPeel, primary_side: Side, tau: int) -> np.ndarray:
        """One level/half's offsets of the subgraph ``peel``'s region induces, per id.

        Every edge leaving the region counts as a neighbour at offset 0,
        which supports nobody; ids outside the region read 0.
        """
        offsets = np.zeros(len(self._ids.handles), dtype=np.int64)
        offsets[peel.gids] = peel.offsets(offsets, primary_side, tau)
        return offsets

    def _full_level_offsets(self, tau: int) -> Tuple[np.ndarray, np.ndarray]:
        """Both halves' offsets at one level over every id (the full re-peel)."""
        peel = _RegionPeel(self._ids, np.arange(len(self._ids.handles), dtype=np.int64))
        return (
            self._region_offsets(peel, Side.UPPER, tau),
            self._region_offsets(peel, Side.LOWER, tau),
        )

    def _writable(self, key: Tuple[str, int], name: str) -> np.ndarray:
        """Field ``name`` of level ``key``, copied first if it is still adopted."""
        level = self._levels[key]
        array = getattr(level, name)
        if not array.flags.writeable:
            array = np.array(array)
            self._levels[key] = replace(level, **{name: array})
        return array

    def _splice(
        self,
        tau: int,
        touched: np.ndarray,
        new_a: np.ndarray,
        new_b: np.ndarray,
        seeds: np.ndarray,
    ) -> None:
        """Write one level's recomputed offsets and rebuild the slices they reach.

        Most levels a peel touches end up unchanged, so the patch is driven
        by the vertices whose offsets actually moved: only they, their
        neighbours (whose sorted entries embed the moved offsets) and the
        update's endpoints (whose adjacency changed) get their slices rebuilt
        by :func:`level_slices`, spliced with
        :func:`~repro.index.csr_build.patch_level_arrays` and marked dirty
        in the journal.
        """
        from repro.index.csr_build import patch_level_arrays

        alpha, beta = ("alpha", tau), ("beta", tau)
        offsets_a, offsets_b = self._writable(alpha, "offsets"), self._writable(beta, "offsets")
        moved = (offsets_a[touched] != new_a) | (offsets_b[touched] != new_b)
        changed = touched[moved]
        offsets_a[changed] = new_a[moved]
        offsets_b[changed] = new_b[moved]
        _, nbrs = self._ids.gather(changed)
        rebuild = sorted_unique(np.concatenate((seeds, changed, nbrs)))
        dirty = rebuild.tolist()
        for key, entry_offsets, strict in ((alpha, offsets_a, False), (beta, offsets_b, True)):
            counts, ev, ew, eo = level_slices(
                self._ids, rebuild, offsets_a, entry_offsets, tau, strict
            )
            self._levels[key] = patch_level_arrays(
                self._levels[key], rebuild, counts, ev, ew, eo, _EMPTY_IDS, _EMPTY_IDS
            )
            self._journal.mark_dirty(key, dirty)

    def _reweight_entries(self, gu: int, gv: int, weight: float) -> None:
        """Rewrite the two mirrored entry weights of one edge at every level."""
        for key, level in self._levels.items():
            found = []
            for owner, other in ((gu, gv), (gv, gu)):
                # One slice per endpoint, searched as a list: no numpy call
                # per entry, and cheaper than a vectorised compare on the
                # short slices most vertices have.
                lo, hi = level.indptr[owner : owner + 2].tolist()
                nbrs = level.entry_vertex[lo:hi].tolist()
                if other in nbrs:
                    found.append(lo + nbrs.index(other))
            if not found:
                continue
            self._writable(key, "entry_weight")[found] = weight
            self._journal.mark_dirty(key, (gu, gv))

    # ------------------------------------------------------------------ #
    # incremental degeneracy
    # ------------------------------------------------------------------ #
    def _adjust_degeneracy(self, seeds: np.ndarray, can_grow: bool) -> None:
        # Shrink: level δ exists while its (δ,δ)-core is non-empty.
        while self._delta > 0 and not np.any(
            self._levels[("alpha", self._delta)].offsets >= self._delta
        ):
            self._drop_level(self._delta)
            self._delta -= 1

        if not can_grow:  # removing an edge can never raise the degeneracy
            return
        # Growth: a new (δ+1,δ+1)-core must contain the updated edge, so both
        # endpoints must sit in the current (δ,δ)-core — an O(1) pre-screen
        # that rejects almost every update before the candidate peel runs.
        while True:
            next_tau = self._delta + 1
            if self._delta == 0:
                if self._ids.num_edges == 0:
                    return
                candidates = np.arange(len(self._ids.handles), dtype=np.int64)
            else:
                offsets = self._levels[("alpha", self._delta)].offsets
                if seeds.shape[0] < 2 or np.any(offsets[seeds] < self._delta):
                    return
                candidates = np.flatnonzero(offsets >= self._delta)
            peel = _RegionPeel(self._ids, candidates)
            if not np.any(self._region_offsets(peel, Side.UPPER, next_tau) >= next_tau):
                return
            self._build_fresh_level(next_tau)
            self._delta = next_tau

    def _drop_level(self, tau: int) -> None:
        del self._levels[("alpha", tau)], self._levels[("beta", tau)]
        self._levels_dropped += 1

    def _build_fresh_level(self, tau: int) -> None:
        """A level the maintained index did not have yet: build it in full."""
        from repro.index.csr_build import LevelArrays

        offsets_a, offsets_b = self._full_level_offsets(tau)
        everyone = np.arange(offsets_a.shape[0], dtype=np.int64)
        for half, entry_offsets, strict in (
            ("alpha", offsets_a, False),
            ("beta", offsets_b, True),
        ):
            counts, ev, ew, eo = level_slices(
                self._ids, everyone, offsets_a, entry_offsets, tau, strict
            )
            indptr = np.zeros(everyone.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._levels[(half, tau)] = LevelArrays(
                self._ids.num_upper, indptr, ev, ew, eo, entry_offsets
            )
            self._journal.mark_full((half, tau))
        self._levels_built += 1

    # ------------------------------------------------------------------ #
    def stats(self) -> IndexStats:
        from repro.index.csr_build import level_sizes

        entries, lists = level_sizes(self._levels)
        return IndexStats(
            name="Idelta-dynamic",
            entries=entries,
            adjacency_lists=lists,
            build_seconds=self._build_seconds,
            extra={
                "delta": float(self._delta),
                **self._build_extra,
                "maintenance_seconds": self._maintenance_seconds,
                "updates_applied": float(self._updates_applied),
                "levels_patched": float(self._levels_patched),
                "levels_rebuilt": float(self._levels_rebuilt),
                "levels_built": float(self._levels_built),
                "levels_dropped": float(self._levels_dropped),
                "region_updates": float(self._region_updates),
                "reweight_updates": float(self._reweight_updates),
                "region_mean_vertices": (
                    self._region_vertices_total / self._regions_peeled
                    if self._regions_peeled
                    else 0.0
                ),
                "chain_length": float(self._journal.base_sequence),
                "compactions": float(self._compactions),
                "deltas_folded": float(self._deltas_folded),
            },
        )

    def note_compaction(self, folded_deltas: int) -> None:
        """Record an auto-compaction of this index's snapshot directory.

        Called by :func:`repro.index.serialization.save_index` after a
        policy-triggered fold so ``stats().extra`` reports how many
        compactions ran and how many delta segments they absorbed.
        """
        self._compactions += 1
        self._deltas_folded += folded_deltas
