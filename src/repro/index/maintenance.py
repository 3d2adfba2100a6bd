"""The incremental maintenance engine of the degeneracy-bounded index.

The paper's maintenance section observes that after inserting or removing an
edge ``(u, v)`` only a bounded *candidate region* around the edge — the S⁺
(insertion) / S⁻ (removal) sets — can change its offsets at any level, and
only those vertices' index entries need recomputing.  This module implements
that outline as three cooperating pieces:

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

**Region peel** (:class:`_RegionPeel`)
    The candidate region is re-peeled with every edge leaving it frozen at
    the outside endpoint's old offset (an outside vertex belongs to the
    (τ,β)-core exactly when its old offset is ≥ β, so it supports its region
    neighbour for secondary targets up to that offset).  Because vertices
    outside the closure provably keep their offsets, the frozen peel is
    *exact* — no verification pass is needed.  It runs on the vectorised CSR
    kernels
    (:func:`~repro.decomposition.csr_kernels.csr_region_offsets_fixed_primary`)
    for CSR-backed indexes and larger regions, and on the pure-python twin
    (:func:`~repro.decomposition.offsets.region_offsets_fixed_primary`)
    otherwise.  A closure that outgrows the region budget sends just that
    level down the full re-peel fallback.

**Patch applier**
    Level results are applied change-driven: only vertices whose offsets
    moved, their neighbours (whose sorted entries embed those offsets) and
    the edge's endpoints get their adjacency lists rebuilt — in the dict
    stores *and*, via :func:`~repro.index.csr_build.patch_level_arrays`,
    in any materialised :class:`~repro.index.csr_build.LevelArrays` of the
    array query path, so a maintained index keeps answering batch queries on
    the fast array path instead of invalidating it on every update.  Every
    patch is also recorded in a :class:`MaintenanceJournal` so
    ``save_index(format="snapshot")`` can persist just the delta next to an
    existing base snapshot (:mod:`repro.serving.snapshot`).

Degeneracy is adjusted incrementally too: a single edge update moves δ by at
most one, growth is pre-screened by an O(1) endpoint check before the (rare)
candidate-core peel, and shrink is detected from patched per-level core sizes
without touching the rest of the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.graph.csr import CSRBipartiteGraph
    from repro.index.csr_build import LevelArrays
    from repro.index.traversal import AdjacencyLists
    from repro.serving.snapshot import SnapshotIndex

from repro.decomposition.abcore import abcore_vertices
from repro.decomposition.offsets import region_offsets_fixed_primary
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.views import induced_subgraph
from repro.index.base import IndexStats
from repro.index.degeneracy_index import DegeneracyIndex
from repro.utils.timer import Timer

__all__ = [
    "DEFAULT_REGION_BUDGET",
    "plan_level_region",
    "MaintenanceJournal",
    "DynamicDegeneracyIndex",
]

#: Default cap on the number of vertices an S⁺/S⁻ candidate region may
#: contain before that level's maintenance falls back to a full re-peel.
DEFAULT_REGION_BUDGET = 4096

#: Candidate regions at least this large peel on the CSR kernels (when the
#: index backend is CSR); below it the python peel wins on constant factors.
_REGION_CSR_THRESHOLD = 32


# --------------------------------------------------------------------------- #
# region planning — the S⁺ / S⁻ candidate closure
# --------------------------------------------------------------------------- #
def plan_level_region(
    graph: BipartiteGraph,
    old_offsets: Dict[Vertex, int],
    primary_side: Side,
    threshold: int,
    seeds: Sequence[Vertex],
    removal: bool,
    budget: Optional[int] = None,
) -> Optional[List[Vertex]]:
    """The candidate set whose offsets can change at one level and half.

    The closure exploits two structural facts of a single edge update: a
    *non-endpoint* offset moves by at most one, and every changed vertex has
    a changed neighbour that caused it (the change chains back to the
    updated edge).  Expansion therefore needs two gates:

    * a **trigger** — a candidate neighbour whose potential move crosses the
      vertex's old offset: for a non-endpoint that means equal old offsets;
      an endpoint (which may move multiple steps) triggers every neighbour
      on the relevant side of its own offset;
    * a **feasibility test**:

      - **S⁻ (removal)** counts *pressure* dynamically: drops are forced one
        by one (each needs an earlier actual drop to cause it), so a vertex
        can drop only once more of its candidate supporters may cross its
        old offset than it has slack — support above the peeling
        requirement.  This keeps the closure to the genuinely threatened
        vertices even on large equal-offset plateaus.
      - **S⁺ (insertion)** must be optimistic, because rises can be mutual
        (a group may only be able to rise together): a vertex is a candidate
        as soon as every neighbour that *might* reach ``old + 1`` (those at
        or above its old offset, plus endpoints) covers the requirement at
        that target.  The region peel afterwards prunes the optimism.

    Vertices outside the returned set provably keep their offsets, so
    peeling the candidates with external support frozen at the old offsets
    is exact.  Returns ``None`` when the closure exceeds ``budget`` — the
    caller then re-peels the level in full.
    """
    endpoint_set = set(seeds)
    candidates: Set[Vertex] = set(endpoint_set)
    ordered: List[Vertex] = list(candidates)
    queue: deque[Vertex] = deque(ordered)
    rejected: Set[Vertex] = set()
    slack: Dict[Vertex, int] = {}
    pressure: Dict[Vertex, int] = {}
    while queue:
        candidate = queue.popleft()
        offset_c = old_offsets.get(candidate, 0)
        is_endpoint = candidate in endpoint_set
        other = candidate.side.other
        for nbr_label in graph.neighbors(candidate.side, candidate.label):
            vertex = Vertex(other, nbr_label)
            if vertex in candidates or vertex in rejected:
                continue
            offset_x = old_offsets.get(vertex, 0)
            if removal:
                if offset_x < 1:
                    continue  # already at the floor
                crossed = offset_c >= offset_x if is_endpoint else offset_c == offset_x
                if not crossed:
                    continue
                if vertex not in slack:
                    need = threshold if vertex.side is primary_side else offset_x
                    mirror = vertex.side.other
                    lookup = old_offsets.get
                    support = 0
                    for m_label in graph.neighbors(vertex.side, vertex.label):
                        if lookup(Vertex(mirror, m_label), 0) >= offset_x:
                            support += 1
                    slack[vertex] = support - need
                    pressure[vertex] = 0
                pressure[vertex] += 1
                if pressure[vertex] <= slack[vertex]:
                    continue
            else:
                helps = offset_c <= offset_x if is_endpoint else offset_c == offset_x
                if not helps:
                    continue
                need = threshold if vertex.side is primary_side else offset_x + 1
                mirror = vertex.side.other
                lookup = old_offsets.get
                support = 0
                for m_label in graph.neighbors(vertex.side, vertex.label):
                    m = Vertex(mirror, m_label)
                    if m in endpoint_set or lookup(m, 0) >= offset_x:
                        support += 1
                        if support >= need:
                            break
                if support < need:
                    rejected.add(vertex)
                    continue
            candidates.add(vertex)
            ordered.append(vertex)
            queue.append(vertex)
            if budget is not None and len(candidates) > budget:
                return None
    return ordered


class _RegionPeel:
    """One candidate region's peel context: adjacency split internal/external.

    The CSR variant freezes the region into a private sub-CSR (unweighted —
    the peel never looks at weights) and runs the vectorised region kernel;
    tiny regions stay on the python peel, whose constant factors win below
    :data:`_REGION_CSR_THRESHOLD` vertices.
    """

    def __init__(
        self, graph: BipartiteGraph, vertices: Sequence[Vertex], backend: str
    ) -> None:
        region = set(vertices)
        self._internal: Dict[Vertex, Tuple[Vertex, ...]] = {}
        self._external: Dict[Vertex, Tuple[Vertex, ...]] = {}
        for vertex in vertices:
            other = vertex.side.other
            internal: List[Vertex] = []
            external: List[Vertex] = []
            for nbr_label in graph.neighbors(vertex.side, vertex.label):
                nbr = Vertex(other, nbr_label)
                (internal if nbr in region else external).append(nbr)
            self._internal[vertex] = tuple(internal)
            if external:
                self._external[vertex] = tuple(external)
        self._csr = None
        self._ext_arrays = None
        if backend == "csr" and len(region) >= _REGION_CSR_THRESHOLD:
            self._freeze_region()

    def _freeze_region(self) -> None:
        from repro.graph.csr import CSRBipartiteGraph

        uppers = [v for v in self._internal if v.side is Side.UPPER]
        lowers = [v for v in self._internal if v.side is Side.LOWER]
        upper_ids = {v: i for i, v in enumerate(uppers)}
        lower_ids = {v: i for i, v in enumerate(lowers)}

        def layer(
            vertices: List[Vertex], other_ids: Dict[Vertex, int]
        ) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
            indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
            indices: List[int] = []
            for i, vertex in enumerate(vertices):
                indices.extend(
                    other_ids[nbr] for nbr in self._internal[vertex]
                )
                indptr[i + 1] = len(indices)
            idx = np.array(indices, dtype=np.int64)
            return indptr, idx, np.zeros(idx.shape[0], dtype=np.float64)

        self._csr = CSRBipartiteGraph(
            "region",
            [v.label for v in uppers],
            [v.label for v in lowers],
            *layer(uppers, lower_ids),
            *layer(lowers, upper_ids),
        )
        self._uppers, self._lowers = uppers, lowers
        owner_u: List[int] = []
        handles_u: List[Vertex] = []
        owner_l: List[int] = []
        handles_l: List[Vertex] = []
        for vertex, external in self._external.items():
            if vertex.side is Side.UPPER:
                owner, handles, i = owner_u, handles_u, upper_ids[vertex]
            else:
                owner, handles, i = owner_l, handles_l, lower_ids[vertex]
            owner.extend([i] * len(external))
            handles.extend(external)
        self._ext_arrays = (
            np.array(owner_u, dtype=np.int64),
            handles_u,
            np.array(owner_l, dtype=np.int64),
            handles_l,
        )

    def offsets(
        self,
        old_offsets: Dict[Vertex, int],
        primary_side: Side,
        threshold: int,
        shift: int = 0,
    ) -> Dict[Vertex, int]:
        """Region offsets at one level/half, external support frozen at old.

        Exact when the region is an S⁺/S⁻ candidate closure: every vertex
        outside it provably keeps its old offset, so an outside neighbour
        supports its region owner for secondary targets up to exactly that
        old offset.  ``shift=1`` instead freezes every external one step
        *above* its old offset (clamped at 0 from below) — the admissible
        optimum for an insertion, turning the peel into an upper bound used
        by the endpoint pre-screen.
        """
        if self._csr is not None:
            from repro.decomposition.csr_kernels import (
                csr_region_offsets_fixed_primary,
            )

            owner_u, handles_u, owner_l, handles_l = self._ext_arrays
            off_u, off_l = csr_region_offsets_fixed_primary(
                self._csr,
                owner_u,
                [max(old_offsets.get(h, 0) + shift, 0) for h in handles_u],
                owner_l,
                [max(old_offsets.get(h, 0) + shift, 0) for h in handles_l],
                primary_side,
                threshold,
            )
            result = dict(zip(self._uppers, off_u.tolist()))
            result.update(zip(self._lowers, off_l.tolist()))
            return result
        external = {
            vertex: [max(old_offsets.get(nbr, 0) + shift, 0) for nbr in ext]
            for vertex, ext in self._external.items()
        }
        return region_offsets_fixed_primary(
            self._internal, external, primary_side, threshold
        )


# --------------------------------------------------------------------------- #
# the patch journal
# --------------------------------------------------------------------------- #
@dataclass
class MaintenanceJournal:
    """What changed since the index was last persisted as a snapshot.

    The journal stores no entry data — the dict stores are always current —
    only *which* vertices of which levels are dirty, the applied graph
    operations, and the net set of vertices the updates removed.  Encoding a
    delta then reads the live stores for exactly the dirty vertices.  A base
    binding (directory, snapshot id, global-id map of the base's label order)
    is attached when the index is saved to / loaded from a snapshot;
    ``compatible`` turns False once an update introduces a vertex the base id
    space has never seen, at which point the next save rewrites a full
    snapshot instead of appending a delta.
    """

    ops: List[Tuple[str, Hashable, Hashable, float]] = field(default_factory=list)
    removed: Set[Vertex] = field(default_factory=set)
    dirty: Dict[Tuple[str, int], Set[Vertex]] = field(default_factory=dict)
    full_levels: Set[Tuple[str, int]] = field(default_factory=set)
    base_directory: Optional[str] = None
    base_id: Optional[str] = None
    base_sequence: int = 0
    base_delta: int = 0
    base_num_upper: int = 0
    base_num_vertices: int = 0
    base_global_ids: Optional[Dict[Vertex, int]] = None
    compatible: bool = True

    @property
    def has_changes(self) -> bool:
        return bool(self.ops or self.removed or self.dirty or self.full_levels)

    def record_insert(self, upper_label: Hashable, lower_label: Hashable, weight: float) -> None:
        self.ops.append(("insert", upper_label, lower_label, weight))
        self.removed.discard(Vertex(Side.UPPER, upper_label))
        self.removed.discard(Vertex(Side.LOWER, lower_label))

    def record_remove(self, upper_label: Hashable, lower_label: Hashable) -> None:
        self.ops.append(("remove", upper_label, lower_label, 0.0))

    def record_removed_vertices(self, vertices: Iterable[Vertex]) -> None:
        self.removed.update(vertices)

    def note_vertex(self, vertex: Vertex) -> None:
        """A (possibly new) vertex entered the graph."""
        if self.base_global_ids is not None and vertex not in self.base_global_ids:
            self.compatible = False

    def mark_dirty(self, key: Tuple[str, int], vertices: Iterable[Vertex]) -> None:
        if key in self.full_levels:
            return
        self.dirty.setdefault(key, set()).update(vertices)

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
        self.ops = []
        self.removed = set()
        self.dirty = {}
        self.full_levels = set()
        self.base_directory = directory
        self.base_id = snapshot_id
        self.base_sequence = sequence
        self.base_delta = delta
        self.base_num_upper = num_upper
        self.base_num_vertices = num_vertices
        self.base_global_ids = global_ids
        self.compatible = True

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


# --------------------------------------------------------------------------- #
# the maintained index
# --------------------------------------------------------------------------- #
class DynamicDegeneracyIndex(DegeneracyIndex):
    """A :class:`DegeneracyIndex` that absorbs edge updates by region patching.

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
        # Index a private copy so external mutation of the original graph
        # cannot silently desynchronise the index.  Either construction
        # backend works: both produce the same dict structures this class
        # patches during maintenance.
        super().__init__(graph.copy(), backend=backend, n_jobs=n_jobs)
        self._region_budget = region_budget
        self.max_chain_len = max_chain_len
        self._finish_init()

    def _finish_init(self) -> None:
        self._maintenance_seconds = 0.0
        self._updates_applied = 0
        # Vertices isolated from the start are the only ones besides an
        # update's own endpoints that discard_isolated() can ever drop; track
        # them once so their index entries are purged when that happens.
        self._pending_isolated: List[Vertex] = [
            vertex
            for vertex in self._graph.vertices()
            if self._graph.degree_of(vertex) == 0
        ]
        self._core_sizes: Dict[int, int] = {
            tau: sum(1 for offset in offsets.values() if offset >= tau)
            for tau, offsets in self._alpha_offsets.items()
        }
        self._journal = MaintenanceJournal()
        # True while the array path's id space enumerates exactly the graph's
        # current vertices (required before a full snapshot export).
        self._path_matches_graph = True
        # observability
        self._levels_patched = 0
        self._levels_rebuilt = 0
        self._levels_built = 0
        self._levels_dropped = 0
        self._region_updates = 0
        self._regions_peeled = 0
        self._reweight_updates = 0
        self._region_vertices_total = 0
        self._arrays_patched = 0
        self._arrays_invalidated = 0
        self._arrays_dropped = 0
        self._compactions = 0
        self._deltas_folded = 0

    @classmethod
    def from_snapshot(
        cls, snapshot: "SnapshotIndex", max_chain_len: Optional[int] = None
    ) -> "DynamicDegeneracyIndex":
        """Reopen a persisted snapshot as a mutable, maintainable index.

        The dict stores are reconstructed from the snapshot's flat level
        arrays (one linear pass per level — no from-scratch peel), and the
        journal is bound to the snapshot's directory so the next
        ``save_index(..., format="snapshot")`` to the same directory appends
        a delta instead of rewriting the base.  ``max_chain_len`` installs
        the auto-compaction policy, as in the constructor.
        """
        from repro.graph.csr import resolve_backend
        from repro.index.csr_build import level_dicts_from_arrays

        graph = snapshot.graph.copy()
        self = cls.__new__(cls)
        # Manual field initialisation: DegeneracyIndex.__init__ would trigger
        # a full rebuild, which from_snapshot exists to avoid.
        self._region_budget = DEFAULT_REGION_BUDGET
        self.max_chain_len = max_chain_len
        self._graph = graph
        self._backend = resolve_backend("auto", graph)
        self._n_jobs = 1
        self._delta = snapshot.delta
        self._alpha_lists = {}
        self._beta_lists = {}
        self._alpha_offsets = {}
        self._beta_offsets = {}
        self._array_path = None
        self._build_seconds = 0.0
        self._build_extra = {}
        handles = snapshot.global_handles()
        alive = [
            handle
            if handle is not None and graph.has_vertex(handle.side, handle.label)
            else None
            for handle in handles
        ]
        for (half, tau), arrays in snapshot.level_arrays().items():
            offsets, lists = level_dicts_from_arrays(
                arrays, alive, tau, alpha_half=(half == "alpha")
            )
            if half == "alpha":
                self._alpha_offsets[tau] = offsets
                self._alpha_lists[tau] = lists
            else:
                self._beta_offsets[tau] = offsets
                self._beta_lists[tau] = lists
        self._finish_init()
        self._journal.bind_base(
            str(snapshot.directory),
            snapshot.snapshot_id,
            snapshot.version,
            snapshot.delta,
            snapshot.num_upper,
            len(handles),
            {handle: gid for gid, handle in enumerate(handles)},
        )
        return self

    # ------------------------------------------------------------------ #
    # public update API
    # ------------------------------------------------------------------ #
    def insert_edge(
        self, upper_label: Hashable, lower_label: Hashable, weight: float = 1.0
    ) -> None:
        """Insert (or re-weight) an edge and patch the affected index levels."""
        with Timer() as timer:
            reweight = self._graph.has_edge(upper_label, lower_label)
            self._graph.add_edge(upper_label, lower_label, weight)
            self._journal.record_insert(upper_label, lower_label, weight)
            for vertex in (
                Vertex(Side.UPPER, upper_label),
                Vertex(Side.LOWER, lower_label),
            ):
                self._journal.note_vertex(vertex)
                self._note_vertex_for_arrays(vertex)
            if reweight:
                # Offsets depend only on the structure: a pure re-weight
                # touches nothing but the two mirrored entry weights per level.
                self._reweight_updates += 1
                self._reweight_entries(upper_label, lower_label, weight)
            else:
                self._refresh_after_update(upper_label, lower_label)
        self._maintenance_seconds += timer.elapsed
        self._updates_applied += 1

    def remove_edge(self, upper_label: Hashable, lower_label: Hashable) -> None:
        """Remove an edge and patch the affected index levels."""
        with Timer() as timer:
            self._graph.remove_edge(upper_label, lower_label)
            self._graph.discard_isolated()
            self._journal.record_remove(upper_label, lower_label)
            self._refresh_after_update(upper_label, lower_label, can_grow=False)
        self._maintenance_seconds += timer.elapsed
        self._updates_applied += 1

    @property
    def journal(self) -> MaintenanceJournal:
        """The pending-changes journal consumed by snapshot delta saves."""
        return self._journal

    @property
    def region_budget(self) -> int:
        return self._region_budget

    # ------------------------------------------------------------------ #
    # array-path bookkeeping
    # ------------------------------------------------------------------ #
    def _note_vertex_for_arrays(self, vertex: Vertex) -> None:
        """Drop the array path when a never-seen vertex enters the graph.

        A vertex that vanished earlier and comes back reuses its old global
        id (labels are interned for the path's lifetime), so only genuinely
        new labels force a rebuild of the id space.
        """
        path = self._array_path
        if path is not None and not path.has_vertex(vertex):
            self._array_path = None
            self._path_matches_graph = True
            self._arrays_invalidated += 1

    def export_level_arrays(self) -> "Dict[Tuple[str, int], LevelArrays]":
        """See :meth:`DegeneracyIndex.export_level_arrays`.

        A maintained index may carry dead ids in its array path (vertices
        removed since the path was built); a full snapshot export needs the
        id space to match the graph exactly, so the path is rebuilt first
        when they diverged.
        """
        if not self._path_matches_graph:
            self._array_path = None
            self._path_matches_graph = True
        return super().export_level_arrays()

    # ------------------------------------------------------------------ #
    # vanished-vertex bookkeeping (unchanged semantics from the component era)
    # ------------------------------------------------------------------ #
    def _vanished_vertices(
        self, upper_label: Hashable, lower_label: Hashable
    ) -> Tuple[Vertex, ...]:
        """Vertices dropped from the graph by the current update.

        Removing an edge can newly isolate (and thus discard) only its own
        two endpoints; the only other vertices ``discard_isolated`` can drop
        are the ones isolated since construction, tracked in
        ``self._pending_isolated``.
        """
        candidates = [Vertex(Side.UPPER, upper_label), Vertex(Side.LOWER, lower_label)]
        if self._pending_isolated:
            candidates.extend(self._pending_isolated)
            self._pending_isolated = [
                vertex
                for vertex in self._pending_isolated
                if self._graph.has_vertex(vertex.side, vertex.label)
            ]
        return tuple(
            vertex
            for vertex in candidates
            if not self._graph.has_vertex(vertex.side, vertex.label)
        )

    def _purge_vertices(self, vertices: Tuple[Vertex, ...]) -> None:
        """Drop every index entry owned by ``vertices`` and patch the arrays."""
        if not vertices:
            return
        self._journal.record_removed_vertices(vertices)
        for tau, offsets in self._alpha_offsets.items():
            for vertex in vertices:
                if offsets.get(vertex, 0) >= tau:
                    self._core_sizes[tau] = self._core_sizes.get(tau, 0) - 1
        for stores in (
            self._alpha_offsets,
            self._beta_offsets,
            self._alpha_lists,
            self._beta_lists,
        ):
            for level in stores.values():
                for vertex in vertices:
                    level.pop(vertex, None)
        for tau in self._alpha_offsets:
            for half in ("alpha", "beta"):
                self._journal.mark_dirty((half, tau), vertices)
        path = self._array_path
        if path is None:
            return
        self._path_matches_graph = False
        wiped = [
            gid for gid in (path.global_id(v) for v in vertices) if gid is not None
        ]
        if not wiped:
            return
        from repro.index.csr_build import entries_to_patch_arrays, patch_level_arrays

        gids, counts, ev, ew, eo = entries_to_patch_arrays({g: [] for g in wiped})
        zeros = np.zeros(gids.shape[0], dtype=np.int64)
        for key in path.level_keys():
            path.set_level(
                key,
                patch_level_arrays(
                    path.level(key), gids, counts, ev, ew, eo, gids, zeros
                ),
            )

    # ------------------------------------------------------------------ #
    # the update pipeline
    # ------------------------------------------------------------------ #
    def _affected_levels(
        self, upper_label: Hashable, lower_label: Hashable, removal: bool
    ) -> List[int]:
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
        u = Vertex(Side.UPPER, upper_label)
        v = Vertex(Side.LOWER, lower_label)
        affected: List[int] = []
        if removal:
            for tau in range(1, self._delta + 1):
                sa = self._alpha_offsets.get(tau, {})
                sb = self._beta_offsets.get(tau, {})
                if (sa.get(u, 0) >= 1 and sa.get(v, 0) >= 1) or (
                    sb.get(u, 0) >= 1 and sb.get(v, 0) >= 1
                ):
                    affected.append(tau)
        else:
            cap = max(
                self._graph.degree(Side.UPPER, upper_label),
                self._graph.degree(Side.LOWER, lower_label),
            )
            affected.extend(range(1, min(self._delta, cap) + 1))
        return affected

    def _refresh_after_update(
        self, upper_label: Hashable, lower_label: Hashable, can_grow: bool = True
    ) -> None:
        levels = self._affected_levels(upper_label, lower_label, removal=not can_grow)
        self._purge_vertices(self._vanished_vertices(upper_label, lower_label))
        endpoints = [
            vertex
            for vertex in (
                Vertex(Side.UPPER, upper_label),
                Vertex(Side.LOWER, lower_label),
            )
            if self._graph.has_vertex(vertex.side, vertex.label)
        ]
        if endpoints and levels:
            self._region_updates += 1
            self._patch_levels(endpoints, levels, removal=not can_grow)
        self._adjust_degeneracy(endpoints, can_grow)

    def _patch_levels(
        self, endpoints: Sequence[Vertex], levels: Sequence[int], removal: bool
    ) -> None:
        """Re-peel each affected level inside its S⁺/S⁻ candidate region.

        The first changed vertex of any cascade is an endpoint (the updated
        edge is the only thing that changed), so each level and half is
        pre-screened by asking only whether an *endpoint* moves there: a
        removal is screened with an exact support count at the endpoint's
        old offset, an insertion with a two-vertex optimistic mini-peel that
        upper-bounds the endpoints' new offsets.  Levels that pass touch
        nothing but the endpoints' own entry lists.  Levels that fail get a
        candidate closure per half, peeled with the frozen-boundary kernels
        — exact, because non-candidates provably keep their offsets.  Only a
        closure that blows past the region budget sends its level down the
        full re-peel fallback.
        """
        frozen = None
        full_vertices: Optional[List[Vertex]] = None
        mini = None if removal else _RegionPeel(self._graph, endpoints, "dict")
        for tau in levels:
            if tau > self._delta:  # pragma: no cover - defensive
                break
            sa_old = self._alpha_offsets.get(tau, {})
            sb_old = self._beta_offsets.get(tau, {})
            halves = []
            overflow = False
            for primary, old in ((Side.UPPER, sa_old), (Side.LOWER, sb_old)):
                if self._endpoints_hold(endpoints, old, primary, tau, removal, mini):
                    halves.append(None)
                    continue
                region = plan_level_region(
                    self._graph, old, primary, tau, endpoints, removal,
                    self._region_budget,
                )
                if region is None:
                    overflow = True
                    break
                new = _RegionPeel(self._graph, region, self._backend).offsets(
                    old, primary, tau
                )
                self._region_vertices_total += len(region)
                self._regions_peeled += 1
                halves.append((region, new))
            if overflow:
                # The closure outgrew the budget: re-peel the whole graph at
                # this level (other components diff to no-ops in the patch).
                if frozen is None and self._backend == "csr":
                    from repro.graph.csr import freeze

                    frozen = freeze(self._graph)
                if full_vertices is None:
                    full_vertices = list(self._graph.vertices())
                sa_new = self._full_level_offsets(tau, Side.UPPER, frozen)
                sb_new = self._full_level_offsets(tau, Side.LOWER, frozen)
                self._apply_level_patch(tau, full_vertices, sa_new, sb_new, endpoints)
                self._levels_rebuilt += 1
                continue
            merged: Set[Vertex] = set(endpoints)
            for half in halves:
                if half is not None:
                    merged.update(half[0])
            touched = list(merged)
            sa_new = halves[0][1] if halves[0] else {}
            sb_new = halves[1][1] if halves[1] else {}
            sa_new = {v: sa_new.get(v, sa_old.get(v, 0)) for v in touched}
            sb_new = {v: sb_new.get(v, sb_old.get(v, 0)) for v in touched}
            self._apply_level_patch(tau, touched, sa_new, sb_new, endpoints)
            self._levels_patched += 1

    def _endpoints_hold(
        self,
        endpoints: Sequence[Vertex],
        old: Dict[Vertex, int],
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
        graph = self._graph
        if removal:
            for vertex in endpoints:
                offset = old.get(vertex, 0)
                if offset < 1:
                    continue
                need = tau if vertex.side is primary_side else offset
                other = vertex.side.other
                support = 0
                for nbr_label in graph.neighbors(vertex.side, vertex.label):
                    if old.get(Vertex(other, nbr_label), 0) >= offset:
                        support += 1
                        if support >= need:
                            break
                if support < need:
                    return False
            return True
        bounds = mini.offsets(old, primary_side, tau, shift=1)
        return all(bounds[vertex] <= old.get(vertex, 0) for vertex in endpoints)

    def _full_level_offsets(
        self, tau: int, primary_side: Side, frozen: "Optional[CSRBipartiteGraph]"
    ) -> Dict[Vertex, int]:
        """One level's offsets over the whole graph (the budget fallback)."""
        if frozen is not None:
            from repro.decomposition.csr_kernels import csr_offsets_fixed_primary
            from repro.decomposition.offsets import offsets_dict_from_arrays

            off_u, off_l = csr_offsets_fixed_primary(frozen, primary_side, tau)
            return offsets_dict_from_arrays(frozen, off_u, off_l)
        from repro.decomposition.offsets import alpha_offsets, beta_offsets

        if primary_side is Side.UPPER:
            return alpha_offsets(self._graph, tau, backend="dict")
        return beta_offsets(self._graph, tau, backend="dict")

    def _apply_level_patch(
        self,
        tau: int,
        touched: Sequence[Vertex],
        sa_new: Dict[Vertex, int],
        sb_new: Dict[Vertex, int],
        endpoints: Sequence[Vertex],
    ) -> None:
        """Splice one level's recomputed offsets into dicts and arrays.

        Most levels a peel touches end up unchanged, so the patch is driven
        by the vertices whose offsets actually moved: only they, their
        neighbours (whose sorted entries embed the moved offsets) and the
        update's endpoints (whose adjacency changed) get their lists rebuilt,
        spliced into the arrays and marked dirty in the journal.  Changed
        vertices are always interior (the pinch verified the boundary), so
        every rebuilt list stays inside the peeled region.

        Contract: splice recomputed per-vertex entries and offsets of one level; vertices outside the patched set are untouched.
        """
        sa = self._alpha_offsets.setdefault(tau, {})
        sb = self._beta_offsets.setdefault(tau, {})
        alpha_lists = self._alpha_lists.setdefault(tau, {})
        beta_lists = self._beta_lists.setdefault(tau, {})
        graph = self._graph

        changed: List[Vertex] = []
        core_delta = 0
        for vertex in touched:
            new_a = sa_new[vertex]
            new_b = sb_new[vertex]
            if sa.get(vertex, 0) != new_a or sb.get(vertex, 0) != new_b or vertex not in sa:
                changed.append(vertex)
                core_delta += (new_a >= tau) - (sa.get(vertex, 0) >= tau)
                sa[vertex] = new_a
                sb[vertex] = new_b
        self._core_sizes[tau] = self._core_sizes.get(tau, 0) + core_delta

        rebuild: Set[Vertex] = set(endpoints)
        for vertex in changed:
            rebuild.add(vertex)
            other = vertex.side.other
            rebuild.update(
                Vertex(other, nbr_label)
                for nbr_label in graph.neighbors(vertex.side, vertex.label)
            )

        for vertex in rebuild:
            if sa.get(vertex, 0) < tau:
                alpha_lists.pop(vertex, None)
                beta_lists.pop(vertex, None)
                continue
            other = vertex.side.other
            alpha_entries: List[Tuple[Vertex, float, int]] = []
            beta_entries: List[Tuple[Vertex, float, int]] = []
            for nbr_label, weight in graph.neighbors(vertex.side, vertex.label).items():
                nbr = Vertex(other, nbr_label)
                nbr_sa = sa.get(nbr, 0)
                if nbr_sa >= tau:
                    alpha_entries.append((nbr, weight, nbr_sa))
                nbr_sb = sb.get(nbr, 0)
                if nbr_sb > tau:
                    beta_entries.append((nbr, weight, nbr_sb))
            alpha_entries.sort(key=lambda entry: -entry[2])
            beta_entries.sort(key=lambda entry: -entry[2])
            alpha_lists[vertex] = alpha_entries
            if beta_entries:
                beta_lists[vertex] = beta_entries
            else:
                beta_lists.pop(vertex, None)

        if not rebuild:
            return
        rebuild_list = list(rebuild)
        for half in ("alpha", "beta"):
            self._journal.mark_dirty((half, tau), rebuild_list)
        self._patch_arrays(tau, rebuild_list, sa, sb, alpha_lists, beta_lists)

    def _patch_arrays(
        self,
        tau: int,
        touched: Sequence[Vertex],
        sa: Dict[Vertex, int],
        sb: Dict[Vertex, int],
        alpha_lists: AdjacencyLists,
        beta_lists: AdjacencyLists,
    ) -> None:
        """Splice the patched vertices into any materialised level arrays."""
        path = self._array_path
        if path is None:
            return
        from repro.index.csr_build import entries_to_patch_arrays, patch_level_arrays

        for half, offsets, lists in (
            ("alpha", sa, alpha_lists),
            ("beta", sb, beta_lists),
        ):
            key = (half, tau)
            if not path.has_level(key):
                continue  # will be converted lazily from the patched dicts
            updates: Dict[int, List[Tuple[int, float, int]]] = {}
            offset_gids: List[int] = []
            offset_values: List[int] = []
            encodable = True
            for vertex in touched:
                gid = path.global_id(vertex)
                if gid is None:  # pragma: no cover - new vertices drop the path
                    encodable = False
                    break
                encoded: List[Tuple[int, float, int]] = []
                for nbr, weight, offset in lists.get(vertex) or ():
                    nbr_gid = path.global_id(nbr)
                    if nbr_gid is None:  # pragma: no cover - same guard
                        encodable = False
                        break
                    encoded.append((nbr_gid, weight, offset))
                if not encodable:
                    break
                updates[gid] = encoded
                offset_gids.append(gid)
                offset_values.append(offsets.get(vertex, 0))
            if not encodable:
                path.drop_level(key)
                self._arrays_dropped += 1
                continue
            gids, counts, ev, ew, eo = entries_to_patch_arrays(updates)
            path.set_level(
                key,
                patch_level_arrays(
                    path.level(key),
                    gids,
                    counts,
                    ev,
                    ew,
                    eo,
                    np.array(offset_gids, dtype=np.int64),
                    np.array(offset_values, dtype=np.int64),
                ),
            )
            self._arrays_patched += 1

    def _reweight_entries(
        self, upper_label: Hashable, lower_label: Hashable, weight: float
    ) -> None:
        """Rewrite the two mirrored entry weights of one edge at every level."""
        u = Vertex(Side.UPPER, upper_label)
        v = Vertex(Side.LOWER, lower_label)
        for tau in range(1, self._delta + 1):
            for lists in (self._alpha_lists.get(tau), self._beta_lists.get(tau)):
                if not lists:
                    continue
                for owner, other in ((u, v), (v, u)):
                    entries = lists.get(owner)
                    if not entries:
                        continue
                    for i, (nbr, _, offset) in enumerate(entries):
                        if nbr == other:
                            entries[i] = (nbr, weight, offset)
                            break
            for half in ("alpha", "beta"):
                self._journal.mark_dirty((half, tau), (u, v))
        path = self._array_path
        if path is None:
            return
        gid_u, gid_v = path.global_id(u), path.global_id(v)
        if gid_u is None or gid_v is None:  # pragma: no cover - guarded upstream
            return
        for key in path.level_keys():
            arrays = path.level(key)
            writable = arrays.entry_weight.flags.writeable
            for owner, other in ((gid_u, gid_v), (gid_v, gid_u)):
                lo, hi = int(arrays.indptr[owner]), int(arrays.indptr[owner + 1])
                for pos in range(lo, hi):
                    if int(arrays.entry_vertex[pos]) == other:
                        if not writable:  # pragma: no cover - snapshot-backed path
                            path.drop_level(key)
                            self._arrays_dropped += 1
                        else:
                            arrays.entry_weight[pos] = weight
                        break
                if not writable:
                    break
            else:
                self._arrays_patched += 1

    # ------------------------------------------------------------------ #
    # incremental degeneracy
    # ------------------------------------------------------------------ #
    def _adjust_degeneracy(self, endpoints: Sequence[Vertex], can_grow: bool) -> None:
        # Shrink: the patched core sizes say whether the (δ,δ)-core survived.
        while self._delta > 0 and self._core_sizes.get(self._delta, 0) <= 0:
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
                if self._graph.num_edges == 0:
                    return
                candidates: Optional[Set[Vertex]] = None
            else:
                offsets = self._alpha_offsets[self._delta]
                if len(endpoints) < 2 or any(
                    offsets.get(vertex, 0) < self._delta for vertex in endpoints
                ):
                    return
                candidates = {
                    vertex
                    for vertex, offset in offsets.items()
                    if offset >= self._delta
                }
            scope = (
                self._graph
                if candidates is None
                else induced_subgraph(self._graph, candidates)
            )
            core = abcore_vertices(scope, next_tau, next_tau, backend="dict")
            if not core:
                return
            self._build_fresh_level(next_tau)
            self._delta = next_tau

    def _drop_level(self, tau: int) -> None:
        self._alpha_lists.pop(tau, None)
        self._beta_lists.pop(tau, None)
        self._alpha_offsets.pop(tau, None)
        self._beta_offsets.pop(tau, None)
        self._core_sizes.pop(tau, None)
        self._levels_dropped += 1
        path = self._array_path
        if path is not None:
            path.drop_level(("alpha", tau))
            path.drop_level(("beta", tau))

    def _build_fresh_level(self, tau: int) -> None:
        """A level the maintained index did not have yet: build it in full."""
        self._build_level(tau)
        self._core_sizes[tau] = sum(
            1 for offset in self._alpha_offsets[tau].values() if offset >= tau
        )
        self._levels_built += 1
        for half in ("alpha", "beta"):
            self._journal.mark_full((half, tau))
        # The fresh level's arrays are converted lazily from the new dicts.

    # ------------------------------------------------------------------ #
    def stats(self) -> IndexStats:
        stats = super().stats()
        stats.name = "Idelta-dynamic"
        patch_attempts = self._arrays_patched + self._arrays_invalidated + self._arrays_dropped
        stats.extra.update(
            {
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
                "arrays_patched": float(self._arrays_patched),
                "arrays_invalidated": float(self._arrays_invalidated),
                "arrays_dropped": float(self._arrays_dropped),
                "arrays_patch_hit_rate": (
                    self._arrays_patched / patch_attempts if patch_attempts else 1.0
                ),
                "chain_length": float(self._journal.base_sequence),
                "compactions": float(self._compactions),
                "deltas_folded": float(self._deltas_folded),
            }
        )
        return stats

    def note_compaction(self, folded_deltas: int) -> None:
        """Record an auto-compaction of this index's snapshot directory.

        Called by :func:`repro.index.serialization.save_index` after a
        policy-triggered fold so ``stats().extra`` reports how many
        compactions ran and how many delta segments they absorbed.
        """
        self._compactions += 1
        self._deltas_folded += folded_deltas
