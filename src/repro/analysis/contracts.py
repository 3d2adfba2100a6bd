"""The declared invariants of this repository, in one reviewable place.

Every checker is parameterised by :class:`~repro.analysis.core.AnalysisConfig`;
this module builds the config describing the real tree.  Editing these
tables is how the contracts evolve: adding a vectorised kernel means adding
its twin registration — and the diff review sees the contract change next to
the code change.
"""

from __future__ import annotations

from repro.analysis.core import AnalysisConfig, TwinPair

#: The kernel ↔ pure-python twin registry.  ``aliases`` maps kernel
#: parameter spellings onto the twin's; ``kernel_only``/``twin_only`` name
#: the representation-specific parameters each side legitimately has alone.
#: Pairs with ``signature=False`` align structurally rather than
#: positionally — only their docstring ``Contract:`` lines are compared.
TWIN_REGISTRY = (
    TwinPair(
        kernel="repro.decomposition.csr_kernels:csr_offsets_fixed_primary",
        twin="repro.decomposition.offsets:_offsets_for_fixed_primary",
        aliases={"threshold": "primary_threshold"},
        kernel_only=("csr",),
        twin_only=("degrees", "neighbors"),
    ),
    TwinPair(
        kernel="repro.decomposition.csr_kernels:csr_region_offsets_fixed_primary",
        twin="repro.decomposition.offsets:region_offsets_fixed_primary",
        kernel_only=(
            "csr",
            "ext_owner_u",
            "ext_offset_u",
            "ext_owner_l",
            "ext_offset_l",
        ),
        twin_only=("internal", "external"),
    ),
    TwinPair(
        kernel="repro.index.traversal:bfs_over_arrays",
        twin="repro.index.traversal:bfs_over_lists",
        aliases={"query_id": "query"},
        kernel_only=(
            "level",
            "upper_label_arr",
            "lower_label_arr",
            "visited",
            "return_members",
            "assemble",
        ),
        twin_only=("lists",),
    ),
    TwinPair(
        kernel="repro.index.csr_build:build_level_arrays",
        twin="repro.index.csr_build:level_arrays_from_dicts",
        signature=False,
    ),
    TwinPair(
        kernel="repro.index.csr_build:patch_level_arrays",
        twin="repro.index.maintenance:DynamicDegeneracyIndex._apply_level_patch",
        signature=False,
    ),
    TwinPair(
        kernel="repro.index.parallel_build:_parallel_payloads",
        twin="repro.index.parallel_build:_sequential_payloads",
        kernel_only=("jobs",),
    ),
)

#: Entry points of the zero-materialisation contract: the array/snapshot
#: query path and the serving worker shard loop.  Nothing statically
#: reachable from these may construct a dict graph or thaw a CSR one.
MATERIALISATION_ENTRY_POINTS = (
    "repro.index.traversal:ArrayQueryPath.community_edges",
    "repro.index.traversal:ArrayQueryPath.significant_edges",
    "repro.serving.snapshot:SnapshotIndex.batch_community_edges",
    "repro.serving.snapshot:SnapshotIndex.batch_significant_edges",
    "repro.index.degeneracy_index:DegeneracyIndex.batch_significant_edges",
    "repro.serving.worker:worker_main",
)

#: Methods of the array-query protocol: attribute calls through these names
#: resolve (by name, project-wide) even when the receiver's type is not
#: statically known — ``path.community_edges(...)`` must be followed into
#: every project definition of ``community_edges``.
MATERIALISATION_DISPATCH = (
    "community_edges",
    "significant_edges",
    "batch_community_edges",
    "batch_significant_edges",
)

#: Dict-graph constructors and assembly helpers (rule MAT001/MAT003) and
#: materialising attribute calls (rule MAT002).
MATERIALISATION_BANNED_CALLS = (
    "BipartiteGraph",
    "bfs_over_lists",
    "_graph_from_edge_arrays",
)
MATERIALISATION_BANNED_ATTRS = (
    "thaw",
    "_from_mirrored_adjacency",
    "assemble_community",
    "materialise",
    "_materialise",
)

#: Reachable-but-not-traversed functions, with the justification the docs
#: surface.  Keep this list short: every entry is a hole in the contract.
MATERIALISATION_PRUNED = {
    "repro.index.degeneracy_index:DegeneracyIndex.__init__": (
        "index construction is the build path; serving entry points receive "
        "a prebuilt index (CommunitySearcher(index=...) never rebuilds)"
    ),
}

#: Modules whose dtypes must be explicit fixed-width (snapshot segments are
#: little-endian on disk; ``_little_endian`` normalises at write time, so
#: fixed-width native spellings like ``np.int64`` are fine — width-less or
#: platform-dependent ones are not).
SNAPSHOT_MODULES = (
    "repro.serving.snapshot",
    "repro.serving.compaction",
    "repro.index.csr_build",
    "repro.index.serialization",
)

#: Modules where broad silent exception swallows are banned (SNAP002).
SNAPSHOT_EXCEPTION_MODULES = SNAPSHOT_MODULES + (
    "repro.serving.answer_cache",
    "repro.serving.frontend",
    "repro.serving.server",
    "repro.serving.supervisor",
    "repro.serving.worker",
    "repro.serving.wire",
)

#: Modules whose segment views are read-only memory maps: no in-place
#: writes into mapped names (SNAP003), and every ``patch_level_arrays``
#: call must pass ``allow_in_place=False`` (SNAP004).
SNAPSHOT_READONLY_MODULES = ("repro.serving.snapshot",)


def default_config() -> AnalysisConfig:
    """The :class:`AnalysisConfig` describing this repository."""
    return AnalysisConfig(
        twin_registry=TWIN_REGISTRY,
        materialisation_entry_points=MATERIALISATION_ENTRY_POINTS,
        materialisation_dispatch=MATERIALISATION_DISPATCH,
        materialisation_banned_calls=MATERIALISATION_BANNED_CALLS,
        materialisation_banned_attrs=MATERIALISATION_BANNED_ATTRS,
        materialisation_pruned=MATERIALISATION_PRUNED,
        snapshot_modules=SNAPSHOT_MODULES,
        snapshot_exception_modules=SNAPSHOT_EXCEPTION_MODULES,
        snapshot_readonly_modules=SNAPSHOT_READONLY_MODULES,
    )


__all__ = [
    "MATERIALISATION_BANNED_ATTRS",
    "MATERIALISATION_BANNED_CALLS",
    "MATERIALISATION_DISPATCH",
    "MATERIALISATION_ENTRY_POINTS",
    "MATERIALISATION_PRUNED",
    "SNAPSHOT_EXCEPTION_MODULES",
    "SNAPSHOT_MODULES",
    "SNAPSHOT_READONLY_MODULES",
    "TWIN_REGISTRY",
    "default_config",
]
