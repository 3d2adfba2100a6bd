"""LSM-style compaction: fold a snapshot's delta chain into a fresh base.

Maintained indexes append ``delta-*`` segments
(:func:`~repro.serving.snapshot.save_snapshot_delta`), so cold-start cost
grows linearly with churn — every open replays the whole chain.
:func:`compact_snapshot` bounds that: it replays the chain once, re-freezes
the replayed graph (rewriting the intern table, so ids of long-removed
vertices are dropped), moves the replayed level arrays onto the new id space
with vectorised gathers (:func:`~repro.index.csr_build.remap_level_arrays`)
and writes them as a new base *generation* into the same directory — no index
object and no dict adjacency is rebuilt on the way.

The swap protocol keeps the directory loadable through any crash:

1. the folded base is written into a ``.compact-<gen>`` staging
   subdirectory (itself manifest-last, via the ordinary base writer);
2. its data and label files move into the live directory under
   generation-unique names (``arrays-<gen>.bin``, ``labels-<gen>.*``) that
   no current reader references;
3. the staged manifest — patched to name those files and to carry a
   ``compacted`` record identifying the folded base and chain length — is
   atomically renamed over ``manifest.json``.  This rename *is* the swap:
   before it, readers open the old base + chain; after it, the new base.
4. only then are the old chain segments (tail first, so surviving names
   stay contiguous), the old generation's data/label files and the staging
   directory removed.  A crash inside step 4 leaves already-folded delta
   files behind; the loader recognises them through the ``compacted``
   record and skips them.

Serving processes keep working throughout: workers hold the old generation's
pages mapped (POSIX keeps unlinked inodes alive), and a
:meth:`~repro.serving.server.CommunityServer.reload` picks up the compacted
generation with no downtime.
"""

from __future__ import annotations

import json
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import IndexConsistencyError
from repro.serving.snapshot import (
    DATA_NAME,
    MANIFEST_NAME,
    PathLike,
    SnapshotIndex,
    _read_manifest,
    _write_manifest,
    delta_paths,
    load_snapshot,
    snapshot_version,
    write_base,
)

if TYPE_CHECKING:
    from repro.graph.csr import CSRBipartiteGraph
    from repro.index.csr_build import LevelArrays
    from repro.index.maintenance import MaintenanceJournal

__all__ = ["CompactionReport", "compact_snapshot"]

_STAGING_PREFIX = ".compact-"
_GENERATION_GLOBS = ("arrays-*.bin", "labels-*.json", "labels-*.pkl")


@dataclass(frozen=True)
class CompactionReport:
    """What one :func:`compact_snapshot` call did to a snapshot directory."""

    directory: Path
    previous_id: str
    snapshot_id: str
    folded_deltas: int
    bytes_before: int
    bytes_after: int
    seconds: float

    @property
    def compacted(self) -> bool:
        """False for the no-op case (the chain was already empty)."""
        return self.folded_deltas > 0


def _directory_bytes(directory: Path) -> int:
    return sum(
        path.stat().st_size for path in directory.iterdir() if path.is_file()
    )


def _fold(
    replayed: SnapshotIndex,
) -> "Tuple[CSRBipartiteGraph, Dict[Tuple[str, int], LevelArrays], Dict]":
    """The replayed chain as a base: graph CSR, remapped levels, index record."""
    from repro.graph.csr import freeze
    from repro.index.csr_build import level_sizes, remap_level_arrays

    csr = freeze(replayed.graph)
    global_ids = csr.global_id_map()
    handles = replayed.global_handles()
    new_ids = np.fromiter(
        (global_ids.get(handle, -1) for handle in handles),
        dtype=np.int64,
        count=len(handles),
    )
    alive = np.flatnonzero(new_ids >= 0)
    old_ids = np.full(csr.num_vertices, -1, dtype=np.int64)
    old_ids[new_ids[alive]] = alive
    if bool((old_ids < 0).any()):
        raise IndexConsistencyError(
            f"snapshot at {replayed.directory} replays to a vertex outside its "
            "base id space"
        )
    levels = {
        key: remap_level_arrays(arrays, old_ids, new_ids, csr.num_upper)
        for key, arrays in replayed.level_arrays().items()
    }
    stats = replayed.stats()
    record = stats.as_dict()
    record["entries"], record["adjacency_lists"] = level_sizes(levels)
    record["delta"] = float(replayed.delta)
    index_info = {"name": stats.name, "delta": replayed.delta, "stats": record}
    return csr, levels, index_info


def compact_snapshot(
    directory: PathLike, journal: "Optional[MaintenanceJournal]" = None
) -> CompactionReport:
    """Fold the base + live delta chain at ``directory`` into a fresh base.

    No-op (beyond clearing crashed staging directories) when the chain is
    empty.  The new base is a fresh generation with a new ``snapshot_id``
    and version 0 — see the module docstring for the crash-safe swap
    protocol.

    ``journal``: a maintenance journal bound to the old base (a live
    writer's) is re-bound to the compacted base, so its index keeps
    appending deltas without a full rewrite.  The caller must ensure the
    writer has no pending changes — i.e. compact right after a save — since
    folding only covers what the chain already recorded.
    """
    from repro.graph.csr import resolve_backend
    from repro.index.serialization import backend_metadata

    directory = Path(directory)
    started = time.perf_counter()
    manifest = _read_manifest(directory)
    previous_id = str(manifest.get("snapshot_id", ""))
    for stale in directory.glob(_STAGING_PREFIX + "*"):
        if stale.is_dir():
            shutil.rmtree(stale, ignore_errors=True)
    bytes_before = _directory_bytes(directory)
    chain = snapshot_version(directory)
    if chain == 0:
        # Finish any cleanup a crashed compaction left behind: with no live
        # segments, every delta file present is an already-folded leftover,
        # and every generation file the manifest does not name is orphaned.
        current = {
            str(manifest.get("data", {}).get("file", DATA_NAME)),
            str(manifest.get("labels", {}).get("file", "")),
        }
        for path in reversed(delta_paths(directory)):
            path.with_suffix(".bin").unlink(missing_ok=True)
            path.unlink(missing_ok=True)
        for pattern in _GENERATION_GLOBS:
            for path in directory.glob(pattern):
                if path.name not in current:
                    path.unlink(missing_ok=True)
        return CompactionReport(
            directory=directory,
            previous_id=previous_id,
            snapshot_id=previous_id,
            folded_deltas=0,
            bytes_before=bytes_before,
            bytes_after=_directory_bytes(directory),
            seconds=time.perf_counter() - started,
        )

    old_data = str(manifest.get("data", {}).get("file", DATA_NAME))
    old_labels = str(manifest.get("labels", {}).get("file", ""))

    # Replay the chain once and re-freeze: the folded base's intern table
    # contains exactly the surviving vertices.
    replayed = load_snapshot(directory)
    csr, levels, index_info = _fold(replayed)
    generation = uuid.uuid4().hex[:12]
    staging = directory / f"{_STAGING_PREFIX}{generation}"
    staging.mkdir()
    snapshot_id = write_base(
        staging,
        csr,
        levels,
        index_info,
        backend_metadata(resolve_backend("auto", replayed.graph)),
    )

    staged_manifest = json.loads(
        (staging / MANIFEST_NAME).read_text(encoding="utf-8")
    )
    staged_labels = str(staged_manifest["labels"]["file"])
    data_name = f"arrays-{generation}.bin"
    labels_name = f"labels-{generation}{Path(staged_labels).suffix}"
    (staging / DATA_NAME).replace(directory / data_name)
    (staging / staged_labels).replace(directory / labels_name)
    staged_manifest["data"]["file"] = data_name
    staged_manifest["labels"]["file"] = labels_name
    staged_manifest["compacted"] = {"base_id": previous_id, "sequence": chain}
    # The swap point: one atomic rename retires the old base + chain.
    _write_manifest(directory, MANIFEST_NAME, staged_manifest)

    # Cleanup.  Tail first: if we crash partway, the surviving delta names
    # are still contiguous from 1 and all match the `compacted` record.
    for path in reversed(delta_paths(directory)):
        path.with_suffix(".bin").unlink(missing_ok=True)
        path.unlink(missing_ok=True)
    if old_data != data_name:
        (directory / old_data).unlink(missing_ok=True)
    if old_labels and old_labels != labels_name:
        (directory / old_labels).unlink(missing_ok=True)
    for pattern in _GENERATION_GLOBS:
        for path in directory.glob(pattern):
            if path.name not in (data_name, labels_name):
                path.unlink(missing_ok=True)
    shutil.rmtree(staging, ignore_errors=True)

    if journal is not None:
        journal.bind_base(
            str(directory),
            snapshot_id,
            0,
            replayed.delta,
            csr.num_upper,
            csr.num_vertices,
            csr.global_id_map(),
        )
    return CompactionReport(
        directory=directory,
        previous_id=previous_id,
        snapshot_id=snapshot_id,
        folded_deltas=chain,
        bytes_before=bytes_before,
        bytes_after=_directory_bytes(directory),
        seconds=time.perf_counter() - started,
    )
