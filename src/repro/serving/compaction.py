"""LSM-style compaction: fold a snapshot's delta chain into a fresh base.

Maintained indexes append ``delta-*`` segments
(:func:`~repro.serving.snapshot.save_snapshot_delta`), so cold-start cost
grows linearly with churn — every open replays the whole chain.
:func:`compact_snapshot` bounds that: it replays the chain once, re-freezes
the result (rewriting the intern table, so ids of long-removed vertices are
dropped), and writes a new base *generation* into the same directory.

The swap protocol keeps the directory loadable through any crash:

1. the folded index is saved into a ``.compact-<gen>`` staging subdirectory
   (itself manifest-last, via the ordinary snapshot writer);
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
from typing import TYPE_CHECKING, Optional

from repro.serving.snapshot import (
    DATA_NAME,
    MANIFEST_NAME,
    PathLike,
    _read_manifest,
    _write_manifest,
    delta_paths,
    load_snapshot,
    save_snapshot,
    snapshot_version,
)

if TYPE_CHECKING:
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
    from repro.index.maintenance import DynamicDegeneracyIndex

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

    # Replay the chain once and re-freeze: the folded index's intern table
    # contains exactly the surviving vertices.
    folded = DynamicDegeneracyIndex.from_snapshot(load_snapshot(directory))
    generation = uuid.uuid4().hex[:12]
    staging = directory / f"{_STAGING_PREFIX}{generation}"
    save_snapshot(folded, staging)

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

    snapshot_id = str(staged_manifest.get("snapshot_id", ""))
    if journal is not None:
        staged = folded.journal  # bound to the staging dir by save_snapshot
        journal.bind_base(
            str(directory),
            snapshot_id,
            0,
            staged.base_delta,
            staged.base_num_upper,
            staged.base_num_vertices,
            staged.base_global_ids,
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
