"""Persisting built indexes to disk.

Index construction is the expensive part of the two-step framework, so real
deployments build once and reuse.  Two on-disk formats share one magic string:

* **version 1 — pickle** (the default here): the index is a plain container
  of tuples and dictionaries, dumped with :mod:`pickle` plus a small JSON
  side-car with human-readable statistics and provenance (backend, package
  version) so operators can tell saved indexes apart without loading them.
  Works for every index type, but re-materialises every dict on load.
* **version 2 — snapshot** (``format="snapshot"``): a directory of raw
  little-endian array segments with a JSON manifest, written by
  :mod:`repro.serving.snapshot` and reopened via ``numpy.memmap`` so the cold
  start is near-instant.  Supported for the degeneracy-family indexes;
  :func:`load_index` transparently detects and opens
  either format.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Dict, Union

from repro.exceptions import IndexConsistencyError, InvalidParameterError
from repro.index.base import CommunityIndex

__all__ = [
    "save_index",
    "load_index",
    "index_stats_path",
    "index_metadata",
    "backend_metadata",
    "SAVE_FORMATS",
    "PICKLE_VERSION",
    "SNAPSHOT_VERSION",
]

PathLike = Union[str, Path]

_MAGIC = "repro-community-index"
PICKLE_VERSION = 1
SNAPSHOT_VERSION = 2

#: Accepted values of :func:`save_index`'s ``format`` parameter.
SAVE_FORMATS = ("pickle", "snapshot")


def index_stats_path(path: PathLike) -> Path:
    """Return the JSON side-car path associated with an index file."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".stats.json")


def index_metadata(index: CommunityIndex) -> Dict[str, str]:
    """Provenance fields shared by the pickle side-car and snapshot manifest.

    Records which engine built the index and which package version wrote the
    file, so operators can tell saved indexes apart without loading them.
    """
    return backend_metadata(str(getattr(index, "backend", "dict")))


def backend_metadata(backend: str) -> Dict[str, str]:
    """:func:`index_metadata` for a base written without an index object."""
    from repro import __version__

    return {"backend": backend, "repro_version": __version__}


def save_index(
    index: CommunityIndex, path: PathLike, format: str = "pickle"
) -> Path:
    """Serialise ``index`` to ``path``.

    ``format="pickle"`` (default, version 1) writes a single file plus its
    ``.stats.json`` side-car; ``format="snapshot"`` (version 2) writes the
    mmap-able directory layout of :func:`repro.serving.snapshot.save_snapshot`
    — ``path`` then names the snapshot directory.

    Saving a maintained :class:`~repro.index.maintenance.DynamicDegeneracyIndex`
    as a snapshot is *incremental*: when the target directory already holds
    the base the index was saved to (or loaded from) and every update since
    stayed inside the base's vertex id space, only a delta segment describing
    the patched level slices is appended
    (:func:`repro.serving.snapshot.save_snapshot_delta`); otherwise a fresh
    full base is written and the old delta chain is cleared.  When the index
    carries a ``max_chain_len`` auto-compaction policy and the append grows
    the chain to that length, the chain is folded into a fresh base on the
    spot (:func:`repro.serving.compaction.compact_snapshot`) and the journal
    re-bound to it.
    """
    if format not in SAVE_FORMATS:
        raise InvalidParameterError(
            f"unknown save format {format!r}; expected one of {SAVE_FORMATS}"
        )
    if format == "snapshot":
        from repro.serving.snapshot import MANIFEST_NAME, save_snapshot, save_snapshot_delta

        journal = getattr(index, "journal", None)
        directory = Path(path)
        if (
            journal is not None
            and journal.can_append_to(str(directory))
            and (directory / MANIFEST_NAME).is_file()
        ):
            if not journal.has_changes:
                return directory  # nothing new since the last segment
            save_snapshot_delta(index, directory)
            _maybe_auto_compact(index, directory)
            return directory
        return save_snapshot(index, path)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"magic": _MAGIC, "version": PICKLE_VERSION, "index": index}
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    stats = index.stats()
    sidecar = {
        "name": stats.name,
        **stats.as_dict(),
        **index_metadata(index),
        "format": "pickle",
        "format_version": PICKLE_VERSION,
    }
    with open(index_stats_path(path), "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
    return path


def _maybe_auto_compact(index: CommunityIndex, directory: Path) -> None:
    """Apply the index's ``max_chain_len`` policy after a delta append.

    Compacting right after the append is the one moment the writer is known
    to have no pending changes, so folding the chain and re-binding the
    journal cannot lose updates.
    """
    policy = getattr(index, "max_chain_len", None)
    if not policy:
        return
    from repro.serving.compaction import compact_snapshot
    from repro.serving.snapshot import snapshot_version

    if snapshot_version(directory) < int(policy):
        return
    report = compact_snapshot(directory, journal=index.journal)
    note = getattr(index, "note_compaction", None)
    if note is not None:
        note(report.folded_deltas)


def load_index(path: PathLike) -> CommunityIndex:
    """Load an index previously written by :func:`save_index`.

    Detects the format from what is on disk: a directory (or a path to a
    snapshot manifest) opens as a version-2 snapshot, anything else as a
    version-1 pickle.  Truncated, non-pickle or otherwise unreadable files
    raise :class:`IndexConsistencyError` naming the path instead of leaking
    raw :mod:`pickle` internals.
    """
    path = Path(path)
    if path.is_dir():
        from repro.serving.snapshot import load_snapshot

        return load_snapshot(path)
    if path.name == "manifest.json" and path.is_file():
        from repro.serving.snapshot import load_snapshot

        return load_snapshot(path.parent)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except OSError:
        raise
    except Exception as exc:  # noqa: BLE001 - unpickling can fail arbitrarily
        raise IndexConsistencyError(
            f"{path} is not a readable community-index file "
            f"(truncated or not a pickle: {exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise IndexConsistencyError(f"{path} is not a serialized community index")
    if payload.get("version") != PICKLE_VERSION:
        raise IndexConsistencyError(
            f"unsupported index version {payload.get('version')!r} in {path}"
        )
    index = payload.get("index")
    if not isinstance(index, CommunityIndex):
        raise IndexConsistencyError(f"{path} does not contain a CommunityIndex")
    _check_adjacency_layout(index, path)
    return index


def _check_adjacency_layout(index: CommunityIndex, path: Path) -> None:
    """Refuse a maintained index whose id adjacency an older layout pickled.

    Unpickling restores only the slots the writer had, so an adjacency
    saved before it kept per-id existence (``alive``) and order (``birth``)
    state would load and then fail on its first structural update.
    """
    adjacency = getattr(index, "_ids", None)
    if adjacency is None:
        return
    from repro.index.maintenance import IdAdjacency

    if not isinstance(adjacency, IdAdjacency):
        return
    missing = [slot for slot in IdAdjacency.__slots__ if not hasattr(adjacency, slot)]
    if missing:
        raise IndexConsistencyError(
            f"{path} holds a maintained index pickled by an older layout "
            f"(its id adjacency lacks {', '.join(missing)}); rebuild the index "
            "from its graph, or save it as a snapshot (`repro build --out DIR`), "
            "which reopens across layout changes"
        )
