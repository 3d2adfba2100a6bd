"""The snapshot store: mmap-able persistence of built community indexes.

The version-1 pickle format (:mod:`repro.index.serialization`) re-materialises
every adjacency dict on load, so opening a large index costs almost as much as
using it.  A *snapshot* instead persists the structures the array-backed query
path actually consumes — the frozen :class:`~repro.graph.csr.CSRBipartiteGraph`
arrays and the flat per-level :class:`~repro.index.csr_build.LevelArrays` —
as raw little-endian segments in one data file, described by a JSON manifest:

``manifest.json``
    magic / version, repro + backend provenance, index statistics, graph
    sizes, the label encoding and one ``{dtype, shape, offset, nbytes}``
    record per array segment.
``arrays.bin``
    every array back to back, 64-byte aligned, in manifest order.
``labels.json`` (or ``labels.pkl``)
    the vertex intern table: upper and lower labels in id order.  JSON when
    the labels survive a JSON round-trip unchanged, pickle otherwise.

:func:`load_snapshot` reads the manifest and the intern table, maps
``arrays.bin`` once read-only, and hands zero-copy views of the segments to a
:class:`SnapshotIndex` — so the cold start is O(manifest + labels) and the
first query faults in only the pages it touches.  Because the mapping is
read-only and shared, any number of processes can reopen the same snapshot
and the OS keeps a single physical copy of the pages — the foundation of the
multi-process :class:`~repro.serving.server.CommunityServer`.

Maintained indexes append ``delta-NNNNN.json``/``.bin`` chain segments
(:func:`save_snapshot_delta`) that the loader replays in sequence;
:func:`repro.serving.compaction.compact_snapshot` periodically folds the base
plus its chain into a fresh *generation* (``arrays-<gen>.bin`` /
``labels-<gen>.*``) swapped in by one atomic manifest replace.  The manifest
names its data and label files explicitly, and after a compaction carries a
``compacted`` record naming the folded base — so delta segments a crashed
compaction cleanup left behind are recognised and skipped instead of
corrupting the chain.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import IndexConsistencyError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.index.base import CommunityIndex, IndexStats
from repro.index.traversal import ArrayLevelIndex

if TYPE_CHECKING:
    from repro.graph.csr import CSRBipartiteGraph
    from repro.index.csr_build import LevelArrays
    from repro.index.maintenance import DynamicDegeneracyIndex
    from repro.index.traversal import ArrayQueryPath

__all__ = [
    "MANIFEST_NAME",
    "DATA_NAME",
    "SnapshotIndex",
    "save_snapshot",
    "save_snapshot_delta",
    "write_base",
    "load_snapshot",
    "load_label_arrays",
    "snapshot_version",
    "delta_paths",
]

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
DATA_NAME = "arrays.bin"
LABELS_JSON_NAME = "labels.json"
LABELS_PICKLE_NAME = "labels.pkl"

#: Delta segment file names: ``delta-00001.json`` + ``delta-00001.bin``.
DELTA_GLOB = "delta-*.json"


def _delta_manifest_name(sequence: int) -> str:
    return f"delta-{sequence:05d}.json"


def _delta_data_name(sequence: int) -> str:
    return f"delta-{sequence:05d}.bin"

#: Segment alignment inside ``arrays.bin``.  One cache line keeps every
#: vectorised gather aligned regardless of the preceding segment's length.
_ALIGNMENT = 64

_GRAPH_FIELDS = ("u_indptr", "u_indices", "u_weights", "l_indptr", "l_indices", "l_weights")
_LEVEL_FIELDS = ("indptr", "entry_vertex", "entry_weight", "entry_offset", "offsets")


def _corrupt(directory: Path, detail: str) -> IndexConsistencyError:
    return IndexConsistencyError(f"snapshot at {directory} is unreadable: {detail}")


def _little_endian(array: "np.ndarray") -> "np.ndarray":
    """Return ``array`` with a little-endian dtype (no copy on LE machines)."""
    dtype = array.dtype
    if dtype.byteorder == ">" or (dtype.byteorder == "=" and np.little_endian is False):
        return array.astype(dtype.newbyteorder("<"))
    return array


# --------------------------------------------------------------------------- #
# saving
# --------------------------------------------------------------------------- #
def _write_segment_file(
    path: Path, items: Iterable[Tuple[str, object]]
) -> Tuple[Dict[str, Dict[str, object]], int]:
    """Write aligned segments to ``path``; return the segment table and size.

    ``items`` yields ``(name, payload)`` pairs where a payload is either a
    numpy array (stored raw little-endian) or ``("pickle", obj)`` for the few
    non-array payloads of the delta format (ops and removed-vertex handles,
    whose labels are arbitrary hashables).

    Crash-safe: segments are staged to a ``.tmp`` sibling and renamed into
    place only once every byte is written and flushed, so a process dying
    mid-save never leaves a torn file under the final name — at worst an
    ignorable ``.tmp`` orphan.  (The manifest referencing the file is written
    afterwards, and atomically, by the callers.)
    """
    segments: Dict[str, Dict[str, object]] = {}
    offset = 0
    staging = path.with_name(path.name + ".tmp")
    try:
        with open(staging, "wb") as handle:
            for name, payload in items:
                padding = (-offset) % _ALIGNMENT
                if padding:
                    handle.write(b"\0" * padding)
                    offset += padding
                if isinstance(payload, tuple) and payload[0] == "pickle":
                    data = pickle.dumps(payload[1], protocol=pickle.HIGHEST_PROTOCOL)
                    record: Dict[str, object] = {"encoding": "pickle"}
                else:
                    array = _little_endian(np.ascontiguousarray(payload))
                    data = array.tobytes()
                    record = {"dtype": array.dtype.str, "shape": list(array.shape)}
                handle.write(data)
                record["offset"] = offset
                record["nbytes"] = len(data)
                segments[name] = record
                offset += len(data)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    staging.replace(path)
    return segments, offset


def _write_manifest(directory: Path, name: str, manifest: Dict) -> None:
    """Write a manifest atomically (staged + rename), always last."""
    staging = directory / (name + ".tmp")
    with open(staging, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    staging.replace(directory / name)


def save_snapshot(index: CommunityIndex, directory: PathLike) -> Path:
    """Persist ``index`` as a version-2 snapshot directory; return its path.

    Supported for the degeneracy-family indexes (anything exposing
    ``export_level_arrays``); other indexes keep the pickle format.  The
    manifest is written last, so a crashed save never looks like a valid
    snapshot.  Any delta segments of a previous base are removed first — they
    describe the old base's id space.  When the index carries a maintenance
    journal (:class:`~repro.index.maintenance.DynamicDegeneracyIndex`), the
    journal is bound to the fresh base so later saves to the same directory
    can append deltas instead of rewriting.
    """
    export = getattr(index, "export_level_arrays", None)
    if export is None:
        raise InvalidParameterError(
            f"{type(index).__name__} does not support the snapshot format; "
            "use save_index(..., format='pickle')"
        )
    from repro.graph.csr import freeze
    from repro.index.serialization import index_metadata

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # Drop any previous manifest before touching the data file: a crash
    # mid-save must never leave an old manifest pointing at new segments.
    (directory / MANIFEST_NAME).unlink(missing_ok=True)
    for stale in directory.glob(DELTA_GLOB):
        stale.unlink(missing_ok=True)
        stale.with_suffix(".bin").unlink(missing_ok=True)
    # A full rewrite uses the canonical file names, so compaction-generation
    # files from the directory's previous life are orphans — drop them too.
    for pattern in ("arrays-*.bin", "labels-*.json", "labels-*.pkl"):
        for stale in directory.glob(pattern):
            stale.unlink(missing_ok=True)

    csr = freeze(index.graph)
    levels = export()
    stats = index.stats()
    delta = int(getattr(index, "delta", 0))
    snapshot_id = write_base(
        directory,
        csr,
        levels,
        {"name": stats.name, "delta": delta, "stats": stats.as_dict()},
        index_metadata(index),
    )
    journal = getattr(index, "journal", None)
    if journal is not None:
        journal.bind_base(
            str(directory),
            snapshot_id,
            0,
            delta,
            csr.num_upper,
            csr.num_vertices,
            csr.global_id_map(),
        )
    return directory


def write_base(
    directory: Path,
    csr: "CSRBipartiteGraph",
    levels: "Dict[Tuple[str, int], LevelArrays]",
    index_info: Dict,
    metadata: Dict[str, str],
) -> str:
    """Write one full base into ``directory``; return its new snapshot id.

    ``levels`` must be in ``csr``'s global id space.  Segments and the label
    table go first and the manifest last, so a crash never leaves a manifest
    naming missing data.
    """
    import uuid

    from repro.index.serialization import SNAPSHOT_VERSION, _MAGIC

    def arrays() -> Iterator[Tuple[str, "np.ndarray"]]:
        for field in _GRAPH_FIELDS:
            yield f"graph/{field}", getattr(csr, field)
        for (half, tau), level in sorted(levels.items()):
            for field in _LEVEL_FIELDS:
                yield f"level/{half}/{tau}/{field}", getattr(level, field)

    segments, size = _write_segment_file(directory / DATA_NAME, arrays())

    labels = {"upper": list(csr.upper_labels), "lower": list(csr.lower_labels)}
    labels_file = _write_labels(directory, labels)

    snapshot_id = uuid.uuid4().hex
    manifest = {
        "magic": _MAGIC,
        "version": SNAPSHOT_VERSION,
        "format": "snapshot",
        "snapshot_id": snapshot_id,
        **metadata,
        "index": index_info,
        "graph": {
            "name": csr.name,
            "num_upper": csr.num_upper,
            "num_lower": csr.num_lower,
            "num_edges": csr.num_edges,
        },
        "labels": {"file": labels_file},
        "data": {"file": DATA_NAME, "size": size},
        "segments": segments,
    }
    _write_manifest(directory, MANIFEST_NAME, manifest)
    return snapshot_id


def save_snapshot_delta(index: "DynamicDegeneracyIndex", directory: PathLike) -> Path:
    """Append one delta segment for a maintained index's pending changes.

    The index's :class:`~repro.index.maintenance.MaintenanceJournal` must be
    bound to ``directory``'s current base (the caller —
    :func:`repro.index.serialization.save_index` — checks and otherwise
    rewrites a full base).  The delta stores, in the *base's* global id
    space: per dirty level the patched vertices' entry slices and offsets
    (or whole replacement arrays for levels the base never had), the applied
    graph operations, and the net set of removed vertices.  The slices are
    cut straight out of the maintained level arrays and moved onto base ids
    with one gather through :meth:`MaintenanceJournal.base_id_map`.  The delta
    manifest is written last, after its data file, so a crashed append never
    leaves a readable-but-dangling chain link.
    """
    directory = Path(directory)
    journal = index.journal
    manifest = _read_manifest(directory)
    if manifest.get("snapshot_id") != journal.base_id:
        raise IndexConsistencyError(
            f"snapshot at {directory} is not the base this index was saved "
            "against; write a fresh snapshot instead"
        )
    from repro.index.csr_build import gather_slices, remap_level_arrays
    from repro.index.serialization import SNAPSHOT_VERSION, _MAGIC, index_metadata

    sequence = journal.base_sequence + 1
    handles = index.global_handles()
    base_ids = journal.base_id_map(handles)
    levels = index.level_arrays()
    delta_value = int(index.delta)
    full_keys = []
    patch_keys = []
    for tau in range(1, delta_value + 1):
        for half in ("alpha", "beta"):
            key = (half, tau)
            if tau > journal.base_delta or key in journal.full_levels:
                full_keys.append(key)
            elif journal.dirty.get(key):
                patch_keys.append(key)

    def payloads() -> Iterator[Tuple[str, object]]:
        # Every base vertex has a maintained id, so inverting the map covers
        # the base id space.
        alive = np.flatnonzero(base_ids >= 0)
        old_ids = np.empty(journal.base_num_vertices, dtype=np.int64)
        old_ids[base_ids[alive]] = alive
        for half, tau in full_keys:
            arrays = remap_level_arrays(
                levels[(half, tau)], old_ids, base_ids, journal.base_num_upper
            )
            for field in _LEVEL_FIELDS:
                yield f"level/{half}/{tau}/{field}", getattr(arrays, field)
        for half, tau in patch_keys:
            dirty = np.fromiter(journal.dirty[(half, tau)], dtype=np.int64)
            gids = base_ids[dirty]
            if bool((gids < 0).any()):  # pragma: no cover - guarded by journal.compatible
                raise IndexConsistencyError(
                    f"an updated vertex has no id in the base snapshot at "
                    f"{directory}; write a fresh snapshot instead"
                )
            order = np.argsort(gids)
            level = levels[(half, tau)]
            counts, ev, ew, eo = gather_slices(level, dirty[order])
            prefix = f"patch/{half}/{tau}"
            yield f"{prefix}/gids", gids[order]
            yield f"{prefix}/counts", counts
            yield f"{prefix}/entry_vertex", base_ids[ev]
            yield f"{prefix}/entry_weight", ew
            yield f"{prefix}/entry_offset", eo
            yield f"{prefix}/offset_values", np.asarray(
                level.offsets[dirty[order]], dtype=np.int64
            )
        yield "ops", ("pickle", list(journal.ops))
        yield "removed", (
            "pickle",
            sorted((handles[gid] for gid in journal.removed), key=repr),
        )

    data_name = _delta_data_name(sequence)
    segments, size = _write_segment_file(directory / data_name, payloads())

    stats = index.stats()
    delta_manifest = {
        "magic": _MAGIC,
        "version": SNAPSHOT_VERSION,
        "kind": "delta",
        "sequence": sequence,
        "base_id": journal.base_id,
        **index_metadata(index),
        "index": {
            "name": stats.name,
            "delta": delta_value,
            "stats": stats.as_dict(),
        },
        "graph": index.graph_summary(),
        "full_levels": [f"{half}/{tau}" for half, tau in full_keys],
        "patched_levels": [f"{half}/{tau}" for half, tau in patch_keys],
        "data": {"file": data_name, "size": size},
        "segments": segments,
    }
    _write_manifest(directory, _delta_manifest_name(sequence), delta_manifest)
    journal.advance(sequence, delta_value)
    return directory


def _write_labels(directory: Path, labels: Dict[str, List[Hashable]]) -> str:
    """Store the intern table as JSON when faithful, pickle otherwise."""
    try:
        text = json.dumps(labels)
        faithful = json.loads(text) == labels
    except (TypeError, ValueError):
        faithful = False
    if faithful:
        (directory / LABELS_JSON_NAME).write_text(text, encoding="utf-8")
        return LABELS_JSON_NAME
    with open(directory / LABELS_PICKLE_NAME, "wb") as handle:
        pickle.dump(labels, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return LABELS_PICKLE_NAME


# --------------------------------------------------------------------------- #
# loading
# --------------------------------------------------------------------------- #
def _segment_reader(directory: Path, manifest: Dict, data_name_default: str) -> "Callable[[str], object]":
    """A closure reading named segments of one (manifest, data file) pair.

    Arrays come back as zero-copy views into a read-only memory map; pickled
    segments (delta ops / removed handles) are decoded eagerly.  Every
    malformed record raises :class:`IndexConsistencyError` naming the path.
    """
    segments = manifest.get("segments")
    if not isinstance(segments, dict):
        raise _corrupt(directory, "manifest has no segment table")
    data_name = manifest.get("data", {}).get("file", data_name_default)
    data_path = directory / data_name
    if not data_path.is_file():
        raise _corrupt(directory, f"data file {data_path.name} is missing")
    actual_size = data_path.stat().st_size
    buffer = (
        np.memmap(data_path, dtype=np.uint8, mode="r") if actual_size else None
    )

    def segment(name: str) -> object:
        spec = segments.get(name)
        if spec is None:
            raise _corrupt(directory, f"segment {name!r} is missing from the manifest")
        try:
            encoding = spec.get("encoding", "raw")
            offset = int(spec["offset"])
            nbytes = int(spec["nbytes"])
            if encoding == "raw":
                dtype = np.dtype(spec["dtype"])
                shape = tuple(int(dim) for dim in spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(directory, f"segment {name!r} has a malformed record") from exc
        if nbytes == 0 and encoding == "raw":
            return np.empty(shape, dtype=dtype)
        if buffer is None or offset + nbytes > actual_size:
            raise _corrupt(
                directory,
                f"segment {name!r} extends past the end of {data_path.name} "
                f"(needs {offset + nbytes} bytes, file has {actual_size})",
            )
        if encoding == "pickle":
            try:
                return pickle.loads(buffer[offset : offset + nbytes].tobytes())
            except Exception as exc:  # noqa: BLE001 - decode failure == corruption
                raise _corrupt(
                    directory, f"segment {name!r} cannot be unpickled ({exc})"
                ) from exc
        try:
            view = np.frombuffer(
                buffer, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
            )
            return view.reshape(shape)
        except ValueError as exc:
            raise _corrupt(
                directory, f"segment {name!r} has an inconsistent record ({exc})"
            ) from exc

    return segment


def delta_paths(directory: PathLike) -> List[Path]:
    """The snapshot's delta manifests, validated as a contiguous chain.

    Raises :class:`IndexConsistencyError` naming the first missing link when
    the on-disk sequence numbers have a gap (a partially copied or tampered
    snapshot directory).
    """
    directory = Path(directory)
    found = sorted(directory.glob(DELTA_GLOB))
    for position, path in enumerate(found, start=1):
        expected = directory / _delta_manifest_name(position)
        if path != expected:
            raise IndexConsistencyError(
                f"snapshot at {directory} is missing delta segment {expected} "
                f"(found {path.name} instead)"
            )
    return found


def snapshot_version(directory: PathLike) -> int:
    """The snapshot's version: the number of *live* delta segments.

    Live means appended to the directory's current base; segments already
    folded into the base by a compaction (and merely awaiting cleanup) do
    not count, so the version resets to 0 when a compaction lands.
    """
    directory = Path(directory)
    return len(_live_chain(directory, _read_manifest(directory)))


def _live_chain(directory: Path, manifest: Dict) -> List[Tuple[Path, Dict]]:
    """Classify the on-disk delta files against ``manifest``'s base.

    Returns the live chain — segments whose ``base_id`` is the manifest's
    ``snapshot_id`` — as ``(path, delta manifest)`` pairs in sequence order.
    Segments matching the manifest's ``compacted`` record instead were
    already folded into this base by a compaction whose cleanup did not
    finish; they are skipped, and because the compactor deletes from the
    tail, a live segment after a folded one is impossible in any crash
    window — finding one (or a segment of any other base) raises
    :class:`IndexConsistencyError`.
    """
    base_id = manifest.get("snapshot_id")
    folded = manifest.get("compacted") or {}
    live: List[Tuple[Path, Dict]] = []
    folded_seen = False
    for position, path in enumerate(delta_paths(directory), start=1):
        delta_manifest = _read_delta_manifest(directory, path, None, position)
        delta_base = delta_manifest.get("base_id")
        if delta_base == base_id:
            if folded_seen:
                raise _corrupt(
                    directory,
                    f"live delta segment {path.name} follows an already-folded one",
                )
            live.append((path, delta_manifest))
        elif delta_base == folded.get("base_id") and position <= int(
            folded.get("sequence", 0)
        ):
            folded_seen = True
        else:
            raise IndexConsistencyError(
                f"delta segment {path} belongs to a different base snapshot "
                f"({delta_base!r})"
            )
    return live


def _read_delta_manifest(directory: Path, path: Path, base_id: Optional[str], sequence: int) -> Dict:
    from repro.index.serialization import SNAPSHOT_VERSION, _MAGIC

    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IndexConsistencyError(
            f"delta segment {path} is unreadable ({exc})"
        ) from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("magic") != _MAGIC
        or manifest.get("kind") != "delta"
    ):
        raise IndexConsistencyError(
            f"delta segment {path} does not describe a community-index delta"
        )
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise IndexConsistencyError(
            f"unsupported delta version {manifest.get('version')!r} in {path}"
        )
    if manifest.get("sequence") != sequence:
        raise IndexConsistencyError(
            f"delta segment {path} carries sequence {manifest.get('sequence')!r}, "
            f"expected {sequence}"
        )
    if base_id is not None and manifest.get("base_id") != base_id:
        raise IndexConsistencyError(
            f"delta segment {path} belongs to a different base snapshot "
            f"({manifest.get('base_id')!r})"
        )
    return manifest


def _parse_level_key(directory: Path, spec: str) -> Tuple[str, int]:
    try:
        half, tau = spec.split("/")
        if half not in ("alpha", "beta"):
            raise ValueError(half)
        return half, int(tau)
    except (ValueError, AttributeError) as exc:
        raise _corrupt(directory, f"malformed level key {spec!r} in a delta") from exc


def load_snapshot(directory: PathLike) -> "SnapshotIndex":
    """Reopen a snapshot written by :func:`save_snapshot`, replaying deltas.

    Only the manifests and the label table are read eagerly; ``arrays.bin``
    is mapped once read-only and every segment becomes a zero-copy view into
    the mapping.  Delta segments appended by
    ``save_index(..., format="snapshot")`` on a maintained index are replayed
    in sequence: whole replacement levels stay zero-copy views into their
    delta's mapping; each patched level collects its patches across the
    chain and is spliced once, into fresh in-memory arrays, keeping the last
    writer of every vertex; the recorded graph operations are kept for lazy
    replay when the materialised graph is first asked for.  Raises
    :class:`IndexConsistencyError` for a missing or corrupted manifest,
    truncated data file, absent segments, or a broken delta chain — always
    naming the path.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    labels = _read_labels(directory, manifest)
    segment = _segment_reader(directory, manifest, DATA_NAME)
    graph_arrays = tuple(segment(f"graph/{field}") for field in _GRAPH_FIELDS)

    from repro.index.csr_build import LevelArrays, merge_level_patches, patch_level_arrays

    num_upper = len(labels["upper"])
    delta = int(manifest.get("index", {}).get("delta", 0))
    levels: Dict[Tuple[str, int], LevelArrays] = {}
    for tau in range(1, delta + 1):
        for half in ("alpha", "beta"):
            prefix = f"level/{half}/{tau}"
            levels[(half, tau)] = LevelArrays(
                num_upper=num_upper,
                **{field: segment(f"{prefix}/{field}") for field in _LEVEL_FIELDS},
            )

    # Patches are collected per level across the whole chain and spliced
    # once at the end; a full replacement resets its level's pending
    # patches and a δ shrink drops the vanished levels' ones.
    pending: Dict[Tuple[str, int], List[Tuple]] = {}
    pending_ops: List[Tuple] = []
    removed: set = set()
    version = 0
    graph_info: Optional[Dict] = None
    index_info: Optional[Dict] = None
    for path, delta_manifest in _live_chain(directory, manifest):
        version += 1
        read = _segment_reader(directory, delta_manifest, path.with_suffix(".bin").name)
        for spec in delta_manifest.get("full_levels", ()):
            half, tau = _parse_level_key(directory, spec)
            prefix = f"level/{half}/{tau}"
            levels[(half, tau)] = LevelArrays(
                num_upper=num_upper,
                **{field: read(f"{prefix}/{field}") for field in _LEVEL_FIELDS},
            )
            pending.pop((half, tau), None)
        for spec in delta_manifest.get("patched_levels", ()):
            half, tau = _parse_level_key(directory, spec)
            key = (half, tau)
            if key not in levels:
                raise _corrupt(
                    directory,
                    f"delta {path.name} patches level {spec} absent from the base",
                )
            prefix = f"patch/{half}/{tau}"
            pending.setdefault(key, []).append(
                tuple(
                    read(f"{prefix}/{field}")
                    for field in (
                        "gids",
                        "counts",
                        "entry_vertex",
                        "entry_weight",
                        "entry_offset",
                        "offset_values",
                    )
                )
            )
        delta = int(delta_manifest.get("index", {}).get("delta", delta))
        for key in [k for k in levels if k[1] > delta]:
            del levels[key]
            pending.pop(key, None)
        ops = read("ops")
        for op in ops:
            if op[0] == "insert":
                removed.discard(Vertex(Side.UPPER, op[1]))
                removed.discard(Vertex(Side.LOWER, op[2]))
        removed.update(read("removed"))
        pending_ops.extend(ops)
        graph_info = delta_manifest.get("graph", graph_info)
        index_info = delta_manifest.get("index", index_info)
    for key, patches in pending.items():
        gids, counts, ev, ew, eo, values = merge_level_patches(patches)
        levels[key] = patch_level_arrays(
            levels[key], gids, counts, ev, ew, eo, gids, values,
            allow_in_place=False,
        )

    if index_info is not None:
        merged = dict(manifest)
        merged["index"] = index_info
        if graph_info is not None:
            merged["graph"] = {**manifest.get("graph", {}), **graph_info}
        manifest = merged
    return SnapshotIndex(
        directory,
        manifest,
        labels["upper"],
        labels["lower"],
        levels,
        graph_arrays,
        pending_ops=pending_ops,
        removed=removed,
        version=version,
    )


def _read_manifest(directory: Path) -> Dict:
    from repro.index.serialization import SNAPSHOT_VERSION, _MAGIC

    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise IndexConsistencyError(
            f"{directory} is not a community-index snapshot (no {MANIFEST_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _corrupt(directory, f"manifest is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != _MAGIC:
        raise _corrupt(directory, "manifest magic does not identify a community index")
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise _corrupt(
            directory, f"unsupported snapshot version {manifest.get('version')!r}"
        )
    return manifest


def load_label_arrays(directory: PathLike) -> "Tuple[np.ndarray, np.ndarray]":
    """Just a snapshot's intern table, as numpy object arrays.

    The cheap parent-side half of answer assembly: a
    :class:`~repro.serving.server.CommunityServer` translates the edge-id
    arrays its workers return into labelled graphs with these, without ever
    mapping the index segments itself.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    labels = _read_labels(directory, manifest)
    upper_arr = np.empty(len(labels["upper"]), dtype=object)
    upper_arr[:] = labels["upper"]
    lower_arr = np.empty(len(labels["lower"]), dtype=object)
    lower_arr[:] = labels["lower"]
    return upper_arr, lower_arr


def _read_labels(directory: Path, manifest: Dict) -> Dict[str, List[Hashable]]:
    name = manifest.get("labels", {}).get("file", LABELS_JSON_NAME)
    path = directory / name
    if not path.is_file():
        raise _corrupt(directory, f"label table {name} is missing")
    try:
        if name.endswith(".json"):
            labels = json.loads(path.read_text(encoding="utf-8"))
        else:
            with open(path, "rb") as handle:
                labels = pickle.load(handle)
    except Exception as exc:  # noqa: BLE001 - any decode failure means corruption
        raise _corrupt(directory, f"label table {name} is unreadable ({exc})") from exc
    if (
        not isinstance(labels, dict)
        or not isinstance(labels.get("upper"), list)
        or not isinstance(labels.get("lower"), list)
    ):
        raise _corrupt(directory, f"label table {name} has an unexpected layout")
    return labels


# --------------------------------------------------------------------------- #
# the array-only index
# --------------------------------------------------------------------------- #
class SnapshotIndex(ArrayLevelIndex, CommunityIndex):
    """A read-only community index answering queries straight off a snapshot.

    Query semantics are identical to the :class:`DegeneracyIndex` the snapshot
    was written from (the shared :class:`~repro.index.traversal.ArrayLevelIndex`
    queries), but every retrieval runs
    :func:`~repro.index.traversal.bfs_over_arrays` over the memory-mapped
    level segments.  The indexed graph itself is only
    thawed (into a mutable :class:`BipartiteGraph`) if something asks for it.
    """

    def __init__(
        self,
        directory: Path,
        manifest: Dict,
        upper_labels: List[Hashable],
        lower_labels: List[Hashable],
        levels: Dict[Tuple[str, int], object],
        graph_arrays: Tuple,
        pending_ops: Optional[List[Tuple]] = None,
        removed: Optional[set] = None,
        version: int = 0,
    ) -> None:
        super().__init__(None)  # the graph is thawed lazily on first access
        self._directory = Path(directory)
        self._manifest = manifest
        self._upper_labels = upper_labels
        self._lower_labels = lower_labels
        self._levels = levels
        self._graph_arrays = graph_arrays
        self._pending_ops = pending_ops or []
        self._removed = removed or set()
        self._version = version
        self._delta = int(manifest.get("index", {}).get("delta", 0))
        self._array_path = None
        self._csr = None
        self._global_handles: Optional[List[Vertex]] = None

    # ------------------------------------------------------------------ #
    # provenance / lazy materialisation
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The snapshot directory this index is serving from."""
        return self._directory

    @property
    def delta(self) -> int:
        """The degeneracy of the snapshotted graph."""
        return self._delta

    @property
    def backend(self) -> str:
        """The construction backend recorded when the snapshot was written."""
        return str(self._manifest.get("backend", "csr"))

    @property
    def snapshot_id(self) -> str:
        """The base snapshot's identity (delta segments must match it)."""
        return str(self._manifest.get("snapshot_id", ""))

    @property
    def version(self) -> int:
        """How many delta segments were replayed on top of the base."""
        return self._version

    @property
    def num_upper(self) -> int:
        """Upper-layer size of the base id space (dead ids included)."""
        return len(self._upper_labels)

    def global_handles(self) -> List[Vertex]:
        """Vertex handles of the base id space in global id order (cached).

        After delta replay some handles may refer to vertices the updates
        removed; their level offsets are zero and their entry slices empty,
        so they are unreachable from every query.
        """
        if self._global_handles is None:
            self._global_handles = [
                Vertex(Side.UPPER, label) for label in self._upper_labels
            ] + [Vertex(Side.LOWER, label) for label in self._lower_labels]
        return self._global_handles

    @property
    def graph(self) -> BipartiteGraph:
        """The indexed graph, thawed from the mapped CSR arrays on demand.

        For a delta-replayed snapshot the recorded maintenance operations
        are applied on top of the thawed base, reproducing exactly the graph
        the maintained index held when the delta was written.
        """
        if self._graph is None:
            graph = self.base_csr().thaw()
            for op in self._pending_ops:
                if op[0] == "insert":
                    graph.add_edge(op[1], op[2], op[3])
                else:
                    graph.remove_edge(op[1], op[2])
                    graph.discard_isolated()
            self._graph = graph
        return self._graph

    def csr_graph(self) -> "CSRBipartiteGraph":
        """The snapshotted graph as a :class:`CSRBipartiteGraph` (cached)."""
        if self._csr is None:
            from repro.graph.csr import freeze

            self._csr = freeze(self.graph) if self._pending_ops else self.base_csr()
        return self._csr

    def base_csr(self) -> "CSRBipartiteGraph":
        """The base's graph over its mapped arrays, without the deltas' ops."""
        from repro.graph.csr import CSRBipartiteGraph

        return CSRBipartiteGraph(
            str(self._manifest.get("graph", {}).get("name", "")),
            self._upper_labels,
            self._lower_labels,
            *self._graph_arrays,
        )

    @property
    def pending_ops(self) -> List[Tuple]:
        """The graph operations of the replayed deltas, oldest first."""
        return self._pending_ops

    def query_path(self) -> "ArrayQueryPath":
        """The array query engine over the mapped segments (built once)."""
        if self._array_path is None:
            from repro.index.traversal import ArrayQueryPath

            path = ArrayQueryPath(self._upper_labels, self._lower_labels)
            for key, arrays in self._levels.items():
                path.set_level(key, arrays)
            self._array_path = path
        return self._array_path

    def _contains_vertex(self, vertex: Vertex) -> bool:
        """Base-id-space membership minus the vertices deltas removed."""
        return self.query_path().has_vertex(vertex) and vertex not in self._removed

    # ------------------------------------------------------------------ #
    def stats(self) -> IndexStats:
        """The statistics recorded at save time (no structures are walked)."""
        meta = self._manifest.get("index", {})
        stored = dict(meta.get("stats", {}))
        entries = int(stored.pop("entries", 0))
        adjacency_lists = int(stored.pop("adjacency_lists", 0))
        build_seconds = float(stored.pop("build_seconds", 0.0))
        extra = {key: float(value) for key, value in stored.items()}
        return IndexStats(
            name=str(meta.get("name", "snapshot")),
            entries=entries,
            adjacency_lists=adjacency_lists,
            build_seconds=build_seconds,
            extra=extra,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        graph = self._manifest.get("graph", {})
        return (
            f"<SnapshotIndex {str(self._directory)!r} delta={self._delta} "
            f"|U|={graph.get('num_upper')} |L|={graph.get('num_lower')} "
            f"|E|={graph.get('num_edges')}>"
        )
