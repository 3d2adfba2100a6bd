"""Worker supervision and snapshot-change detection for the serving tier.

Two pieces make the fleet self-healing:

* :class:`SupervisedCommunityServer` — a :class:`CommunityServer` whose
  reaction to a crashed worker is to respawn it and reship the in-flight
  shards it lost, instead of tearing the fleet down.  A per-batch respawn
  budget bounds the retry loop: a query mix that reliably kills workers
  (e.g. an OOM-sized component) still surfaces a single typed
  :class:`~repro.exceptions.ServingError` rather than respawning forever.

* :class:`SnapshotWatcher` — a poll-based change detector over a snapshot
  directory.  It fingerprints the manifest (mtime, base ``snapshot_id``)
  *and* the live delta-chain length, because delta appends add segment files
  without rewriting ``manifest.json``; either a new delta or a compacted
  generation flips the signature.  The network front end polls one of these
  to trigger :meth:`CommunityServer.reload` automatically when a maintenance
  writer publishes a new version.

Both are pure stdlib and numpy-free: the watcher only reads JSON manifests.
"""

from __future__ import annotations

import logging
import multiprocessing
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError, ServingError
from repro.serving.server import CommunityServer
from repro.serving.snapshot import MANIFEST_NAME, _live_chain, _read_manifest

_logger = logging.getLogger(__name__)

__all__ = ["SupervisedCommunityServer", "SnapshotWatcher"]

PathLike = Union[str, Path]


class SupervisedCommunityServer(CommunityServer):
    """A community server that survives worker crashes.

    When a worker dies (segfault, OOM kill, ``kill -9``) the base server
    aborts the whole batch with a :class:`ServingError`.  This subclass
    instead:

    1. reaps the dead process, abandons its private task queue (whose
       internal read lock the corpse may still hold) and result pipe (which
       may hold a torn frame) — the reason both are private per worker in the
       first place — and forks a replacement with fresh ones,
    2. reships every shard of the in-flight batch that has not produced a
       result yet (shards the dead worker never took are re-enqueued too —
       duplicates are harmless because shard results are idempotent and the
       gather loop ignores repeats),
    3. gives up with one typed :class:`ServingError` once a single batch has
       burned through ``max_respawns_per_batch`` respawns, so a
       deterministically lethal query cannot crash-loop the fleet.

    ``respawns`` counts replacements over the server's lifetime (reloads
    restart the fleet but keep the counter).  :meth:`ensure_workers` offers
    the same healing between batches, for an idle-loop caller like the
    network front end's watch task.
    """

    def __init__(
        self,
        snapshot: Union[PathLike, "object"],
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        shards_per_worker: int = 4,
        cleanup_snapshot: bool = False,
        batch_timeout: Optional[float] = None,
        max_respawns_per_batch: int = 3,
    ) -> None:
        super().__init__(
            snapshot,
            num_workers=num_workers,
            start_method=start_method,
            shards_per_worker=shards_per_worker,
            cleanup_snapshot=cleanup_snapshot,
            batch_timeout=batch_timeout,
        )
        if max_respawns_per_batch < 0:
            raise ServingError(
                f"max_respawns_per_batch must be >= 0, got {max_respawns_per_batch}"
            )
        self._max_respawns_per_batch = max_respawns_per_batch
        self._respawns = 0

    @property
    def respawns(self) -> int:
        """Total workers respawned over this server's lifetime."""
        return self._respawns

    def _handle_worker_death(
        self, dead: Sequence[multiprocessing.Process]
    ) -> None:
        self._batch_crashes += len(dead)
        if self._batch_crashes > self._max_respawns_per_batch:
            names = ", ".join(p.name for p in dead)
            self.stop(_cleanup=False)
            raise ServingError(
                f"worker process(es) kept crashing ({self._batch_crashes} "
                f"deaths, budget {self._max_respawns_per_batch}; last: "
                f"{names}) — giving up on this batch"
            )
        replacements = [
            self._replace_worker(self._processes.index(process)) for process in dead
        ]
        self._respawns += len(dead)
        _logger.warning(
            "respawned %d crashed worker(s): %s -> %s",
            len(dead),
            ", ".join(p.name for p in dead),
            ", ".join(p.name for p in replacements),
        )
        # Reship what the dead workers may have lost: every still-pending
        # shard of the in-flight batch, spread over the replacements' fresh
        # queues.  A shard that a live worker is quietly computing gets
        # answered twice; the gather loop discards the duplicate.  (During
        # start() there is no in-flight batch — the replacement's "ready"
        # message is all that is needed.)
        if self._inflight is not None:
            batch_id, kind, queries, options, bounds, pending = self._inflight
            fresh = [self._task_queues[self._processes.index(p)]
                     for p in replacements]
            for position, shard_id in enumerate(sorted(pending)):
                lo, hi = bounds[shard_id]
                fresh[position % len(fresh)].put(
                    (batch_id, shard_id, kind, queries[lo:hi], options)
                )

    def ensure_workers(self) -> int:
        """Respawn workers that died while idle; returns how many.

        Non-blocking with respect to batches: if another thread holds the
        fleet lock (a batch is in flight, with its own crash handling) this
        returns 0 immediately instead of queueing behind it.
        """
        if not self._fleet_lock.acquire(blocking=False):
            return 0
        try:
            if not self._processes:
                return 0
            dead = [p for p in self._processes if p.exitcode is not None]
            if not dead:
                return 0
            self._batch_crashes = 0
            self._handle_worker_death(dead)
            return len(dead)
        finally:
            self._fleet_lock.release()


class SnapshotWatcher:
    """Detect version changes of a snapshot directory by polling.

    The signature is ``(manifest mtime_ns, base snapshot_id, live delta
    count)``: a compaction rewrites the manifest (new mtime and usually a new
    base id), while a delta append only adds a segment file — hence the
    chain length in the signature.  :meth:`poll` returns True exactly when
    the signature moved since the last successful read; transient read
    failures (a writer mid-publish) are treated as "no change" and logged at
    debug level, never raised.
    """

    def __init__(self, directory: PathLike) -> None:
        self._directory = Path(directory)
        self._signature = self._read_signature()

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def signature(self) -> Optional[Tuple]:
        """The last successfully read signature (None before the first)."""
        return self._signature

    def _read_signature(self) -> Optional[Tuple]:
        try:
            mtime_ns = (self._directory / MANIFEST_NAME).stat().st_mtime_ns
            manifest = _read_manifest(self._directory)
            version = len(_live_chain(self._directory, manifest))
        except (ReproError, OSError, ValueError) as exc:
            _logger.debug("snapshot watcher read failed on %s: %r",
                          self._directory, exc)
            return None
        return (mtime_ns, str(manifest.get("snapshot_id", "")), version)

    def poll(self) -> bool:
        """True when the snapshot changed since the last successful read."""
        signature = self._read_signature()
        if signature is None or signature == self._signature:
            return False
        changed = self._signature is not None
        self._signature = signature
        return changed
