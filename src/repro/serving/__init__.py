"""Serving subsystem: snapshot persistence and multi-process query serving.

Four cooperating pieces turn a built index into an always-on service:

* :mod:`~repro.serving.snapshot` — the **snapshot store**.  A built
  :class:`~repro.index.degeneracy_index.DegeneracyIndex` is persisted as a
  directory of raw little-endian array segments plus a JSON manifest, and
  reopened via ``numpy.memmap`` so the cold start costs only the manifest and
  the vertex intern table; the array query path then runs directly over the
  mapped segments.
* :mod:`~repro.serving.server` / :mod:`~repro.serving.worker` — the
  **serving layer**.  :class:`~repro.serving.server.CommunityServer` forks N
  worker processes that each reopen the same snapshot read-only (the OS
  shares the mapped pages) and shards batch query streams across them with
  input-order result reassembly.
* :mod:`~repro.serving.supervisor` — **self-healing**.
  :class:`~repro.serving.supervisor.SupervisedCommunityServer` respawns
  crashed workers and reships their in-flight shards;
  :class:`~repro.serving.supervisor.SnapshotWatcher` detects published delta
  segments and compacted generations so reloads happen automatically.
* :mod:`~repro.serving.frontend` / :mod:`~repro.serving.answer_cache` — the
  **network tier**.  :class:`~repro.serving.frontend.ServingFrontend` is a
  stdlib-asyncio socket front end that admission-controls and micro-batches
  concurrent client streams into the fleet, backed by a cross-batch,
  generation-keyed :class:`~repro.serving.answer_cache.AnswerCache` of
  component answers.
"""

from repro.serving.answer_cache import AnswerCache
from repro.serving.frontend import FrontendClient, ServingFrontend
from repro.serving.server import CommunityServer
from repro.serving.snapshot import (
    SnapshotIndex,
    load_snapshot,
    save_snapshot,
    save_snapshot_delta,
    snapshot_version,
)
from repro.serving.supervisor import SnapshotWatcher, SupervisedCommunityServer

__all__ = [
    "AnswerCache",
    "CommunityServer",
    "FrontendClient",
    "ServingFrontend",
    "SnapshotIndex",
    "SnapshotWatcher",
    "SupervisedCommunityServer",
    "save_snapshot",
    "save_snapshot_delta",
    "load_snapshot",
    "snapshot_version",
]
