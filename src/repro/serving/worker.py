"""Worker-process side of the community server.

Each worker reopens the shared snapshot read-only — the OS backs every
worker's ``numpy.memmap`` with the same physical pages — wraps it in a
:class:`~repro.api.CommunitySearcher` and then drains shards of query triples
from its private task queue until it receives the ``None`` stop sentinel,
sending every reply down its private result pipe.

Shards are always answered with the ``on_empty="none"`` policy so the result
list stays aligned with the shard: a ``None`` element marks a query outside
its (α,β)-core, and the *driving* process applies the caller's actual policy
in input order (raising the first :class:`EmptyCommunityError` exactly where
a sequential run would).  Plain community retrievals come back in the compact
wire form of :mod:`repro.serving.wire` — raw edge-id arrays, with repeated
components deduplicated by pickle's memo because the per-shard cache shares
array objects; significant-community results carry their (small) extracted
graphs directly.  Non-empty failures — bad thresholds, unknown query
vertices, unexpected bugs — travel back as a ``(module, name, message)``
description; exception objects themselves are not pickled because several
library exceptions carry structured constructor arguments that do not survive
a pickle round-trip.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from multiprocessing import Queue
    from multiprocessing.connection import Connection

__all__ = ["worker_main", "describe_error"]


def describe_error(exc: BaseException) -> Tuple[str, str, str]:
    """A pickle-safe ``(module, class name, message)`` description of ``exc``."""
    return (type(exc).__module__, type(exc).__name__, str(exc))


def worker_main(snapshot_dir: str, tasks: "Queue", results: "Connection") -> None:
    """Serve shards from ``tasks`` until the ``None`` sentinel arrives.

    Protocol (all messages tuples, first element a tag):

    * startup: ``("ready", pid)`` once the snapshot is open, or
      ``("fatal", pid, error_description)`` if it cannot be opened.
    * per shard: input ``(batch_id, shard_id, kind, triples, options)`` where
      ``kind`` is ``"community"`` or ``"significant"``; output
      ``("result", batch_id, shard_id, answers)`` or
      ``("error", batch_id, shard_id, error_description)``.

    Component answers are memoised per batch only; caching across batches
    is the network front end's :class:`~repro.serving.answer_cache.AnswerCache`.
    """
    from repro.api import CommunitySearcher
    from repro.serving.snapshot import load_snapshot

    pid = os.getpid()
    try:
        index = load_snapshot(snapshot_dir)
        searcher = CommunitySearcher(index=index)
    except BaseException as exc:  # noqa: BLE001 - report, then die quietly
        results.send(("fatal", pid, describe_error(exc)))
        return
    results.send(("ready", pid))
    # One component cache per batch: the driver runs batches serially, so a
    # new batch_id means the previous batch's shards are all done and its
    # memoised components can be dropped.
    cache_batch_id = None
    cache: dict = {}
    while True:
        task = tasks.get()
        if task is None:
            break
        batch_id, shard_id, kind, triples, options = task
        if batch_id != cache_batch_id:
            cache_batch_id = batch_id
            cache = {}
        try:
            if kind == "community":
                answers = index.batch_community_edges(
                    triples, on_empty="none", cache=cache
                )
            elif kind == "significant":
                method = options.get("method", "auto")
                epsilon = options.get("epsilon", 2.0)
                if method == "baseline":
                    # Baseline is index-free and graph-based; its (small)
                    # extracted graphs ship materialised, as before.
                    answers = searcher.batch_significant_communities(
                        triples, method=method, epsilon=epsilon, on_empty="none"
                    )
                else:
                    # Array-native step 2 over the mapped levels: answers are
                    # (wire triple, resolved method, search-space size) tuples
                    # sharing the community cache with "community" shards.
                    answers = index.batch_significant_edges(
                        triples,
                        method=method,
                        epsilon=epsilon,
                        on_empty="none",
                        cache=cache,
                    )
            else:
                raise ValueError(f"unknown task kind {kind!r}")
            results.send(("result", batch_id, shard_id, answers))
        except BaseException as exc:  # noqa: BLE001 - ship failures to the driver
            results.send(("error", batch_id, shard_id, describe_error(exc)))
