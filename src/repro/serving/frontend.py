"""Asyncio network front end of the community-serving tier.

One process, one listening socket, one supervised worker fleet: the front end
accepts concurrent client connections speaking a newline-delimited JSON
protocol, admission-controls them with a bounded pending budget, sends a query
that reaches an idle fleet at once and micro-batches the queries that queue up
while a dispatch is in flight into the fleet's sharded batch path, and keeps a
cross-batch :class:`~repro.serving.answer_cache.AnswerCache` of component
answers so a power-law query mix rarely touches the workers at all.
A background watch task heals crashed workers between batches and polls the
snapshot directory so a freshly published delta segment or compacted
generation triggers a hot :meth:`CommunityServer.reload` automatically.

Protocol
--------
Requests and responses are single lines of UTF-8 JSON.  Requests carry an
``op`` plus op-specific fields; an optional ``id`` of any JSON type is echoed
back so clients may pipeline:

* ``{"op": "community", "side": "upper"|"lower", "label": ..., "alpha": A,
  "beta": B, "edges": false, "id": ...}`` — answer summary (``found``,
  ``num_upper``, ``num_lower``, ``num_edges``, ``cached``); ``"edges": true``
  adds the full ``[[upper label, lower label, weight], ...]`` edge list.
* ``{"op": "significant", ..., "method": "auto", "epsilon": 2.0}`` — the
  two-step significant community (``method`` one of auto/peel/expand/binary;
  the index-free ``baseline`` is not served over the wire; ``epsilon`` must
  be a number larger than 1 whatever the method).  The summary adds the
  resolved ``method``, ``search_space_edges`` and ``min_weight``, the
  answer's significance (its minimum edge weight).
* ``{"op": "stats"}`` — index stats plus live cache/front-end counters.
* ``{"op": "health"}`` — liveness, snapshot generation, worker count.

Failures come back as ``{"ok": false, "error": {"type": ..., "message":
...}}`` with the library exception's class name (e.g. ``OverloadedError``
when the admission budget is exhausted), never as a dropped connection.

Consistency under reload
------------------------
Batch dispatch and snapshot metadata (intern table, generation) are read
under the fleet lock, so an answer is always labelled with the generation
that computed it; cache admissions carry that generation and the cache
refuses them after a swap, which is what makes "no stale hits across a
compaction" a structural property instead of a timing accident.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import (
    InvalidParameterError,
    OverloadedError,
    ReproError,
    ServingError,
)
from repro.graph.bipartite import Side, Vertex
from repro.graph.csr import sorted_unique
from repro.serving.answer_cache import AnswerCache
from repro.serving.snapshot import (
    _live_chain,
    _read_manifest,
    load_label_arrays,
)
from repro.serving.supervisor import SnapshotWatcher, SupervisedCommunityServer
from repro.utils.validation import check_epsilon, check_thresholds

_logger = logging.getLogger(__name__)

__all__ = ["ServingFrontend", "FrontendClient"]

PathLike = Union[str, Path]

_SIGNIFICANT_METHODS = ("auto", "peel", "expand", "binary")

_INT32_MAX = int(np.iinfo(np.int32).max)


class _LabelSpace:
    """Label <-> global-id views of one snapshot generation (immutable)."""

    __slots__ = ("upper", "lower", "num_upper", "gids")

    def __init__(self, directory: Path) -> None:
        upper_arr, lower_arr = load_label_arrays(directory)
        self.upper: List[Hashable] = upper_arr.tolist()
        self.lower: List[Hashable] = lower_arr.tolist()
        self.num_upper = len(self.upper)
        gids: Dict[Tuple[str, Hashable], int] = {}
        for gid, label in enumerate(self.upper):
            gids[("upper", label)] = gid
        for lid, label in enumerate(self.lower):
            gids[("lower", label)] = self.num_upper + lid
        self.gids = gids


class _SnapshotMeta:
    """Everything answer assembly needs from one snapshot generation."""

    __slots__ = ("labels", "generation", "index_meta")

    def __init__(
        self, labels: _LabelSpace, generation: Tuple[str, int], index_meta: Dict
    ) -> None:
        self.labels = labels
        self.generation = generation
        self.index_meta = index_meta


def _render_edges(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray, labels: _LabelSpace
) -> List[List[Any]]:
    """The JSON-ready ``[[upper label, lower label, weight], ...]`` edge list."""
    upper = labels.upper
    lower = labels.lower
    return [
        [upper[u], lower[l], w]
        for u, l, w in zip(src.tolist(), dst.tolist(), weight.tolist())
    ]


class _CachedAnswer:
    """One community answer in servable form: compact edge arrays + summary.

    ``src``/``dst`` are stored as int32 when the id space fits and the
    weights stay float64, so a rendered answer is exact.  The JSON edge list
    is rendered per request and never retained, so an entry's footprint is
    its arrays (:attr:`nbytes`, which the cache's bytes gauge reports).  The
    label space is pinned at creation so an answer can never be rendered
    against a different generation's intern table.
    """

    __slots__ = (
        "src", "dst", "weight", "num_upper", "num_lower", "num_edges", "labels"
    )

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        num_upper: int,
        num_lower: int,
        labels: _LabelSpace,
    ) -> None:
        self.src = src
        self.dst = dst
        self.weight = weight
        self.num_upper = num_upper
        self.num_lower = num_lower
        self.num_edges = int(src.shape[0])
        self.labels = labels

    @classmethod
    def from_wire(
        cls, triple: Tuple, meta: _SnapshotMeta
    ) -> Tuple["_CachedAnswer", np.ndarray]:
        """The servable answer plus its sorted member global ids.

        The members (upper ids first, then lower ids offset past the upper
        id space) are what the cache indexes; the answer does not keep them.
        """
        labels = meta.labels
        src, dst, weight = triple
        if max(labels.num_upper, len(labels.lower)) <= _INT32_MAX:
            src = src.astype(np.int32, copy=False)
            dst = dst.astype(np.int32, copy=False)
        weight = np.asarray(weight, dtype=np.float64)
        upper_ids = sorted_unique(src)
        lower_ids = sorted_unique(dst)
        members = np.concatenate(
            (upper_ids, lower_ids.astype(np.int64) + labels.num_upper)
        )
        answer = cls(
            src, dst, weight, int(upper_ids.size), int(lower_ids.size), labels
        )
        return answer, members

    @property
    def nbytes(self) -> int:
        return self.src.nbytes + self.dst.nbytes + self.weight.nbytes

    def edges(self) -> List[List[Any]]:
        return _render_edges(self.src, self.dst, self.weight, self.labels)


class _Pending:
    """One admitted query waiting in the micro-batch queue."""

    __slots__ = ("kind", "triple", "options", "future")

    def __init__(
        self,
        kind: str,
        triple: Tuple[Vertex, int, int],
        options: Optional[Tuple],
        future: "asyncio.Future",
    ) -> None:
        self.kind = kind
        self.triple = triple
        self.options = options
        self.future = future


class ServingFrontend:
    """The always-on serving tier: socket in front, worker fleet behind.

    Parameters
    ----------
    snapshot:
        Snapshot directory to serve (or an object with a ``directory``).
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read the bound
        one from :attr:`port` after start).
    num_workers, start_method, shards_per_worker, max_respawns_per_batch:
        Forwarded to the underlying :class:`SupervisedCommunityServer`.
    batch_window:
        Extra seconds a backlog batch keeps filling before it is sent.  The
        batcher is work-conserving: a query that reaches an idle fleet is
        sent at once, and the queries that queued up while a dispatch was in
        flight are sent together as soon as it returns.  With the default 0
        that backlog goes out as it stands; a positive value trades that
        much latency under load for bigger batches.  A lone query on an idle
        fleet never waits for the window.
    max_batch:
        Query cap per micro-batch.
    max_pending:
        Admission budget: queries in flight beyond this are rejected
        immediately with :class:`~repro.exceptions.OverloadedError`.
    cache_entries:
        Capacity (in components) of the cross-batch answer cache; ``0``
        disables it.  This is the only cross-batch cache: the workers keep
        per-batch memoisation only.
    watch_interval:
        Seconds between watch ticks (worker healing + snapshot polling);
        ``0`` disables the watch task.
    """

    def __init__(
        self,
        snapshot: Union[PathLike, "object"],
        host: str = "127.0.0.1",
        port: int = 0,
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        shards_per_worker: int = 4,
        batch_window: float = 0.0,
        max_batch: int = 64,
        max_pending: int = 1024,
        cache_entries: int = 4096,
        watch_interval: float = 1.0,
        max_respawns_per_batch: int = 3,
    ) -> None:
        if batch_window < 0:
            raise ServingError(f"batch_window must be >= 0, got {batch_window}")
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 0:
            raise ServingError(f"max_pending must be >= 0, got {max_pending}")
        if cache_entries < 0:
            raise ServingError(f"cache_entries must be >= 0, got {cache_entries}")
        directory = getattr(snapshot, "directory", snapshot)
        self._snapshot_dir = Path(directory)
        self._host = host
        self._requested_port = port
        self._batch_window = batch_window
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._watch_interval = watch_interval
        self._fleet = SupervisedCommunityServer(
            self._snapshot_dir,
            num_workers=num_workers,
            start_method=start_method,
            shards_per_worker=shards_per_worker,
            max_respawns_per_batch=max_respawns_per_batch,
        )
        self._cache: Optional[AnswerCache] = (
            AnswerCache(cache_entries) if cache_entries > 0 else None
        )
        self._meta: Optional[_SnapshotMeta] = None
        self._watcher: Optional[SnapshotWatcher] = None
        self.port: Optional[int] = None
        # async plumbing, created inside the event loop
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._pending_count = 0
        # background-thread mode
        self._thread: Optional[threading.Thread] = None
        self._thread_ready: Optional[threading.Event] = None
        self._thread_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # counters (read by the stats verb)
        self._requests_community = 0
        self._requests_significant = 0
        self._overloads = 0
        self._request_errors = 0
        self._batches = 0
        self._batched_requests = 0
        self._reloads = 0
        self._watch_errors = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._host

    @property
    def fleet(self) -> SupervisedCommunityServer:
        return self._fleet

    @property
    def cache(self) -> Optional[AnswerCache]:
        return self._cache

    @property
    def reloads(self) -> int:
        return self._reloads

    def worker_pids(self) -> List[int]:
        return self._fleet.worker_pids()

    def run(self, on_ready: Optional[Callable[["ServingFrontend"], None]] = None) -> None:
        """Serve until interrupted (the CLI entry point).

        Returns normally on ``KeyboardInterrupt`` with the fleet terminated
        and the listener closed, so ``Ctrl-C`` is a clean exit — no orphaned
        fork workers, no half-open pipes.
        """
        try:
            asyncio.run(self._run_async(on_ready=on_ready))
        except KeyboardInterrupt:
            _logger.info("interrupted; shutting the serving tier down")
        finally:
            # asyncio.run already drove the coroutine's finally blocks on
            # clean paths; on a mid-shutdown interrupt (notably py3.10,
            # where a second SIGINT can skip coroutine cleanup) this is the
            # backstop that still reaps the fork workers.
            self._fleet.stop()

    def start_background(self, timeout: float = 60.0) -> "ServingFrontend":
        """Run the frontend on a daemon thread; block until it is serving."""
        if self._thread is not None:
            raise ServingError("frontend is already running")
        self._thread_ready = threading.Event()
        self._thread_error = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-frontend", daemon=True
        )
        self._thread.start()
        self._thread_ready.wait(timeout)
        if self._thread_error is not None:
            error = self._thread_error
            self._thread.join(timeout=5.0)
            self._thread = None
            raise error
        if not self._thread_ready.is_set():
            self.stop_background(timeout=5.0)
            raise ServingError(f"frontend did not start within {timeout:.0f}s")
        return self

    def stop_background(self, timeout: float = 30.0) -> None:
        """Stop a :meth:`start_background` frontend and join its thread."""
        thread = self._thread
        if thread is None:
            return
        loop = self._loop
        stop_event = self._stop_event
        if loop is not None and stop_event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError as exc:  # loop closed between checks
                _logger.debug("stop signal raced loop shutdown: %r", exc)
        thread.join(timeout)
        self._thread = None
        self._loop = None
        if thread.is_alive():  # pragma: no cover - wedged shutdown
            raise ServingError("frontend thread did not stop in time")

    def __enter__(self) -> "ServingFrontend":
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        self.stop_background()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._run_async(on_ready=self._signal_thread_ready))
        except BaseException as exc:  # noqa: BLE001 - surfaced to the starter
            self._thread_error = exc
        finally:
            assert self._thread_ready is not None
            self._thread_ready.set()

    def _signal_thread_ready(self, _frontend: "ServingFrontend") -> None:
        self._loop = asyncio.get_running_loop()
        assert self._thread_ready is not None
        self._thread_ready.set()

    async def _run_async(
        self, on_ready: Optional[Callable[["ServingFrontend"], None]] = None
    ) -> None:
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._queue = asyncio.Queue()
        self._pending_count = 0
        self._fleet.start()
        try:
            self._refresh_snapshot_meta()
            self._watcher = SnapshotWatcher(self._snapshot_dir)
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._requested_port
            )
            self.port = server.sockets[0].getsockname()[1]
            dispatcher = loop.create_task(self._dispatch_loop())
            tasks = [dispatcher]
            if self._watch_interval > 0:
                tasks.append(loop.create_task(self._watch_loop()))
            try:
                if on_ready is not None:
                    on_ready(self)
                async with server:
                    await self._stop_event.wait()
            finally:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._fleet.stop()

    # ------------------------------------------------------------------ #
    # snapshot metadata / reload
    # ------------------------------------------------------------------ #
    def _refresh_snapshot_meta(self) -> None:
        """Re-read labels + generation; swap them in atomically, reset cache."""
        manifest = _read_manifest(self._snapshot_dir)
        version = len(_live_chain(self._snapshot_dir, manifest))
        generation = (str(manifest.get("snapshot_id", "")), version)
        self._meta = _SnapshotMeta(
            _LabelSpace(self._snapshot_dir),
            generation,
            dict(manifest.get("index", {})),
        )
        if self._cache is not None:
            self._cache.reset(generation)

    def _watch_tick(self) -> bool:
        """One synchronous watch step: heal workers, reload on change."""
        self._fleet.ensure_workers()
        assert self._watcher is not None
        if not self._watcher.poll():
            return False
        with self._fleet.fleet_lock:
            self._fleet.reload()
            self._refresh_snapshot_meta()
        self._reloads += 1
        assert self._meta is not None
        _logger.info(
            "snapshot change detected; reloaded onto generation %s",
            self._meta.generation,
        )
        return True

    async def _watch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self._watch_interval)
            try:
                await loop.run_in_executor(None, self._watch_tick)
            except (ReproError, OSError) as exc:
                self._watch_errors += 1
                _logger.warning("snapshot watch tick failed: %r", exc)

    # ------------------------------------------------------------------ #
    # micro-batching dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._queue is not None
        queue = self._queue
        while True:
            # Items already queued arrived while the previous dispatch was
            # in flight: only such a backlog may wait for the window.
            backlog = not queue.empty()
            batch = [await queue.get()]
            while len(batch) < self._max_batch and not queue.empty():
                batch.append(queue.get_nowait())
            deadline = loop.time() + (self._batch_window if backlog else 0.0)
            while len(batch) < self._max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            groups: Dict[Tuple, List[_Pending]] = {}
            for item in batch:
                groups.setdefault((item.kind, item.options), []).append(item)
            for (kind, options), items in groups.items():
                await self._dispatch_group(kind, options, items)
            self._batches += 1
            self._batched_requests += len(batch)

    def _dispatch_sync(
        self, kind: str, triples: List[Tuple[Vertex, int, int]], options: Optional[Tuple]
    ) -> Tuple[List, _SnapshotMeta]:
        # One fleet-lock acquisition covers the batch AND the metadata read,
        # so the returned meta is exactly the generation that answered.
        with self._fleet.fleet_lock:
            if kind == "community":
                answers = self._fleet.batch_community_wire(triples, on_empty="none")
            else:
                method, epsilon = options  # type: ignore[misc]
                answers = self._fleet.batch_significant_wire(
                    triples, method=method, epsilon=epsilon, on_empty="none"
                )
            assert self._meta is not None
            return answers, self._meta

    async def _dispatch_group(
        self,
        kind: str,
        options: Optional[Tuple],
        items: List[_Pending],
        isolate: bool = True,
    ) -> None:
        loop = asyncio.get_running_loop()
        triples = [item.triple for item in items]
        try:
            answers, meta = await loop.run_in_executor(
                None, self._dispatch_sync, kind, triples, options
            )
        except ReproError as exc:
            if len(items) == 1 or not isolate:
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
            else:
                # One poisoned query (e.g. a vertex a delta removed) fails
                # its whole shard batch inside the fleet; retry the group
                # one query at a time so only the culprit sees the error.
                for item in items:
                    await self._dispatch_group(kind, options, [item], isolate=False)
            return
        for item, answer in zip(items, answers):
            if item.future.done():  # client already gone
                continue
            if kind != "community":
                item.future.set_result(None if answer is None else (answer, meta))
                continue
            if answer is None:
                item.future.set_result(None)
                continue
            cached, members = _CachedAnswer.from_wire(answer, meta)
            if self._cache is not None:
                _, alpha, beta = item.triple
                self._cache.put(
                    (alpha, beta), members, cached, generation=meta.generation
                )
            item.future.set_result(cached)

    async def _submit(
        self, kind: str, triple: Tuple[Vertex, int, int], options: Optional[Tuple]
    ) -> object:
        if self._pending_count >= self._max_pending:
            self._overloads += 1
            raise OverloadedError(
                f"serving queue is full ({self._max_pending} queries pending); "
                f"retry later"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        assert self._queue is not None
        self._pending_count += 1
        try:
            self._queue.put_nowait(_Pending(kind, triple, options, future))
            return await future
        finally:
            self._pending_count -= 1

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError) as exc:
                    _logger.debug("client read failed: %r", exc)
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                task = loop.create_task(
                    self._serve_line(stripped, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError) as exc:
                _logger.debug("client close failed: %r", exc)

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        response = await self._respond(line)
        try:
            data = json.dumps(response, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            self._request_errors += 1
            data = json.dumps(
                {
                    "id": response.get("id"),
                    "ok": False,
                    "error": {
                        "type": "ServingError",
                        "message": f"unserialisable response: {exc}",
                    },
                }
            ).encode("utf-8")
        try:
            async with write_lock:
                writer.write(data + b"\n")
                await writer.drain()
        except (ConnectionError, RuntimeError, OSError) as exc:
            _logger.debug("client went away mid-response: %r", exc)

    async def _respond(self, line: bytes) -> Dict:
        try:
            request = json.loads(line)
        except (ValueError, UnicodeDecodeError) as exc:
            self._request_errors += 1
            return {
                "id": None,
                "ok": False,
                "error": {
                    "type": "InvalidParameterError",
                    "message": f"request is not valid JSON: {exc}",
                },
            }
        if not isinstance(request, dict):
            self._request_errors += 1
            return {
                "id": None,
                "ok": False,
                "error": {
                    "type": "InvalidParameterError",
                    "message": "request must be a JSON object",
                },
            }
        request_id = request.get("id")
        try:
            payload = await self._answer(request)
        except ReproError as exc:
            self._request_errors += 1
            payload = {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        except Exception as exc:  # noqa: BLE001 - a bug must not hang the client
            self._request_errors += 1
            _logger.exception("unhandled error answering %r", request.get("op"))
            payload = {
                "ok": False,
                "error": {
                    "type": "ServingError",
                    "message": f"internal error: {exc}",
                },
            }
        if request_id is not None:
            payload["id"] = request_id
        return payload

    async def _answer(self, request: Dict) -> Dict:
        op = request.get("op")
        if op == "health":
            return self._health_payload()
        if op == "stats":
            return {"ok": True, "stats": self._stats_payload()}
        if op == "community":
            return await self._answer_community(request)
        if op == "significant":
            return await self._answer_significant(request)
        raise InvalidParameterError(
            f"unknown op {op!r}; expected one of "
            "('community', 'significant', 'stats', 'health')"
        )

    def _parse_query(self, request: Dict) -> Tuple[Vertex, int, int, int]:
        side = request.get("side", "upper")
        if side not in ("upper", "lower"):
            raise InvalidParameterError(
                f"side must be 'upper' or 'lower', got {side!r}"
            )
        if "label" not in request:
            raise InvalidParameterError("request is missing the 'label' field")
        label = request["label"]
        if not isinstance(label, (str, int, float, bool)) and label is not None:
            raise InvalidParameterError(
                f"label must be a JSON scalar, got {type(label).__name__}"
            )
        alpha = request.get("alpha")
        beta = request.get("beta")
        check_thresholds(alpha, beta)
        assert self._meta is not None
        gid = self._meta.labels.gids.get((side, label))
        if gid is None:
            raise InvalidParameterError(
                f"query vertex {label!r} is not in the graph"
            )
        vertex = Vertex(Side.UPPER if side == "upper" else Side.LOWER, label)
        return vertex, gid, alpha, beta

    async def _answer_community(self, request: Dict) -> Dict:
        vertex, gid, alpha, beta = self._parse_query(request)
        want_edges = bool(request.get("edges", False))
        self._requests_community += 1
        if self._cache is not None:
            hit = self._cache.get((alpha, beta), gid)
            if hit is not None:
                return self._community_payload(hit, want_edges, cached=True)
        answer = await self._submit("community", (vertex, alpha, beta), None)
        if answer is None:
            return {"ok": True, "found": False, "cached": False}
        return self._community_payload(answer, want_edges, cached=False)

    def _community_payload(
        self, answer: _CachedAnswer, want_edges: bool, cached: bool
    ) -> Dict:
        payload: Dict[str, Any] = {
            "ok": True,
            "found": True,
            "cached": cached,
            "num_upper": answer.num_upper,
            "num_lower": answer.num_lower,
            "num_edges": answer.num_edges,
        }
        if want_edges:
            payload["edges"] = answer.edges()
        return payload

    async def _answer_significant(self, request: Dict) -> Dict:
        vertex, _gid, alpha, beta = self._parse_query(request)
        want_edges = bool(request.get("edges", False))
        method = request.get("method", "auto")
        if method not in _SIGNIFICANT_METHODS:
            raise InvalidParameterError(
                f"method {method!r} is not served over the wire; expected one "
                f"of {_SIGNIFICANT_METHODS}"
            )
        try:
            epsilon = float(request.get("epsilon", 2.0))
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"epsilon must be a number, got {request.get('epsilon')!r}"
            )
        # Refused here, before dispatch, so a bad epsilon never fails its
        # batch group inside the fleet and forces the one-at-a-time retry.
        check_epsilon(epsilon)
        self._requests_significant += 1
        answer = await self._submit(
            "significant", (vertex, alpha, beta), (method, epsilon)
        )
        if answer is None:
            return {"ok": True, "found": False}
        (triple, resolved, space), meta = answer  # type: ignore[misc]
        src, dst, weight = triple
        payload: Dict[str, Any] = {
            "ok": True,
            "found": True,
            "method": resolved,
            "search_space_edges": int(space),
            "num_upper": int(sorted_unique(src).size),
            "num_lower": int(sorted_unique(dst).size),
            "num_edges": int(src.shape[0]),
            "min_weight": float(weight.min()),
        }
        if want_edges:
            payload["edges"] = _render_edges(
                src, dst, np.asarray(weight, dtype=np.float64), meta.labels
            )
        return payload

    # ------------------------------------------------------------------ #
    # stats / health
    # ------------------------------------------------------------------ #
    def _health_payload(self) -> Dict:
        assert self._meta is not None
        snapshot_id, version = self._meta.generation
        return {
            "ok": True,
            "status": "serving",
            "snapshot_id": snapshot_id,
            "version": version,
            "workers": self._fleet.num_workers,
        }

    def _stats_payload(self) -> Dict:
        assert self._meta is not None
        meta = self._meta
        stored = dict(meta.index_meta.get("stats", {}))
        entries = int(stored.pop("entries", 0))
        adjacency_lists = int(stored.pop("adjacency_lists", 0))
        build_seconds = float(stored.pop("build_seconds", 0.0))
        extra = {key: float(value) for key, value in stored.items()}
        if self._cache is not None:
            extra.update(self._cache.stats())
        extra.update(
            {
                "frontend_requests_community": float(self._requests_community),
                "frontend_requests_significant": float(
                    self._requests_significant
                ),
                "frontend_overload_rejections": float(self._overloads),
                "frontend_request_errors": float(self._request_errors),
                "frontend_batches": float(self._batches),
                "frontend_batched_requests": float(self._batched_requests),
                "frontend_reloads": float(self._reloads),
                "frontend_watch_errors": float(self._watch_errors),
                "frontend_respawns": float(self._fleet.respawns),
                "frontend_workers": float(self._fleet.num_workers),
                "snapshot_version": float(meta.generation[1]),
            }
        )
        return {
            "name": str(meta.index_meta.get("name", "snapshot")),
            "entries": entries,
            "adjacency_lists": adjacency_lists,
            "build_seconds": build_seconds,
            "extra": extra,
        }


class FrontendClient:
    """Minimal blocking client for the newline-JSON protocol.

    Used by the test-suite, the load benchmark and the CLI ``stats
    --frontend`` option; real clients in other languages only need a socket
    and a JSON library.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: Dict) -> Dict:
        """Send one request object, block for its response line."""
        self._file.write(
            json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        )
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServingError("frontend closed the connection")
        return json.loads(line)

    def community(
        self,
        label: Hashable,
        alpha: int,
        beta: int,
        side: str = "upper",
        edges: bool = False,
        **extra: object,
    ) -> Dict:
        payload: Dict[str, Any] = {
            "op": "community",
            "side": side,
            "label": label,
            "alpha": alpha,
            "beta": beta,
        }
        if edges:
            payload["edges"] = True
        payload.update(extra)
        return self.request(payload)

    def significant(
        self,
        label: Hashable,
        alpha: int,
        beta: int,
        side: str = "upper",
        method: str = "auto",
        epsilon: float = 2.0,
        edges: bool = False,
        **extra: object,
    ) -> Dict:
        payload: Dict[str, Any] = {
            "op": "significant",
            "side": side,
            "label": label,
            "alpha": alpha,
            "beta": beta,
            "method": method,
            "epsilon": epsilon,
        }
        if edges:
            payload["edges"] = True
        payload.update(extra)
        return self.request(payload)

    def stats(self) -> Dict:
        return self.request({"op": "stats"})

    def health(self) -> Dict:
        return self.request({"op": "health"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
