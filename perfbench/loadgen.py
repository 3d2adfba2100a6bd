"""Single-process load generator for the newline-JSON front end.

One thread drives every connection through a selector, so the generator
never contends with itself for the interpreter lock.  Requests are
pipelined on each connection and matched to replies by their ``id``.

* :func:`open_loop` sends each request at its due time whatever the
  server does, and times it from that due time: a stall shows up in the
  latency of every request that was due during it.  How late the
  generator itself sent each request is returned as the lag.
* :func:`closed_loop` keeps a fixed number of requests outstanding per
  connection and counts completions, which gives the saturated rate.

Linux ends a sleep up to the thread's timer slack (50 us by default) late;
at thousands of requests a second that lateness is a large share of a
cache hit's latency, so the generator asks for the smallest slack.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import selectors
import socket
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


_PR_SET_TIMERSLACK = 29


def tighten_timer_slack() -> None:
    """Make this thread's timed waits end on time, where the platform allows."""
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).prctl(_PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


class _Conn:
    __slots__ = ("sock", "out", "inbuf", "outstanding")

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = b""
        self.inbuf = b""
        self.outstanding = 0


class _Driver:
    """Selector loop over a few pipelined connections."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        tighten_timer_slack()
        self.conns = [_Conn(host, port) for _ in range(connections)]
        # select(2) takes a microsecond timeout; epoll and poll round it up
        # to whole milliseconds, which would make the generator up to 1 ms
        # late on every sleep.
        self.selector = selectors.SelectSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        for conn in self.conns:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.selector.close()

    def queue(self, conn: _Conn, data: bytes) -> None:
        conn.out += data
        conn.outstanding += 1

    def flush(self) -> None:
        for conn in self.conns:
            if conn.out:
                try:
                    sent = conn.sock.send(conn.out)
                except BlockingIOError:
                    sent = 0
                conn.out = conn.out[sent:]
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
            self.selector.modify(conn.sock, events, conn)

    def poll(self, timeout: float, on_reply: Callable[[_Conn, Dict, float], None]) -> None:
        for key, mask in self.selector.select(max(timeout, 0.0)):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                self.flush()
            if not mask & selectors.EVENT_READ:
                continue
            try:
                chunk = conn.sock.recv(1 << 16)
            except BlockingIOError:
                continue
            if not chunk:
                raise ConnectionError("front end closed a load connection")
            now = time.perf_counter()
            conn.inbuf += chunk
            *lines, conn.inbuf = conn.inbuf.split(b"\n")
            for line in lines:
                if line:
                    conn.outstanding -= 1
                    on_reply(conn, json.loads(line), now)


def encode(request: Dict, request_id: int) -> bytes:
    return json.dumps({**request, "id": request_id}, separators=(",", ":")).encode("utf-8") + b"\n"


class OpenLoopResult:
    """Per-request timings of one open-loop phase (seconds, from due time)."""

    def __init__(self, count: int) -> None:
        self.due: List[float] = [0.0] * count
        self.lag: List[float] = [0.0] * count
        self.latency: List[Optional[float]] = [None] * count
        self.replies: List[Optional[Dict]] = [None] * count


def open_loop(
    host: str,
    port: int,
    requests: Sequence[Dict],
    rate: float,
    connections: int = 2,
    drain_timeout: float = 60.0,
) -> OpenLoopResult:
    """Send ``requests[i]`` at ``i / rate`` seconds; ``rate=0`` sends all at once."""
    count = len(requests)
    result = OpenLoopResult(count)
    wire = [encode(request, i) for i, request in enumerate(requests)]
    driver = _Driver(host, port, connections)

    def on_reply(_conn: _Conn, reply: Dict, now: float) -> None:
        i = reply.get("id")
        if isinstance(i, int) and 0 <= i < count and result.latency[i] is None:
            result.latency[i] = now - result.due[i]
            result.replies[i] = reply

    try:
        start = time.perf_counter() + 0.01
        for i in range(count):
            result.due[i] = start + (i / rate if rate > 0 else 0.0)
        sent = 0
        deadline = None
        while True:
            now = time.perf_counter()
            while sent < count and result.due[sent] <= now:
                result.lag[sent] = now - result.due[sent]
                driver.queue(driver.conns[sent % connections], wire[sent])
                sent += 1
            driver.flush()
            if sent == count:
                if all(c.outstanding == 0 for c in driver.conns):
                    break
                if deadline is None:
                    deadline = time.perf_counter() + drain_timeout
                elif time.perf_counter() > deadline:
                    break  # unanswered requests stay None: counted as failed
                timeout = 0.05
            else:
                timeout = result.due[sent] - time.perf_counter()
            driver.poll(timeout, on_reply)
    finally:
        driver.close()
    return result


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Dict],
    seconds: float,
    outstanding: int,
    connections: int = 2,
    ramp: float = 0.1,
    drain_timeout: float = 60.0,
) -> Tuple[List[float], float, float, List[Dict]]:
    """Keep ``outstanding`` requests in flight per connection for ``seconds``.

    Requests cycle through ``requests``; a reply's ``id`` modulo
    ``len(requests)`` names its request.  Completions in the first ``ramp``
    share of the phase are not counted.  Returns (completion times counted,
    counting start, counting end, every reply).
    """
    driver = _Driver(host, port, connections)
    replies: List[Dict] = []
    completions: List[float] = []
    state = {"next": 0}
    started = time.perf_counter()
    count_from = started + ramp * seconds
    stop_at = started + seconds

    def send(conn: _Conn) -> None:
        i = state["next"]
        state["next"] += 1
        driver.queue(conn, encode(requests[i % len(requests)], i))

    def on_reply(conn: _Conn, reply: Dict, now: float) -> None:
        replies.append(reply)
        if count_from <= now <= stop_at:
            completions.append(now)
        if now < stop_at:
            send(conn)

    try:
        for conn in driver.conns:
            for _ in range(outstanding):
                send(conn)
        driver.flush()
        while time.perf_counter() < stop_at:
            driver.poll(stop_at - time.perf_counter(), on_reply)
            driver.flush()
        deadline = time.perf_counter() + drain_timeout
        while any(c.outstanding for c in driver.conns) and time.perf_counter() < deadline:
            driver.poll(0.05, on_reply)
            driver.flush()
    finally:
        driver.close()
    return completions, count_from, stop_at, replies
