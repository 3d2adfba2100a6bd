"""The operator's command line as child processes: ``repro build`` and
``repro serve --port 0``.

Every child runs from the checkout with ``PYTHONPATH=src``; nothing is
installed.  :class:`ServerProcess` guarantees that the front end and the
workers it forked are gone when :meth:`ServerProcess.stop` returns.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

_READY = re.compile(r"serving frontend on (\S+):(\d+) \((\d+) workers: ([\d, ]*)\)")


def child_env(checkout: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


# ``python -m repro`` with one addition: at exit the child writes its own
# peak RSS (VmHWM) to the file named by its first argument.  The rusage
# of a child cannot be used: Linux carries the parent's peak RSS into a
# child at exec, and subprocess starts children with vfork.
_PEAK_REPORTING_REPRO = """
import atexit, runpy, sys

def report(path=sys.argv[1]):
    with open("/proc/self/status", encoding="ascii") as status:
        peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(peak_kb)

atexit.register(report)
sys.argv = ["repro", *sys.argv[2:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def run_build(checkout: Path, edge_file: Path, out_dir: Path, log: Path) -> Tuple[float, float]:
    """Run ``repro build`` from an edge file; return (wall s, peak RSS MB)."""
    peak_file = out_dir.parent / f"{out_dir.name}.peak"
    with open(log, "ab") as sink:
        started = time.perf_counter()
        returncode = subprocess.call(
            [sys.executable, "-c", _PEAK_REPORTING_REPRO, str(peak_file),
             "build", "--edges", str(edge_file), "--out", str(out_dir)],
            cwd=checkout,
            env=child_env(checkout),
            stdout=sink,
            stderr=sink,
        )
        wall = time.perf_counter() - started
    if returncode != 0:
        raise RuntimeError(f"repro build exited with {returncode}; see {log}")
    peak_mb = int(peak_file.read_text(encoding="ascii")) / 1024.0
    peak_file.unlink()
    return wall, peak_mb


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            return handle.read().split(") ")[-1][:1] != "Z"
    except OSError:
        return False


class ServerProcess:
    """``repro serve --snapshot DIR --port 0`` with CLI defaults otherwise."""

    def __init__(self, checkout: Path, snapshot: Path, log: Path, timeout: float = 60.0) -> None:
        self._sink = open(log, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            repro_command("serve", "--snapshot", str(snapshot), "--port", "0"),
            cwd=checkout,
            env=child_env(checkout),
            stdout=subprocess.PIPE,
            stderr=self._sink,
        )
        self.worker_pids: List[int] = []
        try:
            line = self._read_ready_line(timeout)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected ready line from repro serve: {line!r}")
        self.host = match.group(1)
        self.port = int(match.group(2))
        self.worker_pids = [int(p) for p in match.group(4).replace(" ", "").split(",") if p]

    def _read_ready_line(self, timeout: float) -> str:
        assert self.process.stdout is not None
        deadline = time.monotonic() + timeout
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError("repro serve did not print its ready line in time")
                if not selector.select(remaining):
                    continue
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("repro serve exited before it was ready")
                buffer += chunk
        return buffer.decode("utf-8", "replace").splitlines()[0]

    @property
    def pids(self) -> List[int]:
        return [self.process.pid, *self.worker_pids]

    def request(self, payload: Dict, timeout: float = 60.0) -> Dict:
        """One blocking request on a fresh connection (stats, checks)."""
        with socket.create_connection((self.host, self.port), timeout=timeout) as sock:
            stream = sock.makefile("rwb")
            stream.write(json.dumps(payload).encode("utf-8") + b"\n")
            stream.flush()
            line = stream.readline()
        if not line:
            raise RuntimeError("front end closed the connection")
        return json.loads(line)

    def stats(self) -> Dict[str, float]:
        reply = self.request({"op": "stats"})
        if not reply.get("ok"):
            raise RuntimeError(f"stats verb failed: {reply}")
        return reply["stats"]["extra"]

    def stop(self, timeout: float = 20.0) -> None:
        """Ctrl-C the front end, wait for it, and make sure no worker survives."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout)
        deadline = time.monotonic() + timeout
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if process.stdout is not None:
            process.stdout.close()
        self._sink.close()
