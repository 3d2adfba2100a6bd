"""End-to-end tests for the CLI frontend mode (``serve --port`` / ``stats --frontend``).

Runs ``python -m repro`` as a real subprocess: the regression of interest is
the process-level shutdown path (SIGINT must reap every forked worker and
exit 0), which cannot be exercised in-process.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex

READY_LINE = re.compile(
    r"serving frontend on ([\d.]+):(\d+) \((\d+) workers: ([\d, ]+)\)"
)


def _repro_env():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.fixture(scope="module")
def cli_index():
    graph = power_law_bipartite(80, 70, 600, seed=13, name="cli-frontend")
    return DegeneracyIndex(graph, backend="csr")


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, cli_index):
    from repro.serving.snapshot import save_snapshot

    return save_snapshot(cli_index, tmp_path_factory.mktemp("cli") / "snap")


@pytest.fixture(scope="module")
def serve_process(snapshot_dir):
    """One ``repro serve --port 0`` subprocess shared by the module's tests.

    Yields ``(proc, host, port, worker_pids)``; the teardown SIGINT + the
    worker-reap check double as the clean-shutdown regression test.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snapshot",
            str(snapshot_dir),
            "--workers",
            "2",
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_repro_env(),
    )
    try:
        line = proc.stdout.readline()
        match = READY_LINE.match(line)
        assert match, f"unexpected ready line: {line!r}"
        host, port = match.group(1), int(match.group(2))
        pids = [int(p) for p in match.group(4).split(",")]
        assert int(match.group(3)) == 2 and len(pids) == 2
        yield proc, host, port, pids
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                returncode = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                pytest.fail("frontend did not exit on SIGINT")
            stderr = proc.stderr.read()
            assert returncode == 0, (returncode, stderr)
            assert "interrupted" in stderr
            deadline = time.monotonic() + 10
            alive = pids
            while time.monotonic() < deadline:
                alive = [p for p in pids if os.path.exists(f"/proc/{p}")]
                if not alive:
                    break
                time.sleep(0.2)
            assert not alive, f"workers survived SIGINT: {alive}"
        proc.stdout.close()
        proc.stderr.close()


class TestServeFrontendCli:
    def test_serves_queries_over_the_socket(self, serve_process, cli_index):
        from repro.serving.frontend import FrontendClient

        _, host, port, _ = serve_process
        with FrontendClient(host, port, timeout=60.0) as client:
            health = client.health()
            assert health["ok"] and health["workers"] == 2
            label = cli_index.vertices_in_core(2, 2)[0].label
            reply = client.community(label, 2, 2)
            assert reply["ok"] and reply["found"]

    def test_stats_frontend_subcommand(self, serve_process):
        _, host, port, _ = serve_process
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "stats",
                "--frontend",
                f"{host}:{port}",
            ],
            capture_output=True,
            text=True,
            env=_repro_env(),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "frontend_requests_community" in result.stdout
        assert "answer_cache_hits" in result.stdout

    def test_stats_frontend_rejects_bad_address(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--frontend", "nowhere:abc"],
            capture_output=True,
            text=True,
            env=_repro_env(),
            timeout=60,
        )
        assert result.returncode != 0
        assert "frontend" in result.stderr.lower() or "port" in result.stderr.lower()

    def test_sigint_shutdown_is_clean(self, serve_process):
        """The actual assertions live in the fixture teardown; this test just
        documents that the shared server is deliberately killed with SIGINT."""
        proc, _, _, _ = serve_process
        assert proc.poll() is None  # still running while tests use it
