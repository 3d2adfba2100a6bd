"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` and
started as ``python -m repro`` child processes with ``PYTHONPATH=src``;
nothing is installed.  Inputs come from ``--seed``.  With ``--trace 0``
the run reports every end-to-end metric; with ``--trace 1`` it runs the
workload again with spans around each call into a layer, replays the
build and query paths in-process, and reports every per-layer metric.
Workloads and metrics are those of ``BENCHMARK.json``.  Every metric is
printed as ``name: value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Scratch files live in ``.perfbench_work/`` inside the checkout and are
removed at exit; every child process is stopped and waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK_ROOT = CHECKOUT / ".perfbench_work"
DEADLINE_SECONDS = 170  # a run must end within 180 s

import spec  # noqa: E402  (sibling module; the script directory is on sys.path)


class Overrun(Exception):
    pass


def _overrun(signum: int, frame: object) -> None:
    raise Overrun(f"run exceeded {DEADLINE_SECONDS} s")


def git_sha(checkout: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = checkout / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record(workload: str) -> Dict[str, object]:
    import numpy

    from repro.__main__ import build_parser

    import churn
    import serve

    flags = build_parser().parse_args(["serve", "--snapshot", "-"])
    rates = {**serve.offered_rates(), "churn": churn.offered_rate()}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(CHECKOUT),
        "server_flags": {
            "workers": flags.workers,
            "batch_window": flags.batch_window,
            "batch_max": flags.batch_max,
            "cache_size": flags.cache_size,
            "max_pending": flags.max_pending,
            "watch_interval": flags.watch_interval,
        },
        "offered": rates[workload],
    }


def run_workload(name: str, ctx) -> "object":
    import churn
    import serve

    if name == "serve-hot":
        return serve.run(ctx, hot=True)
    if name == "serve-cold":
        return serve.run(ctx, hot=False)
    return churn.run(ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {CHECKOUT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    from context import Context

    # A shell starting this in the background ignores SIGINT, and children
    # inherit an ignored signal across exec: restore it so Ctrl-C stops
    # this run and the front end's clean shutdown on SIGINT works.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(DEADLINE_SECONDS)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    ctx = Context(CHECKOUT, work, work / "children.log", args.seed, args.seconds, bool(args.trace))
    try:
        outcome = run_workload(args.workload, ctx)
    except Exception:  # noqa: BLE001 - report and exit non-zero, no result line
        traceback.print_exc()
        if ctx.log.is_file():
            sys.stderr.write(ctx.log.read_text(errors="replace")[-4000:])
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    metrics = dict(outcome.metrics)
    if ctx.trace:
        metrics["error_rate"] = outcome.failed / outcome.attempted
        absent = [name for name in spec.metric_names(True) if name not in metrics]
        if absent:
            print(f"not exercised by {args.workload} (reported as 0): {', '.join(absent)}")
        for name in absent:
            metrics[name] = 0.0
    missing = [name for name in spec.metric_names(ctx.trace) if name not in metrics]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(note)
    print("host: " + json.dumps(host_record(args.workload), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{outcome.attempted} attempted, {outcome.failed} failed")
    result = {}
    for name in spec.metric_names(ctx.trace):
        unit = spec.unit_of(name)
        print(f"  {name}: {metrics[name]:.6g} {unit}")
        result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
