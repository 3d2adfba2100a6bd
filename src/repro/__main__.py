"""User-facing command line interface: ``python -m repro``.

Seven subcommands:

``search``
    Run a significant (α,β)-community query against a registry dataset, a
    KONECT-style edge-list file, or a previously saved index / snapshot::

        python -m repro search --dataset ML --alpha 4 --beta 4
        python -m repro search --edges ratings.txt --query-upper alice --alpha 3 --beta 2
        python -m repro search --index snapshots/ml --alpha 4 --beta 4

    When ``--query-upper`` / ``--query-lower`` is omitted, a query vertex is
    picked automatically from the (α,β)-core.

``info``
    Print summary statistics (sizes, degeneracy, α_max / β_max) of a dataset
    or edge-list file.

``snapshot`` (alias ``build``)
    Build the degeneracy index of a graph and persist it in the mmap-able
    snapshot format, so later invocations (and serving fleets) reopen it
    near-instantly; ``--jobs N`` shards the CSR build's per-level passes
    across worker processes::

        python -m repro snapshot --dataset ML --out snapshots/ml
        python -m repro build --dataset ML --out snapshots/ml --jobs 4

``update``
    Apply a file of edge insertions / removals to a saved index through the
    incremental maintenance engine and re-save it — a snapshot gains a
    *delta segment* next to its base instead of being rewritten::

        python -m repro update --index snapshots/ml --ops ops.tsv

    The ops file holds one ``insert <upper> <lower> [weight]`` or
    ``remove <upper> <lower>`` per line (``+`` / ``-`` work as aliases).
    ``--max-chain-len N`` auto-compacts the delta chain when it reaches
    ``N`` segments.

``compact``
    Fold a snapshot's delta chain into a fresh base generation, so cold
    start stops paying the chain replay::

        python -m repro compact --snapshot snapshots/ml

``stats``
    Print the stored statistics of a saved index or snapshot, including the
    maintenance observability counters of a maintained index (patched vs.
    rebuilt levels, candidate-region sizes, arrays-patch hit rate)::

        python -m repro stats --index snapshots/ml
        python -m repro stats --frontend 127.0.0.1:7777

    ``--frontend HOST:PORT`` asks a running network front end for its live
    counters (answer cache hits, admission rejections, reloads) instead of
    reading a snapshot from disk.

``serve``
    Answer a batch of queries over a snapshot with sharded worker
    processes, or — with ``--port`` — stay up as a network front end::

        python -m repro serve --snapshot snapshots/ml --workers 4 --queries q.txt
        python -m repro serve --snapshot snapshots/ml --workers 2 --alpha 2 --beta 2 --sample 8
        python -m repro serve --snapshot snapshots/ml --workers 4 --port 7777

    A queries file holds one ``<upper|lower> <label> <alpha> <beta>`` query
    per line; without one, ``--sample`` queries are drawn from the
    (``--alpha``, ``--beta``)-core.  The ``--port`` form answers
    newline-delimited JSON requests until interrupted (Ctrl-C exits
    cleanly, stopping the worker fleet); see ``docs/serving.md`` for the
    protocol and the tuning flags (``--batch-window``, ``--cache-size``,
    ``--max-pending``, ...).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.index.degeneracy_index import DegeneracyIndex
    from repro.index.maintenance import DynamicDegeneracyIndex

from repro.api import CommunitySearcher
from repro.datasets.registry import load_dataset
from repro.decomposition.degeneracy import degeneracy
from repro.decomposition.offsets import max_alpha, max_beta
from repro.exceptions import ReproError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.io import read_edge_list
from repro.index.base import BatchQuery

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Significant (alpha,beta)-community search on weighted bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run a significant community query")
    _add_graph_arguments(search, required=False)
    search.add_argument(
        "--index",
        type=str,
        default=None,
        help="saved index file or snapshot directory to load instead of rebuilding",
    )
    search.add_argument("--alpha", type=int, required=True)
    search.add_argument("--beta", type=int, required=True)
    search.add_argument("--query-upper", type=str, default=None, help="upper-layer query label")
    search.add_argument("--query-lower", type=str, default=None, help="lower-layer query label")
    search.add_argument(
        "--method",
        choices=["auto", "peel", "expand", "binary", "baseline"],
        default="auto",
    )
    search.add_argument("--max-print", type=int, default=20, help="edges to print")

    info = sub.add_parser("info", help="print summary statistics of a graph")
    _add_graph_arguments(info)

    snapshot = sub.add_parser(
        "snapshot",
        aliases=["build"],
        help="build an index and persist it as an mmap-able snapshot",
    )
    _add_graph_arguments(snapshot)
    snapshot.add_argument("--out", type=str, required=True, help="snapshot directory to write")
    snapshot.add_argument(
        "--backend",
        choices=["auto", "dict", "csr"],
        default="auto",
        help="index construction backend",
    )
    snapshot.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the CSR build's per-level passes",
    )

    update = sub.add_parser(
        "update",
        help="apply a file of edge updates to a saved index and re-save it",
    )
    update.add_argument(
        "--index", type=str, required=True, help="saved index file or snapshot directory"
    )
    update.add_argument(
        "--ops",
        type=str,
        required=True,
        help="file with one 'insert <upper> <lower> [weight]' or "
        "'remove <upper> <lower>' per line",
    )
    update.add_argument(
        "--out",
        type=str,
        default=None,
        help="where to save the updated index (default: back onto --index)",
    )
    update.add_argument(
        "--max-chain-len",
        type=int,
        default=None,
        help="auto-compact the snapshot's delta chain when it reaches this length",
    )

    compact = sub.add_parser(
        "compact", help="fold a snapshot's delta chain into a fresh base"
    )
    compact.add_argument("--snapshot", type=str, required=True, help="snapshot directory")

    stats = sub.add_parser(
        "stats", help="print the stored statistics of a saved index or snapshot"
    )
    stats_source = stats.add_mutually_exclusive_group(required=True)
    stats_source.add_argument(
        "--index", type=str, help="saved index file or snapshot directory"
    )
    stats_source.add_argument(
        "--frontend",
        type=str,
        metavar="HOST:PORT",
        help="ask a running serving front end for its live statistics",
    )

    serve = sub.add_parser(
        "serve", help="answer a query batch with sharded worker processes"
    )
    serve.add_argument("--snapshot", type=str, required=True, help="snapshot directory")
    serve.add_argument("--workers", type=int, default=2, help="worker process count")
    serve.add_argument(
        "--queries",
        type=str,
        default=None,
        help="file with one '<upper|lower> <label> <alpha> <beta>' query per line",
    )
    serve.add_argument("--alpha", type=int, default=2, help="threshold for sampled queries")
    serve.add_argument("--beta", type=int, default=2, help="threshold for sampled queries")
    serve.add_argument(
        "--sample", type=int, default=4, help="queries to sample when no --queries file"
    )
    serve.add_argument(
        "--on-empty",
        choices=["raise", "none", "skip"],
        default="none",
        help="policy for queries outside their core",
    )
    serve.add_argument("--max-print", type=int, default=20, help="per-query lines to print")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="run as a network front end on this TCP port (0 picks a free one)",
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1", help="front-end bind address"
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        help="extra seconds a backlog micro-batch keeps filling (default 0: "
        "send as soon as the fleet is free; a query on an idle fleet never waits)",
    )
    serve.add_argument(
        "--batch-max", type=int, default=64, help="micro-batch size cap"
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="cross-batch answer cache capacity in components (0 disables)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission-control budget: pending requests before rejecting",
    )
    serve.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        help="seconds between snapshot-change / worker-liveness checks",
    )
    return parser


def _add_graph_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--dataset", type=str, help="registry dataset name (e.g. ML, BS)")
    source.add_argument("--edges", type=str, help="path to a KONECT-style edge list")
    parser.add_argument("--scale", type=float, default=1.0, help="registry dataset scale")


def _load_graph(args: argparse.Namespace) -> BipartiteGraph:
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    return read_edge_list(args.edges)


def _resolve_query(args: argparse.Namespace, searcher: CommunitySearcher) -> Vertex:
    if args.query_upper is not None:
        return Vertex(Side.UPPER, args.query_upper)
    if args.query_lower is not None:
        return Vertex(Side.LOWER, args.query_lower)
    candidates = searcher.index.vertices_in_core(args.alpha, args.beta)
    if not candidates:
        raise ReproError(
            f"the ({args.alpha},{args.beta})-core of this graph is empty; "
            "choose smaller thresholds"
        )
    chosen = candidates[0]
    print(f"(no query vertex given; using {chosen!r} from the core)")
    return chosen


def _run_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    print(f"graph      : {graph.name or '(unnamed)'}")
    print(f"upper / lower / edges : {graph.num_upper} / {graph.num_lower} / {graph.num_edges}")
    print(f"degeneracy : {degeneracy(graph)}")
    print(f"alpha_max  : {max_alpha(graph)}")
    print(f"beta_max   : {max_beta(graph)}")
    if graph.num_edges:
        print(f"weights    : min {graph.significance():g}, max {graph.max_weight():g}")
    return 0


def _run_search(args: argparse.Namespace) -> int:
    if args.index is not None:
        if args.dataset or args.edges:
            raise ReproError("give either --index or a graph source, not both")
        from repro.index.serialization import load_index

        try:
            index = load_index(args.index)
        except OSError as error:
            raise ReproError(f"cannot open index {args.index}: {error}") from error
        searcher = CommunitySearcher(index=index)
    elif args.dataset or args.edges:
        searcher = CommunitySearcher(_load_graph(args))
    else:
        raise ReproError("one of --dataset, --edges or --index is required")
    query = _resolve_query(args, searcher)
    result = searcher.significant_community(
        query, args.alpha, args.beta, method=args.method
    )
    print(result.describe())
    print(f"method: {result.method}; search space: {result.search_space_edges} edges")
    print(f"upper vertices: {', '.join(map(str, result.upper_labels()))}")
    print(f"lower vertices: {', '.join(map(str, result.lower_labels()))}")
    edges = result.edges()
    for u, v, w in edges[: args.max_print]:
        print(f"  ({u}, {v})  weight {w:g}")
    if len(edges) > args.max_print:
        print(f"  ... {len(edges) - args.max_print} more edges")
    return 0


def _run_snapshot(args: argparse.Namespace) -> int:
    from repro.index.degeneracy_index import DegeneracyIndex
    from repro.serving.snapshot import save_snapshot

    graph = _load_graph(args)
    index = DegeneracyIndex(graph, backend=args.backend, n_jobs=args.jobs)
    directory = save_snapshot(index, args.out)
    stats = index.stats()
    total = sum(f.stat().st_size for f in directory.iterdir() if f.is_file())
    print(f"snapshot   : {directory}")
    print(f"graph      : {graph.name or '(unnamed)'} "
          f"({graph.num_upper} / {graph.num_lower} / {graph.num_edges})")
    print(f"backend    : {index.backend}")
    print(f"jobs       : {args.jobs}")
    print(f"delta      : {index.delta}")
    print(f"entries    : {stats.entries}")
    print(f"bytes      : {total}")
    return 0


def _parse_ops_file(path: str) -> List[Tuple[str, str, str, float]]:
    """Parse an edge-update file into ``(kind, upper, lower, weight)`` rows."""
    kinds = {"insert": "insert", "+": "insert", "remove": "remove", "-": "remove"}
    ops: List[Tuple[str, str, str, float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = kinds.get(parts[0])
            if kind is None or len(parts) < 3 or (kind == "remove" and len(parts) != 3):
                raise ReproError(
                    f"{path}:{line_no}: expected 'insert <upper> <lower> [weight]' "
                    f"or 'remove <upper> <lower>', got {line!r}"
                )
            weight = 1.0
            if kind == "insert" and len(parts) == 4:
                try:
                    weight = float(parts[3])
                except ValueError as exc:
                    raise ReproError(f"{path}:{line_no}: bad weight {parts[3]!r}") from exc
            elif len(parts) > 4:
                raise ReproError(f"{path}:{line_no}: too many fields in {line!r}")
            ops.append((kind, parts[1], parts[2], weight))
    if not ops:
        raise ReproError(f"{path} contains no updates")
    return ops


def _open_maintainable_index(path: str) -> "DynamicDegeneracyIndex":
    """Load a saved index and wrap it in the incremental maintenance engine."""
    from repro.index.degeneracy_index import DegeneracyIndex
    from repro.index.maintenance import DynamicDegeneracyIndex
    from repro.index.serialization import load_index

    try:
        index = load_index(path)
    except OSError as error:
        raise ReproError(f"cannot open index {path}: {error}") from error
    if isinstance(index, DynamicDegeneracyIndex):
        return index
    try:
        from repro.serving.snapshot import SnapshotIndex
    except ImportError:  # pragma: no cover - serving always importable
        SnapshotIndex = ()  # type: ignore[assignment]
    if isinstance(index, SnapshotIndex):
        return DynamicDegeneracyIndex.from_snapshot(index)
    if isinstance(index, DegeneracyIndex):
        print("(index was not maintained before; rebuilding it as maintainable)")
        return DynamicDegeneracyIndex(index.graph, backend=index.backend)
    raise ReproError(
        f"{type(index).__name__} does not support incremental maintenance; "
        "only degeneracy-family indexes and snapshots do"
    )


def _print_stats(index: "Union[DegeneracyIndex, DynamicDegeneracyIndex]") -> None:
    stats = index.stats()
    print(f"index      : {stats.name}")
    print(f"entries    : {stats.entries}")
    print(f"lists      : {stats.adjacency_lists}")
    print(f"build [s]  : {stats.build_seconds:.3f}")
    for key in sorted(stats.extra):
        print(f"{key:<24}: {stats.extra[key]:g}")


def _run_update(args: argparse.Namespace) -> int:
    from repro.index.serialization import save_index

    ops = _parse_ops_file(args.ops)
    dynamic = _open_maintainable_index(args.index)
    if args.max_chain_len is not None:
        dynamic.max_chain_len = args.max_chain_len
    applied = skipped = 0
    for kind, upper_label, lower_label, weight in ops:
        if kind == "insert":
            dynamic.insert_edge(upper_label, lower_label, weight)
            applied += 1
        elif dynamic.has_edge(upper_label, lower_label):
            dynamic.remove_edge(upper_label, lower_label)
            applied += 1
        else:
            skipped += 1
    target = args.out if args.out is not None else args.index
    from pathlib import Path

    # The saved format follows the *source* index: a snapshot directory stays
    # a snapshot (appending a delta when saved back onto itself), a pickle
    # stays a pickle.
    is_snapshot = Path(args.index).is_dir()
    saved = save_index(
        dynamic, target, format="snapshot" if is_snapshot else "pickle"
    )
    print(f"applied    : {applied} updates ({skipped} removals skipped: edge absent)")
    print(f"saved      : {saved}")
    if is_snapshot:
        from repro.serving.snapshot import snapshot_version

        print(f"version    : base + {snapshot_version(saved)} delta segment(s)")
    _print_stats(dynamic)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    if args.frontend is not None:
        return _run_stats_frontend(args.frontend)
    from repro.index.serialization import load_index

    try:
        index = load_index(args.index)
    except OSError as error:
        raise ReproError(f"cannot open index {args.index}: {error}") from error
    _print_stats(index)
    from pathlib import Path

    if Path(args.index).is_dir():
        from repro.serving.snapshot import snapshot_version

        print(f"{'snapshot_version':<24}: base + {snapshot_version(args.index)} delta segment(s)")
    return 0


def _run_stats_frontend(address: str) -> int:
    from repro.serving.frontend import FrontendClient

    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"--frontend expects HOST:PORT, got {address!r}") from None
    if not host:
        host = "127.0.0.1"
    try:
        with FrontendClient(host, port, timeout=30.0) as client:
            reply = client.stats()
    except OSError as error:
        raise ReproError(f"cannot reach front end at {address}: {error}") from error
    if not reply.get("ok"):
        raise ReproError(f"front end returned an error: {reply.get('error')}")
    stats = reply["stats"]
    print(f"index      : {stats['name']}")
    print(f"entries    : {stats['entries']}")
    print(f"lists      : {stats['adjacency_lists']}")
    print(f"build [s]  : {stats['build_seconds']:.3f}")
    for key in sorted(stats["extra"]):
        print(f"{key:<24}: {stats['extra'][key]:g}")
    return 0


def _run_compact(args: argparse.Namespace) -> int:
    from repro.serving.compaction import compact_snapshot

    try:
        report = compact_snapshot(args.snapshot)
    except OSError as error:
        raise ReproError(f"cannot open snapshot {args.snapshot}: {error}") from error
    print(f"snapshot   : {report.directory}")
    if not report.compacted:
        print("chain      : empty; nothing to fold")
        return 0
    print(f"folded     : {report.folded_deltas} delta segment(s)")
    print(f"base       : {report.previous_id} -> {report.snapshot_id}")
    print(f"bytes      : {report.bytes_before} -> {report.bytes_after}")
    print(f"seconds    : {report.seconds:.3f}")
    return 0


def _parse_query_file(path: str) -> List[BatchQuery]:
    queries: List[BatchQuery] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4 or parts[0] not in ("upper", "lower", "u", "l"):
                raise ReproError(
                    f"{path}:{line_no}: expected '<upper|lower> <label> <alpha> <beta>', "
                    f"got {line!r}"
                )
            side = Side.UPPER if parts[0].startswith("u") else Side.LOWER
            try:
                alpha, beta = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ReproError(f"{path}:{line_no}: thresholds must be integers") from exc
            queries.append((Vertex(side, parts[1]), alpha, beta))
    if not queries:
        raise ReproError(f"{path} contains no queries")
    return queries


def _run_serve_frontend(args: argparse.Namespace) -> int:
    from repro.serving.frontend import ServingFrontend

    def on_ready(frontend: "ServingFrontend") -> None:
        pids = ", ".join(str(pid) for pid in frontend.worker_pids())
        print(
            f"serving frontend on {frontend.host}:{frontend.port} "
            f"({frontend.fleet.num_workers} workers: {pids})",
            flush=True,
        )

    frontend = ServingFrontend(
        args.snapshot,
        host=args.host,
        port=args.port,
        num_workers=args.workers,
        batch_window=args.batch_window,
        max_batch=args.batch_max,
        max_pending=args.max_pending,
        cache_entries=args.cache_size,
        watch_interval=args.watch_interval,
    )
    # run() blocks until interrupted; Ctrl-C stops the fleet (terminating
    # the forked workers and closing the listener) before returning.
    frontend.run(on_ready=on_ready)
    print("interrupted; serving stopped", file=sys.stderr)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    if args.port is not None:
        return _run_serve_frontend(args)
    from repro.serving.server import CommunityServer
    from repro.serving.snapshot import load_snapshot

    index = load_snapshot(args.snapshot)
    if args.queries:
        queries = _parse_query_file(args.queries)
    else:
        core = index.vertices_in_core(args.alpha, args.beta)
        if not core:
            raise ReproError(
                f"the ({args.alpha},{args.beta})-core of this snapshot is empty; "
                "choose smaller thresholds"
            )
        queries = [(vertex, args.alpha, args.beta) for vertex in core[: args.sample]]
    print(f"snapshot {args.snapshot}: delta={index.delta}, "
          f"{len(queries)} queries, {args.workers} workers")
    with CommunityServer(args.snapshot, num_workers=args.workers) as server:
        start = time.perf_counter()
        # Ask for aligned results so every query can be printed next to its
        # answer; the "skip" policy is applied to the printed summary below.
        aligned = server.batch_community(
            queries, on_empty="none" if args.on_empty == "skip" else args.on_empty
        )
        elapsed = time.perf_counter() - start
    shown: List[Tuple[BatchQuery, object]] = [
        (query, answer)
        for query, answer in zip(queries, aligned)
        if not (args.on_empty == "skip" and answer is None)
    ]
    for (query, alpha, beta), answer in shown[: args.max_print]:
        if answer is None:
            print(f"  {query!r} ({alpha},{beta}) -> empty")
        else:
            print(f"  {query!r} ({alpha},{beta}) -> {answer.num_upper}+{answer.num_lower} "
                  f"vertices, {answer.num_edges} edges")
    if len(shown) > args.max_print:
        print(f"  ... {len(shown) - args.max_print} more answers")
    rate = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(f"answered {len(queries)} queries in {elapsed:.3f}s ({rate:.1f} queries/s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return _run_info(args)
        if args.command in ("snapshot", "build"):
            return _run_snapshot(args)
        if args.command == "update":
            return _run_update(args)
        if args.command == "compact":
            return _run_compact(args)
        if args.command == "stats":
            return _run_stats(args)
        if args.command == "serve":
            return _run_serve(args)
        return _run_search(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # A long-running command (the serving front end) ends its life by
        # Ctrl-C; by this point the fleet is already stopped, so interruption
        # is a clean exit, not an error.
        print("interrupted", file=sys.stderr)
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
