"""Build once, snapshot, and serve community queries from worker processes.

The two-step framework builds an index once and answers many queries.  This
example walks the full serving lifecycle on a synthetic rating graph:

1. build a :class:`~repro.index.degeneracy_index.DegeneracyIndex`;
2. persist it twice — as the version-1 pickle and as the mmap-able
   version-2 **snapshot** — and compare the cold start (open + first query)
   of both;
3. stand up a 2-worker :class:`~repro.serving.server.CommunityServer` over
   the snapshot and push a mixed batch through it;
4. verify the served answers agree with the single-process batch API.

Run with::

    python examples/serve_snapshot.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import CommunitySearcher
from repro.graph.generators import power_law_bipartite
from repro.index.serialization import load_index, save_index
from repro.serving.snapshot import load_snapshot


def main() -> None:
    graph = power_law_bipartite(1500, 1200, 12000, seed=5, name="ratings")
    print(f"Graph: {graph.num_upper} users x {graph.num_lower} items, "
          f"{graph.num_edges} ratings")

    searcher = CommunitySearcher(graph)
    index = searcher.index
    print(f"Index built: delta = {index.delta}, {index.stats().entries} entries")

    with tempfile.TemporaryDirectory(prefix="repro-serve-example-") as tmp:
        tmp_path = Path(tmp)
        pickle_path = save_index(index, tmp_path / "index.pkl", format="pickle")
        snapshot_path = save_index(index, tmp_path / "snapshot", format="snapshot")
        query = index.vertices_in_core(3, 3)[0]

        start = time.perf_counter()
        first = load_index(pickle_path).community(query, 3, 3)
        pickle_seconds = time.perf_counter() - start

        start = time.perf_counter()
        snapshot = load_snapshot(snapshot_path)
        mapped = snapshot.community(query, 3, 3)
        snapshot_seconds = time.perf_counter() - start

        assert mapped.same_structure(first)
        print(f"cold start to first answer: pickle {pickle_seconds:.3f}s, "
              f"snapshot {snapshot_seconds:.4f}s "
              f"({pickle_seconds / snapshot_seconds:.0f}x faster)")

        queries = [(q, 2, 2) for q in index.vertices_in_core(2, 2)[:30]]
        queries += [(q, 3, 3) for q in index.vertices_in_core(3, 3)[:20]]

        serving_searcher = CommunitySearcher(index=snapshot)
        with serving_searcher.serve(num_workers=2) as server:
            start = time.perf_counter()
            served = server.batch_community(queries)
            elapsed = time.perf_counter() - start
            print(f"2-worker server answered {len(served)} queries "
                  f"in {elapsed:.3f}s ({len(served) / elapsed:.0f} queries/s)")

        sequential = snapshot.batch_community(queries)
        assert all(a.same_structure(b) for a, b in zip(served, sequential))
        print("served answers agree with sequential batch_community")

        biggest = max(served, key=lambda g: g.num_edges)
        print(f"largest served community: {biggest.num_upper} users, "
              f"{biggest.num_lower} items, {biggest.num_edges} edges")


if __name__ == "__main__":
    main()
