"""Seeded inputs: edge files, request pools and streams, the edge-op stream.

Every function takes its randomness from an explicit ``random.Random`` built
from the workload seed, so one seed always yields the same files and
streams.  The program under test only ever sees the edge file and the
requests derived here.
"""

from __future__ import annotations

import bisect
import itertools
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Edge weights are drawn uniformly from this range.  They must not be all
#: equal: a uniform-weight graph sends every significant query through the
#: uniform-weight shortcut and the SCS kernels would never be measured.
WEIGHT_RANGE = (1, 32)

Query = Tuple[str, str, int, int]  # (side, label, alpha, beta)
Op = Tuple[str, str, str, float]  # (kind, upper, lower, weight)


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, so adding one draw elsewhere
    never shifts another stream."""
    return random.Random(f"{seed}:{purpose}")


#: Seed of the graph *topology*.  Which hubs a small skewed graph happens to
#: have moves maintenance and first-touch costs by a factor of two or three
#: from one topology to the next, which would swamp any change under test;
#: so the topology is part of the workload's definition and the run seed
#: drives the weights and the requests (see :func:`churn_ops` for edge ops).
TOPOLOGY_SEED = 7


def power_law_edges(num_edges: int, upper_per_edge: float, lower_per_edge: float, exponent: float, seed: int) -> List[Tuple[str, str, float]]:
    """A power-law bipartite edge list (the repository's generator) with
    weights drawn from ``seed``."""
    from repro.graph.generators import power_law_bipartite

    graph = power_law_bipartite(
        num_upper=max(int(num_edges * upper_per_edge), 10),
        num_lower=max(int(num_edges * lower_per_edge), 10),
        num_edges=num_edges,
        exponent_upper=exponent,
        exponent_lower=exponent,
        seed=TOPOLOGY_SEED,
    )
    rng = rng_for(seed, "weights")
    low, high = WEIGHT_RANGE
    return [(u, v, float(rng.randint(low, high))) for u, v, _ in graph.edges()]


def write_edge_file(edges: Sequence[Tuple[str, str, float]], path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, w in edges:
            handle.write(f"{u} {v} {w:g}\n")
    return path


# --------------------------------------------------------------------------- #
# request pools over a built snapshot
# --------------------------------------------------------------------------- #
class CoreTable:
    """Who is in which (α,β)-core, from a snapshot's per-level offsets.

    A vertex is in the (α,β)-core iff its offset at level ``("alpha", α)``
    is at least β (α ≤ β), or at level ``("beta", β)`` at least α (β < α).
    Sorting each level's members by offset once makes every core a prefix.
    """

    def __init__(self, snapshot) -> None:
        self.delta = snapshot.delta
        handles = self._handles = snapshot.global_handles()
        self._levels: Dict[Tuple[str, int], Tuple[List[int], List[int]]] = {}
        for key, arrays in snapshot.level_arrays().items():
            offsets = arrays.offsets.tolist()
            order = sorted(
                # A None handle is a vertex a delta removed.
                (gid for gid, off in enumerate(offsets) if off > 0 and handles[gid] is not None),
                key=lambda gid: (-offsets[gid], gid),
            )
            # Ascending negated offsets so bisect finds the prefix length.
            self._levels[key] = (order, [-offsets[gid] for gid in order])

    @staticmethod
    def _route(alpha: int, beta: int) -> Tuple[Tuple[str, int], int]:
        if alpha <= beta:
            return ("alpha", alpha), beta
        return ("beta", beta), alpha

    def core_size(self, alpha: int, beta: int) -> int:
        if min(alpha, beta) > self.delta:
            return 0
        key, requirement = self._route(alpha, beta)
        _, neg = self._levels[key]
        return bisect.bisect_right(neg, -requirement)

    def member(self, alpha: int, beta: int, position: int) -> Tuple[str, str]:
        """The ``position``-th member of the core as ``(side, label)``."""
        key, _ = self._route(alpha, beta)
        vertex = self._handles[self._levels[key][0][position]]
        return ("upper" if vertex.side.name == "UPPER" else "lower", vertex.label)

    def nonempty_pairs(self, max_threshold: int = 0) -> List[Tuple[int, int]]:
        """Every (α,β) with a non-empty core, optionally both ≤ ``max_threshold``."""
        def top(key: Tuple[str, int]) -> int:
            neg = self._levels[key][1]
            return -neg[0] if neg else 0

        pairs = [
            (tau, beta)
            for tau in range(1, self.delta + 1)
            for beta in range(tau, top(("alpha", tau)) + 1)
        ] + [
            (alpha, tau)
            for tau in range(1, self.delta + 1)
            for alpha in range(tau + 1, top(("beta", tau)) + 1)
        ]
        if max_threshold:
            pairs = [p for p in pairs if max(p) <= max_threshold]
        return pairs

    def random_query(self, alpha: int, beta: int, rng: random.Random) -> Query:
        side, label = self.member(alpha, beta, rng.randrange(self.core_size(alpha, beta)))
        return side, label, alpha, beta


def hot_pool(table: CoreTable, seed: int) -> List[Query]:
    """One query per non-empty (α,β) with α,β ≤ δ, hottest first."""
    rng = rng_for(seed, "hot-pool")
    pool = [table.random_query(a, b, rng) for a, b in table.nonempty_pairs(table.delta)]
    rng.shuffle(pool)
    return pool


def zipf_stream(pool: Sequence[Query], count: int, skew: float, seed: int, purpose: str = "zipf") -> List[Query]:
    """``count`` draws from ``pool`` with Zipf(``skew``) weights by rank."""
    rng = rng_for(seed, purpose)
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** skew for rank in range(len(pool))))
    return rng.choices(pool, cum_weights=weights, k=count)


def first_touch_pool(table: CoreTable, seed: int) -> List[Query]:
    """One query for every non-empty (α,β): each pair at most once, so the
    answer cache can only admit and evict.

    A run asks a few hundred of several thousand pairs whose components
    differ in size by orders of magnitude, so, like the topology, the order
    of pairs is part of the workload; ``seed`` picks the vertex asked.
    """
    pairs = table.nonempty_pairs()
    rng_for(TOPOLOGY_SEED, "first-touch").shuffle(pairs)
    rng = rng_for(seed, "first-touch")
    return [table.random_query(a, b, rng) for a, b in pairs]


def significant_cores(table: CoreTable) -> List[Tuple[int, int]]:
    """A few mid-depth cores, scaled to the graph's degeneracy."""
    delta = table.delta
    candidates = [(2, 4), (4, 2), (max(delta // 6, 3),) * 2, (max(delta // 4, 4),) * 2, (max(delta // 3, 5),) * 2]
    seen = []
    for pair in candidates:
        if pair not in seen and table.core_size(*pair) > 0:
            seen.append(pair)
    return seen


def significant_stream(table: CoreTable, count: int, seed: int, purpose: str = "significant") -> List[Query]:
    """``count`` significant queries, cores chosen uniformly."""
    rng = rng_for(seed, purpose)
    cores = significant_cores(table)
    return [table.random_query(*rng.choice(cores), rng) for _ in range(count)]


def interleave(community: int, significant: int) -> List[str]:
    """``community`` + ``significant`` kinds spread evenly (C C S C C S ...
    for 2:1), so every run offers the same arrival pattern of each kind."""
    total = community + significant
    return [
        "significant" if (i + 1) * significant // total > i * significant // total else "community"
        for i in range(total)
    ]


# --------------------------------------------------------------------------- #
# edge-op stream
# --------------------------------------------------------------------------- #
#: Ops per block of the churn stream: 8 inserts, 9 removals, 3 reweights.
OP_BLOCK = (("insert", 8), ("remove", 9), ("reweight", 3))


def churn_ops(edges: Sequence[Tuple[str, str, float]], count: int, seed: int) -> List[Op]:
    """40% inserts, 45% removals, 15% reweights over the existing vertices.

    The mix is exact in every block of 20 ops.  Removals and reweights
    always name a live edge (liveness is tracked while the stream is
    generated), inserts always a new one.  Like the topology, the sequence
    of edges is part of the workload: which hub edges a random stream
    happens to remove moves the p90 update cost by a third from one stream
    to the next, so ``seed`` draws the inserted and reweighted weights.
    """
    rng = rng_for(TOPOLOGY_SEED, "ops")
    weights = rng_for(seed, "op-weights")
    uppers = sorted({u for u, _, _ in edges})
    lowers = sorted({v for _, v, _ in edges})
    live: List[Tuple[str, str]] = [(u, v) for u, v, _ in edges]
    live_set = set(live)
    low, high = WEIGHT_RANGE
    ops: List[Op] = []

    def live_edge() -> Tuple[str, str]:
        while True:
            pair = live[rng.randrange(len(live))]
            if pair in live_set:
                return pair

    while len(ops) < count:
        kinds = [kind for kind, n in OP_BLOCK for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "insert":
                pair = (rng.choice(uppers), rng.choice(lowers))
                while pair in live_set:
                    pair = (rng.choice(uppers), rng.choice(lowers))
                live.append(pair)
                live_set.add(pair)
                ops.append(("insert", pair[0], pair[1], float(weights.randint(low, high))))
            elif kind == "remove":
                pair = live_edge()
                live_set.discard(pair)
                ops.append(("remove", pair[0], pair[1], 0.0))
            else:
                pair = live_edge()
                ops.append(("reweight", pair[0], pair[1], float(weights.randint(low, high))))
    return ops[:count]
