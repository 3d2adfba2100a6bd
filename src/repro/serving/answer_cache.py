"""Cross-batch LRU cache of component answers for the serving front end.

The array query path (:mod:`repro.index.traversal`) memoises community
answers per *component* within one batch: every member of a connected
component at ``(alpha, beta)`` shares the same answer, so one BFS serves all
of them.  :class:`AnswerCache` keeps those answers *across* batches in the
network front end, so a power-law query mix — the realistic shape of
community-search traffic — is absorbed by a handful of hot components
instead of reaching the worker fleet again and again.  It is the only
cross-batch cache: workers keep nothing beyond the per-batch memo.

Keying
------
Entries live in *spaces*.  A space is whatever hashable key the caller uses
to partition answers — the front end uses ``(alpha, beta)``.  Within a space
an entry is one component, addressed by any of its member vertex ids.
Components of one space are disjoint, so a member id names at most one
entry.  The effective key of a cached answer is ``(generation, space,
component)`` where ``generation`` is the ``(snapshot_id, version)`` pair the
owner installs: :meth:`reset` drops every entry wholesale on a version swap,
and :meth:`put` refuses answers computed against a generation that is no
longer current, so a reload can never leave stale communities behind.

Layout
------
Membership is flat arrays, not one Python object per member: each space
keeps its member ids in one sorted int32 array, aligned with an int32 array
of the owning entry's slot — 8 bytes per cached member.  A lookup is a
binary search; the ``(space, member)`` pairs that queries actually asked are
memoised in a dict so a repeat hit costs one dict lookup, and an evicted
entry unlinks its memoised pairs.  :meth:`stats` reports the cache's array
footprint as ``answer_cache_bytes``: the membership arrays plus each cached
value's ``nbytes``.

The cache is thread-safe; hit/miss/eviction counters are cumulative across
:meth:`reset` and surface through the front end's ``stats`` verb.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = ["AnswerCache"]

#: Sentinel for :meth:`AnswerCache.put`'s ``generation`` parameter: "admit
#: unconditionally".  ``None`` is a legitimate generation value, so absence
#: must be a distinct object.
_UNCHECKED: Any = object()

_INT32 = np.iinfo(np.int32)


class _Entry:
    """One cached component: the shared answer and where its members live."""

    __slots__ = ("value", "space", "slot", "resolved")

    def __init__(self, value: Any, space: Hashable, slot: int) -> None:
        self.value = value
        self.space = space
        self.slot = slot
        # (space, member) keys memoised to this entry by get().
        self.resolved: List[Tuple[Hashable, int]] = []


class _Space:
    """Sorted member ids of one space, aligned with their entries' slots."""

    __slots__ = ("members", "slots")

    def __init__(self) -> None:
        self.members = np.empty(0, dtype=np.int32)
        self.slots = np.empty(0, dtype=np.int32)

    @property
    def nbytes(self) -> int:
        return self.members.nbytes + self.slots.nbytes

    def find(self, member: int) -> int:
        """The slot of the entry holding ``member``, or -1."""
        i = int(np.searchsorted(self.members, member))
        if i < self.members.shape[0] and self.members[i] == member:
            return int(self.slots[i])
        return -1

    def insert(self, members: np.ndarray, slot: int) -> None:
        positions = np.searchsorted(self.members, members)
        self.members = np.insert(self.members, positions, members)
        self.slots = np.insert(self.slots, positions, np.int32(slot))

    def remove(self, slot: int) -> None:
        keep = self.slots != slot
        self.members = self.members[keep]
        self.slots = self.slots[keep]


def _member_array(members: Any) -> np.ndarray:
    """``members`` as a sorted, duplicate-free int32 array."""
    ids = np.asarray(members)
    if ids.size == 0:
        return np.empty(0, dtype=np.int32)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"members must be a flat sequence of integer ids, got {ids.dtype}"
        )
    if ids.size > 1 and not bool(np.all(ids[1:] > ids[:-1])):
        ids = np.unique(ids)
    if int(ids[0]) < _INT32.min or int(ids[-1]) > _INT32.max:
        raise InvalidParameterError("member ids must fit in int32")
    return ids.astype(np.int32, copy=False)


class AnswerCache:
    """Thread-safe LRU over component answers, invalidated by generation.

    Parameters
    ----------
    max_entries:
        Capacity in *components* (not queries): one giant community shared by
        thousands of member vertices costs a single entry.
    generation:
        Opaque identity of the snapshot the cached answers were computed
        against — conventionally ``(snapshot_id, version)``.  :meth:`put`
        calls that pass a different generation are dropped, which fences the
        race between an in-flight batch and a concurrent hot reload.
    """

    def __init__(
        self, max_entries: int = 4096, generation: Optional[Tuple] = None
    ) -> None:
        if not isinstance(max_entries, int) or max_entries < 1:
            raise InvalidParameterError(
                f"max_entries must be a positive integer, got {max_entries!r}"
            )
        self._max_entries = max_entries
        self._generation = generation
        self._lock = threading.Lock()
        # slot -> entry, in LRU order (oldest first); slots are recycled.
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._free_slots: List[int] = []
        self._spaces: Dict[Hashable, _Space] = {}
        # (space, member) -> entry for the members queries have asked.
        self._resolved: Dict[Tuple[Hashable, int], _Entry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resets = 0

    @property
    def generation(self) -> Optional[Tuple]:
        return self._generation

    @property
    def max_entries(self) -> int:
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, space: Hashable, member: int, default: Any = None) -> Any:
        """The cached answer covering ``member`` in ``space``, else ``default``."""
        key = (space, member)
        with self._lock:
            entry = self._resolved.get(key)
            if entry is None:
                table = self._spaces.get(space)
                slot = -1 if table is None else table.find(member)
                if slot < 0:
                    self.misses += 1
                    return default
                entry = self._entries[slot]
                self._resolved[key] = entry
                entry.resolved.append(key)
            self._entries.move_to_end(entry.slot)
            self.hits += 1
            return entry.value

    def put(
        self,
        space: Hashable,
        members: Any,
        value: Any,
        generation: Any = _UNCHECKED,
    ) -> bool:
        """Admit one component answer; returns False if it was refused.

        ``members`` are the component's integer vertex ids (any order; an
        array that is already sorted and unique is used as is).  Putting a
        component that is already cached refreshes its value.
        ``generation`` should be the generation captured *before* the answer
        was computed: if a reload swapped the snapshot in between, the stale
        answer is silently dropped instead of poisoning the new generation.
        """
        ids = _member_array(members)
        with self._lock:
            if generation is not _UNCHECKED and generation != self._generation:
                return False
            if not ids.size:
                return False
            table = self._spaces.get(space)
            if table is None:
                table = self._spaces[space] = _Space()
            slot = table.find(int(ids[0]))
            if slot >= 0:
                self._entries[slot].value = value
                self._entries.move_to_end(slot)
                return True
            slot = self._free_slots.pop() if self._free_slots else len(self._entries)
            table.insert(ids, slot)
            self._entries[slot] = _Entry(value, space, slot)
            self._evict_over_capacity()
            return True

    def reset(self, generation: Optional[Tuple] = None) -> None:
        """Drop every entry and install the new generation (version swap)."""
        with self._lock:
            self._entries.clear()
            self._free_slots.clear()
            self._spaces.clear()
            self._resolved.clear()
            self._generation = generation
            self.resets += 1

    def stats(self) -> Dict[str, float]:
        """Cumulative counters plus the array footprint, for the ``stats`` verb."""
        with self._lock:
            nbytes = sum(table.nbytes for table in self._spaces.values())
            nbytes += sum(
                int(getattr(entry.value, "nbytes", 0))
                for entry in self._entries.values()
            )
            return {
                "answer_cache_entries": float(len(self._entries)),
                "answer_cache_hits": float(self.hits),
                "answer_cache_misses": float(self.misses),
                "answer_cache_evictions": float(self.evictions),
                "answer_cache_resets": float(self.resets),
                "answer_cache_bytes": float(nbytes),
            }

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self._max_entries:
            slot, entry = self._entries.popitem(last=False)
            table = self._spaces[entry.space]
            table.remove(slot)
            if not table.members.size:
                del self._spaces[entry.space]
            for key in entry.resolved:
                del self._resolved[key]
            self._free_slots.append(slot)
            self.evictions += 1
