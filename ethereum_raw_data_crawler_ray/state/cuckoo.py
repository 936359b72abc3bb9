"""Numpy-backed cuckoo filter — the scalable URL-seen membership structure.

Replaces the reference's exact-unique-index dedup (MongoDB unique indexes
on ``blocks.number`` / ``blocks.hash`` / ``transactions.hash``,
``mongodb.go:84-115``, with duplicate-key-as-success semantics at
``crawler_service.go:447-453``). A unique index is O(dataset) server-side
state; at 10^10 URLs the idiomatic replacement (per BASELINE.json
north_star) is a **sharded approximate-membership filter**: this module is
one shard's table, :mod:`.seen` wraps it in Ray actors.

Design: partial-key cuckoo hashing (Fan et al., "Cuckoo Filter:
Practically Better Than Bloom", CoNLX 2014 — public paper): 4 slots per
bucket, 16-bit fingerprints, alternate bucket ``i2 = i1 XOR mix(fp)``.
~18.4 bits/entry at 95% load → a 4e7-entry shard is ~78 MiB; 256 shards
cover 10^10 URLs in ~20 GiB of actor memory cluster-wide. Keys are
derived from a splitmix64 REMIX of the input hash so the filter is
independent of the raw hash's low bits, which the rest of the engine
consumes for shard routing / bucketing / salting (see ``_splitmix64``).

False positives (~2*4/2^16 ≈ 0.012%) cause a rare URL to be treated as
already-seen and skipped — acceptable crawl semantics (the reference
likewise treats any duplicate-key signal as success). ``contains()`` is
true only for a key ``(fp, {i1, i2})`` equal to a stored one, so its
answers depend only on the SET of keys inserted, never on their order;
the table LAYOUT does depend on order (an item lands in i2 only when i1
was full when it arrived, and kicks move items), so parallel round
execution fills tables differently while answering identically.
"""

from __future__ import annotations

import numpy as np

_SLOTS = 4
_MAX_KICKS = 500


def slots_for(capacity: int) -> int:
    """Slots of a filter built for ``capacity`` items (power-of-two
    buckets sized for 95% load); its load factor is ``count / slots``."""
    return _SLOTS << max(4, int(capacity / (_SLOTS * 0.95)).bit_length())


# fp → bucket-offset mix table (fixed, derived from the golden ratio)
with np.errstate(over="ignore"):
    _FPMIX = (np.arange(65536, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer. The raw url_hash's LOW bits are
    consumed by shard routing (``pool.url_owner``: h % n_shards), fetch
    bucketing and salt keys — so within one shard the low bits are
    CONSTANT. Deriving i1 from them directly confines i1 to 1/n_shards of
    the buckets and the shard fills up (and raises) at a fraction of its
    stated capacity. Remixing decorrelates the filter's key derivation
    from every external consumer of the raw hash."""
    h = h.astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


class CuckooFilter:
    """One shard. Not thread-safe — lives inside a single Ray actor."""

    def __init__(self, capacity: int, seed: int = 0):
        self._init(np.zeros((slots_for(capacity) // _SLOTS, _SLOTS), dtype=np.uint16),
                   0, seed)

    def _init(self, table: np.ndarray, count: int, seed: int) -> None:
        self.table = table
        self.n_buckets = table.shape[0]
        self.mask = np.uint64(self.n_buckets - 1)
        self.count = count
        self.seed = seed

    # --- key derivation ---------------------------------------------------
    def _parts(self, hashes: np.ndarray):
        h = _splitmix64(hashes)
        fp = ((h >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.uint16)
        fp = np.where(fp == 0, np.uint16(1), fp)  # 0 means empty slot
        i1 = (h & self.mask).astype(np.int64)
        i2 = ((i1.astype(np.uint64) ^ _FPMIX[fp]) & self.mask).astype(np.int64)
        return fp, i1, i2

    # --- vectorized membership -------------------------------------------
    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._parts(hashes)
        fpc = fp[:, None]
        return (self.table[i1] == fpc).any(axis=1) | (self.table[i2] == fpc).any(
            axis=1
        )

    # --- insert (per-item with vectorized precompute) ---------------------
    def check_and_insert_many(self, hashes: np.ndarray) -> np.ndarray:
        """For each hash: True if novel (inserted now), False if already
        present. The batch is processed in order; duplicate hashes within
        one batch get exactly one True."""
        n = len(hashes)
        novel = np.zeros(n, dtype=bool)
        if n == 0:
            return novel
        fp, i1, i2 = self._parts(hashes)
        table = self.table
        for j in range(n):
            f = fp[j]
            b1 = i1[j]
            b2 = i2[j]
            row1 = table[b1]
            row2 = table[b2]
            if (row1 == f).any() or (row2 == f).any():
                continue
            # on a raise count/table stay consistent: earlier inserts in
            # this batch were each counted as they were placed
            self._insert(f, b1, b2)
            novel[j] = True
        return novel

    def _insert(self, f: np.uint16, b1: int, b2: int) -> None:
        table = self.table
        for b in (b1, b2):
            row = table[b]
            empty = np.flatnonzero(row == 0)
            if empty.size:
                row[empty[0]] = f
                self.count += 1
                return
        # evict: random-walk kick bounded by _MAX_KICKS (deterministic walk
        # — slot choice derived from the fingerprint, no RNG state)
        b = b2
        cur = f
        for kick in range(_MAX_KICKS):
            slot = (int(cur) + kick) % _SLOTS
            victim = table[b, slot]
            table[b, slot] = cur
            cur = victim
            b = int((np.uint64(b) ^ _FPMIX[cur]) & self.mask)
            row = table[b]
            empty = np.flatnonzero(row == 0)
            if empty.size:
                row[empty[0]] = cur
                self.count += 1
                return
        # the walk dropped its last victim for f: the item count is unchanged
        raise RuntimeError(f"cuckoo shard full (count={self.count}, buckets={self.n_buckets})")

    # --- state -------------------------------------------------------------
    def dump(self) -> dict:
        return {"table": self.table.copy(), "count": self.count, "seed": self.seed}

    @classmethod
    def restore(cls, state: dict) -> "CuckooFilter":
        obj = cls.__new__(cls)
        obj._init(state["table"].copy(), int(state["count"]), int(state.get("seed", 0)))
        return obj
