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
likewise treats any duplicate-key signal as success). Membership results
are independent of insert order, so parallel round execution stays
deterministic apart from FP-coincidences, which tests run far below.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SLOTS = 4
_MAX_KICKS = 500


def _next_pow2(x: int) -> int:
    return 1 << max(4, (x - 1).bit_length())


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
        n_buckets = _next_pow2(int(capacity / (_SLOTS * 0.95)) + 1)
        self.n_buckets = n_buckets
        self.mask = np.uint64(n_buckets - 1)
        self.table = np.zeros((n_buckets, _SLOTS), dtype=np.uint16)
        self.count = 0
        self.seed = seed
        # fp → bucket-offset mix table (fixed, derived from golden ratio)
        with np.errstate(over="ignore"):
            self._fpmix = (
                np.arange(65536, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ) >> np.uint64(32)

    # --- key derivation ---------------------------------------------------
    def _parts(self, hashes: np.ndarray):
        h = _splitmix64(hashes)
        fp = ((h >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.uint16)
        fp = np.where(fp == 0, np.uint16(1), fp)  # 0 means empty slot
        i1 = (h & self.mask).astype(np.int64)
        i2 = ((i1.astype(np.uint64) ^ self._fpmix[fp]) & self.mask).astype(np.int64)
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
        fpmix = self._fpmix
        mask = int(self.mask)
        for j in range(n):
            f = fp[j]
            b1 = i1[j]
            b2 = i2[j]
            row1 = table[b1]
            row2 = table[b2]
            if (row1 == f).any() or (row2 == f).any():
                continue
            if not self._place(f, b1, b2):
                # count/table stay consistent: earlier inserts in this
                # batch were each counted as they were placed
                raise RuntimeError(
                    f"cuckoo shard full (count={self.count}, buckets={self.n_buckets})"
                )
            novel[j] = True
            self.count += 1
        return novel

    def _place(self, f: np.uint16, b1: int, b2: int) -> bool:
        table = self.table
        for b in (b1, b2):
            row = table[b]
            empty = np.flatnonzero(row == 0)
            if empty.size:
                row[empty[0]] = f
                return True
        # evict: random-walk kick bounded by _MAX_KICKS (deterministic walk
        # — slot choice derived from the fingerprint, no RNG state)
        b = b2
        cur = f
        for kick in range(_MAX_KICKS):
            slot = (int(cur) + kick) % _SLOTS
            victim = table[b, slot]
            table[b, slot] = cur
            cur = victim
            b = int((np.uint64(b) ^ self._fpmix[cur]) & self.mask)
            row = table[b]
            empty = np.flatnonzero(row == 0)
            if empty.size:
                row[empty[0]] = cur
                return True
        return False

    # --- checkpoint state -------------------------------------------------
    def digest(self) -> bytes:
        """Content digest of the shard — checkpointed per round in lineage
        (analog of resume-state, crawler_service.go:199-226).

        Slots within a bucket are sorted before hashing so the digest is a
        function of the membership set, not of parallel insert arrival
        order (absent evictions) — required for bit-identical lineage
        between an uninterrupted run and a resumed one."""
        h = hashlib.sha256()
        h.update(np.sort(self.table, axis=1).tobytes())
        h.update(self.count.to_bytes(8, "little"))
        return h.digest()

    def dump(self) -> dict:
        return {"table": self.table.copy(), "count": self.count, "seed": self.seed}

    @classmethod
    def restore(cls, state: dict) -> "CuckooFilter":
        obj = cls.__new__(cls)
        obj.table = state["table"].copy()
        obj.n_buckets = obj.table.shape[0]
        obj.mask = np.uint64(obj.n_buckets - 1)
        obj.count = int(state["count"])
        obj.seed = int(state.get("seed", 0))
        with np.errstate(over="ignore"):
            obj._fpmix = (
                np.arange(65536, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ) >> np.uint64(32)
        return obj
