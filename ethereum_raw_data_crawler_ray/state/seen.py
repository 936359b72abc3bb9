"""Sharded URL-seen set — the engine's core stateful stage (SURVEY.md ST2).

The reference's dedup identity lives in MongoDB unique indexes probed
before every write (``crawler_service.go:433-457``,
``block_repository_impl.go:135-148``). Here it is the seen role of the
crawl's state actor pool (state/pool.py): :class:`SeenShard` j owns one
:class:`~.cuckoo.CuckooFilter` shard and runs in pool actor j next to
that actor's page-store and cutoff shards. URLs route to the shard
``url_hash % n_shards`` (``pool.url_owner``) so each URL has exactly one authority — an
anti-join of candidates against crawl history with no shuffle of the
big side (SURVEY.md J5).

Two interchangeable implementations share the routing logic:

* :class:`LocalSeenSet` — plain in-process shards (golden single-threaded
  simulator + unit tests);
* :class:`ActorSeenSet` — the driver-side facade over the pool actors
  hosting the seen shards; handles are serializable, so ``map_batches``
  UDFs can probe shards from any worker.

Per-round checkpointing: each shard dumps its table to
``seen/round=<r>/shard_<j>.npz`` and its sha256 digest goes into the
lineage row — resume reloads shards bit-identically
(analog of resume-from-last-processed, ``crawler_service.go:199-226``).
"""

from __future__ import annotations

import os

import numpy as np
import ray

from .cuckoo import CuckooFilter
from .pool import RoleFacade, StatePool, scatter, url_owner


def _gather_mask(ixs: list, results: list, n: int) -> np.ndarray:
    """Per-shard bool results back in input order."""
    out = np.zeros(n, dtype=bool)
    for ix, res in zip(ixs, results):
        out[ix] = res
    return out


def _scatter_gather(handles: list, hashes: np.ndarray, call, get=list) -> np.ndarray:
    """Split ``hashes`` by owning shard, ``call(handles[j], sub)`` → bool
    array per shard (``get`` resolves the calls' results), reassembled
    in input order."""
    ixs, res = scatter(handles, url_owner(hashes, len(handles)),
                       lambda h, ix: call(h, hashes[ix]))
    return _gather_mask(ixs, get(res), len(hashes))


class LocalSeenSet:
    """In-process reference implementation (shared by tests + golden)."""

    def __init__(self, n_shards: int, capacity_per_shard: int):
        self.n_shards = n_shards
        self.shards = [CuckooFilter(capacity_per_shard, seed=j) for j in range(n_shards)]

    def check_and_insert(self, hashes: np.ndarray) -> np.ndarray:
        return _scatter_gather(self.shards, hashes,
                               lambda s, h: s.check_and_insert_many(h))

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return _scatter_gather(self.shards, hashes, lambda s, h: s.contains_many(h))

    def digests(self) -> list[bytes]:
        return [s.digest() for s in self.shards]

    def counts(self) -> list[int]:
        return [s.count for s in self.shards]


def claim_token(hashes: np.ndarray, salt: int = 0) -> int:
    """Stable identity of one claim call's content. A retried Ray task
    re-derives the same discovered sub-array (round inputs are
    deterministic), so its token matches and the shard replays the claim
    instead of reporting the rows as duplicates (which would silently
    drop them from the frontier — ADVICE r01, roundstep.py:158).

    ``salt`` mixes in a stable TASK identity (ADVICE r02: a purely
    content-derived token mis-classifies a different task whose per-shard
    sub-array happens to be byte-identical — e.g. two batches each
    discovering the same single URL — as a retry, double-admitting the
    URL). Callers pass the hash of the task's INPUT frontier batch:
    frontier batches partition a deduplicated frontier, so they are
    globally unique across tasks and reproduced exactly by a Ray retry."""
    import hashlib as _hl

    return int.from_bytes(
        _hl.blake2b(
            int(salt).to_bytes(8, "little", signed=False)
            + hashes.astype(np.uint64).tobytes(),
            digest_size=8,
        ).digest(),
        "little",
    )


def _replay_claims(
    filt: CuckooFilter, claims: dict, hashes: np.ndarray, round_no: int, token: int
) -> np.ndarray:
    """check_and_insert with replay safety: claims are logged per
    (round, url_hash) with the claimant's token; a non-novel hash whose
    logged claimant matches is a task RETRY and re-reports novel=True
    (first occurrence in the batch only, preserving within-batch dedup)."""
    log = claims.setdefault(round_no, {})
    novel = filt.check_and_insert_many(hashes)
    if log and not novel.all():
        seen_in_batch: set = set()
        for j in range(len(hashes)):
            h = int(hashes[j])
            if not novel[j] and h not in seen_in_batch and log.get(h) == token:
                novel[j] = True
            seen_in_batch.add(h)
    for j in np.flatnonzero(novel):
        log[int(hashes[j])] = token
    return novel


class SeenShard:
    """One seen shard — a role of the ``StateShard`` actor pool
    (state/pool.py).

    Fault tolerance (the Ray-native analog of the reference's
    reconnect-on-failure loops, ``crawler_service.go:727-864``): on actor
    RESTART the constructor rebuilds membership from the newest complete
    npz dump under ``ckpt_root`` (which must be shared storage on a real
    cluster) and raises the ``fresh`` flag with the dump's round. The
    driver (``CrawlPipeline._heal_seen``) detects this at the next round
    boundary and replays the claims of the GAP rounds (dump round+1 …
    now) from the committed frontier outputs — so checkpoint_every > 1
    no longer silently forgets up to N-1 rounds of claims on a shard
    restart (ADVICE r02)."""

    def __init__(self, shard_id: int, capacity: int, ckpt_root: str | None = None):
        self.shard_id = shard_id
        self.filter = CuckooFilter(capacity, seed=shard_id)
        # round → {url_hash → claimant token}; dropped by end_round once
        # the round's output is committed (no more task retries possible)
        self._claims: dict[int, dict[int, int]] = {}
        # restart detection: (fresh flag, round of the restored dump;
        # -1 = bootstrap dump, -2 = nothing restored)
        self._fresh = False
        self._restored_round = -2
        if ckpt_root:
            from .resources import actor_restarted

            if actor_restarted():
                self._fresh = True
                path, rr = self._newest_dump(ckpt_root)
                if path is not None:
                    z = np.load(path)
                    self.filter = CuckooFilter.restore(
                        {"table": z["table"], "count": int(z["count"]), "seed": shard_id}
                    )
                    self._restored_round = rr

    def _newest_dump(self, root: str) -> tuple[str | None, int]:
        import glob as _glob

        dirs = sorted(_glob.glob(os.path.join(root, "round_*")), reverse=True)
        dirs.append(os.path.join(root, "bootstrap"))
        for d in dirs:
            if os.path.exists(os.path.join(d, "_COMPLETE")):
                f = os.path.join(d, f"shard_{self.shard_id}.npz")
                if os.path.exists(f):
                    name = os.path.basename(d)
                    rr = int(name.split("_")[1]) if name.startswith("round_") else -1
                    return f, rr
        return None, -2

    def consume_fresh(self) -> tuple[bool, int]:
        """→ (restarted since last check, restored dump round). The
        driver replays gap-round claims to shards reporting fresh."""
        f, self._fresh = self._fresh, False
        return f, self._restored_round

    def check_and_insert(
        self, hashes: np.ndarray, round_no: int | None = None, token: int | None = None
    ) -> np.ndarray:
        if round_no is None:
            return self.filter.check_and_insert_many(hashes)
        return _replay_claims(self.filter, self._claims, hashes, round_no, token)

    def end_round(self, upto_round: int) -> None:
        self._claims = {r: v for r, v in self._claims.items() if r > upto_round}

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.filter.contains_many(hashes)

    def digest(self) -> bytes:
        return self.filter.digest()

    def items(self) -> int:
        return self.filter.count

    def dump_npz(self, path: str) -> bytes:
        """Persist shard state; returns the digest for the lineage row."""
        tmp = path + ".tmp.npz"  # np.savez appends .npz unless present
        np.savez_compressed(tmp, table=self.filter.table, count=self.filter.count)
        os.replace(tmp, path)
        return self.filter.digest()

    def load_npz(self, path: str) -> bytes:
        z = np.load(path)
        self.filter = CuckooFilter.restore(
            {"table": z["table"], "count": int(z["count"]), "seed": self.shard_id}
        )
        # a driver-driven load is authoritative: the resume path rewinds
        # to this dump's round and replays from there — no gap to heal
        self._fresh = False
        return self.filter.digest()


class ActorSeenSet(RoleFacade):
    """Driver-side facade over the seen role's actor handles."""

    role = "seen"

    def __init__(self, n_shards: int, capacity_per_shard: int,
                 ckpt_root: str | None = None, pool: StatePool | None = None):
        self._host(pool, n_shards, capacity=capacity_per_shard, ckpt_root=ckpt_root)

    def _call(self, method: str, hashes: np.ndarray) -> np.ndarray:
        return _scatter_gather(self.handles, hashes,
                               lambda h, sub: getattr(h, method).remote(sub), ray.get)

    def check_and_insert(self, hashes: np.ndarray) -> np.ndarray:
        return self._call("check_and_insert", hashes)

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self._call("contains", hashes)

    def digests(self) -> list[bytes]:
        return ray.get([h.digest.remote() for h in self.handles])

    def counts(self) -> list[int]:
        return ray.get([h.seen_count.remote() for h in self.handles])

    def consume_fresh(self) -> list[tuple[bool, int]]:
        """Per shard: (restarted since last check, restored dump round)."""
        return ray.get([h.seen_consume_fresh.remote() for h in self.handles])

    def insert_to_shards(self, shard_ids: list[int], hashes: np.ndarray) -> None:
        """Route ``hashes`` by owner and re-insert into the GIVEN shards
        only (gap-round claim replay after a shard restart; inserting an
        existing member is a no-op, so over-replay is safe)."""
        self._call("check_and_insert",
                   hashes[np.isin(url_owner(hashes, self.n_shards), shard_ids)])

    def save(self, dirpath: str) -> list[bytes]:
        os.makedirs(dirpath, exist_ok=True)
        return ray.get(
            [
                h.dump_npz.remote(os.path.join(dirpath, f"shard_{j}.npz"))
                for j, h in enumerate(self.handles)
            ]
        )

    def load(self, dirpath: str) -> list[bytes]:
        return ray.get(
            [
                h.load_npz.remote(os.path.join(dirpath, f"shard_{j}.npz"))
                for j, h in enumerate(self.handles)
            ]
        )

    def end_round(self, upto_round: int) -> None:
        """Drop claim logs for rounds ≤ upto_round (their executions are
        committed; no further task retries can arrive)."""
        ray.get([h.end_round.remote(upto_round) for h in self.handles])


def claim_scatter_submit(
    handles: list, hashes: np.ndarray, round_no: int, task_key: int,
) -> tuple[list, list, int]:
    """Issue the shard claim calls WITHOUT waiting — lets the caller
    overlap other work (e.g. politeness offers for rows that don't
    depend on the claim results) with the actor round trips.

    ``task_key``: stable identity of the calling task (hash of its input
    frontier batch). Each per-shard sub-array carries a claim token
    salted by it, so a retried task replays its own claims instead of
    losing the rows, and two tasks with identical per-shard sub-arrays
    but different claim sets get different tokens (ADVICE r02)."""
    ixs, refs = scatter(
        handles, url_owner(hashes, len(handles)),
        lambda h, ix: h.check_and_insert.remote(
            hashes[ix], round_no, claim_token(hashes[ix], task_key)),
    )
    return refs, ixs, len(hashes)


def claim_scatter_finish(refs: list, ixs: list, n: int) -> np.ndarray:
    return _gather_mask(ixs, ray.get(refs), n)
