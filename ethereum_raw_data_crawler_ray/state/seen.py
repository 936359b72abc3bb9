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

Two facades share the :class:`SeenShard` role and the routing logic:

* :class:`LocalSeenSet` — plain in-process shards (golden single-threaded
  simulator + unit tests);
* :class:`ActorSeenSet` — the driver-side facade over the pool actors
  hosting the seen shards; handles are serializable, so ``map_batches``
  UDFs can probe shards from any worker.

Lineage digest: ``end_round(r)`` advances each shard's hash chain
``d_r = sha256(d_{r-1} ‖ n_r ‖ sorted url_hashes admitted in round r)``
from a fixed ``d_{-1}`` — O(round), and independent of claim order and
table layout. It is the lineage row's ``seen_shard_digest``.

Recovery replays claims instead of dumping the filter every round (the
reference resumes from a cursor, ``crawler_service.go:199-226``). Each
admitted claim is committed in exactly one place: the seeds, a round's
watch ingest or its ``row_kind=discovered`` rows (carry rows are
members, not claims). :meth:`SeenShard.load` — resume and restart alike
— restores the shard's newest snapshot (or the empty filter), replays
the later committed rounds one by one, then re-claims the round not yet
run. Admitted keys ``(fp, {i1, i2})`` are pairwise distinct, so any
replay order rebuilds the same key set and chain.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pyarrow.dataset as pads
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
    """In-process shards (golden simulator + unit tests): the same
    :class:`SeenShard` role the actor pool hosts, without snapshots. Its
    owner calls :meth:`end_round` after each round, as the crawl does."""

    def __init__(self, n_shards: int, capacity_per_shard: int):
        self.n_shards = n_shards
        self.shards = [SeenShard(j, capacity_per_shard) for j in range(n_shards)]

    def check_and_insert(self, hashes: np.ndarray) -> np.ndarray:
        return _scatter_gather(self.shards, hashes, lambda s, h: s.check_and_insert(h))

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return _scatter_gather(self.shards, hashes, lambda s, h: s.contains(h))

    def end_round(self, upto_round: int) -> list[bytes]:
        """Chain each shard's claims since the last end_round → digests."""
        return [s.end_round(upto_round)[0] for s in self.shards]

    def digests(self) -> list[bytes]:
        return [s.digest() for s in self.shards]

    def counts(self) -> list[int]:
        return [s.items() for s in self.shards]


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
    return int.from_bytes(
        hashlib.blake2b(
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


# d_{-1}: the chain digest of a shard before round 0
_CHAIN_SEED = hashlib.sha256(b"seen shard chain").digest()

# A shard snapshots its filter (seen/shard_<j>/round_<r>.npz) once the
# claims it admitted since the last one reach this fraction of its
# capacity. A snapshot writes the whole table, 2 bytes a slot, i.e.
# ~17 bytes per admitted claim at 1/8: nanoseconds against the ~20-40 us
# of the claim itself. Replay after a restart or resume re-inserts at
# most this fraction of capacity (~5·10^6 claims, ~100 s single-core, on
# a 4·10^7-item shard). A smaller fraction shortens that bound and writes
# more; 1/8 caps a shard at ~8 snapshots, so all are kept. Test- and
# bench-sized crawls never snapshot.
SNAPSHOT_FRACTION = 1 / 8


def _committed_claims(out_dir: str, r: int, pending: bool = False) -> np.ndarray:
    """url_hashes admitted during round ``r`` of the crawl under
    ``out_dir``: the seeds (round 0), the round's watch ingest and, unless
    the round is still ``pending`` (not executed), its discovered rows."""
    dirs = [os.path.join(out_dir, "frontier", "round_00000")] if r == 0 else []
    dirs.append(os.path.join(out_dir, "ingest", f"round_{r:05d}"))
    if not pending:
        dirs.append(os.path.join(out_dir, "rounds", f"round_{r:05d}", "row_kind=discovered"))
    files = [f for d in dirs
             for f in sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))]
    if not files:
        return np.zeros(0, dtype=np.uint64)
    t = pads.dataset(files, format="parquet").to_table(columns=["url_hash"])
    return np.asarray(t["url_hash"].to_pandas(), dtype=np.uint64)


class SeenShard:
    """One seen shard — a role of the ``StateShard`` actor pool
    (state/pool.py), or in-process in :class:`LocalSeenSet`.

    Fault tolerance (the Ray-native analog of the reference's
    reconnect-on-failure loops, ``crawler_service.go:727-864``): a
    RESTARTED shard rebuilds itself in its constructor (:meth:`load`)
    before it serves a call, so no claim ever reaches a stale filter.
    ``out_dir`` is the crawl's output root (shared storage on a real
    cluster); without it the shard keeps no snapshots."""

    def __init__(self, shard_id: int, capacity: int, out_dir: str | None = None,
                 n_shards: int = 1):
        self.shard_id = shard_id
        self.capacity = capacity
        self.out_dir = out_dir
        self.n_shards = n_shards
        self._restore(None)
        if out_dir:
            from .resources import actor_restarted

            if actor_restarted():
                self.load()

    def _restore(self, snapshot: str | None) -> None:
        """Start from ``snapshot``, or from the empty filter before round 0."""
        if snapshot is None:
            self.filter = CuckooFilter(self.capacity, seed=self.shard_id)
            self._digest, self._round = _CHAIN_SEED, -1
        else:
            z = np.load(snapshot)
            self.filter = CuckooFilter.restore(
                {"table": z["table"], "count": int(z["count"]), "seed": self.shard_id})
            self._digest, self._round = z["digest"].tobytes(), int(z["round"])
        # round → {url_hash → claimant token}: the round's admitted claims,
        # dropped by end_round once the round's output is committed (no
        # more task retries possible)
        self._claims: dict[int, dict[int, int]] = {}
        self._admitted: list[np.ndarray] = []  # round-less claims since end_round
        self._unsaved = 0  # claims admitted since the snapshot

    def _own(self, hashes: np.ndarray) -> np.ndarray:
        return hashes[url_owner(hashes, self.n_shards) == self.shard_id]

    def check_and_insert(
        self, hashes: np.ndarray, round_no: int | None = None, token: int | None = None
    ) -> np.ndarray:
        if round_no is None:
            novel = self.filter.check_and_insert_many(hashes)
            self._admitted.append(hashes[novel].astype(np.uint64))
            return novel
        return _replay_claims(self.filter, self._claims, hashes, round_no, token)

    def end_round(self, upto_round: int) -> tuple[bytes, bool]:
        """Close round ``upto_round``: chain the claims admitted since the
        last end_round and drop the round's claim log → (chain digest,
        snapshot due). A no-op for a round the shard already replayed."""
        if upto_round > self._round:
            log = self._claims.get(upto_round, {})
            admitted = np.concatenate(
                [*self._admitted, np.fromiter(log, dtype=np.uint64, count=len(log))])
            h = hashlib.sha256(self._digest)
            h.update(len(admitted).to_bytes(8, "little"))
            h.update(np.sort(admitted).tobytes())
            self._digest, self._round = h.digest(), upto_round
            self._admitted = []
            self._unsaved += len(admitted)
        self._claims = {r: v for r, v in self._claims.items() if r > upto_round}
        due = bool(self.out_dir) and self._unsaved >= SNAPSHOT_FRACTION * self.capacity
        return self._digest, due

    def save(self) -> None:
        """Snapshot the filter as of the last ended round — table, count,
        chain digest and round — atomically into ``seen/shard_<j>/``."""
        d = os.path.join(self.out_dir, "seen", f"shard_{self.shard_id}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"round_{self._round:05d}.npz")
        tmp = path + ".tmp.npz"  # np.savez appends .npz unless present
        np.savez(tmp, table=self.filter.table, count=self.filter.count,
                 digest=np.frombuffer(self._digest, dtype=np.uint8), round=self._round)
        os.replace(tmp, path)
        self._unsaved = 0

    def load(self) -> bytes:
        """Rebuild from the committed outputs: the newest snapshot of a
        committed round (or the empty filter), then every later committed
        round's claims with the chain advanced per round, then the claims
        of the round not yet executed. → chain digest."""
        top = -1
        while os.path.isdir(os.path.join(self.out_dir, "rounds", f"round_{top + 1:05d}")):
            top += 1
        snaps = [p for p in glob.glob(os.path.join(
                     self.out_dir, "seen", f"shard_{self.shard_id}", "round_?????.npz"))
                 if int(p[-9:-4]) <= top]
        self._restore(max(snaps) if snaps else None)
        for r in range(self._round + 1, top + 1):
            self.check_and_insert(self._own(_committed_claims(self.out_dir, r)))
            self.end_round(r)
        self.check_and_insert(self._own(_committed_claims(self.out_dir, top + 1, pending=True)))
        return self._digest

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.filter.contains_many(hashes)

    def digest(self) -> bytes:
        return self._digest

    def items(self) -> int:
        return self.filter.count


class ActorSeenSet(RoleFacade):
    """Driver-side facade over the seen role's actor handles."""

    role = "seen"

    def __init__(self, n_shards: int, capacity_per_shard: int,
                 out_dir: str | None = None, pool: StatePool | None = None):
        self._host(pool, n_shards, capacity=capacity_per_shard, out_dir=out_dir,
                   n_shards=n_shards)

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

    def end_round(self, upto_round: int) -> list[bytes]:
        """Close round ``upto_round`` on every shard (its output is
        committed, so no task retry can replay its claims) → the shards'
        chain digests; shards due a snapshot write it now."""
        out = ray.get([h.end_round.remote(upto_round) for h in self.handles])
        self.save([j for j, (_, due) in enumerate(out) if due])
        return [d for d, _ in out]

    def save(self, shard_ids: list[int]) -> None:
        """Snapshot the given shards (state as of their last ended round)."""
        ray.get([self.handles[j].save.remote() for j in shard_ids])

    def load(self) -> list[bytes]:
        """Rebuild every shard from the committed outputs (resume) → the
        shards' chain digests."""
        return ray.get([h.load.remote() for h in self.handles])


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
