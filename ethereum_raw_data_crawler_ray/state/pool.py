"""One actor pool for all crawl state.

The crawl keeps three kinds of state in long-lived actors, each split
into logical shards:

* the page store (:mod:`.store`) — store shard j owns the fetch-index
  buckets b with ``b % n_store == j``;
* the seen filter (:mod:`.seen`) — seen shard j owns
  ``url_hash % n_seen == j``;
* the politeness cutoffs (:mod:`.politeness`) — cutoff shard j owns the
  hosts with ``hash(host) % n_cutoff == j``.

Those are the two owner rules, and this module holds both:
:func:`url_owner` (``url_hash % n`` — seen shards, store shards, the
fetch-index buckets and the lineage shard columns) and
:func:`host_owner` (``hash_strings(host) % k`` — cutoff shards). Every
crawl-state scatter routes through :func:`groups` / :func:`scatter`:
one call per shard that owns at least one row, shards in ascending
order, each shard's rows in input order (claim tokens hash the
per-shard sub-array, so that order is part of the contract).

The role code is plain classes. One pool of
``max(n_store, n_seen, n_cutoff)`` :class:`StateShard` actors runs them:
actor j hosts whichever of store shard j, seen shard j and cutoff shard
j exist. Routing stays on the logical shard ids, so outputs, lineage
digests and resume are the same as with one process per shard.

Why one pool: spawning the actor processes is what crawl set-up costs.
Ray starts as many worker processes at a time as the session has CPUs,
each taking seconds. On crawl-polite's config in a 2-CPU session
(BASELINE.md), three per-role pools of 4 + 2 + 2 processes prepared in
7.8 s (6.3 s when all were created before any wait), the same roles in
4 shared processes in 4.2 s, with 567 MB less actor memory.

The actor forwards each role method under the role method's own name.
Every role defines ``items``: the actor's one ``health()`` reports it
for each role it hosts, and ``store_count`` / ``seen_count`` forward
the store's and the seen shard's ``items``.

A restart restarts every role in the process, and each recovers on its
own: the store re-reads the immutable fetch index, the seen shard
rebuilds itself in its constructor from its newest snapshot plus a
replay of the committed claims after it (``SeenShard.load``), the
cutoff shard raises ``fresh`` so the driver drops the round's offers
and backfills them. No constructor argument lives in the object store,
so a restart never depends on an object that may be gone.
"""

from __future__ import annotations

import os

import numpy as np
import ray

from ..functions.hashing import hash_strings

def url_owner(hashes, n: int) -> np.ndarray:
    """Owner of each url hash among ``n`` shards or buckets."""
    return (np.asarray(hashes, dtype=np.uint64) % np.uint64(n)).astype(np.int64)


def host_owner(hosts, k: int) -> np.ndarray:
    """Owner of each host among ``k`` cutoff shards."""
    return (hash_strings(hosts) % np.uint64(k)).astype(np.int64)


def groups(owner: np.ndarray):
    """Yield ``(j, positions owned by j)`` for each shard j owning at
    least one row: shards ascending, positions in input order."""
    for j in np.flatnonzero(np.bincount(owner)):
        yield int(j), np.flatnonzero(owner == j)


def scatter(handles: list, owner: np.ndarray, call) -> tuple[list, list]:
    """One ``call(handles[j], positions)`` per owning shard, without
    waiting → (positions list, results list); with actor handles the
    results are ObjectRefs."""
    ixs, refs = [], []
    for j, ix in groups(owner):
        ixs.append(ix)
        refs.append(call(handles[j], ix))
    return ixs, refs


# actor method → (role, role method)
_FORWARD = {
    "fetch_packed": ("store", "fetch_packed"),
    "load_files": ("store", "load_files"),
    "store_count": ("store", "items"),
    "check_and_insert": ("seen", "check_and_insert"),
    "contains": ("seen", "contains"),
    "digest": ("seen", "digest"),
    "end_round": ("seen", "end_round"),
    "save": ("seen", "save"),
    "load": ("seen", "load"),
    "seen_count": ("seen", "items"),
    "offer": ("cutoff", "offer"),
    "set_errors": ("cutoff", "set_errors"),
    "drop_round": ("cutoff", "drop_round"),
    "finalize_round": ("cutoff", "finalize_round"),
    "pull_cutoffs": ("cutoff", "pull_cutoffs"),
    "fetch_ready": ("cutoff", "fetch_ready"),
    "consume_fresh": ("cutoff", "consume_fresh"),
}


def _role_classes() -> dict:
    from .politeness import CutoffShard
    from .seen import SeenShard
    from .store import PageStoreShard

    return {"store": PageStoreShard, "seen": SeenShard, "cutoff": CutoffShard}


class StateShard:
    """Actor j of the pool: hosts role r's shard j for every role r
    with more than j shards. ``roles``: role → (n_shards, constructor
    kwargs of the role class)."""

    def __init__(self, shard_id: int, roles: dict):
        classes = _role_classes()
        self.roles = {
            name: classes[name](shard_id, **kw)
            for name, (n, kw) in roles.items()
            if shard_id < n
        }

    def health(self) -> dict:
        """SystemHealth analog (crawler_metrics.go:46-68): has this
        process been restarted, its CPU seconds and resident memory —
        shared by every role it hosts — and, under ``items``, each
        hosted role's state size."""
        from .resources import actor_restarted, proc_rss_kb

        tm = os.times()
        return {"reconstructed": actor_restarted(),
                "cpu_s": float(tm.user + tm.system),
                "rss_kb": proc_rss_kb(), "pid": os.getpid(),
                "items": {name: int(r.items()) for name, r in self.roles.items()}}


def _forwarder(name: str, role: str, method: str):
    def call(self, *args, **kwargs):
        return getattr(self.roles[role], method)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# added before ray.remote, which reads the class's methods once
for _name, (_role, _method) in _FORWARD.items():
    setattr(StateShard, _name, _forwarder(_name, _role, _method))

StateShard = ray.remote(num_cpus=0, max_restarts=2, max_task_retries=-1)(StateShard)


class StatePool:
    """Driver side of the pool: the facades declare the roles they host
    (:meth:`host`), :meth:`start` spawns the actors once, :meth:`kill`
    ends them once."""

    def __init__(self):
        self.roles: dict[str, tuple[int, dict]] = {}
        self.handles: list = []

    def host(self, role: str, n_shards: int, /, **kwargs) -> None:
        self.roles[role] = (n_shards, kwargs)

    def start(self) -> None:
        from .resources import shard_cpu_reservation

        n = max(n for n, _ in self.roles.values())
        cpus = shard_cpu_reservation(n)
        self.handles = [
            StateShard.options(num_cpus=cpus).remote(j, self.roles)
            for j in range(n)
        ]

    def kill(self) -> None:
        for h in self.handles:
            ray.kill(h)
        self.handles = []


class RoleFacade:
    """Base of the driver-side facades (``ActorSeenSet``,
    ``ActorPageStore``, ``CutoffPool``): ``handles[j]`` is the actor
    hosting this role's shard j. Given a ``pool``, the facade adds its
    role to it and the caller starts the pool; without one it spawns a
    pool that runs only its own role."""

    role: str
    n_shards: int
    pool: StatePool

    def _host(self, pool: StatePool | None, n_shards: int, /, **kwargs) -> None:
        self.n_shards = n_shards
        self.pool = StatePool() if pool is None else pool
        self.pool.host(self.role, n_shards, **kwargs)
        if pool is None:
            self.pool.start()

    @property
    def handles(self) -> list:
        return self.pool.handles[:self.n_shards]

    def kill(self) -> None:
        self.pool.kill()
