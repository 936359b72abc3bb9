"""CPU reservation and process gauges of the state actor pool.

All crawl state (page store, seen filter, politeness cutoffs) runs in
one pool of ``StateShard`` actors (state/pool.py). What a pool actor
reserves in Ray's CPU ledger follows what was measured:

- **One node: 0 CPU.** A reservation on one box is taken out of the
  task slots. Round 4 (BASELINE.md round-4 §, sf0.1, 32 CPUs) reserved
  the pools' share (~5.1 of 32 CPUs): task concurrency fell 32→26 and
  the crawl wall rose 40.1 s vs 32.1 s, the lost-slot share. The pools'
  real use (2.5 avg cores, from per-shard ``health()['cpu_s']``) is
  absorbed by OS interleaving. A 0.01-CPU token per shard was kept
  after that, and it too displaced task slots at small CPU counts:
  crawl-polite's 8 shards left a 1-CPU session 0.92 CPU, the 1.0-CPU
  round task never scheduled and round 0 hung; at 2 CPUs only one round
  task ran at a time. With 0-CPU shards a 1-CPU session crawls and a
  2-CPU one runs two round tasks at once (BASELINE.md).
- **Multi-node: a fraction of the cluster.** There the reservation is
  load bearing: it spreads shards across nodes instead of stacking
  them wherever a 0-CPU actor lands, and each node's task slots shrink
  by the share its resident shards consume. The pool reserves
  :data:`POOL_CPU_FRACTION` of the cluster's CPUs split over its
  actors. This branch is unit-tested against a faked two-node ledger
  only; no multi-node crawl has measured it.
"""

from __future__ import annotations

# share of the cluster's CPUs the whole state pool reserves on a
# multi-node cluster: ~2× each role's measured single-node average
# (seen 1.02 / store 0.88 / cutoff 0.62 avg cores at 32 CPUs → 0.06 +
# 0.06 + 0.04 of the cluster) for RPC burstiness headroom
POOL_CPU_FRACTION = 0.16


def shard_cpu_reservation(n_shards: int) -> float:
    """Per-actor ``num_cpus`` for a state pool of ``n_shards`` actors.
    One node → 0; multi-node → :data:`POOL_CPU_FRACTION` of the
    cluster's CPUs split across the pool, clamped to [0.01, 1.0] (a
    shard is a single-threaded RPC server, never worth more than one
    core)."""
    import ray

    if not ray.is_initialized():
        return 0.0
    try:
        n_nodes = len([n for n in ray.nodes() if n.get("Alive", True)])
    except Exception:
        n_nodes = 1
    if n_nodes <= 1:
        return 0.0
    ncpu = float(ray.cluster_resources().get("CPU", 8))
    per = POOL_CPU_FRACTION * ncpu / max(1, n_shards)
    return round(min(1.0, max(0.01, per)), 4)


def actor_restarted() -> bool:
    """Has the calling actor been restarted since it was created?  Reads
    the actor's restart count from the GCS actor table.  Ray 2.49's
    ``RuntimeContext.was_current_actor_reconstructed`` does the same
    lookup through the deprecated ``actor_id`` accessor and emits two
    ``RayDeprecationWarning``s per call, which flooded every log that
    polls shard health.  False outside an actor or when the table is
    unreachable."""
    import ray
    from ray._private.state import actors

    try:
        aid = ray.get_runtime_context().get_actor_id()
        if aid is None:
            return False
        info = actors(aid)
        return bool(info) and info["NumRestarts"] != 0
    except Exception:
        return False


def proc_rss_kb() -> int:
    """Resident-set size of the calling process in KiB via /proc (no
    psutil in the environment) — the memory gauge next to ``cpu_s`` in
    every pool actor's ``health()`` row (``crawler_metrics.go:18-43`` records
    runtime.MemStats alongside goroutine counts the same way).  0 where
    /proc is unavailable."""
    import os

    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except Exception:
        return 0
