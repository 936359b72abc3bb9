"""Fractional CPU reservations for the state-serving actor pools.

Round 3 isolated the single-node scaling gap to ``num_cpus=0`` shard
actors (store / seen / cutoff): they FREE-RIDE at low parallelism (the
pool's real CPU rides on cores Ray didn't count) and compete with task
slots at high parallelism.  Round 4 measured both remedies at sf0.1 /
32 CPUs (BASELINE.md round-4 §):

- **Reservations on one box HURT**: reserving the pools' share
  (~5.1 of 32 CPUs) cut task concurrency 32→26 and the crawl wall rose
  40.1 s vs 32.1 s — exactly the lost-slot share.  The pools' real
  usage (measured 2.5 avg cores via per-shard ``health()['cpu_s']``)
  is absorbed by OS interleaving; pre-paying it with whole task slots
  wastes them.
- **Physical pinning fixes the free-ride**: the honest evidence for
  two machine sizes is ``bench.py --scaling``'s CPU-affinity pinning
  (each level confined to N cores, children inherit), not Ray-ledger
  reservations — a ray.init(num_cpus=8) run otherwise spills actor and
  library threads onto the 24 uncounted cores.

So: on a SINGLE node the pools keep a token 0.01-CPU reservation
(visible in the ledger, no slot displacement).  On a MULTI-node
cluster the proportional reservation applies — there it is load
bearing: it spreads shards across nodes instead of stacking them
wherever ``num_cpus=0`` happens to land, and each node's task slots
shrink by the share its resident shards actually consume.
"""

from __future__ import annotations

# pool → fraction of total cluster CPUs the pool reserves (multi-node);
# ~2× the measured single-node average (seen 1.02 / store 0.88 /
# cutoff 0.62 avg cores at 32 CPUs) for RPC burstiness headroom.
DEFAULT_POOL_FRACTIONS = {
    "store": 0.06,
    "seen": 0.06,
    "cutoff": 0.04,
}

_TOKEN = 0.01  # single-node: ledger-visible, displaces no task slot


def shard_cpu_reservation(pool: str, n_shards: int,
                          fraction: float | None = None) -> float:
    """Per-shard ``num_cpus`` for a pool of ``n_shards``.  Single node →
    token reservation; multi-node → ``fraction`` of the cluster's CPUs
    split across the pool, clamped to [0.01, 1.0] (a shard is a
    single-threaded RPC server, never worth more than one core)."""
    import ray

    if not ray.is_initialized():
        return _TOKEN
    try:
        n_nodes = len([n for n in ray.nodes() if n.get("Alive", True)])
    except Exception:
        n_nodes = 1
    if n_nodes <= 1:
        return _TOKEN
    if fraction is None:
        fraction = DEFAULT_POOL_FRACTIONS[pool]
    ncpu = float(ray.cluster_resources().get("CPU", 8))
    per = fraction * ncpu / max(1, n_shards)
    return round(min(1.0, max(_TOKEN, per)), 4)


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
    every shard's ``health()`` row (``crawler_metrics.go:18-43`` records
    runtime.MemStats alongside goroutine counts the same way).  0 where
    /proc is unavailable."""
    import os

    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except Exception:
        return 0
