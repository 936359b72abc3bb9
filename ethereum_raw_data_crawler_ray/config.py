"""Pipeline configuration.

Mirrors the reference's env-bound config surface
(``internal/infrastructure/config/config.go:153-299``) recast for the
crawl domain: batch_size → round fetch budget, concurrent_workers →
state actor-pool sizes, rate_limit → per-host politeness budget,
max_retries / skip_duration → frontier retry columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CrawlConfig:
    """All knobs of a crawl run.

    Every decision the engine makes is a pure function of this config +
    the input tables — no wall clock anywhere (required for bit-identical
    checkpoint-resume, SURVEY.md §7.4).
    """

    # --- layout -----------------------------------------------------------
    pages_path: str = ""            # input pages parquet (url, warc_ts, html, text, lang)
    index_dir: str = ""             # hash-bucketed fetch index built from pages_path
    out_dir: str = ""               # checkpointed outputs: pages/ events/ frontier/ lineage/ seen/
    n_fetch_buckets: int = 32       # hash buckets of the fetch index (url_hash % n)

    # --- frontier / rounds ------------------------------------------------
    # the reference's BATCH_SIZE=100 (config.go:174) becomes the emergent
    # round size: sum of per-host politeness budgets (round_ms / delay)
    max_rounds: int = 1_000
    # analog of SCHEDULER_MAX_RETRIES=3 (config.go:189)
    max_retries: int = 3
    # analog of SCHEDULER_SKIP_DURATION (config.go:190): failed rows sit out this many rounds
    skip_rounds: int = 1

    # --- politeness (analog of ETHEREUM_RATE_LIMIT, config.go:164) --------
    # a round "lasts" this many simulated milliseconds; a host with
    # crawl_delay_ms=d gets floor(round_ms / d) fetch slots per round
    round_ms: int = 60_000
    default_crawl_delay_ms: int = 100
    max_per_host_round: int = 1_000     # hard cap even for crawl_delay=0 hosts
    # hosts with more frontier rows than this get salted into sub-keys for
    # the politeness shuffle (explicit skew handling, SURVEY.md §4)
    host_skew_threshold: int = 50_000

    # --- seen set (sharded cuckoo filter, north_star) ---------------------
    n_seen_shards: int = 8
    # capacity PER SHARD. At 10^10 URLs / 256 shards → ~4e7 entries/shard,
    # 16-bit fingerprints × 4 slots → ~2.4 bits/entry overhead beyond the
    # ~78 MiB/shard table; the shard count is the scale lever.
    seen_shard_capacity: int = 1 << 20

    # --- execution sizing -------------------------------------------------
    extract_batch_size: int = 2_048     # html is wide; keep batches bounded

    # frontier ordering is the fixed comparator state.politeness.ORDER_COLS
    # (priority, depth, warc_ts, url_hash) — not configurable: the golden
    # oracle, cutoff actors and gate must all agree on it

    extra: dict = field(default_factory=dict)
