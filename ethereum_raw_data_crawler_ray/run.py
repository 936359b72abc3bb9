"""CLI entry point — the analog of the reference's scheduler binary
(``cmd/schedulers/main.go``): configure, crawl to frontier exhaustion,
print a summary. Owns the Ray session (guarded — runs unchanged under
``ray job submit``, where Ray is already initialised).

    python -m ethereum_raw_data_crawler_ray.run \
        --pages corpus/pages.parquet --seeds corpus/seeds.parquet \
        --robots corpus/robots.parquet --out /tmp/crawl_out \
        --index /tmp/crawl_idx
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="ethereum_raw_data_crawler_ray.run",
        description="Ray-Data-native URL-frontier crawl over a Parquet pages table",
    )
    p.add_argument("--pages", required=True, help="input pages parquet (url, warc_ts, html, text, lang)")
    p.add_argument("--seeds", required=True, help="seed list parquet (url, priority, depth)")
    p.add_argument("--robots", default=None, help="robots parquet (host, disallow_prefixes, crawl_delay_ms)")
    p.add_argument("--out", required=True, help="output/checkpoint directory")
    p.add_argument("--index", required=True, help="fetch-index directory (built if absent)")
    p.add_argument("--max-rounds", type=int, default=1000)
    p.add_argument("--num-cpus", type=int, default=None, help="ray.init num_cpus (default: let Ray decide)")
    p.add_argument("--fetch-buckets", type=int, default=32)
    p.add_argument("--seen-shards", type=int, default=8)
    p.add_argument("--shard-capacity", type=int, default=1 << 20)
    p.add_argument("--round-ms", type=int, default=60_000)
    p.add_argument("--max-per-host-round", type=int, default=1_000)
    p.add_argument("--host-salt", type=int, default=1)
    p.add_argument("--error-permille", type=int, default=0)
    p.add_argument("--enrich", action="store_true",
                   help="in-flight page analytics (langid/quality/simhash/fingerprint/minhash)")
    p.add_argument("--watch-dir", default=None,
                   help="incremental ingest: page parquet files appearing here are "
                        "picked up at round boundaries (WS-push analog)")
    p.add_argument("--error-backoff", action="store_true",
                   help="shrink a host's next-round budget after fetch errors")
    p.add_argument("--skew-threshold", type=int, default=50_000,
                   help="candidate count above which a host is auto-salted")
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        kwargs = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .config import CrawlConfig
    from .pipelines.crawl import CrawlPipeline
    from .sources import ensure_parquet

    # CSV / JSONL inputs get ONE streaming conversion into a staging dir
    # (identity for parquet) so the hot path stays format-free
    import os as _os

    staging = _os.path.join(args.out, "_staging")
    args.pages = ensure_parquet(args.pages, staging, pages=True)
    args.seeds = ensure_parquet(args.seeds, staging)
    if args.robots:
        args.robots = ensure_parquet(args.robots, staging)

    extra = {
        "seeds_path": args.seeds,
        "host_salt": args.host_salt,
        "error_permille": args.error_permille,
        "enrich": args.enrich,
    }
    if args.robots:
        extra["robots_path"] = args.robots
    if args.watch_dir:
        extra["watch_dir"] = args.watch_dir
    if args.error_backoff:
        extra["error_backoff"] = True
    cfg = CrawlConfig(
        host_skew_threshold=args.skew_threshold,
        pages_path=args.pages,
        index_dir=args.index,
        out_dir=args.out,
        n_fetch_buckets=args.fetch_buckets,
        n_seen_shards=args.seen_shards,
        seen_shard_capacity=args.shard_capacity,
        round_ms=args.round_ms,
        max_per_host_round=args.max_per_host_round,
        extra=extra,
    )
    pipe = CrawlPipeline(cfg)
    try:
        totals = pipe.run(max_rounds=args.max_rounds)
    finally:
        pipe.close()
        if owns_session:
            ray.shutdown()
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
