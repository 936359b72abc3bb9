"""Arrow schemas for every table the engine reads or writes.

Fixed, declared schemas — the analog of the reference's Go structs with
bson tags (``internal/domain/entity/block.go:10-37``,
``transaction.go:10-39``) — but expressed as pyarrow schemas so blocks
stay zero-copy Arrow end to end. ``html`` is a real ``binary`` column:
the reference's hex-sanitization of raw bytes (``sanitizeData``,
``ethereum_service.go:317-325``) is unnecessary in Arrow and dropped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .functions.hashing import hash_strings

# the input_hint table: Common-Crawl-style pages (BASELINE.json)
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.large_string()),
        ("lang", pa.string()),
    ]
)

# schedulable work unit — analog of entity.Block + scheduler retry maps
# (block.go:10-45; scheduler_service.go:47-50). Retry/skip state rides on
# the rows themselves instead of driver-side maps (SURVEY.md ST4).
FRONTIER = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("priority", pa.int32()),
        ("depth", pa.int32()),
        ("warc_ts", pa.timestamp("us")),
        ("attempts", pa.int32()),
        ("skip_until_round", pa.int32()),  # analog of skippedBlocks[ts]+skipDuration
    ]
)


def frontier_table(urls, hosts, priority, depth, warc_ts, url_hash=None) -> pa.Table:
    """Fresh FRONTIER rows (no attempts, no skip window) from normalized
    ``urls``/``hosts``. ``priority``, ``depth`` and ``warc_ts`` (epoch
    microseconds) are per-row arrays or one value for every row;
    ``url_hash`` defaults to ``hash_strings(urls)``."""
    n = len(urls)

    def col(v, dtype):
        return np.broadcast_to(np.asarray(v), n).astype(dtype)

    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "url_hash": pa.array(
                hash_strings(urls) if url_hash is None else url_hash, type=pa.uint64()),
            "host": pa.array(hosts, type=pa.string()),
            "priority": pa.array(col(priority, np.int32)),
            "depth": pa.array(col(depth, np.int32)),
            "warc_ts": pa.array(col(warc_ts, np.int64)).cast(pa.timestamp("us")),
            "attempts": pa.array(np.zeros(n, dtype=np.int32)),
            "skip_until_round": pa.array(np.full(n, -1, dtype=np.int32)),
        },
        schema=FRONTIER,
    )

# stored page output — analog of the transactions collection write
# (transaction_repository_impl.go:91-106) plus crawl metadata stamps
# (convertBlock's CrawledAt/Status, ethereum_service.go:449-455).
PAGES_OUT = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("priority", pa.int32()),
        ("depth", pa.int32()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("text", pa.large_string()),
        ("n_bytes", pa.int64()),
        ("n_outlinks", pa.int32()),
        ("outlinks", pa.list_(pa.string())),
        ("round", pa.int32()),
        ("status", pa.string()),  # fetched | error (error rows carry no text)
    ]
)

# post-store event stream — analog of the NATS TransactionEvent projection
# (nats_client.go:17-29), written only after the page store write succeeds
# (gating mirrors crawler_service.go:592-607).
EVENTS_OUT = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("n_bytes", pa.int64()),
        ("lang", pa.string()),
        ("round", pa.int32()),
    ]
)

# per-round per-partition checkpoint row — analog of CrawlerMetrics +
# processed-block resume state (crawler_metrics.go:10-43,
# crawler_service.go:199-226).
LINEAGE = pa.schema(
    [
        ("round", pa.int32()),
        ("partition_id", pa.int32()),
        ("seen_shard_digest", pa.binary()),
        ("urls_scheduled", pa.int64()),
        ("urls_fetched", pa.int64()),
        ("urls_deferred", pa.int64()),
        ("urls_failed", pa.int64()),
        ("errors", pa.int64()),
        ("wall_s", pa.float64()),
    ]
)

# synthetic robots.txt table (FIXTURES.md §4)
ROBOTS = pa.schema(
    [
        ("host", pa.string()),
        ("disallow_prefixes", pa.list_(pa.string())),
        ("crawl_delay_ms", pa.int32()),
    ]
)

SEEDS = pa.schema(
    [
        ("url", pa.string()),
        ("priority", pa.int32()),
        ("depth", pa.int32()),
    ]
)
