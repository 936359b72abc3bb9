"""The fused round step — one Ray task per frontier item does the round.

Every crawl round fans :func:`round_task` out over its frontier items,
one wave of at most one item per cluster CPU; an item's rows go
through round_step in calls of ≤ ``extract_batch_size`` rows, and for
each call's frontier batch the task
  1. gates (robots / skip-window / politeness cutoff — cutoffs were
     collected from the offers streamed during the PREVIOUS round's
     execution, so no shuffle and no extra barrier is needed; each call
     pulls its batch's slice from the owning cutoff shards);
  2. fetches gated rows from the page-store shards + extracts
     (+ optional enrichment);
  3. derives carry rows (defer / skip / error-retry frontier rows for
     round r+1);
  4. explodes fetched outlinks → discovered rows, claims them in the
     seen shards (scatter; first claim wins — the round dedup);
  5. offers the r+1 candidates' partial top-k to the cutoff shards
     (politeness state for the NEXT round);
  6. writes its page, carry and discovered rows hive-partitioned by
     ``row_kind`` — the next round reads only the carry and discovered
     files.

The driver commits a round only once every task returned, so steps 4/5
complete before round r+1 starts. A task's lineage counts and
fetch-error hosts are its return value, which reaches the driver once
per successful attempt. Every side effect is deterministic and
replay-safe under task retry: a cutoff shard keeps identical offered
order tuples once, so a re-offered batch cannot move a cutoff;
host-count reports are keyed by the batch token, so a retry overwrites
its own report; and seen claims carry a content-derived claim token
logged per round, so a retried task gets novel=True again for the rows
it already claimed instead of silently dropping them (see
``state.seen.claim_token``).

The store, seen and cutoff shards are roles of one state actor pool
(state/pool.py): ``store_handles[j]``, ``seen_handles[j]`` and
``cutoff_handles[j]`` are the same actor, and a task routes on the
logical shard ids exactly as if each shard had its own process.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..functions.broadcast import get_broadcast
from ..functions.hashing import hash_strings
from ..functions.urlnorm import normalize_many
from ..schema import FRONTIER, frontier_table
from ..state.politeness import (
    GATE_DEFER,
    GATE_FETCH,
    GATE_ROBOTS,
    GATE_SKIPPED,
    gate_full,
    offer_candidates,
)
from ..state.pool import url_owner
from .fetch import STATUS_ERROR, STATUS_FETCHED, _assemble, transient_fail_mask

ROW_PAGE = "page"
ROW_CARRY = "carry"
ROW_DISC = "discovered"

# a round task's stages: its span reads, then round_step's, in order
STAGES = ("read", "gate", "fetch_lookup", "extract_enrich", "carry",
          "explode_seen", "offers", "output")

_FRONTIER_COLS = [f.name for f in FRONTIER]

# discovered-row attributes are PURE FUNCTIONS of (url, discovery round):
#   depth    := round + 1   (discovery depth — frontier enters in BFS waves)
#   priority := 0           (base priority; reprioritization is a frontier rewrite)
#   warc_ts  := BASE + url_hash-derived jitter (deterministic enqueue-time analog)
# Consequence: duplicates of a URL discovered by many parents in the same
# round are IDENTICAL rows, so the seen-shard first-claim IS the dedup —
# no per-round groupby(url) shuffle (the sort-based aggregate was the
# dominant per-round cost; this removes the all-to-all entirely,
# SURVEY.md §7.3 "minimize shuffles").
_TS_JITTER_US = np.int64(30 * 86400) * np.int64(1_000_000)
_TS_BASE_US = np.int64(1753401600000000)  # 2025-07-25T00:00:00Z


def _explode_outlinks(t: pa.Table, *, round_no: int) -> pa.Table:
    """fetched rows → one frontier row per distinct valid outlink in the
    batch (normalized; invalid URLs dropped — the malformed-input
    robustness mirror). Cross-batch duplicates are handled by the seen
    filter (identical rows, order-independent)."""
    links = t["outlinks"].to_pylist()
    urls: list[str] = []
    for ls in links:
        if ls:
            urls.extend(ls)
    norm, hosts, ok = normalize_many(urls)
    # within-batch dedup (cheap; reduces seen-actor traffic): first
    # occurrence of each normalized string; invalid entries are "" with
    # ok False, so they never shadow a valid URL
    ok &= ~pd.Series(norm).duplicated().to_numpy()
    norm = norm[ok]
    h = hash_strings(norm)
    ts = _TS_BASE_US + (h % np.uint64(_TS_JITTER_US)).astype(np.int64)
    return frontier_table(norm, hosts[ok], 0, round_no + 1, ts, url_hash=h)


def lineage_counts(url_hash, is_page, gate, status, n_shards: int) -> np.ndarray:
    """Round rows → the lineage matrix: one row each for [scheduled,
    fetched, deferred, failed, errors], one column per seen shard.
    ``is_page`` marks page rows; ``status`` is None off them."""
    shard = url_owner(url_hash, n_shards)
    fetch = is_page & (gate == GATE_FETCH)
    masks = [
        fetch,
        fetch & (status == STATUS_FETCHED),
        (gate == GATE_DEFER) | (gate == GATE_SKIPPED),
        is_page & (gate == GATE_ROBOTS),
        fetch & (status == STATUS_ERROR),
    ]
    return np.stack([np.bincount(shard[m], minlength=n_shards) for m in masks]).astype(np.int64)


def round_task(item: dict, *, round_no: int, out_dir: str, **kwargs) -> dict:
    """Read, round_step and write one pre-balanced item (frontier file
    spans cut into ``calls``), one call at a time, so task memory stays
    one call wide. → summed over the calls: the frontier ``rows`` read,
    the seconds of each of :data:`STAGES` and the ``lineage`` matrix;
    concatenated: the fetch-error hosts and their classes."""
    res = {"rows": 0, "stage_s": dict.fromkeys(STAGES, 0.0), "lineage": 0,
           "error_hosts": [], "error_classes": []}

    def outputs():
        t0 = time.perf_counter()
        for df in _item_frames(item):
            res["stage_s"]["read"] += time.perf_counter() - t0
            res["rows"] += len(df)
            parts, durs, lin, (eh, ec) = round_step(df, round_no=round_no, **kwargs)
            for k, d in durs.items():
                res["stage_s"][k] += d
            res["lineage"] = res["lineage"] + lin
            res["error_hosts"] += eh
            res["error_classes"] += ec
            yield {kind: t.append_column(
                "round", pa.array(np.full(len(t), round_no, dtype=np.int32)))
                for kind, t in parts.items()}
            t0 = time.perf_counter()

    write_round_part(outputs(), out_dir, item["task"])
    return res


def offer_task(item: dict, *, robots_ref, **kwargs) -> None:
    """Offer one item's frontier rows to the politeness cutoffs."""
    for df in _item_frames(item):
        offer_candidates(df, robots=get_broadcast(robots_ref), **kwargs)


# the Ray Data map task's contract (ray.data cached_remote_fn defaults):
# a worker crash is retried without limit, an application error is not,
# and no caller placement group is inherited
@ray.remote(num_cpus=1, max_retries=-1,
            retry_exceptions=[ray.exceptions.RaySystemError],
            scheduling_strategy="DEFAULT")
def _item_task(fn, item: dict, kwargs: dict):
    return fn(item, **kwargs)


def fan_out(fn, items: list[dict], **kwargs) -> list:
    """``fn(item, **kwargs)`` for every item, one bare Ray task each;
    → their results in item order. A failure cancels the other tasks,
    so none writes on into an abandoned round."""
    refs = [_item_task.remote(fn, item, kwargs) for item in items]
    try:
        return ray.get(refs)
    except Exception:
        for ref in refs:
            ray.cancel(ref)
        raise


def _item_frames(item: dict):
    """An item's spans, read in order one row group at a time, cut into
    its ``calls`` → one frontier DataFrame per call. A row group that a
    call boundary splits is decoded once and sliced; a short read ends
    in a short last frame, which the driver's row check reports."""
    sizes = iter(item["calls"])
    want = next(sizes, 0)
    buf: list = []
    have = 0
    for span in zip(item["paths"], item["offsets"], item["lengths"]):
        for t in _read_span(*span):
            buf.append(t)
            have += len(t)
            while want and have >= want:
                rows = pa.concat_tables(buf)
                yield rows.slice(0, want).to_pandas()
                buf, have = [rows.slice(want)], have - want
                want = next(sizes, 0)
    if have:
        yield pa.concat_tables(buf).to_pandas()


def write_round_part(parts, out_dir: str, task_idx: int) -> None:
    """Write a task's ``{row_kind: table}`` per call as hive
    ``out_dir/row_kind=<kind>/part-<task_idx>.parquet``, one row group
    per call. A kind with no rows gets no file; a retried task
    overwrites its own files; a schema unlike the kind's first raises."""
    writers: dict[str, pq.ParquetWriter] = {}
    try:
        for by_kind in parts:
            for kind, t in by_kind.items():
                if not len(t):
                    continue
                if kind not in writers:
                    d = os.path.join(out_dir, f"row_kind={kind}")
                    os.makedirs(d, exist_ok=True)
                    writers[kind] = pq.ParquetWriter(
                        os.path.join(d, f"part-{task_idx:05d}.parquet"), t.schema)
                writers[kind].write_table(t)
    finally:
        for w in writers.values():
            w.close()


def _read_span(path: str, offset: int, length: int):
    """Yield rows [offset, offset+length) of a frontier file one row
    group at a time, decoding only the row groups the span overlaps.
    Row-group boundaries come from the footer (already driver-cached for
    span packing, re-read here — footer reads are cheap vs column
    decode)."""
    pf = pq.ParquetFile(path)
    md = pf.metadata
    start, end = 0, offset + length
    for g in range(md.num_row_groups):
        n = md.row_group(g).num_rows
        if start + n > offset:
            lo = max(offset, start)
            hi = min(end, start + n)
            yield pf.read_row_group(g, columns=_FRONTIER_COLS).slice(lo - start, hi - lo)
        start += n
        if start >= end:
            break


def _null_fill_to(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """``t`` in ``schema``: missing columns as typed nulls, columns in
    schema order and cast to its types."""
    return pa.table(
        [t[f.name] if f.name in t.schema.names else pa.nulls(len(t), f.type)
         for f in schema], names=schema.names).cast(schema)


def round_step(
    df: pd.DataFrame,
    *,
    round_no: int,
    robots_ref,
    store_handles: list,
    seen_handles: list,
    cutoff_handles: list,
    round_ms: int,
    default_delay_ms: int,
    max_per_host: int,
    n_salt: int,
    max_retries: int,
    skip_rounds: int,
    error_permille: int = 0,
    enrich: bool = False,
    hot_gate: dict | None = None,   # per-host salt map for THIS round's pkeys
    hot_offer: dict | None = None,  # per-host salt map for round r+1's offers
) -> tuple[dict[str, pa.Table], dict[str, float], np.ndarray, tuple[list, list]]:
    """One frontier batch through the round's stages → (its output rows
    by row kind, the seconds of each of its :data:`STAGES` by name, its
    :func:`lineage_counts` matrix, (its fetch-error hosts, their error
    classes))."""
    from ..state.politeness import pull_cutoffs_for
    from ..state.seen import claim_scatter_finish, claim_scatter_submit
    from ..state.store import fetch_scatter

    _marks = [time.perf_counter()]

    def _mark():
        _marks.append(time.perf_counter())

    robots = get_broadcast(robots_ref)
    # shard-resident cutoffs (r04 verdict #3): pull only THIS batch's
    # pkey slice from the owning cutoff shards — the full cutoff dict
    # never exists in any one process
    cutoffs = pull_cutoffs_for(
        df, cutoff_handles, round_no=round_no, n_salt=n_salt, hot=hot_gate,
    )

    # 1. gate ---------------------------------------------------------------
    gate, _ = gate_full(
        df, robots=robots, cutoffs=cutoffs, round_no=round_no, n_salt=n_salt,
        hot=hot_gate,
    )
    df = df.assign(gate=gate)
    _mark()  # gate

    # 2. fetch + extract (page rows: fetch-gated + robots-denied log) -------
    page_mask = (gate == GATE_FETCH) | (gate == GATE_ROBOTS)
    pages_df = df[page_mask].reset_index(drop=True)
    fetch_mask = (pages_df["gate"] == GATE_FETCH).to_numpy()
    fetch_ix = np.flatnonzero(fetch_mask)
    urls = pages_df["url"].to_numpy()[fetch_mask]
    hashes = pages_df["url_hash"].to_numpy().astype(np.uint64)[fetch_mask]
    attempts = pages_df["attempts"].to_numpy()[fetch_mask]
    fail_now = transient_fail_mask(hashes, attempts, error_permille)
    payloads: list = [None] * len(urls)
    if (~fail_now).any():
        got = fetch_scatter(store_handles, urls[~fail_now], hashes[~fail_now])
        for k, i in enumerate(np.flatnonzero(~fail_now)):
            payloads[i] = got[k]
    _mark()  # fetch-lookup
    pages = _assemble(pages_df, payloads, fetch_ix, fail_now, enrich=enrich)
    status = np.asarray(pages["status"].to_pandas(), dtype=object)
    _mark()  # assemble(extract+enrich)

    # 3. carry rows (defer/skip unchanged; errors retry→skip-window→drop,
    #    mirror of scheduler_service.go:324-357) ---------------------------
    page_positions = np.flatnonzero(page_mask)
    is_err = np.zeros(len(df), dtype=bool)
    is_err[page_positions[status == STATUS_ERROR]] = True
    keep = (gate == GATE_DEFER) | (gate == GATE_SKIPPED)
    att = df["attempts"].to_numpy(dtype=np.int32).copy()
    skip_until = df["skip_until_round"].to_numpy(dtype=np.int32).copy()
    att[is_err] += 1
    skip_until[is_err & (att == max_retries)] = round_no + 1 + skip_rounds
    keep |= is_err & (att <= max_retries)
    carry = df[keep].assign(attempts=att[keep], skip_until_round=skip_until[keep])
    _mark()  # carry

    # 4+5. discovered rows (explode + seen-claim) interleaved with the
    #    offers that don't depend on claim results: the claim calls are
    #    SUBMITTED first, then the carry offers run while those round
    #    trips are in flight, then claims are collected and
    #    the novel discovered rows are offered (offers are additive
    #    per-key top-k unions, so splitting them is semantics-free).
    #    The carry offers' seconds count toward ``offers``, not
    #    ``explode_seen``.
    #    A pool actor hosting both a seen and a cutoff shard queues the
    #    two calls, which costs microseconds on small tail rounds.
    #    Claims stay replay-safe via the per-round claim-token log
    #    (state.seen.claim_token).
    # stable task identity: the input frontier batch's url_hash content.
    # Frontier batches partition a deduplicated frontier, so this is
    # unique across tasks and reproduced exactly by a Ray retry — it
    # salts the seen-claim tokens (ADVICE r02)
    from ..state.seen import claim_token

    task_key = claim_token(df["url_hash"].to_numpy(dtype=np.uint64))

    disc = _explode_outlinks(pages.select(["outlinks"]), round_no=round_no)
    pending = None
    if len(disc):
        dh = np.asarray(disc["url_hash"].to_pandas(), dtype=np.uint64)
        pending = claim_scatter_submit(seen_handles, dh, round_no, task_key)

    offer_kwargs = dict(
        robots=robots,
        round_no=round_no + 1,
        round_ms=round_ms,
        default_delay_ms=default_delay_ms,
        max_per_host=max_per_host,
        n_salt=n_salt,
        cutoff_handles=cutoff_handles,
        hot=hot_offer,
    )
    carry_offer_s = 0.0
    if len(carry):
        t0 = time.perf_counter()
        offer_candidates(carry[_FRONTIER_COLS], **offer_kwargs)
        carry_offer_s = time.perf_counter() - t0
    if pending is not None:
        novel = claim_scatter_finish(*pending)
        disc = disc.filter(pa.array(novel))
    _mark()  # explode+seen, carry offers included
    if len(disc):
        offer_candidates(disc.to_pandas()[_FRONTIER_COLS], **offer_kwargs)
    _mark()  # offers

    # 5b. this batch's lineage counts and fetch-error hosts (the error
    # backoff signal), returned with its rows
    df_status = np.full(len(df), None, dtype=object)
    df_status[page_positions] = status
    lin = lineage_counts(df["url_hash"].to_numpy(dtype=np.uint64), page_mask, gate,
                         df_status, len(seen_handles))
    errs = pages.select(["host", "error_class"]).filter(pa.array(status == STATUS_ERROR))
    errors = (errs["host"].to_pylist(), errs["error_class"].to_pylist())

    # 6. output: each kind's rows in the page rows' (explicitly typed)
    # schema, so every part of every batch has the same schema -----------
    parts = {ROW_PAGE: pages}
    if len(carry):
        parts[ROW_CARRY] = _null_fill_to(
            pa.Table.from_pandas(carry, preserve_index=False), pages.schema)
    if len(disc):
        parts[ROW_DISC] = _null_fill_to(disc, pages.schema)
    _mark()  # output-build
    durs = dict(zip(STAGES[1:], np.diff(_marks).tolist()))
    durs["explode_seen"] -= carry_offer_s
    durs["offers"] += carry_offer_s
    return parts, durs, lin, errors
