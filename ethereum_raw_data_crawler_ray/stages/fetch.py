"""Simulated fetch + extract helpers (SURVEY.md S1/S3 + M2).

The reference fetches one block per RPC call with 3 retries and
reconnect-on-error (``ethereum_service.go:142-185``), then its
transactions (``:256-315``). The sandbox has no network, so "fetching" a
URL is a point lookup against the resident page-store shard actors
(:mod:`..state.store`), served from the hash-bucketed fetch index that
:func:`build_fetch_index` writes once per run. The fused round step
(:mod:`.roundstep`) does the lookup; this module holds the rest of the
fetch: deterministic transient error injection (the analog of RPC
errors driving the retry path, ``scheduler_service.go:324-357``; the
golden simulator uses the same functions) and the round-table builder
with the extraction step (strict→lenient→raw fallback chain,
:mod:`..functions.extract`).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.extract import extract_batch
from ..functions.hashing import hash_strings
from ..state.pool import url_owner

STATUS_FETCHED = "fetched"
STATUS_ERROR = "error"
_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def build_fetch_index(pages_path: str, index_dir: str, n_buckets: int) -> str:
    """One-time hash-partition of the pages table into bucket dirs.

    Expressed as a Ray Data pipeline (read → map_batches → partitioned
    write) so it scales with the corpus; at 100 TB this is the one
    all-to-all pass the crawl pays up front instead of per round."""
    import ray.data as rd

    marker = os.path.join(index_dir, "_COMPLETE")
    if os.path.exists(marker):
        return index_dir

    def add_bucket(t: pa.Table) -> pa.Table:
        bucket = url_owner(hash_strings(t["url"]), n_buckets)
        return t.append_column("bucket", pa.array(bucket, type=pa.int64()))

    (
        rd.read_parquet(pages_path)
        .map_batches(add_bucket, batch_format="pyarrow", batch_size=8192)
        .write_parquet(index_dir, partition_cols=["bucket"])
    )
    with open(marker, "w") as f:
        f.write("ok")
    return index_dir


ERR_TIMEOUT = "timeout"
ERR_RATE_LIMIT = "rate_limit"


def transient_fail_mask(hashes: np.ndarray, attempts: np.ndarray, permille: int) -> np.ndarray:
    """Deterministic transient error injection (first attempt only)."""
    if permille <= 0:
        return np.zeros(len(hashes), dtype=bool)
    with np.errstate(over="ignore"):
        z = (hashes.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) & _M64
    transient = ((z >> np.uint64(40)) % np.uint64(1000)) < np.uint64(permille)
    return transient & (attempts == 0)


def transient_error_class(hashes: np.ndarray) -> np.ndarray:
    """Deterministic error class for injected transient failures — the
    analog of the reference distinguishing 429-rate-limit from timeout
    errors (``ethereum_service.go:594-624``): a pure function of the url
    hash (NOT the attempt), so golden and engine always agree. ~Half the
    injected errors are rate-limit (quadratic backoff signal), half
    timeout (linear)."""
    with np.errstate(over="ignore"):
        z = (hashes.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) & _M64
    rl = ((z >> np.uint64(20)) & np.uint64(1)).astype(bool)
    return np.where(rl, ERR_RATE_LIMIT, ERR_TIMEOUT).astype(object)


def _assemble(df: pd.DataFrame, payloads: list, fetch_ix: np.ndarray,
              fail_now: np.ndarray, enrich: bool = False) -> pa.Table:
    """Common output builder: frontier batch + per-url payload lookups
    (None = miss) → the round-table Arrow batch (extraction inline)."""
    n = len(df)
    status = np.full(n, None, dtype=object)
    err_class = np.full(n, None, dtype=object)
    page_ts = np.zeros(n, dtype=np.int64)
    has_page = np.zeros(n, dtype=bool)
    lang = np.full(n, None, dtype=object)
    text = np.full(n, None, dtype=object)
    n_bytes = np.zeros(n, dtype=np.int64)
    outlinks: list = [[] for _ in range(n)]

    # injected transient failures carry a url-derived class (rate_limit /
    # timeout); store misses behave as timeouts — both deterministic
    inj_class = transient_error_class(
        df["url_hash"].to_numpy().astype(np.uint64)[fetch_ix]
        if len(fetch_ix)
        else np.zeros(0, dtype=np.uint64)
    )
    htmls, html_rows = [], []
    for k, row in enumerate(fetch_ix):
        p = payloads[k]
        if fail_now[k] or p is None:
            status[row] = STATUS_ERROR
            err_class[row] = inj_class[k] if fail_now[k] else ERR_TIMEOUT
        else:
            status[row] = STATUS_FETCHED
            htmls.append(p[1])
            html_rows.append((row, p))
    texts, links = extract_batch(htmls)
    for pos, (row, p) in enumerate(html_rows):
        ts, raw, lg = p
        page_ts[row] = ts
        has_page[row] = True
        lang[row] = lg
        text[row] = texts[pos]
        n_bytes[row] = len(raw)
        outlinks[row] = links[pos]

    # explicit types for the pass-through columns: empty batches must NOT
    # infer `null` type (blocks with mismatched schemas break the write)
    _TYPES = {
        "url": pa.string(), "host": pa.string(), "gate": pa.string(),
        "pkey": pa.string(), "priority": pa.int32(), "depth": pa.int32(),
        "attempts": pa.int32(), "skip_until_round": pa.int32(),
    }
    cols = {}
    for name in df.columns:
        if name in _TYPES:
            cols[name] = pa.array(df[name].tolist(), type=_TYPES[name])
        else:
            cols[name] = pa.Array.from_pandas(df[name])
    cols["warc_ts"] = pa.array(
        df["warc_ts"].to_numpy(dtype="datetime64[us]").astype(np.int64),
        type=pa.int64(),
    ).cast(pa.timestamp("us"))
    cols["url_hash"] = pa.array(
        df["url_hash"].to_numpy().astype(np.uint64), type=pa.uint64()
    )
    cols.update(
        {
            "status": pa.array(status, type=pa.string()),
            "error_class": pa.array(err_class, type=pa.string()),
            "page_ts": pa.array(page_ts, type=pa.int64(), mask=~has_page).cast(
                pa.timestamp("us")
            ),
            "lang": pa.array(lang, type=pa.string()),
            "text": pa.array(text, type=pa.large_string()),
            "n_bytes": pa.array(n_bytes, type=pa.int64()),
            "n_outlinks": pa.array(
                np.array([len(x) for x in outlinks], dtype=np.int32)
            ),
            "outlinks": pa.array(outlinks, type=pa.list_(pa.string())),
        }
    )
    if enrich:
        # in-flight page analytics (the training-data-crawl work a real
        # ingest pipeline does per page): language ID, quality score,
        # BPE-ish token count, SimHash, FNV-1a content fingerprint and
        # MinHash-LSH band keys — computed where the text already is,
        # avoiding a second pass over the corpus (this is the per-URL
        # compute the throughput benchmark measures). Batched: one
        # tokenization + one hash_array call per batch, not per page.
        from ..functions.textstats import enrich_batch

        lg = np.full(n, None, dtype=object)
        qual = np.zeros(n, dtype=np.float64)
        ntok = np.zeros(n, dtype=np.int64)
        sh = np.zeros(n, dtype=np.uint64)
        fp = np.zeros(n, dtype=np.uint64)
        bands = np.zeros((n, 4), dtype=np.uint64)
        rows = np.flatnonzero(has_page)
        if rows.size:
            res = enrich_batch([text[r] for r in rows], n_bands=4)
            lg[rows] = res["lang_guess"]
            qual[rows] = res["quality"]
            ntok[rows] = res["n_tokens_bpe"]
            sh[rows] = res["simhash"]
            fp[rows] = res["fingerprint"]
            bands[rows] = res["minhash_bands"]
        cols["lang_guess"] = pa.array(lg, type=pa.string())
        cols["quality"] = pa.array(qual, type=pa.float64())
        cols["n_tokens_bpe"] = pa.array(ntok, type=pa.int64())
        cols["simhash"] = pa.array(sh, type=pa.uint64())
        cols["fingerprint"] = pa.array(fp, type=pa.uint64())
        for b in range(4):
            cols[f"minhash_band{b}"] = pa.array(bands[:, b], type=pa.uint64())
    return pa.table(cols)
