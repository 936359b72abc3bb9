"""Sharded page store — the simulated content store / KV service.

The reference fetches payloads over the network per work unit
(``ethereum_service.go:142-185``); the sandbox replacement is the page-store
role of the crawl's state actor pool (state/pool.py): store shard j owns
the fetch-index buckets ``b % n_shards == j`` (one hash range of the
pages corpus) and runs in pool actor j, next to that actor's seen and
cutoff shards. A fetch is a scatter-gather of point lookups
— O(batch) per batch, never O(corpus) — which is the honest shape of a
distributed content store and keeps per-round cost proportional to the
round. It is the crawl's only fetch path: every round task looks its
pages up here, and watch-mode ingest adds pushed index files to the
live shards (:meth:`ActorPageStore.load_new_files`).

Two residency modes (``extra["store_mode"]``):

* ``preload`` (default) — each shard decodes its buckets' pages into a
  dict once per run. Fastest lookups; memory = corpus/n_shards.
* ``lazy`` — the 100-TB shape: each shard holds ONLY a
  ``url_hash → (file, row_group)`` index (8+4 bytes per page, built
  from one thin pass over the url column) and reads row groups on
  demand through a bounded LRU of decoded groups. Memory is
  index + LRU, independent of corpus payload size.

Both modes share the packed-buffer fetch protocol and the incremental
``load_files`` path, and are cross-validated by tests (lazy crawl output
== preload crawl output, and pushed pages crawled in both).
"""

from __future__ import annotations

import collections
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..functions.hashing import hash_strings
from .pool import RoleFacade, StatePool, groups, scatter, url_owner


class PageStoreShard:
    """Owns the pages whose url_hash % n_shards == shard_id — a role of
    the ``StateShard`` actor pool (state/pool.py).

    Restart-safe for free: the constructor re-reads the (immutable)
    fetch index, so a restarted shard is bit-identical and in-flight
    fetch calls transparently retry (max_task_retries=-1) — the
    Ray-native analog of the reference's reconnect-all health check
    (crawler_service.go:855-861)."""

    def __init__(self, shard_id: int, index_dir: str, n_buckets: int,
                 n_shards: int, mode: str = "preload", lru_groups: int = 64):
        self.mode = mode
        self.store: dict[str, tuple[int, bytes, str]] = {}
        # lazy-mode state: sorted url_hash array + parallel (file_id,
        # row_group) locators; LRU of decoded row-group dicts
        self._files: list[str] = []
        self._idx_hash = np.empty(0, dtype=np.uint64)
        self._idx_loc = np.empty((0, 2), dtype=np.int32)
        self._lru: "collections.OrderedDict[tuple, dict]" = collections.OrderedDict()
        self._lru_groups = lru_groups
        self._n_pages = 0
        # buckets are a finer partition than shards: shard j owns every
        # bucket b with b % n_shards == j (n_buckets must be a multiple)
        self.load_files([
            p for b in range(shard_id, n_buckets, n_shards)
            for p in sorted(glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet")))
        ])

    # --- loading ----------------------------------------------------------
    def _load_file_preload(self, path: str) -> int:
        t = pq.read_table(path, columns=["url", "warc_ts", "html", "lang"])
        for u, ts, h, lg in zip(
            t["url"].to_pylist(),
            t["warc_ts"].cast(pa.int64()).to_pylist(),
            t["html"].to_pylist(),
            t["lang"].to_pylist(),
        ):
            self.store[u] = (ts, h, lg)
        return len(t)

    def _load_file_lazy(self, path: str) -> int:
        """One THIN pass over the url column per row group → index
        entries (url_hash, file_id, row_group). Payload bytes stay on
        disk until a fetch touches their row group."""
        fid = len(self._files)
        self._files.append(path)
        pf = pq.ParquetFile(path)
        hashes, locs = [], []
        for rg in range(pf.metadata.num_row_groups):
            urls = pf.read_row_group(rg, columns=["url"])["url"]
            h = hash_strings(urls)
            hashes.append(h)
            locs.append(
                np.column_stack(
                    [np.full(len(h), fid, dtype=np.int32),
                     np.full(len(h), rg, dtype=np.int32)]
                )
            )
        n = 0
        if hashes:
            h = np.concatenate(hashes)
            loc = np.vstack(locs)
            n = len(h)
            allh = np.concatenate([self._idx_hash, h])
            allloc = np.vstack([self._idx_loc, loc])
            order = np.argsort(allh, kind="stable")
            self._idx_hash = allh[order]
            self._idx_loc = allloc[order]
        return n

    def load_files(self, paths: list[str]) -> int:
        """Initial + incremental (watch-mode) loading. Restart-safe for
        free — the files live under the index dir, so a restarted
        shard's __init__ re-reads them."""
        if self.mode == "lazy":
            n = sum(self._load_file_lazy(p) for p in paths)
        else:
            n = sum(self._load_file_preload(p) for p in paths)
        self._n_pages += n
        return n

    # --- lookups ----------------------------------------------------------
    def _row_group(self, fid: int, rg: int) -> dict:
        key = (fid, rg)
        got = self._lru.get(key)
        if got is not None:
            self._lru.move_to_end(key)
            return got
        t = pq.ParquetFile(self._files[fid]).read_row_group(
            rg, columns=["url", "warc_ts", "html", "lang"]
        )
        got = {
            u: (ts, h, lg)
            for u, ts, h, lg in zip(
                t["url"].to_pylist(),
                t["warc_ts"].cast(pa.int64()).to_pylist(),
                t["html"].to_pylist(),
                t["lang"].to_pylist(),
            )
        }
        self._lru[key] = got
        while len(self._lru) > self._lru_groups:
            self._lru.popitem(last=False)
        return got

    def _get_many(self, urls: list[str]) -> list:
        if self.mode != "lazy":
            return [self.store.get(u) for u in urls]
        h = hash_strings(urls)
        pos = np.searchsorted(self._idx_hash, h)
        out: list = [None] * len(urls)
        # group row-group reads: decode each touched group once
        by_group: dict[tuple, list[int]] = {}
        for i in range(len(urls)):
            p = pos[i]
            if p < len(self._idx_hash) and self._idx_hash[p] == h[i]:
                by_group.setdefault(
                    (int(self._idx_loc[p, 0]), int(self._idx_loc[p, 1])), []
                ).append(i)
        for (fid, rg), ixs in by_group.items():
            grp = self._row_group(fid, rg)
            for i in ixs:
                out[i] = grp.get(urls[i])
        return out

    def fetch_packed(self, urls: list[str]):
        """Batched lookup with ONE concatenated payload buffer — Ray
        zero-copies large buffers, while a list of thousands of small
        bytes objects pays per-object pickle cost (that serialization was
        the fetch stage's scaling ceiling)."""
        metas = self._get_many(urls)
        n = len(metas)
        found = np.array([m is not None for m in metas], dtype=bool)
        ts = np.array([m[0] if m else 0 for m in metas], dtype=np.int64)
        langs = [m[2] if m else "" for m in metas]
        sizes = np.array([len(m[1]) if m else 0 for m in metas], dtype=np.int64)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offs[1:])
        buf = b"".join(m[1] for m in metas if m is not None and len(m[1]))
        return found, ts, langs, offs, buf

    def items(self) -> int:
        """Pages held, for the health row (distinct urls in preload)."""
        return len(self.store) if self.mode == "preload" else self._n_pages

    def count(self) -> int:
        return self._n_pages


class ActorPageStore(RoleFacade):
    """Driver-side facade over the page-store role's actor handles;
    handles serialize into fetch-stage closures."""

    role = "store"

    def __init__(self, index_dir: str, n_buckets: int, n_shards: int,
                 mode: str = "preload", lru_groups: int = 64,
                 pool: StatePool | None = None):
        if n_buckets % n_shards != 0:
            raise ValueError("n_buckets must be a multiple of n_store_shards")
        self._host(pool, n_shards, index_dir=index_dir,
                   n_buckets=n_buckets, n_shards=n_shards, mode=mode,
                   lru_groups=lru_groups)

    def wait_ready(self) -> int:
        """Block until every store shard has loaded its index; → pages."""
        return sum(ray.get([h.store_count.remote() for h in self.handles]))

    def load_new_files(self, files_by_bucket: dict[int, list[str]]) -> int:
        """Route newly written per-bucket index files to their owning
        shards (bucket b → shard b % n_shards) and load them."""
        buckets = list(files_by_bucket)
        handles = self.handles
        refs = [
            handles[j].load_files.remote(
                [p for i in ix for p in files_by_bucket[buckets[i]]])
            for j, ix in groups(url_owner(buckets, self.n_shards))
        ]
        return sum(ray.get(refs))


def fetch_scatter(handles: list, urls: np.ndarray, hashes: np.ndarray) -> list:
    """Scatter urls to their owning store shards, gather results in input
    order. Uses the packed-buffer protocol; returns per-url
    (warc_ts_us, html_bytes, lang) tuples or None for misses."""
    out: list = [None] * len(urls)
    ixs, refs = scatter(handles, url_owner(hashes, len(handles)),
                        lambda h, ix: h.fetch_packed.remote([urls[i] for i in ix]))
    for ix, (found, ts, langs, offs, buf) in zip(ixs, ray.get(refs)):
        ts, offs = ts.tolist(), offs.tolist()
        for k, i in enumerate(ix.tolist()):
            if found[k]:
                out[i] = (ts[k], buf[offs[k]:offs[k + 1]], langs[k])
    return out
