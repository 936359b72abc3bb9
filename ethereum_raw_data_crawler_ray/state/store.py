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

Each shard holds only a ``url_hash → (file, row_group)`` index (8+4
bytes per page, built from one thin pass over the url column) and reads
row groups on demand through an LRU of :data:`LRU_GROUPS` decoded
groups, so its memory is index + LRU, independent of the corpus payload
size — no process ever holds all the pages. A url loaded twice resolves
to its newest copy, and two urls sharing a 64-bit hash each resolve to
their own page.
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

# decoded row groups a store shard keeps; read by ActorPageStore when it
# is built and passed to its shards, so setting it before a pipeline
# prepares sizes that pipeline's actors
LRU_GROUPS = 64


class PageStoreShard:
    """Owns the pages whose url_hash % n_shards == shard_id — a role of
    the ``StateShard`` actor pool (state/pool.py).

    Restart-safe for free: the constructor re-reads the (immutable)
    fetch index, so a restarted shard is bit-identical and in-flight
    fetch calls transparently retry (max_task_retries=-1) — the
    Ray-native analog of the reference's reconnect-all health check
    (crawler_service.go:855-861)."""

    def __init__(self, shard_id: int, index_dir: str, n_buckets: int,
                 n_shards: int, lru_groups: int = LRU_GROUPS):
        # sorted url_hash array + parallel (file_id, row_group) locators;
        # equal hashes stay in load order, oldest first
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
    def load_files(self, paths: list[str]) -> int:
        """Initial + incremental (watch-mode) loading: one THIN pass over
        each row group's url column → index entries (url_hash, file_id,
        row_group); payload bytes stay on disk until a fetch touches
        their row group. Restart-safe for free — the files live under
        the index dir, so a restarted shard's __init__ re-reads them."""
        hashes, locs = [self._idx_hash], [self._idx_loc]
        for path in paths:
            fid = len(self._files)
            self._files.append(path)
            pf = pq.ParquetFile(path)
            for rg in range(pf.metadata.num_row_groups):
                h = hash_strings(pf.read_row_group(rg, columns=["url"])["url"])
                hashes.append(h)
                locs.append(np.tile(np.array([fid, rg], dtype=np.int32), (len(h), 1)))
        n = sum(len(h) for h in hashes[1:])
        if n:
            allh = np.concatenate(hashes)
            order = np.argsort(allh, kind="stable")
            self._idx_hash = allh[order]
            self._idx_loc = np.vstack(locs)[order]
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
        """Each url's (warc_ts, html, lang), or None. A url's index
        entries are tried newest first — so a url loaded twice resolves
        to its newest copy — and each tried row group is checked for the
        url itself, so a 64-bit hash collision falls through to the next
        entry instead of missing. Every pass decodes each touched row
        group once."""
        h = hash_strings(urls)
        first = np.searchsorted(self._idx_hash, h, side="left")
        cand = np.searchsorted(self._idx_hash, h, side="right") - 1
        out: list = [None] * len(urls)
        todo = np.flatnonzero(cand >= first)
        while len(todo):
            by_group: dict[tuple, list[int]] = {}
            for i, loc in zip(todo.tolist(), self._idx_loc[cand[todo]].tolist()):
                by_group.setdefault(tuple(loc), []).append(i)
            miss = []
            for (fid, rg), ixs in by_group.items():
                grp = self._row_group(fid, rg)
                for i in ixs:
                    out[i] = grp.get(urls[i])
                    if out[i] is None:
                        miss.append(i)
            todo = np.asarray(miss, dtype=np.int64)
            cand[todo] -= 1
            todo = todo[cand[todo] >= first[todo]]
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
        """Index entries (pages loaded), for the health row and
        :meth:`ActorPageStore.wait_ready`."""
        return self._n_pages


class ActorPageStore(RoleFacade):
    """Driver-side facade over the page-store role's actor handles;
    handles serialize into fetch-stage closures."""

    role = "store"

    def __init__(self, index_dir: str, n_buckets: int, n_shards: int,
                 pool: StatePool | None = None):
        if n_buckets % n_shards != 0:
            raise ValueError("n_buckets must be a multiple of n_store_shards")
        self._host(pool, n_shards, index_dir=index_dir,
                   n_buckets=n_buckets, n_shards=n_shards,
                   lru_groups=LRU_GROUPS)

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
