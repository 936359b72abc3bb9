"""Golden single-threaded crawl simulator — the ordering/dedup oracle.

The analog of the reference's trivially-sequential semantics (one block
at a time, strict number order, ``crawler_service.go:310-370``): a plain
pandas implementation of EXACTLY the round semantics of
:class:`..pipelines.crawl.CrawlPipeline`, sharing the same primitive
functions (ordering comparator, budgets, salting, robots rules, seen-set
implementation, extractor, error injection). Tests assert that the
parallel Ray engine reproduces the golden crawl order, page set and
seen-set membership bit-for-bit (FIXTURES.md test cases 2/3/5).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.extract import extract_batch
from ..functions.hashing import hash_strings
from ..functions.urlnorm import normalize_many
from ..state.politeness import (
    ORDER_COLS,
    backoff_budget,
    budget_for,
    robots_denied,
    salt_budget,
    salt_count_for,
)
from ..state.seen import LocalSeenSet

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


class GoldenCrawl:
    def __init__(
        self,
        pages_path: str,
        robots: dict,
        *,
        n_seen_shards: int,
        seen_shard_capacity: int,
        round_ms: int,
        default_crawl_delay_ms: int,
        max_per_host_round: int,
        max_retries: int,
        skip_rounds: int,
        host_salt: int = 1,
        error_permille: int = 0,
        host_skew_threshold: int = 50_000,
        error_backoff: bool = False,
    ):
        t = pq.read_table(pages_path, columns=["url", "warc_ts", "html", "lang"])
        self.store = {
            u: (ts, h, lg)
            for u, ts, h, lg in zip(
                t["url"].to_pylist(),
                t["warc_ts"].cast(pa.int64()).to_pylist(),
                t["html"].to_pylist(),
                t["lang"].to_pylist(),
            )
        }
        self.robots = robots
        self.seen = LocalSeenSet(n_seen_shards, seen_shard_capacity)
        self.round_ms = round_ms
        self.default_delay = default_crawl_delay_ms
        self.max_per_host = max_per_host_round
        self.max_retries = max_retries
        self.skip_rounds = skip_rounds
        self.n_salt = max(1, host_salt)
        self.error_permille = error_permille
        self.host_skew_threshold = host_skew_threshold
        # per-host salt counts for the CURRENT round (automatic skew
        # salting, same one-round-lag rule as the engine: a host whose
        # candidate count exceeds the threshold in round r is salted
        # from round r+1 on)
        self.hot: dict[str, int] = {}
        # per-host (timeout, rate_limit) fetch-error counts from the
        # PREVIOUS round (class-aware backoff signal, same one-round lag
        # and same class derivation as the engine)
        self.error_backoff = error_backoff
        self.err_prev: dict[str, tuple[int, int]] = {}

        self.fetch_order: list[list[str]] = []  # per round, in crawl order
        self.pages: dict[str, dict] = {}
        self.events: list[dict] = []

    def _budget(self, host: str, salt: int, n_salt: int) -> int:
        hb = budget_for(
            host, self.robots, self.round_ms, self.default_delay, self.max_per_host
        )
        if self.error_backoff:
            to, rl = self.err_prev.get(host, (0, 0))
            hb = backoff_budget(hb, to, rl)
        return salt_budget(hb, n_salt, salt)

    def _transient_fail(self, url_hash: int, attempts: int) -> bool:
        if self.error_permille <= 0 or attempts != 0:
            return False
        with np.errstate(over="ignore"):
            z = (np.uint64(url_hash) * np.uint64(0x9E3779B97F4A7C15)) & _M64
        return int((z >> np.uint64(40)) % np.uint64(1000)) < self.error_permille

    def run(self, seeds: pa.Table, max_rounds: int = 1000) -> dict:
        urls, hosts, ok = normalize_many(seeds["url"].to_pylist())
        f = pd.DataFrame(
            {
                "url": urls[ok],
                "url_hash": hash_strings(urls[ok]),
                "host": hosts[ok],
                "priority": seeds["priority"].to_numpy()[ok].astype(np.int32),
                "depth": seeds["depth"].to_numpy()[ok].astype(np.int32),
                "warc_ts": np.zeros(ok.sum(), dtype=np.int64),
                "attempts": np.zeros(ok.sum(), dtype=np.int32),
                "skip_until_round": np.full(ok.sum(), -1, dtype=np.int32),
            }
        )
        novel = self.seen.check_and_insert(f["url_hash"].to_numpy(dtype=np.uint64))
        f = f[novel].reset_index(drop=True)

        for r in range(max_rounds):
            if not len(f):
                break
            f = self._round(r, f)
            self.seen.end_round(r)
        return {
            "rounds": len(self.fetch_order),
            "fetched": sum(len(x) for x in self.fetch_order),
            "fetch_order": self.fetch_order,
            "pages": self.pages,
            "events": self.events,
            "seen_counts": self.seen.counts(),
        }

    def _round(self, r: int, f: pd.DataFrame) -> pd.DataFrame:
        # gate
        gate = np.full(len(f), "candidate", dtype=object)
        for i, (u, h) in enumerate(zip(f["url"], f["host"])):
            if robots_denied(u, h, self.robots):
                gate[i] = "robots_denied"
        gate[(f["skip_until_round"].to_numpy() > r) & (gate == "candidate")] = "skipped"
        f = f.assign(gate=gate)

        # politeness selection: per (host, salt) top salt-budget, with
        # per-host salt counts from the automatic skew rule (self.hot)
        n_arr = np.full(len(f), self.n_salt, dtype=np.int64)
        for h, n in self.hot.items():
            n_arr[(f["host"] == h).to_numpy()] = max(self.n_salt, int(n))
        salt = (
            f["url_hash"].to_numpy(dtype=np.uint64) % n_arr.astype(np.uint64)
        ).astype(np.int64)
        f = f.assign(salt=salt, nsalt=n_arr)
        cand = f[f["gate"] == "candidate"].sort_values(ORDER_COLS, kind="mergesort")
        # skew signal: raw candidate counts per host decide next round's
        # per-host salt counts (same rule as CrawlPipeline._hot_next)
        counts = cand["host"].value_counts()
        self.hot = {
            h: n
            for h, c in counts.items()
            if (n := salt_count_for(int(c), self.host_skew_threshold, self.n_salt))
            > self.n_salt
        }
        fetch_ix = []
        for (host, s, n), g in cand.groupby(["host", "salt", "nsalt"], sort=False):
            fetch_ix.append(g.index[: self._budget(host, int(s), int(n))].to_numpy())
        fetch_ix = pd.Index(np.concatenate(fetch_ix) if fetch_ix else [])
        f.loc[f.index.isin(cand.index.difference(fetch_ix)), "gate"] = "defer"
        f.loc[fetch_ix, "gate"] = "fetch"

        # fetch + extract, in crawl order
        sel = f.loc[fetch_ix].sort_values(ORDER_COLS, kind="mergesort")
        order, discovered, errored = [], [], []
        for _, row in sel.iterrows():
            u = row["url"]
            order.append(u)
            if self._transient_fail(int(row["url_hash"]), int(row["attempts"])) or u not in self.store:
                errored.append(row)
                continue
            ts, html, lg = self.store[u]
            texts, links = extract_batch([html])
            self.pages[u] = {
                "text": texts[0], "lang": lg, "warc_ts": ts,
                "n_bytes": len(html), "round": r, "depth": int(row["depth"]),
            }
            self.events.append(
                {"url": u, "url_hash": int(row["url_hash"]), "host": row["host"],
                 "warc_ts": ts, "n_bytes": len(html), "lang": lg, "round": r}
            )
            for link, prio, dep, lts in [
                (l, int(row["priority"]), int(row["depth"]) + 1, ts) for l in links[0]
            ]:
                discovered.append((link, prio, dep, lts))
        self.fetch_order.append(order)

        # actually errored rows: status error — distinguish fetched vs error
        err_urls = {row["url"] for row in errored}
        # class-aware error-backoff signal for the NEXT round (same lag
        # and class rule as the engine: injected failures carry a
        # url-hash-derived class, store misses count as timeouts)
        from ..stages.fetch import ERR_RATE_LIMIT, transient_error_class

        self.err_prev = {}
        for row in errored:
            h = row["host"]
            if self._transient_fail(int(row["url_hash"]), int(row["attempts"])):
                cls = transient_error_class(
                    np.array([row["url_hash"]], dtype=np.uint64)
                )[0]
            else:
                cls = "timeout"
            to, rl = self.err_prev.get(h, (0, 0))
            if cls == ERR_RATE_LIMIT:
                self.err_prev[h] = (to, rl + 1)
            else:
                self.err_prev[h] = (to + 1, rl)

        # carry (same semantics as CrawlPipeline carry_fn) — vectorized:
        # row-wise pd.DataFrame(list-of-Series) would upcast uint64 hashes
        # to float64 and corrupt them
        gates = f["gate"].to_numpy()
        is_err = (gates == "fetch") & f["url"].isin(err_urls).to_numpy()
        keep = (gates == "defer") | (gates == "skipped") | is_err
        carry = f[keep].copy()
        cerr = carry["url"].isin(err_urls).to_numpy() & (
            carry["gate"].to_numpy() == "fetch"
        )
        att = carry["attempts"].to_numpy(dtype=np.int32).copy()
        att[cerr] += 1
        skip_until = carry["skip_until_round"].to_numpy(dtype=np.int32).copy()
        skip_until[cerr & (att == self.max_retries)] = r + 1 + self.skip_rounds
        carry = carry.assign(attempts=att, skip_until_round=skip_until)
        carry = carry[~(cerr & (att > self.max_retries))]
        carry = carry.drop(columns=["gate", "salt", "nsalt"])

        # discovered: normalize + dedup; attributes are pure functions of
        # (url, round) — same rule as roundstep's _explode_outlinks
        # (depth = discovery round + 1, priority = 0, warc_ts =
        # deterministic per-url jitter), so no parent-merge is needed
        next_rows = []
        if discovered:
            from ..stages.roundstep import _TS_BASE_US, _TS_JITTER_US

            d_urls = [d[0] for d in discovered]
            norm, hosts, ok = normalize_many(d_urls)
            dd = pd.DataFrame({"url": norm[ok], "host": hosts[ok]})
            if len(dd):
                dd = dd.drop_duplicates(subset=["url"])
                dd["url_hash"] = hash_strings(dd["url"].to_numpy())
                novel = self.seen.check_and_insert(dd["url_hash"].to_numpy(dtype=np.uint64))
                dd = dd[novel]
                n = len(dd)
                dd = dd.assign(
                    priority=np.zeros(n, dtype=np.int32),
                    depth=np.full(n, r + 1, dtype=np.int32),
                    warc_ts=_TS_BASE_US
                    + (dd["url_hash"].to_numpy(dtype=np.uint64) % np.uint64(_TS_JITTER_US)).astype(np.int64),
                    attempts=np.zeros(n, dtype=np.int32),
                    skip_until_round=np.full(n, -1, dtype=np.int32),
                )
                next_rows.append(
                    dd[["url", "url_hash", "host", "priority", "depth",
                        "warc_ts", "attempts", "skip_until_round"]]
                )

        parts = []
        if len(carry):
            parts.append(carry)
        parts.extend(next_rows)
        if parts:
            out = pd.concat(parts, ignore_index=True)
            out["priority"] = out["priority"].astype(np.int32)
            out["depth"] = out["depth"].astype(np.int32)
            out["attempts"] = out["attempts"].astype(np.int32)
            out["skip_until_round"] = out["skip_until_round"].astype(np.int32)
            out["warc_ts"] = out["warc_ts"].astype(np.int64)
            out["url_hash"] = out["url_hash"].astype(np.uint64)
            return out
        return pd.DataFrame(columns=f.columns.drop(["gate", "salt", "nsalt"]))
