"""Per-host politeness budgets + robots gating (SURVEY.md ST3).

The reference rate-limits with ONE global token — a blocking
min-500ms-between-requests sleep shared by every worker
(``ethereum_service.go:29-30,585-591``) plus hardcoded inter-block /
inter-batch sleeps (``crawler_service.go:315-329``). That is the
reference's scaling ceiling: fine at 1 worker, fatal at 4N nodes.

Here politeness is **non-blocking and deterministic**: a crawl round
represents ``round_ms`` of simulated time; a host whose robots.txt says
``crawl_delay_ms = d`` gets ``floor(round_ms / d)`` fetch slots in the
round (capped at ``max_per_host_round``). URLs beyond the budget are
*deferred to the next round* instead of sleeping — the token bucket
refills at the round boundary. No wall clock appears anywhere, which is
what makes checkpoint-resume bit-identical.

Selection is exact per-host top-k by the frontier ordering
``(priority, depth, warc_ts, url_hash)`` with no shuffle:

* while round r-1 executes, each task offers its batch's partial top-k
  of round-r candidates (a combiner: the global top-k of a host is a
  subset of the union of per-batch top-ks) to the :class:`CutoffShard`
  owning the politeness key — cutoff shard j is a role of actor j of the
  crawl's state actor pool (state/pool.py), next to that actor's
  page-store and seen shards, and :class:`CutoffPool` is its driver-side
  facade;
* at the round boundary each shard finalizes one cutoff tuple per key —
  the budget-th best candidate — and round r's tasks gate every row
  against it (:func:`gate_full`).

Host-skew salting (explicit skew rule, SURVEY.md §4/§7.3): the politeness
key of a salted host is ``host#(url_hash % n)#n``, splitting its frontier
rows across ``n`` keys; the host's budget is split deterministically
across salts (floor split, remainder to salt 0 — the sum is exactly the
budget, so the per-true-host cap still holds). ``n`` is the global base
(``extra["host_salt"]``) raised AUTOMATICALLY per host by
:func:`salt_count_for` whenever the host's raw candidate count exceeds
``CrawlConfig.host_skew_threshold`` (decided at round collect from the
previous round's offered counts — one round of lag, deterministic, and
mirrored by the golden simulator).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from .pool import RoleFacade, StatePool, groups, host_owner, scatter

# frontier ordering comparator: (priority, depth, warc_ts) heap order
# with url_hash as the numeric tie-break — a total order except for
# 64-bit hash collisions (negligible; a collision can transiently exceed
# a host budget by one, which is crawl-sane and deterministic since the
# golden simulator uses the same comparator). A numeric tie-break keeps
# every sort/cutoff comparison vectorized — string tie-breaks made the
# politeness actors the serial floor.
ORDER_COLS = ["priority", "depth", "warc_ts", "url_hash"]

# cutoff sentinel: this politeness key selects NOTHING this round (its
# budget is 0 — e.g. a salt's share of a backoff-shrunk budget of 1).
# Distinct from "no cutoff entry", which means all candidates fetch.
CUTOFF_NONE = "none"

GATE_CANDIDATE = "candidate"
GATE_FETCH = "fetch"
GATE_DEFER = "defer"
GATE_ROBOTS = "robots_denied"
GATE_SKIPPED = "skipped"


def load_robots(path: str) -> dict:
    """robots.parquet → {host: (crawl_delay_ms, tuple(disallow_prefixes))}.
    Broadcast once per run with ray.put for the round tasks; each cutoff
    shard reads the file itself."""
    t = pq.read_table(path)
    return {
        h: (int(d), tuple(p))
        for h, d, p in zip(
            t["host"].to_pylist(),
            t["crawl_delay_ms"].to_pylist(),
            t["disallow_prefixes"].to_pylist(),
        )
    }


def budget_for(
    host: str,
    robots: dict,
    round_ms: int,
    default_delay_ms: int,
    max_per_host: int,
) -> int:
    delay = robots.get(host, (default_delay_ms, ()))[0]
    if delay <= 0:
        return max_per_host
    return max(1, min(max_per_host, round_ms // delay))


def salt_budget(budget: int, n_salt: int, salt: int) -> int:
    """Deterministic floor split; remainder goes to salt 0. Sums to budget."""
    if n_salt <= 1:
        return budget
    base = budget // n_salt
    if salt == 0:
        return budget - base * (n_salt - 1)
    return base


def salt_count_for(count: int, threshold: int, base: int, cap: int = 64) -> int:
    """Automatic host-skew salting rule (SURVEY.md §4): a host whose
    per-round CANDIDATE count exceeds ``threshold`` gets its politeness
    key split into ceil(count/threshold) salted sub-keys (bounded by
    ``cap``), so no single politeness group outgrows the threshold. The
    count is the raw candidate total — a pure function of the frontier,
    independent of batching, so the decision is deterministic."""
    base = max(1, base)
    if threshold <= 0 or count <= threshold:
        return base
    return max(base, min(cap, -(-count // threshold)))


def backoff_budget(budget: int, n_timeout: int, n_rate_limit: int = 0) -> int:
    """Per-host error-CLASS backoff (analog of the reference's split
    backoff, ``ethereum_service.go:594-624``: timeout errors back off
    linearly in the attempt, rate-limit errors quadratically). A host
    that produced ``n_timeout`` timeout errors and ``n_rate_limit``
    rate-limit errors last round behaves as if its crawl delay were
    ``(1 + n_timeout) * (1 + n_rate_limit)²`` times longer this round —
    linear in timeouts, quadratic in rate-limits — so its budget shrinks
    to ``max(1, budget // that)``, recovering the round after the errors
    stop (no sticky state)."""
    if n_timeout <= 0 and n_rate_limit <= 0:
        return budget
    return max(1, budget // ((1 + n_timeout) * (1 + n_rate_limit) ** 2))


def parse_pkey(pk: str) -> tuple[str, int, int]:
    """pkey → (host, salt, n_salt). Unsalted keys are the bare host;
    salted keys are ``host#salt#n_salt`` (self-describing, so budget
    computation needs no out-of-band salt table)."""
    if "#" not in pk:
        return pk, 0, 1
    host, s, n = pk.rsplit("#", 2)
    return host, int(s), int(n)


def path_of(url: str) -> str:
    parts = url.split("/", 3)
    return "/" + parts[3] if len(parts) > 3 else "/"


def robots_denied(url: str, host: str, robots: dict) -> bool:
    prefixes = robots.get(host, (0, ()))[1]
    if not prefixes:
        return False
    p = path_of(url)
    return any(p.startswith(pref) for pref in prefixes)


def robots_denied_mask(urls: np.ndarray, hosts: np.ndarray, robots: dict) -> np.ndarray:
    """Vectorized robots gate: look up each UNIQUE host once; the
    per-row prefix check runs only for rows of hosts that actually have
    disallow prefixes (typically a small minority — the round-1 version
    paid a dict probe per row in every round-step task)."""
    out = np.zeros(len(urls), dtype=bool)
    if not robots or len(urls) == 0:
        return out
    uniq = pd.unique(hosts)
    with_prefixes = [h for h in uniq if robots.get(h, (0, ()))[1]]
    if not with_prefixes:
        return out
    for i in np.flatnonzero(np.isin(hosts, with_prefixes)):
        out[i] = robots_denied(urls[i], hosts[i], robots)
    return out


def pkey_of(
    hosts: np.ndarray, url_hash: np.ndarray, n_salt: int, hot: dict | None = None
) -> np.ndarray:
    """The politeness key: host, salted by url-hash for skew splitting.
    ``n_salt`` is the global base; ``hot`` maps specific hosts to larger
    per-host salt counts (automatic skew salting — see
    :func:`salt_count_for`). Salted keys are ``host#salt#n``."""
    base = max(1, n_salt)
    hot = hot or {}
    if base <= 1 and not hot:
        return np.asarray(hosts, dtype=object)
    n_arr = np.full(len(hosts), base, dtype=np.int64)
    for h, n in hot.items():
        n_arr[hosts == h] = max(base, int(n))
    salt = (url_hash.astype(np.uint64) % n_arr.astype(np.uint64)).astype(np.int64)
    out = np.asarray(hosts, dtype=object).copy()
    for i in np.flatnonzero(n_arr > 1):
        out[i] = f"{hosts[i]}#{salt[i]}#{n_arr[i]}"
    return out


def gate_pre(df: pd.DataFrame, robots: dict, round_no: int) -> np.ndarray:
    """Robots + skip-window gate (the part of gating that needs no
    cutoffs): candidate | robots_denied | skipped."""
    n = len(df)
    gate = np.full(n, GATE_CANDIDATE, dtype=object)
    urls = df["url"].to_numpy()
    hosts = df["host"].to_numpy()
    gate[robots_denied_mask(urls, hosts, robots)] = GATE_ROBOTS
    skipped = df["skip_until_round"].to_numpy() > round_no
    gate[skipped & (gate == GATE_CANDIDATE)] = GATE_SKIPPED
    return gate


def offer_candidates(
    df: pd.DataFrame,
    *,
    robots: dict,
    round_no: int,
    round_ms: int,
    default_delay_ms: int,
    max_per_host: int,
    n_salt: int,
    cutoff_handles: list,
    hot: dict | None = None,
) -> None:
    """Offer this batch's per-pkey partial top-k of candidates for
    ``round_no`` to the cutoff actors. Used by the producing tasks of the
    previous round and by bootstrap/resume backfill.
    Fully numpy (lexsort + group slicing): this runs in EVERY round-step
    task, so per-task pandas overhead would cap small-batch scaling.

    Alongside offers, each batch reports its RAW per-host candidate
    counts (pre-truncation, so the sum across batches is the exact
    candidate count — the skew signal for automatic salting); counts
    route to one owning actor per host, no double counting. Count
    reports are keyed by a content-derived batch token (offered rows are
    globally unique URLs, so batch tokens are unique across tasks and
    stable across Ray task retries): a retried task OVERWRITES its own
    contribution instead of double-counting it (ADVICE r02)."""
    import ray

    from ..state.seen import claim_token

    gate = gate_pre(df, robots, round_no)
    m = gate == GATE_CANDIDATE
    if not m.any():
        return
    bkey = claim_token(df["url_hash"].to_numpy(dtype=np.uint64))
    hosts = df["host"].to_numpy()[m]
    h = df["url_hash"].to_numpy(dtype=np.uint64)[m]
    p = df["priority"].to_numpy(dtype=np.int64)[m]
    d = df["depth"].to_numpy(dtype=np.int64)[m]
    t = df["warc_ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)[m]
    pk = pkey_of(hosts, h, n_salt, hot)

    # sort by (pkey, order key): contiguous per-key groups, each already
    # in frontier order — spans give every key's local top-k by slicing
    order = np.lexsort((h, t, d, p, pk))
    pk_sorted = pk[order]
    uniq, first_ix = np.unique(pk_sorted, return_index=True)  # sorted keys → ascending first_ix
    bounds = np.append(first_ix, len(pk_sorted))
    spans = {
        key: order[bounds[i]:bounds[i + 1]] for i, key in enumerate(uniq)
    }
    k_actors = len(cutoff_handles)
    # route by HOST (not pkey): all salts of a host, its candidate counts
    # and its error reports land on the same shard, so backoff and skew
    # decisions need no cross-actor joins. Per-host offer volume is
    # bounded by the (truncated) host budget, so this cannot skew. Every
    # candidate host has a key, so hosts and keys have the same owners.
    key_ix = dict(groups(host_owner([parse_pkey(u)[0] for u in uniq], k_actors)))
    hc_hosts, hc_counts = np.unique(hosts, return_counts=True)
    refs = []
    for j, hix in groups(host_owner(hc_hosts, k_actors)):
        mine = [uniq[i] for i in key_ix[j]]
        keep = []
        for key in mine:
            host, salt_no, n_key = parse_pkey(key)
            b = salt_budget(
                budget_for(host, robots, round_ms, default_delay_ms, max_per_host),
                n_key,
                salt_no,
            )
            keep.append(spans[key][:b])
        ix = np.concatenate(keep)
        payload = (mine, [len(s) for s in keep], p[ix], d[ix], t[ix], h[ix])
        counts_j = {str(hc_hosts[i]): int(hc_counts[i]) for i in hix}
        refs.append(cutoff_handles[j].offer.remote(round_no, payload, counts_j, bkey))
    ray.get(refs)


def errors_by_shard(hosts: np.ndarray, rate_limit: np.ndarray, k: int) -> dict:
    """The per-host error fold: → ``{j: {host: (n_timeout,
    n_rate_limit)}}`` for each cutoff shard j owning an error host."""
    uh, inv = np.unique(hosts, return_inverse=True)
    rl = np.bincount(inv, weights=rate_limit, minlength=len(uh)).astype(np.int64)
    to = np.bincount(inv, minlength=len(uh)) - rl
    return {
        j: {str(uh[i]): (int(to[i]), int(rl[i])) for i in ix}
        for j, ix in groups(host_owner(uh, k))
    }


def pull_cutoffs_for(
    df: pd.DataFrame,
    cutoff_handles: list,
    *,
    round_no: int,
    n_salt: int,
    hot: dict | None = None,
) -> dict:
    """Pull-transport gating (r04 verdict #3): fetch ONLY this batch's
    politeness-key cutoff slice from the owning cutoff shards (the same
    hash-by-host routing as offers), instead of reading a broadcast of
    the full O(active hosts) dict.  One RPC per shard that owns a host
    present in the batch; payload bounded by the batch's distinct
    pkeys."""
    import ray

    pkeys = pkey_of(
        df["host"].to_numpy(), df["url_hash"].to_numpy(dtype=np.uint64),
        n_salt, hot,
    )
    uniq = pd.unique(pkeys)
    owner = host_owner([parse_pkey(u)[0] for u in uniq], len(cutoff_handles))
    _, refs = scatter(cutoff_handles, owner, lambda hd, ix: hd.pull_cutoffs.remote(
        round_no, [uniq[i] for i in ix]))
    out: dict = {}
    for d in ray.get(refs):
        out.update(d)
    return out


def gate_full(
    df: pd.DataFrame,
    *,
    robots: dict,
    cutoffs: dict,
    round_no: int,
    n_salt: int,
    hot: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Complete gate for the round step: robots/skip, then
    candidate → fetch iff order key ≤ the per-pkey cutoff (no cutoff
    entry = fewer candidates than budget → all fetch). Returns
    (gate array, pkey array). ``hot`` must be the SAME per-host salt map
    the offers for this round were made with."""
    gate = gate_pre(df, robots, round_no)
    pkeys = pkey_of(
        df["host"].to_numpy(), df["url_hash"].to_numpy(dtype=np.uint64), n_salt, hot
    )
    cand_ix = np.flatnonzero(gate == GATE_CANDIDATE)
    if len(cand_ix):
        sub = df.iloc[cand_ix]
        p = sub["priority"].to_numpy(dtype=np.int64)
        d = sub["depth"].to_numpy(dtype=np.int64)
        t = sub["warc_ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        h = sub["url_hash"].to_numpy(dtype=np.uint64)
        sub_pk = pkeys[cand_ix]
        fetch = np.ones(len(cand_ix), dtype=bool)
        # vectorized cutoff compare per politeness key present in the batch
        for pk in pd.unique(sub_pk):
            c = cutoffs.get(pk)
            if c is None:
                continue  # fewer candidates than budget → all selected
            m = sub_pk == pk
            if c == CUTOFF_NONE:  # zero budget → nothing fetches
                fetch[m] = False
            else:
                fetch[m] = _leq_cutoff(p[m], d[m], t[m], h[m], c)
        gate[cand_ix[fetch]] = GATE_FETCH
        gate[cand_ix[~fetch]] = GATE_DEFER
    return gate, pkeys


class _CutoffState:
    """Per-key running top-budget of order keys. The retained set is the
    unique global top-budget (total order — url_hash tie-break), so the
    result is independent of offer arrival order, and of re-offers: a
    row offered twice is kept once.

    Offers append numpy array chunks (O(1)); compaction (vectorized
    numeric lexsort, drop repeated tuples, truncate to budget) runs only
    when a key's buffered rows exceed 4× its budget, and once at collect
    time."""

    def __init__(self):
        self.keys: dict[str, list] = {}  # pk → list of (p, d, t, h) chunks
        self.counts: dict[str, int] = {}

    @staticmethod
    def _topk(chunks: list, k: int):
        p = np.concatenate([c[0] for c in chunks])
        d = np.concatenate([c[1] for c in chunks])
        t = np.concatenate([c[2] for c in chunks])
        h = np.concatenate([c[3] for c in chunks])
        order = np.lexsort((h, t, d, p))
        p, d, t, h = p[order], d[order], t[order], h[order]
        # a retried task re-offers its rows: identical tuples count once
        keep = np.ones(len(h), dtype=bool)
        keep[1:] = (p[1:] != p[:-1]) | (d[1:] != d[:-1]) | (t[1:] != t[:-1]) | (h[1:] != h[:-1])
        top = np.flatnonzero(keep)[:k]
        return p[top], d[top], t[top], h[top]

    def offer(self, payload: tuple, budgets: dict) -> None:
        """payload = (pkeys, counts, p, d, t, h): one concatenated array
        set per call — minimizes serialization and actor queue time."""
        pkeys, counts, p, d, t, h = payload
        off = 0
        for pk, c in zip(pkeys, counts):
            chunk = (p[off:off + c], d[off:off + c], t[off:off + c], h[off:off + c])
            off += c
            self.keys.setdefault(pk, []).append(chunk)
            n = self.counts.get(pk, 0) + c
            b = budgets[pk]
            if n > 4 * b:
                self.keys[pk] = [self._topk(self.keys[pk], b)]
                n = min(n, b)
            self.counts[pk] = n

    def cutoffs(self, budgets: dict) -> dict:
        out = {}
        for pk, chunks in self.keys.items():
            b = budgets[pk]
            if b <= 0:
                # zero budget (a salt's share of a backoff-shrunk budget
                # of 1): absence of a cutoff means ALL-fetch, so emit the
                # explicit select-none sentinel instead
                out[pk] = CUTOFF_NONE
                continue
            if self.counts.get(pk, 0) < b:
                continue  # fewer candidates than budget → all selected
            p, d, t, h = self._topk(chunks, b)
            if len(p) >= b:
                out[pk] = (int(p[b - 1]), int(d[b - 1]), int(t[b - 1]), int(h[b - 1]))
        return out


class CutoffShard:
    """One politeness-bucket shard — a role of the ``StateShard`` actor
    pool (state/pool.py): the per-host token buckets of the hosts with
    ``hash(host) % n_shards == shard_id``. Reads robots.txt rules from
    ``robots_path`` itself (None = no rules), like the store role
    re-reads its immutable index, so a restarted shard needs no object
    from the object store."""

    def __init__(self, shard_id: int, robots_path: str | None, round_ms: int,
                 default_delay_ms: int, max_per_host: int):
        self._robots = load_robots(robots_path) if robots_path else {}
        self._round_ms = round_ms
        self._default_delay = default_delay_ms
        self._max_per_host = max_per_host
        self._host_budgets: dict = {}
        self.rounds: dict[int, _CutoffState] = {}
        # round → finalized cutoffs kept shard-RESIDENT for the pull
        # transport (r04 verdict #3)
        self.ready: dict[int, dict] = {}
        # round → {batch_token: {host: raw candidate count}} (skew
        # signal; each host is counted by exactly one owning shard —
        # offers, counts and errors all route by hash(host)). Keyed per
        # batch token so a retried task's report OVERWRITES its own
        # prior one instead of double-counting (ADVICE r02); summed at
        # collect.
        self.host_counts: dict[int, dict[int, dict[str, int]]] = {}
        # round → {host: (n_timeout, n_rate_limit)} (error backoff
        # signal): set whole by the driver from the round tasks' returns
        # or the committed round output, never by a task
        self.errors: dict[int, dict[str, tuple[int, int]]] = {}
        # restart detection: offers buffered here are volatile; a
        # (re)started shard reports fresh=True once so the driver drops
        # the round's offer state everywhere and re-derives it from the
        # frontier (deterministic backfill)
        self._fresh = True

    def consume_fresh(self) -> bool:
        f, self._fresh = self._fresh, False
        return f

    def items(self) -> int:
        """Politeness keys buffered, for the health row."""
        return sum(len(s.keys) for s in self.rounds.values())

    def drop_round(self, round_no: int) -> None:
        self.rounds.pop(round_no, None)
        self.host_counts.pop(round_no, None)

    def _host_budget(self, host: str) -> int:
        b = self._host_budgets.get(host)
        if b is None:
            b = self._host_budgets[host] = budget_for(
                host, self._robots, self._round_ms,
                self._default_delay, self._max_per_host,
            )
        return b

    def _budget(self, pk: str, err: dict | None = None) -> int:
        host, salt, n = parse_pkey(pk)
        hb = self._host_budget(host)
        if err:
            to, rl = err.get(host, (0, 0))
            hb = backoff_budget(hb, to, rl)
        return salt_budget(hb, n, salt)

    def offer(self, round_no: int, payload: tuple | None,
              host_counts: dict | None = None,
              bkey: int | None = None) -> None:
        if host_counts:
            self.host_counts.setdefault(round_no, {})[bkey] = host_counts
        if payload is None:
            return
        st = self.rounds.get(round_no)
        if st is None:
            st = self.rounds[round_no] = _CutoffState()
        # truncation uses the UNSHRUNK budget (a superset of what a
        # backoff-shrunk collect will select — always safe)
        st.offer(payload, {pk: self._budget(pk) for pk in payload[0]})

    def set_errors(self, round_no: int, counts: dict) -> None:
        """Round ``round_no``'s per-host fetch-error class counts, which
        shrink round ``round_no + 1``'s budgets (the driver sets them
        only with error backoff on)."""
        self.errors[round_no] = dict(counts)

    @staticmethod
    def _sum_batches(per_batch: dict) -> dict:
        """Sum the per-batch host candidate counts."""
        out: dict = {}
        for counts in per_batch.values():
            for h, c in counts.items():
                out[h] = out.get(h, 0) + c
        return out

    def collect_and_drop(self, round_no: int) -> tuple[dict, dict]:
        hc = self._sum_batches(self.host_counts.pop(round_no, {}))
        st = self.rounds.pop(round_no, None)
        # budgets for THIS round shrink by last round's errors
        err = self.errors.pop(round_no - 1, None)
        self.errors = {r: v for r, v in self.errors.items() if r >= round_no - 1}
        if st is None:
            return {}, hc
        return st.cutoffs({pk: self._budget(pk, err) for pk in st.keys}), hc

    def finalize_round(self, round_no: int, hot_threshold: int,
                       base_salt: int) -> tuple[int, dict]:
        """Shard-resident collect (r04 verdict #3): compute this shard's
        cutoffs for the round and KEEP them here — gating tasks pull
        only their batch's pkey slice (``pull_cutoffs``), so the driver
        payload is one int per shard instead of an O(active hosts)
        dict. The skew-salting signal shrinks the same way: only hosts
        whose candidate count crosses the salting threshold
        (``salt_count_for(c) > base``, the exact predicate the driver's
        ``_hot_next`` applies) are returned — typically a handful of hot
        hosts, never the full host census."""
        cutoffs, hc = self.collect_and_drop(round_no)
        self.ready = {rn: v for rn, v in self.ready.items() if rn >= round_no}
        self.ready[round_no] = cutoffs
        hot = {
            h: c for h, c in hc.items()
            if salt_count_for(c, hot_threshold, base_salt) > base_salt
        }
        return len(cutoffs), hot

    def pull_cutoffs(self, round_no: int, pkeys: list[str]) -> dict:
        """→ {pkey: cutoff} slice for the caller's batch. Fails loud if
        the round's resident cutoffs are gone (shard restarted
        mid-round): the round execution then fails before its output
        commits, and a rerun resumes from the checkpoint and re-derives
        them deterministically — silent fallback would over-fetch
        nondeterministically."""
        c = self.ready.get(round_no)
        if c is None:
            raise KeyError(
                f"cutoffs for round {round_no} are not resident "
                "(cutoff shard restarted mid-round); rerun resumes "
                "from the last checkpoint"
            )
        return {pk: c[pk] for pk in pkeys if pk in c}

    def fetch_ready(self, round_no: int) -> dict:
        """Hand the resident cutoffs to the driver (broadcast transport —
        the small-cutoff fast path)."""
        return self.ready.pop(round_no, {})


class CutoffPool(RoleFacade):
    """Driver-side facade over the politeness role — the per-host token
    buckets of the north star, keyed by pkey hash instead of a groupby
    shuffle.

    Offers are ROUND-KEYED: while round r's execution produces the rows
    of round r+1, each producing task also offers its partial top-k for
    round r+1 to these shards; the execution barrier at the end of round
    r guarantees completeness, so at the start of round r+1 the driver
    collects exact per-key cutoffs (the budget-th order key) and
    broadcasts them. The frontier is never shuffled for politeness."""

    role = "cutoff"

    def __init__(self, n_actors: int, robots_path: str | None, round_ms: int,
                 default_delay_ms: int, max_per_host: int,
                 pool: StatePool | None = None):
        self._host(pool, n_actors, robots_path=robots_path,
                   round_ms=round_ms, default_delay_ms=default_delay_ms,
                   max_per_host=max_per_host)

    def consume_fresh(self) -> bool:
        """True iff ANY shard (re)started since the last check — its
        buffered offers are gone and the caller must re-backfill."""
        import ray

        return any(ray.get([h.consume_fresh.remote() for h in self.handles]))

    def drop_round(self, round_no: int) -> None:
        import ray

        ray.get([h.drop_round.remote(round_no) for h in self.handles])

    def finalize(self, round_no: int, hot_threshold: int,
                 base_salt: int) -> tuple[int, dict]:
        """Shard-resident collect (r04 verdict #3): → (total cutoff
        count, hot-host candidate counts).  The cutoff dicts stay on
        their shards; the driver payload is O(shards) ints plus the
        (tiny) hot-host set, flat in the active-host count."""
        import ray

        n = 0
        hot: dict = {}
        for c, h in ray.get(
            [hd.finalize_round.remote(round_no, hot_threshold, base_salt)
             for hd in self.handles]
        ):
            n += c
            hot.update(h)  # hosts are owned by exactly one shard
        return n, hot

    def fetch_ready(self, round_no: int) -> dict:
        """Pull every shard's finalized cutoffs to the driver — the
        broadcast transport's small-dict fast path."""
        import ray

        out: dict = {}
        for d in ray.get(
            [h.fetch_ready.remote(round_no) for h in self.handles]
        ):
            out.update(d)
        return out

    def collect_lineage(self, counts: list[np.ndarray]) -> np.ndarray:
        """The round's lineage matrix: the sum of its tasks' matrices.
        A driver-side fold with no shard call, kept under this name
        because the benchmark's traced run times it as
        ``state.politeness.collect_lineage``."""
        return np.sum(counts, axis=0)


def _leq_cutoff(p, d, t, h, c: tuple) -> np.ndarray:
    """Vectorized lexicographic (p,d,t,h) ≤ c."""
    cp, cd, ct, ch = c
    return (
        (p < cp)
        | ((p == cp) & (d < cd))
        | ((p == cp) & (d == cd) & (t < ct))
        | ((p == cp) & (d == cd) & (t == ct) & (h <= np.uint64(ch)))
    )
