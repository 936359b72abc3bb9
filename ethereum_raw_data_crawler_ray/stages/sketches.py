"""Sketch / order-statistics operators for the 100-TB pipeline
(SURVEY.md §2.6 extension; "novel sketch" slot of the operator brief).

Exact order statistics run on ONE engine, :func:`_order_stats`, a
two-pass plan with no global sort:

1. a min/max pass fixes the fixed-point range (``scale`` = decimal
   precision, 100 = cents) and records whether every value is such a
   fixed-point number;
2. a sparse histogram keyed by ``(group, bucket)`` — global is the
   one-group case — over at most :data:`HIST_BUCKETS` buckets per
   group, merged by :func:`_merge_counts`;
3. the driver locates each requested rank's bucket from each group's
   cumulative counts;
4. one filtered scan fetches only the target buckets' rows (at most
   :data:`MAX_FETCH_ROWS`, else a loud ``ValueError``) and picks the
   exact element from each sorted bucket.  When every bucket holds one
   fixed-point value and every value is one, the histogram is the
   answer and step 4 is skipped.

Shuffle volume is O(histogram), never O(n).  NULL values are ignored;
a NULL group key is a group (SQL GROUP BY), and a group or column with
no non-NULL value yields NaN.  The public functions are rank rules on
that engine: ``quantile_disc`` takes the 0-based rank max(0, ⌈q·n⌉−1)
(:func:`exact_quantiles`, :func:`grouped_quantiles`); ``quantile_cont``
takes ranks ⌊p⌋ and ⌈p⌉ of p = q·(n−1) and interpolates
``lo + (hi − lo)·frac`` (:func:`exact_quantiles_cont`,
:func:`grouped_quantiles_cont`); :func:`mad_exact` takes the two middle
ranks, twice.

The other operators are combiners with per-batch partials of at most
a few thousand rows or one blob: ``heavy_hitters`` (top-k candidates,
exact recount), ``hll_distinct`` (HyperLogLog, ±1.04/√m), t-digest
quantiles, Count-Min, exact-integer moment statistics and the grouped
aggregates below them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from . import joins
from .joins import exchange


# ==========================================================================
# exact order statistics (two-pass histogram refinement)
# ==========================================================================
# pass-1 histogram resolution: fixed-point buckets spanning the value range
HIST_BUCKETS = 1 << 16
# rows pass 2 may pull to the driver before refinement fails loudly
MAX_FETCH_ROWS = 50_000_000


def _merge_counts(partials: rd.Dataset, keys: list[str]) -> pd.DataFrame:
    """Sum the per-batch partial counts ``n`` by ``keys`` (a NULL key is
    a group), sorted by ``keys``: on the driver up to
    :data:`~.joins.DRIVER_MERGE_ROWS` partial rows (the sort exchange
    alone would cost more), through a hash-bucketed
    :func:`~.joins.exchange` combine above it."""

    if partials.count() > joins.DRIVER_MERGE_ROWS:
        partials = exchange(
            partials, keys,
            lambda t: t.group_by(keys).aggregate([("n", "sum")])
            .select(keys + ["n_sum"]).rename_columns(keys + ["n"]),
            batch_format="pyarrow",
        )
    return (partials.to_pandas().groupby(keys, sort=True, dropna=False)["n"]
            .sum().reset_index())


def _order_stats(ds: rd.Dataset, col: str, rank_fn, *,
                 group: str | None = None, scale: int) -> list:
    """The exact order statistics of ``ds[col]`` per ``group`` value
    (the module docstring's plan).  → ``[(group key, n, {rank: value})]``
    in group order (NULL last): ``n`` is the group's non-NULL count and
    each requested 0-based rank of ``rank_fn(n)`` maps to its exact raw
    value as a float.  A group with n = 0 gets ``{}`` and ``rank_fn`` is
    not called; ``group=None`` returns exactly one ``(None, n, …)``."""
    keys = ["bucket"] if group is None else ["g", "bucket"]

    def lohi(t: pa.Table) -> pa.Table:
        v = pc.cast(t[col], pa.float64())
        fixed = pc.all(pc.equal(pc.divide(pc.round(pc.multiply(v, scale)),
                                          scale), v)).as_py()
        return pa.table({"lo": pa.array([pc.min(v).as_py()], pa.float64()),
                         "hi": pa.array([pc.max(v).as_py()], pa.float64()),
                         "fixed": [fixed is not False]})

    r = ds.map_batches(lohi, batch_format="pyarrow").to_pandas()
    if not len(r):  # no batch at all
        return [] if group else [(None, 0, {})]
    lo_c = int(np.floor(r["lo"].min() * scale)) if r["lo"].notna().any() else 0
    hi_c = int(np.ceil(r["hi"].max() * scale)) if r["hi"].notna().any() else 0
    # fixed-point units per bucket
    width = max(1, (hi_c - lo_c + HIST_BUCKETS) // HIST_BUCKETS)

    def keyed(t: pa.Table):
        """→ (group column, bucket, value) of a batch; bucket −1 on NULL
        values, which keeps an all-NULL group's key in the histogram."""
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v)
        b = np.full(len(v), -1, dtype=np.int64)
        b[ok] = (np.round(v[ok] * scale).astype(np.int64) - lo_c) // width
        return (None if group is None else t[group]), b, v

    def hist(t: pa.Table) -> pa.Table:
        g, b, _ = keyed(t)
        kt = pa.table({"bucket": b} if g is None else {"g": g, "bucket": b})
        counts = kt.group_by(keys).aggregate([([], "count_all")])
        return counts.select(keys + ["count_all"]).rename_columns(keys + ["n"])

    h = _merge_counts(ds.map_batches(hist, batch_format="pyarrow").materialize(),
                      keys)
    groups = [(None, h)] if group is None else h.groupby("g", sort=False,
                                                         dropna=False)
    plan, picks, n_picks = [], [], 0  # plan: (g, n, ranks, target, offset)
    for g, hg in groups:
        hg = hg[hg["bucket"] >= 0]
        cum = hg["n"].cumsum().to_numpy()
        n = int(cum[-1]) if len(cum) else 0
        k = np.unique(np.asarray(rank_fn(n) if n else [], dtype=np.int64))
        bi = np.searchsorted(cum, k + 1)
        ub, inv = np.unique(bi, return_inverse=True)
        plan.append((g, n, k, n_picks + inv, k - np.concatenate([[0], cum])[bi]))
        picks.append(hg.index.to_numpy()[ub])
        n_picks += len(ub)
    targets = h.loc[np.concatenate(picks)].reset_index(drop=True)

    if width == 1 and r["fixed"].all():
        # every bucket is one fixed-point value, and so is every row:
        # the histogram IS the answer, no second pass
        at = lambda tix, off: (lo_c + targets["bucket"].to_numpy()[tix]) / scale
    else:
        fetch = int(targets["n"].sum())
        if fetch > MAX_FETCH_ROWS:
            raise ValueError(
                f"order-statistic refinement would pull {fetch} rows to the "
                "driver (heavily repeated values?); raise HIST_BUCKETS or scale"
            )
        tk = targets[keys].assign(t=np.arange(len(targets), dtype=np.int64))

        def pick(t: pa.Table) -> pa.Table:
            g, b, v = keyed(t)
            df = pd.DataFrame({"bucket": b, "v": v})
            if g is not None:
                df.insert(0, "g", g.to_numpy(zero_copy_only=False))
            df = df[b >= 0].merge(tk, on=keys)
            return pa.table({"t": pa.array(df["t"].to_numpy(), pa.int64()),
                             "v": pa.array(df["v"].to_numpy(), pa.float64())})

        rows = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
        t_ix, v = rows["t"].to_numpy(), rows["v"].to_numpy()
        order = np.lexsort((v, t_ix))
        sv = v[order]
        start = np.searchsorted(t_ix[order], np.arange(len(targets)))
        at = lambda tix, off: sv[start[tix] + off]
    return [(g, n, dict(zip(k.tolist(), at(tix, off).tolist())))
            for g, n, k, tix, off in plan]


def _disc_rank(q: float, n: int) -> int:
    """DuckDB's quantile_disc rank (verified empirically): the element
    at 0-based index max(0, ceil(q·n) − 1)."""
    return max(0, int(np.ceil(q * n)) - 1)


def _cont_ranks(q: float, n: int):
    """quantile_cont's neighbor ranks of p = q·(n−1) and the fraction."""
    p = q * (n - 1)
    return int(np.floor(p)), int(np.ceil(p)), p - np.floor(p)


def _cont_value(st: dict, q: float, n: int) -> float:
    r_lo, r_hi, frac = _cont_ranks(q, n)
    v_lo, v_hi = st[r_lo], st[r_hi]
    return round(v_lo + (v_hi - v_lo) * frac, 6)


# rank rules: (the ranks quantile q of n values reads, its value from them)
_DISC = (lambda q, n: [_disc_rank(q, n)],
         lambda st, q, n: round(st[_disc_rank(q, n)], 6))
_CONT = (lambda q, n: _cont_ranks(q, n)[:2], _cont_value)


def _quantiles(ds, col, qs, rule, *, scale, group=None) -> pd.DataFrame:
    """One ``([group,] q, value)`` row per group and q under ``rule``."""
    ranks, value = rule
    stats = _order_stats(ds, col, lambda n: [r for q in qs for r in ranks(q, n)],
                         group=group, scale=scale)
    rows = [(g, q, value(st, q, n) if n else np.nan)
            for g, n, st in stats for q in qs]
    if group is None:
        return pd.DataFrame([r[1:] for r in rows], columns=["q", "value"])
    if not rows:
        return pd.DataFrame({group: [], "q": [], "value": []})
    return pd.DataFrame(rows, columns=[group, "q", "value"])


def exact_quantiles(
    ds: rd.Dataset,
    col: str,
    qs: list[float],
    *,
    scale: int = 100,
) -> pd.DataFrame:
    """Exact ``quantile_disc`` values of ``ds[col]`` for each q in
    ``qs`` (the element at 0-based index max(0, ceil(q·n)−1) of the
    sorted column — DuckDB's quantile_disc definition); NaN on an
    empty/all-NULL column.

    ``scale`` fixes the decimal precision (100 = cents); values are
    histogrammed in fixed-point so bucket membership is exact.  Two
    linear passes, no global sort (:func:`_order_stats`).
    """
    return _quantiles(ds, col, qs, _DISC, scale=scale)


def exact_quantiles_cont(
    ds: rd.Dataset,
    col: str,
    qs: list[float],
    *,
    scale: int = 100,
) -> pd.DataFrame:
    """Exact CONTINUOUS (interpolated) quantiles — the quantile_cont
    rule: position p = q·(n−1); interpolate lower + (upper − lower)·
    (p − ⌊p⌋) between the order statistics at ranks ⌊p⌋ and ⌈p⌉.
    NULLs are ignored (SQL semantics) and an empty/all-null column
    returns NaN.

    NOTE on oracle parity: DuckDB's quantile_cont KERNEL interpolates
    with a different expression (1-ulp divergence in ~a quarter of
    interpolations — measured), so the q92 oracle computes the SAME
    explicit ``lo + (hi − lo) * frac`` from ROW_NUMBER order stats
    instead of calling quantile_cont; identical double ops in the same
    order are bit-equal, and ROUND(…, 6) is applied to bit-equal
    inputs on both sides."""
    return _quantiles(ds, col, qs, _CONT, scale=scale)


def grouped_quantiles(
    ds: rd.Dataset,
    group_col: str,
    col: str,
    qs: list[float],
    *,
    scale: int = 100,
) -> pd.DataFrame:
    """Per-group exact ``quantile_disc`` (the :func:`exact_quantiles`
    rule per group), group-sorted with a NULL group last and NaN for a
    group with no non-NULL value.

    The driver holds one sparse histogram row per (group, touched
    bucket) — designed for group cardinalities up to ~10^5 (languages,
    sources, shards), not per-user groups; pass 2 fetches only the rows
    of each group's target buckets."""
    return _quantiles(ds, col, qs, _DISC, scale=scale, group=group_col)


def grouped_quantiles_cont(
    ds: rd.Dataset,
    group_col: str,
    col: str,
    qs: list[float],
    *,
    scale: int = 100,
) -> pd.DataFrame:
    """Per-group CONTINUOUS (interpolated) quantiles — quantile_cont's
    p = q·(n_g−1) rule per group (see :func:`grouped_quantiles` for
    NULL groups and values).  Completes the quantile matrix (disc/cont
    × global/grouped × exact/sketch).  The oracle interpolates
    explicitly from per-partition ROW_NUMBER order stats (never the
    quantile_cont kernel — see exact_quantiles_cont's 1-ulp parity
    note)."""
    return _quantiles(ds, col, qs, _CONT, scale=scale, group=group_col)


def topk_per_group(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    k: int,
    *,
    tiebreak_col: str,
    descending: bool = True,
) -> rd.Dataset:
    """Exact top-``k`` rows per group by ``value_col`` (ties broken by
    ``tiebreak_col`` ascending) — the per-source best-quality selection
    of a training-data pipeline.

    Combiner shape: each batch forwards at most k rows per group it
    contains (batch-local top-k), so the final per-group rank sees
    ≤ k·n_batches candidate rows, never the full group; the only wide
    step is a groupby over those candidates.
    """
    asc = [not descending, True]
    cols = [group_col, value_col, tiebreak_col]

    def candidates(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        keep = (
            df.sort_values([value_col, tiebreak_col], ascending=asc, kind="mergesort")
            .groupby(group_col, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(keep, preserve_index=False)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values([value_col, tiebreak_col], ascending=asc, kind="mergesort").head(k)

    return (
        ds.select_columns(cols)
        .map_batches(candidates, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(pick, batch_format="pandas")
    )


# ==========================================================================
# heavy hitters (partial top-m + exact recount)
# ==========================================================================
def heavy_hitters(
    ds: rd.Dataset,
    col: str,
    k: int,
    *,
    n_counters: int = 4096,
) -> pd.DataFrame:
    """Top-``k`` values of ``ds[col]`` by frequency with EXACT counts.

    Candidate pass: each batch emits its top-``n_counters`` local
    counts.  A key truncated everywhere has per-batch count ≤ each
    batch's n_counters-th largest, so any key whose true count exceeds
    the sum of those thresholds cannot be missed (the Misra-Gries
    bound); on batches whose local distinct ≤ n_counters no truncation
    happens and the result is unconditionally exact.  Recount pass: exact groupby-count
    restricted to the candidate keys, then top-k (ties broken by key).
    Shuffle volume: ≤ n_counters rows per batch, then |candidates| rows.
    """

    def partial(t: pa.Table) -> pa.Table:
        vals = t[col].to_numpy(zero_copy_only=False)
        keys, counts = np.unique(vals, return_counts=True)
        if len(keys) > n_counters:
            keep = np.argsort(counts)[::-1][:n_counters]
            keys, counts = keys[keep], counts[keep]
        return pa.table(
            {"key": pa.array(keys), "n": pa.array(counts.astype(np.int64))}
        )

    from ray.data.aggregate import Sum

    cand = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("n", alias_name="n_lower"))
        .to_pandas()
    )
    # every key that survived any batch's top-m is a candidate; a key
    # absent everywhere has global count ≤ Σ batch-errors (MG bound)
    cand_keys = np.sort(cand["key"].to_numpy())

    def recount(t: pa.Table) -> pa.Table:
        vals = t[col].to_numpy(zero_copy_only=False)
        m = np.isin(vals, cand_keys)
        kk, cc = np.unique(vals[m], return_counts=True)
        return pa.table({"key": pa.array(kk), "n": pa.array(cc.astype(np.int64))})

    exact = (
        ds.map_batches(recount, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    exact = exact.sort_values(["n", "key"], ascending=[False, True], kind="mergesort")
    out = exact.head(k).reset_index(drop=True)
    out["n"] = out["n"].astype(np.int64)
    return out


# ==========================================================================
# HyperLogLog distinct count
# ==========================================================================
def _hll_registers(vals: np.ndarray, p: int) -> np.ndarray:
    """Register array (2^p uint8) for a batch of values."""
    h = pd.util.hash_array(np.asarray(vals)).astype(np.uint64)
    m = np.uint64((1 << p) - 1)
    idx = (h & m).astype(np.int64)
    w = h >> np.uint64(p)
    # rank = position of the first set bit in the remaining 64-p bits
    nz = w != 0
    rank = np.full(len(h), 64 - p + 1, dtype=np.uint8)
    if nz.any():
        # trailing-zeros via bit tricks: isolate lowest set bit, log2
        low = (w[nz] & (~w[nz] + np.uint64(1))).astype(np.float64)
        rank[nz] = (np.log2(low).astype(np.uint8) + 1).astype(np.uint8)
    regs = np.zeros(1 << p, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_distinct(ds: rd.Dataset, col: str, *, p: int = 14) -> float:
    """Approximate COUNT(DISTINCT col): per-batch HLL register blobs,
    tree-merged by elementwise max (a merge stage halves the blob count
    so the driver never sees more than a handful), standard HLL
    estimator with small-range correction.  Error ~1.04/√(2^p)."""

    def blob(t: pa.Table) -> pa.Table:
        regs = _hll_registers(t[col].to_numpy(zero_copy_only=False), p)
        return pa.table({"regs": pa.array([regs.tobytes()], type=pa.binary())})

    def merge(t: pa.Table) -> pa.Table:
        acc = np.zeros(1 << p, dtype=np.uint8)
        for b in t["regs"].to_pylist():
            acc = np.maximum(acc, np.frombuffer(b, dtype=np.uint8))
        return pa.table({"regs": pa.array([acc.tobytes()], type=pa.binary())})

    blobs = (
        ds.map_batches(blob, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    regs = np.zeros(1 << p, dtype=np.uint8)
    for b in blobs["regs"]:
        regs = np.maximum(regs, np.frombuffer(b, dtype=np.uint8))

    return _hll_estimate(regs)


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with small-range linear counting."""
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting for the small range
    return float(est)


def hll_distinct_grouped(
    ds: rd.Dataset, group: str, col: str, *, p: int = 12
) -> pd.DataFrame:
    """Approximate per-group COUNT(DISTINCT col) — the grouped HLL:
    per-batch, per-group register blobs (one 2^p-byte row per group
    present in the batch), merged by elementwise max in a groupby over
    the GROUP key.  The shuffle carries #groups × #blocks sketch rows,
    never the data; right for high-cardinality ``col`` under a
    low-cardinality ``group`` (distinct users per country, distinct
    URLs per host class).  Error ~1.04/√(2^p) per group."""

    def blob(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group).type
        if len(t) == 0:  # typed empty block, not a null-inferred schema
            return pa.table(
                {group: pa.array([], type=gtype), "regs": pa.array([], pa.binary())}
            )
        g = t[group].to_numpy(zero_copy_only=False)
        v = t[col].to_numpy(zero_copy_only=False)
        # factorize, not np.unique: None/NaN group keys are kept as their
        # own group (SQL GROUP BY semantics — same contract as pivot_counts)
        inv, uniq = pd.factorize(pd.Series(g), use_na_sentinel=False)
        rows_g, rows_r = [], []
        for i, gv in enumerate(uniq):
            rows_g.append(None if pd.isna(gv) else gv)
            rows_r.append(_hll_registers(v[inv == i], p).tobytes())
        return pa.table(
            {group: pa.array(rows_g, type=gtype), "regs": pa.array(rows_r, pa.binary())}
        )

    def merge(f: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(1 << p, dtype=np.uint8)
        for b in f["regs"]:
            acc = np.maximum(acc, np.frombuffer(b, dtype=np.uint8))
        return pd.DataFrame(
            {group: [f[group].iloc[0]], "approx_distinct": [_hll_estimate(acc)]}
        )

    return (
        ds.map_batches(blob, batch_format="pyarrow")
        .groupby(group)
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )


# --------------------------------------------------------------------------
# pivot / crosstab
# --------------------------------------------------------------------------
def pivot_counts(
    ds: rd.Dataset,
    key_col: str,
    cat_col: str,
    categories: list[str],
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Pivot ``cat_col`` into one count column per category, grouped by
    ``key_col`` — the long→wide crosstab (SQL ``SUM(CASE WHEN …)``
    pivot).  Per-batch partial crosstabs are the combiner (the shuffle
    carries one row per distinct key per BATCH, with the category axis
    already folded into columns); the reduce is hash-bucketed with a
    per-bucket pandas sum (per-ROW cost — a key space of millions of
    users would pay Ray's sort-aggregate per-KEY overhead instead).

    ``categories`` is explicit so the output schema is deterministic
    and category skew cannot mint unbounded columns; values outside it
    are ignored, but their KEYS still appear (all-zero row) — matching
    the SQL GROUP BY over all rows.  Keys must be integers (the engine's
    id convention — hash string keys first, as the dedup stages do).
    """
    cats = list(categories)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "k": np.asarray(t[key_col].to_pandas()),
                "c": np.asarray(t[cat_col].to_pandas(), dtype=object),
            }
        )
        wide = (
            # dropna=False: a key whose rows all have a NULL category
            # must still appear (all-zero) — SQL GROUP BY keeps it
            df.groupby(["k", "c"], sort=False, dropna=False).size()
            .unstack(fill_value=0)
            .reindex(columns=cats, fill_value=0)
            .reset_index()
        )
        key = wide["k"].to_numpy(np.int64)
        cols = {key_col: pa.array(key, type=pa.int64())}
        for c in cats:
            cols[c] = pa.array(wide[c].to_numpy(np.int64), type=pa.int64())
        return pa.table(cols)

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(key_col, sort=False)[cats].sum().reset_index()
        return agg.astype({c: np.int64 for c in [key_col, *cats]})

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), key_col,
                    reduce_bucket, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# rollup (multi-level grouped aggregates)
# --------------------------------------------------------------------------
def rollup_agg(
    ds: "rd.Dataset",
    keys: list[str],
    val: str,
) -> pd.DataFrame:
    """``GROUP BY ROLLUP(keys...)``: count + sum at every prefix level
    of ``keys`` (finest → grand total), rolled columns as NULL — SQL
    ROLLUP semantics.

    Scale shape: ONLY the finest level runs over the data (Ray's
    groupby with map-side partial aggregation); every coarser level
    re-aggregates the finest RESULT, which is distinct-combination-
    sized — the same thing the caller is about to read anyway, so the
    driver-side re-aggregation adds nothing to the memory high-water
    mark.  A rollup whose finest level doesn't fit the driver needs the
    caller to stop at a coarser prefix.
    """
    from ray.data.aggregate import Count, Sum

    finest = (
        ds.groupby(keys)
        .aggregate(Count(alias_name="n"), Sum(val, alias_name="sum_val"))
        .to_pandas()
    )
    levels = [finest]
    for depth in range(len(keys) - 1, -1, -1):
        sub = keys[:depth]
        if sub:
            g = finest.groupby(sub, as_index=False, dropna=False)[["n", "sum_val"]].sum()
        else:
            g = pd.DataFrame({"n": [finest["n"].sum()], "sum_val": [finest["sum_val"].sum()]})
        for k in keys[depth:]:
            g[k] = None
        levels.append(g[keys + ["n", "sum_val"]])
    out = pd.concat(levels, ignore_index=True)
    out["n"] = out["n"].astype("int64")
    return out


# --------------------------------------------------------------------------
# t-digest: one-pass mergeable quantile sketch
# --------------------------------------------------------------------------
def _tdigest_compress(means: np.ndarray, weights: np.ndarray,
                      delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge weighted points (sorted by mean) into ≤ ~delta centroids by
    k-index clustering: centroid id = floor(k1(q_mid)) with the t-digest
    scale function k1(q) = (δ/2π)·asin(2q−1), so cluster mass is bounded
    by ~2πn√(q(1−q))/δ — tight at the tails, loose in the middle (the
    t-digest accuracy shape; Dunning & Ertl 2019, arXiv:1902.04023 —
    public).  Fully vectorized (cumsum + reduceat), deterministic."""
    order = np.argsort(means, kind="mergesort")
    means, weights = means[order], weights[order]
    total = weights.sum()
    if total <= 0 or len(means) == 0:
        return np.array([], np.float64), np.array([], np.float64)
    cum = np.cumsum(weights)
    q_mid = (cum - weights / 2.0) / total
    k = np.floor((delta / (2 * np.pi)) * np.arcsin(2 * q_mid - 1) + delta / 4.0)
    starts = np.flatnonzero(np.diff(k, prepend=np.nan) != 0)
    w_out = np.add.reduceat(weights, starts)
    m_out = np.add.reduceat(means * weights, starts) / w_out
    return m_out, w_out


def tdigest_quantiles(ds: rd.Dataset, col: str,
                      qs: tuple[float, ...] = (0.01, 0.25, 0.5, 0.75, 0.99),
                      delta: int = 200) -> pd.DataFrame:
    """Approximate quantiles in ONE streaming pass — the unbounded-
    column companion to :func:`exact_quantiles` (which needs two passes
    over the data).  Per-block t-digest blobs (≤ δ (mean, weight)
    centroids, ~3 KB each), tree-merged exactly like
    :func:`hll_distinct` so the driver only ever touches sketch-sized
    state; rank error ≲ π√(q(1−q))/δ of n (≤ ~0.8 % at the median for
    δ=200, tighter at the tails).  No SQL oracle by design
    (approximate); the rank-error bound vs numpy is property-tested.

    Returns DataFrame (q, value, n)."""

    def blob(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        m, w = _tdigest_compress(v, np.ones(len(v), np.float64), delta)
        return pa.table(
            {
                "means": pa.array([m.tobytes()], type=pa.binary()),
                "weights": pa.array([w.tobytes()], type=pa.binary()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        ms = [np.frombuffer(b, np.float64) for b in t["means"].to_pylist()]
        ws = [np.frombuffer(b, np.float64) for b in t["weights"].to_pylist()]
        m, w = _tdigest_compress(np.concatenate(ms), np.concatenate(ws), delta)
        return pa.table(
            {
                "means": pa.array([m.tobytes()], type=pa.binary()),
                "weights": pa.array([w.tobytes()], type=pa.binary()),
            }
        )

    blobs = (
        ds.map_batches(blob, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    if not len(blobs):
        # zero input blocks: no blob rows at all (np.concatenate of an
        # empty list raises, making the n==0 branch below unreachable)
        return pd.DataFrame({"q": list(qs), "value": np.nan, "n": 0})
    m = np.concatenate([np.frombuffer(b, np.float64) for b in blobs["means"]])
    w = np.concatenate([np.frombuffer(b, np.float64) for b in blobs["weights"]])
    m, w = _tdigest_compress(m, w, delta)
    n = w.sum()
    if n == 0:
        return pd.DataFrame({"q": list(qs), "value": np.nan, "n": 0})
    # interpolate the centroid CDF: centroid i sits at rank cum_i − w_i/2
    ranks = np.cumsum(w) - w / 2.0
    vals = [float(np.interp(q * n, ranks, m)) for q in qs]
    return pd.DataFrame({"q": list(qs), "value": vals, "n": int(round(n))})


def tdigest_quantiles_grouped(ds: rd.Dataset, group: str, col: str,
                              qs: tuple[float, ...] = (0.25, 0.5, 0.75),
                              delta: int = 200) -> pd.DataFrame:
    """Per-group one-pass approximate quantiles — the grouped companion
    to :func:`tdigest_quantiles` exactly as :func:`grouped_quantiles`
    is to :func:`exact_quantiles`.  Per-batch, per-group centroid blobs
    (one ≤δ-centroid row per group present in the batch), merged in a
    group-keyed reduce — the shuffle carries #groups × #blocks sketch
    rows, never the data; right for an unbounded ``col`` under a
    low-cardinality ``group``.  Same rank-error bound per group as the
    global sketch.  Returns DataFrame (group, q, value, n)."""

    def blob(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group).type
        if len(t) == 0:
            return pa.table(
                {group: pa.array([], type=gtype),
                 "means": pa.array([], pa.binary()),
                 "weights": pa.array([], pa.binary())}
            )
        df = pd.DataFrame(
            {
                "g": t[group].to_pandas(),
                "v": t[col].to_numpy(zero_copy_only=False).astype(np.float64),
            }
        )
        df = df[~np.isnan(df["v"].to_numpy())]
        keys, means, weights = [], [], []
        for k, sub in df.groupby("g", sort=False, dropna=False):
            m, w = _tdigest_compress(sub["v"].to_numpy(np.float64),
                                     np.ones(len(sub), np.float64), delta)
            keys.append(k)
            means.append(m.tobytes())
            weights.append(w.tobytes())
        return pa.table(
            {
                group: pa.array(keys, type=gtype),
                "means": pa.array(means, type=pa.binary()),
                "weights": pa.array(weights, type=pa.binary()),
            }
        )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        m = np.concatenate([np.frombuffer(b, np.float64) for b in g["means"]])
        w = np.concatenate([np.frombuffer(b, np.float64) for b in g["weights"]])
        m, w = _tdigest_compress(m, w, delta)
        return pd.DataFrame(
            {group: [g[group].iloc[0]],
             "means": [m.tobytes()], "weights": [w.tobytes()]}
        )

    merged = (
        ds.map_batches(blob, batch_format="pyarrow")
        .groupby(group)
        .map_groups(merge_group, batch_format="pandas")
        .to_pandas()
    )
    rows = []
    for r in merged.itertuples(index=False):
        m = np.frombuffer(getattr(r, "means"), np.float64)
        w = np.frombuffer(getattr(r, "weights"), np.float64)
        n = w.sum()
        ranks = np.cumsum(w) - w / 2.0
        for q in qs:
            rows.append((getattr(r, group), q,
                         float(np.interp(q * n, ranks, m)), int(round(n))))
    out = pd.DataFrame(rows, columns=[group, "q", "value", "n"])
    return out.sort_values([group, "q"]).reset_index(drop=True)


# --------------------------------------------------------------------------
# exact grouped COUNT(DISTINCT) — the exact companion of the HLL sketch
# --------------------------------------------------------------------------
def _pinned_types(ds: rd.Dataset, group: str, val: str):
    """(group type, val type) from the dataset's UNIFIED schema — the
    per-block pin for operators that must keep NULL values flowing
    (a block whose values are all NULL infers arrow type 'null' and
    would break the groupby exchange's block schema).  A still-null
    unified type (every row null) falls back to string — any concrete
    type serializes an all-null column; pandas OBJECT columns transport
    as string too (their values are strings in this engine's tables).
    NOTE: ``ds.schema()`` on a transformed dataset triggers a small
    sample execution; these operators normally take a straight table
    read."""
    s = ds.schema()
    base = s.base_schema
    f: dict = {}
    if isinstance(base, pa.Schema):
        f = {fl.name: fl.type for fl in base}
    else:  # PandasBlockSchema: numpy dtypes (object for strings/None)
        for name, typ in zip(s.names, s.types):
            if isinstance(typ, pa.DataType):
                f[name] = typ
            else:
                try:
                    f[name] = pa.from_numpy_dtype(typ)
                except (pa.ArrowNotImplementedError, TypeError):
                    f[name] = pa.string()
    gt, vt = f[group], f[val]
    if pa.types.is_null(gt):
        gt = pa.string()
    if pa.types.is_null(vt):
        vt = pa.string()
    return gt, vt


def grouped_count_distinct(ds: rd.Dataset, group: str, val: str,
                           n_buckets: int | None = None) -> pd.DataFrame:
    """Exact ``COUNT(DISTINCT val) GROUP BY group`` without ever
    shuffling raw rows twice: per-batch (group, val) pair dedup (the
    combiner — web-scale inputs collapse hard here), ONE hash-bucket
    exchange on the pair, per-bucket global dedup + per-group partial
    counts (thin), then a tiny final merge over #groups × #buckets
    partials.  SQL semantics: NULL ``val`` rows don't count; a NULL
    ``group`` is its own group.  Exactness makes this the oracle-backed
    complement of :func:`hll_distinct_grouped` (q48/q71)."""
    from .joins import _arrow_fields

    gtype, vtype = _pinned_types(ds, group, val)

    def part(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({group: t[group].to_pandas(),
                           "__v": t[val].to_pandas()})
        # NULL vals are kept as ONE pair per group: they don't count
        # toward the distinct total (pandas count() skips them below),
        # but they keep an all-NULL group ALIVE so it reports
        # n_distinct=0 like SQL, instead of vanishing from the output
        df = df.drop_duplicates()
        # pin the arrow types from the DATASET's unified schema: an
        # all-NULL partition would otherwise infer type 'null' and
        # conflict with other blocks' schema in the groupby exchange
        # (and hash down another path in the pair-keyed exchange)
        return pa.table(
            {
                group: pa.Array.from_pandas(df[group], type=gtype),
                "__v": pa.Array.from_pandas(df["__v"], type=vtype),
            }
        )

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates([group, "__v"])
        out = (
            u.groupby(group, sort=False, dropna=False)["__v"]
            .count()  # count() excludes NULL values (SQL COUNT DISTINCT)
            .rename("n_distinct")
            .reset_index()
        )
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out[[group, "n_distinct"]]

    parts = exchange(ds.map_batches(part, batch_format="pyarrow"),
                     [group, "__v"], count_bucket,
                     n_buckets=n_buckets).to_pandas()
    if not len(parts):
        return pd.DataFrame({group: pd.Series(dtype=object),
                             "n_distinct": pd.Series(dtype=np.int64)})
    out = (
        parts.groupby(group, sort=False, dropna=False)["n_distinct"]
        .sum()
        .astype(np.int64)
        .reset_index()
    )
    return out.sort_values(group).reset_index(drop=True)


# --------------------------------------------------------------------------
# global correlation / covariance via mergeable moment partials
# --------------------------------------------------------------------------
def corr_stats(ds: rd.Dataset, x: str, y: str) -> pd.DataFrame:
    """Pearson correlation + sample covariance of two columns in ONE
    streaming pass: per-batch moment partials (n, Σx, Σy, Σx², Σy²,
    Σxy — six doubles per block, the canonical mergeable-statistic
    shape), merged on the driver.  Float sums associate differently
    than DuckDB's streaming kernel, so parity is to round-off — the
    oracle compares at ROUND(…, 6).  Rows where either side is NULL
    are skipped (SQL CORR/COVAR semantics).

    Returns DataFrame (n, corr, covar_samp)."""

    def part(t: pa.Table) -> pa.Table:
        xv = t[x].to_numpy(zero_copy_only=False).astype(np.float64)
        yv = t[y].to_numpy(zero_copy_only=False).astype(np.float64)
        m = ~(np.isnan(xv) | np.isnan(yv))
        xv, yv = xv[m], yv[m]
        return pa.table(
            {
                "n": pa.array([len(xv)], pa.int64()),
                "sx": pa.array([float(xv.sum())], pa.float64()),
                "sy": pa.array([float(yv.sum())], pa.float64()),
                "sxx": pa.array([float((xv * xv).sum())], pa.float64()),
                "syy": pa.array([float((yv * yv).sum())], pa.float64()),
                "sxy": pa.array([float((xv * yv).sum())], pa.float64()),
            }
        )

    p = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    n = int(p["n"].sum())
    if n < 2:
        return pd.DataFrame({"n": [n], "corr": [np.nan],
                             "covar_samp": [np.nan]})
    sx, sy = p["sx"].sum(), p["sy"].sum()
    sxx, syy, sxy = p["sxx"].sum(), p["syy"].sum(), p["sxy"].sum()
    cov = (sxy - sx * sy / n) / (n - 1)
    vx = (sxx - sx * sx / n) / (n - 1)
    vy = (syy - sy * sy / n) / (n - 1)
    corr = cov / np.sqrt(vx * vy) if vx > 0 and vy > 0 else np.nan
    return pd.DataFrame({"n": [n], "corr": [round(float(corr), 6)],
                         "covar_samp": [round(float(cov), 6)]})


def corr_stats_grouped(ds: rd.Dataset, group: str, x: str,
                       y: str) -> pd.DataFrame:
    """Per-group Pearson correlation + sample covariance — q86's moment
    partials with a group axis: each batch emits one (group, n, Σx, Σy,
    Σx², Σy², Σxy) row per distinct group it contains (a pandas groupby
    over the batch — six doubles per group per block), merged on the
    driver like corr_stats.  Parity at ROUND(…, 6); groups with n < 2
    (or zero variance) emit NULL corr/covar like SQL.

    Returns (group, n, corr, covar_samp) group-sorted."""

    def part(t: pa.Table) -> pa.Table:
        g = t[group].to_pandas()
        xv = t[x].to_numpy(zero_copy_only=False).astype(np.float64)
        yv = t[y].to_numpy(zero_copy_only=False).astype(np.float64)
        m = ~(np.isnan(xv) | np.isnan(yv))
        df = pd.DataFrame({group: g[m], "sx": xv[m], "sy": yv[m]})
        df["sxx"] = df["sx"] * df["sx"]
        df["syy"] = df["sy"] * df["sy"]
        df["sxy"] = df["sx"] * df["sy"]
        p = df.groupby(group, sort=False, dropna=False).agg(
            n=("sx", "size"), sx=("sx", "sum"), sy=("sy", "sum"),
            sxx=("sxx", "sum"), syy=("syy", "sum"), sxy=("sxy", "sum"),
        ).reset_index()
        p["n"] = p["n"].astype(np.int64)
        return pa.Table.from_pandas(p, preserve_index=False)

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame({group: pd.Series(dtype=object),
                             "n": pd.Series(dtype=np.int64),
                             "corr": pd.Series(dtype=np.float64),
                             "covar_samp": pd.Series(dtype=np.float64)})
    agg = parts.groupby(group, sort=True, dropna=False).sum()
    n = agg["n"].to_numpy(np.float64)
    sx, sy = agg["sx"].to_numpy(), agg["sy"].to_numpy()
    sxx, syy, sxy = (agg["sxx"].to_numpy(), agg["syy"].to_numpy(),
                     agg["sxy"].to_numpy())
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = np.where(n > 1, (sxy - sx * sy / n) / (n - 1), np.nan)
        vx = np.where(n > 1, (sxx - sx * sx / n) / (n - 1), np.nan)
        vy = np.where(n > 1, (syy - sy * sy / n) / (n - 1), np.nan)
        corr = np.where((vx > 0) & (vy > 0), cov / np.sqrt(vx * vy), np.nan)
    return pd.DataFrame(
        {
            group: agg.index.to_numpy(),
            "n": agg["n"].to_numpy(np.int64),
            "corr": np.round(corr, 6),
            "covar_samp": np.round(cov, 6),
        }
    ).reset_index(drop=True)


def cube_agg(ds: rd.Dataset, keys: list[str], val: str) -> pd.DataFrame:
    """``GROUP BY CUBE(keys...)``: count + sum at EVERY subset of
    ``keys`` (2^k grouping sets), omitted columns as NULL — SQL CUBE
    semantics.  Same scale shape as :func:`rollup_agg`: only the finest
    level runs over the data; every other grouping set re-aggregates
    the finest, distinct-combination-sized result."""
    from itertools import combinations

    from ray.data.aggregate import Count, Sum

    finest = (
        ds.groupby(keys)
        .aggregate(Count(alias_name="n"), Sum(val, alias_name="sum_val"))
        .to_pandas()
    )
    levels = [finest[keys + ["n", "sum_val"]]]
    subsets = [
        list(c)
        for r in range(len(keys) - 1, -1, -1)
        for c in combinations(keys, r)
    ]
    for sub in subsets:
        if sub:
            g = finest.groupby(sub, as_index=False, dropna=False)[
                ["n", "sum_val"]
            ].sum()
        else:
            g = pd.DataFrame({"n": [finest["n"].sum()],
                              "sum_val": [finest["sum_val"].sum()]})
        for k in keys:
            if k not in sub:
                g[k] = None
        levels.append(g[keys + ["n", "sum_val"]])
    out = pd.concat(levels, ignore_index=True)
    out["n"] = out["n"].astype("int64")
    return out


def grouped_mode(ds: rd.Dataset, group: str, val: str,
                 n_buckets: int | None = None) -> pd.DataFrame:
    """Deterministic per-group MODE: the most frequent ``val`` per
    ``group``, ties broken by the smallest value (SQL-expressible as
    ROW_NUMBER over (cnt DESC, val)).  Per-batch (group, val) count
    combiner → one exchange bucketed by GROUP hash (all of a group's
    value counts co-locate) → per-bucket merge + argmax.  NULL is a
    value candidate exactly as in the SQL oracle's GROUP BY: it loses
    every tie (NULLS LAST — pandas' na_position='last' matches DuckDB's
    ASC default) but wins when strictly most frequent.

    Returns (group, mode_val, n) sorted by group."""
    gtype, vtype = _pinned_types(ds, group, val)

    def part(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({group: t[group].to_pandas(),
                           "__v": t[val].to_pandas()})
        c = (df.groupby([group, "__v"], sort=False, dropna=False)
             .size().rename("cnt").reset_index())
        # pin the arrow types from the DATASET's unified schema
        # (all-NULL partition would infer 'null' and break the
        # groupby's block schema)
        return pa.table(
            {
                group: pa.Array.from_pandas(c[group], type=gtype),
                "__v": pa.Array.from_pandas(c["__v"], type=vtype),
                "cnt": pa.array(c["cnt"].to_numpy(np.int64)),
            }
        )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: NULL value candidates must survive the merge
        # (pandas' default silently drops NaN keys — the r03 lesson)
        m = (g.groupby([group, "__v"], sort=False, dropna=False)["cnt"].sum()
             .reset_index())
        # argmax with min-value tie-break: sort (cnt desc, val asc),
        # keep each group's first row — one C-level pass
        m = m.sort_values(["cnt", "__v"], ascending=[False, True],
                          kind="mergesort")
        m = m.drop_duplicates(subset=[group], keep="first")
        return pd.DataFrame({group: m[group],
                             "mode_val": m["__v"],
                             "n": m["cnt"].astype(np.int64)})

    out = exchange(ds.map_batches(part, batch_format="pyarrow"), group, pick,
                   n_buckets=n_buckets).to_pandas()
    if not len(out):
        return pd.DataFrame({group: pd.Series(dtype=object),
                             "mode_val": pd.Series(dtype=object),
                             "n": pd.Series(dtype=np.int64)})
    return out.sort_values(group).reset_index(drop=True)


def histogram_fixed(ds: rd.Dataset, col: str, lo: float, hi: float,
                    n_bins: int) -> pd.DataFrame:
    """Fixed-width histogram over [lo, hi): per-batch ``np.bincount``
    partials (n_bins ints per block — the cheapest possible combiner),
    summed on the driver.  Out-of-range values clamp into the edge
    bins, matching the oracle's LEAST/GREATEST clamp; the bin index is
    the same IEEE double FLOOR((v−lo)/w) both sides compute.

    Returns (bin, lo_edge, n) — one row per bin, empty bins included."""
    if n_bins < 1 or not hi > lo:
        raise ValueError("need n_bins >= 1 and hi > lo")
    w = (hi - lo) / n_bins

    def part(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        b = np.clip(np.floor((v - lo) / w).astype(np.int64), 0, n_bins - 1)
        return pa.table({"counts": pa.array([np.bincount(b, minlength=n_bins)
                                             .astype(np.int64).tobytes()],
                                            type=pa.binary())})

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    total = np.zeros(n_bins, dtype=np.int64)
    for blob in parts["counts"]:
        total += np.frombuffer(blob, dtype=np.int64)
    return pd.DataFrame(
        {
            "bin": np.arange(n_bins, dtype=np.int64),
            "lo_edge": np.round(lo + w * np.arange(n_bins), 6),
            "n": total,
        }
    )


# --------------------------------------------------------------------------
# Count-Min sketch: mergeable approximate frequencies
# --------------------------------------------------------------------------
def countmin_build(ds: rd.Dataset, col: str, *, width: int = 2048,
                   depth: int = 4) -> np.ndarray:
    """Build a Count-Min sketch of ``ds[col]`` (Cormode & Muthukrishnan
    2005 — public): a depth×width int64 counter matrix where each value
    increments one counter per row (row-seeded splitmix64 hashes).  The
    sketch is LINEAR — element-wise SUM merges partials exactly, so the
    result is partition-invariant bit-for-bit.  Per-batch partials are
    one depth×width blob (~64 KB at defaults), tree-merged like the HLL
    registers; point queries take the MIN over rows: estimates are
    NEVER under the true count and overshoot by ≤ e·N/width with
    probability 1−e^−depth per query.  NULLs don't count (SQL
    aggregate semantics)."""
    from ..functions.hashing import hash_strings, mix64

    if width < 2 or depth < 1:
        raise ValueError("need width >= 2 and depth >= 1")

    def blob(t: pa.Table) -> pa.Table:
        s = t[col].to_pandas()
        s = s[s.notna()]
        m = np.zeros((depth, width), dtype=np.int64)
        if len(s):
            h = hash_strings(s.astype(str).to_numpy(dtype=object))
            for r in range(depth):
                cell = (mix64(h, 1000 + r) % np.uint64(width)).astype(np.int64)
                m[r] += np.bincount(cell, minlength=width)
        return pa.table({"m": pa.array([m.tobytes()], type=pa.binary())})

    def merge(t: pa.Table) -> pa.Table:
        tot = np.zeros(depth * width, dtype=np.int64)
        for b in t["m"].to_pylist():
            tot += np.frombuffer(b, dtype=np.int64)
        return pa.table({"m": pa.array([tot.tobytes()], type=pa.binary())})

    blobs = (
        ds.map_batches(blob, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    tot = np.zeros(depth * width, dtype=np.int64)
    for b in blobs["m"]:
        tot += np.frombuffer(b, dtype=np.int64)
    return tot.reshape(depth, width)


def countmin_query(sketch: np.ndarray, items: list) -> pd.DataFrame:
    """Point-query the sketch: → (value, est_count), est = min over
    rows.  Items are string-rendered exactly as at build time."""
    from ..functions.hashing import hash_strings, mix64

    depth, width = sketch.shape
    vals = np.asarray([str(x) for x in items], dtype=object)
    if not len(vals):
        return pd.DataFrame({"value": pd.Series(dtype=object),
                             "est_count": pd.Series(dtype=np.int64)})
    h = hash_strings(vals)
    est = np.full(len(vals), np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(depth):
        cell = (mix64(h, 1000 + r) % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, sketch[r, cell])
    return pd.DataFrame({"value": list(items), "est_count": est})


# --------------------------------------------------------------------------
# unpivot (wide→long, the inverse reshape of pivot_counts)
# --------------------------------------------------------------------------
def unpivot(ds: rd.Dataset, id_cols: list[str],
            value_cols: list[str], *, name_col: str = "measure",
            value_col: str = "value") -> rd.Dataset:
    """Wide→long reshape — SQL ``UNPIVOT`` / ``UNION ALL`` of one
    SELECT per measure column — as a pure MAP stage: each batch emits
    its rows repeated once per measure with (name, value) columns
    appended.  No shuffle, no state; k measure columns multiply rows
    ×k but each output block stays a cheap arrow concat of column
    takes.  Measures are cast to float64 (the SQL UNION's common
    supertype for mixed numeric measures); NULL measures keep their
    row, with a NULL value (SQL UNPIVOT ``INCLUDE NULLS`` /
    UNION-ALL semantics — dropping them would be EXCLUDE NULLS).
    """
    if not value_cols:
        raise ValueError("need at least one value column")

    def widen(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {ic: t[ic] for ic in id_cols}
            cols[name_col] = pa.array([c] * len(t), type=pa.string())
            cols[value_col] = pc.cast(t[c], pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(widen, batch_format="pyarrow")


# --------------------------------------------------------------------------
# dense time-series gap fill (generate_series LEFT JOIN counts)
# --------------------------------------------------------------------------
def time_bucket_fill(ds: rd.Dataset, ts_col: str, bucket_us: int,
                     max_buckets: int = 5_000_000) -> pd.DataFrame:
    """Dense per-bucket event counts with GAP FILL: every bucket between
    the global min and max gets a row, empty buckets emit 0 — the shape
    monitoring/rate dashboards need (the reference's metrics reader
    plots per-interval fetch counts the same way; q42's lineage is the
    crawl-side analog).

    Per-batch combiner: one (bucket, n) partial per distinct bucket in
    the block — KILOBYTES per block regardless of block size, because a
    time bucket is coarse by construction.  Partials merge on the
    driver; the dense range is O(time-span / bucket), bounded by
    calendar time, not data size (a decade of hours is 87k rows), so
    the driver-side fill is scale-safe at 100 TB.  NULL timestamps
    don't count (SQL COUNT semantics).

    Returns (bucket:int64 = ts_us // bucket_us, n:int64), bucket-sorted
    and gap-free.  Empty input → empty frame (no range to fill).
    Bucket ids use FLOOR division (calendar-aligned buckets for
    pre-1970 timestamps too — numpy ``//``; the oracle mirrors it with
    explicit integer arithmetic because SQL ``//`` truncates toward
    zero).  ``max_buckets`` bounds the dense driver frame: ONE corrupt
    far-future timestamp would otherwise stretch min..max to a
    multi-GB range — fail loud instead of OOMing the driver.
    """
    if bucket_us < 1:
        raise ValueError("bucket_us must be >= 1")

    def part(t: pa.Table) -> pa.Table:
        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        v = ts.to_numpy(zero_copy_only=False)
        v = v[~pd.isna(v)].astype(np.int64)
        # numpy // FLOORS (negative epochs bucket calendar-aligned);
        # the oracle replicates floor with explicit int arithmetic
        b, n = np.unique(v // bucket_us, return_counts=True)
        return pa.table({"bucket": pa.array(b, type=pa.int64()),
                         "n": pa.array(n.astype(np.int64))})

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame({"bucket": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64)})
    got = parts.groupby("bucket")["n"].sum()
    span = int(got.index.max()) - int(got.index.min()) + 1
    if span > max_buckets:
        raise ValueError(
            f"dense range of {span} buckets exceeds max_buckets="
            f"{max_buckets} — likely a corrupt timestamp outlier; "
            "filter the input or raise the limit"
        )
    dense = np.arange(got.index.min(), got.index.max() + 1, dtype=np.int64)
    return pd.DataFrame(
        {
            "bucket": dense,
            "n": got.reindex(dense, fill_value=0).to_numpy(np.int64),
        }
    )


# --------------------------------------------------------------------------
# grouped weighted mean via exact integer partials
# --------------------------------------------------------------------------
def grouped_weighted_stats(ds: rd.Dataset, group: str, val: str,
                           weight: str) -> pd.DataFrame:
    """Weighted mean per group — ``SUM(val*w)/SUM(w) GROUP BY group`` —
    with EXACT integer partials: value→cents and weight→int64 in the
    map stage, so ``sum_wx_cents``/``sum_w`` accumulate in int64 (no
    float association drift; the q65/q86 lesson), and the final mean is
    ONE IEEE double division of two exact integers — bit-equal to the
    oracle's explicit ``CAST(.. AS DOUBLE)/CAST(.. AS DOUBLE)`` with no
    ROUND() tolerance needed.  Rows with a NULL value or weight are
    skipped (SQL aggregate semantics).

    Per-batch combiner: one (group, sum_wx, sum_w, n) row per distinct
    group in the block; partials merge on the driver (same #groups ×
    #blocks contract as grouped_count_distinct's final merge).
    Returns (group, sum_wx_cents, sum_w, n, wavg) group-sorted; groups
    whose weights sum to 0 emit NaN (SQL NULL division).
    """

    def part(t: pa.Table) -> pa.Table:
        g = t[group].to_pandas()
        v = t[val].to_numpy(zero_copy_only=False).astype(np.float64)
        w = t[weight].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(v) | np.isnan(w))
        # cast each factor to int64 BEFORE multiplying: a float64
        # product loses exactness past 2^53, silently breaking the
        # exact-integer contract on huge value×weight combinations
        cents = (np.sign(v[ok]) * np.floor(np.abs(v[ok]) * 100.0 + 0.5)
                 ).astype(np.int64)  # half-away (DuckDB ROUND parity)
        wi = (np.sign(w[ok]) * np.floor(np.abs(w[ok]) + 0.5)).astype(np.int64)
        df = pd.DataFrame(
            {
                group: g[ok],
                "__wx": cents * wi,
                "__w": wi,
            }
        )
        p = df.groupby(group, sort=False, dropna=False).agg(
            sum_wx_cents=("__wx", "sum"), sum_w=("__w", "sum"),
            n=("__w", "size"),
        ).reset_index()
        for c in ("sum_wx_cents", "sum_w", "n"):
            p[c] = p[c].astype(np.int64)
        return pa.Table.from_pandas(p, preserve_index=False)

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame({group: pd.Series(dtype=object),
                             **{c: pd.Series(dtype=np.int64)
                                for c in ("sum_wx_cents", "sum_w", "n")},
                             "wavg": pd.Series(dtype=np.float64)})
    out = (
        parts.groupby(group, sort=False, dropna=False)[
            ["sum_wx_cents", "sum_w", "n"]]
        .sum()
        .astype(np.int64)
        .reset_index()
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        out["wavg"] = np.where(
            out["sum_w"] != 0,
            out["sum_wx_cents"].to_numpy(np.float64)
            / out["sum_w"].to_numpy(np.float64),
            np.nan,
        )
    return out.sort_values(group).reset_index(drop=True)


def mad_exact(ds: rd.Dataset, col: str, *, scale: int = 100) -> pd.DataFrame:
    """Median absolute deviation — ``median(|x − median(x)|)`` with
    CONTINUOUS (interpolated) medians — as a composition of two exact
    order-statistic passes, all integer until the final mirrored
    divisions: the median in doubled fixed-point is ``lo + hi`` of the
    two middle order stats (2·(lo + (hi−lo)/2) — EXACT even when the
    interpolation lands on .5), the deviations ``|2·x_sc − med2|`` are
    again exact ints, and their doubled median is ``lo₂ + hi₂``.  The
    float outputs are each ONE IEEE division of an exact int —
    bit-equal to the oracle's explicit ROW_NUMBER order-stat SQL (the
    q92 lesson, applied twice).  NULLs ignored; empty input → NaN row.

    Returns one row: (n, med_sc2, mad_sc4, median, mad) where
    ``med_sc2 = 2·scale·median`` and ``mad_sc4 = 4·scale·mad``; an
    empty/all-null column mirrors the oracle's scalar-subquery NULLs
    (n=0, every other column NaN)."""
    def median2(d: rd.Dataset, c: str) -> tuple[int, int]:
        """→ (n, lo + hi) of the two middle order stats of integral d[c]."""
        [(_, n, st)] = _order_stats(d, c, lambda n: [(n - 1) // 2, n // 2],
                                    scale=1)
        return n, (int(st[(n - 1) // 2]) + int(st[n // 2]) if n else 0)

    def to_cents(t: pa.Table) -> pa.Table:
        # half-AWAY-from-zero (DuckDB ROUND parity; np.round's half-to-
        # even would diverge on exact .5 cases), then integral floats —
        # the engine's np.round is exact on integers
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        c = np.sign(v) * np.floor(np.abs(v) * scale + 0.5)
        return pa.table({"c": pa.array(c)})

    cds = ds.map_batches(to_cents, batch_format="pyarrow")
    n, med2 = median2(cds, "c")
    cols = ["n", "med_sc2", "mad_sc4", "median", "mad"]
    if n == 0:
        return pd.DataFrame(
            [[0, np.nan, np.nan, np.nan, np.nan]], columns=cols
        ).astype({"n": np.int64})

    def deviations(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        cents = (np.sign(v) * np.floor(np.abs(v) * scale + 0.5)
                 ).astype(np.int64)
        return pa.table({"d2": pa.array(np.abs(2 * cents - med2)
                                        .astype(np.float64))})

    dds = ds.map_batches(deviations, batch_format="pyarrow")
    _, mad4 = median2(dds, "d2")
    return pd.DataFrame(
        [[n, med2, mad4,
          float(med2) / (2.0 * scale), float(mad4) / (4.0 * scale)]],
        columns=cols).astype({"n": np.int64, "med_sc2": np.int64,
                              "mad_sc4": np.int64})


def chi2_contingency(ds: rd.Dataset, row: str, val: str, *,
                     bucket_width: float = 100.0) -> pd.DataFrame:
    """Contingency table + per-cell χ² contributions for ``row`` ×
    ``floor(val / bucket_width)``: observed counts, expected counts,
    and ``(obs·n − rowtot·coltot)² / (n·rowtot·coltot)`` — the exact-
    integer rearrangement of ``(obs−exp)²/exp`` (multiply through by
    n², so every intermediate is an EXACT integer and the cell value
    is one IEEE division of two correctly-rounded conversions; the
    q105 discipline).  NULL values are excluded on both sides.

    Per-batch (row, bucket) count partials merge on the driver (cells
    × blocks rows — tiny); the marginals and χ² derive from the merged
    exact counts.  Returns (row, bucket, obs, expected, chi2_cell)
    sorted."""

    def part(t: pa.Table) -> pa.Table:
        v = t[val].to_numpy(zero_copy_only=False).astype(np.float64)
        r = t[row].to_pandas()
        ok = ~np.isnan(v)
        b = np.floor(v[ok] / bucket_width).astype(np.int64)
        df = pd.DataFrame({row: r[ok].to_numpy(), "__b": b})
        p = (df.groupby([row, "__b"], sort=False, dropna=False)
             .size().rename("obs").reset_index())
        return pa.Table.from_pandas(p.astype({"obs": np.int64}),
                                    preserve_index=False)

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame({row: pd.Series(dtype=object),
                             "bucket": pd.Series(dtype=np.int64),
                             "obs": pd.Series(dtype=np.int64),
                             "expected": pd.Series(dtype=np.float64),
                             "chi2_cell": pd.Series(dtype=np.float64)})
    cells = (parts.groupby([row, "__b"], sort=True, dropna=False)["obs"]
             .sum().reset_index())
    # fold NaN row keys to None: distinct NaN objects never dict-merge
    # (the ratio_to_report lesson) — one NULL row-category like SQL
    rowt: dict = {}
    for k, v in cells.groupby(row, dropna=False)["obs"].sum().items():
        rowt[None if pd.isna(k) else k] = int(v)
    colt = {k: int(v) for k, v in
            cells.groupby("__b")["obs"].sum().items()}
    n = int(cells["obs"].sum())
    out_rows = []
    for _, rec in cells.iterrows():
        obs = int(rec["obs"])
        rkey = None if pd.isna(rec[row]) else rec[row]
        rt, ct = rowt[rkey], colt[rec["__b"]]
        num = obs * n - rt * ct
        expected = float(rt * ct) / float(n)
        chi2 = float(num * num) / float(n * rt * ct)
        out_rows.append((rec[row], int(rec["__b"]), obs, expected, chi2))
    return pd.DataFrame(out_rows,
                        columns=[row, "bucket", "obs", "expected",
                                 "chi2_cell"]).astype(
        {"bucket": np.int64, "obs": np.int64})


def ratio_to_report(ds: rd.Dataset, group: str, val: str,
                    id_cols: list[str], *,
                    val_scale: int = 1) -> rd.Dataset:
    """RATIO_TO_REPORT — ``val / SUM(val) OVER (PARTITION BY group)``
    per row — as two streaming passes and ZERO shuffle: pass 1 is a
    per-batch (group → Σval) int64 combiner whose partials merge into
    Python big-ints on the driver (#groups × #blocks rows, exact);
    the totals broadcast once via ``ray.put`` and pass 2 divides each
    row vectorized.  Output rows stream — the Dataset is never
    materialized.

    Exactness contract (the q105 discipline): ``val`` fixed-point
    scales to int64, the group total is an exact integer, and the share
    is ONE IEEE division of two correctly-rounded conversions — bit-
    equal to the oracle's ``CAST(.. AS DOUBLE)/CAST(SUM(..) OVER ..
    AS BIGINT → DOUBLE)``, partition-invariant.  NULL ``val`` rows fail
    loud (cents-window family convention — the synthetic tables have
    none); NULL group keys form one partition like SQL window
    semantics.  Returns (id_cols…, group, val_sc, group_total, share).
    """
    import ray

    from ..functions.broadcast import get_broadcast

    gtype, _ = _pinned_types(ds, group, val)

    def to_int(t: pa.Table) -> np.ndarray:
        v = t[val].to_numpy(zero_copy_only=False).astype(np.float64)
        if np.isnan(v).any():
            raise ValueError(f"NULL {val} in ratio_to_report input")
        return (np.sign(v) * np.floor(np.abs(v) * val_scale + 0.5)
                ).astype(np.int64)

    def part(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({group: t[group].to_pandas(), "__v": to_int(t)})
        p = df.groupby(group, sort=False, dropna=False)["__v"].sum()
        return pa.table({group: pa.Array.from_pandas(
                             p.index.to_series().reset_index(drop=True),
                             type=gtype),
                         "__sum": pa.array(p.to_numpy(np.int64))})

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    totals: dict = {}
    for k, s in zip(parts[group], parts["__sum"]):
        # canonicalize null keys: a nullable NUMERIC group renders NaN,
        # and distinct NaN objects never dict-merge — fold them (and
        # None) into the single key None so SQL's one-NULL-partition
        # semantics hold across blocks
        k = None if pd.isna(k) else k
        totals[k] = totals.get(k, 0) + int(s)
    # pre-round once: float(exact int) is the correctly-rounded value
    # the SQL CAST produces; ship floats so pass 2 is a pure divide
    ftotals = {k: (int(v), float(v)) for k, v in totals.items()}
    ref = ray.put(ftotals)

    def share(t: pa.Table) -> pa.Table:
        ft = get_broadcast(ref)
        g = t[group].to_pandas()
        x = to_int(t)
        pairs = g.map(ft).to_numpy(dtype=object)
        if None in ft:
            # Series.map skips NaN elements — patch them in (an object
            # fill array sidesteps numpy's tuple-broadcast pitfall)
            na = g.isna().to_numpy()
            if na.any():
                fill = np.empty(int(na.sum()), dtype=object)
                fill[:] = [ft[None]] * int(na.sum())
                pairs[na] = fill
        tot = np.fromiter((p[0] for p in pairs), np.int64, len(pairs))
        ftot = np.fromiter((p[1] for p in pairs), np.float64, len(pairs))
        return pa.table(
            {
                **{c: t[c] for c in id_cols},
                group: t[group].cast(gtype),  # an all-null block reads 'null'
                "val_sc": pa.array(x),
                "group_total": pa.array(tot),
                "share": pa.array(x.astype(np.float64) / ftot),
            }
        )

    return ds.map_batches(share, batch_format="pyarrow")


def regression_grouped(ds: rd.Dataset, group: str, x: str, y: str, *,
                       x_scale: int = 1, y_scale: int = 100,
                       chunk: int = 32768) -> pd.DataFrame:
    """Per-group simple linear regression (slope, intercept, r²) with
    EXACT integer moment partials — the q92 lesson taken all the way:
    x and y are fixed-point-scaled to int64 in the map stage, the five
    moment sums (Σx, Σy, Σxy, Σx², Σy²) accumulate EXACTLY (per-chunk
    int64 numpy sums, chunk sized adaptively so no chunk can overflow;
    chunks merge into Python big-ints), and each block emits ONE row
    per group with the wide sums carried as Arrow decimal128(38,0) —
    the HUGEINT analog, so partials stay exact across the merge.  The
    final statistics are then a FIXED sequence of IEEE ops on exact
    integers:

        num  = n·Σxy − Σx·Σy        (exact int)
        denx = n·Σx² − Σx²̂          (exact int)
        slope     = float(num) / float(denx)
        intercept = (float(Σy) − slope·float(Σx)) / float(n)
        r²        = (float(num)/float(denx)) · (float(num)/float(deny))

    mirrored verbatim by explicit HUGEINT arithmetic in the SQL oracle
    (with a hi·2³²+lo split-cast for the >2⁵³ ints, which makes both
    casts correctly-rounded) — bit-equal output, no ROUND() tolerance.
    Exactness also makes the result PARTITION-INVARIANT: the same
    input yields identical bits at any num_cpus / block layout.

    Rows with NULL x or y are skipped (SQL aggregate semantics); a
    group with zero x-variance (or n < 2) emits NaN slope/intercept/r²
    like SQL's NULL.  Returns (group, n, slope, intercept, r2)
    group-sorted.  Driver merge payload: one row per block×group, same
    contract as corr_stats_grouped."""
    dec = pa.decimal128(38, 0)
    gtype, _ = _pinned_types(ds, group, x)

    def part(t: pa.Table) -> pa.Table:
        g = t[group].to_pandas()
        xv = t[x].to_numpy(zero_copy_only=False).astype(np.float64)
        yv = t[y].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(xv) | np.isnan(yv))
        # half-away-from-zero rounding (DuckDB ROUND parity), each
        # factor cast to int64 BEFORE any product
        xi = (np.sign(xv[ok]) * np.floor(np.abs(xv[ok]) * x_scale + 0.5)
              ).astype(np.int64)
        yi = (np.sign(yv[ok]) * np.floor(np.abs(yv[ok]) * y_scale + 0.5)
              ).astype(np.int64)
        gk = g[ok].reset_index(drop=True)
        acc: dict = {}
        if len(xi):
            # adaptive chunk bound: the largest per-row term times the
            # chunk length must stay under 2^62, so per-chunk int64
            # sums can NEVER wrap regardless of the data's magnitude.
            # When even a SINGLE row's product can reach 2^62, int64 is
            # unusable at any chunk size — fall back to object arrays
            # (Python big-ints, exact, slow path for extreme scales)
            mx = int(np.max(np.abs(xi))) or 1
            my = int(np.max(np.abs(yi))) or 1
            worst = max(mx * mx, my * my, mx * my)
            use_obj = worst >= (1 << 62)
            safe = chunk if use_obj else max(
                1, min(chunk, (1 << 62) // worst))
            for lo in range(0, len(xi), safe):
                hi = lo + safe
                cx, cy = xi[lo:hi], yi[lo:hi]
                if use_obj:
                    cx, cy = cx.astype(object), cy.astype(object)
                f = pd.DataFrame({group: gk.iloc[lo:hi].to_numpy(),
                                  "sx": cx, "sy": cy, "sxy": cx * cy,
                                  "sxx": cx * cx, "syy": cy * cy})
                p = f.groupby(group, sort=False, dropna=False).agg(
                    n=("sx", "size"), sx=("sx", "sum"), sy=("sy", "sum"),
                    sxy=("sxy", "sum"), sxx=("sxx", "sum"),
                    syy=("syy", "sum"))
                for key, row in p.iterrows():
                    a = acc.setdefault(key, [0, 0, 0, 0, 0, 0])
                    for i, c in enumerate(("n", "sx", "sy", "sxy",
                                           "sxx", "syy")):
                        a[i] += int(row[c])
        keys = list(acc)
        # decimal128(38,0) carries the partials exactly up to 10^38 —
        # past that (object-fallback inputs ~1e19 scaled), fail loud
        # rather than emit a wrong sum
        lim = 10 ** 38
        for k in keys:
            if any(abs(s) >= lim for s in acc[k][1:]):
                raise ValueError(
                    "regression_grouped partial sums exceed "
                    "decimal128(38,0) capacity — reduce x_scale/y_scale")
        return pa.table(
            {
                group: pa.Array.from_pandas(pd.Series(keys, dtype=object),
                                            type=gtype),
                "n": pa.array([acc[k][0] for k in keys], type=pa.int64()),
                "sx": pa.array([acc[k][1] for k in keys], type=dec),
                "sy": pa.array([acc[k][2] for k in keys], type=dec),
                "sxy": pa.array([acc[k][3] for k in keys], type=dec),
                "sxx": pa.array([acc[k][4] for k in keys], type=dec),
                "syy": pa.array([acc[k][5] for k in keys], type=dec),
            }
        )

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    cols = ["n", "slope", "intercept", "r2"]
    if not len(parts):
        return pd.DataFrame({group: pd.Series(dtype=object),
                             "n": pd.Series(dtype=np.int64),
                             **{c: pd.Series(dtype=np.float64)
                                for c in cols[1:]}})
    rows = []
    for key, grp in parts.groupby(group, sort=True, dropna=False):
        n = int(grp["n"].sum())
        sx, sy, sxy, sxx, syy = (sum(int(v) for v in grp[c])
                                 for c in ("sx", "sy", "sxy", "sxx", "syy"))
        num = n * sxy - sx * sy
        denx = n * sxx - sx * sx
        deny = n * syy - sy * sy
        if denx > 0:
            slope = float(num) / float(denx)
            intercept = (float(sy) - slope * float(sx)) / float(n)
            r2 = ((float(num) / float(denx)) * (float(num) / float(deny))
                  if deny > 0 else np.nan)
        else:
            slope = intercept = r2 = np.nan
        rows.append((key, n, slope, intercept, r2))
    return pd.DataFrame(rows, columns=[group, *cols]).astype(
        {"n": np.int64}).reset_index(drop=True)
