"""Time-travel joins Ray Data lacks natively: as-of join and windowed
range-join aggregation.

Both follow the same distributed recipe (SURVEY.md §2.7 "custom
operators" guidance):

1. hash-bucket BOTH inputs on the equality key (``by``) into
   ``n_buckets`` buckets — ONE all-to-all exchange, the minimum any
   equi-join needs;
2. tag each side, unify schemas (missing columns as nulls) and union;
3. :func:`exchange` — ``groupby("__bucket").map_groups`` over the
   :func:`_bucket_of` key hash.  Each group is a *bucket* of many keys,
   not a single key, so the per-group pandas overhead (50-100 µs) is
   amortized over ~|data|/n_buckets rows and the kernel inside is a
   fully vectorized ``pd.merge_asof(..., by=key)``.

Every hash-bucket groupby of the query stages (joins, windows, corpus,
dedup, sketches, graph, the bucketed queries) goes through
:func:`exchange`, so one function decides how a key maps to a bucket.

Partitioning assumptions (documented per the operator contract):

- ``n_buckets`` bounds per-task memory: a bucket must fit in a worker's
  heap.  Size it ~ total_bytes / 256 MB on real data (callers pass it);
  the default scales with cluster CPUs for bench-sized inputs.
- A pathologically hot ``by`` key lands in one bucket (same limit as any
  hash join); per-key work is linear (sort-merge), so a hot key degrades
  to single-task linear time, not quadratic.
- The windowed aggregate uses per-key *cumulative* counts/sums plus two
  as-of probes (count in [t+lo, t+hi) = cum(<t+hi) − cum(<t+lo)), so the
  window width never multiplies the work.

Reference parity: the reference engine has no joins beyond key lookup
(SURVEY.md §2.7 J1-J5); these extend the engine for the training-data
pipeline axis (event-history features), mirroring DuckDB ``ASOF JOIN``
semantics (oracle-checked in queries q44/q45).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import mix64


def _arrow_fields(ds: rd.Dataset) -> list[pa.Field]:
    """Dataset schema as pyarrow fields — Ray's Schema wraps either an
    arrow schema (parquet-backed) or a PandasBlockSchema (from_pandas),
    whose types are numpy dtypes.

    NOTE: ``ds.schema()`` on a transformed dataset triggers a small
    sample execution; callers on a hot path should pass explicit
    ``fields=[pa.field(...)]`` to asof_join / range_join_agg instead.
    """
    s = ds.schema()
    base = s.base_schema
    if isinstance(base, pa.Schema):
        return list(base)
    out = []
    for name, typ in zip(s.names, s.types):
        if not isinstance(typ, pa.DataType):
            try:
                typ = pa.from_numpy_dtype(typ)
            except (pa.ArrowNotImplementedError, TypeError):
                # numpy object dtype (pandas strings / None) has no
                # arrow mapping — same string fallback as sketches'
                # _pinned_types: these columns hold strings here
                typ = pa.string()
        out.append(pa.field(name, typ))
    return out


def _int_cols(fields: list[pa.Field], names: list[str]) -> list[str]:
    """Columns to restore to int64 after the side-split: the union pads
    each side's missing columns with nulls, so pandas widens ints to
    float64 inside the bucket group — slicing one side back out leaves
    the widened dtype unless we re-cast (ints are canonicalized to
    int64, matching the oracle compare)."""
    out = []
    for f in fields:
        if f.name in names and (pa.types.is_integer(f.type) or pa.types.is_boolean(f.type)):
            out.append(f.name)
    return out


def _default_buckets() -> int:
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2 * ncpu, 16)


def _pool() -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized from the cluster: (1, max(4,
    CPUs)) — a fixed (1, 4) cap starves a 32-CPU box."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return (1, max(4, ncpu))


def _first_mask(key: np.ndarray) -> np.ndarray:
    """Row-is-first-of-its-key mask over a SORTED key array, treating
    null keys (None/NaN) as ONE key — SQL PARTITION BY semantics; a
    plain ``key[1:] != key[:-1]`` splits every NaN into its own
    singleton partition because NaN != NaN."""
    n = len(key)
    first = np.empty(n, dtype=bool)
    if n == 0:
        return first
    first[0] = True
    isna = pd.isna(key)
    same = (key[1:] == key[:-1]) | (isna[1:] & isna[:-1])
    first[1:] = ~same
    return first


def _hash64(x: np.ndarray) -> np.ndarray:
    """Deterministic vectorized uint64 key hash: ``mix64`` for int keys,
    pandas hash_array for everything else."""
    return mix64(x) if np.issubdtype(x.dtype, np.integer) else pd.util.hash_array(x)


def _bucket_of(key: np.ndarray | list[np.ndarray], n_buckets: int) -> np.ndarray:
    """Key→bucket.  A list of arrays is a multi-column key: its
    per-column hashes chain through ``mix64`` (order-sensitive, so
    (a, b) and (b, a) bucket apart)."""
    h = None
    for x in key if isinstance(key, list) else [key]:
        h = _hash64(x) if h is None else mix64(h) ^ _hash64(x)
    return (h % np.uint64(n_buckets)).astype(np.int64)


# routing-only stand-in for null int keys; a real key colliding with it
# merely shares a bucket (harmless — partitioning inside the bucket uses
# the data column, which keeps its true nulls)
_NULL_KEY = -0x61C8864680B583EB


def _key_for_hash(col) -> np.ndarray:
    """Arrow key column → numpy with a dtype that does NOT depend on the
    batch's null count — the hash-input contract every bucket/Bloom
    computation needs.  A nullable int column converts to float64 (NaN)
    only in batches that happen to contain a null, so the same key would
    hash down the float path in one batch and the int path in another,
    splitting one key across buckets (or Bloom-dropping a matching row —
    a false NEGATIVE).  Dispatch on the ARROW type, which is stable
    across batches: integer types cast to int64 with nulls replaced by
    the ``_NULL_KEY`` sentinel (a uint64 value ≥ 2^63 keeps its bits as
    a negative int64, so it hashes like the uint64 it is); everything
    else takes the plain numpy conversion (its dtype is already
    batch-invariant)."""
    import pyarrow.compute as pc

    if pa.types.is_integer(col.type):
        filled = pc.fill_null(pc.cast(col, pa.int64(), safe=False), _NULL_KEY)
        if isinstance(filled, pa.ChunkedArray):
            filled = filled.combine_chunks()
        return filled.to_numpy(zero_copy_only=False)
    return col.to_numpy(zero_copy_only=False)


def exchange(
    ds: rd.Dataset | list[rd.Dataset],
    keys: str | list[str],
    fn,
    *,
    n_buckets: int | None = None,
    batch_format: str = "pandas",
) -> rd.Dataset:
    """The one hash-bucket exchange: append ``__bucket`` =
    :func:`_bucket_of` of the :func:`_key_for_hash` key columns ``keys``
    and run ``fn`` once per bucket
    (``groupby("__bucket").map_groups``).  All rows of a key land in
    one bucket, so a per-bucket kernel over many keys is globally exact
    for that key.  A list of datasets is bucketed side by side and
    unioned (the tagged inputs of a join).

    ``fn`` sees the bucket frame WITH its ``__bucket`` column (dropping
    it would copy every bucket); it selects what it emits.  The bucket
    tag is a pyarrow ``map_batches`` that fuses into the caller's
    upstream map."""
    n_buckets = n_buckets or _default_buckets()
    cols = [keys] if isinstance(keys, str) else list(keys)

    def tag(t: pa.Table) -> pa.Table:
        b = _bucket_of([_key_for_hash(t[c]) for c in cols], n_buckets)
        return t.append_column("__bucket", pa.array(b))

    sides = [d.map_batches(tag, batch_format="pyarrow")
             for d in (ds if isinstance(ds, list) else [ds])]
    u = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    return u.groupby("__bucket").map_groups(fn, batch_format=batch_format)


def _tagged_sides(
    left: rd.Dataset,
    right: rd.Dataset,
    lschema: list[pa.Field],
    rschema: list[pa.Field],
) -> list[rd.Dataset]:
    """Side-tag both inputs under one schema so a single
    :func:`exchange` co-partitions the join."""
    lcols = [f.name for f in lschema]
    rcols = [f.name for f in rschema]
    all_fields: list[pa.Field] = []
    seen = set()
    for f in lschema + rschema:
        if f.name not in seen:
            seen.add(f.name)
            all_fields.append(pa.field(f.name, f.type))
    unified = pa.schema(all_fields)

    def make_tagger(side: int, have: list[str]):
        def tag(t: pa.Table) -> pa.Table:
            n = len(t)
            cols = {}
            for f in unified:
                if f.name in have:
                    cols[f.name] = t[f.name].cast(f.type)
                else:
                    cols[f.name] = pa.nulls(n, type=f.type)
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            return pa.table(cols)

        return tag

    return [left.map_batches(make_tagger(0, lcols), batch_format="pyarrow"),
            right.map_batches(make_tagger(1, rcols), batch_format="pyarrow")]


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    by: str,
    right_cols: list[str],
    suffix: str = "_r",
    direction: str = "backward",
    allow_exact_matches: bool = True,
    fill_value: dict[str, int | float] | None = None,
    n_buckets: int | None = None,
    left_fields: list[pa.Field] | None = None,
    right_fields: list[pa.Field] | None = None,
) -> rd.Dataset:
    """For every left row, attach the closest right row of the same
    ``by`` key: ``direction="backward"`` (default) takes the most recent
    right row with ``right.on <= left.on`` (DuckDB ``ASOF LEFT JOIN``
    semantics; strict ``<`` when allow_exact_matches=False);
    ``"forward"`` the earliest with ``right.on >= left.on``;
    ``"nearest"`` whichever is closer in ``on``.

    ``right_cols`` are carried from the matched right row (renamed with
    ``suffix`` when they collide with a left column); unmatched left rows
    get nulls.  ``fill_value`` maps OUTPUT column names to a sentinel for
    the unmatched rows — required for integer right columns, otherwise a
    bucket with an unmatched row emits float64 while an all-matched
    bucket emits int64 and the block schemas diverge.  Ties on (by, on)
    are broken by right input order within the bucket — the test corpus
    has no (by, on) duplicates (checked).
    """
    lfields = left_fields or _arrow_fields(left)
    lcols = [f.name for f in lfields]
    rkeep = list(dict.fromkeys([by, on, *right_cols]))
    rename = {c: (c + suffix if c in lcols else c) for c in right_cols if c != by}
    fill = fill_value or {}
    rfields = [f for f in (right_fields or _arrow_fields(right)) if f.name in rkeep]
    sides = _tagged_sides(left, right.select_columns(rkeep), lfields, rfields)

    l_ints = _int_cols(lfields, lcols)
    r_ints = _int_cols(rfields, rkeep)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["__side"] == 0]
        rf = g[g["__side"] == 1]
        lf = lf[lcols].astype({c: np.int64 for c in l_ints}).sort_values(on, kind="mergesort")
        rf = rf[rkeep].astype({c: np.int64 for c in r_ints}).sort_values(on, kind="mergesort")
        merged = pd.merge_asof(
            lf,
            rf.rename(columns=rename),
            on=on,
            by=by,
            direction=direction,
            allow_exact_matches=allow_exact_matches,
            suffixes=("", suffix),
        )
        for col, v in fill.items():
            dt = rf[{v: k for k, v in rename.items()}.get(col, col)].dtype
            merged[col] = merged[col].fillna(v).astype(dt)
        return merged

    return exchange(sides, by, join_bucket, n_buckets=n_buckets)


def range_join_agg(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    by: str,
    lower_us: int,
    upper_us: int,
    value_col: str | None = None,
    value_scale: int = 100,
    n_buckets: int | None = None,
    left_fields: list[pa.Field] | None = None,
    right_fields: list[pa.Field] | None = None,
) -> rd.Dataset:
    """Windowed range-join aggregate: for every left row, the COUNT (and
    optional SUM of ``value_col``) of right rows with the same ``by`` key
    and ``right.on`` in ``[left.on + lower_us, left.on + upper_us)``
    (half-open, microsecond offsets, lower_us < upper_us <= 0 typical
    for a look-back window).

    Implementation: per-key cumulative count/sum over the right side and
    TWO as-of probes — cum(< t+upper) − cum(< t+lower) — so the window
    width never multiplies work.  Sums run in integers (``value_scale``
    fixed-point, default cents) so the cumulative-difference trick stays
    exact; the output ``sum_win`` is scaled back to float.

    Output: all left columns + ``n_win`` (int64) [+ ``sum_win``].
    """
    lfields = left_fields or _arrow_fields(left)
    lcols = [f.name for f in lfields]
    rkeep = [by, on] + ([value_col] if value_col else [])
    rfields = [f for f in (right_fields or _arrow_fields(right)) if f.name in rkeep]
    sides = _tagged_sides(left, right.select_columns(rkeep), lfields, rfields)

    l_ints = _int_cols(lfields, lcols)
    r_ints = _int_cols(rfields, rkeep)

    def agg_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["__side"] == 0][lcols].astype({c: np.int64 for c in l_ints}).copy()
        rf = (
            g[g["__side"] == 1][rkeep]
            .astype({c: np.int64 for c in r_ints})
            .sort_values(on, kind="mergesort")
            .copy()
        )
        rf["__cum_n"] = rf.groupby(by, sort=False).cumcount() + 1
        if value_col:
            cents = np.round(rf[value_col].to_numpy(dtype=np.float64) * value_scale)
            rf["__cents"] = cents.astype(np.int64)
            rf["__cum_s"] = rf.groupby(by, sort=False)["__cents"].cumsum()
        probe_cols = [by, on, "__cum_n"] + (["__cum_s"] if value_col else [])
        probe = rf[probe_cols]

        t = lf[on]
        is_dt = pd.api.types.is_datetime64_any_dtype(t)
        if is_dt:
            # keep the source resolution — timedelta addition promotes
            # us→ns and merge_asof requires exactly-matching key dtypes
            lo = (t + pd.to_timedelta(lower_us, "us")).astype(t.dtype)
            hi = (t + pd.to_timedelta(upper_us, "us")).astype(t.dtype)
        else:
            lo, hi = t + lower_us, t + upper_us

        def cum_at(bound: pd.Series) -> pd.DataFrame:
            q = lf[[by]].copy()
            q["__b"] = bound.to_numpy()
            q["__row"] = np.arange(len(q))
            q = q.sort_values("__b", kind="mergesort")
            m = pd.merge_asof(
                q,
                probe.rename(columns={on: "__b"}),
                on="__b",
                by=by,
                direction="backward",
                allow_exact_matches=False,  # strictly-less-than → half-open window
            ).sort_values("__row", kind="mergesort")
            return m

        m_hi, m_lo = cum_at(hi), cum_at(lo)
        out = lf.reset_index(drop=True)
        n_hi = m_hi["__cum_n"].fillna(0).to_numpy(dtype=np.int64)
        n_lo = m_lo["__cum_n"].fillna(0).to_numpy(dtype=np.int64)
        out["n_win"] = n_hi - n_lo
        if value_col:
            s_hi = m_hi["__cum_s"].fillna(0).to_numpy(dtype=np.int64)
            s_lo = m_lo["__cum_s"].fillna(0).to_numpy(dtype=np.int64)
            out["sum_win"] = (s_hi - s_lo) / float(value_scale)
        return out

    return exchange(sides, by, agg_bucket, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# per-key ordered gaps (LAG-window analog)
# --------------------------------------------------------------------------
def keyed_gaps(
    ds: rd.Dataset,
    *,
    by: str,
    ts_col: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-key inter-event-gap statistics — the ``LAG() OVER (PARTITION
    BY key ORDER BY ts)`` window re-expressed Ray-Data-first: hash-bucket
    rows by key (ONE exchange, same contract as :func:`asof_join` —
    a bucket must fit one worker's heap), then one vectorized pass per
    bucket (sort + diff + groupby-agg, no per-key apply).

    Returns (``by``, n_events, n_gaps, avg_gap_us, min_gap_us,
    max_gap_us); keys with a single event are dropped (no gap exists),
    matching ``WHERE gap IS NOT NULL``.  Timestamps are converted to
    int64 MICROSECONDS in the map stage, so the mean is an exact-int
    sum over an IEEE division — bit-identical to the DuckDB oracle's
    ``date_diff('microsecond', …)`` + SUM/COUNT.  Ties on (key, ts)
    would make gap order ambiguous; the events corpus has none
    (TESTDATA), and the gap MULTISET per key — hence every output
    statistic — is tie-order-invariant anyway.
    """

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                by: t[by],
                "__ts_us": pc.cast(ts, pa.int64()).combine_chunks(),
            }
        )

    def gaps_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([by, "__ts_us"], kind="mergesort")
        key = g[by].to_numpy()
        ts = g["__ts_us"].to_numpy(np.int64)
        gap = np.diff(ts)
        same = key[1:] == key[:-1]  # diffs across a key change are not gaps
        kg, gg = key[1:][same], gap[same]
        if kg.size == 0:
            return pd.DataFrame(
                {
                    by: pd.Series(dtype=g[by].dtype),
                    "n_events": pd.Series(dtype=np.int64),
                    "n_gaps": pd.Series(dtype=np.int64),
                    "avg_gap_us": pd.Series(dtype=np.float64),
                    "min_gap_us": pd.Series(dtype=np.int64),
                    "max_gap_us": pd.Series(dtype=np.int64),
                }
            )
        f = pd.DataFrame({by: kg, "g": gg})
        agg = f.groupby(by, sort=True)["g"].agg(["count", "sum", "min", "max"])
        return pd.DataFrame(
            {
                by: agg.index.to_numpy(),  # key dtype preserved (int or str)
                "n_events": agg["count"].to_numpy(np.int64) + 1,
                "n_gaps": agg["count"].to_numpy(np.int64),
                "avg_gap_us": agg["sum"].to_numpy(np.int64)
                / agg["count"].to_numpy(np.float64),
                "min_gap_us": agg["min"].to_numpy(np.int64),
                "max_gap_us": agg["max"].to_numpy(np.int64),
            }
        )

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        by, gaps_bucket, n_buckets=n_buckets,
    )


def funnel_stages(
    ds: rd.Dataset,
    *,
    user: str,
    ts_col: str,
    type_col: str,
    stages: list[str],
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Ordered event FUNNEL anchored at ``stages[0]``: per user, t1 =
    MIN ts of the first stage's events; each later stage's time is the
    MIN ts of its events AT OR AFTER the previous stage's time
    (``ts >= prev`` — same-microsecond progression counts).  Only users
    who reached stage 1 appear; ``depth`` counts completed stages.

    One hash-bucket exchange on the user key (buckets partition users,
    so each user's funnel computes whole in one bucket), then a
    vectorized per-bucket pass: filter → merge-on-user → mask → groupby
    min per stage, no per-user apply.  Stage times are int64
    microseconds compared exactly, emitted as float64 (µs epochs are
    < 2⁵³ — exact; NaN = stage not reached, mirroring SQL NULL).
    Assumes non-null ``user`` (the events corpus guarantees it; null
    users would pair NaN==NaN in the merge, unlike SQL).

    Returns (user, t1_us … tk_us, depth) streaming."""
    if len(stages) < 2:
        raise ValueError("need at least 2 funnel stages")
    tcols = [f"t{i}_us" for i in range(1, len(stages) + 1)]
    # key dtypes from the input schema: a string-keyed empty bucket must
    # not emit an int64 user column next to other buckets' strings
    kt = {f.name: f.type.to_pandas_dtype() for f in _arrow_fields(ds)}
    _EMPTY = {user: pd.Series(dtype=kt[user]),
              **{c: pd.Series(dtype=np.float64) for c in tcols},
              "depth": pd.Series(dtype=np.int64)}

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                user: t[user],
                type_col: t[type_col],
                "__ts_us": pc.cast(ts, pa.int64()).combine_chunks(),
            }
        )

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(_EMPTY)
        cur = (g[g[type_col] == stages[0]]
               .groupby(user)["__ts_us"].min())
        if not len(cur):
            return pd.DataFrame(_EMPTY)
        users = cur.index.to_numpy()
        times = [cur]
        for s in stages[1:]:
            rows = g.loc[g[type_col] == s, [user, "__ts_us"]]
            prev = (times[-1].rename("__prev").rename_axis("__u")
                    .reset_index())
            m = rows.merge(prev, left_on=user, right_on="__u")
            m = m[m["__ts_us"] >= m["__prev"]]
            times.append(m.groupby(user)["__ts_us"].min())
        out = pd.DataFrame({user: users})
        depth = np.ones(len(users), np.int64)
        for col, tser in zip(tcols, times):
            v = tser.reindex(users).to_numpy(np.float64)
            out[col] = v
            if col != tcols[0]:
                depth += (~np.isnan(v)).astype(np.int64)
        out["depth"] = depth
        return out

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        user, run_bucket, n_buckets=n_buckets,
    )


def cohort_retention(
    ds: rd.Dataset,
    *,
    user: str,
    ts_col: str,
    bucket_us: int = 604_800_000_000,
    n_buckets: int | None = None,
    normalize: bool = False,
) -> pd.DataFrame:
    """Cohort retention matrix: users grouped by the time bucket of
    their FIRST event (``cohort``, default week = epoch-µs // 7 days),
    counted distinct per (cohort, bucket-offset of each later event).

    ONE user-hash exchange does everything: a user's rows co-locate,
    so the per-bucket pass computes the user's first event, the
    (cohort, offset) pair of every event, dedups the (user, cohort,
    offset) triples LOCALLY (globally valid — the triple only involves
    bucket-local users), and emits per-bucket partial counts.
    Different buckets hold disjoint users, so the driver's final merge
    just sums #cells × #buckets tiny partials.  All arithmetic is
    exact int64 µs with FLOOR division (calendar-correct for pre-1970
    timestamps too; note SQL's integer ``//`` TRUNCATES toward zero —
    an oracle must spell floor out explicitly for negative epochs).

    Returns (cohort, week_off, n_users) sorted; with
    ``normalize=True`` adds ``cohort_size`` (the week-0 cell — every
    cohort member has one by construction) and ``retention`` (one IEEE
    division of the two exact counts)."""

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                user: t[user],
                "__ts_us": pc.cast(ts, pa.int64()).combine_chunks(),
            }
        )

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("cohort", "week_off", "n_users")})
        wk = g["__ts_us"].to_numpy(np.int64) // bucket_us
        first_wk = (pd.Series(wk).groupby(g[user].to_numpy(), sort=False)
                    .transform("min").to_numpy(np.int64))
        f = pd.DataFrame({"u": g[user].to_numpy(), "cohort": first_wk,
                          "week_off": wk - first_wk})
        cells = (f.drop_duplicates()
                 .groupby(["cohort", "week_off"], sort=False)
                 .size().rename("n_users").reset_index())
        return cells.astype({c: np.int64
                             for c in ("cohort", "week_off", "n_users")})

    parts = exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        user, run_bucket, n_buckets=n_buckets,
    ).to_pandas()
    if not len(parts):
        cols = {c: pd.Series(dtype=np.int64)
                for c in ("cohort", "week_off", "n_users")}
        if normalize:
            cols["cohort_size"] = pd.Series(dtype=np.int64)
            cols["retention"] = pd.Series(dtype=np.float64)
        return pd.DataFrame(cols)
    out = (parts.groupby(["cohort", "week_off"], sort=True)["n_users"]
           .sum().astype(np.int64).reset_index())
    if normalize:
        size = {int(c): int(v) for c, v in
                out.loc[out["week_off"] == 0]
                .set_index("cohort")["n_users"].items()}
        out["cohort_size"] = out["cohort"].map(size).astype(np.int64)
        out["retention"] = (out["n_users"].to_numpy(np.float64)
                            / out["cohort_size"].to_numpy(np.float64))
    return out


def _session_numbers(g: pd.DataFrame, user: str, id_col: str,
                     gap_us: int):
    """Shared session-numbering kernel for :func:`sessionize_ids` and
    :func:`session_stats` (one implementation so a gap/ordering/null
    fix can never desynchronize q110 and q119): sort by (user, ts,
    id), flag session starts (gap > ``gap_us``; _first_mask folds ALL
    nulls into one key run — SQL PARTITION BY semantics), and rebase
    the global cumsum at each user's first row for 1-based per-user
    numbers.  Returns (sorted frame, uid array, ts array, session_no
    array)."""
    g = g.sort_values([user, "__ts_us", id_col], kind="mergesort")
    uid = g[user].to_numpy()
    us = g["__ts_us"].to_numpy(np.int64)
    first = _first_mask(uid)
    new_s = np.ones(len(us), dtype=np.int64)
    if len(us) > 1:
        new_s[1:] = np.where(~first[1:] & (np.diff(us) <= gap_us), 0, 1)
    cum = np.cumsum(new_s)
    starts = np.flatnonzero(first)
    base = cum[starts][np.cumsum(first) - 1] - 1  # cum BEFORE user
    return g, uid, us, cum - base


def sessionize_ids(
    ds: rd.Dataset,
    *,
    user: str,
    ts_col: str,
    id_col: str,
    gap_us: int = 1_800_000_000,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-EVENT session-id assignment (the enrichment complement of
    the q32 per-user session COUNT): within each user's (ts, id)-ordered
    events, a new session starts when the gap from the previous event
    exceeds ``gap_us``; every event gets its user's 1-based running
    session number — ``SUM(new_session) OVER (PARTITION BY user ORDER
    BY ts, id)`` in SQL terms.

    One user-hash exchange; per bucket a single mergesort + diff +
    cumsum pass assigns ids for ALL users at once (per-user cumsum =
    global cumsum rebased at each user's first row — no per-user
    apply).  Exact int64 µs arithmetic; ties order by (ts, id)
    deterministically on both sides.  Returns (id, user, ts_us,
    session_no) streaming."""
    kt = {f.name: f.type.to_pandas_dtype() for f in _arrow_fields(ds)}
    _EMPTY = {id_col: pd.Series(dtype=kt[id_col]),
              user: pd.Series(dtype=kt[user]),
              "ts_us": pd.Series(dtype=np.int64),
              "session_no": pd.Series(dtype=np.int64)}

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                id_col: t[id_col],
                user: t[user],
                "__ts_us": pc.cast(ts, pa.int64()).combine_chunks(),
            }
        )

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(_EMPTY)
        g, uid, us, sno = _session_numbers(g, user, id_col, gap_us)
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                user: uid,
                "ts_us": us,
                "session_no": sno,
            }
        )

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        user, run_bucket, n_buckets=n_buckets,
    )


def session_stats(
    ds: rd.Dataset,
    *,
    user: str,
    ts_col: str,
    id_col: str,
    val_col: str,
    gap_us: int = 1_800_000_000,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-SESSION summary rows — the aggregation layer over
    :func:`sessionize_ids`' per-event numbering: each (user,
    session_no) gets its event count, start/end/duration (exact int64
    µs) and exact value cents sum.  Same single user-hash exchange and
    rebased-cumsum numbering; the per-session groupby happens inside
    the bucket (a user's whole session is bucket-local).  NULL values
    fail loud (cents-family convention).  Returns (user, session_no,
    n_events, t_start_us, t_end_us, duration_us, sum_value_cents)
    streaming."""
    _OUT = [user, "session_no", "n_events", "t_start_us", "t_end_us",
            "duration_us", "sum_value_cents"]

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        v = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if np.isnan(v).any():
            raise ValueError(f"NULL {val_col} in session_stats input")
        cents = (np.sign(v) * np.floor(np.abs(v) * 100.0 + 0.5)
                 ).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                user: t[user],
                "__ts_us": pc.cast(ts, pa.int64()).combine_chunks(),
                "__cents": pa.array(cents),
            }
        )

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in _OUT})
        g, uid, us, sno = _session_numbers(g, user, id_col, gap_us)
        f = pd.DataFrame({user: uid, "session_no": sno,
                          "ts": us, "vc": g["__cents"].to_numpy(np.int64)})
        agg = (f.groupby([user, "session_no"], sort=False, dropna=False)
               .agg(n_events=("ts", "size"), t_start_us=("ts", "min"),
                    t_end_us=("ts", "max"), sum_value_cents=("vc", "sum"))
               .reset_index())
        agg["duration_us"] = agg["t_end_us"] - agg["t_start_us"]
        return agg[_OUT].astype({c: np.int64 for c in _OUT[1:]})

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        user, run_bucket, n_buckets=n_buckets,
    )


def transition_counts(
    ds: rd.Dataset,
    *,
    user: str,
    ts_col: str,
    id_col: str,
    type_col: str,
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """First-order transition (Markov bigram) counts over each user's
    (ts, id)-ordered event-type sequence: how often ``from_type`` is
    immediately followed by ``to_type``, summed over all users — the
    behavioral-analytics transition matrix.

    One user-hash exchange; per bucket a mergesort + shift pass pairs
    consecutive same-user events and a pandas groupby sizes the pairs
    (≤ |types|² rows per bucket), so the driver merge is tiny.  Exact
    int64 counts.  Returns (from_type, to_type, n) sorted."""

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                user: t[user],
                id_col: t[id_col],
                type_col: t[type_col],
                "__ts_us": pc.cast(ts, pa.int64()).combine_chunks(),
            }
        )

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"from_type": pd.Series(dtype=object),
                                 "to_type": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        g = g.sort_values([user, "__ts_us", id_col], kind="mergesort")
        uid = g[user].to_numpy()
        typ = g[type_col].to_numpy()
        # _first_mask treats ALL nulls as one key — matching the
        # oracle's LEAD OVER (PARTITION BY user), where NULL users form
        # one partition (a raw uid[1:]==uid[:-1] would be dtype-
        # dependent: NaN != NaN but None == None)
        same = ~_first_mask(uid)[1:]
        f = pd.DataFrame({"from_type": typ[:-1][same],
                          "to_type": typ[1:][same]})
        c = (f.groupby(["from_type", "to_type"], sort=False)
             .size().rename("n").reset_index())
        return c.astype({"n": np.int64})

    parts = exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        user, run_bucket, n_buckets=n_buckets,
    ).to_pandas()
    if not len(parts):
        return parts
    return (parts.groupby(["from_type", "to_type"], sort=True)["n"]
            .sum().astype(np.int64).reset_index())


def type_overlap_counts(
    ds: rd.Dataset,
    *,
    user: str,
    type_col: str,
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Distinct-user overlap between event types: for every unordered
    type pair (a < b), how many users emitted BOTH — the co-occurrence
    matrix behind audience-overlap and feature-adoption reports.

    One user-hash exchange; a user's rows co-locate, so the per-bucket
    pass dedups (user, type), self-merges per user with the a < b
    triangle filter (each user contributes ≤ C(|types|,2) pairs), and
    emits pair partials; disjoint-user buckets make the driver merge a
    plain sum.  Returns (type_a, type_b, n_users) sorted."""

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                user: t[user],
                type_col: t[type_col],
            }
        )

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"type_a": pd.Series(dtype=object),
                                 "type_b": pd.Series(dtype=object),
                                 "n_users": pd.Series(dtype=np.int64)})
        # NULL users pair nothing (SQL join semantics — pandas merge
        # would chain NaN==NaN and collapse every null user into one)
        d = g.loc[g[user].notna(), [user, type_col]].drop_duplicates()
        m = d.merge(d, on=user, suffixes=("_a", "_b"))
        m = m[m[type_col + "_a"] < m[type_col + "_b"]]
        c = (m.groupby([type_col + "_a", type_col + "_b"], sort=False)
             .size().rename("n_users").reset_index())
        c.columns = ["type_a", "type_b", "n_users"]
        return c.astype({"n_users": np.int64})

    parts = exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        user, run_bucket, n_buckets=n_buckets,
    ).to_pandas()
    if not len(parts):
        return parts
    return (parts.groupby(["type_a", "type_b"], sort=True)["n_users"]
            .sum().astype(np.int64).reset_index())


def rolling_active_users(
    ds: rd.Dataset,
    *,
    user: str,
    ts_col: str,
    window_days: int = 7,
    day_us: int = 86_400_000_000,
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Rolling N-day active users (the DAU/WAU primitive): for every
    ACTIVE day d, how many distinct users had ≥ 1 event in
    ``[d − (N−1), d]``.  The report spine is the set of active days —
    days with ≥ 1 NON-NULL-user event (null users never count nor
    anchor a spine day, COUNT(DISTINCT) semantics) — matching the SQL
    oracle's ``spine JOIN … BETWEEN`` shape over the null-filtered
    pair set.

    One user-hash exchange: a user's rows co-locate, so each bucket
    dedups (user, activity-day), explodes every activity day into the
    ≤ N report days it covers (vectorized repeat+tile), dedups the
    (user, report-day) pairs LOCALLY (globally valid — bucket-local
    users), intersects the broadcast spine, and emits per-day partial
    counts; disjoint-user buckets sum on the driver.  Exchange volume
    is the deduped (user, day) pairs — N× smaller than the events.
    FLOOR day bucketing (the q109 negative-epoch discipline).

    Returns (day, n_active) sorted."""
    import ray

    from ..functions.broadcast import get_broadcast

    # pin the user column's unified arrow type ONCE: the per-batch
    # pandas round-trip below floats a nullable int column only in
    # blocks that contain a null, and a dtype-flapping key would hash
    # down different _key_for_hash paths per block (splitting one user
    # across buckets and breaking the locally-complete dedup)
    ufield = next(f for f in _arrow_fields(ds) if f.name == user)
    utype = pa.string() if pa.types.is_null(ufield.type) else ufield.type

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        day = np.asarray(pc.cast(ts, pa.int64())) // day_us
        df = pd.DataFrame({user: t[user].to_pandas(), "__day": day})
        # NULL users never count (COUNT(DISTINCT user) SQL semantics)
        df = df[df[user].notna()].drop_duplicates()
        return pa.table(
            {
                user: pa.Array.from_pandas(df[user], type=utype),
                "__day": pa.array(df["__day"].to_numpy(np.int64)),
            }
        )

    # materialize: the pair stream is consumed twice (spine scan +
    # groupby) and is N× thinner than the input — the repo's convention
    # for twice-consumed datasets
    pairs = ds.map_batches(tag, batch_format="pyarrow").materialize()
    # spine: distinct active days — tiny (calendar-bounded); built from
    # the already-thin pair stream
    spine = set()
    for b in pairs.select_columns(["__day"]).iter_batches(
            batch_format="pyarrow"):
        spine.update(np.unique(np.asarray(b["__day"])).tolist())
    spine_ref = ray.put(np.array(sorted(spine), dtype=np.int64))

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "n_active": pd.Series(dtype=np.int64)})
        sp = get_broadcast(spine_ref)
        d = g[[user, "__day"]].drop_duplicates()
        u = np.repeat(d[user].to_numpy(), window_days)
        cov = (np.repeat(d["__day"].to_numpy(np.int64), window_days)
               + np.tile(np.arange(window_days, dtype=np.int64), len(d)))
        f = pd.DataFrame({user: u, "day": cov}).drop_duplicates()
        f = f[np.isin(f["day"].to_numpy(np.int64), sp)]
        c = f.groupby("day", sort=False).size().rename("n_active")
        return c.reset_index().astype({"day": np.int64,
                                       "n_active": np.int64})

    parts = exchange(pairs, user, run_bucket,
                     n_buckets=n_buckets).to_pandas()
    if not len(parts):
        return parts
    return (parts.groupby("day", sort=True)["n_active"].sum()
            .astype(np.int64).reset_index())


# --------------------------------------------------------------------------
# general hash equi-join
# --------------------------------------------------------------------------
def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    right_cols: list[str],
    how: str = "inner",
    suffix: str = "_r",
    fill_value: dict[str, int | float] | None = None,
    n_buckets: int | None = None,
    left_fields: list[pa.Field] | None = None,
    right_fields: list[pa.Field] | None = None,
    bloom_prefilter: bool = False,
    bloom_bits: int = 1 << 23,
) -> rd.Dataset:
    """Distributed hash equi-join on ``on`` (same column name both
    sides — rename upstream with ``rename_columns`` if they differ):
    ``how`` ∈ inner / left / outer / semi / anti (outer = FULL OUTER —
    unmatched rows of BOTH sides survive exactly once, since buckets
    partition keys).  Same recipe and partitioning contract as
    :func:`asof_join`: hash-bucket both sides (the ONE exchange any
    non-broadcast equi-join needs), union under a unified schema, and
    run a vectorized ``pd.merge`` (or an ``isin`` mask for semi/anti)
    per BUCKET of keys.

    This is the fact×fact path; for a dimension-sized right side prefer
    the broadcast-lookup pattern (functions/broadcast.py, q10/q19) —
    no shuffle at all.  A pathologically hot key lands in one bucket;
    inner-join output for it is |L_k|×|R_k| (inherent to the join, salt
    upstream if both sides are hot).  ``fill_value`` fills unmatched
    right columns for ``how="left"`` — required for integer columns so
    all-matched and partly-matched buckets emit the same dtype.  For
    ``how="outer"`` the LEFT integer columns need fills too (an
    unmatched right row leaves them NaN); pass fills for BOTH sides.

    ``bloom_prefilter=True`` (inner/semi only) is the selective-join
    scale path: build a Bloom filter of the RIGHT keys (per-block
    partials OR-merged on the driver — ``bloom_bits``/8 bytes each,
    tiny next to the data), broadcast it via ``ray.put``, and drop
    definite-non-matching LEFT rows *before* the all-to-all exchange.
    False positives just flow into the exact per-bucket join, so the
    result is identical — only the shuffled volume shrinks.  Size
    ``bloom_bits`` ≈ 10× the distinct right-key count for a ~1 % FP
    rate (2 probes).  Invalid for left/anti, where unmatched left rows
    must be kept.

    NULL join keys never match (SQL semantics — pandas' NaN==NaN
    pairing is suppressed).  Null-key rows pass through UNMATCHED
    wherever SQL keeps unmatched rows: left and anti keep the left
    side's, outer keeps both sides' (with the ``fill_value`` fills);
    inner and semi drop them.  A nullable int key then comes back as
    float64 (NaN for the null keys) from the bucket that holds them.
    """
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    if bloom_prefilter and how not in ("inner", "semi"):
        raise ValueError("bloom_prefilter only valid for inner/semi joins")
    lfields = left_fields or _arrow_fields(left)
    lcols = [f.name for f in lfields]
    rkeep = list(dict.fromkeys([on, *right_cols]))
    fill = fill_value or {}
    rfields = [f for f in (right_fields or _arrow_fields(right)) if f.name in rkeep]
    if bloom_prefilter:
        left = _bloom_filter_left(left, right, on, bloom_bits)
    # suffix-rename colliding right columns BEFORE the tagged union: the
    # union unifies same-named fields to ONE type, so a left int64 'v'
    # next to a right float64 'v' would otherwise fail (or silently
    # coerce) in the tag cast.  After this, every column name is an
    # OUTPUT name.
    collide = {c: c + suffix for c in right_cols
               if c != on and c in lcols}
    for tgt in collide.values():
        # a renamed target clashing with an existing column would be
        # silently unified/auto-suffixed downstream — fail loud
        if tgt in lcols or tgt in rkeep:
            raise ValueError(
                f"suffix-renamed right column {tgt!r} collides with an "
                "existing column; pick a different suffix")
    right = right.select_columns(rkeep)
    if collide:
        # explicit pyarrow rename: Dataset.rename_columns trips over
        # pandas-backed blocks (from_pandas inputs) in this Ray version
        def _rename(t: pa.Table) -> pa.Table:
            return t.rename_columns(
                [collide.get(c, c) for c in t.column_names])

        right = right.map_batches(_rename, batch_format="pyarrow")
        rkeep = [collide.get(c, c) for c in rkeep]
        rfields = [pa.field(collide.get(f.name, f.name), f.type)
                   for f in rfields]
    sides = _tagged_sides(left, right, lfields, rfields)

    l_ints = _int_cols(lfields, lcols)
    r_ints = _int_cols(rfields, rkeep)
    out_is_left_only = how in ("semi", "anti")

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["__side"] == 0][lcols]
        rf = g[g["__side"] == 1][rkeep]
        # SQL equi-joins never match NULL keys, but pandas merge/isin DO
        # pair NaN with NaN — split null-key rows off both sides, join
        # the rest, and append them unmatched where the mode keeps
        # unmatched rows (the null key itself stays NaN, uncast)
        ln, rn = lf[on].isna(), rf[on].isna()
        lnull = lf[ln].astype({c: np.int64 for c in l_ints if c != on})
        rnull = rf[rn].astype({c: np.int64 for c in r_ints if c != on})
        lf = lf[~ln].astype({c: np.int64 for c in l_ints})
        rf = rf[~rn].astype({c: np.int64 for c in r_ints})
        if out_is_left_only:
            mask = lf[on].isin(rf[on].unique())
            if how == "semi":
                return lf[mask]
            return pd.concat([lf[~mask], lnull]) if len(lnull) else lf[~mask]
        merged = pd.merge(lf, rf, on=on, how=how)
        unmatched = [x for x in ([lnull] if how != "inner" else [])
                     + ([rnull] if how == "outer" else []) if len(x)]
        if unmatched:
            merged = pd.concat([merged, *unmatched], ignore_index=True)
        for col, v in fill.items():
            # outer joins leave NaN on BOTH sides, so a fill target may
            # be a left column (unmatched right row).  Columns are
            # already output-named: anything in the (renamed) right
            # keep-list that isn't a left column fills from the right
            # frame's dtype, everything else from the left's.
            ref = rf if (col in rkeep and col not in lcols) else lf
            merged[col] = merged[col].fillna(v).astype(ref[col].dtype)
        return merged

    return exchange(sides, on, join_bucket, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# per-key running aggregate (SUM OVER PARTITION BY ... ORDER BY ...)
# --------------------------------------------------------------------------
def keyed_running_sum(
    ds: rd.Dataset,
    *,
    by: str,
    ts_col: str,
    val_col: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-key running total — ``SUM(val) OVER (PARTITION BY key ORDER
    BY ts ROWS UNBOUNDED PRECEDING)`` re-expressed Ray-Data-first: ONE
    hash-bucket exchange on the key, then a single vectorized pass per
    bucket (stable sort by (key, ts) + global cumsum − per-key offset
    subtraction, no per-key apply).

    Values are converted to integer CENTS in the map stage so the
    cumulative sum is exact integer arithmetic — a float running sum is
    accumulation-order-defined and NOT bit-stable across engines, while
    cents int64 matches the DuckDB window oracle digit-for-digit
    (same policy as range_join_agg).  Output: (by, ts_us:int64,
    running_cents:int64); ties on (key, ts) would make the prefix
    ambiguous — the events corpus has none (TESTDATA).
    """

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({by: [], "ts_us": [], "running_cents": []})
        g = g.sort_values([by, "ts_us"], kind="mergesort")
        key = g[by].to_numpy()
        cents = g["__cents"].to_numpy(np.int64)
        cum = np.cumsum(cents)
        # subtract the cumulative total of everything before each key's
        # first row (exact for negative values too — no monotonicity
        # assumption on the global cumsum)
        first = _first_mask(key)
        starts = np.flatnonzero(first)
        offset = (cum[starts] - cents[starts])[np.cumsum(first) - 1]
        return pd.DataFrame(
            {
                by: key,
                "ts_us": g["ts_us"].to_numpy(np.int64),
                "running_cents": cum - offset,
            }
        )

    return exchange(
        ds.map_batches(_keyed_cents_tag(by, ts_col, val_col),
                       batch_format="pyarrow"),
        by, run_bucket, n_buckets=n_buckets,
    )


def _keyed_cents_tag(by: str, ts_col: str, val_col: str,
                     extra_cols: tuple[str, ...] = ()):
    """Shared map stage of the keyed-window family: (key, [extras],
    ts_us, exact integer cents), the input of the ONE key exchange
    every PARTITION-BY window needs. Cents use half-away-from-zero
    rounding (DuckDB ROUND parity; pc.round is half-to-even).

    A NULL value cannot be represented in the non-null int64 cents
    contract (NaN.astype(int64) is undefined garbage that would
    silently corrupt every window in the partition) — it fails LOUD
    instead; the events corpus has none (TESTDATA)."""

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        v100 = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64) * 100.0
        if np.isnan(v100).any():
            raise ValueError(
                f"NULL {val_col!r} values are not representable in the "
                "int64-cents window family; filter them upstream"
            )
        cents = pa.array(
            (np.sign(v100) * np.floor(np.abs(v100) + 0.5)).astype(np.int64)
        )
        return pa.table(
            {
                by: t[by],
                **{c: t[c] for c in extra_cols},
                "ts_us": pc.cast(ts, pa.int64()).combine_chunks(),
                "__cents": cents,
            }
        )

    return tag


def keyed_moving_agg(
    ds: rd.Dataset,
    *,
    by: str,
    ts_col: str,
    val_col: str,
    window: int,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-key MOVING window aggregate — ``SUM/MIN/MAX/COUNT(val) OVER
    (PARTITION BY key ORDER BY ts ROWS BETWEEN window-1 PRECEDING AND
    CURRENT ROW)`` as ONE hash-bucket exchange + a vectorized pass per
    bucket: the moving sum is a cumulative-sum difference with the
    window floor clamped to each key's first row (exact integer cents,
    no per-key apply); min/max run through pandas' C rolling kernel per
    key.  Output: (by, ts_us, mov_sum_cents, mov_min_cents,
    mov_max_cents, mov_n).  Ties on (key, ts) would make the frame
    ambiguous — the events corpus has none (TESTDATA)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    _EMPTY = {c: [] for c in (by, "ts_us", "mov_sum_cents",
                              "mov_min_cents", "mov_max_cents", "mov_n")}

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(_EMPTY)
        g = g.sort_values([by, "ts_us"], kind="mergesort")
        key = g[by].to_numpy()
        cents = g["__cents"].to_numpy(np.int64)
        n = len(g)
        cum = np.cumsum(cents)
        first = _first_mask(key)
        starts = np.flatnonzero(first)
        key_start = starts[np.cumsum(first) - 1]  # per-row first-row index
        idx = np.arange(n)
        lo = np.maximum(idx - window + 1, key_start)
        # sum over [lo, idx] — valid across the whole bucket because
        # lo >= key_start keeps the range inside the row's key
        mov_sum = cum - np.where(lo > 0, cum[np.maximum(lo - 1, 0)], 0)
        mov_n = idx - lo + 1
        # min/max: pandas C rolling kernel per contiguous key run; int64
        # cents survive the float64 round-trip exactly (|cents| < 2^53)
        s = pd.Series(cents)
        grp = s.groupby(pd.Series(np.cumsum(first)), sort=False)
        mov_min = grp.rolling(window, min_periods=1).min().to_numpy()
        mov_max = grp.rolling(window, min_periods=1).max().to_numpy()
        return pd.DataFrame(
            {
                by: key,
                "ts_us": g["ts_us"].to_numpy(np.int64),
                "mov_sum_cents": mov_sum,
                "mov_min_cents": mov_min.astype(np.int64),
                "mov_max_cents": mov_max.astype(np.int64),
                "mov_n": mov_n.astype(np.int64),
            }
        )

    return exchange(
        ds.map_batches(_keyed_cents_tag(by, ts_col, val_col),
                       batch_format="pyarrow"),
        by, run_bucket, n_buckets=n_buckets,
    )


def keyed_frame_stats(
    ds: rd.Dataset,
    *,
    by: str,
    ts_col: str,
    val_col: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-key full-partition frame functions — ``FIRST_VALUE`` /
    ``LAST_VALUE`` (RANGE UNBOUNDED both ways) / ``PERCENT_RANK`` —
    as one bucket exchange + per-bucket index arithmetic (first/last by
    key-run start/end indexing, percent_rank = pos/(n_rows−1), the
    exact double division SQL performs, 0.0 for singleton keys).
    Output: (by, ts_us, first_cents, last_cents, pct_rank)."""
    _EMPTY = {c: [] for c in (by, "ts_us", "first_cents",
                              "last_cents", "pct_rank")}

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(_EMPTY)
        g = g.sort_values([by, "ts_us"], kind="mergesort")
        key = g[by].to_numpy()
        cents = g["__cents"].to_numpy(np.int64)
        n = len(g)
        first = _first_mask(key)
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, n))
        run = np.cumsum(first) - 1  # per-row key-run ordinal
        key_start = starts[run]
        key_len = counts[run]
        pos = np.arange(n) - key_start
        pct = np.where(key_len > 1, pos / np.maximum(key_len - 1, 1), 0.0)
        return pd.DataFrame(
            {
                by: key,
                "ts_us": g["ts_us"].to_numpy(np.int64),
                "first_cents": cents[key_start],
                "last_cents": cents[key_start + key_len - 1],
                "pct_rank": pct,
            }
        )

    return exchange(
        ds.map_batches(_keyed_cents_tag(by, ts_col, val_col),
                       batch_format="pyarrow"),
        by, run_bucket, n_buckets=n_buckets,
    )


# --------------------------------------------------------------------------
# set operations (INTERSECT / EXCEPT, SQL DISTINCT semantics)
# --------------------------------------------------------------------------
def set_op(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    op: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Distributed ``INTERSECT`` / ``EXCEPT`` on a single key column
    (SQL set semantics: output is DISTINCT).  Same recipe as
    :func:`hash_join`: tag the sides, ONE hash-bucket exchange, and a
    vectorized per-bucket kernel (np.intersect1d / setdiff1d over the
    bucket's distinct keys) — all occurrences of a key land in one
    bucket, so per-bucket set algebra is globally exact.

    NULL keys follow SQL set semantics (NULLs compare EQUAL in
    INTERSECT/EXCEPT, unlike joins): every null key hashes alike, so
    the null rows of both sides meet in one bucket and membership is
    decided by per-side null presence there.

    ``union`` is deliberately absent: Ray Data's ``ds.union`` +
    bucketed distinct already covers it (q13/q15).
    """
    if op not in ("intersect", "except"):
        raise ValueError(f"unsupported op={op!r}")

    def make_tag(side: int):
        def tag(t: pa.Table) -> pa.Table:
            return pa.table({on: t[on], "__side": pa.array(
                np.full(len(t), side, dtype=np.int8))})

        return tag

    sides = [d.select_columns([on]).map_batches(make_tag(i), batch_format="pyarrow")
             for i, d in enumerate((left, right))]

    def op_bucket(g: pd.DataFrame) -> pd.DataFrame:
        av = g.loc[g["__side"] == 0, on]
        bv = g.loc[g["__side"] == 1, on]
        a, b = av.dropna().unique(), bv.dropna().unique()
        out = np.intersect1d(a, b) if op == "intersect" else np.setdiff1d(a, b)
        frame = pd.DataFrame({on: out})
        a_null, b_null = av.isna().any(), bv.isna().any()
        emit_null = (a_null and b_null) if op == "intersect" else (a_null and not b_null)
        if emit_null:
            frame = pd.concat(
                [frame, pd.DataFrame({on: [None]})], ignore_index=True
            )
        return frame

    return exchange(sides, on, op_bucket, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# bloom prefilter (selective-join scale path)
# --------------------------------------------------------------------------
def _bloom_hashes(keys: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent bit positions per key (the :func:`_hash64` key
    hash), double-hashing style."""
    x = _hash64(keys)
    h2 = (x >> np.uint64(32)) | np.uint64(1)
    return (x % np.uint64(bits)), ((x + h2) % np.uint64(bits))


def _bloom_filter_left(
    left: rd.Dataset, right: rd.Dataset, on: str, bits: int
) -> rd.Dataset:
    import ray

    words = (bits + 63) // 64  # ceil: bit positions go up to bits-1

    def partial(t: pa.Table) -> pa.Table:
        arr = np.zeros(words, dtype=np.uint64)
        k = _key_for_hash(t[on])  # null-count-invariant dtype: a dtype
        # flip between build and probe batches would Bloom-DROP matches
        for pos in _bloom_hashes(k, bits):
            np.bitwise_or.at(arr, (pos // 64).astype(np.int64), np.uint64(1) << (pos % np.uint64(64)))
        return pa.table({"bloom": pa.array([arr.tobytes()], pa.binary())})

    parts = right.select_columns([on]).map_batches(partial, batch_format="pyarrow").take_all()
    merged = np.zeros(words, dtype=np.uint64)
    for r in parts:
        merged |= np.frombuffer(r["bloom"], dtype=np.uint64)
    ref = ray.put(merged)

    def keep(t: pa.Table) -> pa.Table:
        bloom = ray.get(ref)
        k = _key_for_hash(t[on])
        p1, p2 = _bloom_hashes(k, bits)
        hit = (
            (bloom[(p1 // 64).astype(np.int64)] >> (p1 % np.uint64(64))) & np.uint64(1)
        ).astype(bool) & (
            (bloom[(p2 // 64).astype(np.int64)] >> (p2 % np.uint64(64))) & np.uint64(1)
        ).astype(bool)
        return t.filter(pa.array(hit))

    return left.map_batches(keep, batch_format="pyarrow")


# --------------------------------------------------------------------------
# order-sensitive aggregation (STRING_AGG ... ORDER BY)
# --------------------------------------------------------------------------
def keyed_string_agg(
    ds: rd.Dataset,
    *,
    by: str,
    val_col: str,
    order_col: str,
    sep: str = ",",
    n_buckets: int | None = None,
) -> rd.Dataset:
    """``STRING_AGG(val, sep ORDER BY order_col)`` per key — the
    order-SENSITIVE aggregation class (concat is non-commutative, so
    it can't ride Ray's combiner-based aggregate): ONE hash-bucket
    exchange on the key, then per bucket a single stable sort by
    (key, order) and a C-level pandas groupby-join.  Ambiguous only if
    (key, order_col) has duplicates — the events corpus has none
    (TESTDATA)."""

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        oc = t[order_col]
        if pa.types.is_timestamp(oc.type):
            oc = pc.cast(pc.cast(oc, pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                by: t[by],
                "__ord": pc.cast(oc, pa.int64()).combine_chunks(),
                "__val": t[val_col],
            }
        )

    def agg_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([by, "__ord"], kind="mergesort")
        # SQL STRING_AGG skips NULL values (a key whose values are ALL
        # null still emits a row, with NULL agg) — sep.join over a None
        # would instead crash the task (r03 ADVICE).
        out = g.groupby(by, sort=True, dropna=False)["__val"].agg(
            lambda s: sep.join(v) if len(v := s.dropna()) else None
        )
        return pd.DataFrame({by: out.index.to_numpy(), "agg": out.to_numpy()})

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        by, agg_bucket, n_buckets=n_buckets,
    )


def keyed_ntile(
    ds: rd.Dataset,
    *,
    by: str,
    order_col: str,
    k: int,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """``NTILE(k) OVER (PARTITION BY key ORDER BY order_col)`` — one
    bucket exchange + a vectorized per-bucket pass (stable sort, per-key
    position arithmetic; SQL semantics: the first ``count % k`` tiles
    get one extra row).  Null partition keys form ONE partition (SQL
    semantics).  Output (by, ord_us:int64, tile:int64)."""
    if k < 1:
        raise ValueError(f"NTILE requires k >= 1, got {k}")

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        oc = t[order_col]
        if pa.types.is_timestamp(oc.type):
            oc = pc.cast(pc.cast(oc, pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                by: t[by],
                "ord_us": pc.cast(oc, pa.int64()).combine_chunks(),
            }
        )

    def tile_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({by: [], "ord_us": [], "tile": []})
        g = g.sort_values([by, "ord_us"], kind="mergesort")
        key = g[by].to_numpy()
        n = len(key)
        first = _first_mask(key)
        grp = np.cumsum(first) - 1                      # key ordinal per row
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, n))          # rows per key
        idx = np.arange(n) - starts[grp]                # 0-based pos in key
        base = counts // k
        rem = counts % k
        boundary = (rem * (base + 1))[grp]
        b_g, r_g = base[grp], rem[grp]
        small = np.maximum(b_g, 1)                      # avoid div-by-0 in dead branch
        tile = np.where(
            idx < boundary,
            idx // (b_g + 1) + 1,
            r_g + (idx - boundary) // small + 1,
        )
        return pd.DataFrame(
            {by: key, "ord_us": g["ord_us"].to_numpy(np.int64), "tile": tile.astype(np.int64)}
        )

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        by, tile_bucket, n_buckets=n_buckets,
    )


def keyed_lag_lead(
    ds: rd.Dataset,
    *,
    by: str,
    ts_col: str,
    val_col: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """``LAG`` / ``LEAD`` (offset 1, default 0) per key plus the
    row-over-row delta — the navigation-function member of the keyed-
    window family (reference analog: consecutive-block delta checks in
    the crawler's sequential validators).  One hash-bucket exchange on
    the key via the shared :func:`_keyed_cents_tag` map stage, then a
    single vectorized shift per bucket: after the stable (key, ts)
    sort, lag is the array shifted right with each key's FIRST row
    forced to the default, lead the array shifted left with each key's
    LAST row forced — no per-key apply.

    Defaults are 0 (``LAG(x, 1, 0)``) rather than SQL's NULL so every
    output column is non-null int64 — NULL-vs-NaN dtype drift across
    engines is exactly the q65 hash-flake class.  ``delta_cents`` is
    ``cents - lag_cents`` (first row of a key: the value itself).
    Output: (by, ts_us, cents, lag_cents, lead_cents, delta_cents).
    Ties on (key, ts) would make neighbors ambiguous — the events
    corpus has none (TESTDATA).
    """
    _OUT = (by, "ts_us", "cents", "lag_cents", "lead_cents", "delta_cents")

    def shift_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({c: [] for c in _OUT})
        g = g.sort_values([by, "ts_us"], kind="mergesort")
        key = g[by].to_numpy()
        cents = g["__cents"].to_numpy(np.int64)
        first = _first_mask(key)
        last = np.append(first[1:], True)
        lag = np.empty_like(cents)
        lag[0], lag[1:] = 0, cents[:-1]
        lag[first] = 0
        lead = np.empty_like(cents)
        lead[-1], lead[:-1] = 0, cents[1:]
        lead[last] = 0
        return pd.DataFrame(
            {
                by: key,
                "ts_us": g["ts_us"].to_numpy(np.int64),
                "cents": cents,
                "lag_cents": lag,
                "lead_cents": lead,
                "delta_cents": cents - lag,
            }
        )

    return exchange(
        ds.map_batches(_keyed_cents_tag(by, ts_col, val_col),
                       batch_format="pyarrow"),
        by, shift_bucket, n_buckets=n_buckets,
    )


def keyed_rank(
    ds: rd.Dataset,
    *,
    by: str,
    id_col: str,
    ts_col: str,
    val_col: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """``RANK()`` / ``DENSE_RANK()`` per key ordering by value DESC —
    the tie-aware ranking member of the keyed-window family (NTILE and
    PERCENT_RANK's sibling).  Unlike ROW_NUMBER, both functions are a
    pure function of the ORDER BY *value*: every row in a tie group
    gets the same rank (1 + count strictly greater / 1 + distinct
    greater), so the output is deterministic even though the corpus has
    genuine cents-level ties — no tiebreaker column needed.

    One hash-bucket exchange on the key, then per bucket a stable
    (key, value) sort and pandas' C ``groupby(...).rank(method='min' /
    'dense')`` over key-run ordinals (run ids, not raw keys, so a null
    key forms ONE partition like SQL).  ``id_col`` / ``ts_us`` ride
    along only to identify rows in the output.
    Output: (by, id_col, ts_us, cents, rnk, drnk), all-int64 ranks.
    """
    _OUT = (by, id_col, "ts_us", "cents", "rnk", "drnk")

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({c: [] for c in _OUT})
        g = g.sort_values(by, kind="mergesort")
        key = g[by].to_numpy()
        cents = pd.Series(g["__cents"].to_numpy(np.int64))
        grp = np.cumsum(_first_mask(key)) - 1
        by_run = cents.groupby(pd.Series(grp), sort=False)
        return pd.DataFrame(
            {
                by: key,
                id_col: g[id_col].to_numpy(),
                "ts_us": g["ts_us"].to_numpy(np.int64),
                "cents": cents.to_numpy(),
                "rnk": by_run.rank(method="min", ascending=False)
                .to_numpy(np.int64),
                "drnk": by_run.rank(method="dense", ascending=False)
                .to_numpy(np.int64),
            }
        )

    return exchange(
        ds.map_batches(_keyed_cents_tag(by, ts_col, val_col,
                                        extra_cols=(id_col,)),
                       batch_format="pyarrow"),
        by, rank_bucket, n_buckets=n_buckets,
    )


def latest_per_key(
    ds: rd.Dataset,
    *,
    by: str,
    ts_col: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Latest-snapshot compaction — keep each key's newest FULL row
    (``ROW_NUMBER() OVER (PARTITION BY key ORDER BY ts DESC) = 1``),
    the change-log→current-state primitive of CDC/upsert pipelines and
    the batch analog of the crawl's seen-claim "newest wins" overwrite
    (reference upsert: SURVEY §2.1 S9).  A combiner halves the exchange
    first: each BATCH forwards only its own per-key newest row (≤ one
    row per distinct key per batch — change-log batches collapse hard),
    then one hash-bucket exchange and a per-bucket vectorized last-of-
    key pick.  All columns ride along; ``ts_col`` is emitted as
    ``{ts_col}_us`` int64.  Ties on (key, ts) would make "latest"
    ambiguous — the events corpus has none (TESTDATA).
    """

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t[ts_col]
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
        cols = {c: t[c] for c in t.column_names if c != ts_col}
        cols[f"{ts_col}_us"] = pc.cast(ts, pa.int64()).combine_chunks()
        out = pa.table(cols)
        # batch-local compaction: newest row per key in this batch,
        # taken from the arrow table so the key keeps its arrow type (a
        # pandas round-trip floats a nullable int key only in batches
        # with a null, and the exchange would hash it down another path)
        keep = (
            out.select([by, f"{ts_col}_us"]).to_pandas()
            .sort_values([by, f"{ts_col}_us"], kind="mergesort")
            .groupby(by, sort=False, dropna=False)
            .tail(1)
        )
        return out.take(pa.array(keep.index.to_numpy()))

    def last_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return g.drop(columns=["__bucket"])
        g = g.sort_values([by, f"{ts_col}_us"], kind="mergesort")
        last = np.append(_first_mask(g[by].to_numpy())[1:], True)
        return g[last].drop(columns=["__bucket"])

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"),
        by, last_bucket, n_buckets=n_buckets,
    )
