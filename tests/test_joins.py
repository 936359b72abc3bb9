"""Tests for stages/joins.py: as-of join and range-join aggregate.

Correctness model: a single-process pandas/brute-force reference over
small synthetic frames; distribution invariants (bucket-count
independence) pin that the hash co-partition does not change results.
The sf-table versions (q44/q45) are oracle-checked against DuckDB in
test_queries.py / the driver's correctness gate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ethereum_raw_data_crawler_ray.stages.joins import asof_join, range_join_agg

RNG = np.random.default_rng(7)


def _events(n: int, n_users: int, start="2024-01-01") -> pd.DataFrame:
    ts = pd.Timestamp(start) + pd.to_timedelta(
        np.sort(RNG.integers(0, 30 * 86_400_000_000, size=n)), "us"
    )
    return pd.DataFrame(
        {
            "eid": np.arange(n, dtype=np.int64),
            "ts": ts.astype("datetime64[us]"),
            "uid": RNG.integers(0, n_users, size=n).astype(np.int64),
            "value": np.round(RNG.uniform(0.01, 50.0, size=n), 2),
        }
    )


@pytest.fixture(scope="module")
def frames():
    left = _events(400, 23)
    right = _events(700, 23).rename(columns={"eid": "rid"})
    return left, right


def _ref_asof(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    r = right[["uid", "ts", "rid"]].sort_values("ts", kind="mergesort")
    m = pd.merge_asof(
        left.sort_values("ts", kind="mergesort"), r,
        on="ts", by="uid", direction="backward",
    )
    m["rid"] = m["rid"].fillna(-1).astype(np.int64)
    return m.sort_values("eid").reset_index(drop=True)


def test_asof_join_matches_pandas(frames):
    left, right = frames
    out = (
        asof_join(
            rd.from_pandas(left),
            rd.from_pandas(right[["rid", "ts", "uid"]]),
            on="ts", by="uid", right_cols=["rid"],
            fill_value={"rid": -1}, n_buckets=5,
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    ref = _ref_asof(left, right)
    pd.testing.assert_frame_equal(
        out[["eid", "uid", "rid"]], ref[["eid", "uid", "rid"]]
    )


def test_asof_bucket_count_invariance(frames):
    """The co-partition is an implementation detail: 1 bucket (single
    group) and 7 buckets must give identical results."""
    left, right = frames
    outs = []
    for nb in (1, 7):
        outs.append(
            asof_join(
                rd.from_pandas(left),
                rd.from_pandas(right[["rid", "ts", "uid"]]),
                on="ts", by="uid", right_cols=["rid"],
                fill_value={"rid": -1}, n_buckets=nb,
            )
            .to_pandas()
            .sort_values("eid")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_asof_empty_right(frames):
    """No right rows at all → every left row gets the sentinel."""
    left, right = frames
    empty = right[["rid", "ts", "uid"]].iloc[:0]
    out = (
        asof_join(
            rd.from_pandas(left), rd.from_pandas(empty),
            on="ts", by="uid", right_cols=["rid"],
            fill_value={"rid": -1}, n_buckets=3,
        )
        .to_pandas()
    )
    assert len(out) == len(left)
    assert (out["rid"] == -1).all()


def test_asof_strict_inequality(frames):
    """allow_exact_matches=False must never match a right row at the
    exact same timestamp."""
    left, _ = frames
    # right = left itself: backward-strict can only match EARLIER rows
    right = left.rename(columns={"eid": "rid"})[["rid", "ts", "uid"]]
    out = (
        asof_join(
            rd.from_pandas(left), rd.from_pandas(right),
            on="ts", by="uid", right_cols=["rid"],
            allow_exact_matches=False, fill_value={"rid": -1}, n_buckets=4,
        )
        .to_pandas()
    )
    merged = out.merge(left[["eid", "ts"]], on="eid", suffixes=("", "_l"))
    matched = merged[merged["rid"] >= 0].merge(
        left[["eid", "ts"]].rename(columns={"eid": "rid", "ts": "ts_r"}), on="rid"
    )
    assert (matched["ts_r"] < matched["ts_l"]).all()
    # each user's earliest row has nothing strictly earlier
    first = left.sort_values("ts").groupby("uid").head(1)
    sentinel = out.set_index("eid").loc[first["eid"], "rid"]
    assert (sentinel == -1).all()


def test_asof_forward_direction(frames):
    """direction='forward' matches pandas merge_asof forward exactly."""
    left, right = frames
    out = (
        asof_join(
            rd.from_pandas(left),
            rd.from_pandas(right[["rid", "ts", "uid"]]),
            on="ts", by="uid", right_cols=["rid"], direction="forward",
            fill_value={"rid": -1}, n_buckets=4,
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    ref = pd.merge_asof(
        left.sort_values("ts", kind="mergesort"),
        right[["uid", "ts", "rid"]].sort_values("ts", kind="mergesort"),
        on="ts", by="uid", direction="forward",
    )
    ref["rid"] = ref["rid"].fillna(-1).astype(np.int64)
    ref = ref.sort_values("eid").reset_index(drop=True)
    pd.testing.assert_frame_equal(out[["eid", "rid"]], ref[["eid", "rid"]])


def _ref_range(left, right, lower_us, upper_us):
    """O(n·m) reference for the windowed aggregate."""
    rows = []
    for _, lrow in left.iterrows():
        lo = lrow["ts"] + pd.to_timedelta(lower_us, "us")
        hi = lrow["ts"] + pd.to_timedelta(upper_us, "us")
        sel = right[(right["uid"] == lrow["uid"]) & (right["ts"] >= lo) & (right["ts"] < hi)]
        rows.append(
            (lrow["eid"], len(sel), round(float(np.round(sel["value"] * 100).sum()) / 100, 2))
        )
    return pd.DataFrame(rows, columns=["eid", "n_win", "sum_win"])


def test_range_agg_matches_bruteforce(frames):
    left, right = frames
    W = 6 * 3_600_000_000  # 6-hour look-back
    out = (
        range_join_agg(
            rd.from_pandas(left),
            rd.from_pandas(right[["ts", "uid", "value"]]),
            on="ts", by="uid", lower_us=-W, upper_us=0,
            value_col="value", n_buckets=5,
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    ref = _ref_range(left, right, -W, 0).sort_values("eid").reset_index(drop=True)
    assert (out["n_win"].to_numpy() == ref["n_win"].to_numpy()).all()
    assert np.allclose(out["sum_win"].round(2), ref["sum_win"], rtol=0, atol=1e-9)
    assert out["n_win"].sum() > 0  # the window is not degenerate


def test_range_agg_count_only(frames):
    left, right = frames
    W = 3_600_000_000
    out = (
        range_join_agg(
            rd.from_pandas(left),
            rd.from_pandas(right[["ts", "uid"]]),
            on="ts", by="uid", lower_us=-W, upper_us=0, n_buckets=3,
        )
        .to_pandas()
    )
    assert "sum_win" not in out.columns
    ref = _ref_range(left, right.assign(value=0.0), -W, 0)
    m = out.merge(ref, on="eid", suffixes=("", "_ref"))
    assert (m["n_win"] == m["n_win_ref"]).all()


# --------------------------------------------------------------------------
# hash equi-join
# --------------------------------------------------------------------------
def _join_frames():
    left = pd.DataFrame(
        {
            "k": np.array([1, 1, 2, 3, 5, 5, 5], dtype=np.int64),
            "lv": np.arange(7, dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k": np.array([1, 2, 2, 4], dtype=np.int64),
            "rv": np.array([10, 20, 21, 40], dtype=np.int64),
        }
    )
    return left, right


def _sorted(df, cols):
    return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("n_buckets", [1, 3, 16])
def test_hash_join_inner_matches_pandas(ray_session, n_buckets):
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    left, right = _join_frames()
    out = hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        on="k", right_cols=["rv"], n_buckets=n_buckets,
    ).to_pandas()
    expect = pd.merge(left, right, on="k", how="inner")
    cols = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(_sorted(out, cols), _sorted(expect, cols))


def test_hash_join_left_int_fill(ray_session):
    # unmatched rows + integer right column: fill_value must keep the
    # dtype int64 in every bucket (the union-null widening trap)
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    left, right = _join_frames()
    out = hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        on="k", right_cols=["rv"], how="left", fill_value={"rv": -1},
    ).to_pandas()
    assert out["rv"].dtype == np.int64
    expect = pd.merge(left, right, on="k", how="left").fillna({"rv": -1})
    expect["rv"] = expect["rv"].astype(np.int64)
    cols = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(_sorted(out, cols), _sorted(expect, cols))


@pytest.mark.parametrize("n_buckets", [1, 3, 16])
def test_hash_join_outer_matches_pandas(ray_session, n_buckets):
    # FULL OUTER: unmatched rows from BOTH sides survive exactly once;
    # fills apply to left columns too (a NaN lv on an unmatched right
    # row), and int64 dtypes hold in every bucket
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    left, right = _join_frames()
    out = hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        on="k", right_cols=["rv"], how="outer",
        fill_value={"lv": -1, "rv": -1}, n_buckets=n_buckets,
    ).to_pandas()
    assert out["lv"].dtype == np.int64 and out["rv"].dtype == np.int64
    expect = pd.merge(left, right, on="k", how="outer").fillna(
        {"lv": -1, "rv": -1}
    ).astype({"lv": np.int64, "rv": np.int64})
    cols = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(_sorted(out, cols), _sorted(expect, cols))
    # both-side unmatched keys really are present
    assert 4 in set(out["k"]) and {3, 5} <= set(out["k"])


def _null_rows(df, cols):
    """Rows as sorted tuples with every null as None and integral
    numbers as int — the engine and DuckDB spell a null int key as NaN
    (float64) and a null string as None."""
    def norm(x):
        if x is None or (isinstance(x, float) and np.isnan(x)):
            return None
        return int(x) if isinstance(x, (int, float, np.number)) else x
    rows = [tuple(norm(v) for v in r) for r in df[cols].itertuples(index=False)]
    return sorted(rows, key=repr)


@pytest.mark.parametrize("keys", [
    pd.array([1, None, 3, None, 5, 1], dtype="Int64"),
    ["a", None, "c", None, "e", "a"],
], ids=["int", "str"])
def test_hash_join_null_keys_match_duckdb(ray_session, keys):
    # SQL: a NULL key never matches, but modes that keep unmatched rows
    # keep null-key rows (left/anti: the left's; outer: both sides')
    import duckdb

    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    rkeys = (pd.array([1, None, 5, 7, None], dtype="Int64")
             if isinstance(keys, pd.arrays.IntegerArray)
             else ["a", None, "e", "g", None])
    l = pd.DataFrame({"k": keys, "lv": np.arange(6, dtype=np.int64)})
    r = pd.DataFrame({"k": rkeys, "rv": np.array([10, 20, 50, 70, 90])})
    sql = {
        "inner": "SELECT k, lv, rv FROM l JOIN r USING (k)",
        "left": "SELECT k, lv, COALESCE(rv, -1) AS rv "
                "FROM l LEFT JOIN r USING (k)",
        "outer": "SELECT k, COALESCE(lv, -1) AS lv, COALESCE(rv, -1) AS rv "
                 "FROM l FULL JOIN r USING (k)",
        "semi": "SELECT k, lv FROM l "
                "WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
        "anti": "SELECT k, lv FROM l "
                "WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
    }
    fills = {"left": {"rv": -1}, "outer": {"lv": -1, "rv": -1}}
    for how, q in sql.items():
        cols = ["k", "lv"] if how in ("semi", "anti") else ["k", "lv", "rv"]
        got = hash_join(
            rd.from_pandas(l), rd.from_pandas(r), on="k",
            right_cols=[] if how in ("semi", "anti") else ["rv"], how=how,
            fill_value=fills.get(how), n_buckets=4,
        ).to_pandas()
        want = duckdb.sql(q).fetchdf()
        assert _null_rows(got, cols) == _null_rows(want, cols), how
        for c in cols[1:]:
            assert got[c].dtype == np.int64, (how, c)


def test_hash_join_uint64_keys_above_2_63(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    k = np.array([2**63 + 5, 2**64 - 1, 7, 2**63 + 5], dtype=np.uint64)
    l = pd.DataFrame({"k": k, "lv": np.arange(4, dtype=np.int64)})
    r = pd.DataFrame({"k": np.array([2**63 + 5, 3], dtype=np.uint64),
                      "rv": np.array([10, 30], dtype=np.int64)})
    got = hash_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                    right_cols=["rv"], how="left", fill_value={"rv": -1},
                    n_buckets=4).to_pandas().sort_values("lv")
    assert got["k"].astype(np.uint64).tolist() == k.tolist()
    assert got["rv"].tolist() == [10, -1, -1, 10]


def test_hash_join_semi_anti_partition(ray_session):
    # semi ∪ anti == left, disjoint, and semi keys ⊆ right keys
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    left, right = _join_frames()
    semi = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                     on="k", right_cols=[], how="semi").to_pandas()
    anti = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                     on="k", right_cols=[], how="anti").to_pandas()
    assert len(semi) + len(anti) == len(left)
    assert set(semi["k"]) <= set(right["k"])
    assert set(anti["k"]).isdisjoint(set(right["k"]))
    both = pd.concat([semi, anti])
    cols = ["k", "lv"]
    pd.testing.assert_frame_equal(_sorted(both, cols), _sorted(left, cols))


def test_hash_join_collision_suffix(ray_session):
    # a right column named like a left column gets the suffix
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    left, right = _join_frames()
    right2 = right.rename(columns={"rv": "lv"})
    out = hash_join(rd.from_pandas(left), rd.from_pandas(right2),
                    on="k", right_cols=["lv"]).to_pandas()
    assert "lv_r" in out.columns and "lv" in out.columns


def test_hash_join_empty_right(ray_session):
    # inner → empty; left+fill → all rows with sentinel; anti → all rows
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    left, right = _join_frames()
    empty = right.iloc[:0]
    inner = hash_join(rd.from_pandas(left), rd.from_pandas(empty),
                      on="k", right_cols=["rv"]).to_pandas()
    assert len(inner) == 0
    lj = hash_join(rd.from_pandas(left), rd.from_pandas(empty),
                   on="k", right_cols=["rv"], how="left",
                   fill_value={"rv": -1}).to_pandas()
    assert len(lj) == len(left) and (lj["rv"] == -1).all()
    anti = hash_join(rd.from_pandas(left), rd.from_pandas(empty),
                     on="k", right_cols=[], how="anti").to_pandas()
    assert len(anti) == len(left)


# --------------------------------------------------------------------------
# keyed_running_sum / set_op
# --------------------------------------------------------------------------
def test_running_sum_matches_pandas_incl_negatives(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import keyed_running_sum

    rng = np.random.default_rng(5)
    n = 4000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 97, n),
            "ts": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(rng.permutation(n), unit="s"),
            "value": np.round(rng.normal(0, 50, n), 2),  # negatives included
        }
    )
    out = (
        keyed_running_sum(
            rd.from_pandas(df).repartition(7), by="user_id", ts_col="ts", val_col="value"
        )
        .to_pandas()
        .sort_values(["user_id", "ts_us"])
        .reset_index(drop=True)
    )
    ref = df.copy()
    ref["cents"] = np.round(ref["value"] * 100).astype(np.int64)
    ref = ref.sort_values(["user_id", "ts"]).reset_index(drop=True)
    ref["running_cents"] = ref.groupby("user_id")["cents"].cumsum()
    assert (out["user_id"].to_numpy() == ref["user_id"].to_numpy()).all()
    assert (out["running_cents"].to_numpy() == ref["running_cents"].to_numpy()).all()


def test_set_op_matches_numpy(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import set_op

    rng = np.random.default_rng(9)
    a = rng.integers(0, 500, 3000).astype(np.int64)
    b = rng.integers(250, 750, 3000).astype(np.int64)
    da = rd.from_pandas(pd.DataFrame({"k": a})).repartition(5)
    db = rd.from_pandas(pd.DataFrame({"k": b})).repartition(3)
    got_i = np.sort(set_op(da, db, on="k", op="intersect").to_pandas()["k"].to_numpy())
    got_e = np.sort(set_op(da, db, on="k", op="except").to_pandas()["k"].to_numpy())
    assert (got_i == np.intersect1d(a, b)).all()
    assert (got_e == np.setdiff1d(a, b)).all()
    with pytest.raises(ValueError):
        set_op(da, db, on="k", op="union")


def test_bloom_prefilter_join_identical(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    rng = np.random.default_rng(13)
    left = pd.DataFrame(
        {"k": rng.integers(0, 100_000, 20_000), "x": rng.integers(0, 9, 20_000)}
    )
    right = pd.DataFrame({"k": rng.choice(100_000, 300, replace=False), "y": np.arange(300)})
    dl = rd.from_pandas(left).repartition(6)
    dr = rd.from_pandas(right).repartition(2)
    kw = dict(on="k", right_cols=["y"])
    for how in ("inner", "semi"):
        plain = _sorted(hash_join(dl, dr, how=how, **kw).to_pandas(), ["k", "x"])
        bloomed = _sorted(
            hash_join(dl, dr, how=how, bloom_prefilter=True, **kw).to_pandas(), ["k", "x"]
        )
        pd.testing.assert_frame_equal(plain, bloomed)
    with pytest.raises(ValueError):
        hash_join(dl, dr, how="anti", bloom_prefilter=True, on="k", right_cols=[])


def test_bloom_prefilter_actually_prunes(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import _bloom_filter_left

    rng = np.random.default_rng(17)
    left = rd.from_pandas(pd.DataFrame({"k": rng.integers(0, 1_000_000, 50_000)}))
    right = rd.from_pandas(pd.DataFrame({"k": rng.choice(1_000_000, 100, replace=False)}))
    kept = _bloom_filter_left(left, right, "k", 1 << 16).count()
    # true matches ≈ 50k * 100/1M = 5; FP rate at 100 keys in 64Ki bits ~ tiny.
    assert kept < 1000


def test_bloom_bits_not_multiple_of_64(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    rng = np.random.default_rng(29)
    dl = rd.from_pandas(pd.DataFrame({"k": rng.integers(0, 5000, 4000)}))
    dr = rd.from_pandas(pd.DataFrame({"k": rng.choice(5000, 50, replace=False), "y": np.arange(50)}))
    plain = _sorted(hash_join(dl, dr, on="k", right_cols=["y"], how="semi").to_pandas(), ["k"])
    bloomed = _sorted(
        hash_join(dl, dr, on="k", right_cols=["y"], how="semi",
                  bloom_prefilter=True, bloom_bits=1000).to_pandas(), ["k"]
    )
    pd.testing.assert_frame_equal(plain, bloomed)


def test_running_sum_half_away_rounding(ray_session):
    """DuckDB ROUND is half-away-from-zero; .5-cent values must match."""
    from ethereum_raw_data_crawler_ray.stages.joins import keyed_running_sum

    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-01"]),
            "value": [0.125, -0.125, 0.375, 2.345],
        }
    )
    out = (
        keyed_running_sum(rd.from_pandas(df), by="user_id", ts_col="ts", val_col="value")
        .to_pandas()
        .sort_values(["user_id", "ts_us"])
    )
    # half-away: 12.5→13, -12.5→-13, 37.5→38; 234.5→235 (binary-exact .5s)
    assert out["running_cents"].tolist() == [13, 0, 38, 235]


@pytest.mark.filterwarnings("error::FutureWarning")
def test_set_op_null_keys_sql_semantics(ray_session):
    """SQL set ops treat NULLs as equal: NULL∈both → INTERSECT emits it;
    EXCEPT drops it iff the right side also has one."""
    from ethereum_raw_data_crawler_ray.stages.joins import set_op

    a = rd.from_pandas(pd.DataFrame({"k": [1.0, 2.0, np.nan, np.nan]}))
    b = rd.from_pandas(pd.DataFrame({"k": [2.0, np.nan]}))
    c = rd.from_pandas(pd.DataFrame({"k": [2.0]}))
    i = set_op(a, b, on="k", op="intersect").to_pandas()["k"]
    assert sorted(i.dropna().tolist()) == [2.0] and i.isna().sum() == 1
    e = set_op(a, b, on="k", op="except").to_pandas()["k"]
    assert sorted(e.dropna().tolist()) == [1.0] and e.isna().sum() == 0
    e2 = set_op(a, c, on="k", op="except").to_pandas()["k"]
    assert sorted(e2.dropna().tolist()) == [1.0] and e2.isna().sum() == 1


def test_string_agg_matches_pandas(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import keyed_string_agg

    rng = np.random.default_rng(41)
    n = 3000
    df = pd.DataFrame(
        {
            "k": rng.choice(["ka", "kb", "kc", "kd"], n),
            "v": rng.choice(list("xyz"), n),
            "o": rng.permutation(n),
        }
    )
    out = (
        keyed_string_agg(
            rd.from_pandas(df).repartition(5), by="k", val_col="v", order_col="o", sep="|"
        )
        .to_pandas()
        .set_index("k")["agg"]
    )
    ref = df.sort_values(["k", "o"]).groupby("k")["v"].agg("|".join)
    assert out.to_dict() == ref.to_dict()


def test_string_agg_skips_nulls_like_sql(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import keyed_string_agg

    # STRING_AGG skips NULL values; an all-null key still emits a row
    # with NULL agg (r03 ADVICE: sep.join over None crashed the task).
    df = pd.DataFrame(
        {
            "k": ["a", "a", "a", "b", "b"],
            "v": ["x", None, "y", None, None],
            "o": [1, 2, 3, 1, 2],
        }
    )
    out = (
        keyed_string_agg(rd.from_pandas(df).repartition(2), by="k", val_col="v", order_col="o", sep=",")
        .to_pandas()
        .set_index("k")["agg"]
    )
    assert out["a"] == "x,y"
    assert out["b"] is None or pd.isna(out["b"])


def test_ntile_matches_sql_remainder_rule(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import keyed_ntile

    # key with 10 rows, k=4 → tiles sized 3,3,2,2; key with 2 rows → 1,2
    df = pd.DataFrame(
        {"k": [1] * 10 + [2] * 2, "o": list(range(10)) + [0, 1]}
    )
    out = (
        keyed_ntile(rd.from_pandas(df).repartition(3), by="k", order_col="o", k=4)
        .to_pandas()
        .sort_values(["k", "ord_us"])
    )
    assert out[out["k"] == 1]["tile"].tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    assert out[out["k"] == 2]["tile"].tolist() == [1, 2]


def test_ntile_null_partition_and_k_validation(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import keyed_ntile

    df = pd.DataFrame(
        {"k": [1.0, 1.0, np.nan, np.nan, np.nan, np.nan], "o": [0, 1, 0, 1, 2, 3]}
    )
    out = (
        keyed_ntile(rd.from_pandas(df), by="k", order_col="o", k=2)
        .to_pandas()
        .sort_values(["k", "ord_us"], na_position="last")
    )
    # NULLs are ONE partition of 4 rows → tiles 1,1,2,2 (not all 1s)
    assert out[out["k"].isna()]["tile"].tolist() == [1, 1, 2, 2]
    assert out[out["k"] == 1.0]["tile"].tolist() == [1, 2]
    with pytest.raises(ValueError):
        keyed_ntile(rd.from_pandas(df), by="k", order_col="o", k=0)


def test_running_sum_null_keys_one_partition(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import keyed_running_sum

    df = pd.DataFrame(
        {
            "u": [np.nan, np.nan, 5.0],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-01"]),
            "value": [1.0, 2.0, 7.0],
        }
    )
    out = (
        keyed_running_sum(rd.from_pandas(df), by="u", ts_col="ts", val_col="value")
        .to_pandas()
        .sort_values(["u", "ts_us"], na_position="last")
    )
    # both null-key rows share one running partition: 100 then 300 cents
    assert out[out["u"].isna()]["running_cents"].tolist() == [100, 300]


class TestKeyedMovingAgg:
    def test_window_one_is_identity(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_moving_agg

        df = pd.DataFrame({
            "k": ["a", "a", "b", "a", "b"],
            "ts": pd.to_datetime([1, 2, 1, 3, 2], unit="s"),
            "v": [1.5, -2.25, 3.0, 0.05, -0.005],
        })
        out = keyed_moving_agg(rd.from_pandas(df), by="k", ts_col="ts",
                               val_col="v", window=1).to_pandas()
        cents = {("a", 1): 150, ("a", 2): -225, ("a", 3): 5,
                 ("b", 1): 300, ("b", 2): -1}  # -0.005 → round half away → -1
        for _, r in out.iterrows():
            c = cents[(r["k"], r["ts_us"] // 1_000_000)]
            assert r["mov_sum_cents"] == r["mov_min_cents"] == r["mov_max_cents"] == c
            assert r["mov_n"] == 1

    def test_matches_pandas_rolling(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_moving_agg

        rng = np.random.default_rng(3)
        n = 4000
        df = pd.DataFrame({
            "k": rng.integers(0, 50, n),
            "ts": pd.to_datetime(rng.permutation(n), unit="s"),
            "v": np.round(rng.normal(0, 100, n), 2),
        })
        w = 7
        out = (keyed_moving_agg(rd.from_pandas(df).repartition(8), by="k",
                                ts_col="ts", val_col="v", window=w)
               .to_pandas().sort_values(["k", "ts_us"]).reset_index(drop=True))
        ref = df.copy()
        v100 = ref["v"].to_numpy() * 100.0
        ref["c"] = (np.sign(v100) * np.floor(np.abs(v100) + 0.5)).astype(np.int64)
        ref = ref.sort_values(["k", "ts"]).reset_index(drop=True)
        g = ref.groupby("k", sort=False)["c"]
        assert (out["mov_sum_cents"].to_numpy()
                == g.rolling(w, min_periods=1).sum().to_numpy().astype(np.int64)).all()
        assert (out["mov_min_cents"].to_numpy()
                == g.rolling(w, min_periods=1).min().to_numpy().astype(np.int64)).all()
        assert (out["mov_max_cents"].to_numpy()
                == g.rolling(w, min_periods=1).max().to_numpy().astype(np.int64)).all()

    def test_bad_window_raises(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_moving_agg

        with pytest.raises(ValueError, match="window"):
            keyed_moving_agg(rd.from_pandas(pd.DataFrame({"k": [1]})),
                             by="k", ts_col="k", val_col="k", window=0)


class TestKeyedFrameStats:
    def test_first_last_rank(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_frame_stats

        df = pd.DataFrame({
            "k": ["x", "x", "x", "y"],
            "ts": pd.to_datetime([3, 1, 2, 5], unit="s"),
            "v": [9.0, 1.0, 5.0, 7.0],
        })
        out = (keyed_frame_stats(rd.from_pandas(df), by="k", ts_col="ts",
                                 val_col="v")
               .to_pandas().sort_values(["k", "ts_us"]).reset_index(drop=True))
        assert out["first_cents"].tolist() == [100, 100, 100, 700]
        assert out["last_cents"].tolist() == [900, 900, 900, 700]
        assert out["pct_rank"].tolist() == [0.0, 0.5, 1.0, 0.0]


class TestKeyedLagLead:
    def test_matches_pandas_shift(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_lag_lead

        rng = np.random.default_rng(11)
        n = 3000
        df = pd.DataFrame({
            "k": rng.integers(0, 40, n),
            "ts": pd.to_datetime(rng.permutation(n), unit="s"),
            "v": np.round(rng.normal(0, 100, n), 2),
        })
        out = (keyed_lag_lead(rd.from_pandas(df).repartition(7), by="k",
                              ts_col="ts", val_col="v")
               .to_pandas().sort_values(["k", "ts_us"]).reset_index(drop=True))
        ref = df.copy()
        v100 = ref["v"].to_numpy() * 100.0
        ref["c"] = (np.sign(v100) * np.floor(np.abs(v100) + 0.5)).astype(np.int64)
        ref = ref.sort_values(["k", "ts"]).reset_index(drop=True)
        g = ref.groupby("k", sort=False)["c"]
        lag = g.shift(1).fillna(0).astype(np.int64).to_numpy()
        lead = g.shift(-1).fillna(0).astype(np.int64).to_numpy()
        assert (out["cents"].to_numpy() == ref["c"].to_numpy()).all()
        assert (out["lag_cents"].to_numpy() == lag).all()
        assert (out["lead_cents"].to_numpy() == lead).all()
        assert (out["delta_cents"].to_numpy()
                == ref["c"].to_numpy() - lag).all()

    def test_singleton_and_null_keys(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_lag_lead

        df = pd.DataFrame({
            "k": [np.nan, 7.0, np.nan],
            "ts": pd.to_datetime([1, 2, 3], unit="s"),
            "v": [1.0, 2.0, 3.0],
        })
        out = (keyed_lag_lead(rd.from_pandas(df), by="k", ts_col="ts",
                              val_col="v")
               .to_pandas().sort_values("ts_us").reset_index(drop=True))
        # singleton key: both neighbors default to 0, delta = value
        row7 = out[out["k"] == 7.0].iloc[0]
        assert (row7["lag_cents"], row7["lead_cents"], row7["delta_cents"]) \
            == (0, 0, 200)
        # both null-key rows form ONE partition (SQL PARTITION BY)
        nulls = out[out["k"].isna()].sort_values("ts_us")
        assert nulls["lag_cents"].tolist() == [0, 100]
        assert nulls["lead_cents"].tolist() == [300, 0]


class TestKeyedRank:
    def test_ties_and_dense_gaps(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_rank

        df = pd.DataFrame({
            "k": ["x"] * 4 + ["y"],
            "id": [1, 2, 3, 4, 5],
            "ts": pd.to_datetime([1, 2, 3, 4, 5], unit="s"),
            "v": [5.0, 5.0, 3.0, 9.0, 1.0],
        })
        out = (keyed_rank(rd.from_pandas(df), by="k", id_col="id",
                          ts_col="ts", val_col="v")
               .to_pandas().set_index("id"))
        # x: 900 → rank 1; the 500-tie → rank 2 both; 300 → rank 4 (gap)
        assert out.loc[4, "rnk"] == 1 and out.loc[4, "drnk"] == 1
        assert out.loc[1, "rnk"] == out.loc[2, "rnk"] == 2
        assert out.loc[1, "drnk"] == out.loc[2, "drnk"] == 2
        assert out.loc[3, "rnk"] == 4          # RANK leaves a gap
        assert out.loc[3, "drnk"] == 3         # DENSE_RANK doesn't
        assert out.loc[5, "rnk"] == out.loc[5, "drnk"] == 1  # own partition

    def test_matches_pandas_rank_and_partition_invariance(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_rank

        rng = np.random.default_rng(5)
        n = 3000
        df = pd.DataFrame({
            "k": rng.choice(["a", "b", "c"], n),
            "id": np.arange(n),
            "ts": pd.to_datetime(np.arange(n), unit="s"),
            # coarse grid → plenty of genuine ties
            "v": rng.integers(0, 40, n) / 4.0,
        })
        outs = []
        for parts in (3, 17):
            out = (keyed_rank(rd.from_pandas(df).repartition(parts), by="k",
                              id_col="id", ts_col="ts", val_col="v")
                   .to_pandas().sort_values("id").reset_index(drop=True))
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        ref = df.copy()
        ref["c"] = (ref["v"] * 100).round().astype(np.int64)
        g = ref.groupby("k", sort=False)["c"]
        got = outs[0].sort_values("id")
        assert (got["rnk"].to_numpy()
                == g.rank(method="min", ascending=False).to_numpy()).all()
        assert (got["drnk"].to_numpy()
                == g.rank(method="dense", ascending=False).to_numpy()).all()


class TestNullCountInvariantRouting:
    """An int key column converts to float64 only in batches that
    contain a null — before _key_for_hash, the same key hashed down
    different paths in different batches, splitting one key across
    buckets (windows) or Bloom-dropping true matches (joins)."""

    @staticmethod
    def _two_block_ds(keys_a, keys_b, vals_a, vals_b):
        import pyarrow as _pa
        import ray.data as rd

        ta = _pa.table({"k": _pa.array(keys_a, type=_pa.int64()),
                        "ts": _pa.array(range(len(keys_a)), type=_pa.int64()),
                        "v": _pa.array(vals_a, type=_pa.float64())})
        tb = _pa.table({"k": _pa.array(keys_b, type=_pa.int64()),
                        "ts": _pa.array(range(100, 100 + len(keys_b)),
                                        type=_pa.int64()),
                        "v": _pa.array(vals_b, type=_pa.float64())})
        return rd.from_arrow([ta, tb])

    def test_window_key_not_split_by_null_batch(self, ray_session):
        import pandas as pd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_lag_lead

        # key 7 appears in a null-free batch AND in a batch with a null:
        # both rows must land in ONE bucket so lag chains across them
        ds = self._two_block_ds([5, 6, 7], [7, None, 5],
                                [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        out = (keyed_lag_lead(ds, by="k", ts_col="ts", val_col="v")
               .to_pandas())
        k7 = out[out["k"] == 7].sort_values("ts_us")
        assert k7["lag_cents"].tolist() == [0, 300]   # second row SEES the first
        assert k7["lead_cents"].tolist() == [400, 0]
        k5 = out[out["k"] == 5].sort_values("ts_us")
        assert k5["lag_cents"].tolist() == [0, 100]

    def test_bloom_join_no_false_negative_on_null_batch(self, ray_session):
        import pandas as pd
        import pyarrow as _pa
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import hash_join

        # left: one null-free block + one block with a null key; right
        # null-free — bloom build and probe must hash identically
        la = _pa.table({"k": _pa.array([3, 4], type=_pa.int64())})
        lb = _pa.table({"k": _pa.array([5, None], type=_pa.int64())})
        left = rd.from_arrow([la, lb])
        right = rd.from_pandas(pd.DataFrame({"k": [3, 5, 9], "y": [1, 2, 3]}))
        got = hash_join(left, right, on="k", right_cols=["y"], how="inner",
                        bloom_prefilter=True).to_pandas()
        assert sorted(got["k"].tolist()) == [3, 5]  # 5 must survive the bloom

    def test_hash_join_null_keys_never_match(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import hash_join

        left = rd.from_pandas(pd.DataFrame(
            {"k": ["a", None, "b"], "x": [1, 2, 3]}))
        right = rd.from_pandas(pd.DataFrame(
            {"k": ["a", None], "y": [10, 20]}))
        inner = hash_join(left, right, on="k", right_cols=["y"],
                          how="inner").to_pandas()
        assert sorted(inner["k"].tolist()) == ["a"]  # NULL≠NULL (SQL)
        semi = hash_join(left, right, on="k", right_cols=[],
                         how="semi").to_pandas()
        assert sorted(semi["k"].tolist()) == ["a"]
        anti = hash_join(left, right, on="k", right_cols=[],
                         how="anti").to_pandas()
        # NOT EXISTS keeps the left's null-key row: it matches nothing
        assert sorted(anti["k"].tolist(), key=repr) == ["b", None]

    def test_cents_tag_rejects_null_values_loudly(self, ray_session):
        import numpy as np
        import pandas as pd
        import pytest as _pytest
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import keyed_lag_lead

        df = pd.DataFrame({"k": [1, 1], "ts": [1, 2], "v": [1.0, np.nan]})
        with _pytest.raises(Exception, match="not representable"):
            keyed_lag_lead(rd.from_pandas(df), by="k", ts_col="ts",
                           val_col="v").to_pandas()


class TestLatestPerKey:
    def test_matches_pandas_and_partition_invariant(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import latest_per_key

        rng = np.random.default_rng(17)
        n = 3000
        df = pd.DataFrame({
            "k": rng.integers(0, 80, n),
            "ts": pd.to_datetime(rng.permutation(n), unit="s"),
            "payload": rng.normal(size=n),
            "tag": rng.choice(["p", "q"], n),
        })
        ref = (df.sort_values(["k", "ts"]).groupby("k").tail(1)
               .sort_values("k").reset_index(drop=True))
        for parts in (2, 13):
            out = (latest_per_key(rd.from_pandas(df).repartition(parts),
                                  by="k", ts_col="ts")
                   .to_pandas().sort_values("k").reset_index(drop=True))
            assert len(out) == df["k"].nunique()
            assert (out["k"].to_numpy() == ref["k"].to_numpy()).all()
            assert (out["payload"].to_numpy() == ref["payload"].to_numpy()).all()
            assert (out["tag"].to_numpy() == ref["tag"].to_numpy()).all()
            assert (out["ts_us"].to_numpy()
                    == ref["ts"].astype("int64").to_numpy() // 1000).all()

    def test_null_key_forms_one_partition(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import latest_per_key

        df = pd.DataFrame({
            "k": [np.nan, 1.0, np.nan],
            "ts": pd.to_datetime([1, 2, 3], unit="s"),
            "x": [10, 20, 30],
        })
        out = latest_per_key(rd.from_pandas(df), by="k", ts_col="ts").to_pandas()
        assert len(out) == 2  # one null-key row (the newest) + key 1
        assert out[out["k"].isna()]["x"].tolist() == [30]


class TestFunnelStages:
    def _ds(self, rows):
        import pandas as pd
        import ray.data as rd

        df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        return rd.from_pandas(df)

    def test_depths_stalls_and_order(self, ray_session):
        import numpy as np

        from ethereum_raw_data_crawler_ray.stages.joins import funnel_stages

        rows = [
            # u1: full funnel
            (1, 100, "view"), (1, 200, "click"), (1, 300, "purchase"),
            # u2: clicks BEFORE the first view only -> stalls at depth 1
            (2, 500, "click"), (2, 600, "view"), (2, 550, "click"),
            # u3: view+click, purchase before click -> depth 2
            (3, 100, "view"), (3, 400, "click"), (3, 200, "purchase"),
            # u4: no view at all -> absent (anchored funnel)
            (4, 100, "click"), (4, 200, "purchase"),
            # u5: same-ts progression counts (ts >= prev)
            (5, 700, "view"), (5, 700, "click"), (5, 700, "purchase"),
            # u1 noise: later views don't move t1
            (1, 50, "click"), (1, 1000, "view"),
        ]
        out = (funnel_stages(self._ds(rows), user="user_id", ts_col="ts",
                             type_col="event_type",
                             stages=["view", "click", "purchase"])
               .to_pandas().set_index("user_id").sort_index())
        assert sorted(out.index) == [1, 2, 3, 5]
        assert out.loc[1, "depth"] == 3 and out.loc[1, "t1_us"] == 100
        assert out.loc[1, "t2_us"] == 200 and out.loc[1, "t3_us"] == 300
        assert out.loc[2, "depth"] == 1 and np.isnan(out.loc[2, "t2_us"])
        assert out.loc[3, "depth"] == 2 and np.isnan(out.loc[3, "t3_us"])
        assert out.loc[5, "depth"] == 3 and out.loc[5, "t3_us"] == 700

    def test_partition_invariance(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import funnel_stages

        rng = np.random.default_rng(9)
        n = 3000
        df = pd.DataFrame({
            "user_id": rng.integers(0, 80, n),
            "ts": pd.to_datetime(rng.integers(0, 10**9, n), unit="us"),
            "event_type": rng.choice(["view", "click", "purchase"], n),
        })
        outs = [
            funnel_stages(rd.from_pandas(df).repartition(k),
                          user="user_id", ts_col="ts",
                          type_col="event_type",
                          stages=["view", "click", "purchase"],
                          n_buckets=b)
            .to_pandas().sort_values("user_id").reset_index(drop=True)
            for k, b in ((1, 1), (9, 16))
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestCohortRetention:
    def test_matches_bruteforce(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import (
            cohort_retention,
        )

        rng = np.random.default_rng(21)
        n = 4000
        W = 604_800_000_000
        df = pd.DataFrame({
            "user_id": rng.integers(0, 120, n),
            "ts": pd.to_datetime(
                rng.integers(0, 20 * W, n), unit="us"),
        })
        out = cohort_retention(rd.from_pandas(df).repartition(6),
                               user="user_id", ts_col="ts")
        us = df["ts"].astype("int64") // 1000 if df["ts"].dt.tz else \
            df["ts"].values.astype("datetime64[us]").astype(np.int64)
        ref = pd.DataFrame({"u": df["user_id"], "wk": us // W})
        ref["cohort"] = ref.groupby("u")["wk"].transform("min")
        ref["week_off"] = ref["wk"] - ref["cohort"]
        exp = (ref.drop_duplicates(["u", "cohort", "week_off"])
               .groupby(["cohort", "week_off"]).size()
               .rename("n_users").reset_index())
        m = out.merge(exp, on=["cohort", "week_off"],
                      suffixes=("", "_ref"), how="outer")
        assert len(m) == len(out) == len(exp)
        assert (m["n_users"] == m["n_users_ref"]).all()
        # bucket invariance
        out1 = cohort_retention(rd.from_pandas(df), user="user_id",
                                ts_col="ts", n_buckets=1)
        pd.testing.assert_frame_equal(out, out1)


class TestSessionizeIds:
    def test_ids_and_consistency_with_q32_counts(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import sessionize_ids

        GAP = 1_800_000_000
        rows = [
            # u1: 3 events in one session, then a gap -> session 2
            (10, 1, 0), (11, 1, GAP), (12, 1, 2 * GAP),
            (13, 1, 4 * GAP + 1),
            # u2: single event
            (20, 2, 0),
            # u3: tie timestamps order by event_id
            (31, 3, 5), (30, 3, 5), (32, 3, 5 + GAP + 1),
        ]
        df = pd.DataFrame(rows, columns=["event_id", "user_id", "us"])
        df["ts"] = pd.to_datetime(df["us"], unit="us")
        out = (sessionize_ids(rd.from_pandas(df[["event_id", "user_id",
                                                 "ts"]]),
                              user="user_id", ts_col="ts",
                              id_col="event_id")
               .to_pandas().set_index("event_id").sort_index())
        # u1: gaps of exactly GAP do NOT split (> means strictly over)
        assert out.loc[[10, 11, 12], "session_no"].tolist() == [1, 1, 1]
        assert out.loc[13, "session_no"] == 2
        assert out.loc[20, "session_no"] == 1
        assert out.loc[[30, 31], "session_no"].tolist() == [1, 1]
        assert out.loc[32, "session_no"] == 2

    def test_partition_invariance_and_counts(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.joins import sessionize_ids

        rng = np.random.default_rng(33)
        n = 3000
        df = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 60, n),
            "ts": pd.to_datetime(rng.integers(0, 10**13, n), unit="us"),
        })
        outs = [
            sessionize_ids(rd.from_pandas(df).repartition(k),
                           user="user_id", ts_col="ts",
                           id_col="event_id", n_buckets=b)
            .to_pandas().sort_values("event_id").reset_index(drop=True)
            for k, b in ((1, 1), (8, 16))
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # max session_no per user == brute-force session count
        us = df["ts"].values.astype("datetime64[us]").astype(np.int64)
        ref = df.assign(us=us).sort_values(["user_id", "us", "event_id"])
        cnt = {}
        for u, grp in ref.groupby("user_id"):
            d = np.diff(grp["us"].to_numpy())
            cnt[u] = 1 + int((d > 1_800_000_000).sum())
        got = outs[0].groupby("user_id")["session_no"].max().to_dict()
        assert got == cnt


def test_hash_join_outer_fill_collision_keeps_left_dtype(ray_session):
    # fill target is a LEFT int column whose NAME also exists on the
    # right (renamed away with the suffix): the dtype source must be
    # the left frame, not the right's float column
    from ethereum_raw_data_crawler_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64),
                         "lv": np.array([10, 20], dtype=np.int64)})
    right = pd.DataFrame({"k": np.array([2, 3], dtype=np.int64),
                          "lv": np.array([0.5, 0.7], dtype=np.float64)})
    out = hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        on="k", right_cols=["lv"], how="outer",
        fill_value={"lv": -1, "lv_r": -1.0},
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert out["lv"].dtype == np.int64          # left dtype preserved
    assert out["lv_r"].dtype == np.float64
    assert out.loc[out["k"] == 3, "lv"].iloc[0] == -1
    assert out.loc[out["k"] == 1, "lv_r"].iloc[0] == -1.0


def test_cohort_retention_negative_epochs_floor(ray_session):
    # pre-1970 timestamps: week bucketing must FLOOR (calendar weeks),
    # matching the brute-force python floor reference
    from ethereum_raw_data_crawler_ray.stages.joins import cohort_retention

    W = 604_800_000_000
    rows = [
        (1, -3 * W - 5),   # floor -> week -4
        (1, -5),           # floor -> week -1
        (1, 5),            # week 0
        (2, -W),           # exact multiple -> week -1
        (2, 0),            # week 0
    ]
    df = pd.DataFrame(rows, columns=["user_id", "us"])
    df["ts"] = pd.to_datetime(df["us"], unit="us")
    out = cohort_retention(rd.from_pandas(df[["user_id", "ts"]]),
                           user="user_id", ts_col="ts")
    ref = df.assign(wk=df["us"] // W)
    ref["cohort"] = ref.groupby("user_id")["wk"].transform("min")
    ref["week_off"] = ref["wk"] - ref["cohort"]
    exp = (ref.drop_duplicates(["user_id", "cohort", "week_off"])
           .groupby(["cohort", "week_off"]).size()
           .rename("n_users").reset_index())
    m = out.merge(exp, on=["cohort", "week_off"], suffixes=("", "_r"),
                  how="outer")
    assert len(m) == len(out) == len(exp)
    assert (m["n_users"] == m["n_users_r"]).all()
    assert out["cohort"].min() == -4


class TestTransitionAndOverlap:
    def test_transition_counts_bruteforce(self, ray_session):
        from ethereum_raw_data_crawler_ray.stages.joins import (
            transition_counts,
        )

        rng = np.random.default_rng(27)
        n = 2500
        df = pd.DataFrame({
            "user_id": rng.integers(0, 50, n),
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(rng.integers(0, 10**12, n), unit="us"),
            "event_type": rng.choice(["a", "b", "c"], n),
        })
        out = transition_counts(rd.from_pandas(df).repartition(5),
                                user="user_id", ts_col="ts",
                                id_col="event_id", type_col="event_type")
        us = df["ts"].values.astype("datetime64[us]").astype(np.int64)
        ref = df.assign(us=us).sort_values(["user_id", "us", "event_id"])
        uid = ref["user_id"].to_numpy()
        typ = ref["event_type"].to_numpy()
        same = uid[1:] == uid[:-1]
        exp = (pd.DataFrame({"from_type": typ[:-1][same],
                             "to_type": typ[1:][same]})
               .groupby(["from_type", "to_type"]).size()
               .rename("n").reset_index())
        m = out.merge(exp, on=["from_type", "to_type"],
                      suffixes=("", "_r"), how="outer")
        assert len(m) == len(out) == len(exp)
        assert (m["n"] == m["n_r"]).all()
        # invariance across bucket counts
        out1 = transition_counts(rd.from_pandas(df), user="user_id",
                                 ts_col="ts", id_col="event_id",
                                 type_col="event_type", n_buckets=1)
        pd.testing.assert_frame_equal(out, out1)

    def test_type_overlap_bruteforce(self, ray_session):
        from ethereum_raw_data_crawler_ray.stages.joins import (
            type_overlap_counts,
        )

        rng = np.random.default_rng(29)
        n = 2000
        df = pd.DataFrame({
            "user_id": rng.integers(0, 70, n),
            "event_type": rng.choice(["a", "b", "c", "d"], n),
        })
        out = type_overlap_counts(rd.from_pandas(df).repartition(4),
                                  user="user_id", type_col="event_type")
        d = df.drop_duplicates()
        m = d.merge(d, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        exp = (m.groupby(["event_type_a", "event_type_b"]).size()
               .rename("n_users").reset_index())
        exp.columns = ["type_a", "type_b", "n_users"]
        mm = out.merge(exp, on=["type_a", "type_b"],
                       suffixes=("", "_r"), how="outer")
        assert len(mm) == len(out) == len(exp)
        assert (mm["n_users"] == mm["n_users_r"]).all()


def test_rolling_active_users_bruteforce(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import (
        rolling_active_users,
    )

    rng = np.random.default_rng(37)
    n = 3000
    D = 86_400_000_000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 40, n),
        # sparse over ~60 days so some spine days have gaps
        "ts": pd.to_datetime(rng.integers(0, 60 * D, n), unit="us"),
    })
    out = rolling_active_users(rd.from_pandas(df).repartition(5),
                               user="user_id", ts_col="ts",
                               window_days=7)
    us = df["ts"].values.astype("datetime64[us]").astype(np.int64)
    d = pd.DataFrame({"u": df["user_id"], "day": us // D}).drop_duplicates()
    spine = sorted(d["day"].unique())
    exp = []
    for s in spine:
        w = d[(d["day"] >= s - 6) & (d["day"] <= s)]
        exp.append((s, w["u"].nunique()))
    exp = pd.DataFrame(exp, columns=["day", "n_active"])
    m = out.merge(exp, on="day", suffixes=("", "_r"), how="outer")
    assert len(m) == len(out) == len(exp)
    assert (m["n_active"] == m["n_active_r"]).all()
    # invariance across bucket counts
    out1 = rolling_active_users(rd.from_pandas(df), user="user_id",
                                ts_col="ts", window_days=7, n_buckets=1)
    pd.testing.assert_frame_equal(out, out1)


class TestNullUserContracts:
    """Second-review-pass pins: null-user semantics across the new
    event operators match their SQL oracles."""

    def _df(self):
        rng = np.random.default_rng(41)
        n = 400
        df = pd.DataFrame({
            "user_id": pd.array(
                [None if i % 7 == 0 else int(v) for i, v in
                 enumerate(rng.integers(0, 12, n))], dtype="Int64"),
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(rng.integers(0, 10**13, n), unit="us"),
            "event_type": rng.choice(["a", "b", "c"], n),
        })
        return df

    def test_rolling_active_users_excludes_nulls_stable_buckets(
            self, ray_session):
        import duckdb

        from ethereum_raw_data_crawler_ray.stages.joins import (
            rolling_active_users,
        )

        df = self._df()
        outs = [rolling_active_users(
                    rd.from_pandas(df[["user_id", "ts"]]).repartition(k),
                    user="user_id", ts_col="ts", window_days=7,
                    n_buckets=b)
                for k, b in ((1, 1), (6, 16))]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        sql = duckdb.sql("""
            WITH d AS (SELECT DISTINCT user_id,
                              epoch_us(ts) // 86400000000 AS day
                       FROM df WHERE user_id IS NOT NULL),
            spine AS (SELECT DISTINCT day FROM d)
            SELECT s.day, CAST(COUNT(DISTINCT d.user_id) AS BIGINT)
                     AS n_active
            FROM spine s JOIN d ON d.day BETWEEN s.day - 6 AND s.day
            GROUP BY s.day ORDER BY s.day
        """).fetchdf()
        m = outs[0].merge(sql, on="day", suffixes=("", "_r"), how="outer")
        assert len(m) == len(outs[0]) == len(sql)
        assert (m["n_active"] == m["n_active_r"]).all()

    def test_type_overlap_null_users_pair_nothing(self, ray_session):
        import duckdb

        from ethereum_raw_data_crawler_ray.stages.joins import (
            type_overlap_counts,
        )

        df = self._df()
        out = type_overlap_counts(
            rd.from_pandas(df[["user_id", "event_type"]]).repartition(4),
            user="user_id", type_col="event_type")
        sql = duckdb.sql("""
            WITH d AS (SELECT DISTINCT user_id, event_type FROM df)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM d a JOIN d b
              ON a.user_id = b.user_id AND a.event_type < b.event_type
            GROUP BY 1, 2 ORDER BY 1, 2
        """).fetchdf()
        m = out.merge(sql, on=["type_a", "type_b"], suffixes=("", "_r"),
                      how="outer")
        assert len(m) == len(out) == len(sql)
        assert (m["n_users"] == m["n_users_r"]).all()

    def test_transition_null_users_one_partition(self, ray_session):
        import duckdb

        from ethereum_raw_data_crawler_ray.stages.joins import (
            transition_counts,
        )

        df = self._df()
        out = transition_counts(
            rd.from_pandas(df).repartition(3),
            user="user_id", ts_col="ts", id_col="event_id",
            type_col="event_type")
        sql = duckdb.sql("""
            WITH o AS (
                SELECT event_type,
                       LEAD(event_type) OVER
                         (PARTITION BY user_id
                          ORDER BY epoch_us(ts), event_id) AS next_type
                FROM df)
            SELECT event_type AS from_type, next_type AS to_type,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM o WHERE next_type IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """).fetchdf()
        m = out.merge(sql, on=["from_type", "to_type"],
                      suffixes=("", "_r"), how="outer")
        assert len(m) == len(out) == len(sql)
        assert (m["n"] == m["n_r"]).all()

    def test_hash_join_rename_collision_fails_loud(self, ray_session):
        from ethereum_raw_data_crawler_ray.stages.joins import hash_join

        left = pd.DataFrame({"k": [1], "v": [1], "v_r": [2]})
        right = pd.DataFrame({"k": [1], "v": [3.0]})
        with pytest.raises(ValueError, match="collides"):
            hash_join(rd.from_pandas(left), rd.from_pandas(right),
                      on="k", right_cols=["v"])


def test_session_stats_consistent_with_ids(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import (
        session_stats,
        sessionize_ids,
    )

    rng = np.random.default_rng(53)
    n = 2000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 40, n),
        "ts": pd.to_datetime(rng.integers(0, 10**13, n), unit="us"),
        "value": np.round(rng.uniform(0, 100, n), 2),
    })
    stats = (session_stats(rd.from_pandas(df).repartition(4),
                           user="user_id", ts_col="ts",
                           id_col="event_id", val_col="value")
             .to_pandas())
    ids = (sessionize_ids(rd.from_pandas(df[["event_id", "user_id",
                                             "ts"]]),
                          user="user_id", ts_col="ts", id_col="event_id")
           .to_pandas())
    # session populations agree between the two operators
    ref = (ids.groupby(["user_id", "session_no"]).size()
           .rename("n_events").reset_index())
    m = stats.merge(ref, on=["user_id", "session_no"],
                    suffixes=("", "_r"), how="outer")
    assert len(m) == len(stats) == len(ref)
    assert (m["n_events"] == m["n_events_r"]).all()
    # exact cents sums and sane durations
    cents = np.round(df["value"] * 100).astype(np.int64)
    assert stats["sum_value_cents"].sum() == cents.sum()
    assert (stats["duration_us"] >= 0).all()
    assert (stats["t_end_us"] >= stats["t_start_us"]).all()
    # partition invariance
    stats1 = (session_stats(rd.from_pandas(df), user="user_id",
                            ts_col="ts", id_col="event_id",
                            val_col="value", n_buckets=1)
              .to_pandas())
    a = stats.sort_values(["user_id", "session_no"]).reset_index(drop=True)
    b = stats1.sort_values(["user_id", "session_no"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_cohort_retention_normalized(ray_session):
    from ethereum_raw_data_crawler_ray.stages.joins import cohort_retention

    rng = np.random.default_rng(59)
    n = 2000
    W = 604_800_000_000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 80, n),
        "ts": pd.to_datetime(rng.integers(0, 15 * W, n), unit="us"),
    })
    out = cohort_retention(rd.from_pandas(df).repartition(4),
                           user="user_id", ts_col="ts", normalize=True)
    # week-0 rows are the cohort sizes with retention exactly 1.0
    z = out[out["week_off"] == 0]
    assert (z["n_users"] == z["cohort_size"]).all()
    assert (z["retention"] == 1.0).all()
    # every cell bounded by its cohort size; division is exact n/size
    assert (out["n_users"] <= out["cohort_size"]).all()
    assert np.array_equal(
        out["retention"].to_numpy(),
        out["n_users"].to_numpy(np.float64)
        / out["cohort_size"].to_numpy(np.float64))


class TestExchange:
    """``exchange`` is the one key→bucket decision: every row of a key
    lands in one bucket whatever the batch it arrives in."""

    @staticmethod
    def _key_buckets(ds, keys, n_buckets=7):
        from ethereum_raw_data_crawler_ray.stages.joins import exchange

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            out = g[keys].drop_duplicates().copy()
            out["bucket"] = g["__bucket"].iloc[0] if len(g) else 0
            return out

        return exchange(ds, keys, per_bucket, n_buckets=n_buckets).to_pandas()

    def test_nullable_int_key_one_bucket_across_null_batches(self, ray_session):
        import pyarrow as pa

        # key 3 and key 1 arrive in a null-free batch AND in a batch with
        # nulls (which pandas would float); each key — null included —
        # must come out of exactly one bucket
        ta = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
        tb = pa.table({"k": pa.array([3, None, 1, None], pa.int64())})
        out = self._key_buckets(rd.from_arrow([ta, tb]), ["k"])
        per_key = out.groupby("k", dropna=False).size()
        assert len(per_key) == 4  # 1, 2, 3, null
        assert (per_key == 1).all()

    def test_two_column_key(self, ray_session):
        import pyarrow as pa

        from ethereum_raw_data_crawler_ray.stages.joins import _bucket_of

        rng = np.random.default_rng(5)
        a = rng.integers(0, 6, 300)
        b = rng.integers(0, 6, 300)
        tabs = [pa.table({"a": a[i:i + 100], "b": b[i:i + 100]})
                for i in range(0, 300, 100)]
        out = self._key_buckets(rd.from_arrow(tabs), ["a", "b"])
        assert not out.duplicated(["a", "b"]).any()
        assert len(out) == len(set(zip(a, b)))
        want = _bucket_of([out["a"].to_numpy(np.int64),
                           out["b"].to_numpy(np.int64)], 7)
        assert (out["bucket"].to_numpy() == want).all()
        assert len(np.unique(want)) > 1  # the pairs do spread out
        # (a, b) and (b, a) are different keys and hash apart
        x = np.array([1, 2], np.int64)
        y = np.array([2, 1], np.int64)
        assert _bucket_of([x, y], 1 << 20)[0] != _bucket_of([y, x], 1 << 20)[0]

    def test_string_key(self, ray_session):
        import pyarrow as pa

        ta = pa.table({"k": pa.array(["x", "y", None, "z"])})
        tb = pa.table({"k": pa.array(["z", "x", None, "w"])})
        out = self._key_buckets(rd.from_arrow([ta, tb]), ["k"])
        per_key = out.groupby("k", dropna=False).size()
        assert len(per_key) == 5  # w, x, y, z, null
        assert (per_key == 1).all()

    def test_empty_input(self, ray_session):
        import pyarrow as pa

        empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        assert len(self._key_buckets(empty, ["k"])) == 0

    def test_uint64_key_above_2_63(self, ray_session):
        import pyarrow as pa

        from ethereum_raw_data_crawler_ray.functions.hashing import mix64

        # raw url hashes fill all 64 bits: keys >= 2^63 must hash as
        # their uint64 bits, one bucket per key across batches
        big = [2**63 + 5, 2**64 - 1, 7]
        ta = pa.table({"k": pa.array(big, pa.uint64())})
        tb = pa.table({"k": pa.array([7, 2**64 - 1], pa.uint64())})
        out = self._key_buckets(rd.from_arrow([ta, tb]), ["k"])
        assert sorted(out["k"].astype(np.uint64).tolist()) == sorted(big)
        want = mix64(out["k"].to_numpy(np.uint64)) % np.uint64(7)
        assert (out["bucket"].to_numpy(np.uint64) == want).all()

    def test_bucket_of_is_mix64_on_int_keys(self):
        from ethereum_raw_data_crawler_ray.functions.hashing import mix64
        from ethereum_raw_data_crawler_ray.stages.joins import _bucket_of

        x = np.random.default_rng(9).integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10_000,
            dtype=np.int64)
        for n in (1, 7, 16, 1000):
            assert (_bucket_of(x, n)
                    == (mix64(x) % np.uint64(n)).astype(np.int64)).all()


def test_funnel_string_users_keep_string_dtype(ray_session):
    # buckets whose users never reach stage 1 return the empty frame; its
    # user column must be strings like every other block, not int64
    import ray

    from ethereum_raw_data_crawler_ray.stages.joins import (
        _bucket_of,
        funnel_stages,
    )

    users = [f"u{i}" for i in range(12)]
    rows = [("u0", 1, "view"), ("u0", 2, "buy"), ("u1", 3, "view")]
    rows += [(u, 10 + i, "buy") for i, u in enumerate(users[2:])]
    df = pd.DataFrame(rows, columns=["user", "ts", "type"])
    n = 16
    b = _bucket_of(np.array(users, dtype=object), n)
    # precondition: some bucket holds only users without a "view" event
    assert set(b[2:]) - set(b[:2])

    def blocks(frame):
        ds = funnel_stages(rd.from_pandas(frame).repartition(4), user="user",
                           ts_col="ts", type_col="type",
                           stages=["view", "buy"], n_buckets=n)
        return ray.get(ds.to_pandas_refs())

    # no user reaches stage 1: every bucket returns the empty frame
    none = blocks(df[df["type"] == "buy"])
    assert none and all(len(x) == 0 for x in none)
    for x in none + blocks(df):
        assert x["user"].dtype == object
        assert all(isinstance(u, str) for u in x["user"])
    out = pd.concat(blocks(df)).sort_values("user").reset_index(drop=True)
    assert out["user"].tolist() == ["u0", "u1"]
    assert out["depth"].tolist() == [2, 1]
