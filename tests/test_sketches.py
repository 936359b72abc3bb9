"""Tests for stages/sketches.py: exact quantiles, heavy hitters, HLL."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ethereum_raw_data_crawler_ray.stages.sketches import (
    exact_quantiles,
    heavy_hitters,
    hll_distinct,
)

RNG = np.random.default_rng(11)


def _duck_rank(q: float, n: int) -> int:
    return max(0, int(np.ceil(q * n)) - 1)


class TestExactQuantiles:
    def test_matches_sorted_reference(self):
        vals = np.round(RNG.lognormal(4.0, 1.0, size=20_000), 2)
        ds = rd.from_pandas(pd.DataFrame({"x": vals})).repartition(8)
        qs = [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0]
        out = exact_quantiles(ds, "x", qs, n_hist=1 << 12)
        sv = np.sort(vals)
        for q, got in zip(out["q"], out["value"]):
            assert got == round(float(sv[_duck_rank(q, len(sv))]), 6), q

    def test_single_value_column(self):
        ds = rd.from_pandas(pd.DataFrame({"x": np.full(100, 7.77)}))
        out = exact_quantiles(ds, "x", [0.5])
        assert out["value"].iloc[0] == 7.77

    def test_coarse_histogram_still_exact(self):
        """Exactness must not depend on histogram resolution — a tiny
        n_hist only grows the pass-2 fetch, never changes the answer."""
        vals = np.round(RNG.uniform(0, 1000, size=5_000), 2)
        ds = rd.from_pandas(pd.DataFrame({"x": vals})).repartition(4)
        a = exact_quantiles(ds, "x", [0.5, 0.9], n_hist=16)
        b = exact_quantiles(ds, "x", [0.5, 0.9], n_hist=1 << 16)
        pd.testing.assert_frame_equal(a, b)


class TestQuantileGuard:
    def test_oversized_refinement_raises(self):
        """A hot bucket beyond max_fetch must fail loudly with advice,
        not silently pull the rows to the driver."""
        vals = np.round(np.full(4_000, 3.33) + RNG.uniform(0, 0.001, 4_000), 2)
        ds = rd.from_pandas(pd.DataFrame({"x": vals + RNG.integers(0, 2, 4_000) * 500}))
        with pytest.raises(ValueError, match="raise n_hist"):
            exact_quantiles(ds, "x", [0.25], n_hist=4, max_fetch=10)


class TestQuantileShortcut:
    def test_width1_shortcut_equals_refinement(self):
        """When buckets resolve to single fixed-point values the
        histogram-only path must equal the two-pass refinement."""
        vals = np.round(RNG.uniform(0, 100, size=6_000), 2)
        ds = rd.from_pandas(pd.DataFrame({"x": vals})).repartition(5)
        qs = [0.1, 0.5, 0.99]
        a = exact_quantiles(ds, "x", qs, n_hist=1 << 16)  # width == 1
        b = exact_quantiles(ds, "x", qs, n_hist=1 << 10)  # refinement
        pd.testing.assert_frame_equal(a, b)


class TestGroupedQuantiles:
    def test_matches_per_group_reference(self):
        from ethereum_raw_data_crawler_ray.stages.sketches import grouped_quantiles

        df = pd.DataFrame(
            {
                "g": RNG.choice(["a", "b", "c"], size=9_000, p=[0.6, 0.3, 0.1]),
                "x": np.round(RNG.lognormal(3.0, 0.8, size=9_000), 2),
            }
        )
        out = grouped_quantiles(
            rd.from_pandas(df).repartition(6), "g", "x", [0.1, 0.5, 0.95], n_hist=1 << 10
        )
        for g, sub in df.groupby("g"):
            sv = np.sort(sub["x"].to_numpy())
            for q in (0.1, 0.5, 0.95):
                want = round(float(sv[_duck_rank(q, len(sv))]), 6)
                got = out[(out["g"] == g) & (out["q"] == q)]["value"].iloc[0]
                assert got == want, (g, q)


class TestHeavyHitters:
    def test_exact_topk_on_zipf_with_truncation(self):
        """Per-batch truncation to 32 counters on zipf-skewed keys must
        still recover the exact top-10 (the MG candidate guarantee)."""
        keys = RNG.zipf(1.4, size=50_000) % 10_000
        ds = rd.from_pandas(pd.DataFrame({"k": keys.astype(np.int64)})).repartition(16)
        out = heavy_hitters(ds, "k", 10, n_counters=32)
        ref = (
            pd.Series(keys).value_counts().rename_axis("key").reset_index(name="n")
            .sort_values(["n", "key"], ascending=[False, True], kind="mergesort")
            .head(10).reset_index(drop=True)
        )
        assert out["key"].tolist() == ref["key"].tolist()
        assert out["n"].tolist() == ref["n"].tolist()

    def test_exact_when_no_truncation(self):
        keys = RNG.integers(0, 50, size=2_000)
        ds = rd.from_pandas(pd.DataFrame({"k": keys.astype(np.int64)}))
        out = heavy_hitters(ds, "k", 5, n_counters=4096)
        ref = (
            pd.Series(keys).value_counts().rename_axis("key").reset_index(name="n")
            .sort_values(["n", "key"], ascending=[False, True], kind="mergesort")
            .head(5).reset_index(drop=True)
        )
        assert out["key"].tolist() == ref["key"].tolist()
        assert out["n"].tolist() == ref["n"].tolist()

    def test_string_keys(self):
        keys = np.array([f"host{i % 7}.example" for i in range(700)])
        ds = rd.from_pandas(pd.DataFrame({"k": keys}))
        out = heavy_hitters(ds, "k", 3)
        assert len(out) == 3
        assert (out["n"] == 100).all()
        assert out["key"].tolist() == sorted(out["key"].tolist())  # tie → key order


class TestTopkPerGroup:
    def test_matches_pandas_reference(self):
        from ethereum_raw_data_crawler_ray.stages.sketches import topk_per_group

        df = pd.DataFrame(
            {
                "g": RNG.choice(["a", "b", "c", "d"], size=5_000),
                "v": RNG.integers(0, 200, size=5_000).astype(np.int64),  # many ties
                "id": np.arange(5_000, dtype=np.int64),
            }
        )
        out = (
            topk_per_group(
                rd.from_pandas(df).repartition(9), "g", "v", 5, tiebreak_col="id"
            )
            .to_pandas()
            .sort_values(["g", "v", "id"], ascending=[True, False, True])
            .reset_index(drop=True)
        )
        ref = (
            df.sort_values(["v", "id"], ascending=[False, True], kind="mergesort")
            .groupby("g", sort=False)
            .head(5)
            .sort_values(["g", "v", "id"], ascending=[True, False, True])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out[["g", "v", "id"]], ref[["g", "v", "id"]])


class TestHLL:
    def test_error_bound(self):
        for card in (500, 5_000, 40_000):
            vals = RNG.integers(0, card * 100, size=card)  # ~card distinct draws
            exact = len(np.unique(vals))
            ds = rd.from_pandas(pd.DataFrame({"k": vals})).repartition(8)
            est = hll_distinct(ds, "k", p=14)
            # 1.04/sqrt(2^14) ≈ 0.8 %; allow 5 sigma
            assert abs(est - exact) / exact < 0.05, (card, est, exact)

    def test_partition_invariance(self):
        """Register merge is associative: the estimate must not depend
        on how the input is blocked."""
        vals = RNG.integers(0, 10_000, size=20_000)
        df = pd.DataFrame({"k": vals})
        a = hll_distinct(rd.from_pandas(df).repartition(2), "k", p=12)
        b = hll_distinct(rd.from_pandas(df).repartition(17), "k", p=12)
        assert a == b


class TestPivot:
    def test_unlisted_categories_keep_keys(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import pivot_counts

        df = pd.DataFrame(
            {
                "k": pd.array([1, 1, 2, 3, 3, 3], dtype="int64"),
                "c": ["a", "b", "zzz", "a", "a", "zzz"],
            }
        )
        out = (
            pivot_counts(rd.from_pandas(df), "k", "c", ["a", "b"], n_buckets=3)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        # key 2 has ONLY an unlisted category: present, all-zero
        assert out["k"].tolist() == [1, 2, 3]
        assert out["a"].tolist() == [1, 0, 2]
        assert out["b"].tolist() == [1, 0, 0]

    def test_null_category_keeps_key(self, ray_session):
        # a key whose rows ALL have a null category must still appear
        # as an all-zero row (SQL GROUP BY keeps it)
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import pivot_counts

        df = pd.DataFrame(
            {
                "k": pd.array([1, 2, 2], dtype="int64"),
                "c": pd.array(["a", None, None], dtype=object),
            }
        )
        out = (
            pivot_counts(rd.from_pandas(df), "k", "c", ["a"], n_buckets=2)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert out["k"].tolist() == [1, 2]
        assert out["a"].tolist() == [1, 0]


class TestQuantileMergeFallback:
    def test_distributed_combine_matches_driver_merge(self, sf_dir, ray_session,
                                                      monkeypatch, spy):
        """Past DRIVER_MERGE_ROWS partial rows the partial-histogram
        merge runs as a bucketed exchange, and it gives exactly the
        driver-merge result — global and grouped."""
        import os

        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages import joins, sketches

        ds = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_totalprice", "o_orderstatus"])

        def both():
            flat = sketches.exact_quantiles(ds, "o_totalprice", [0.25, 0.9])
            grouped = sketches.grouped_quantiles(
                ds, "o_orderstatus", "o_totalprice", [0.5])
            return flat, grouped.sort_values(["o_orderstatus", "q"]).reset_index(drop=True)

        exchanges = spy(sketches, "exchange")
        a, ga = both()
        assert not exchanges
        monkeypatch.setattr(joins, "DRIVER_MERGE_ROWS", 0)
        b, gb = both()
        assert len(exchanges) == 2
        assert a.equals(b)
        assert ga.equals(gb)


def test_hll_grouped_error_bound(sf_dir, ray_session):
    import os

    import duckdb
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import hll_distinct_grouped

    ev = os.path.join(sf_dir, "events.parquet")
    got = hll_distinct_grouped(
        rd.read_parquet(ev, columns=["event_type", "user_id"]), "event_type", "user_id", p=12
    ).set_index("event_type")["approx_distinct"]
    exact = (
        duckdb.sql(
            f"SELECT event_type, count(DISTINCT user_id) AS n FROM '{ev}' GROUP BY 1"
        )
        .df()
        .set_index("event_type")["n"]
    )
    assert set(got.index) == set(exact.index)
    for k in exact.index:
        rel = abs(got[k] - exact[k]) / max(exact[k], 1)
        assert rel < 5 * 1.04 / (2**12) ** 0.5, (k, got[k], exact[k])


def test_hll_grouped_null_group_keys(ray_session):
    """SQL GROUP BY keeps NULL as a group (same contract as pivot_counts)."""
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import hll_distinct_grouped

    df = pd.DataFrame(
        {"g": ["a", "a", None, None, "b"], "v": [1, 2, 3, 3, 9]}
    )
    out = hll_distinct_grouped(rd.from_pandas(df), "g", "v", p=10)
    got = {(k if k is not None and k == k else None): round(v) for k, v in
           zip(out["g"], out["approx_distinct"])}
    assert got == {"a": 2, None: 1, "b": 1}


class TestTDigest:
    def test_rank_error_bound(self, sf_dir, ray_session):
        import os

        import pandas as pd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            exact_quantiles,
            tdigest_quantiles,
        )

        ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                             columns=["value"])
        vals = np.sort(ev.to_pandas()["value"].to_numpy(np.float64))
        n = len(vals)
        qs = (0.01, 0.25, 0.5, 0.75, 0.99)
        td = tdigest_quantiles(ev, "value", qs=qs, delta=200)
        assert int(td["n"].iloc[0]) == n
        for q, v in zip(td["q"], td["value"]):
            rank = int(np.searchsorted(vals, v, side="right"))
            # k1 scale bound: rank error ≲ πn√(q(1−q))/δ; assert 2×
            tol = max(2.0, 2 * np.pi * n * np.sqrt(q * (1 - q)) / 200)
            assert abs(rank - q * n) <= tol, (q, v, rank, q * n, tol)

    def test_partition_robustness(self, sf_dir, ray_session):
        # sketch accuracy must hold however blocks split the stream
        import os

        from ethereum_raw_data_crawler_ray.stages.sketches import tdigest_quantiles

        ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                             columns=["value"])
        vals = np.sort(ev.to_pandas()["value"].to_numpy(np.float64))
        n = len(vals)
        for parts in (1, 7):
            td = tdigest_quantiles(ev.repartition(parts), "value",
                                   qs=(0.5,), delta=200)
            v = float(td["value"].iloc[0])
            rank = int(np.searchsorted(vals, v, side="right"))
            assert abs(rank - 0.5 * n) <= max(2.0, 0.02 * n)

    def test_grouped_rank_error_bound(self, sf_dir, ray_session):
        import os

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            tdigest_quantiles_grouped,
        )

        ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                             columns=["event_type", "value"])
        ref = ev.to_pandas()
        out = tdigest_quantiles_grouped(ev, "event_type", "value",
                                        qs=(0.1, 0.5, 0.9), delta=200)
        assert set(out["event_type"]) == set(ref["event_type"])
        for key, sub in ref.groupby("event_type"):
            vals = np.sort(sub["value"].to_numpy(np.float64))
            n = len(vals)
            rows = out[out["event_type"] == key]
            assert int(rows["n"].iloc[0]) == n
            for q, v in zip(rows["q"], rows["value"]):
                rank = int(np.searchsorted(vals, v, side="right"))
                tol = max(2.0, 2 * np.pi * n * np.sqrt(q * (1 - q)) / 200)
                assert abs(rank - q * n) <= tol, (key, q, rank, q * n, tol)


class TestTDigestEmptyInput:
    def test_empty_and_all_filtered_inputs(self, ray_session):
        # ADVICE r04: zero blob rows (empty / fully-filtered dataset)
        # must hit the n==0 branch, not ValueError in np.concatenate
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            tdigest_quantiles,
        )

        empty = rd.from_arrow(pa.table({"value": pa.array([], pa.float64())}))
        out = tdigest_quantiles(empty, "value", qs=(0.5,))
        assert list(out["n"]) == [0] and np.isnan(out["value"]).all()

        filtered = rd.from_arrow(
            pa.table({"value": pa.array(np.arange(100.0))})
        ).filter(expr="value > 1000")
        out = tdigest_quantiles(filtered, "value", qs=(0.25, 0.75))
        assert list(out["n"]) == [0, 0] and np.isnan(out["value"]).all()


class TestGroupedCountDistinct:
    def test_nulls_and_exactness(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            grouped_count_distinct,
        )

        rng = np.random.default_rng(11)
        n = 5000
        df = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], n),
            "v": rng.integers(0, 400, n).astype("float64"),
        })
        df.loc[df.index[:100], "v"] = np.nan  # NULLs must not count
        out = grouped_count_distinct(rd.from_pandas(df).repartition(8),
                                     "g", "v")
        ref = df.dropna(subset=["v"]).groupby("g")["v"].nunique()
        assert dict(zip(out["g"], out["n_distinct"])) == ref.to_dict()

    def test_empty(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            grouped_count_distinct,
        )

        ds = rd.from_arrow(pa.table({"g": pa.array([], pa.string()),
                                     "v": pa.array([], pa.int64())}))
        out = grouped_count_distinct(ds, "g", "v")
        assert len(out) == 0 and list(out.columns) == ["g", "n_distinct"]


class TestCorrStats:
    def test_matches_numpy(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import corr_stats

        rng = np.random.default_rng(5)
        x = rng.normal(0, 3, 3000)
        y = 2.0 * x + rng.normal(0, 1, 3000)
        out = corr_stats(
            rd.from_pandas(pd.DataFrame({"x": x, "y": y})).repartition(6),
            "x", "y")
        assert out["n"][0] == 3000
        assert abs(out["corr"][0] - np.corrcoef(x, y)[0, 1]) < 1e-6
        assert abs(out["covar_samp"][0] - np.cov(x, y, ddof=1)[0, 1]) < 1e-4

    def test_degenerate(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import corr_stats

        one = corr_stats(
            rd.from_pandas(pd.DataFrame({"x": [1.0], "y": [2.0]})), "x", "y")
        assert one["n"][0] == 1 and np.isnan(one["corr"][0])
        const = corr_stats(
            rd.from_pandas(pd.DataFrame({"x": [1.0] * 10,
                                         "y": list(range(10))})), "x", "y")
        assert np.isnan(const["corr"][0])  # zero variance side


class TestCubeModeHistogram:
    def test_cube_grouping_sets(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import cube_agg

        df = pd.DataFrame({
            "a": ["x", "x", "y"], "b": ["p", "q", "p"], "v": [1, 2, 4],
        })
        out = cube_agg(rd.from_pandas(df), ["a", "b"], "v")
        # 2^2 grouping sets: finest(3) + by-a(2) + by-b(2) + total(1)
        assert len(out) == 8
        tot = out[out["a"].isna() & out["b"].isna()]
        assert tot["n"].iloc[0] == 3 and tot["sum_val"].iloc[0] == 7
        by_b = out[out["a"].isna() & (out["b"] == "p")]
        assert by_b["sum_val"].iloc[0] == 5

    def test_mode_tie_breaks_to_smallest(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import grouped_mode

        df = pd.DataFrame({
            "g": ["a"] * 4 + ["b"] * 3,
            "v": [7, 7, 3, 3, 9, 1, 1],
        })
        out = grouped_mode(rd.from_pandas(df).repartition(3), "g", "v")
        got = dict(zip(out["g"], zip(out["mode_val"], out["n"])))
        assert got == {"a": (3, 2), "b": (1, 2)}  # tie a: min(3,7)=3

    def test_histogram_clamps_and_keeps_empty_bins(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            histogram_fixed,
        )

        df = pd.DataFrame({"v": [-5.0, 0.0, 9.9, 10.0, 25.0, 99.0, 120.0]})
        out = histogram_fixed(rd.from_pandas(df).repartition(2), "v",
                              0.0, 100.0, 10)
        assert len(out) == 10 and out["n"].sum() == 7
        n = dict(zip(out["bin"], out["n"]))
        assert n[0] == 3          # -5 clamps in, 0.0, 9.9
        assert n[1] == 1 and n[2] == 1 and n[9] == 2  # 99 + clamped 120
        assert n[3] == 0          # empty bins present
        import pytest as _pytest
        with _pytest.raises(ValueError):
            histogram_fixed(rd.from_pandas(df), "v", 5.0, 5.0, 10)


class TestNullSemanticsSQL:
    def test_count_distinct_all_null_group_reports_zero(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            grouped_count_distinct,
        )

        df = pd.DataFrame({
            "g": ["a", "a", "b", "b", "b"],
            "v": [1.0, np.nan, np.nan, np.nan, np.nan],
        })
        out = grouped_count_distinct(rd.from_pandas(df).repartition(2),
                                     "g", "v")
        got = dict(zip(out["g"], out["n_distinct"]))
        # SQL: COUNT(DISTINCT v) skips NULLs but keeps the group
        assert got == {"a": 1, "b": 0}

    def test_mode_null_competes_and_loses_ties(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import grouped_mode

        df = pd.DataFrame({
            # group a: null strictly most frequent → mode is NULL;
            # group b: null TIES with 5 → non-null wins (NULLS LAST)
            "g": ["a"] * 3 + ["b"] * 4,
            "v": [np.nan, np.nan, 9.0, np.nan, np.nan, 5.0, 5.0],
        })
        out = grouped_mode(rd.from_pandas(df).repartition(2), "g", "v")
        got = {r["g"]: (r["mode_val"], r["n"]) for _, r in out.iterrows()}
        assert np.isnan(got["a"][0]) and got["a"][1] == 2
        assert got["b"] == (5.0, 2)


class TestAllNullStringPartition:
    def test_mode_and_count_distinct_survive_null_typed_blocks(
            self, ray_session):
        # an input BLOCK whose string values are all NULL must not emit
        # a null-typed arrow block into the groupby exchange (review r05)
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            grouped_count_distinct,
            grouped_mode,
        )

        a = pd.DataFrame({"g": ["a", "a"], "v": pd.array([None, None],
                                                         dtype=object)})
        b = pd.DataFrame({"g": ["b", "b"], "v": ["x", "x"]})
        ds = rd.from_pandas(a).union(rd.from_pandas(b))
        out = grouped_mode(ds, "g", "v")
        got = {r["g"]: r["mode_val"] for _, r in out.iterrows()}
        assert got["a"] is None or (isinstance(got["a"], float)
                                    and np.isnan(got["a"]))
        assert got["b"] == "x"
        cd = grouped_count_distinct(ds, "g", "v")
        assert dict(zip(cd["g"], cd["n_distinct"])) == {"a": 0, "b": 1}


class TestQuantilesCont:
    def test_matches_numpy_linear_interpolation(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            exact_quantiles_cont,
        )

        rng = np.random.default_rng(9)
        v = np.round(rng.normal(500, 123, 7001), 2)
        ds = rd.from_pandas(pd.DataFrame({"v": v})).repartition(8)
        qs = [0.0, 0.1, 0.5, 0.77, 1.0]
        out = exact_quantiles_cont(ds, "v", qs)
        # numpy 'linear' is the same q*(n-1) interpolation rule
        ref = np.quantile(v, qs, method="linear")
        assert np.allclose(out["value"].to_numpy(), np.round(ref, 6),
                           atol=1e-6)

    def test_single_row_and_exact_rank_hit(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            exact_quantiles_cont,
        )

        one = rd.from_pandas(pd.DataFrame({"v": [42.5]}))
        out = exact_quantiles_cont(one, "v", [0.0, 0.5, 1.0])
        assert (out["value"] == 42.5).all()
        # p integral (no interpolation): 5 rows, q=0.25 → p=1 exactly
        five = rd.from_pandas(pd.DataFrame({"v": [10.0, 20.0, 30.0,
                                                  40.0, 50.0]}))
        out = exact_quantiles_cont(five, "v", [0.25, 0.75])
        assert out["value"].tolist() == [20.0, 40.0]


class TestQuantilesContEdges:
    def test_nulls_ignored_and_empty_returns_nan(self, ray_session):
        # review r05 pass 3: NULLs previously corrupted ranks; empty
        # input crashed before the n==0 guard
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            exact_quantiles,
            exact_quantiles_cont,
        )

        df = pd.DataFrame({"v": [10.0, 20.0, 30.0, 40.0, 50.0,
                                 np.nan, np.nan]})
        ds = rd.from_pandas(df).repartition(3)
        out = exact_quantiles_cont(ds, "v", [0.5])
        assert out["value"].tolist() == [30.0]  # NULLs ignored (SQL)
        outd = exact_quantiles(ds, "v", [0.5])
        assert outd["value"].tolist() == [30.0]

        empty = rd.from_pandas(pd.DataFrame({"v": []}))
        for fn in (exact_quantiles_cont, exact_quantiles):
            out = fn(empty, "v", [0.25, 0.75])
            assert np.isnan(out["value"]).all() and len(out) == 2
        allnull = rd.from_pandas(pd.DataFrame({"v": [np.nan, np.nan]}))
        out = exact_quantiles_cont(allnull, "v", [0.5])
        assert np.isnan(out["value"]).all()


def test_grouped_quantiles_nulls_ignored(ray_session):
    # same defect class as the r05 pass-3 finding on the global
    # functions: NULL values must not corrupt per-group ranks
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import grouped_quantiles

    df = pd.DataFrame({
        "g": ["a"] * 7 + ["b"] * 3,
        "v": [10.0, 20.0, 30.0, 40.0, 50.0, np.nan, np.nan,
              7.0, np.nan, 9.0],
    })
    out = grouped_quantiles(rd.from_pandas(df).repartition(3), "g", "v",
                            [0.5])
    got = {(r["g"], r["q"]): r["value"] for _, r in out.iterrows()}
    assert got[("a", 0.5)] == 30.0  # not 40.0 (nulls shifted ranks)
    assert got[("b", 0.5)] == 7.0

    empty = rd.from_pandas(pd.DataFrame({"g": [], "v": []}))
    assert len(grouped_quantiles(empty, "g", "v", [0.5])) == 0


def test_grouped_quantiles_cont_matches_numpy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import (
        grouped_quantiles_cont,
    )

    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "g": rng.choice(["x", "y", "z"], 6000),
        "v": np.round(rng.normal(100, 37, 6000), 2),
    })
    df.loc[df.index[:50], "v"] = np.nan  # NULLs ignored per group
    qs = [0.1, 0.5, 0.9]
    out = grouped_quantiles_cont(rd.from_pandas(df).repartition(6),
                                 "g", "v", qs)
    for g, sub in df.dropna(subset=["v"]).groupby("g"):
        ref = np.quantile(sub["v"].to_numpy(), qs, method="linear")
        got = out[out["g"] == g].sort_values("q")["value"].to_numpy()
        assert np.allclose(got, np.round(ref, 6), atol=1e-6), g


class TestCountMin:
    def test_never_undercounts_and_error_bound(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            countmin_build,
            countmin_query,
        )

        rng = np.random.default_rng(13)
        # zipf-ish: few heavy keys + long tail
        vals = np.concatenate([
            np.repeat(np.arange(5), 400),
            rng.integers(100, 5000, 3000),
        ])
        df = pd.DataFrame({"v": vals})
        ds = rd.from_pandas(df).repartition(5)
        sk = countmin_build(ds, "v", width=1024, depth=4)
        exact = df["v"].value_counts()
        items = exact.index[:50].tolist()
        est = countmin_query(sk, items).set_index("value")["est_count"]
        for it in items:
            assert est[it] >= exact[it]  # CM never undercounts
        # ε = e/width bound, N = total rows (generous ×3 slack)
        n = len(df)
        eps = np.e / 1024
        over = np.array([est[it] - exact[it] for it in items])
        assert (over <= 3 * eps * n).mean() > 0.95

    def test_linear_merge_partition_invariant(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            countmin_build,
        )

        rng = np.random.default_rng(3)
        df = pd.DataFrame({"v": rng.integers(0, 300, 4000)})
        a = countmin_build(rd.from_pandas(df).repartition(2), "v")
        b = countmin_build(rd.from_pandas(df).repartition(13), "v")
        assert (a == b).all()  # the sketch is linear — bit-identical
        assert a.sum() == 4 * 4000  # every row hits one cell per region

    def test_nulls_skipped_and_bad_params(self, ray_session):
        import numpy as np
        import pandas as pd
        import pytest as _pytest
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            countmin_build,
            countmin_query,
        )

        df = pd.DataFrame({"v": [1.0, 1.0, np.nan]})
        sk = countmin_build(rd.from_pandas(df), "v")
        assert sk.sum() == 4 * 2  # the NULL row never counted
        assert countmin_query(sk, []).empty
        with _pytest.raises(ValueError):
            countmin_build(rd.from_pandas(df), "v", width=1)


class TestTimeBucketFill:
    def test_gaps_filled_and_nulls_skipped(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import time_bucket_fill

        # hours 10, 10, 13 (+ one NULL): hours 11 and 12 must appear as 0
        ts = pd.to_datetime([10 * 3600 + 5, 10 * 3600 + 7, 13 * 3600 + 1],
                            unit="s").tolist() + [pd.NaT]
        df = pd.DataFrame({"ts": ts})
        out = time_bucket_fill(rd.from_pandas(df).repartition(2), "ts",
                               3_600_000_000)
        assert out["bucket"].tolist() == [10, 11, 12, 13]
        assert out["n"].tolist() == [2, 0, 0, 1]
        assert out["n"].dtype == np.int64

    def test_empty_input_and_bad_bucket(self, ray_session):
        import pandas as pd
        import pytest as _pytest
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import time_bucket_fill

        empty = pd.DataFrame({"ts": pd.to_datetime(pd.Series([], dtype="int64"),
                                                   unit="s")})
        out = time_bucket_fill(rd.from_pandas(empty), "ts", 3_600_000_000)
        assert out.empty and list(out.columns) == ["bucket", "n"]
        with _pytest.raises(ValueError):
            time_bucket_fill(rd.from_pandas(empty), "ts", 0)

    def test_partition_invariance(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import time_bucket_fill

        rng = np.random.default_rng(9)
        df = pd.DataFrame({"ts": pd.to_datetime(
            rng.integers(0, 50 * 3600, 5000), unit="s")})
        a = time_bucket_fill(rd.from_pandas(df).repartition(2), "ts",
                             3_600_000_000)
        b = time_bucket_fill(rd.from_pandas(df).repartition(11), "ts",
                             3_600_000_000)
        pd.testing.assert_frame_equal(a, b)
        assert a["n"].sum() == len(df)


class TestGroupedWeightedStats:
    def test_matches_direct_computation(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            grouped_weighted_stats,
        )

        rng = np.random.default_rng(21)
        n = 4000
        df = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], n),
            "v": np.round(rng.uniform(1, 100, n), 2),
            "w": rng.integers(1, 50, n).astype(float),
        })
        out = grouped_weighted_stats(rd.from_pandas(df).repartition(6),
                                     "g", "v", "w")
        ref = df.copy()
        ref["c"] = (ref["v"] * 100).round().astype(np.int64)
        ref["wi"] = ref["w"].round().astype(np.int64)
        ref["wx"] = ref["c"] * ref["wi"]
        exp = ref.groupby("g").agg(sum_wx_cents=("wx", "sum"),
                                   sum_w=("wi", "sum"), n=("wx", "size"))
        for g in ("a", "b", "c"):
            row = out[out["g"] == g].iloc[0]
            assert row["sum_wx_cents"] == exp.loc[g, "sum_wx_cents"]
            assert row["sum_w"] == exp.loc[g, "sum_w"]
            assert row["n"] == exp.loc[g, "n"]
            # the mean is ONE division of the exact integer partials
            assert row["wavg"] == exp.loc[g, "sum_wx_cents"] / exp.loc[g, "sum_w"]

    def test_null_skip_zero_weight_and_empty(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            grouped_weighted_stats,
        )

        df = pd.DataFrame({
            "g": ["a", "a", "b", "b"],
            "v": [10.0, np.nan, 5.0, 7.0],
            "w": [2.0, 3.0, 0.0, np.nan],
        })
        out = grouped_weighted_stats(rd.from_pandas(df), "g", "v", "w")
        a = out[out["g"] == "a"].iloc[0]
        assert (a["sum_wx_cents"], a["sum_w"], a["n"]) == (2000, 2, 1)
        b = out[out["g"] == "b"].iloc[0]  # only the 0-weight row survives
        assert (b["sum_w"], b["n"]) == (0, 1)
        assert np.isnan(b["wavg"])  # SQL NULL division
        empty = grouped_weighted_stats(
            rd.from_pandas(pd.DataFrame({"g": pd.Series(dtype=object),
                                         "v": pd.Series(dtype=float),
                                         "w": pd.Series(dtype=float)})),
            "g", "v", "w")
        assert empty.empty


class TestReviewFixesRound5:
    def test_weighted_stats_exact_past_2pow53(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            grouped_weighted_stats,
        )

        # cents×weight = 1e13 * 1e5 = 1e18 > 2^53: a float64 product
        # would round; the int64 path must be exact
        df = pd.DataFrame({"g": ["a", "a"],
                           "v": [1e11, 1e11],
                           "w": [1e5, 1e5]})
        out = grouped_weighted_stats(rd.from_pandas(df), "g", "v", "w")
        row = out.iloc[0]
        assert int(row["sum_wx_cents"]) == 2 * (10**13) * (10**5)
        assert int(row["sum_w"]) == 2 * 10**5

    def test_gap_fill_negative_epochs_floor(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import time_bucket_fill

        # -30 min before epoch floors to bucket -1, not trunc's 0
        ts = pd.to_datetime([-1800, 1800], unit="s")
        out = time_bucket_fill(rd.from_pandas(pd.DataFrame({"ts": ts})),
                               "ts", 3_600_000_000)
        assert out["bucket"].tolist() == [-1, 0]
        assert out["n"].tolist() == [1, 1]

    def test_gap_fill_span_guard(self, ray_session):
        import pandas as pd
        import pytest as _pytest
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import time_bucket_fill

        # one corrupt far-future row must fail loud, not OOM the driver
        ts = pd.to_datetime([0, 2000 * 3600], unit="s")
        with _pytest.raises(ValueError, match="max_buckets"):
            time_bucket_fill(rd.from_pandas(pd.DataFrame({"ts": ts})),
                             "ts", 3_600_000_000, max_buckets=1000)


class TestUnpivot:
    def test_matches_pandas_melt(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import unpivot

        rng = np.random.default_rng(31)
        df = pd.DataFrame({
            "id": np.arange(50),
            "a": rng.normal(size=50),
            "b": rng.integers(0, 9, 50),
        })
        out = (unpivot(rd.from_pandas(df).repartition(4), ["id"], ["a", "b"])
               .to_pandas().sort_values(["id", "measure"])
               .reset_index(drop=True))
        ref = (df.melt(id_vars=["id"], value_vars=["a", "b"],
                       var_name="measure", value_name="value")
               .sort_values(["id", "measure"]).reset_index(drop=True))
        assert (out["measure"] == ref["measure"]).all()
        assert np.allclose(out["value"], ref["value"].astype(float))

    def test_nulls_kept_and_validation(self, ray_session):
        import numpy as np
        import pandas as pd
        import pytest as _pytest
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import unpivot

        df = pd.DataFrame({"id": [1], "a": [np.nan]})
        out = unpivot(rd.from_pandas(df), ["id"], ["a"]).to_pandas()
        assert len(out) == 1 and np.isnan(out["value"].iloc[0])  # INCLUDE NULLS
        with _pytest.raises(ValueError):
            unpivot(rd.from_pandas(df), ["id"], [])


class TestGroupedCorr:
    def test_matches_pandas_per_group(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            corr_stats_grouped,
        )

        rng = np.random.default_rng(41)
        n = 5000
        df = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], n),
            "x": rng.normal(10, 3, n),
        })
        df["y"] = 2.0 * df["x"] + rng.normal(0, 1, n)
        out = corr_stats_grouped(rd.from_pandas(df).repartition(7),
                                 "g", "x", "y").set_index("g")
        for g, sub in df.groupby("g"):
            assert out.loc[g, "n"] == len(sub)
            assert abs(out.loc[g, "corr"] - sub["x"].corr(sub["y"])) < 1e-6
            assert abs(out.loc[g, "covar_samp"] - sub["x"].cov(sub["y"])) < 1e-5

    def test_degenerate_groups(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            corr_stats_grouped,
        )

        df = pd.DataFrame({
            "g": ["one", "zerovar", "zerovar"],
            "x": [1.0, 5.0, 5.0],   # singleton group + zero-variance group
            "y": [2.0, 1.0, 2.0],
        })
        out = corr_stats_grouped(rd.from_pandas(df), "g", "x", "y").set_index("g")
        assert np.isnan(out.loc["one", "corr"])       # n < 2 → NULL
        assert np.isnan(out.loc["zerovar", "corr"])   # var(x)=0 → NULL
        empty = corr_stats_grouped(
            rd.from_pandas(pd.DataFrame({"g": pd.Series(dtype=object),
                                         "x": pd.Series(dtype=float),
                                         "y": pd.Series(dtype=float)})),
            "g", "x", "y")
        assert empty.empty


class TestRegressionGrouped:
    def test_matches_numpy_per_group(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            regression_grouped,
        )

        rng = np.random.default_rng(7)
        n = 4000
        df = pd.DataFrame({
            "g": rng.choice(["a", "b"], n),
            "x": rng.integers(1, 51, n).astype(float),
        })
        df["y"] = np.round(30.0 * df["x"] + rng.normal(0, 40, n), 2)
        out = regression_grouped(rd.from_pandas(df).repartition(5),
                                 "g", "x", "y", x_scale=1,
                                 y_scale=100).set_index("g")
        for g, sub in df.groupby("g"):
            # reference fit on the SAME fixed-point ints
            xs = np.round(sub["x"]).astype(np.int64)
            ys = np.round(sub["y"] * 100).astype(np.int64)
            slope, intercept = np.polyfit(xs, ys, 1)
            assert out.loc[g, "n"] == len(sub)
            assert abs(out.loc[g, "slope"] - slope) < 1e-6 * abs(slope)
            assert abs(out.loc[g, "intercept"] - intercept) \
                < 1e-6 * abs(intercept)
            r = np.corrcoef(xs, ys)[0, 1]
            assert abs(out.loc[g, "r2"] - r * r) < 1e-9

    def test_partition_invariant_bits(self, ray_session):
        # the exactness claim: identical BITS at any block layout
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            regression_grouped,
        )

        rng = np.random.default_rng(3)
        n = 3000
        df = pd.DataFrame({
            "g": rng.choice(["p", "q", "r"], n),
            "x": rng.integers(1, 51, n).astype(float),
            "y": np.round(rng.uniform(900.0, 110_000.0, n), 2),
        })
        outs = [
            regression_grouped(rd.from_pandas(df).repartition(k),
                               "g", "x", "y")
            for k in (1, 4, 13)
        ]
        for o in outs[1:]:
            pd.testing.assert_frame_equal(o, outs[0])  # bit-exact floats

    def test_nulls_degenerate_and_empty(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            regression_grouped,
        )

        df = pd.DataFrame({
            "g": ["a", "a", "a", "zerovar", "zerovar", "one"],
            "x": [1.0, 2.0, np.nan, 5.0, 5.0, 7.0],
            "y": [10.0, 20.0, 99.0, 1.0, 2.0, 3.0],
        })
        out = regression_grouped(rd.from_pandas(df), "g", "x", "y",
                                 y_scale=100).set_index("g")
        assert out.loc["a", "n"] == 2           # NULL x row skipped
        assert abs(out.loc["a", "slope"] - 1000.0) < 1e-9
        assert np.isnan(out.loc["zerovar", "slope"])   # var(x)=0
        assert np.isnan(out.loc["one", "slope"])       # n < 2
        empty = regression_grouped(
            rd.from_pandas(pd.DataFrame({"g": pd.Series(dtype=object),
                                         "x": pd.Series(dtype=float),
                                         "y": pd.Series(dtype=float)})),
            "g", "x", "y")
        assert empty.empty

    def test_exact_past_2pow53(self, ray_session):
        # y magnitudes whose squares force the adaptive chunk bound and
        # whose float64 partial sums would drift: the exact path must
        # agree with a Python big-int reference to the last bit
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            regression_grouped,
        )

        rng = np.random.default_rng(11)
        n = 2000
        df = pd.DataFrame({
            "g": ["big"] * n,
            "x": rng.integers(1, 1_000_001, n).astype(float),
            "y": (rng.integers(1, 2_000_000_001, n)).astype(float),
        })
        out = regression_grouped(rd.from_pandas(df).repartition(3),
                                 "g", "x", "y", x_scale=1, y_scale=1)
        xs = [int(v) for v in df["x"]]
        ys = [int(v) for v in df["y"]]
        sx, sy = sum(xs), sum(ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        sxx = sum(a * a for a in xs)
        num, denx = n * sxy - sx * sy, n * sxx - sx * sx
        assert out.loc[0, "slope"] == float(num) / float(denx)


class TestRatioToReport:
    def test_shares_and_partition_invariance(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            ratio_to_report,
        )

        rng = np.random.default_rng(5)
        n = 2000
        df = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "g": rng.choice(["a", "b", "c"], n),
            "v": rng.integers(1, 100, n).astype(float),
        })
        outs = [
            ratio_to_report(rd.from_pandas(df).repartition(k),
                            "g", "v", ["id"]).to_pandas()
                 .sort_values("id").reset_index(drop=True)
            for k in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-exact
        out = outs[0]
        ref = df.groupby("g")["v"].transform("sum")
        assert np.allclose(out["share"], df["v"] / ref)
        # per-group shares sum to ~1
        s = out.groupby("g")["share"].sum()
        assert np.allclose(s, 1.0)
        assert out["val_sc"].dtype == np.int64
        assert out["group_total"].dtype == np.int64

    def test_null_group_is_one_partition_null_val_fails(self, ray_session):
        import numpy as np
        import pandas as pd
        import pytest
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.sketches import (
            ratio_to_report,
        )

        df = pd.DataFrame({
            "id": [0, 1, 2, 3],
            "g": ["a", None, None, "a"],
            "v": [1.0, 2.0, 6.0, 3.0],
        })
        out = ratio_to_report(rd.from_pandas(df), "g", "v",
                              ["id"]).to_pandas().set_index("id")
        assert out.loc[1, "group_total"] == 8      # NULLs share a partition
        assert out.loc[2, "share"] == 0.75
        assert out.loc[0, "share"] == 0.25
        bad = df.assign(v=[1.0, np.nan, 2.0, 3.0])
        with pytest.raises(Exception):
            ratio_to_report(rd.from_pandas(bad), "g", "v",
                            ["id"]).to_pandas()


def test_regression_grouped_per_row_product_past_int64(ray_session):
    # a single row's y^2 exceeds 2^63: the int64 fast path is unusable
    # at ANY chunk size — the object fallback must stay exact
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import (
        regression_grouped,
    )

    rng = np.random.default_rng(17)
    n = 500
    df = pd.DataFrame({
        "g": ["huge"] * n,
        "x": rng.integers(1, 1_000_001, n).astype(float),
        "y": rng.integers(3_100_000_000, 4_000_000_000, n).astype(float),
    })
    out = regression_grouped(rd.from_pandas(df).repartition(3),
                             "g", "x", "y", x_scale=1, y_scale=1)
    xs = [int(v) for v in df["x"]]
    ys = [int(v) for v in df["y"]]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    num, denx = n * sxy - sx * sy, n * sxx - sx * sx
    assert out.loc[0, "slope"] == float(num) / float(denx)


@pytest.mark.filterwarnings("error::FutureWarning")
def test_ratio_to_report_nullable_int_group_across_blocks(ray_session):
    # nullable NUMERIC group: every block renders its own NaN object —
    # the totals merge must fold them into ONE null partition
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import (
        ratio_to_report,
    )

    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "g": pd.array([1, None, None, 1, None, None], dtype="Int64"),
        "v": [1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
    })
    out = (ratio_to_report(rd.from_pandas(df).repartition(3), "g", "v",
                           ["id"]).to_pandas().set_index("id"))
    assert out.loc[1, "group_total"] == 20     # one NULL partition
    assert out.loc[5, "share"] == 0.5
    assert out.loc[0, "group_total"] == 5


def test_chi2_contingency_bruteforce_and_invariance(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import (
        chi2_contingency,
    )

    rng = np.random.default_rng(31)
    n = 5000
    df = pd.DataFrame({
        "r": rng.choice(["x", "y", "z"], n),
        "v": rng.uniform(0, 500, n),
    })
    outs = [chi2_contingency(rd.from_pandas(df).repartition(k),
                             "r", "v", bucket_width=100.0)
            for k in (1, 6)]
    pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-exact
    out = outs[0]
    # reference via pandas crosstab
    b = np.floor(df["v"] / 100.0).astype(np.int64)
    ct = pd.crosstab(df["r"], b)
    rt, co, tot = ct.sum(1), ct.sum(0), ct.values.sum()
    for _, rec in out.iterrows():
        obs = ct.loc[rec["r"], rec["bucket"]]
        exp = rt[rec["r"]] * co[rec["bucket"]] / tot
        assert rec["obs"] == obs
        assert abs(rec["expected"] - exp) < 1e-9
        assert abs(rec["chi2_cell"] - (obs - exp) ** 2 / exp) < 1e-9
    assert len(out) == (ct.values > 0).sum()


def test_chi2_null_row_category_and_regression_decimal_cap(ray_session):
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import (
        chi2_contingency,
        regression_grouped,
    )

    # NULL row categories across multiple blocks: one NULL group, no
    # KeyError (the distinct-NaN-objects dict trap)
    rng = np.random.default_rng(43)
    df = pd.DataFrame({
        "r": pd.array([None if i % 5 == 0 else float(v) for i, v in
                       enumerate(rng.integers(0, 3, 600))],
                      dtype="float64"),
        "v": rng.uniform(0, 300, 600),
    })
    out = chi2_contingency(rd.from_pandas(df).repartition(4), "r", "v")
    na = out[out["r"].isna()]
    assert len(na) > 0 and na["obs"].sum() == 120
    assert np.isfinite(out["chi2_cell"]).all()
    # regression: partials past decimal128(38,0) fail loud, not wrong
    big = pd.DataFrame({
        "g": ["x"] * 4,
        "x": [1.0, 2.0, 3.0, 4.0],
        "y": [9.2e18, 9.1e18, 9.0e18, 8.9e18],
    })
    with pytest.raises(Exception, match="decimal128"):
        regression_grouped(rd.from_pandas(big), "g", "x", "y",
                           x_scale=1, y_scale=1)


def test_mad_exact_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import mad_exact

    rng = np.random.default_rng(47)
    for n in (999, 1000):  # odd (no interpolation) and even (.5 frac)
        v = np.round(rng.uniform(0, 100, n), 2)
        out = mad_exact(rd.from_pandas(pd.DataFrame({"v": v}))
                        .repartition(4), "v", scale=100)
        cents = np.round(v * 100).astype(np.int64)
        med = np.median(cents)          # numpy median == cont median
        d = np.abs(cents - med)
        mad = np.median(d)
        assert out.loc[0, "n"] == n
        assert out.loc[0, "med_sc2"] == int(2 * med)
        assert abs(out.loc[0, "median"] - med / 100.0) < 1e-12
        assert abs(out.loc[0, "mad"] - mad / 100.0) < 1e-12
    # empty input
    empty = mad_exact(rd.from_pandas(pd.DataFrame({"v": pd.Series(
        dtype=float)})), "v")
    assert empty.loc[0, "n"] == 0 and np.isnan(empty.loc[0, "mad"])


def test_mad_exact_half_away_rounding(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.sketches import mad_exact

    # 1.25 at scale=10 lands on 12.5: DuckDB ROUND gives 13 (half-away),
    # np.round would give 12 (half-even) — parity pins half-away
    out = mad_exact(rd.from_pandas(pd.DataFrame({"v": [1.25]})),
                    "v", scale=10)
    assert out.loc[0, "med_sc2"] == 26
    # empty input mirrors the oracle's NULL scalar subqueries
    empty = mad_exact(rd.from_pandas(pd.DataFrame({"v": pd.Series(
        dtype=float)})), "v")
    assert empty.loc[0, "n"] == 0
    assert np.isnan(empty.loc[0, "med_sc2"])
