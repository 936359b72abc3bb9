"""Query-surface tests: every oracle-checked query matches DuckDB on the
same tables (the local mirror of the driver's correctness gate), and the
rows-only queries hold their own invariants."""

import os

import numpy as np
import pandas as pd
import pytest

from ethereum_raw_data_crawler_ray.pipelines.oracle_check import check_all, to_pandas
from ethereum_raw_data_crawler_ray.pipelines.queries import ORACLE_SQL, QUERIES


def test_every_oracle_key_has_query():
    assert set(ORACLE_SQL) <= set(QUERIES)


def test_oracle_parity_sf0001(sf_dir, ray_session):
    # strict_dtypes mirrors the driver's value-hash: int-vs-float class
    # drift between engine and oracle fails here even when values are
    # numerically equal (the r04 q65 HUGEINT-rendered-as-float miss).
    res = check_all(sf_dir, strict_dtypes=True)
    bad = {k: v for k, v in res.items() if v}
    assert not bad, f"oracle mismatches: {bad}"


def test_registry_window_holds_newest_oracled():
    """The driver attests a 50-entry prefix; the registry must put the
    newest-registered oracled queries inside it (older long-green entries
    cede slots) and expose the oracled/rows-only split by NAME so no
    consumer needs to rely on dict position."""
    from ethereum_raw_data_crawler_ray.pipelines.queries import (
        ORACLED_QUERY_NAMES,
        ROWS_ONLY_QUERY_NAMES,
    )

    names = list(QUERIES)
    n_window = min(50, len(ORACLED_QUERY_NAMES))
    window = names[:n_window]
    assert all(q in ORACLE_SQL for q in window)
    # newest-first within the oracled class: the LAST-registered oracled
    # queries (highest q-numbers, each round's additions) lead the window.
    assert window == list(reversed(ORACLED_QUERY_NAMES))[:n_window]
    assert set(ORACLED_QUERY_NAMES) | set(ROWS_ONLY_QUERY_NAMES) == set(names)
    assert not set(ORACLED_QUERY_NAMES) & set(ROWS_ONLY_QUERY_NAMES)


class TestRowsOnly:
    def test_quality_score_bounds(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q23_quality_score"](sf_dir))
        assert len(df) == 500
        assert df["quality"].between(0, 1).all()
        assert (df["n_tokens_bpe"] > 0).all()

    def test_fingerprint_stable_and_distinct(self, sf_dir, ray_session):
        a = to_pandas(QUERIES["q24_fingerprint"](sf_dir)).sort_values("doc_id")
        b = to_pandas(QUERIES["q24_fingerprint"](sf_dir)).sort_values("doc_id")
        assert (a["fingerprint"].to_numpy() == b["fingerprint"].to_numpy()).all()
        # all 500 docs distinct → all fingerprints distinct
        assert a["fingerprint"].nunique() == len(a)

    def test_simhash_determinism(self, sf_dir, ray_session):
        a = to_pandas(QUERIES["q25_simhash"](sf_dir)).sort_values("doc_id")
        b = to_pandas(QUERIES["q25_simhash"](sf_dir)).sort_values("doc_id")
        assert (a["simhash"].to_numpy() == b["simhash"].to_numpy()).all()
        # band keys really are the 16-bit slices
        sh = a["simhash"].to_numpy().astype(np.uint64)
        assert (a["band0"].to_numpy().astype(np.uint64) == (sh & np.uint64(0xFFFF))).all()

    def test_minhash_pairs_sane(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q26_minhash_pairs"](sf_dir))
        assert (df["id_a"] < df["id_b"]).all()
        assert df["est_sim"].between(0, 1).all()

    def test_dedup_groups_partition(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q27_dedup_groups"](sf_dir))
        assert len(df) == 500
        # group representative is a member id
        assert set(df["group_id"]).issubset(set(df["doc_id"]))

    def test_knn_ivf_recall(self, sf_dir, ray_session):
        brute = to_pandas(QUERIES["q28_knn_brute"](sf_dir))
        approx = to_pandas(QUERIES["q29_knn_ivf"](sf_dir))
        recall = len(set(brute["vec_id"]) & set(approx["vec_id"])) / len(brute)
        assert recall >= 0.6, f"IVF recall {recall}"

    def test_knn_lsh_recall(self, sf_dir, ray_session):
        brute = to_pandas(QUERIES["q28_knn_brute"](sf_dir))
        approx = to_pandas(QUERIES["q35_knn_lsh"](sf_dir))
        recall = len(set(brute["vec_id"]) & set(approx["vec_id"])) / len(brute)
        assert recall >= 0.5, f"LSH recall {recall}"

    def test_knn_ivf_indexed_equals_streaming(self, sf_dir, ray_session):
        # same centroids (same sample + seed) ⇒ the materialized-index
        # probe must return exactly the streaming IVF result
        import shutil

        shutil.rmtree("/tmp/ivf_index", ignore_errors=True)
        a = to_pandas(QUERIES["q29_knn_ivf"](sf_dir))
        b = to_pandas(QUERIES["q36_knn_ivf_indexed"](sf_dir))
        assert a["vec_id"].tolist() == b["vec_id"].tolist()

    def test_ivf_sample_not_order_biased(self, sf_dir, ray_session):
        # regression (VERDICT r01): limit(n) trained centroids on the
        # first rows; hash_sample must be invariant to input order
        import ray.data as rd
        from ethereum_raw_data_crawler_ray.stages.ann import hash_sample

        ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                             columns=["vec_id", "embedding"])
        fwd = hash_sample(ds, "vec_id", 100, 23)
        rev = hash_sample(ds.sort("vec_id", descending=True), "vec_id", 100, 23)
        assert set(fwd["vec_id"]) == set(rev["vec_id"])

    def test_multimodal_decode(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q33_multimodal_decode"](sf_dir))
        assert (df["format"] == "fakeimg").all()
        assert (df["width"] >= 32).all() and (df["height"] >= 32).all()

    def test_multimodal_resize(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q38_multimodal_resize"](sf_dir))
        assert len(df) == 500
        assert (df["width"] == 64).all() and (df["height"] == 48).all()
        assert (df["format"] == "fakeimg").all()  # resized blobs re-decode

    def test_multimodal_frame_sample(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q39_multimodal_frame_sample"](sf_dir))
        assert df["doc_id"].nunique() == 500  # every doc yields ≥1 frame
        assert (df["frame_no"] % 4 == 0).all()  # stride respected
        assert df.groupby("doc_id").size().max() <= 8
        # r04 verdict #5: the path now demuxes REAL Y4M containers —
        # per-frame luma features and dims come from actual planes
        assert (df["width"] > 0).all() and (df["height"] > 0).all()
        assert df["y_std"].gt(0).any()
        assert (df["y_mean"] >= 0).all() and (df["y_mean"] <= 255).all()

    def test_multimodal_real_codec_stubbed(self):
        # the image stages run the fake codec only; frame sampling also
        # demuxes y4m and fails loudly on any other codec
        from ethereum_raw_data_crawler_ray.stages.multimodal import (
            DecodeStage,
            FrameSampleStage,
            ResizeStage,
        )

        for cls, args in ((DecodeStage, ()), (ResizeStage, (32, 32))):
            with pytest.raises(TypeError):
                cls(*args, codec="pil")
        for codec in ("pil", "ffmpeg"):
            with pytest.raises(NotImplementedError):
                FrameSampleStage(256, 4, 8, codec=codec)


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    q = e.queries()
    o = e.oracle_sql()
    assert set(o) <= set(q)
    assert len(q) >= 30


def test_knn_ivf_indexed_all_probe_cells_empty(ray_session, tmp_path):
    # k-means can leave cells memberless; if EVERY probe cell of every
    # query lacks a partition directory the query must return an empty,
    # correctly-typed result instead of crashing (ADVICE r02)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ethereum_raw_data_crawler_ray.stages.ann import knn_ivf_indexed

    d = 8
    cent = np.zeros((4, d), dtype=np.float32)
    for c in range(4):
        cent[c, c] = 1.0
    idx = str(tmp_path / "ivf")
    import os

    os.makedirs(os.path.join(idx, "data", "ivf_cell=3"))
    np.save(os.path.join(idx, "centroids.npy"), cent)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([0], type=pa.int64()),
                "embedding": pa.array([[0.0] * (d - 1) + [1.0]], type=pa.list_(pa.float32())),
            }
        ),
        os.path.join(idx, "data", "ivf_cell=3", "part-0.parquet"),
    )
    # query nearest to cells 0 and 1 — neither has a partition dir
    q = np.zeros((1, d), dtype=np.float32)
    q[0, 0] = 0.9
    q[0, 1] = 0.5
    out = knn_ivf_indexed(idx, q, k=5, n_probe=2)
    assert out.schema().names == ["query_id", "vec_id", "cosine", "rank"]
    assert out.count() == 0


class TestQueryCli:
    def test_list_and_run(self, sf_dir, ray_session, capsys):
        import json

        from ethereum_raw_data_crawler_ray.query import main

        assert main(["--list"]) == 0
        listing = capsys.readouterr().out
        assert "q01_pricing_summary\toracle" in listing
        assert "q40_crawl_pages\trows-only" in listing

        # runs inside the shared session (must NOT shut it down)
        assert main(["q02_count_by_type", "--sf-dir", sf_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == 5 and "event_type" in out["columns"]
        import ray

        assert ray.is_initialized()

    def test_unknown_query(self, sf_dir, ray_session):
        from ethereum_raw_data_crawler_ray.query import main

        assert main(["nope", "--sf-dir", sf_dir]) == 2

    def test_write_out(self, sf_dir, ray_session, tmp_path, capsys):
        import pandas as pd

        from ethereum_raw_data_crawler_ray.query import main

        out = str(tmp_path / "q06")
        assert main(["q06_topk_orders", "--sf-dir", sf_dir, "--out", out]) == 0
        import ray.data as rd

        assert rd.read_parquet(out).count() == 10


class TestNewRowsOnlyRegistry:
    """q71-q73 through the REGISTRY wrappers (not just the stage fns) —
    a projection/column regression in the wrapper must not ship green."""

    def test_q71_via_registry(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q71_hll_grouped"](sf_dir))
        assert set(df.columns) == {"event_type", "approx_distinct"}
        assert len(df) == 5 and (df["approx_distinct"] > 0).all()

    def test_q72_via_registry(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q72_image_pipeline"](sf_dir))
        assert list(df.columns) == ["doc_id", "width", "height", "format", "features"]
        assert (df["width"] == 32).all() and len(df) == 500

    def test_q73_via_registry(self, sf_dir, ray_session):
        df = to_pandas(QUERIES["q73_audio_pipeline"](sf_dir))
        assert {"sample_rate", "duration_s", "features"} <= set(df.columns)
        assert len(df) == 500 and (df["duration_s"] > 0).all()


def test_dim_attach_join_fallback_matches_oracle(sf_dir, ray_session,
                                                 monkeypatch, spy):
    # r04 verdict #6: past MAX_DIM_BROADCAST rows the dimension attach
    # must switch from the dense-array broadcast to the bucketed
    # hash_join — same oracle answers, same dtypes, either plan
    from ethereum_raw_data_crawler_ray.pipelines import queries as q
    from ethereum_raw_data_crawler_ray.stages import joins

    names = ["q10_revenue_by_nation", "q19_region_rollup",
             "q124_revenue_by_brand"]
    dense = spy(q, "_dense_lookup")
    dim_joins = spy(joins, "hash_join")
    assert not any(check_all(sf_dir, only=names, strict_dtypes=True).values())
    n_dense, n_joins = len(dense), len(dim_joins)
    assert n_dense > 0
    monkeypatch.setattr(q, "MAX_DIM_BROADCAST", 0)
    assert not any(check_all(sf_dir, only=names, strict_dtypes=True).values())
    assert len(dense) == n_dense  # no dense broadcast ran …
    assert len(dim_joins) == 2 * n_joins + n_dense  # … a hash_join each


def test_q111_type_without_k_sums_to_null(tmp_path, ray_session):
    # an event type none of whose props carry "k": COUNT(k) is 0 and
    # SUM(k) is NULL in SQL, so the engine's sum_k must be null there
    # (it read 0 before), in the oracle's float64 dtype class
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ethereum_raw_data_crawler_ray.pipelines.oracle_check import (
        compare,
        oracle_connect,
    )

    pq.write_table(pa.table({
        "event_type": ["click", "click", "view", "view", "buy"],
        "props": ['{"k": 3}', '{"k": -1, "x": 2}', '{"x": 1}', '{}', '{"k": 7}'],
    }), tmp_path / "events.parquet")
    name = "q111_json_field_agg"
    got = to_pandas(QUERIES[name](str(tmp_path)))
    want = oracle_connect(str(tmp_path)).execute(ORACLE_SQL[name]).fetchdf()
    assert compare(name, got, want, strict_dtypes=True) == []
    view = got.set_index("event_type").loc["view"]
    assert view["n"] == 0 and np.isnan(view["sum_k"]) and np.isnan(view["avg_k"])
    assert got.set_index("event_type").loc["click", "sum_k"] == 2
