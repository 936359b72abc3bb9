"""Unit tests for URL normalization, hashing and extraction — the analog
of the reference's message-parse unit tests
(websocket_scheduler_test.go:94-168: valid parse, malformed robustness).
"""

import numpy as np
import pyarrow.parquet as pq
import pytest

from ethereum_raw_data_crawler_ray.functions.extract import (
    extract_batch,
    extract_outlinks_one,
    extract_text_one,
    render_html,
)
from ethereum_raw_data_crawler_ray.functions.hashing import hash_one, hash_strings
from ethereum_raw_data_crawler_ray.functions.urlnorm import (
    host_of,
    normalize_many,
    normalize_url,
)


class TestUrlNorm:
    def test_canonical(self):
        assert (
            normalize_url("HTTPS://Example.COM/Path?q=1#frag")
            == "https://example.com/Path?q=1"
        )

    def test_default_ports(self):
        assert normalize_url("http://a.com:80/x") == "http://a.com/x"
        assert normalize_url("https://a.com:443/x") == "https://a.com/x"
        assert normalize_url("https://a.com:8443/x") == "https://a.com:8443/x"

    def test_empty_path(self):
        assert normalize_url("https://a.com") == "https://a.com/"

    @pytest.mark.parametrize(
        "bad",
        ["", "notaurl", "ftp://a.com/x", "https://", "http:///path", None, "https://#f"],
    )
    def test_malformed_dropped(self, bad):
        # mirror of the malformed-message robustness tests
        # (websocket_scheduler_test.go:137-168): bad input → None, no raise
        if bad is None:
            u, h, ok = normalize_many([bad])
            assert not ok[0]
        else:
            assert normalize_url(bad) is None

    def test_host_of(self):
        assert host_of("https://example.com/a/b") == "example.com"

    def test_vector_matches_scalar(self):
        urls = ["https://A.com/x#f", "bad", "http://b.org"]
        u, h, ok = normalize_many(urls)
        assert list(ok) == [True, False, True]
        assert u[0] == "https://a.com/x"
        assert h[2] == "b.org"


class TestHashing:
    def test_deterministic_across_calls(self):
        a = hash_strings(["x", "y"])
        b = hash_strings(["x", "y"])
        assert a.dtype == np.uint64
        assert (a == b).all()
        assert hash_one("x") == int(a[0])

    def test_distinct(self):
        h = hash_strings([f"u{i}" for i in range(1000)])
        assert len(set(h.tolist())) == 1000


class TestExtract:
    def test_roundtrip_byte_identical(self):
        text = 'words & <tags> "quoted" — ünïcode'
        html = render_html(text, "t", ["https://a.com/1", "https://b.com/2?x=1&y=2"])
        out, parser = extract_text_one(html)
        assert parser == "strict"
        assert out == text

    def test_outlinks(self):
        links = ["https://a.com/1", "https://b.com/2?x=1&y=2"]
        html = render_html("t", "title", links)
        assert extract_outlinks_one(html) == links

    def test_fallback_lenient(self):
        raw = b"<html><body><div>some <b>bold</b> text</div></body></html>"
        out, parser = extract_text_one(raw)
        assert parser == "lenient"
        assert "bold" in out and "<" not in out

    def test_fallback_raw(self):
        out, parser = extract_text_one(b"just plain bytes")
        assert parser == "raw"
        assert out == "just plain bytes"
        assert extract_text_one(None) == ("", "empty")

    def test_corpus_oracle(self, corpus_dir):
        # FIXTURES.md test case 4: extract(html) == text for ALL rows
        t = pq.read_table(corpus_dir + "/pages.parquet", columns=["html", "text"])
        texts, _ = extract_batch(t["html"].to_pylist())
        assert list(texts) == t["text"].to_pylist()


class TestEnrichBatch:
    def test_matches_scalar_functions(self):
        from ethereum_raw_data_crawler_ray.functions.textstats import (
            enrich_batch,
            fingerprint64,
            lang_id,
            lsh_band_keys,
            minhash_signature,
            quality_score,
            quality_stats,
            simhash64,
            token_count_bpe,
            word_shingles,
        )

        rng = np.random.default_rng(3)
        vocab = ["the", "and", "der", "une", "người", "w1", "w2", "w3", "punct!?"]
        texts = [
            " ".join(rng.choice(vocab, size=int(k)))
            for k in rng.integers(0, 60, size=40)
        ] + ["", "one", "a b", "ünïcode tëxt des la the", "  spaces   between  "]
        res = enrich_batch(texts, n_bands=4)
        for i, x in enumerate(texts):
            assert res["lang_guess"][i] == lang_id(x)
            assert res["quality"][i] == quality_score(*quality_stats(x))
            assert res["n_tokens_bpe"][i] == token_count_bpe(x)
            assert int(res["simhash"][i]) == simhash64(x)
            assert int(res["fingerprint"][i]) == fingerprint64(x)
            expect = lsh_band_keys(minhash_signature(word_shingles(x)), 4)
            assert (res["minhash_bands"][i] == expect).all()


class TestPpmCodec:
    def test_roundtrip(self):
        from ethereum_raw_data_crawler_ray.stages.multimodal import decode_ppm, encode_ppm

        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
        assert (decode_ppm(encode_ppm(img)) == img).all()

    def test_decode_handles_comments_and_rejects_garbage(self):
        import pytest as _pytest

        from ethereum_raw_data_crawler_ray.stages.multimodal import decode_ppm, encode_ppm

        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        blob = encode_ppm(img)
        commented = b"P6\n# a comment\n5 4\n255\n" + blob.split(b"255\n", 1)[1]
        assert (decode_ppm(commented) == img).all()
        with _pytest.raises(ValueError):
            decode_ppm(b"JFIF....")

    def test_resize_nearest_matches_reference(self):
        from ethereum_raw_data_crawler_ray.stages.multimodal import resize_nearest

        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(10, 14, 3), dtype=np.uint8)
        out = resize_nearest(img, 7, 5)
        assert out.shape == (5, 7, 3)
        for y in range(5):
            for x in range(7):
                assert (out[y, x] == img[(y * 10) // 5, (x * 14) // 7]).all()


def test_ppm_pipeline_end_to_end(sf_dir, ray_session):
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.multimodal import (
        attach_ppm_blobs,
        decode_ppm,
        ppm_pipeline,
    )

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ppm_pipeline(attach_ppm_blobs(docs, "text", "doc_id")).to_pandas()
    assert len(out) == docs.count()
    assert (out["width"] == 32).all() and (out["height"] == 32).all()
    assert (out["format"] == "ppm").all()
    feats = np.stack(out["features"].to_list())
    assert feats.shape[1] == 14
    # histogram bins (last 8) sum to 1 per image
    np.testing.assert_allclose(feats[:, 6:].sum(axis=1), 1.0, rtol=1e-5)
    # output blobs are decodable 32x32 images
    img = decode_ppm(out["blob"].iloc[0])
    assert img.shape == (32, 32, 3)


class TestWavCodec:
    def test_roundtrip_and_features(self):
        from ethereum_raw_data_crawler_ray.stages.multimodal import (
            decode_wav,
            encode_wav,
            wav_features,
        )

        s = (np.sin(np.arange(8000) * 0.05) * 30000).astype(np.int16)
        d, r = decode_wav(encode_wav(s, 16000))
        assert (d == s).all() and r == 16000
        f = wav_features(d, r)
        assert f.shape == (4,) and abs(f[0] - 0.5) < 1e-6  # 8000/16000 s
        # pure sine: RMS ≈ amp/√2
        assert abs(f[1] - (30000 / 32768) / np.sqrt(2)) < 0.01

    def test_rejects_non_wav(self):
        import pytest as _pytest

        from ethereum_raw_data_crawler_ray.stages.multimodal import decode_wav

        with _pytest.raises(ValueError):
            decode_wav(b"OggS....")


def test_wav_pipeline_end_to_end(sf_dir, ray_session):
    import ray.data as rd

    from ethereum_raw_data_crawler_ray.stages.multimodal import (
        attach_wav_blobs,
        wav_pipeline,
    )

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = wav_pipeline(attach_wav_blobs(docs, "text", "doc_id")).to_pandas()
    assert len(out) == docs.count()
    assert (out["sample_rate"] == 16000).all()
    assert (out["duration_s"] > 0).all()
    feats = np.stack(out["features"].to_list())
    assert feats.shape[1] == 4
    assert (feats[:, 3] <= 1.0).all()  # peak normalized


def test_wav_truncated_raises_valueerror():
    from ethereum_raw_data_crawler_ray.stages.multimodal import decode_wav

    with pytest.raises(ValueError):
        decode_wav(b"RIFF\x00\x00\x00\x00WAVE")  # magic ok, header truncated


def test_codec_encoders_reject_bad_input():
    from ethereum_raw_data_crawler_ray.stages.multimodal import encode_ppm, encode_wav

    with pytest.raises(ValueError):
        encode_ppm(np.zeros((4, 4), dtype=np.uint8))  # no channel dim
    with pytest.raises(ValueError):
        encode_wav(np.zeros(8, dtype=np.float32))  # not int16


class TestRedactPII:
    def test_sequential_counts_and_rewrite(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.functions.redact import redact_pii

        docs = pd.DataFrame(
            {
                "doc_id": pd.array([1, 2], dtype="int64"),
                "text": [
                    "mail a@b.com and c.d@e.org call +1 555-123-4567 ip 1.2.3.4",
                    "no pii here",
                ],
            }
        )
        out = (
            redact_pii(rd.from_pandas(docs))
            .to_pandas().sort_values("doc_id").set_index("doc_id")
        )
        assert out.loc[1, "n_emails"] == 2
        assert out.loc[1, "n_phones"] == 1
        assert out.loc[1, "n_ips"] == 1
        assert out.loc[1, "redacted"] == (
            "mail [EMAIL] and [EMAIL] call [PHONE] ip [IP]"
        )
        assert out.loc[2].tolist() == [0, 0, 0, "no pii here"]

    def test_email_consumed_before_ip(self, ray_session):
        # digits-and-dots inside an email must not double count as an IP
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.functions.redact import redact_pii

        docs = pd.DataFrame({"doc_id": pd.array([1], dtype="int64"),
                             "text": ["x 1.2.3.4@9.8.7.6sub.com y"]})
        out = redact_pii(rd.from_pandas(docs)).to_pandas().iloc[0]
        assert out["n_emails"] == 1 and out["n_ips"] == 0
        assert out["redacted"] == "x [EMAIL] y"


class TestResizeFailureFlag:
    """ADVICE r04: a decode/resize failure must pass the original blob
    through WITH a signal — resize_ok=False and untouched dims — so
    downstream stages can filter wrong-size payloads."""

    def test_fake_codec_flags_non_magic_blob(self):
        import struct

        import pyarrow as pa

        from ethereum_raw_data_crawler_ray.stages.multimodal import (
            _MAGIC,
            ResizeStage,
        )

        good = _MAGIC + struct.pack("<II", 10, 10) + bytes(range(100))
        bad = b"not an image at all"
        t = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "blob": pa.array([good, bad], pa.binary()),
            "width": pa.array([10, -1], pa.int32()),
            "height": pa.array([10, -1], pa.int32()),
        })
        out = ResizeStage(4, 4)(t).to_pandas()
        assert list(out["resize_ok"]) == [True, False]
        # resized row reports target dims; failed row keeps its own
        assert list(zip(out["width"], out["height"])) == [(4, 4), (-1, -1)]
        # failed blob passes through byte-identical
        assert out["blob"][1] == bad

    def test_no_metadata_columns_fallback(self):
        import pyarrow as pa

        from ethereum_raw_data_crawler_ray.stages.multimodal import ResizeStage

        t = pa.table({"blob": pa.array([b"junk"], pa.binary())})
        out = ResizeStage(4, 4)(t).to_pandas()
        assert not out["resize_ok"][0]
        assert (out["width"][0], out["height"][0]) == (-1, -1)


class TestY4MCodec:
    """REAL YUV4MPEG2 video demux (numpy-only, like the PPM/WAV codecs)
    — r04 verdict #5: q39's path executes a genuine container parse."""

    def test_roundtrip_c420_and_mono(self):
        import numpy as np

        from ethereum_raw_data_crawler_ray.stages.multimodal import (
            demux_y4m,
            encode_y4m,
        )

        y = (np.arange(5 * 12 * 16, dtype=np.uint8).reshape(5, 12, 16) * 3)
        u = np.full((5, 6, 8), 100, np.uint8)
        hdr, frames = demux_y4m(encode_y4m(y, u, u, fps=(30, 1)))
        assert (hdr["n_frames"], hdr["width"], hdr["height"]) == (5, 16, 12)
        assert hdr["colorspace"] == "C420jpeg" and hdr["fps"] == (30, 1)
        for i, fy in frames:
            assert (fy == y[i]).all()
        hdr2, frames2 = demux_y4m(encode_y4m(y), frames=[1, 4])
        assert hdr2["colorspace"] == "Cmono"
        assert [i for i, _ in frames2] == [1, 4]
        assert all((fy == y[i]).all() for i, fy in frames2)

    def test_rejects_malformed(self):
        import numpy as np
        import pytest as _pytest

        from ethereum_raw_data_crawler_ray.stages.multimodal import (
            demux_y4m,
            encode_y4m,
        )

        y = np.zeros((2, 4, 4), np.uint8)
        good = encode_y4m(y)
        for bad in (b"RIFFjunk", b"YUV4MPEG2 W4 Cmono\nFRAME\n",
                    good[:-3],  # truncated frame payload
                    good.replace(b"FRAME", b"FLAME", 1)):
            with _pytest.raises(ValueError):
                demux_y4m(bad)
        with _pytest.raises(ValueError):  # odd dims can't be C420
            encode_y4m(np.zeros((1, 3, 3), np.uint8),
                       np.zeros((1, 1, 1), np.uint8),
                       np.zeros((1, 1, 1), np.uint8))

    def test_frame_stage_samples_and_features(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.multimodal import (
            FrameSampleStage,
            encode_y4m,
            frame_sample_pipeline,
            make_y4m_blob,
        )

        rng = np.random.default_rng(7)
        y = rng.integers(0, 256, size=(11, 8, 10), dtype=np.uint8)
        blob = encode_y4m(y)
        t = pa.table({"doc_id": pa.array([42], pa.int64()),
                      "blob": pa.array([blob], pa.binary())})
        out = FrameSampleStage(stride=3, max_frames=3, codec="y4m")(t).to_pandas()
        # stride sampling: frames 0, 3, 6 (max 3 of range(0, 11, 3))
        assert list(out["frame_no"]) == [0, 3, 6]
        for _, r in out.iterrows():
            src = y[int(r["frame_no"])]
            assert r["y_mean"] == float(src.mean())
            assert r["y_std"] == float(src.std())
            assert bytes(r["frame"]) == src.tobytes()
        assert (out["width"] == 10).all() and (out["height"] == 8).all()
        # distributed actor-pool stage over variable-size videos
        blobs = [make_y4m_blob(f"doc {i}", 16, 12, 5 + i % 7)
                 for i in range(40)]
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(40), pa.int64()),
            "blob": pa.array(blobs, pa.binary()),
        }))
        df = frame_sample_pipeline(ds, stride=2, max_frames=4,
                                   codec="y4m").to_pandas()
        per_doc = df.groupby("doc_id").size()
        for i in range(40):
            n = 5 + i % 7
            assert per_doc[i] == min(4, len(range(0, n, 2)))

    def test_compressed_codec_still_stubbed(self):
        import pytest as _pytest

        from ethereum_raw_data_crawler_ray.stages.multimodal import (
            FrameSampleStage,
        )

        with _pytest.raises(NotImplementedError):
            FrameSampleStage(codec="ffmpeg")


def test_resize_truncated_magic_blob_flagged():
    # a blob with valid magic but a truncated header must flag, not
    # crash struct.unpack (review r05)
    import pyarrow as pa

    from ethereum_raw_data_crawler_ray.stages.multimodal import (
        _MAGIC,
        ResizeStage,
    )

    t = pa.table({"blob": pa.array([_MAGIC + b"\x01\x02", _MAGIC],
                                   pa.binary())})
    out = ResizeStage(4, 4)(t).to_pandas()
    assert list(out["resize_ok"]) == [False, False]
    assert bytes(out["blob"][0]) == _MAGIC + b"\x01\x02"
