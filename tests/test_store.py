"""Page-store shard tests: packed-buffer fetch protocol correctness
(hits, misses, empties) against the plain protocol, and the shard's
url_hash → (file, row group) index without Ray."""

import os

import numpy as np
import pytest

from ethereum_raw_data_crawler_ray.functions.hashing import hash_strings


@pytest.fixture(scope="module")
def store(corpus_dir, ray_session):
    from ethereum_raw_data_crawler_ray.stages.fetch import build_fetch_index
    from ethereum_raw_data_crawler_ray.state.store import ActorPageStore

    build_fetch_index(corpus_dir + "/pages.parquet", "/tmp/crawl_test_idx", 8)
    s = ActorPageStore("/tmp/crawl_test_idx", 8, 4)
    assert s.wait_ready() == 1500
    yield s
    s.kill()


def test_fetch_scatter_hits_and_misses(store, corpus_dir):
    import pyarrow.parquet as pq

    from ethereum_raw_data_crawler_ray.state.store import fetch_scatter

    t = pq.read_table(corpus_dir + "/pages.parquet", columns=["url", "html"])
    urls = np.array(t["url"].to_pylist()[:50] + ["https://nope.example/missing"], dtype=object)
    hashes = hash_strings(urls)
    got = fetch_scatter(store.handles, urls, hashes)
    assert got[-1] is None  # miss
    htmls = dict(zip(t["url"].to_pylist(), t["html"].to_pylist()))
    for u, payload in zip(urls[:-1], got[:-1]):
        ts, html, lang = payload
        assert bytes(html) == htmls[u]  # byte-exact through the packed buffer
        assert isinstance(ts, int) and lang


def test_fetch_scatter_empty(store):
    from ethereum_raw_data_crawler_ray.state.store import fetch_scatter

    assert fetch_scatter(store.handles, np.array([], dtype=object),
                         np.array([], dtype=np.uint64)) == []


def test_n_buckets_must_divide(ray_session):
    from ethereum_raw_data_crawler_ray.state.store import ActorPageStore

    with pytest.raises(ValueError):
        ActorPageStore("/tmp/crawl_test_idx", 8, 3)


class TestPageStoreShardIndex:
    """Ray-free: a url loaded twice resolves to its newest copy (as the
    golden simulator's dict does), and urls sharing a 64-bit hash each
    resolve to their own page."""

    @staticmethod
    def _write(path, urls, htmls, rows_per_group=2):
        import pyarrow as pa
        import pyarrow.parquet as pq

        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(pa.table({
            "url": urls,
            "warc_ts": pa.array(range(len(urls)), pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "lang": ["en"] * len(urls),
        }), path, row_group_size=rows_per_group)
        return str(path)

    def _html(self, shard, urls):
        return [m and m[1] for m in shard._get_many(urls)]

    def test_pushed_duplicate_resolves_to_newest(self, tmp_path):
        from ethereum_raw_data_crawler_ray.state.store import PageStoreShard

        idx = tmp_path / "idx"
        self._write(idx / "bucket=0" / "a.parquet",
                    ["u/a", "u/dup", "u/b", "u/dup2"], [b"a", b"old", b"b", b"v1"])
        # within one file the later row group is the newer copy
        self._write(idx / "bucket=0" / "b.parquet", ["u/dup2", "u/c"], [b"v2", b"c"])
        shard = PageStoreShard(0, str(idx), 1, 1, lru_groups=1)
        pushed = self._write(tmp_path / "push.parquet", ["u/dup", "u/d"], [b"new", b"d"])
        assert shard.load_files([pushed]) == 2
        urls = ["u/dup", "u/dup2", "u/a", "u/d", "u/none"]
        assert self._html(shard, urls) == [b"new", b"v2", b"a", b"d", None]
        assert shard.items() == 8
        found, _, _, offs, buf = shard.fetch_packed(urls)
        assert found.tolist() == [True, True, True, True, False]
        assert buf[offs[0]:offs[1]] == b"new"

    def test_hash_collision_is_exact(self, tmp_path, monkeypatch):
        from ethereum_raw_data_crawler_ray.state import store

        # every url hashes to 7: all index entries share one hash
        monkeypatch.setattr(store, "hash_strings",
                            lambda urls: np.full(len(urls), 7, dtype=np.uint64))
        idx = tmp_path / "idx"
        self._write(idx / "bucket=0" / "a.parquet",
                    ["u/1", "u/2", "u/3"], [b"1", b"2", b"3"], rows_per_group=1)
        self._write(idx / "bucket=0" / "b.parquet", ["u/4"], [b"4"])
        shard = store.PageStoreShard(0, str(idx), 1, 1, lru_groups=2)
        urls = ["u/3", "u/1", "u/4", "u/2", "u/none"]
        assert self._html(shard, urls) == [b"3", b"1", b"4", b"2", None]
