"""Unit tests for the cuckoo filter, seen-set sharding and politeness
budgets (SURVEY.md §5 target strategy: cuckoo insert/contains/FP bound,
token-bucket budgets, priority ordering)."""

import numpy as np
import pandas as pd
import pytest

from ethereum_raw_data_crawler_ray.state.cuckoo import CuckooFilter
from ethereum_raw_data_crawler_ray.state.politeness import (
    ORDER_COLS,
    budget_for,
    path_of,
    robots_denied,
    salt_budget,
)
from ethereum_raw_data_crawler_ray.state.seen import LocalSeenSet


def _hashes(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


class TestCuckoo:
    def test_insert_contains(self):
        f = CuckooFilter(10_000)
        h = _hashes(5_000)
        novel = f.check_and_insert_many(h)
        assert novel.all()
        assert f.count == 5_000
        assert f.contains_many(h).all()

    def test_duplicates_within_batch(self):
        f = CuckooFilter(1_000)
        h = np.array([7, 7, 8, 7, 8], dtype=np.uint64)
        novel = f.check_and_insert_many(h)
        assert list(novel) == [True, False, True, False, False]
        assert f.count == 2

    def test_false_positive_bound(self):
        f = CuckooFilter(100_000)
        f.check_and_insert_many(_hashes(80_000, seed=1))
        probe = _hashes(100_000, seed=2)
        fp = f.contains_many(probe).mean()
        # 16-bit fingerprints, 2 buckets x 4 slots: expect ~0.012%, allow 0.1%
        assert fp < 1e-3

    def test_digest_insert_order_independent(self):
        h = _hashes(2_000, seed=3)
        a, b = CuckooFilter(100_000), CuckooFilter(100_000)
        a.check_and_insert_many(h)
        b.check_and_insert_many(h[::-1].copy())
        # contains() answers depend only on the inserted key set
        probe = np.concatenate([h, _hashes(50_000, seed=30)])
        assert a.count == b.count == len(h)
        assert (a.contains_many(probe) == b.contains_many(probe)).all()

    def test_high_load_with_fixed_low_bits(self):
        # regression (ADVICE r01): shard routing consumes the raw hash's
        # low bits (h % n_shards), so within a shard the low bits are
        # CONSTANT — the filter must still reach high load. Simulate a
        # 256-shard routing pattern at 90% of stated capacity.
        cap = 40_000
        f = CuckooFilter(cap)
        n = int(cap * 0.9)
        rng = np.random.default_rng(11)
        h = rng.integers(0, 2**56, size=n, dtype=np.uint64) * np.uint64(256) + np.uint64(3)
        assert (h % np.uint64(256) == 3).all()
        novel = f.check_and_insert_many(h)  # must not raise "shard full"
        assert f.count == int(novel.sum())
        assert f.contains_many(h).all()

    def test_count_consistent_across_batches(self):
        f = CuckooFilter(10_000)
        a, b = _hashes(500, seed=8), _hashes(700, seed=9)
        f.check_and_insert_many(a)
        f.check_and_insert_many(np.concatenate([a, b]))
        assert f.count == len(np.unique(np.concatenate([a, b])))

    def test_dump_restore(self):
        f = CuckooFilter(10_000)
        h = _hashes(1_000, seed=4)
        f.check_and_insert_many(h)
        g = CuckooFilter.restore(f.dump())
        assert g.count == f.count
        assert (g.table == f.table).all()
        assert g.contains_many(h).all()
        assert not g.check_and_insert_many(h).any()


class TestSeenSet:
    def test_sharded_membership(self):
        s = LocalSeenSet(4, 10_000)
        h = _hashes(3_000, seed=5)
        assert s.check_and_insert(h).all()
        assert not s.check_and_insert(h).any()
        assert s.contains(h).all()
        assert sum(s.counts()) == 3_000

    def test_shard_routing_stable(self):
        s1, s2 = LocalSeenSet(4, 10_000), LocalSeenSet(4, 10_000)
        h = _hashes(1_000, seed=6)
        s1.check_and_insert(h)
        s2.check_and_insert(h[::-1].copy())
        assert s1.end_round(0) == s2.end_round(0) == s1.digests()
        # the round's digests depend on what each shard admitted
        s3 = LocalSeenSet(4, 10_000)
        s3.check_and_insert(h[1:])
        assert sum(a != b for a, b in zip(s3.end_round(0), s1.digests())) == 1


class TestClaimReplay:
    def test_retry_replays_own_claims(self):
        from ethereum_raw_data_crawler_ray.state.cuckoo import CuckooFilter
        from ethereum_raw_data_crawler_ray.state.seen import _replay_claims, claim_token

        f, claims = CuckooFilter(10_000), {}
        h = _hashes(100, seed=20)
        tok = claim_token(h)
        first = _replay_claims(f, claims, h, 3, tok)
        assert first.all()
        # task retry: same content, same token → claims replay
        again = _replay_claims(f, claims, h, 3, tok)
        assert again.all()
        # a DIFFERENT task offering the same urls is a true duplicate
        other = _replay_claims(f, claims, h, 3, claim_token(h[::-1].copy()))
        assert not other.any()

    def test_replay_preserves_within_batch_dedup(self):
        from ethereum_raw_data_crawler_ray.state.cuckoo import CuckooFilter
        from ethereum_raw_data_crawler_ray.state.seen import _replay_claims, claim_token

        f, claims = CuckooFilter(1_000), {}
        h = np.array([5, 5, 9], dtype=np.uint64)
        tok = claim_token(h)
        assert list(_replay_claims(f, claims, h, 0, tok)) == [True, False, True]
        assert list(_replay_claims(f, claims, h, 0, tok)) == [True, False, True]

    def test_end_round_drops_log(self):
        from ethereum_raw_data_crawler_ray.state.cuckoo import CuckooFilter
        from ethereum_raw_data_crawler_ray.state.seen import _replay_claims, claim_token

        f, claims = CuckooFilter(1_000), {}
        h = _hashes(10, seed=21)
        tok = claim_token(h)
        _replay_claims(f, claims, h, 0, tok)
        claims.pop(0, None)  # what end_round does
        assert not _replay_claims(f, claims, h, 1, tok).any()


class TestSeenChain:
    """A seen shard's lineage digest (state/seen.py) chains each round's
    admitted claims, so it cannot depend on insert order or table layout,
    and a filter rebuilt by replaying the admitted claims answers like
    the original. Run at load 0.32 of a 1 << 19 shard, where two insert
    orders lay the tables out differently."""

    CAP = 1 << 19

    @classmethod
    def _distinct_keys(cls, n: int, seed: int) -> np.ndarray:
        # Admitted claims have pairwise distinct keys (fp, {i1, i2}); two
        # hashes sharing a key are a false positive, where whichever URL
        # claims first wins and the crawl's own output changes with it.
        # Keep the first hash of each key.
        h = _hashes(n, seed=seed)
        fp, i1, i2 = CuckooFilter(cls.CAP)._parts(h)
        key = (fp.astype(np.uint64) << np.uint64(32)) | np.minimum(i1, i2).astype(np.uint64)
        return h[np.sort(np.unique(key, return_index=True)[1])]

    def test_digest_independent_of_insert_order(self):
        from ethereum_raw_data_crawler_ray.state.seen import SeenShard, claim_token

        h = self._distinct_keys(340_000, seed=40)
        assert len(h) >= 330_000
        rng = np.random.default_rng(41)
        a, b = SeenShard(0, self.CAP), SeenShard(0, self.CAP)
        chain_a, chain_b = [], []
        for r, part in enumerate(np.array_split(h, 4)):
            # a claims the round as 8 task batches through the claim log,
            # b as one round-less batch, each in its own random order
            for batch in np.array_split(rng.permutation(part), 8):
                a.check_and_insert(batch, r, claim_token(batch))
            b.check_and_insert(rng.permutation(part))
            chain_a.append(a.end_round(r))
            chain_b.append(b.end_round(r))
        assert a.items() == b.items() == len(h)
        assert a.items() / a.filter.table.size >= 0.3
        assert chain_a == chain_b
        assert a.digest() == b.digest()
        # the layouts differ; the stored key sets do not
        assert not (a.filter.table == b.filter.table).all()
        probe = np.concatenate([_hashes(200_000, seed=44), h[::7]])
        hit = a.contains(probe)
        assert (hit == b.contains(probe)).all()
        assert hit[200_000:].all()


class TestOfferReplay:
    """A retried round task re-offers its batch; the cutoff must not move."""

    @staticmethod
    def _cutoff(chunks):
        from ethereum_raw_data_crawler_ray.state.politeness import _CutoffState

        st = _CutoffState()
        for hs in chunks:
            z = np.zeros(len(hs), dtype=np.int64)
            st.offer((["a.com"], [len(hs)], z, z, z, np.array(hs, dtype=np.uint64)),
                     {"a.com": 2})
        return st.cutoffs({"a.com": 2})["a.com"]

    def test_reoffered_chunk_keeps_cutoff(self):
        once = self._cutoff([[1, 2], [3]])
        assert once == (0, 0, 0, 2)
        assert self._cutoff([[1, 2], [3], [1, 2]]) == once
        assert self._cutoff([[1, 2], [1, 2], [3]]) == once

    def test_reoffers_past_compaction(self):
        # 4 x budget buffered rows trigger compaction inside offer
        assert self._cutoff([[1, 2]] * 6 + [[3]]) == (0, 0, 0, 2)


class TestGroups:
    """``state.pool.groups`` — the one key→shard grouping of the state plane."""

    def test_positions_complete_ascending_in_input_order(self):
        from ethereum_raw_data_crawler_ray.state.pool import groups, url_owner

        h = _hashes(5_000, seed=30)
        owner = url_owner(h, 7)
        got = list(groups(owner))
        shards = [j for j, _ in got]
        assert shards == sorted(set(owner.tolist()))
        allpos = np.concatenate([ix for _, ix in got])
        assert sorted(allpos.tolist()) == list(range(len(h)))
        for j, ix in got:
            assert (owner[ix] == j).all()
            assert (np.diff(ix) > 0).all()
        # the rule itself: url_hash % n, on the full 64 bits
        assert (owner == (h % np.uint64(7)).astype(np.int64)).all()

    def test_skips_shards_without_rows(self):
        from ethereum_raw_data_crawler_ray.state.pool import groups

        got = [(j, ix.tolist()) for j, ix in groups(np.array([3, 0, 3, 0, 3]))]
        assert got == [(0, [1, 3]), (3, [0, 2, 4])]

    def test_empty(self):
        from ethereum_raw_data_crawler_ray.state.pool import groups, host_owner, url_owner

        assert list(groups(url_owner(np.array([], dtype=np.uint64), 4))) == []
        assert list(groups(host_owner([], 4))) == []


class TestPoliteness:
    ROBOTS = {"slow.com": (1000, ("/private/",)), "fast.com": (0, ())}

    def test_budget(self):
        # analog of ETHEREUM_RATE_LIMIT: 60s round / 1000ms delay = 60 slots
        assert budget_for("slow.com", self.ROBOTS, 60_000, 100, 1000) == 60
        assert budget_for("fast.com", self.ROBOTS, 60_000, 100, 1000) == 1000
        # unknown host → default delay
        assert budget_for("x.com", self.ROBOTS, 60_000, 100, 1000) == 600
        assert budget_for("slow.com", self.ROBOTS, 60_000, 100, 10) == 10

    def test_salt_budget_sums_exactly(self):
        for b in (1, 7, 10, 999):
            for s in (1, 2, 4):
                assert sum(salt_budget(b, s, i) for i in range(s)) == b

    def test_robots_denied(self):
        assert robots_denied("https://slow.com/private/x", "slow.com", self.ROBOTS)
        assert not robots_denied("https://slow.com/page/x", "slow.com", self.ROBOTS)
        assert not robots_denied("https://fast.com/private/x", "fast.com", self.ROBOTS)
        assert path_of("https://a.com") == "/"

    def test_salt_count_for(self):
        from ethereum_raw_data_crawler_ray.state.politeness import salt_count_for

        assert salt_count_for(100, 1000, 1) == 1        # below threshold
        assert salt_count_for(2500, 1000, 1) == 3       # ceil(2500/1000)
        assert salt_count_for(2500, 1000, 4) == 4       # base wins
        assert salt_count_for(10**9, 1000, 1) == 64     # capped
        assert salt_count_for(2500, 0, 1) == 1          # disabled

    def test_backoff_budget(self):
        # class-aware rule (ethereum_service.go:594-624 analog): linear
        # in timeout errors, QUADRATIC in rate-limit errors
        from ethereum_raw_data_crawler_ray.state.politeness import backoff_budget

        assert backoff_budget(100, 0) == 100
        assert backoff_budget(100, 1) == 50    # 1 timeout → delay 2x
        assert backoff_budget(100, 3) == 25    # 3 timeouts → delay 4x
        assert backoff_budget(100, 1000) == 1  # never below 1
        assert backoff_budget(1, 5) == 1
        assert backoff_budget(100, 0, 1) == 25   # 1 rate-limit → (1+1)² = 4x
        assert backoff_budget(100, 0, 2) == 100 // 9  # quadratic
        assert backoff_budget(100, 1, 1) == 100 // 8  # composed
        assert backoff_budget(100, 0, 1000) == 1

    def test_transient_error_class_deterministic_and_split(self):
        import numpy as np

        from ethereum_raw_data_crawler_ray.stages.fetch import (
            ERR_RATE_LIMIT,
            ERR_TIMEOUT,
            transient_error_class,
        )

        h = np.arange(10_000, dtype=np.uint64) * np.uint64(2654435761)
        c1 = transient_error_class(h)
        c2 = transient_error_class(h)
        assert (c1 == c2).all()  # pure function of the hash
        frac_rl = (c1 == ERR_RATE_LIMIT).mean()
        assert 0.4 < frac_rl < 0.6  # ~half rate-limit, half timeout
        assert set(np.unique(c1)) <= {ERR_RATE_LIMIT, ERR_TIMEOUT}

    def test_parse_pkey(self):
        from ethereum_raw_data_crawler_ray.state.politeness import parse_pkey, pkey_of

        assert parse_pkey("a.com") == ("a.com", 0, 1)
        assert parse_pkey("a.com#3#8") == ("a.com", 3, 8)
        hosts = np.array(["a.com", "b.com", "a.com"], dtype=object)
        h = np.array([10, 11, 13], dtype=np.uint64)
        pk = pkey_of(hosts, h, 1, hot={"a.com": 4})
        assert pk[1] == "b.com"
        assert pk[0] == f"a.com#{10 % 4}#4" and pk[2] == f"a.com#{13 % 4}#4"

    def test_ordering_comparator(self):
        # priority ties broken by depth, then warc_ts, then url_hash —
        # the frontier-order analog of strict block-number order
        df = pd.DataFrame(
            {
                "priority": [1, 0, 0, 0],
                "depth": [0, 2, 1, 1],
                "warc_ts": [0, 0, 5, 5],
                "url_hash": np.array([40, 30, 20, 10], dtype=np.uint64),
                "url": ["d", "c", "b", "a"],
            }
        )
        got = df.sort_values(ORDER_COLS)["url"].tolist()
        assert got == ["a", "b", "c", "d"]


class TestActorRestarted:
    def test_no_deprecation_warning_inside_actor(self, ray_session):
        # every shard's health() polls this once per round; Ray's own
        # was_current_actor_reconstructed warns twice per call
        import ray

        from ethereum_raw_data_crawler_ray.state.resources import actor_restarted

        @ray.remote(num_cpus=0)
        class Probe:
            def check(self):
                import warnings

                from ethereum_raw_data_crawler_ray.state.resources import (
                    actor_restarted,
                )

                with warnings.catch_warnings(record=True) as w:
                    warnings.simplefilter("always")
                    restarted = actor_restarted()
                return restarted, [str(x.message) for x in w]

        probe = Probe.remote()
        try:
            restarted, warned = ray.get(probe.check.remote())
        finally:
            ray.kill(probe)
        assert restarted is False
        assert warned == []
        assert actor_restarted() is False  # the driver is not an actor


class TestShardReservation:
    """What a state-pool actor reserves in Ray's CPU ledger
    (state/resources.py): nothing on one node, the pool's merged share of
    the cluster split over its actors on several."""

    @staticmethod
    def _fake_cluster(monkeypatch, alive: list[bool], cpus: float) -> None:
        import ray

        monkeypatch.setattr(ray, "nodes", lambda: [{"Alive": a} for a in alive])
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus})

    def test_one_node_reserves_nothing(self, monkeypatch, ray_session):
        from ethereum_raw_data_crawler_ray.state.resources import shard_cpu_reservation

        assert shard_cpu_reservation(8) == 0.0  # the live test session
        self._fake_cluster(monkeypatch, [True, False], 64.0)
        assert shard_cpu_reservation(8) == 0.0

    def test_two_nodes_split_merged_fraction(self, monkeypatch, ray_session):
        from ethereum_raw_data_crawler_ray.state.resources import (
            POOL_CPU_FRACTION,
            shard_cpu_reservation,
        )

        # one merged share for the three roles the pool hosts
        assert POOL_CPU_FRACTION == pytest.approx(0.06 + 0.06 + 0.04)
        for cpus, n, want in [
            (16.0, 8, 0.32),   # 0.16 × 16 / 8
            (64.0, 8, 1.0),    # 1.28 clamps to one core
            (2.0, 64, 0.01),   # 0.005 clamps to the floor
        ]:
            self._fake_cluster(monkeypatch, [True, True], cpus)
            got = shard_cpu_reservation(n)
            assert got == pytest.approx(want)
            assert got == round(min(1.0, max(0.01, POOL_CPU_FRACTION * cpus / n)), 4)
