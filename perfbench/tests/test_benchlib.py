"""Unit tests of the benchmark's own helpers (no Ray needed):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

from benchlib import procfs  # noqa: E402
from benchlib.stats import OpLog, fastest, tail_percentile  # noqa: E402
from benchlib.trace import Tracer  # noqa: E402


# --- the >=10-beyond percentile rule ------------------------------------------
@pytest.mark.parametrize("n", [11, 12, 20, 34, 35, 99, 100, 1000])
def test_tail_percentile_keeps_ten_beyond(n):
    values = [float(i) for i in range(n)]
    p, v = tail_percentile(values)
    beyond = sum(x > v for x in values)
    assert beyond >= 10
    # the next whole percentile would leave fewer than ten beyond
    if p < 99:
        rank = math.ceil((p + 1) * n / 100)
        assert n - rank < 10


def test_tail_percentile_examples():
    assert tail_percentile([float(i) for i in range(100)]) == (90, 89.0)
    assert tail_percentile([float(i) for i in range(34)]) == (70, 23.0)
    assert tail_percentile([5.0] * 10) is None
    assert tail_percentile([3.0, 1.0, 2.0] + [0.0] * 8) == (9, 0.0)


# --- span self time and unattributed --------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children_and_unattributed_is_the_gap():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("round"):          # 0 .. 10
        clock.t = 1.0
        with tr.span("finalize"):   # 1 .. 3
            clock.t = 3.0
        clock.t = 4.0
        with tr.span("execute"):    # 4 .. 9
            clock.t = 6.0
            with tr.span("inner"):  # 6 .. 7
                clock.t = 7.0
            clock.t = 9.0
        clock.t = 10.0
    clock.t = 12.0
    with tr.span("round"):          # 12 .. 13
        clock.t = 13.0
    st = tr.self_times()
    assert st["round"] == {"calls": 2, "total_s": 11.0, "self_s": 4.0}
    assert st["finalize"]["self_s"] == 2.0
    assert st["execute"]["self_s"] == 4.0
    assert st["inner"]["self_s"] == 1.0
    # window 0 .. 15: roots cover 0-10 and 12-13
    assert tr.unattributed(0.0, 15.0) == 4.0
    assert tr.unattributed(11.0, 12.5) == 1.0


def test_disabled_tracer_and_other_threads_record_nothing():
    import threading

    tr = Tracer(enabled=False)
    with tr.span("x"):
        pass
    assert tr.spans == []
    tr = Tracer()
    th = threading.Thread(target=lambda: tr.span("bg").__enter__())
    th.start()
    th.join(timeout=5)
    assert not th.is_alive()
    assert tr.spans == []


def test_wrap_and_restore():
    class Pool:
        def finalize(self, x):
            return x + 1

    tr = Tracer()
    tr.wrap(Pool, "finalize", "state.politeness.finalize")
    assert Pool().finalize(1) == 2
    tr.restore()
    assert Pool().finalize(1) == 2
    assert [s.name for s in tr.spans] == ["state.politeness.finalize"]


# --- /proc tree accounting --------------------------------------------------------
def P(pid, ppid, self_s, reaped_s=0.0, title="ray::IDLE", started=1, hwm=0):
    return procfs.Proc(pid, ppid, started, title, self_s, reaped_s, hwm)


def test_parse_stat_handles_spaces_in_command():
    fields = ["S", "7"] + ["0"] * 9 + ["250", "150", "40", "60"] + ["0"] * 4 + ["12345"]
    ppid, started, self_s, reaped_s = procfs.parse_stat("42 (ray::Seen Shard) " + " ".join(fields))
    assert ppid == 7 and started == 12345
    assert self_s == pytest.approx(400 / procfs.CLK_TCK)
    assert reaped_s == pytest.approx(100 / procfs.CLK_TCK)


def test_tree_keeps_only_descendants():
    procs = {p.pid: p for p in [P(1, 0, 0), P(10, 1, 0), P(11, 10, 0), P(12, 11, 0), P(20, 1, 0)]}
    assert set(procfs.tree(procs, 10)) == {10, 11, 12}


def _window(before_procs, after_procs, dead_last, groups, t_mark=1.0):
    """Run cpu_by_group on hand-made samples: ``dead_last`` are processes
    last sampled inside the window and gone at its end."""
    mark = procfs.Mark(t_mark, {procfs.key(p): p for p in before_procs})
    after = {procfs.key(p): p for p in after_procs}
    seen = {procfs.key(p): (t_mark, p) for p in before_procs}
    seen.update({procfs.key(p): (t_mark + 1, p) for p in dead_last})
    seen.update({procfs.key(p): (t_mark + 2, p) for p in after_procs})
    return procfs.cpu_by_group(mark, after, seen, groups)


GROUPS = {(10, 1): "driver", (11, 1): "daemons", (12, 1): "state.seen", (13, 1): "workers"}


def test_child_reaped_by_wait_counted_exactly_once():
    # worker 12 has 2 s at the mark and is last sampled at 4 s; it ends
    # at 5 s and its parent 11 reaps it with wait(), gaining all 5 s
    before = [P(10, 1, 1.0), P(11, 10, 0.5), P(12, 11, 2.0), P(13, 11, 1.0)]
    after = [P(10, 1, 1.5), P(11, 10, 0.7, reaped_s=5.0), P(13, 11, 4.0)]
    by = _window(before, after, [P(12, 11, 4.0)], GROUPS)
    assert by["state.seen"] == pytest.approx(2.0)   # 4 - 2, up to its last sample
    assert by["reaped"] == pytest.approx(1.0)       # 5 - 4, its unsampled tail
    assert by["driver"] == pytest.approx(0.5)
    assert by["daemons"] == pytest.approx(0.2)
    assert by["workers"] == pytest.approx(3.0)
    assert by["total"] == pytest.approx(0.5 + 0.2 + 3.0 + 3.0)


def test_child_reaped_without_wait_is_kept():
    # the raylet ignores SIGCHLD: the kernel reaps the worker and the
    # parent's cutime does not grow, so its last sample is all we have
    before = [P(11, 10, 0.5), P(12, 11, 2.0)]
    after = [P(11, 10, 0.5)]
    by = _window(before, after, [P(12, 11, 4.5)], GROUPS)
    assert by["state.seen"] == pytest.approx(2.5)
    assert by["reaped"] == 0.0
    assert by["total"] == pytest.approx(2.5)


def test_unsampled_child_lands_in_reaped_and_old_deaths_are_ignored():
    before = [P(11, 10, 0.5)]
    after = [P(11, 10, 0.5, reaped_s=0.3)]
    mark = procfs.Mark(5.0, {procfs.key(p): p for p in before})
    seen = {procfs.key(p): (5.0, p) for p in after}
    seen[(99, 1)] = (1.0, P(99, 11, 7.0))  # ended before the window
    by = procfs.cpu_by_group(mark, {procfs.key(p): p for p in after}, seen, {})
    assert by["reaped"] == pytest.approx(0.3)
    assert by["total"] == pytest.approx(0.3)


def test_reused_pid_is_a_new_process():
    by = _window([P(5, 1, 9.0, started=100)], [P(5, 1, 1.0, started=200)], [], {})
    assert by["workers"] == pytest.approx(1.0)


@pytest.mark.parametrize("title, group", [
    ("ray::SeenShard", "state.seen"),
    ("ray::SeenShard.dump_npz()", "state.seen"),
    ("ray::PageStoreShard.fetch_packed", "state.store"),
    ("ray::CutoffShard.__init__", "state.politeness"),
    ("ray::IDLE", "workers"),
    ("ray::MapBatches(round_task)", "workers"),
    ("ray::_StatsActor", "daemons"),
    ("/usr/bin/python3 .../ray/_private/workers/default_worker.py --runtime-env-hash=1", "workers"),
    (".../ray/core/src/ray/raylet/raylet --raylet_socket_name=x", "daemons"),
    (".../ray/core/src/ray/gcs/gcs_server --log_dir=x", "daemons"),
])
def test_classify(title, group):
    assert procfs.classify(title) == group


def test_monitor_keeps_the_most_specific_group(monkeypatch):
    titles = iter(["/x/default_worker.py", "ray::SeenShard", "ray::IDLE"])
    mon = procfs.TreeMonitor(root=1)

    def snap(root):
        return {7: P(7, 1, 0.0, title=next(titles), hwm=100)}

    monkeypatch.setattr(procfs, "snapshot", snap)
    for _ in range(3):
        mon.sample()
    assert mon.groups[(7, 1)] == "state.seen"
    assert mon.peak_kb == 100


def test_window_peak_restarts_and_a_paused_sample_moves_no_peak(monkeypatch):
    hwm = iter([300, 100, 200, 900])
    mon = procfs.TreeMonitor(root=1)
    monkeypatch.setattr(procfs, "snapshot", lambda root: {7: P(7, 1, 0.0, hwm=next(hwm))})
    mon.sample()
    mon.reset_window()
    mon.sample()
    mon.sample()
    assert (mon.peak_kb, mon.window_peak_kb) == (300, 200)
    mon.peak_paused = True
    mon.sample()
    assert (mon.peak_kb, mon.window_peak_kb) == (300, 200)


# --- deadlines ----------------------------------------------------------------------
def test_deadline_interrupts_a_blocked_op_and_a_spent_budget_fails_at_once():
    import time

    from benchlib.session import Deadline, deadline

    t0 = time.perf_counter()
    with pytest.raises(Deadline):
        with deadline(0.2):
            time.sleep(5)
    assert time.perf_counter() - t0 < 2
    with pytest.raises(Deadline):
        with deadline(0):
            pass
    with deadline(5):  # a finished op leaves no alarm behind
        pass
    time.sleep(0.1)


def test_describe_finds_a_deadline_under_a_system_error():
    from benchlib.session import Deadline, describe

    try:
        try:
            raise Deadline("deadline of 60 s exceeded")
        except Deadline as d:
            raise SystemError("wait returned a result with an exception set") from d
    except SystemError as e:
        assert describe(e) == "Deadline: deadline of 60 s exceeded"
    assert describe(ValueError("bad")) == "ValueError: bad"


# --- each round's fastest wall over the crawls ---------------------------------------
def test_fastest_takes_each_keys_minimum_over_the_repetitions():
    reps = [{0: 0.5, 1: 0.9, 2: 0.3}, {0: 0.7, 1: 0.4}, {0: 0.6, 1: 0.8, 2: 0.2}]
    assert fastest(reps) == {0: 0.5, 1: 0.4, 2: 0.2}
    assert fastest([{3: 1.0}]) == {3: 1.0}
    assert fastest([]) == {}


# --- the oracle's answers are computed once per set of tables ------------------------
def test_expected_frames_are_cached_by_table_bytes(tmp_path, monkeypatch):
    import pandas as pd

    sys.path.insert(0, os.path.dirname(PERFBENCH))  # the engine package
    from ethereum_raw_data_crawler_ray.pipelines import oracle_check

    from benchlib.queries import expected_frames

    class Con:
        def execute(self, sql):
            return self

        def fetchdf(self):
            return pd.DataFrame({"x": [1]})

        def close(self):
            pass

    calls = []
    monkeypatch.setattr(oracle_check, "oracle_connect", lambda d: calls.append(d) or Con())
    sf = tmp_path / "sf"
    sf.mkdir()
    (sf / "t.parquet").write_bytes(b"one")
    first = expected_frames(str(sf), str(tmp_path))
    again = expected_frames(str(sf), str(tmp_path))
    assert len(calls) == 1 and first.keys() == again.keys() and first
    (sf / "t.parquet").write_bytes(b"two")
    expected_frames(str(sf), str(tmp_path))
    assert len(calls) == 2


# --- fail_ratio counting -----------------------------------------------------------
def test_fail_ratio_counts_each_failed_op_once():
    log = OpLog()
    a = log.add("round 0", 0.5)
    log.add("round 1", 0.4)
    log.add("round 2", 0.1, "Deadline: deadline of 60 s exceeded")
    log.fail(a, "fetched urls differ from golden")
    log.fail(a, "texts differ from the corpus")
    assert (log.attempted, log.failed) == (3, 2)
    assert log.fail_ratio == pytest.approx(2 / 3)
    assert len(log.errors()) == 2
    assert OpLog().fail_ratio == 0.0


# --- BENCHMARK.json matches what run.py prints --------------------------------------
def test_benchmark_json_lists_the_metrics_run_py_prints():
    import importlib.util
    import json

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(here, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
