"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps
engine methods by name in ``install_spans``; renaming one of them must
fail here rather than crash the traced run. Ray-free."""

import importlib.util
import os
import sys
import types

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load_run_module():
    sys.path.insert(0, PERFBENCH)  # run.py imports its helpers as ``benchlib``
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH, "run.py"))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        from benchlib.trace import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    return mod, Tracer


def test_install_spans_wraps_engine_methods_and_restores():
    import ray.data

    from ethereum_raw_data_crawler_ray.state.politeness import CutoffPool
    from ethereum_raw_data_crawler_ray.state.seen import ActorSeenSet
    from ethereum_raw_data_crawler_ray.state.store import ActorPageStore

    run_mod, Tracer = _load_run_module()
    targets = [(ActorSeenSet, a) for a in ("save", "digests", "load", "end_round")]
    targets += [(CutoffPool, a) for a in ("finalize", "fetch_ready", "collect_lineage")]
    targets += [(ActorPageStore, "wait_ready"), (ray.data.Dataset, "write_parquet")]
    before = {t: getattr(*t) for t in targets}
    run = types.SimpleNamespace(tracer=Tracer())
    try:
        run_mod.install_spans(run)
        assert [t for t in targets if getattr(*t) is before[t]] == []
    finally:
        run.tracer.restore()
    assert [t for t in targets if getattr(*t) is not before[t]] == []
