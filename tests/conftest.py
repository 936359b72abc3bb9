"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest run."""

from __future__ import annotations

import sys
import os

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    from ethereum_raw_data_crawler_ray.logquiet import logging_env, quiet_ray_data_warts

    os.environ.update(logging_env())
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        runtime_env={"env_vars": logging_env()},
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    quiet_ray_data_warts()
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir():
    """Small deterministic pages corpus shared by crawl tests."""
    from ethereum_raw_data_crawler_ray.testdata import ensure_corpus

    return ensure_corpus(1500, n_hosts=20, n_seeds=10, base_dir="/tmp/test_corpus")


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps ``module.name`` for the test and
    returns the list it appends each call's ``(args, kwargs)`` to; the
    wrapped function still runs. Plan tests use it to check which plan
    a guard picked."""

    def install(module, name: str) -> list:
        calls: list = []
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
