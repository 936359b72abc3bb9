"""Ray session and deadlines for the benchmark.

The session is fixed at ``NUM_CPUS`` logical CPUs whatever the host has,
so runs on different machines schedule the same way. Two engine defects
shape that choice and are left visible, not worked around (see
``perfbench/README.md``): at 1 CPU the first round never schedules, and
at 2 CPUs only one round task runs at a time.
"""

from __future__ import annotations

import glob
import logging
import os
import shutil
import signal
import sys
import time
from contextlib import contextmanager

NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# Unix socket paths are limited to 107 bytes and Ray puts its sockets at
# <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store,
# 64 bytes past the temp dir with a 7-digit pid.
_MAX_TEMP_DIR = 43


class Deadline(Exception):
    """An op ran past its deadline."""


def describe(e: BaseException) -> str:
    """``Type: message`` of an op's failure. A deadline that fires inside
    Ray's Cython ``wait`` surfaces as a SystemError chained to the
    Deadline; report the Deadline."""
    cause = e
    while cause is not None and not isinstance(cause, Deadline):
        cause = cause.__cause__ or cause.__context__
    e = cause or e
    return f"{type(e).__name__}: {e}"


@contextmanager
def deadline(seconds: float):
    """Raise :class:`Deadline` in the main thread after ``seconds``, at
    once if ``seconds`` is not positive. Ray's blocking calls check for
    signals, so a hung ``ray.get`` is interrupted too."""
    if seconds <= 0:
        raise Deadline("the run's time budget is spent")

    def _fire(signum, frame):
        raise Deadline(f"deadline of {seconds:.0f} s exceeded")

    old = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def ray_temp_dir(repo_root: str) -> str | None:
    """Ray's temp dir inside the checkout when the socket paths fit,
    else None (Ray's default under the system temp dir)."""
    d = os.path.join(repo_root, ".br")
    return d if len(d) <= _MAX_TEMP_DIR else None


def start_ray(repo_root: str) -> float:
    """Start a local Ray session whose workers can import the engine
    package; → seconds taken."""
    import ray

    from ethereum_raw_data_crawler_ray.logquiet import logging_env, quiet_ray_data_warts

    env = logging_env()
    os.environ.update(env)
    pythonpath = os.pathsep.join(
        p for p in (repo_root, os.environ.get("PYTHONPATH", "")) if p
    )
    kwargs = {}
    temp = ray_temp_dir(repo_root)
    if temp is not None:
        kwargs["_temp_dir"] = temp
    else:
        print(f"perfbench: {repo_root} is too long a path for Ray's sockets; "
              "Ray keeps its session files in its default temp dir", file=sys.stderr)
    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env={"env_vars": {**env, "PYTHONPATH": pythonpath}},
        **kwargs,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    quiet_ray_data_warts()
    return time.perf_counter() - t0


def stop_ray(repo_root: str) -> None:
    """Shut the session down and delete its files from the checkout."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    temp = ray_temp_dir(repo_root)
    if temp is not None:
        for d in glob.glob(os.path.join(temp, f"session_*_{os.getpid()}")):
            shutil.rmtree(d, ignore_errors=True)
        latest = os.path.join(temp, "session_latest")
        if os.path.islink(latest) and not os.path.exists(latest):
            os.unlink(latest)
