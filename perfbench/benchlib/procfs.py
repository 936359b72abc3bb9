"""Process-tree CPU and memory accounting read from ``/proc``.

The tree is the benchmark process and all its descendants: the Ray head
daemons it starts, the raylet's workers and actors. Processes are
grouped by the title Ray gives them (``ray::SeenShard`` ...).

CPU of a window is counted once per CPU second. A process alive through
the window is charged its ``utime+stime`` growth. One that ends inside
the window is charged up to its last sample: the raylet ignores
SIGCHLD, so the kernel reaps Ray workers without adding their time to
the raylet's ``cutime``. A parent that does reap with ``wait`` gains the
child's whole lifetime in ``cutime+cstime``; of that growth only the
part beyond what its sampled dead children were already charged (their
unsampled tail, children never sampled) is charged, to ``reaped``.
"""

import os
import threading
import time
from dataclasses import dataclass

CLK_TCK = os.sysconf("SC_CLK_TCK")

# Ray process titles → benchmark group. A worker process starts as
# ``python .../default_worker.py``; once it hosts an actor its title is
# ``ray::<Class>`` (``ray::<Class>.<method>`` while busy), while a task
# worker reads ``ray::IDLE`` or ``ray::<task>``. Everything else in the
# tree that is not the driver is a Ray daemon (raylet, GCS, agents).
STATE_GROUPS = {
    "SeenShard": "state.seen",
    "PageStoreShard": "state.store",
    "CutoffShard": "state.politeness",
}
RAY_SERVICE_ACTORS = {"_StatsActor", "AutoscalingRequester", "_AutoscalingRequester"}
GROUPS = ("driver", "daemons", "workers", "state.seen", "state.store",
          "state.politeness")


def classify(title: str, is_root: bool = False) -> str:
    if is_root:
        return "driver"
    if title.startswith("ray::"):
        name = title[5:].split(".")[0].split(" ")[0]
        if name in STATE_GROUPS:
            return STATE_GROUPS[name]
        return "daemons" if name in RAY_SERVICE_ACTORS else "workers"
    if "default_worker.py" in title or "setup_worker.py" in title:
        return "workers"
    return "daemons"


@dataclass
class Proc:
    pid: int
    ppid: int
    started: int       # start time in clock ticks: (pid, started) is unique
    title: str
    self_s: float      # utime + stime
    reaped_s: float    # cutime + cstime
    hwm_kb: int        # peak resident set (VmHWM)


def parse_stat(text: str) -> tuple[int, int, float, float]:
    """→ (ppid, start ticks, self seconds, reaped-children seconds) from
    a ``/proc/<pid>/stat`` line (the command field may hold spaces)."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state): utime..cstime are fields 14..17 and
    # starttime is field 22
    ppid = int(rest[1])
    utime, stime, cutime, cstime = (int(x) for x in rest[11:15])
    return ppid, int(rest[19]), (utime + stime) / CLK_TCK, (cutime + cstime) / CLK_TCK


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8", "replace")
    except OSError:
        return None


def read_proc(pid: int) -> Proc | None:
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return None
    ppid, started, self_s, reaped_s = parse_stat(stat)
    cmd = (_read(f"/proc/{pid}/cmdline") or "").replace("\0", " ").strip()
    hwm = 0
    for line in (_read(f"/proc/{pid}/status") or "").splitlines():
        if line.startswith("VmHWM:"):
            hwm = int(line.split()[1])
            break
    return Proc(pid, ppid, started, cmd, self_s, reaped_s, hwm)


def tree(procs: dict[int, Proc], root: int) -> dict[int, Proc]:
    """The processes of ``procs`` descending from ``root`` (inclusive)."""
    kids: dict[int, list[int]] = {}
    for p in procs.values():
        kids.setdefault(p.ppid, []).append(p.pid)
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in procs and pid not in out:
            out[pid] = procs[pid]
            todo.extend(kids.get(pid, []))
    return out


def snapshot(root: int) -> dict[int, Proc]:
    procs = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            p = read_proc(int(name))
            if p is not None:
                procs[p.pid] = p
    return tree(procs, root)


Key = tuple  # (pid, start ticks): unique for the life of the machine


def key(p: Proc) -> Key:
    return (p.pid, p.started)


@dataclass
class Mark:
    """The live processes of the tree at the start of a window."""

    t: float
    procs: dict


def cpu_by_group(before: Mark, after: dict, seen: dict, groups: dict) -> dict[str, float]:
    """CPU seconds spent since ``before``, by group, plus ``total``.

    ``after`` holds the live processes now and ``seen`` the latest sample
    ``(time, Proc)`` of every process ever observed, keyed by
    :func:`key`."""
    out = {g: 0.0 for g in GROUPS + ("reaped",)}
    dead_by_parent: dict[int, float] = {}
    for k, (t_seen, p) in seen.items():
        if k in after or t_seen < before.t:
            continue  # alive now (below), or ended before the window
        b = before.procs.get(k)
        start = b.self_s + b.reaped_s if b is not None else 0.0
        g = groups.get(k) or classify(p.title)
        out[g] = out.get(g, 0.0) + p.self_s + p.reaped_s - start
        dead_by_parent[p.ppid] = dead_by_parent.get(p.ppid, 0.0) + p.self_s + p.reaped_s
    for k, p in after.items():
        b = before.procs.get(k)
        g = groups.get(k) or classify(p.title)
        out[g] = out.get(g, 0.0) + p.self_s - (b.self_s if b is not None else 0.0)
        grown = p.reaped_s - (b.reaped_s if b is not None else 0.0)
        out["reaped"] += max(0.0, grown - dead_by_parent.get(p.pid, 0.0))
    out["total"] = sum(out.values())
    return out


class TreeMonitor:
    """Samples the tree on a background thread. It remembers each
    process's latest sample and group (an actor's title is only visible
    once it is constructed, so the most specific group ever seen sticks)
    and the peak over samples of the summed VmHWM of the processes
    alive together, over the run (``peak_kb``) and since the last
    :meth:`reset_window` (``window_peak_kb``). While ``peak_paused`` is
    set, samples update no peak: a pipeline being replaced by a fresh
    one has both sets of actors alive for a moment, for as long as the
    old ones take to exit."""

    def __init__(self, root: int | None = None, interval_s: float = 0.25):
        self.root = root if root is not None else os.getpid()
        self.interval_s = interval_s
        self.groups: dict[Key, str] = {}
        self.seen: dict[Key, tuple[float, Proc]] = {}
        self.peak_kb = 0
        self.window_peak_kb = 0
        self.peak_group_kb: dict[str, int] = {}
        self.peak_paused = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> dict[Key, Proc]:
        t = time.perf_counter()
        snap = {key(p): p for p in snapshot(self.root).values()}
        by_group: dict[str, int] = {}
        with self._lock:
            for k, p in snap.items():
                self.seen[k] = (t, p)
                g = classify(p.title, is_root=p.pid == self.root)
                if self.groups.get(k, "workers") == "workers":
                    self.groups[k] = g
                g = self.groups[k]
                by_group[g] = by_group.get(g, 0) + p.hwm_kb
            if self.peak_paused:
                return snap
            self.peak_kb = max(self.peak_kb, sum(by_group.values()))
            self.window_peak_kb = max(self.window_peak_kb, sum(by_group.values()))
            for g, kb in by_group.items():
                self.peak_group_kb[g] = max(self.peak_group_kb.get(g, 0), kb)
        return snap

    def reset_window(self) -> None:
        with self._lock:
            self.window_peak_kb = 0

    def mark(self) -> Mark:
        t = time.perf_counter()
        return Mark(t, self.sample())

    def cpu_since(self, mark: Mark) -> dict[str, float]:
        """CPU by group (and ``total``) since ``mark``."""
        after = self.sample()
        with self._lock:
            return cpu_by_group(mark, after, dict(self.seen), dict(self.groups))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> "TreeMonitor":
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def steal_s() -> float:
    """Cumulative hypervisor steal of the whole machine, in seconds."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK
