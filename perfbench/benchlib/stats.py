"""Order statistics and op accounting for the benchmark."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def fastest(walls: list[dict]) -> dict:
    """Key → the smallest wall any of the dicts has for it. Each dict is
    one repetition's walls (a crawl's round → seconds); a key missing
    from a repetition, such as a round that repetition did not time,
    takes its fastest from the others."""
    best: dict = {}
    for rep in walls:
        for key, wall in rep.items():
            best[key] = min(wall, best.get(key, wall))
    return best


def tail_percentile(values: list[float], min_beyond: int = 10) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``min_beyond`` samples
    beyond it, and its nearest-rank value; None when there are too few
    samples for any such percentile.

    With n samples, percentile p has nearest rank ceil(p/100 * n), and
    n - rank samples lie beyond it, so the highest admissible p is
    floor(100 * (n - min_beyond) / n)."""
    n = len(values)
    if n <= min_beyond:
        return None
    p = (100 * (n - min_beyond)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, float(sorted(values)[rank - 1])


@dataclass
class Op:
    name: str
    wall_s: float = 0.0
    error: str | None = None


@dataclass
class OpLog:
    """Every op the closed loop issued. An op fails when it raises, hits
    its deadline, or a correctness check made after the timed window
    marks it failed; ``fail_ratio`` counts each op once, however many
    of its checks failed."""

    ops: list[Op] = field(default_factory=list)

    def add(self, name: str, wall_s: float = 0.0, error: str | None = None) -> int:
        self.ops.append(Op(name, wall_s, error))
        return len(self.ops) - 1

    def fail(self, index: int, reason: str) -> None:
        op = self.ops[index]
        op.error = reason if op.error is None else f"{op.error}; {reason}"

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.ops else 0.0

    def errors(self) -> list[str]:
        return [f"{op.name}: {op.error}" for op in self.ops if op.error is not None]
