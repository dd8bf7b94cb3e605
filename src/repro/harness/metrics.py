"""Simple statistics over experiment trials."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence


@dataclass(frozen=True)
class Stats:
    """Summary of a sample of measurements."""

    count: int
    median: float
    mean: float
    minimum: float
    maximum: float
    p90: float
    p99: float = 0.0
    stddev: float = 0.0

    def scaled(self, factor: float) -> "Stats":
        return Stats(
            count=self.count,
            median=self.median * factor,
            mean=self.mean * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
            p90=self.p90 * factor,
            p99=self.p99 * factor,
            stddev=self.stddev * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-number dump for ``BENCH_*.json`` artifacts."""
        return {
            "count": self.count,
            "median": self.median,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p90": self.p90,
            "p99": self.p99,
            "stddev": self.stddev,
        }


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        raise ValueError("empty sample")
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # With ordered[low] == ordered[high] the blend can land 1 ulp outside
    # the pair; clamp so a percentile never exceeds its neighbours.
    return min(max(value, ordered[low]), ordered[high])


def _stddev(ordered: Sequence[float], mean: float) -> float:
    """Population standard deviation (0.0 for a single sample)."""
    if len(ordered) < 2:
        return 0.0
    return math.sqrt(sum((s - mean) ** 2 for s in ordered) / len(ordered))


def summarize(samples: Iterable[float]) -> Stats:
    """Median/mean/min/max/p90/p99/stddev of a sample."""
    ordered: List[float] = sorted(samples)
    if not ordered:
        raise ValueError("empty sample")
    mean = sum(ordered) / len(ordered)
    return Stats(
        count=len(ordered),
        median=_percentile(ordered, 0.5),
        mean=mean,
        minimum=ordered[0],
        maximum=ordered[-1],
        p90=_percentile(ordered, 0.9),
        p99=_percentile(ordered, 0.99),
        stddev=_stddev(ordered, mean),
    )


def rate_kb_s(byte_count: int, seconds: float) -> float:
    """Transfer rate in KB/s (the paper's unit: 1 KB = 1024 bytes)."""
    if seconds <= 0:
        raise ValueError("non-positive duration")
    return byte_count / 1024.0 / seconds
