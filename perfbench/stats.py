"""Statistics the benchmark reports: nearest-rank percentiles with the
ten-samples-beyond rule, and span self time."""

from __future__ import annotations

import math

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[math.ceil(q * len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly past the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n)


def qualified_percentile(samples: list[float], q: float) -> float | None:
    """The ``q`` percentile, or None when fewer than MIN_BEYOND samples lie
    beyond it, so that the tail it describes is more than a few episodes."""
    if beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    ``spans`` is an iterable of objects with ``id``, ``parent``, ``start``
    and ``end``. Children that overlap each other are counted once.
    """
    spans = list(spans)
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out
