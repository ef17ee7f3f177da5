"""Small, dependency-free arithmetic shared by the benchmark and its tests."""

from __future__ import annotations

import statistics
from typing import Iterable, Mapping, Optional, Sequence

#: A percentile is emitted only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation), or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it — with 25
    samples a "p99" is just the maximum."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def windowed_percentile(groups: Sequence[Sequence[float]], q: float) -> Optional[float]:
    """Median over windows of the ``q``-th percentile.

    Consecutive groups (one per pass) are joined into windows just
    large enough to support the percentile, and the median is taken
    across windows.  One host stall inside a 30 s run then moves one
    window's tail, not the run's.
    """
    needed = MIN_BEYOND * 100.0 / (100.0 - q)
    windows: list[list[float]] = []
    current: list[float] = []
    for group in groups:
        current.extend(group)
        if len(current) >= needed:
            windows.append(current)
            current = []
    if current and windows:
        windows[-1].extend(current)
    tails = [percentile(window, q) for window in windows]
    return statistics.median(tails) if tails else None


def _covered(interval: tuple[float, float], others: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    start, end = interval
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in others if b > start and a < end
    )
    covered = 0.0
    reach = start
    for a, b in clipped:
        if b <= reach:
            continue
        covered += b - max(a, reach)
        reach = b
    return covered


def self_times(spans: Sequence[Mapping]) -> dict[str, float]:
    """Per-layer self time from a span list.

    Each span has ``id``, ``parent`` (an id or ``None``), ``layer``,
    ``start``, ``end`` and ``leaf_s`` (time of counter-only calls made
    directly inside it, already charged to their own layers).  A span's
    self time is its duration minus the part of that interval its child
    spans cover — children that overlap each other (concurrent work in
    one parent) are counted once — minus ``leaf_s``.
    """
    children: dict[object, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in spans:
        interval = (span["start"], span["end"])
        own = (
            (interval[1] - interval[0])
            - _covered(interval, children.get(span["id"], ()))
            - span.get("leaf_s", 0.0)
        )
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + max(0.0, own)
    return totals
