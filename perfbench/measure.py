"""Pure statistics over round timings and span trees.

Nothing here imports ``repro``: these helpers turn raw samples (round wall
times, recorded spans) into the reported numbers, and the benchmark's own
tests pin their definitions.

A span is a tuple ``(name, start, end, parent, query_id)`` where ``parent``
is the index of the enclosing span in the same list (``None`` for a root).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

Span = Tuple[str, float, float, Optional[int], int]


def median(values: Sequence[float]) -> float:
    """The median of ``values`` (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean of ``values``."""
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def tail(values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND) -> Tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value)``: ``value`` is the sample of rank
    ``n - min_beyond`` in ascending order, so exactly ``min_beyond`` samples
    lie above it, and ``percentile`` is the share of samples at or below it.
    Needs more than ``min_beyond`` samples.
    """
    count = len(values)
    if count <= min_beyond:
        raise ValueError(f"a tail needs more than {min_beyond} samples, got {count}")
    ordered = sorted(values)
    rank = count - min_beyond
    return 100.0 * rank / count, float(ordered[rank - 1])


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _children(spans: Sequence[Span]) -> Dict[int, List[Tuple[float, float]]]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _query in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return children


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = _children(spans)
    return [
        (end - start) - _covered(children.get(index, []))
        for index, (_name, start, end, _parent, _query) in enumerate(spans)
    ]


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name, in seconds."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def coverage(spans: Sequence[Span], root_name: str) -> float:
    """Share of the ``root_name`` spans' time that their child spans cover."""
    children = _children(spans)
    total = covered = 0.0
    for index, (name, start, end, _parent, _query) in enumerate(spans):
        if name == root_name:
            total += end - start
            covered += _covered(children.get(index, []))
    return covered / total if total > 0 else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
