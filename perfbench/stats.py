"""Order statistics and span arithmetic, free of any fastblocks import."""

from __future__ import annotations


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Returns `(percentile, value)` by the nearest-rank rule, or None when there
    are fewer than 11 samples and no percentile has ten samples beyond it.
    """
    n = len(values)
    if n < 11:
        return None
    q = 100 * (n - 10) // n
    rank = -(-q * n // 100)  # ceil(q * n / 100), 1-based; rank <= n - 10
    return q, sorted(values)[rank - 1]


def self_times(durations: list[float], parents: list[int | None]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest without overlap, so the children's summed
    durations are exactly the part of the parent's interval they cover.
    A parent must come before its children in the lists.
    """
    own = list(durations)
    for duration, parent in zip(durations, parents):
        if parent is not None:
            own[parent] -= duration
    return own
