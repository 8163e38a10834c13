"""Pure helpers for the benchmark's statistics."""

from __future__ import annotations

import statistics


def tail_rank(n: int) -> int:
    """1-based rank of the tail sample: the highest one with at least 10 samples beyond it.

    With 10 samples or fewer no rank has 10 beyond it, and the tail is the maximum.
    """
    if n < 1:
        raise ValueError("no samples")
    return n - 10 if n > 10 else n


def tail_percentile(n: int) -> float:
    """The percentile that :func:`tail_rank` picks for ``n`` samples (95.0 for n = 200)."""
    return 100.0 * tail_rank(n) / n


def tail(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[tail_rank(len(ordered)) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def due_time(start: float, rate: float, index: int) -> float:
    """When request ``index`` of an open loop at ``rate`` per second is due."""
    return start + index / rate


def open_loop_timing(due: float, sent: float, done: float) -> tuple[float, float]:
    """(latency, lag) of one open-loop request.

    Latency runs from the due time, not the send time, so a stall that makes
    later requests leave late is charged to them; lag is how late it left.
    """
    return done - due, sent - due


def backlog_grows(lags: list[float], slack: float) -> bool:
    """True when requests in the last quarter left later than those in the first by over ``slack``."""
    quarter = max(1, len(lags) // 4)
    return median(lags[-quarter:]) > median(lags[:quarter]) + slack
