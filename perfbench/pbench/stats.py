"""Summary statistics and the operation ledger behind ``fail_frac``."""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Dict, Optional, Sequence, Tuple

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile that still has
    at least :data:`TAIL_BEYOND` samples above it, or ``None`` when
    there are too few samples for one.

    With ``n`` sorted samples the value is the one at 0-based index
    ``n - TAIL_BEYOND - 1``; it bounds ``(n - TAIL_BEYOND) / n`` of the
    samples, which is the percentile stated (100 samples give p90).
    """
    n = len(values)
    if n < TAIL_BEYOND + 1:
        return None
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, float(ordered[k])


def tail_value(values: Sequence[float]) -> float:
    """The value of :func:`tail`; the maximum when there are too few
    samples for a tail at or above the median (fewer than 21), and 0
    for none."""
    if not values:
        return 0.0
    t = tail(values)
    return t[1] if t is not None and t[0] >= 50.0 else float(max(values))


def median_or_zero(values: Sequence[float]) -> float:
    return median(values) if values else 0.0


class Ledger:
    """Counts attempted operations and the ways they failed.

    Every operation the workload issues is recorded once, as ``ok`` or
    with a failure kind (``error``, ``refused``, ``timeout``,
    ``check``); ``fail_frac`` is failures over attempts, so a refused
    or late job and a wrong answer weigh the same as a crash.
    """

    KINDS = ("error", "refused", "timeout", "check")

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.notes: list = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, note: str = "") -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.attempted += 1
        self.failures[kind] += 1
        if note:
            self.notes.append(f"{kind}: {note}")

    def check(self, passed: bool, note: str = "") -> bool:
        """Record one output check as an operation of its own."""
        if passed:
            self.ok()
        else:
            self.fail("check", note)
        return passed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        """True when no operation failed: a refused or timed-out job
        makes a run incorrect just as a wrong answer does."""
        return self.failed == 0

    def as_dict(self) -> Dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_frac": self.fail_frac,
                "failures": dict(self.failures), "notes": self.notes[:20]}
