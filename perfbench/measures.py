"""Pure arithmetic of the benchmark: percentiles and outcome accounting.

Nothing here imports the program under test, so the rules can be tested
on their own.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: every way one operation can end; all but ``served`` count as failed
OUTCOMES = ("served", "mismatch", "shed", "expired", "failed", "cancelled",
            "hung")

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

#: stands in for an infinite latency (an unserved request) in the output,
#: which must be finite JSON
UNSERVED_MS = 1e9


@dataclass(frozen=True)
class Tail:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples
    beyond it."""

    value: float
    percentile: float     #: which percentile ``value`` is, 0-100
    samples: int          #: sample count the percentile was taken over
    beyond: int           #: samples strictly after it in sorted order


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Tail latency by the fixed-count rule.

    With ``n`` samples sorted ascending, the reported value is the one with
    exactly ``beyond`` samples after it, i.e. the ``n - beyond``-th smallest,
    which is the ``100 * (n - beyond) / n`` percentile.  With ``beyond`` or
    fewer samples no percentile qualifies, and the maximum is reported with
    the number of samples actually beyond it (zero).
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return Tail(ordered[-1], 100.0, n, 0)
    rank = n - beyond               # 1-based rank of the reported sample
    return Tail(ordered[rank - 1], 100.0 * rank / n, n, beyond)


def segmented_tail(samples: Sequence[float], segments: int
                   ) -> Tuple[float, List[Tail]]:
    """Median over ``segments`` consecutive, equal slices of ``samples`` of
    each slice's :func:`tail`.

    One stall of the host lands in one slice, so the median of the slices'
    tails moves less between runs than a single far percentile would.
    """
    if segments < 1 or len(samples) < segments:
        raise ValueError(f"cannot cut {len(samples)} samples into "
                         f"{segments} segments")
    bounds = [round(i * len(samples) / segments) for i in range(segments + 1)]
    tails = [tail(samples[bounds[i]:bounds[i + 1]]) for i in range(segments)]
    return median(t.value for t in tails), tails


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def finite_ms(value: float) -> float:
    """A latency for the JSON output: infinite becomes ``UNSERVED_MS``."""
    return value if math.isfinite(value) else UNSERVED_MS


class Outcomes:
    """Counts of how each attempted operation ended."""

    def __init__(self):
        self.counts: Counter = Counter()

    def add(self, outcome: str, count: int = 1) -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}; known: {OUTCOMES}")
        self.counts[outcome] += count

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["served"]

    @property
    def ok_share(self) -> float:
        """Operations that succeeded over operations attempted."""
        if not self.attempted:
            raise ValueError("no operation was attempted")
        return self.counts["served"] / self.attempted

    def as_dict(self) -> Dict[str, int]:
        return {name: self.counts[name] for name in OUTCOMES}
