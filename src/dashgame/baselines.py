"""Reference adaptation policies for comparison runs.

QF (quality-first) and BF (buffer-first) are reconstructions from their
usual descriptions: QF greedily requests the highest ladder rung its
throughput estimate supports once past a startup threshold; BF scales the
estimate by the buffer's deviation from the reference before mapping to the
ladder.  Both are deliberately simple; they exist to generate comparative
trends, not to hit particular benchmark numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import quantize_rate

__all__ = ["ThroughputEstimator", "qf_decide", "bf_decide"]


@dataclass
class ThroughputEstimator:
    """Exponentially weighted throughput tracker (Mbps).

    ``observe`` folds a new measurement in as
    ``ewma = WEIGHT * sample + (1 - WEIGHT) * ewma``; before the first
    measurement the estimate is None.
    """

    WEIGHT = 0.2  # a class constant, not a field
    ewma: Optional[float] = None

    def observe(self, sample: float) -> None:
        if not (math.isfinite(sample) and sample > 0):
            raise ValueError(f"throughput sample must be finite and > 0, got {sample!r}")
        if self.ewma is None:
            self.ewma = sample
        else:
            self.ewma = self.WEIGHT * sample + (1.0 - self.WEIGHT) * self.ewma


def qf_decide(
    est: ThroughputEstimator,
    ladder: Sequence[float],
    b_curr: float,
    *,
    startup_threshold: float,
) -> float:
    """Quality-first rung choice: aggressive and buffer-blind past startup."""
    if b_curr < startup_threshold or est.ewma is None:
        return ladder[0]
    return quantize_rate(ladder, est.ewma)


def bf_decide(
    est: ThroughputEstimator,
    ladder: Sequence[float],
    b_curr: float,
    b_ref: float,
    *,
    gain: float,
) -> float:
    """Buffer-first rung choice: throughput estimate scaled by buffer error.

    ``target = ewma * (1 + gain * (b_curr - b_ref) / b_ref)`` floor-mapped to
    the ladder; monotone nondecreasing in the current buffer.
    """
    if b_ref <= 0:
        raise ValueError(f"b_ref must be > 0, got {b_ref!r}")
    if est.ewma is None:
        return ladder[0]
    target = est.ewma * (1.0 + gain * (b_curr - b_ref) / b_ref)
    return quantize_rate(ladder, target)
