"""Post-hoc evaluation of session traces.

Two composite QoE objectives plus per-trace summary statistics.  Both QoE
scores are sums over the M downloaded segments:

    qoe1 = sum r[k] - xi * sum |r[k+1]-r[k]|
           - psi * sum max(0, T_down[k] - b[k])

    qoe2 = sum q[k] - phi * sum |q[k+1]-q[k]|
           - sigma * sum_{k<M} (max(0, b_ref - b[k+1]))^2
           - eta * sum max(0, T_down[k] - b[k])

where ``b[k]`` in the stall terms is the buffer at the *start* of segment
k's download (the quantity the download time races against) and ``b[k+1]``
in the shortfall term is the buffer at segment completion.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .netsim import SessionTrace

__all__ = ["QoeMetricParams", "SummaryStats", "score", "qoe1", "qoe2", "summarize"]

SWITCH_THRESHOLD = 0.05  # Mbps: the smallest continuous rate jump counted as a switch


@dataclass(frozen=True)
class QoeMetricParams:
    """The reference buffer of qoe2's shortfall term.  The five weights are
    class constants, the standard ones, and not arguments."""

    xi = 1.0
    psi = 6.0
    phi = 2.0
    sigma = 0.001
    eta = 2.0
    b_ref: float = 15.0

    def __post_init__(self) -> None:
        if not 0 < self.b_ref < math.inf:
            raise ValueError(f"QoeMetricParams.b_ref must be finite and > 0, got {self.b_ref!r}")


@dataclass
class SummaryStats:
    """Per-trace aggregates in the style of the comparison tables."""

    avg_rate: float
    rate_stddev: float
    switch_count: int
    avg_switch_amplitude: float
    avg_quality: float
    quality_stddev: float
    stall_count: int
    stall_total: float
    avg_buffer: float

    def to_dict(self) -> dict:
        return asdict(self)


def score(trace: SessionTrace, params: QoeMetricParams) -> tuple[SummaryStats, float, float]:
    """The summary statistics, qoe1 and qoe2 of one trace.

    One pass over the records gathers every sum, and one more the two
    variances.  Each sum adds its terms left to right from 0.0, as
    ``serial_sum`` does, and skips only terms of 0.0, which cannot change a
    nonnegative sum.

    Switches are counted as rung changes when the trace is quantized, and as
    consecutive rate jumps above ``SWITCH_THRESHOLD`` Mbps otherwise (a
    continuous trace never repeats exactly).
    """
    records = trace.records
    if not records:
        raise ValueError("trace has no records")
    quantized = trace.quantized
    b_ref = params.b_ref
    rate_sum = q_sum = buffer_sum = 0.0
    rate_jumps = q_jumps = amplitude_sum = 0.0
    stall_total = stall_penalty = shortfall = 0.0
    switch_count = stall_count = 0
    prev_rate = prev_q = None
    b_start = trace.initial_buffer
    for _, _, _, _, rate, download_time, buffer, stall, q in records:
        rate_sum += rate
        q_sum += q
        buffer_sum += buffer
        if prev_rate is not None:
            jump = abs(rate - prev_rate)
            rate_jumps += jump
            if (rate != prev_rate) if quantized else (jump > SWITCH_THRESHOLD):
                switch_count += 1
                amplitude_sum += jump
            q_jumps += abs(q - prev_q)
            gap = b_ref - buffer
            if gap > 0.0:
                shortfall += gap ** 2
        if stall > 0:
            stall_count += 1
            stall_total += stall
        late = download_time - b_start
        if late > 0.0:
            stall_penalty += late
        prev_rate, prev_q, b_start = rate, q, buffer
    n = len(records)
    avg_rate = rate_sum / n
    avg_q = q_sum / n
    rate_var = q_var = 0.0
    for _, _, _, _, rate, _, _, _, q in records:
        rate_var += (rate - avg_rate) ** 2
        q_var += (q - avg_q) ** 2
    stats = SummaryStats(
        avg_rate=avg_rate,
        rate_stddev=math.sqrt(rate_var / n),
        switch_count=switch_count,
        avg_switch_amplitude=(amplitude_sum / switch_count) if switch_count else 0.0,
        avg_quality=avg_q,
        quality_stddev=math.sqrt(q_var / n),
        stall_count=stall_count,
        stall_total=stall_total,
        avg_buffer=buffer_sum / n,
    )
    qoe_rate = rate_sum - params.xi * rate_jumps - params.psi * stall_penalty
    qoe_quality = (
        q_sum - params.phi * q_jumps - params.sigma * shortfall - params.eta * stall_penalty
    )
    return stats, qoe_rate, qoe_quality


def qoe1(trace: SessionTrace, params: QoeMetricParams) -> float:
    """Rate-based QoE: total bitrate minus switching and rebuffering penalties."""
    return score(trace, params)[1]


def qoe2(trace: SessionTrace, params: QoeMetricParams) -> float:
    """Quality-based QoE with a quadratic reference-buffer shortfall term."""
    return score(trace, params)[2]


def summarize(trace: SessionTrace) -> SummaryStats:
    """Summary statistics over one trace; see :func:`score`."""
    return score(trace, QoeMetricParams())[0]
