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
from typing import Optional, Sequence

from .model import serial_sum
from .netsim import SessionTrace

__all__ = ["QoeMetricParams", "SummaryStats", "qoe1", "qoe2", "summarize"]

SWITCH_THRESHOLD = 0.05  # Mbps: the smallest continuous rate jump counted as a switch


@dataclass(frozen=True)
class QoeMetricParams:
    """Weights of the two QoE objectives; defaults are the standard ones."""

    xi: float = 1.0
    psi: float = 6.0
    phi: float = 2.0
    sigma: float = 0.001
    eta: float = 2.0
    b_ref: float = 15.0

    def __post_init__(self) -> None:
        for name in ("xi", "psi", "phi", "sigma", "eta"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"QoeMetricParams.{name} must be finite and >= 0, got {value!r}")
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


def _records(trace: SessionTrace) -> list:
    if not trace.records:
        raise ValueError("trace has no records")
    return trace.records


def _stall_penalty(trace: SessionTrace) -> float:
    """Sum over segments of how far the download time passed the buffer at its start."""
    records = _records(trace)
    starts = [trace.initial_buffer, *[rec.buffer for rec in records]]
    return serial_sum([max(0.0, rec.download_time - b) for rec, b in zip(records, starts)])


def qoe1(
    trace: SessionTrace, params: QoeMetricParams, *, _stall: Optional[float] = None
) -> float:
    """Rate-based QoE: total bitrate minus switching and rebuffering penalties.

    ``_stall`` is ``_stall_penalty(trace)`` when the caller already has it, so
    scoring one trace both ways walks its buffers once.
    """
    rates = [rec.quantized_rate for rec in _records(trace)]
    if _stall is None:
        _stall = _stall_penalty(trace)
    switches = serial_sum([abs(b - a) for a, b in zip(rates, rates[1:])])
    return serial_sum(rates) - params.xi * switches - params.psi * _stall


def qoe2(
    trace: SessionTrace, params: QoeMetricParams, *, _stall: Optional[float] = None
) -> float:
    """Quality-based QoE with a quadratic reference-buffer shortfall term.

    ``_stall`` is as in :func:`qoe1`.
    """
    records = _records(trace)
    if _stall is None:
        _stall = _stall_penalty(trace)
    qs = [rec.quality for rec in records]
    switches = serial_sum([abs(b - a) for a, b in zip(qs, qs[1:])])
    b_ref = params.b_ref
    shortfall = serial_sum([max(0.0, b_ref - rec.buffer) ** 2 for rec in records[1:]])
    return (
        serial_sum(qs)
        - params.phi * switches
        - params.sigma * shortfall
        - params.eta * _stall
    )


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = serial_sum(values) / n
    var = serial_sum([(v - mean) ** 2 for v in values]) / n
    return mean, math.sqrt(var)


def summarize(trace: SessionTrace) -> SummaryStats:
    """Summary statistics over one trace.

    Switches are counted as rung changes when the trace is quantized, and as
    consecutive rate jumps above ``SWITCH_THRESHOLD`` Mbps otherwise (a
    continuous trace never repeats exactly).
    """
    records = _records(trace)
    rates = [rec.quantized_rate for rec in records]
    avg_rate, rate_std = _mean_std(rates)
    pairs = zip(rates, rates[1:])
    if trace.quantized:
        amplitudes = [abs(b - a) for a, b in pairs if b != a]
    else:
        amplitudes = [d for d in [abs(b - a) for a, b in pairs] if d > SWITCH_THRESHOLD]
    avg_q, q_std = _mean_std([rec.quality for rec in records])
    stalls = [rec.stall_seconds for rec in records if rec.stall_seconds > 0]
    buffers = [rec.buffer for rec in records]
    return SummaryStats(
        avg_rate=avg_rate,
        rate_stddev=rate_std,
        switch_count=len(amplitudes),
        avg_switch_amplitude=(serial_sum(amplitudes) / len(amplitudes)) if amplitudes else 0.0,
        avg_quality=avg_q,
        quality_stddev=q_std,
        stall_count=len(stalls),
        stall_total=serial_sum(stalls),
        avg_buffer=serial_sum(buffers) / len(buffers),
    )
