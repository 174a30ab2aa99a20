"""The three trace scores as separate list-building passes, the oracle for
``metrics.score``.

``summarize``, ``qoe1`` and ``qoe2`` each build the record columns they need
and add them with ``serial_sum``; ``metrics.score`` reads the records once
and must give every figure bit for bit.
"""

import math
from typing import Sequence

from dashgame.metrics import SWITCH_THRESHOLD, QoeMetricParams, SummaryStats
from dashgame.model import serial_sum
from dashgame.netsim import SessionTrace


def _records(trace: SessionTrace) -> list:
    if not trace.records:
        raise ValueError("trace has no records")
    return trace.records


def _stall_penalty(trace: SessionTrace) -> float:
    """Sum over segments of how far the download time passed the buffer at its start."""
    records = _records(trace)
    starts = [trace.initial_buffer, *[rec.buffer for rec in records]]
    return serial_sum([max(0.0, rec.download_time - b) for rec, b in zip(records, starts)])


def qoe1(trace: SessionTrace, params: QoeMetricParams) -> float:
    """Rate-based QoE: total bitrate minus switching and rebuffering penalties."""
    rates = [rec.quantized_rate for rec in _records(trace)]
    stall = _stall_penalty(trace)
    switches = serial_sum([abs(b - a) for a, b in zip(rates, rates[1:])])
    return serial_sum(rates) - params.xi * switches - params.psi * stall


def qoe2(trace: SessionTrace, params: QoeMetricParams) -> float:
    """Quality-based QoE with a quadratic reference-buffer shortfall term."""
    records = _records(trace)
    stall = _stall_penalty(trace)
    qs = [rec.quality for rec in records]
    switches = serial_sum([abs(b - a) for a, b in zip(qs, qs[1:])])
    b_ref = params.b_ref
    shortfall = serial_sum([max(0.0, b_ref - rec.buffer) ** 2 for rec in records[1:]])
    return (
        serial_sum(qs)
        - params.phi * switches
        - params.sigma * shortfall
        - params.eta * stall
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
