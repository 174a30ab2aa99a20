"""QoE objectives against hand-worked sums, summary statistics, and
``score`` against the list-building oracle."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metrics_oracle
from dashgame.metrics import QoeMetricParams, qoe1, qoe2, score, summarize
from dashgame.netsim import SessionTrace, TraceRecord


def make_trace(rates=None, qualities=None, t_down=None, buffers=None,
               stalls=None, initial_buffer=10.0, quantized=True):
    """Build a trace whose start-of-download buffers are
    [initial_buffer, buffers[0], buffers[1], ...]."""
    n = len(rates)
    qualities = qualities or [0.0] * n
    t_down = t_down or [1.0] * n
    buffers = buffers or [20.0] * n
    stalls = stalls or [0.0] * n
    records = []
    t = 0.0
    for k in range(n):
        records.append(TraceRecord(
            k=k, t_start=t, t_end=t + t_down[k],
            requested_rate=rates[k], quantized_rate=rates[k],
            download_time=t_down[k], buffer=buffers[k],
            stall_seconds=stalls[k], quality=qualities[k],
        ))
        t += t_down[k]
    return SessionTrace(user_id=0, initial_buffer=initial_buffer,
                        quantized=quantized, records=records)


DEFAULTS = QoeMetricParams()


def test_default_weights_are_the_standard_ones():
    assert (DEFAULTS.xi, DEFAULTS.psi, DEFAULTS.phi, DEFAULTS.sigma, DEFAULTS.eta) == \
        (1.0, 6.0, 2.0, 0.001, 2.0)


@pytest.mark.parametrize("field, value", [
    *[(name, bad) for name in ("xi", "psi", "phi", "sigma", "eta")
      for bad in (-1.0, math.nan, math.inf)],
    ("b_ref", 0.0), ("b_ref", -3.0), ("b_ref", math.nan), ("b_ref", math.inf),
])
def test_params_reject_bad_values_naming_the_field(field, value):
    # a weight is a constant, not an argument, so any value given for one is refused
    if field != "b_ref":
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            QoeMetricParams(**{field: value})
        return
    with pytest.raises(ValueError, match=rf"QoeMetricParams\.{field} must be finite"):
        QoeMetricParams(**{field: value})


def test_qoe1_single_segment():
    trace = make_trace(rates=[2.0], initial_buffer=5.0)
    assert qoe1(trace, DEFAULTS) == pytest.approx(2.0, abs=1e-12)


def test_qoe1_hand_worked_sum():
    # rates [1,2,2], downloads all 1 s, start buffers [4,5,6]: 5 - 1 - 0
    trace = make_trace(rates=[1.0, 2.0, 2.0], t_down=[1.0, 1.0, 1.0],
                       buffers=[5.0, 6.0, 7.0], initial_buffer=4.0)
    assert qoe1(trace, DEFAULTS) == pytest.approx(4.0, abs=1e-12)


def test_qoe1_rebuffer_penalty():
    # one segment, 5 s download against 2 s of buffer: 1 - 6*3
    trace = make_trace(rates=[1.0], t_down=[5.0], initial_buffer=2.0)
    assert qoe1(trace, DEFAULTS) == pytest.approx(-17.0, abs=1e-12)


def test_qoe2_hand_worked_sum():
    # q=[0.9,0.8], completion buffers [16,14], b_ref=15:
    # 1.7 - 2*0.1 - 0.001*(15-14)^2 - 0
    trace = make_trace(rates=[1.0, 1.0], qualities=[0.9, 0.8],
                       t_down=[1.0, 1.0], buffers=[16.0, 14.0], initial_buffer=16.0)
    assert qoe2(trace, DEFAULTS) == pytest.approx(1.499, abs=1e-12)


def test_qoe2_no_penalties_is_quality_sum():
    trace = make_trace(rates=[1.0] * 4, qualities=[0.7] * 4,
                       buffers=[20.0] * 4, initial_buffer=20.0)
    assert qoe2(trace, DEFAULTS) == pytest.approx(2.8, abs=1e-12)


def test_qoe2_shortfall_term_is_quadratic():
    base = make_trace(rates=[1.0, 1.0], qualities=[0.5, 0.5],
                      buffers=[20.0, 14.0], initial_buffer=20.0)
    worse = make_trace(rates=[1.0, 1.0], qualities=[0.5, 0.5],
                       buffers=[20.0, 13.0], initial_buffer=20.0)
    clean = make_trace(rates=[1.0, 1.0], qualities=[0.5, 0.5],
                       buffers=[20.0, 20.0], initial_buffer=20.0)
    pen1 = qoe2(clean, DEFAULTS) - qoe2(base, DEFAULTS)   # shortfall 1
    pen2 = qoe2(clean, DEFAULTS) - qoe2(worse, DEFAULTS)  # shortfall 2
    assert pen2 == pytest.approx(4.0 * pen1, rel=1e-9)


def test_qoe_empty_trace_rejected():
    trace = SessionTrace(user_id=0, initial_buffer=2.0, quantized=False, records=[])
    with pytest.raises(ValueError):
        qoe1(trace, DEFAULTS)
    with pytest.raises(ValueError):
        qoe2(trace, DEFAULTS)


def test_appending_clean_segment_adds_its_rate():
    rates = [1.0, 2.0, 2.0]
    base = make_trace(rates=rates, buffers=[20.0] * 3, initial_buffer=20.0)
    extended = make_trace(rates=rates + [2.0], buffers=[20.0] * 4, initial_buffer=20.0)
    assert qoe1(extended, DEFAULTS) - qoe1(base, DEFAULTS) == pytest.approx(2.0, abs=1e-12)


def test_summarize_switch_counting_quantized():
    trace = make_trace(rates=[1.0, 1.0, 2.0, 2.0, 1.0])
    stats = summarize(trace)
    assert stats.switch_count == 2
    assert stats.avg_switch_amplitude == pytest.approx(1.0)
    assert stats.avg_rate == pytest.approx(1.4)


def test_summarize_constant_trace():
    stats = summarize(make_trace(rates=[2.0] * 5))
    assert stats.switch_count == 0
    assert stats.rate_stddev == 0.0
    assert stats.avg_switch_amplitude == 0.0


def test_summarize_continuous_threshold():
    trace = make_trace(rates=[2.0, 2.04, 2.3, 2.31], quantized=False)
    stats = summarize(trace)
    assert stats.switch_count == 1  # only the 0.26 jump crosses the threshold


def test_summarize_stall_fields():
    trace = make_trace(rates=[1.0] * 4, stalls=[0.0, 1.5, 0.0, 0.25])
    stats = summarize(trace)
    assert stats.stall_count == 2
    assert stats.stall_total == pytest.approx(1.75)


def test_summarize_quality_stats():
    trace = make_trace(rates=[1.0, 1.0], qualities=[0.4, 0.8])
    stats = summarize(trace)
    assert stats.avg_quality == pytest.approx(0.6)
    assert stats.quality_stddev == pytest.approx(0.2)
    assert stats.avg_buffer == pytest.approx(20.0)


def _random_trace(rng, n, quantized, b_ref):
    """``n`` records whose rates repeat (a ladder, or a continuous walk that
    often holds still), whose buffers fall on both sides of ``b_ref`` (some
    exactly on it, some at 0.0) and whose downloads outlast their start
    buffer about a third of the time."""
    ladder = np.round(np.sort(rng.choice(np.arange(2, 60), size=int(rng.integers(1, 7)),
                                         replace=False)) * 0.1, 1)
    if quantized or rng.random() < 0.3:
        rates = rng.choice(ladder, size=n)
    else:
        steps = np.where(rng.random(n) < 0.4, 0.0, rng.normal(0.0, 0.2, n))
        rates = np.abs(1.5 + np.cumsum(steps))
    qualities = 0.7 * np.log1p(0.5 * rates)
    buffers = rng.uniform(0.0, 2.0 * b_ref, n)
    buffers[rng.random(n) < 0.1] = b_ref
    buffers[rng.random(n) < 0.1] = 0.0
    stalls = np.where(rng.random(n) < 0.3, rng.uniform(0.0, 5.0, n), 0.0)
    downloads = rng.uniform(0.01, 1.5 * b_ref, n)
    records = [
        TraceRecord(k, 0.0, 0.0, float(rates[k]), float(rates[k]), float(downloads[k]),
                    float(buffers[k]), float(stalls[k]), float(qualities[k]))
        for k in range(n)
    ]
    return SessionTrace(user_id=0, initial_buffer=float(rng.uniform(0.0, 2.0 * b_ref)),
                        quantized=quantized, records=records)


def _hex(x):
    return x.hex() if isinstance(x, float) else x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), quantized=st.booleans(),
       b_ref=st.floats(0.5, 40.0))
def test_score_matches_list_oracle(seed, n, quantized, b_ref):
    params = QoeMetricParams(b_ref=b_ref)
    trace = _random_trace(np.random.default_rng(seed), n, quantized, b_ref)
    stats, got1, got2 = score(trace, params)
    assert [_hex(v) for v in astuple(stats)] == \
        [_hex(v) for v in astuple(metrics_oracle.summarize(trace))]
    assert got1.hex() == metrics_oracle.qoe1(trace, params).hex()
    assert got2.hex() == metrics_oracle.qoe2(trace, params).hex()
