"""QF/BF reconstructions and the throughput estimator."""

import numpy as np
import pytest

from dashgame.baselines import ThroughputEstimator, bf_decide, qf_decide

LADDER = (1.0, 2.0, 3.0, 4.0, 5.0)


def test_estimator_first_sample_initialises():
    est = ThroughputEstimator()
    assert est.ewma is None
    est.observe(4.0)
    assert est == ThroughputEstimator(ewma=4.0)


def test_estimator_ewma_update_exact():
    assert ThroughputEstimator.WEIGHT == 0.2
    est = ThroughputEstimator()
    est.observe(4.0)
    est.observe(2.0)
    assert est.ewma == pytest.approx(0.2 * 2.0 + 0.8 * 4.0, rel=1e-15)
    est.observe(6.0)
    assert est.ewma == pytest.approx(0.2 * 6.0 + 0.8 * 3.6, rel=1e-15)


def test_estimator_validation():
    est = ThroughputEstimator()
    for sample in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="throughput sample must be finite and > 0"):
            est.observe(sample)
    assert est.ewma is None


def _warm_estimator(value):
    est = ThroughputEstimator()
    est.observe(value)
    return est


def test_qf_startup_rule():
    est = _warm_estimator(5.0)
    assert qf_decide(est, LADDER, b_curr=1.0, startup_threshold=10.0) == 1.0


def test_qf_floor_mapping():
    est = _warm_estimator(4.2)
    assert qf_decide(est, LADDER, b_curr=20.0, startup_threshold=10.0) == 4.0


def test_qf_clamps_to_lowest():
    est = _warm_estimator(0.4)
    assert qf_decide(est, LADDER, b_curr=20.0, startup_threshold=10.0) == 1.0


def test_qf_buffer_blind_past_startup():
    est = _warm_estimator(3.7)
    picks = {
        qf_decide(est, LADDER, b_curr=b, startup_threshold=10.0) for b in (10.0, 15.0, 40.0, 300.0)
    }
    assert picks == {3.0}


def test_bf_neutral_buffer():
    est = _warm_estimator(3.4)
    assert bf_decide(est, LADDER, b_curr=15.0, b_ref=15.0, gain=0.5) == 3.0


def test_bf_surplus_scales_up():
    est = _warm_estimator(3.0)
    # target = 3 * (1 + 0.5 * 1) = 4.5 -> rung 4
    assert bf_decide(est, LADDER, b_curr=30.0, b_ref=15.0, gain=0.5) == 4.0


def test_bf_empty_buffer_defensive():
    est = _warm_estimator(3.0)
    # target = 3 * 0.5 = 1.5 -> rung 1
    assert bf_decide(est, LADDER, b_curr=0.0, b_ref=15.0, gain=0.5) == 1.0


def test_bf_monotone_in_buffer():
    est = _warm_estimator(3.1)
    prev = 0.0
    for b in np.linspace(0.0, 40.0, 60):
        cur = bf_decide(est, LADDER, b_curr=float(b), b_ref=15.0, gain=0.5)
        assert cur >= prev
        prev = cur


def test_policies_always_return_a_rung():
    rng = np.random.default_rng(33)
    for _ in range(300):
        est = _warm_estimator(float(rng.uniform(0.1, 8.0)))
        b = float(rng.uniform(0.0, 40.0))
        assert qf_decide(est, LADDER, b, startup_threshold=10.0) in LADDER
        assert bf_decide(est, LADDER, b, b_ref=15.0, gain=0.5) in LADDER
