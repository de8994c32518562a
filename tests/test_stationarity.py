"""Sampled near-stationarity measure built from exact subgradients."""

import numpy as np
import pytest

from noisygs.oracle import OracleHandle, exact_oracle
from noisygs.problems import max_of_linear
from noisygs.stationarity import estimate_goldstein


def abs_oracle():
    oracle, _ = max_of_linear([[1.0], [-1.0]], [0.0, 0.0])
    return oracle


def test_kink_point_measures_near_zero():
    est = estimate_goldstein(abs_oracle(), np.zeros(1), eps=0.1, num_samples=1000)
    assert est.value <= 0.05
    assert est.value == np.linalg.norm(est.witness)


def test_away_from_the_kink_reports_the_gradient():
    # Radius 0.05 around x = 0.2 never crosses zero, so every sampled
    # subgradient is +1 and the aggregate is exactly that.
    est = estimate_goldstein(abs_oracle(), np.array([0.2]), eps=0.05, num_samples=50)
    assert est.value == 1.0
    assert np.array_equal(est.witness, [1.0])


def test_radius_controls_what_the_measure_sees():
    near = estimate_goldstein(abs_oracle(), np.array([0.2]), eps=0.05, num_samples=200)
    wide = estimate_goldstein(abs_oracle(), np.array([0.2]), eps=0.5, num_samples=200)
    assert near.value == 1.0
    assert wide.value <= 0.05


def test_smooth_constant_gradient_is_exact():
    c = np.array([3.0, 4.0])
    smooth = exact_oracle(2, lambda x: float(c @ x), lambda x: c.copy())
    est = estimate_goldstein(smooth, np.zeros(2), eps=0.1, num_samples=30)
    assert est.value == 5.0
    assert np.array_equal(est.witness, c)


def test_polyhedral_first_order_point():
    # At the origin all three pieces are active and their hull contains 0.
    oracle, _ = max_of_linear([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                              [0.0, 0.0, 0.0])
    est = estimate_goldstein(oracle, np.zeros(2), eps=0.01, num_samples=1000)
    assert est.value <= 1e-6


def test_witness_stays_in_the_sampled_hull():
    est = estimate_goldstein(abs_oracle(), np.zeros(1), eps=0.3, num_samples=100)
    assert -1.0 <= est.witness[0] <= 1.0


def test_same_seed_reproduces():
    a = estimate_goldstein(abs_oracle(), np.zeros(1), eps=0.1, num_samples=64,
                           master_seed=5)
    b = estimate_goldstein(abs_oracle(), np.zeros(1), eps=0.1, num_samples=64,
                           master_seed=5)
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)


def test_validation():
    with pytest.raises(ValueError):
        estimate_goldstein(abs_oracle(), np.zeros(1), eps=0.1, num_samples=1)
    with pytest.raises(ValueError):
        estimate_goldstein(abs_oracle(), np.zeros(1), eps=0.0, num_samples=10)
    with pytest.raises(ValueError):
        estimate_goldstein(abs_oracle(), np.zeros(2), eps=0.1, num_samples=10)
    bare = OracleHandle(dims=1, eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(1))
    with pytest.raises(ValueError):
        estimate_goldstein(bare, np.zeros(1), eps=0.1, num_samples=10)
