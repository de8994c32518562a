"""Checks for the independent measurement helpers.

These helpers are the yardsticks the rest of the suite leans on, so they
get exercised against hand-computed values before anything else trusts
them.
"""

import math

import numpy as np
import pytest

from noisygs.problems import rosenbrock_ns
from testkit import (
    binomial_tail,
    files_identical,
    finite_diff_grad,
    ks_critical_1pct,
    ks_statistic,
    simplex_grid_min_norm,
)


class TestSimplexGridMinNorm:
    def test_opposite_scalars_cancel(self):
        cols = np.array([[1.0, -1.0]])
        res = simplex_grid_min_norm(cols, resolution=1e-3)
        assert res.best_norm <= 1e-3
        assert np.allclose(res.best_weights, [0.5, 0.5], atol=2e-3)

    def test_segment_with_interior_projection(self):
        # Min over the segment from (3,4) to (0,4) sits at the endpoint (0,4).
        cols = np.array([[3.0, 0.0], [4.0, 4.0]])
        res = simplex_grid_min_norm(cols, resolution=1e-3)
        assert abs(res.best_norm - 4.0) <= 3.0 * 4.0 * 1e-3

    def test_collinear_columns_pick_shorter(self):
        v = np.array([1.0, 2.0])
        cols = np.column_stack([v, 2.0 * v])
        res = simplex_grid_min_norm(cols, resolution=1e-3)
        norm_v = float(np.linalg.norm(v))
        assert abs(res.best_norm - norm_v) <= 2.0 * 1e-3 * norm_v

    def test_three_columns_surrounding_origin(self):
        cols = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -1.0]])
        res = simplex_grid_min_norm(cols, resolution=1e-2)
        assert res.best_norm <= 3.0 * 1e-2

    def test_weights_live_on_the_simplex(self):
        cols = np.array([[2.0, -3.0, 1.0], [0.5, 0.5, -2.0]])
        res = simplex_grid_min_norm(cols, resolution=0.05)
        w = res.best_weights
        assert np.all(w >= -1e-12)
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_column_count_limits(self):
        with pytest.raises(ValueError):
            simplex_grid_min_norm(np.ones((2, 4)))
        with pytest.raises(ValueError):
            simplex_grid_min_norm(np.ones((2, 1)))

    def test_resolution_bounds(self):
        cols = np.array([[1.0, -1.0]])
        with pytest.raises(ValueError):
            simplex_grid_min_norm(cols, resolution=0.0)
        with pytest.raises(ValueError):
            simplex_grid_min_norm(cols, resolution=1.5)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        x = np.array([0.7, -1.3, 2.2])
        grad = finite_diff_grad(lambda v: 0.5 * float(v @ v), x, h=1e-6)
        assert np.max(np.abs(grad - x)) < 1e-9

    def test_linear_is_near_exact(self):
        c = np.array([3.0, -5.0])
        grad = finite_diff_grad(lambda v: float(c @ v), np.array([10.0, -4.0]), h=1e-6)
        assert np.max(np.abs(grad - c)) < 1e-7

    def test_matches_analytic_rosenbrock_gradient(self):
        oracle, _ = rosenbrock_ns()
        x = np.array([-1.2, 1.0])
        grad = finite_diff_grad(oracle.truth_access.f, x, h=1e-6)
        expected = np.array([-484.4, -100.0])
        assert np.max(np.abs(grad - expected) / np.abs(expected)) < 1e-3


class TestKolmogorovSmirnov:
    def test_hand_computed_small_sample(self):
        # Sorted samples 0.1, 0.5, 0.9 against the uniform cdf. The sup gap
        # is 1/3 - 0.1 at the first sample (and symmetrically at the last).
        samples = np.array([0.5, 0.1, 0.9])
        stat = ks_statistic(samples, lambda t: np.clip(t, 0.0, 1.0))
        assert abs(stat - (1.0 / 3.0 - 0.1)) < 1e-12

    def test_uniform_sample_passes_at_1pct(self):
        rng = np.random.default_rng(7)
        samples = rng.random(10_000)
        stat = ks_statistic(samples, lambda t: np.clip(t, 0.0, 1.0))
        assert stat < ks_critical_1pct(10_000)

    def test_critical_value_table_entry(self):
        assert math.isclose(ks_critical_1pct(10_000), 1.628 / 100.0)


def test_binomial_tail_exact_fraction():
    # P(X >= 8) for X ~ Bin(10, 1/2) is (45 + 10 + 1) / 1024.
    assert binomial_tail(10, 8, 0.5) == 56.0 / 1024.0


def test_binomial_tail_edge_cases():
    assert abs(binomial_tail(5, 0, 0.3) - 1.0) < 1e-12
    assert abs(binomial_tail(5, 5, 0.5) - 0.5 ** 5) < 1e-15


def test_files_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    a.write_bytes(b"k,v\n0,1\n")
    b.write_bytes(b"k,v\n0,1\n")
    c.write_bytes(b"k,v\n0,2\n")
    assert files_identical(a, b)
    assert not files_identical(a, c)
