"""Seeded ball sampling: reproducibility, containment, and distribution."""

import numpy as np
import pytest

from noisygs.sampler import ball_points, iteration_stream, sample_ball
from noisygs.testkit import ks_critical_1pct, ks_statistic


def test_same_seed_is_bitwise_identical():
    a = sample_ball(np.array([1.0, -2.0]), 0.5, 30, master_seed=9, stream_id=4)
    b = sample_ball(np.array([1.0, -2.0]), 0.5, 30, master_seed=9, stream_id=4)
    assert np.array_equal(a, b)


def test_streams_differ():
    center = np.zeros(3)
    a = sample_ball(center, 1.0, 20, master_seed=9, stream_id=0)
    b = sample_ball(center, 1.0, 20, master_seed=9, stream_id=1)
    c = sample_ball(center, 1.0, 20, master_seed=10, stream_id=0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_all_points_inside_the_closed_ball():
    rng = np.random.default_rng(0)
    for _ in range(20):
        center = rng.normal(size=4) * 10.0
        radius = float(rng.uniform(1e-6, 50.0))
        s = sample_ball(center, radius, 100, master_seed=int(rng.integers(1000)), stream_id=2)
        dists = np.linalg.norm(s - center, axis=1)
        assert np.all(dists <= radius)


def test_zero_radius_collapses_to_center():
    center = np.array([3.0, 4.0])
    s = sample_ball(center, 0.0, 10, master_seed=1, stream_id=0)
    assert np.all(s == center)


def test_counts_and_fields():
    center = np.array([0.0, 0.0, 0.0])
    s = sample_ball(center, 2.0, 17, master_seed=5, stream_id=8)
    assert s.shape == (17, 3)


def test_radial_distribution_in_the_plane():
    """In 2d the mass inside half the radius must be a quarter of the total."""
    s = sample_ball(np.zeros(2), 1.0, 100_000, master_seed=3, stream_id=0)
    norms = np.linalg.norm(s, axis=1)
    frac = float(np.mean(norms <= 0.5))
    assert abs(frac - 0.25) < 0.01
    # Stronger check: |x|^2 is uniform on [0, 1] for the 2d unit ball.
    stat = ks_statistic(norms ** 2, lambda t: np.clip(t, 0.0, 1.0))
    assert stat < ks_critical_1pct(100_000)


def test_directions_are_isotropic():
    s = sample_ball(np.zeros(3), 1.0, 10_000, master_seed=4, stream_id=1)
    mean = s.mean(axis=0)
    # Component means are 0 with std sqrt(E|x_i|^2 / N); E|x_i|^2 = 1/5 in
    # the 3d unit ball. Allow three sigmas.
    sigma = np.sqrt(1.0 / 5.0 / 10_000)
    assert np.all(np.abs(mean) < 3.0 * sigma)


def test_iteration_stream_feeds_ball_points():
    rng = iteration_stream(master_seed=9, stream_id=4)
    pts = ball_points(rng, np.array([1.0, -2.0]), 0.5, 30)
    s = sample_ball(np.array([1.0, -2.0]), 0.5, 30, master_seed=9, stream_id=4)
    assert np.array_equal(pts, s)


class TestValidation:
    def test_negative_radius(self):
        with pytest.raises(ValueError):
            sample_ball(np.zeros(2), -1.0, 5, master_seed=0, stream_id=0)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_ball(np.zeros(2), 1.0, 0, master_seed=0, stream_id=0)

    def test_seeds_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            sample_ball(np.zeros(2), 1.0, 5, master_seed=-1, stream_id=0)
        with pytest.raises(ValueError):
            sample_ball(np.zeros(2), 1.0, 5, master_seed=0, stream_id=-2)
