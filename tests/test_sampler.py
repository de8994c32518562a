"""Seeded ball sampling: reproducibility, containment, and distribution."""

import numpy as np
import pytest

from noisygs.sampler import sample_ball
from testkit import ks_critical_1pct, ks_statistic


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


def test_radius_below_the_centers_ulp_stays_inside():
    # One ulp of 1e16 is 2. An offset rounds onto the center or a whole ulp
    # away, and at radius 1.5 a pulled-back point rounds out again, so those
    # points end up on the center itself.
    center = np.array([1e16, -1e16])
    for radius in (0.5, 1.5):
        s = sample_ball(center, radius, 50, master_seed=2, stream_id=1)
        assert np.all(np.linalg.norm(s - center, axis=1) <= radius)


def test_radius_below_the_square_underflow_stays_inside():
    # Offsets near 1e-170 square to below the smallest double; their norms
    # are read after an exact rescale by 2**560.
    center = np.array([3e-155, -7e-155])
    for seed in range(50):
        s = sample_ball(center, 1e-170, 20, master_seed=seed, stream_id=0)
        dists = np.linalg.norm(np.ldexp(s - center, 560), axis=1)
        assert np.all(dists <= np.ldexp(1e-170, 560))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radius_above_the_square_overflow_spreads_its_points():
    # Offsets near 1e160 square to inf; the points must still fill the ball,
    # not collapse onto the center.
    s = sample_ball(np.zeros(2), 1e160, 20, master_seed=0, stream_id=1)
    assert len({tuple(row) for row in s}) == 20
    assert np.all(np.linalg.norm(np.ldexp(s, -560), axis=1) <= np.ldexp(1e160, -560))


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
