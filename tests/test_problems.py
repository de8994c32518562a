"""Benchmark objectives: frozen values, kink conventions, and the registry."""

import numpy as np
import pytest

from noisygs.oracle import NoiseBounds
from noisygs.problems import (
    Problem,
    abs_composite,
    load_problem,
    max_of_linear,
    rosenbrock_ns,
)
from testkit import finite_diff_grad


class TestRosenbrock:
    def setup_method(self):
        self.oracle, self.spec = rosenbrock_ns()
        self.f = self.oracle.truth_access.f
        self.g = self.oracle.truth_access.g

    def test_frozen_values(self):
        assert self.f(np.array([1.0, 1.0])) == 0.0
        assert abs(self.f(np.array([-1.2, 1.0])) - 92.84) < 1e-12
        assert self.f(np.array([0.0, -1.0])) == 1.0

    def test_frozen_gradient_at_start(self):
        g = self.g(np.array([-1.2, 1.0]))
        assert np.allclose(g, [-484.4, -100.0], atol=1e-12)

    def test_nonnegative_everywhere_sampled(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 2)) * 3.0
        assert all(self.f(p) >= 0.0 for p in pts)

    def test_kink_selection_takes_positive_branch(self):
        # (0, -1) lies on the valley floor. The selection must match the
        # limit from t > 0, which is (-2, 100) there.
        g = self.g(np.array([0.0, -1.0]))
        assert np.array_equal(g, [-2.0, 100.0])

    def test_gradient_matches_finite_differences_where_smooth(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(50):
            x = rng.normal(size=2) * 2.0
            t = x[1] - 2.0 * x[0] ** 2 + 1.0
            if abs(t) < 1e-2:
                continue
            fd = finite_diff_grad(self.f, x, h=1e-7)
            an = self.g(x)
            assert np.max(np.abs(fd - an)) <= 1e-4 * (1.0 + np.max(np.abs(an)))
            checked += 1
        assert checked > 30

    def test_spec_facts(self):
        assert self.oracle.dims == 2
        assert np.array_equal(self.spec.default_start, [-1.2, 1.0])
        assert self.f(np.array([1.0, 1.0])) == 0.0


class TestAbsComposite:
    def test_identity_innocuous_region(self):
        """Far from the zero of phi the noisy sign cannot flip."""
        oracle = abs_composite(lambda t: t, lambda t: 1.0, noise_bound=0.02, noise_seed=0)
        for seed in range(20):
            o = abs_composite(lambda t: t, lambda t: 1.0, noise_bound=0.02, noise_seed=seed)
            assert np.array_equal(o.eval_g(np.array([5.0])), [1.0])
        assert abs(oracle.eval_f(np.array([5.0])) - 5.0) <= 0.02

    def test_quadratic_composite_gradient(self):
        o = abs_composite(lambda t: t * t - 1.0, lambda t: 2.0 * t,
                          noise_bound=0.02, noise_seed=0)
        assert np.array_equal(o.eval_g(np.array([2.0])), [4.0])
        assert np.array_equal(o.truth_access.g(np.array([2.0])), [4.0])

    def test_value_noise_bound_holds(self):
        o = abs_composite(lambda t: t, lambda t: 1.0, noise_bound=0.02, noise_seed=1)
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = rng.normal() * 4.0
            assert abs(o.eval_f(np.array([x])) - abs(x)) <= 0.02

    def test_sign_flip_near_the_zero(self):
        # True subdifferential at any x in (0, 0.02) is {+1}, but the noisy
        # phi can be negative there, flipping the reported gradient to -1.
        x = np.array([0.01])
        flipped = False
        for seed in range(1000):
            o = abs_composite(lambda t: t, lambda t: 1.0, noise_bound=0.02, noise_seed=seed)
            if o.eval_g(x)[0] == -1.0:
                flipped = True
                break
        assert flipped

    def test_exact_zero_of_noisy_phi_reports_zero(self):
        o = abs_composite(lambda t: t, lambda t: 1.0, noise_bound=0.0)
        assert np.array_equal(o.eval_g(np.array([0.0])), [0.0])

    def test_zero_bound_passes_truth_through(self):
        o = abs_composite(lambda t: t * t - 1.0, lambda t: 2.0 * t, noise_bound=0.0)
        x = np.array([1.7])
        assert o.eval_f(x) == abs(1.7 ** 2 - 1.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            abs_composite(lambda t: t, lambda t: 1.0, noise_bound=-0.1)


class TestMaxOfLinear:
    def setup_method(self):
        self.oracle, self.spec = max_of_linear([[1.0], [-1.0]], [0.0, 0.0])

    def test_absolute_value_realised(self):
        f = self.oracle.truth_access.f
        assert f(np.array([3.0])) == 3.0
        assert f(np.array([-2.0])) == 2.0
        assert f(np.array([0.0])) == 0.0

    def test_tie_takes_the_first_row(self):
        assert np.array_equal(self.oracle.truth_access.g(np.array([0.0])), [1.0])

    def test_lipschitz_hint_is_the_largest_row_norm(self):
        assert self.spec.lipschitz_hint == 1.0
        _, spec = max_of_linear([[3.0, 4.0], [1.0, 0.0]], [0.0, 2.0])
        assert spec.lipschitz_hint == 5.0

    def test_gradient_matches_finite_differences_off_ties(self):
        oracle, _ = max_of_linear([[1.0, 2.0], [-3.0, 0.5]], [0.0, 1.0])
        x = np.array([2.0, -1.0])
        fd = finite_diff_grad(oracle.truth_access.f, x, h=1e-7)
        assert np.max(np.abs(fd - oracle.truth_access.g(x))) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            max_of_linear(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            max_of_linear([[1.0, 0.0]], [0.0, 1.0])
        with pytest.raises(ValueError):
            max_of_linear([[np.inf, 0.0]], [0.0])


class TestRegistry:
    def test_rosenbrock_entry(self):
        prob = load_problem("rosenbrock")
        assert isinstance(prob, Problem)
        assert prob.oracle.truth_access is not None

    def test_noisy_rosenbrock_respects_bounds_and_seed(self):
        prob = load_problem("rosenbrock")
        noisy = prob.make_noisy(NoiseBounds(0.1, 0.05), 3)
        again = prob.make_noisy(NoiseBounds(0.1, 0.05), 3)
        other = prob.make_noisy(NoiseBounds(0.1, 0.05), 4)
        rng = np.random.default_rng(5)
        saw_difference = False
        for _ in range(50):
            x = rng.normal(size=2)
            truth = prob.oracle.truth_access.f(x)
            assert abs(noisy.eval_f(x) - truth) <= 0.1
            assert noisy.eval_f(x) == again.eval_f(x)
            assert np.linalg.norm(noisy.eval_g(x) - prob.oracle.truth_access.g(x)) <= 0.05
            saw_difference |= noisy.eval_f(x) != other.eval_f(x)
        assert saw_difference

    def test_abs_composite_entry_reuses_eps_f(self):
        prob = load_problem("abs_composite")
        assert prob.oracle.truth_access.f(np.array([0.0])) == 0.0
        noisy = prob.make_noisy(NoiseBounds(eps_f=0.3, eps_g=99.0), 0)
        x = np.array([1.0])
        assert abs(noisy.eval_f(x) - 1.0) <= 0.3

    def test_max_linear_file(self, tmp_path):
        path = tmp_path / "pieces.txt"
        path.write_text("1 0\n-1 0\n")
        prob = load_problem(f"max_linear:{path}")
        assert prob.oracle.dims == 1
        assert prob.oracle.truth_access.f(np.array([-4.0])) == 4.0

    def test_max_linear_missing_path(self):
        with pytest.raises(ValueError):
            load_problem("max_linear:")

    def test_max_linear_needs_offsets(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n-1\n")
        with pytest.raises(ValueError):
            load_problem(f"max_linear:{path}")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            load_problem("nosuch")
