"""Noise wrapping: exact bound enforcement, determinism, and keying."""

import dataclasses
import signal

import numpy as np
import pytest

import noisygs.oracle
from noisygs.oracle import (
    NoiseBounds,
    OracleHandle,
    _word_to_uniform,
    clamp_ball,
    clamp_scalar,
    eval_rows,
    exact_oracle,
    keyed_ball,
    keyed_seed,
    keyed_uniform,
    wrap_with_uniform_noise,
)
from noisygs.problems import rosenbrock_ns
from noisygs.sampler import sample_ball
from noisygs.solver import SolverParams, run


def quadratic_oracle(dims: int) -> OracleHandle:
    return exact_oracle(dims,
                        lambda x: 0.5 * float(np.asarray(x) @ np.asarray(x)),
                        lambda x: np.asarray(x, dtype=float).copy())


def test_degenerate_bounds_return_the_exact_handle():
    exact = quadratic_oracle(2)
    wrapped = wrap_with_uniform_noise(exact, NoiseBounds(0.0, 0.0), noise_seed=7)
    assert wrapped is exact


def test_same_point_same_answer():
    noisy = wrap_with_uniform_noise(quadratic_oracle(3), NoiseBounds(0.1, 0.05), noise_seed=1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=3) * 10.0
        assert noisy.eval_f(x) == noisy.eval_f(x.copy())
        assert np.array_equal(noisy.eval_g(x), noisy.eval_g(x.copy()))
    assert noisy.deterministic


def test_value_noise_bound_holds_exactly_and_centers_at_zero():
    exact = quadratic_oracle(2)
    noisy = wrap_with_uniform_noise(exact, NoiseBounds(eps_f=0.1), noise_seed=3)
    rng = np.random.default_rng(1)
    errs = np.empty(20_000)
    for i in range(errs.size):
        x = rng.normal(size=2) * 5.0
        errs[i] = noisy.eval_f(x) - exact.eval_f(x)
    assert np.max(np.abs(errs)) <= 0.1
    # Mean of uniform(-0.1, 0.1) noise over N draws: zero within three
    # sigmas of 0.1 / sqrt(3 N).
    assert abs(errs.mean()) <= 3.0 * 0.1 / np.sqrt(3.0 * errs.size)
    # The wrapper must actually perturb, not pass through.
    assert np.mean(np.abs(errs) > 0.01) > 0.5


def test_gradient_noise_stays_in_the_ball():
    exact = quadratic_oracle(4)
    noisy = wrap_with_uniform_noise(exact, NoiseBounds(eps_g=0.25), noise_seed=5)
    rng = np.random.default_rng(2)
    moved = 0
    for _ in range(2000):
        x = rng.normal(size=4)
        delta = np.linalg.norm(noisy.eval_g(x) - exact.eval_g(x))
        assert delta <= 0.25
        moved += delta > 1e-6
    assert moved == 2000


def test_noise_seed_changes_the_noise_field():
    exact = quadratic_oracle(2)
    a = wrap_with_uniform_noise(exact, NoiseBounds(eps_f=0.1), noise_seed=0)
    b = wrap_with_uniform_noise(exact, NoiseBounds(eps_f=0.1), noise_seed=1)
    rng = np.random.default_rng(3)
    differing = 0
    for _ in range(100):
        x = rng.normal(size=2)
        fa, fb = a.eval_f(x), b.eval_f(x)
        truth = exact.eval_f(x)
        assert abs(fa - truth) <= 0.1 and abs(fb - truth) <= 0.1
        differing += fa != fb
    assert differing > 90


def test_signed_zero_keys_identical_noise():
    noisy = wrap_with_uniform_noise(quadratic_oracle(1), NoiseBounds(eps_f=0.1), noise_seed=9)
    assert noisy.eval_f(np.array([0.0])) == noisy.eval_f(np.array([-0.0]))


def test_truth_access_passes_through_unperturbed():
    exact = quadratic_oracle(2)
    noisy = wrap_with_uniform_noise(exact, NoiseBounds(0.2, 0.2), noise_seed=4)
    x = np.array([1.5, -2.5])
    assert noisy.truth_access.f(x) == exact.eval_f(x)
    assert np.array_equal(noisy.truth_access.g(x), exact.eval_g(x))


def test_wrapping_needs_truth_access():
    bare = OracleHandle(dims=1, eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(1))
    with pytest.raises(ValueError):
        wrap_with_uniform_noise(bare, NoiseBounds(0.1, 0.0), noise_seed=0)


def test_bounds_validation():
    with pytest.raises(ValueError):
        NoiseBounds(eps_f=-0.1)
    with pytest.raises(ValueError):
        NoiseBounds(eps_g=np.inf)


@pytest.fixture
def deadline():
    """Fail a test that runs past 20 s rather than let it hang the suite."""
    def expire(signum, frame):
        raise TimeoutError("no result within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def per_row(oracle: OracleHandle, points: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(oracle.eval_g(p), dtype=float) for p in points])


def scaled_norms(rows: np.ndarray, exponent: int) -> np.ndarray:
    """Row norms of rows * 2**exponent. A power of two rescales exactly, so
    the norms of tiny or huge offsets are read where their squares neither
    underflow nor overflow."""
    return np.linalg.norm(np.ldexp(np.atleast_2d(rows), exponent), axis=1)


class TestEvalGMany:
    def test_eval_rows_stacked_and_per_row_paths_agree_bitwise(self):
        # Goldstein-sized bundles: a centre plus 100 ball points, at radii
        # that put rows on both sides of Rosenbrock's kink.
        g = rosenbrock_ns()[0].truth_access.g
        assert hasattr(g, "many")
        rng = np.random.default_rng(11)
        branches = set()
        for k in range(20):
            center = rng.normal(size=2)
            points = np.vstack([center, sample_ball(center, 10.0 ** -(k % 5), 100, k, 0)])
            stacked = eval_rows(g, points)
            assert stacked.shape == (101, 2)
            assert stacked.tobytes() == np.stack([g(p) for p in points]).tobytes()
            assert stacked.tobytes() == eval_rows(lambda p: g(p), points).tobytes()
            branches.update(stacked[:, 1])
        assert branches == {-100.0, 100.0}
    def test_without_a_batch_it_stacks_eval_g(self):
        calls = []

        def g(x):
            calls.append(1)
            return 2.0 * np.asarray(x, dtype=float)

        oracle = OracleHandle(dims=3, eval_f=lambda x: 0.0, eval_g=g)
        points = np.random.default_rng(2).normal(size=(5, 3))
        many = oracle.eval_g_many(points)
        assert many.shape == (5, 3)
        assert len(calls) == 5
        assert np.array_equal(many, np.stack([g(p) for p in points]))

    def test_a_batch_on_eval_g_is_used_and_travels_with_it(self):
        batches = []

        def g(x):
            return 2.0 * np.asarray(x, dtype=float)

        def g_many(points):
            batches.append(points.shape)
            return 2.0 * points

        g.many = g_many
        oracle = OracleHandle(dims=2, eval_f=lambda x: 0.0, eval_g=g)
        points = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(oracle.eval_g_many(points), 2.0 * points)
        assert batches == [(4, 2)]

        calls = []

        def counting(x):
            calls.append(1)
            return g(x)

        rebuilt = dataclasses.replace(oracle, eval_g=counting)
        assert np.array_equal(rebuilt.eval_g_many(points), 2.0 * points)
        assert len(calls) == 4
        assert batches == [(4, 2)]


    @pytest.mark.parametrize("dims", [1, 2, 4, 6, 7, 9, 50])
    def test_wrapped_batch_is_bitwise_the_per_row_path(self, dims):
        noisy = wrap_with_uniform_noise(quadratic_oracle(dims), NoiseBounds(0.1, 0.05),
                                        noise_seed=3)
        assert hasattr(noisy.eval_g, "many")
        rng = np.random.default_rng(dims)
        for k, radius in enumerate([1.0, 1e-3, 1e-6, 1e-9, 1e-12], start=1):
            center = rng.normal(size=dims)
            points = np.vstack([center, sample_ball(center, radius, 10, 0, k)])
            assert noisy.eval_g_many(points).tobytes() == per_row(noisy, points).tobytes()
        zeros = np.array([[-0.0] * dims, [0.0] * dims, [-0.0] + [1.0] * (dims - 1)])
        batch = noisy.eval_g_many(zeros)
        assert batch.tobytes() == per_row(noisy, zeros).tobytes()
        assert np.array_equal(batch[0], batch[1])

    def test_rosenbrock_batches_match_per_row_with_and_without_noise(self):
        exact, _ = rosenbrock_ns()
        rng = np.random.default_rng(8)
        # Rows on both sides of the kink y = 2x^2 - 1, and one on it.
        points = np.vstack([rng.normal(size=(10, 2)), [[1.0, 1.0], [-0.0, -1.0]]])
        assert exact.eval_g_many(points).tobytes() == per_row(exact, points).tobytes()
        for eps_f in (0.1, 1e-4):
            noisy = wrap_with_uniform_noise(exact, NoiseBounds(eps_f, eps_f ** 0.5), noise_seed=2)
            assert noisy.eval_g_many(points).tobytes() == per_row(noisy, points).tobytes()

    def test_rows_that_need_the_clamp_take_it(self, monkeypatch):
        # At gradients of 1e3 a 1e-12 ball is a few ulps wide, so adding the
        # noise can round a row out of the ball; the last two rows are such
        # rows (found by search), the others stay inside. The batch clamps
        # its whole stack in one call, the per-row path row by row.
        hits = []
        real = noisygs.oracle.clamp_ball

        def counting(value, anchor, radius):
            out = real(value, anchor, radius)
            hits.append(not np.array_equal(out, value))
            return out

        monkeypatch.setattr(noisygs.oracle, "clamp_ball", counting)
        exact = exact_oracle(2, lambda x: 0.0,
                             lambda x: np.array([1e-3 * x[0], 1e3 * x[1]]))
        noisy = wrap_with_uniform_noise(exact, NoiseBounds(eps_g=1e-12), noise_seed=0)
        points = np.vstack([np.random.default_rng(5).normal(size=(16, 2)),
                            [[-0.22329559977220623, 0.7240192298296324],
                             [0.0703055101868928, 0.23085449610631834]]])
        batch = noisy.eval_g_many(points)
        assert hits == [True]
        assert batch.tobytes() == per_row(noisy, points).tobytes()
        assert hits.count(True) == 3
        exact_rows = np.stack([exact.eval_g(p) for p in points])
        assert np.all(np.linalg.norm(batch - exact_rows, axis=1) <= 1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_truth_gradient_reaches_the_bundle_check(self):
        exact = exact_oracle(2, lambda x: float(np.asarray(x) @ np.asarray(x)),
                             lambda x: np.array([np.nan, 1.0]))
        noisy = wrap_with_uniform_noise(exact, NoiseBounds(0.1, 0.1), noise_seed=0)
        points = np.random.default_rng(1).normal(size=(4, 2))
        batch = noisy.eval_g_many(points)
        assert np.array_equal(batch, per_row(noisy, points), equal_nan=True)
        assert np.all(np.isnan(batch[:, 0]))
        with pytest.raises(ValueError, match="bundle columns must be finite"):
            run(noisy, np.array([1.0, 1.0]), SolverParams(budget=3))


class TestKeyedFields:
    def test_keyed_seed_is_stable(self):
        x = np.array([1.0, 2.0])
        assert keyed_seed(5, x) == keyed_seed(5, x.copy())
        assert keyed_seed(5, x) != keyed_seed(6, x)

    def test_keyed_uniform_respects_half_width(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            x = rng.normal(size=2)
            u = keyed_uniform(0, x, 0.3)
            assert -0.3 <= u < 0.3

    def test_tags_decorrelate_fields(self):
        x = np.array([0.7])
        assert keyed_uniform(0, x, 1.0, b"f") != keyed_uniform(0, x, 1.0, b"phi")
        assert not np.array_equal(keyed_ball(0, x, 1.0, 1, b"g"), keyed_ball(0, x, 1.0, 1, b"h"))


class TestDigestDraws:
    """Draws read straight off the key digest: exact ranges and the right laws."""

    @pytest.mark.parametrize("h", [1e-300, 0.1, 1.0, 3.0, 2.0 ** 40])
    def test_word_map_spans_the_half_open_interval(self, h):
        assert _word_to_uniform(0, h) == -h
        top = _word_to_uniform(2 ** 64 - 1, h)
        assert 0.0 < top < h

    # Up to 6 dimensions the Box-Muller words come from blake2b, above from shake_256.
    @pytest.mark.parametrize("dim", [1, 2, 6, 7, 9, 50])
    def test_ball_draws_have_the_uniform_ball_law(self, dim):
        radius, count = 0.5, 4000
        rng = np.random.default_rng(dim)
        draws = np.array([keyed_ball(11, rng.normal(size=dim), radius, dim)
                          for _ in range(count)])
        assert draws.shape == (count, dim)
        r = np.linalg.norm(draws, axis=1)
        assert np.all(r <= radius)
        # (r/R)**dim is uniform on [0, 1): mean 1/2, sd of the mean sqrt(1/(12 N)).
        assert abs(np.mean((r / radius) ** dim) - 0.5) <= 3.0 * np.sqrt(1.0 / (12.0 * count))
        units = draws / r[:, None]
        # Each unit-vector component has variance 1/dim, so |mean|**2 ~ 1/N.
        assert np.linalg.norm(units.mean(axis=0)) <= 4.0 / np.sqrt(count)
        assert np.allclose(units.T @ units / count, np.eye(dim) / dim, atol=0.05)

    @pytest.mark.parametrize("dim", [2, 7, 50])
    def test_ball_keys_signed_zeros_alike(self, dim):
        negative = np.array([-0.0] * dim)
        assert np.array_equal(keyed_ball(4, negative, 1.0, dim), keyed_ball(4, -negative, 1.0, dim))

    def test_pinned_values(self):
        # Any change to how a key becomes a draw moves these.
        x = np.array([0.3, -1.2])
        assert keyed_uniform(0, x, 0.1) == pytest.approx(0.07519256232019483, rel=1e-12)
        assert keyed_uniform(7, np.array([1.0]), 2.0, b"phi") == pytest.approx(
            1.7575503639764936, rel=1e-12)
        pinned = {
            (5, (2.5,), 0.5, 1): [0.29427188212589234],
            (0, (0.3, -1.2), 0.1, 2): [-0.07685629237168251, -0.031797242093097804],
            (3, tuple(range(6)), 1.0, 6): [
                0.6869725804095413, 0.1536213313938813, -0.5488059028389438,
                -0.12447660367147184, 0.13802741245151742, 0.3879810080222837],
            (1, tuple(range(7)), 1.0, 7): [
                0.5817999816211437, -0.054467960252727834, 0.06575690115094056,
                0.35232253045732004, 0.18721631501396996, 0.6344831089552847,
                -0.05489406141016418],
            (2, tuple(range(9)), 1.0, 9): [
                0.029040480920844106, -0.12684708411560344, -0.16871310954760363,
                0.12157688204633967, 0.09974531164318208, 0.0287304979401465,
                0.3003419712878257, -0.1856653161349768, 0.711566335670181],
        }
        for (seed, point, radius, dim), expected in pinned.items():
            draw = keyed_ball(seed, np.array(point, dtype=float), radius, dim)
            assert draw.tolist() == pytest.approx(expected, rel=1e-12), dim


class TestClamps:
    def test_scalar_inside_is_untouched(self):
        assert clamp_scalar(1.05, 1.0, 0.1) == 1.05

    def test_scalar_ulp_spill_is_shaved_off(self):
        # The clamp walks in ulp by ulp; it exists for rounding spill, so
        # feed it a value a couple of ulps past the bound.
        spilled = np.nextafter(np.nextafter(1.1, 2.0), 2.0)
        assert abs(spilled - 1.0) > 0.1
        out = clamp_scalar(spilled, 1.0, 0.1)
        assert abs(out - 1.0) <= 0.1

    def test_ball_overshoot_is_rescaled(self):
        anchor = np.array([1.0, 1.0])
        out = clamp_ball(anchor + np.array([0.3, 0.4]), anchor, 0.25)
        assert np.linalg.norm(out - anchor) <= 0.25

    def test_ball_clamps_each_row_of_a_stack(self):
        anchor = np.array([1.0, 1.0])
        value = anchor + np.array([[0.3, 0.4], [0.1, 0.0]])
        out = clamp_ball(value, anchor, 0.25)
        assert np.all(np.linalg.norm(out - anchor, axis=1) <= 0.25)
        inside = value[1]
        assert np.array_equal(out[1], inside)
        assert clamp_ball(inside, anchor, 0.25) is inside

    @pytest.mark.usefixtures("deadline")
    def test_ball_narrower_than_an_ulp_returns_the_anchor(self):
        # One ulp of 3e15 is 0.5: every pull toward the anchor rounds back to
        # the same point outside the 0.3 ball, so the anchor is the answer.
        anchor = np.array([3e15])
        out = clamp_ball(anchor + 0.5, anchor, 0.3)
        assert abs(out[0] - anchor[0]) <= 0.3

    @pytest.mark.usefixtures("deadline")
    def test_gradient_noise_a_few_ulps_wide_terminates_within_the_bound(self):
        exact = exact_oracle(2, lambda x: 0.0,
                             lambda x: np.array([1e-3 * x[0], 1e3 * x[1]]))
        noisy = wrap_with_uniform_noise(exact, NoiseBounds(eps_g=1e-12), noise_seed=0)
        points = np.random.default_rng(5).normal(size=(300, 2))
        batch = noisy.eval_g_many(points)
        assert batch.tobytes() == per_row(noisy, points).tobytes()
        exact_rows = per_row(exact, points)
        assert np.all(np.linalg.norm(batch - exact_rows, axis=1) <= 1e-12)
        # These rows round out of the ball on every pull and fall back to the
        # exact gradient.
        for i in (17, 88, 198, 289):
            assert np.array_equal(noisy.eval_g(points[i]), exact_rows[i])

    def test_ball_below_the_square_underflow_pulls_rows_back(self):
        # Offsets near 1e-170 square to below the smallest double, so an
        # unscaled norm reads 0 and would leave the first two rows outside.
        anchor = np.array([3e-155, -7e-155])
        value = anchor + np.array([[2e-170, 0.0], [0.0, -3e-170], [5e-171, 0.0]])
        out = clamp_ball(value, anchor, 1e-170)
        assert np.all(scaled_norms(out - anchor, 560) <= np.ldexp(1e-170, 560))
        assert np.array_equal(out[2], value[2])
        assert not np.array_equal(out[0], anchor)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ball_above_the_square_overflow_keeps_inner_rows(self):
        # Offsets near 1e160 square to inf; an unscaled norm would pull every
        # row, the inner one included, onto the anchor.
        anchor = np.zeros(2)
        value = np.array([[6e159, 7e159], [1e160, 1e160]])
        out = clamp_ball(value, anchor, 1e160)
        assert np.array_equal(out[0], value[0])
        assert 0.99 * np.ldexp(1e160, -560) < scaled_norms(out[1], -560)[0] <= np.ldexp(1e160, -560)

    def test_gradient_noise_below_the_square_underflow_stays_within_the_bound(self):
        # The few-ulps case above scaled by 1e-158: squares of the offsets underflow.
        exact = exact_oracle(2, lambda x: 0.0,
                             lambda x: 1e-158 * np.array([1e-3 * x[0], 1e3 * x[1]]))
        noisy = wrap_with_uniform_noise(exact, NoiseBounds(eps_g=1e-170), noise_seed=0)
        points = np.random.default_rng(5).normal(size=(300, 2))
        batch = noisy.eval_g_many(points)
        assert batch.tobytes() == per_row(noisy, points).tobytes()
        errors = scaled_norms(batch - per_row(exact, points), 560)
        assert np.all(errors <= np.ldexp(1e-170, 560))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_noise_above_the_square_overflow_is_drawn(self):
        exact = quadratic_oracle(3)
        noisy = wrap_with_uniform_noise(exact, NoiseBounds(eps_g=1e160), noise_seed=0)
        points = np.random.default_rng(6).normal(size=(20, 3))
        batch = noisy.eval_g_many(points)
        assert batch.tobytes() == per_row(noisy, points).tobytes()
        errors = scaled_norms(batch - points, -560)
        assert np.all(errors <= np.ldexp(1e160, -560))
        assert np.all(errors > 0.0)
