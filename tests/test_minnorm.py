"""Aggregation QP: known answers, invariants, and the optimality certificate."""

import hashlib

import numpy as np
import pytest

from noisygs.minnorm import (
    DEFAULT_TOL,
    GradientBundle,
    MinNormNonConvergence,
    QPSolution,
    solve_min_norm,
)
from testkit import simplex_grid_min_norm


def bundle_of(columns) -> GradientBundle:
    cols = np.asarray(columns, dtype=float)
    return GradientBundle(columns=cols, center=np.zeros(cols.shape[0]), radius=1.0)


def certificate_violation(columns: np.ndarray, sol: QPSolution) -> float:
    """How far the solution is from passing its own optimality test.

    At the optimum every column satisfies c_i . x >= |x|^2. Returns the
    largest shortfall, zero or negative when the certificate holds.
    """
    x = sol.aggregate
    return float(np.max(x @ x - columns.T @ x))


class TestKnownAnswers:
    def test_opposing_scalars_aggregate_to_zero(self):
        sol = solve_min_norm(bundle_of([[1.0, -1.0]]))
        assert abs(sol.aggregate[0]) <= 1e-10
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-8)

    def test_duplicate_column_returns_it(self):
        v = np.array([2.0, -3.0])
        sol = solve_min_norm(bundle_of(np.column_stack([v, v])))
        assert np.allclose(sol.aggregate, v, atol=1e-12)
        assert abs(sol.weights.sum() - 1.0) <= 1e-12

    def test_projection_hits_endpoint(self):
        # Segment from (3,4) to (0,4): nearest point to the origin is (0,4).
        sol = solve_min_norm(bundle_of([[3.0, 0.0], [4.0, 4.0]]))
        assert np.allclose(sol.aggregate, [0.0, 4.0], atol=1e-8)
        assert np.allclose(sol.weights, [0.0, 1.0], atol=1e-8)

    def test_interior_projection_on_slanted_segment(self):
        # Segment from (1,0) to (0,1): the projection of the origin is the
        # midpoint (1/2, 1/2).
        sol = solve_min_norm(bundle_of([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(sol.aggregate, [0.5, 0.5], atol=1e-10)

    def test_origin_inside_hull(self):
        cols = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -1.0]])
        sol = solve_min_norm(bundle_of(cols))
        max_col = float(np.max(np.linalg.norm(cols, axis=0)))
        assert np.linalg.norm(sol.aggregate) <= np.sqrt(DEFAULT_TOL) * (1.0 + max_col)


class TestSolutionStructure:
    def test_weights_form_a_simplex_point(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cols = rng.normal(size=(3, 5))
            sol = solve_min_norm(bundle_of(cols))
            assert np.all(sol.weights >= -1e-12)
            assert abs(sol.weights.sum() - 1.0) <= 1e-9

    def test_aggregate_agrees_with_weighted_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cols = rng.normal(size=(2, 4))
            sol = solve_min_norm(bundle_of(cols))
            recombined = cols @ sol.weights
            assert np.linalg.norm(recombined - sol.aggregate) <= 1e-8


class TestInvariances:
    def test_column_permutation_leaves_norm_alone(self):
        rng = np.random.default_rng(11)
        cols = rng.normal(size=(3, 6))
        base = np.linalg.norm(solve_min_norm(bundle_of(cols)).aggregate)
        for _ in range(5):
            perm = rng.permutation(6)
            shuffled = np.linalg.norm(solve_min_norm(bundle_of(cols[:, perm])).aggregate)
            assert abs(shuffled - base) <= 1e-12 * (1.0 + base)

    def test_appending_duplicates_changes_nothing(self):
        rng = np.random.default_rng(12)
        cols = rng.normal(size=(2, 4))
        base = solve_min_norm(bundle_of(cols)).aggregate
        padded = np.column_stack([cols, cols[:, 1], cols[:, 3]])
        again = solve_min_norm(bundle_of(padded)).aggregate
        assert np.linalg.norm(again - base) <= 1e-10


class TestAgainstGridOracle:
    def test_random_small_bundles_match_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = rng.integers(1, 4)
            c = rng.integers(2, 4)
            cols = rng.normal(size=(n, c)) * rng.choice([0.5, 1.0, 5.0])
            sol = solve_min_norm(bundle_of(cols))
            grid = simplex_grid_min_norm(cols, resolution=1e-3)
            got = float(np.linalg.norm(sol.aggregate))
            # The grid can only miss upward, by at most its weight spacing
            # times the column scale.
            max_col = float(np.max(np.linalg.norm(cols, axis=0)))
            assert got <= grid.best_norm + 1e-12
            assert grid.best_norm - got <= 3e-3 * (1.0 + max_col)


class TestCertificate:
    def test_thousand_random_bundles(self):
        rng = np.random.default_rng(33)
        worst = -np.inf
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            c = int(rng.integers(2, 9))
            cols = rng.normal(size=(n, c)) * float(rng.choice([0.1, 1.0, 10.0]))
            sol = solve_min_norm(bundle_of(cols))
            x = sol.aggregate
            slack = 1e-8 * (1.0 + float(x @ x))
            violation = certificate_violation(cols, sol)
            worst = max(worst, violation - slack)
        assert worst <= 0.0

    def test_large_magnitude_kink_bundle(self):
        # Both branches of a scaled kink: near-duplicate columns of size
        # ~4e3. This shape used to defeat formulations that squared the
        # column magnitudes.
        cols = np.array([[-4115.2, 3324.8], [100.0, -100.0]])
        sol = solve_min_norm(bundle_of(cols))
        grid = simplex_grid_min_norm(cols, resolution=1e-4)
        got = float(np.linalg.norm(sol.aggregate))
        assert got <= grid.best_norm + 1e-6
        assert abs(got - grid.best_norm) <= 2e-4 * (1.0 + grid.best_norm)

    def test_interior_origin_at_large_scale_still_returns(self):
        # True minimum is exactly zero but the certificate arithmetic runs
        # at eps_mach * |c|^2 resolution, so the solver must settle for a
        # tiny aggregate rather than raise.
        cols = np.array([[-4000.0, 3000.0, 500.0], [90.0, -110.0, 4000.0]])
        sol = solve_min_norm(bundle_of(cols))
        assert np.linalg.norm(sol.aggregate) <= 1e-4

    def test_origin_inside_a_full_rank_corral_is_returned_exactly(self):
        # Iteration 5 of `run --eps-f 1e-4 --seed 7`: gradients from both
        # sides of the rosenbrock kink. The lstsq point of the final corral
        # has norm ~3e-13, just short of the certificate floor, and the most
        # violating column is already in the corral. The corral spans R^2,
        # so zero is the exact optimum.
        cols = np.array([
            [-283.0934334800084, 274.6901804246911, -312.09270545317247, 242.69410592774156,
             -274.1465184363168, -318.46110249195686, 262.52708271064563, 256.45925600128635,
             -306.94014629263785, -291.00746142780633, 258.0593429539787],
            [-99.99361499055007, 99.99748418518955, -99.99086380277718, 100.00350942085879,
             -99.99902691023051, -99.99195053751339, 100.0055615593983, 100.00059678897223,
             -99.99461044569269, -100.00905005435784, 100.00072920549235]])
        sol = solve_min_norm(bundle_of(cols))
        assert np.array_equal(sol.aggregate, np.zeros(2))
        assert np.all(sol.weights >= 0.0)
        assert abs(sol.weights.sum() - 1.0) <= 1e-12
        assert np.count_nonzero(sol.weights) == 3
        assert np.linalg.norm(cols @ sol.weights) <= 1e-9


class TestPinnedDigests:
    # sha256 of every weight and aggregate byte of seeded bundles; any change
    # to the arithmetic of the solve moves them.
    DIGESTS = {
        (2, 11, 40): "4b922596323504b238d0d7d2b4f539f25a5d26cde3057378d9213ac832fe7efa",
        (151, 11, 10): "4bce904e65380399a807f8518cb78cee17182c9380b7623dfbceb4d6a03d3964",
        (50, 51, 6): "a5c76925b03856474e701771f163732ca3a8a34f87b7a8920583ba59ff764ceb",
    }

    @pytest.mark.parametrize("n, c, count", list(DIGESTS))
    def test_seeded_bundles_reproduce_their_bytes(self, n, c, count):
        rng = np.random.default_rng(1000 * n + c)
        digest = hashlib.sha256()
        for _ in range(count):
            shift = float(rng.choice([0.0, 0.5, 2.0]))
            scale = float(rng.choice([1e-3, 1.0, 1e3]))
            cols = scale * (rng.normal(size=(n, c)) + shift * rng.normal(size=(n, 1)))
            sol = solve_min_norm(bundle_of(cols))
            digest.update(sol.weights.tobytes())
            digest.update(sol.aggregate.tobytes())
        assert digest.hexdigest() == self.DIGESTS[(n, c, count)]


class TestValidation:
    def test_bundle_needs_two_columns(self):
        with pytest.raises(ValueError):
            GradientBundle(columns=np.ones((2, 1)), center=np.zeros(2), radius=1.0)

    def test_bundle_rejects_nonfinite(self):
        cols = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            GradientBundle(columns=cols, center=np.zeros(2), radius=1.0)

    def test_bundle_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            GradientBundle(columns=np.ones((2, 2)), center=np.zeros(2), radius=0.0)
        with pytest.raises(ValueError):
            GradientBundle(columns=np.ones((2, 2)), center=np.zeros(2), radius=np.inf)

    def test_center_shape_checked(self):
        with pytest.raises(ValueError):
            GradientBundle(columns=np.ones((2, 2)), center=np.zeros(3), radius=1.0)

    def test_nonconvergence_is_a_runtime_error(self):
        assert issubclass(MinNormNonConvergence, RuntimeError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_columns_raise_nonconvergence(self, capfd):
        # Finite columns whose squared norms overflow: the QP's own failure,
        # not a ValueError, raised before any affine solve (LAPACK would
        # report the overflowing difference on stdout itself).
        with pytest.raises(MinNormNonConvergence):
            solve_min_norm(bundle_of([[1e308, -1e308]]))
        assert capfd.readouterr().out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_column_whose_square_overflows_is_refused(self):
        # The hull of (1e155, 0), (1, 0) and (-1, 0) holds the origin, so
        # (1, 0) is no optimum, yet an infinite floor would certify it.
        with pytest.raises(MinNormNonConvergence):
            solve_min_norm(bundle_of([[1e155, 1.0, -1.0], [0.0, 0.0, 0.0]]))
