"""Sampling loop end to end plus the admissibility and reporting helpers."""

import dataclasses
import math

import numpy as np
import pytest

from noisygs.minnorm import GradientBundle, MinNormNonConvergence, solve_min_norm
from noisygs.oracle import NoiseBounds, OracleHandle, exact_oracle
from noisygs.problems import load_problem, max_of_linear
from noisygs.sampler import sample_ball
from noisygs.solver import (
    IterateRecord,
    RunStatus,
    SolverParams,
    certify,
    radius_reduced,
    resolve_eps_ls,
    resolve_m,
    run,
    terminal_bound_eps,
    validate_params,
)

pytestmark = [
    pytest.mark.filterwarnings("ignore:admissibility violations"),
    pytest.mark.filterwarnings("ignore:oracle is not deterministic"),
]


def abs_oracle():
    oracle, _ = max_of_linear([[1.0], [-1.0]], [0.0, 0.0])
    return oracle


def record(k, eps_k=1.0, norm=1.0, alpha=0.0, backtracks=0, f_tilde=0.0,
           reduced=False):
    return IterateRecord(k=k, eps_k=eps_k, norm_g_tilde=norm, alpha=alpha,
                         backtracks=backtracks, f_tilde=f_tilde, f_true=None,
                         radius_reduced=reduced)


class TestRunOnAbsoluteValue:
    """Noiseless 1d kink: the loop must walk in and shrink the radius out."""

    def setup_method(self):
        self.params = SolverParams(lipschitz=1.0, eps1=1.0)
        self.result = run(abs_oracle(), np.array([10.0]), self.params)

    def test_reaches_stationary(self):
        assert self.result.status is RunStatus.STATIONARY
        assert abs(self.result.final_x[0]) <= 1e-3

    def test_last_iteration_shrank_below_eps_min(self):
        last = self.result.history[-1]
        assert last.radius_reduced
        assert self.params.theta * last.eps_k <= self.params.eps_min

    def test_values_never_exceed_the_start(self):
        f1 = self.result.history[0].f_tilde
        assert all(r.f_tilde <= f1 for r in self.result.history)

    def test_noiseless_truth_column_matches(self):
        assert all(r.f_true == r.f_tilde for r in self.result.history)

    def test_eval_accounting(self):
        m = resolve_m(self.params.m, 1)
        hist = self.result.history
        assert self.result.g_evals == len(hist) * (m + 1)
        assert self.result.f_evals == 1 + sum(r.backtracks for r in hist)

    def test_radius_never_grows_and_shrinks_by_theta(self):
        hist = self.result.history
        for prev, nxt in zip(hist, hist[1:]):
            if prev.radius_reduced:
                assert nxt.eps_k == self.params.theta * prev.eps_k
            else:
                assert nxt.eps_k == prev.eps_k

    def test_reduction_dichotomy(self):
        for r in self.result.history:
            should_reduce = r.norm_g_tilde <= max(self.params.nu * r.eps_k, 0.0)
            assert r.radius_reduced == should_reduce
            if r.radius_reduced:
                assert r.alpha == 0.0
                assert r.backtracks == 0

    def test_small_problem_records_iterates(self):
        hist = self.result.history
        assert all(r.x is not None and r.x.shape == (1,) for r in hist)
        for prev, nxt in zip(hist, hist[1:]):
            moved = float(np.linalg.norm(nxt.x - prev.x))
            if prev.alpha > 0.0:
                assert moved == pytest.approx(prev.alpha * prev.norm_g_tilde, rel=1e-9)
            else:
                assert moved == 0.0

    def test_theorem_bound_value_and_witness(self):
        # nu/theta times the terminal radius level for L = 1, eps_ls = 1e-12.
        expected = 10.0 * (6.0 * 1e-12 * 1.0 / (1e-10 * 0.5)) ** (1.0 / 3.0)
        cert = self.result.certificate
        assert cert.bound == pytest.approx(expected, rel=1e-12)
        assert cert.witness is not None
        assert not cert.vacuous

    def test_no_warnings_for_an_admissible_setup(self):
        assert self.result.warnings == ()


class TestTerminationStatuses:
    def test_zero_budget(self):
        res = run(abs_oracle(), np.array([4.0]), SolverParams(budget=0))
        assert res.status is RunStatus.BUDGET_EXHAUSTED
        assert res.history == ()
        assert np.array_equal(res.final_x, [4.0])
        assert math.isinf(res.certificate.bound)
        assert res.certificate.witness is None
        assert res.f_evals == 1
        assert res.g_evals == 0

    def test_budget_exhausted_mid_run(self):
        res = run(abs_oracle(), np.array([10.0]),
                  SolverParams(lipschitz=1.0, eps1=1.0, budget=3))
        assert res.status is RunStatus.BUDGET_EXHAUSTED
        assert len(res.history) == 3

    def test_objective_diverging(self):
        down = exact_oracle(1, lambda x: -float(x[0]), lambda x: np.array([-1.0]))
        res = run(down, np.zeros(1), SolverParams(f_low=-50.0))
        assert res.status is RunStatus.OBJECTIVE_DIVERGING
        assert res.history[-1].f_tilde >= -51.5

    def test_qp_failure(self, monkeypatch):
        def explode(bundle):
            raise MinNormNonConvergence("synthetic")
        monkeypatch.setattr("noisygs.solver.solve_min_norm", explode)
        res = run(abs_oracle(), np.array([2.0]), SolverParams())
        assert res.status is RunStatus.QP_FAILURE
        assert res.history == ()

    def test_status_labels(self):
        assert RunStatus.STATIONARY.value == "Stationary"
        assert RunStatus.BUDGET_EXHAUSTED.value == "BudgetExhausted"
        assert RunStatus.OBJECTIVE_DIVERGING.value == "ObjectiveDiverging"
        assert RunStatus.QP_FAILURE.value == "QPFailure"


class TestWarningsAndStrictness:
    def test_nondeterministic_oracle_is_flagged(self):
        state = {"n": 0}

        def wobbly_f(x):
            state["n"] += 1
            return float(x[0] ** 2) + 1e-6 * state["n"]

        oracle = OracleHandle(dims=1, eval_f=wobbly_f,
                              eval_g=lambda x: 2.0 * np.asarray(x, dtype=float),
                              deterministic=False)
        with pytest.warns(RuntimeWarning, match="not deterministic"):
            res = run(oracle, np.ones(1), SolverParams(budget=2))
        assert any("not deterministic" in w for w in res.warnings)

    def test_admissibility_violations_are_warned_and_recorded(self):
        with pytest.warns(RuntimeWarning, match="admissibility"):
            res = run(abs_oracle(), np.ones(1), SolverParams(budget=1))
        assert any("no lipschitz constant" in w for w in res.warnings)

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError, match="admissibility"):
            run(abs_oracle(), np.ones(1), SolverParams(strict_requires=True))

    def test_eta_outside_the_interval_is_soft(self):
        params = SolverParams(eta=0.6, budget=5)
        with pytest.warns(RuntimeWarning, match="admissibility"):
            res = run(abs_oracle(), np.ones(1), params)
        assert len(res.history) > 0
        assert any("eta = 0.6 lies outside (0, 1/2)" in w for w in res.warnings)
        strict = SolverParams(eta=0.6, budget=5, strict_requires=True)
        with pytest.raises(ValueError, match="eta = 0.6"):
            run(abs_oracle(), np.ones(1), strict)

    def test_nan_start_value_rejected(self):
        oracle = OracleHandle(dims=1, eval_f=lambda x: math.nan,
                              eval_g=lambda x: np.ones(1))
        with pytest.raises(ValueError, match="NaN"):
            run(oracle, np.ones(1), SolverParams(budget=5))

    def test_bad_start_point(self):
        with pytest.raises(ValueError):
            run(abs_oracle(), np.ones(2), SolverParams())
        with pytest.raises(ValueError):
            run(abs_oracle(), np.array([np.nan]), SolverParams())


class TestDeterminism:
    def test_identical_runs_reproduce_bit_for_bit(self):
        prob = load_problem("rosenbrock")
        bounds = NoiseBounds(1e-3, 0.03)
        params = SolverParams(bounds=bounds, budget=150, master_seed=7)
        a = run(prob.make_noisy(bounds, 5), prob.spec.default_start, params)
        b = run(prob.make_noisy(bounds, 5), prob.spec.default_start, params)
        assert a.status is b.status
        assert np.array_equal(a.final_x, b.final_x)
        assert (a.f_evals, a.g_evals) == (b.f_evals, b.g_evals)
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert (ra.k, ra.eps_k, ra.norm_g_tilde, ra.alpha, ra.backtracks,
                    ra.f_tilde, ra.f_true, ra.radius_reduced) == (
                rb.k, rb.eps_k, rb.norm_g_tilde, rb.alpha, rb.backtracks,
                rb.f_tilde, rb.f_true, rb.radius_reduced)
            assert np.array_equal(ra.x, rb.x)

    def test_master_seed_changes_the_trajectory(self):
        prob = load_problem("rosenbrock")
        bounds = NoiseBounds(1e-3, 0.03)
        noisy = prob.make_noisy(bounds, 5)
        a = run(noisy, prob.spec.default_start,
                SolverParams(bounds=bounds, budget=60, master_seed=0))
        b = run(noisy, prob.spec.default_start,
                SolverParams(bounds=bounds, budget=60, master_seed=1))
        norms_a = [r.norm_g_tilde for r in a.history]
        norms_b = [r.norm_g_tilde for r in b.history]
        assert norms_a != norms_b


class TestNoisyRunInvariants:
    def setup_method(self):
        prob = load_problem("rosenbrock")
        self.bounds = NoiseBounds(1e-3, 0.03)
        self.params = SolverParams(bounds=self.bounds, budget=250, master_seed=3)
        self.result = run(prob.make_noisy(self.bounds, 11),
                          prob.spec.default_start, self.params)

    def test_reduction_dichotomy_with_gradient_noise(self):
        gate = 5.0 * self.bounds.eps_g
        for r in self.result.history:
            expected = r.norm_g_tilde <= max(self.params.nu * r.eps_k, gate)
            assert r.radius_reduced == expected

    def test_radius_ladder(self):
        hist = self.result.history
        for prev, nxt in zip(hist, hist[1:]):
            expected = self.params.theta * prev.eps_k if prev.radius_reduced else prev.eps_k
            assert nxt.eps_k == expected

    def test_null_steps_keep_the_iterate(self):
        hist = self.result.history
        for prev, nxt in zip(hist, hist[1:]):
            if prev.alpha == 0.0:
                assert np.array_equal(prev.x, nxt.x)
                assert nxt.f_tilde == prev.f_tilde

    def test_start_cap_via_noisy_values(self):
        f1 = self.result.history[0].f_tilde
        assert all(r.f_tilde <= f1 for r in self.result.history)


class TestObserver:
    def test_events_mirror_history(self):
        events = []
        params = SolverParams(lipschitz=1.0, eps1=1.0, budget=40)
        res = run(abs_oracle(), np.array([5.0]), params, observer=events.append)
        assert len(events) == len(res.history)
        for ev, rec_ in zip(events, res.history):
            assert ev.record is rec_
            assert np.array_equal(ev.x, rec_.x)
            assert ev.g_center.shape == (1,)

    def test_larger_problems_omit_stored_iterates(self):
        oracle, spec = max_of_linear(np.eye(4), np.zeros(4))
        res = run(oracle, np.array([1.0, 2.0, 0.5, -0.3]),
                  SolverParams(budget=5, eps1=1.0, lipschitz=1.0))
        assert all(r.x is None for r in res.history)


class TestValidateParams:
    def base(self, **kw):
        defaults = dict(bounds=NoiseBounds(eps_f=0.02, eps_g=0.1), eta=0.25,
                        gamma=0.5, nu=1.0, eps_ls=0.05, lipschitz=1.0, eps1=2.0)
        defaults.update(kw)
        return SolverParams(**defaults)

    def test_clean_configuration(self):
        assert validate_params(self.base(), dims=2) == []

    def test_eps1_interval_for_these_constants(self):
        # lo = cbrt(6 * 0.05 * 1.1 / (0.25 * 0.5)) ~ 1.3823, hi = 3.3.
        for bad in (1.3, 3.31):
            out = validate_params(self.base(eps1=bad), dims=2)
            assert any("eps1" in v for v in out), bad
        for good in (1.4, 3.29):
            assert validate_params(self.base(eps1=good), dims=2) == []

    def test_eps1_floor_switches_to_gradient_noise(self):
        # With eps_g = 0.3 the floor 5 * eps_g = 1.5 overtakes the cube root.
        noisy = dict(bounds=NoiseBounds(eps_f=0.02, eps_g=0.3))
        out = validate_params(self.base(eps1=1.48, **noisy), dims=2)
        assert any("eps1" in v for v in out)
        assert validate_params(self.base(eps1=1.52, **noisy), dims=2) == []

    def test_eps_ls_must_exceed_twice_eps_f(self):
        out = validate_params(self.base(eps_ls=0.04), dims=2)
        assert any("must exceed twice eps_f" in v for v in out)

    def test_lipschitz_must_dominate_gradient_noise(self):
        out = validate_params(
            self.base(lipschitz=0.2, eps1=0.55,
                      bounds=NoiseBounds(eps_f=0.02, eps_g=0.1)), dims=2)
        assert any("must exceed twice eps_g" in v for v in out)

    def test_bundle_size_floor(self):
        out = validate_params(self.base(m=2), dims=2)
        assert any("below dims + 1" in v for v in out)

    def test_missing_lipschitz_is_reported(self):
        out = validate_params(self.base(lipschitz=None), dims=2)
        assert any("no lipschitz constant" in v for v in out)

    def test_range_checks(self):
        assert any("theta" in v for v in validate_params(self.base(theta=1.5), 2))
        assert any("eta" in v for v in validate_params(self.base(eta=0.5), 2))
        assert any("nu" in v for v in validate_params(self.base(nu=0.0), 2))


class TestResolvers:
    def test_resolve_m(self):
        assert resolve_m(None, 1) == 10
        assert resolve_m(None, 12) == 13
        assert resolve_m(7, 12) == 7

    def test_resolve_eps_ls(self):
        assert resolve_eps_ls(None, 0.0) == 1e-12
        assert resolve_eps_ls(None, 0.01) == pytest.approx(0.021)
        assert resolve_eps_ls(0.5, 0.01) == 0.5


class TestTerminalBound:
    def test_cube_root_regime(self):
        params = SolverParams(eta=1e-10, gamma=0.5, nu=1.0)
        got = terminal_bound_eps(params, eps_ls=1e-12, lipschitz=500.0)
        assert got == pytest.approx(60.0 ** (1.0 / 3.0), rel=1e-12)

    def test_gradient_noise_floor_regime(self):
        params = SolverParams(bounds=NoiseBounds(eps_g=0.3), eta=0.25,
                              gamma=0.5, nu=1.0)
        got = terminal_bound_eps(params, eps_ls=1e-15, lipschitz=1.0)
        assert got == 1.5


class TestRadiusReduced:
    def test_scaled_radius_test(self):
        assert radius_reduced(2.0, 2.0, 1.0, 0.0)
        assert not radius_reduced(2.0 + 1e-12, 2.0, 1.0, 0.0)
        assert radius_reduced(3.0, 2.0, 1.5, 0.0)

    def test_gradient_noise_floor(self):
        # Below 5 * eps_g the aggregate is noise, whatever the radius.
        assert radius_reduced(0.5, 1e-6, 1.0, 0.1)
        assert not radius_reduced(0.51, 1e-6, 1.0, 0.1)


class TestCertify:
    NOISY = SolverParams(bounds=NoiseBounds(eps_f=1e-4, eps_g=1e-2), eps_ls=2.1e-4,
                         lipschitz=0.4)

    def steps(self, reduced):
        # Five rows at eps_k = 10 with |g| = 50 and alpha = 0.5: each step is
        # 25 long and drops f by 10, a secant slope of 0.4.
        return [record(k, eps_k=10.0, norm=50.0, alpha=0.5, f_tilde=60.0 - 10.0 * k,
                       reduced=reduced and k == 3)
                for k in range(1, 6)]

    def test_rows_that_do_not_reduce_the_radius_witness_nothing(self):
        cert = certify(self.steps(reduced=False), self.NOISY, eps_ls=2.1e-4)
        level = (6.0 * 2.1e-4 * (0.4 + 1e-2) / (1e-10 * 0.5)) ** (1.0 / 3.0)
        assert cert.level == pytest.approx(level, rel=1e-12)
        assert cert.bound == pytest.approx(10.0 * level, rel=1e-12)
        assert cert.witness is None

    def test_first_qualifying_reduced_row_is_the_witness(self):
        cert = certify(self.steps(reduced=True), self.NOISY, eps_ls=2.1e-4)
        assert cert.witness == 3

    def test_rows_above_the_level_do_not_witness(self):
        params = SolverParams(lipschitz=1.0, eta=0.25, eps1=100.0)
        hist = [record(1, eps_k=50.0, norm=1.0, reduced=True),
                record(2, eps_k=0.5, norm=0.05, reduced=True),
                record(3, eps_k=0.05, norm=0.05, reduced=True)]
        cert = certify(hist, params, eps_ls=0.02)
        assert 0.5 < cert.level < 50.0
        assert cert.witness == 2
        assert not cert.vacuous

    def test_vacuous_when_the_level_reaches_eps1(self):
        hist = self.steps(reduced=True)
        assert certify(hist, self.NOISY, eps_ls=2.1e-4).vacuous
        wide = dataclasses.replace(self.NOISY, eps1=1e3)
        assert not certify(hist, wide, eps_ls=2.1e-4).vacuous

    def test_stored_lipschitz_wins_over_the_estimate(self):
        params = SolverParams(bounds=self.NOISY.bounds, lipschitz=1e3)
        cert = certify(self.steps(reduced=False), params, eps_ls=2.1e-4)
        level = (6.0 * 2.1e-4 * (1e3 + 1e-2) / (1e-10 * 0.5)) ** (1.0 / 3.0)
        assert cert.level == pytest.approx(level, rel=1e-12)

    def test_without_a_constant_the_level_is_infinite(self):
        # The steps' secant slope does not stand in for the missing constant.
        unstated = dataclasses.replace(self.NOISY, lipschitz=None)
        cert = certify(self.steps(reduced=True), unstated, eps_ls=2.1e-4)
        assert math.isinf(cert.level) and math.isinf(cert.bound)
        assert cert.vacuous
        assert cert.witness == 3

    def test_no_estimate_leaves_the_level_infinite(self):
        cert = certify([record(1, reduced=True)], SolverParams(), eps_ls=1e-12)
        assert math.isinf(cert.level) and math.isinf(cert.bound)
        assert cert.vacuous


def test_step_follows_the_negated_aggregate():
    problem = load_problem("rosenbrock")
    x0 = problem.spec.default_start
    params = SolverParams(budget=1, master_seed=3, eps1=0.1)
    res = run(problem.oracle, x0, params)
    alpha = res.history[0].alpha
    assert alpha > 0.0
    m = resolve_m(params.m, x0.size)
    points = sample_ball(x0, params.eps1, m, params.master_seed, 1)
    columns = np.column_stack([problem.oracle.eval_g(p) for p in [x0, *points]])
    sol = solve_min_norm(GradientBundle(columns=columns, center=x0, radius=params.eps1))
    assert np.array_equal(res.final_x, x0 + alpha * -sol.aggregate)


def test_one_gradient_bundle_per_iteration():
    bundles = []

    def g(x):
        return 2.0 * np.asarray(x, dtype=float)

    def g_many(points):
        bundles.append(points.copy())
        return 2.0 * points

    g.many = g_many
    oracle = OracleHandle(dims=2, eval_f=lambda x: float(np.asarray(x) @ np.asarray(x)),
                          eval_g=g)
    x0 = np.array([3.0, -1.0])
    params = SolverParams(budget=4, m=5, master_seed=2)
    res = run(oracle, x0, params)
    assert len(bundles) == len(res.history) == 4
    assert res.g_evals == 4 * (5 + 1)
    for k, bundle in enumerate(bundles, start=1):
        rec = res.history[k - 1]
        assert bundle.shape == (6, 2)
        assert np.array_equal(bundle[0], rec.x)
        assert np.array_equal(bundle[1:], sample_ball(rec.x, rec.eps_k, 5, 2, k))


class TestParamConstruction:
    def test_mechanical_validation(self):
        with pytest.raises(ValueError):
            SolverParams(m=0)
        with pytest.raises(ValueError):
            SolverParams(eps1=0.0)
        with pytest.raises(ValueError):
            SolverParams(budget=-1)
        with pytest.raises(ValueError):
            SolverParams(master_seed=-1)
        with pytest.raises(ValueError):
            SolverParams(eps_min=-1e-9)
        # The line search's constants: its loop ends only for gamma in
        # (0, 1), and the slack and the cutoff's bound must be usable numbers.
        for key, values, text in (("gamma", (0.0, 1.0), r"gamma must lie in \(0, 1\)"),
                                  ("lipschitz", (0.0, np.inf), "lipschitz must be positive"),
                                  ("eps_ls", (0.0, np.inf), "eps_ls must be positive")):
            for value in values:
                with pytest.raises(ValueError, match=text):
                    SolverParams(**{key: value})

    def test_an_auto_slack_that_overflows_is_rejected(self):
        # 2.1 * eps_f overflows to inf once eps_f passes about 8.6e307.
        with pytest.raises(ValueError, match="eps_ls must be positive and finite"):
            SolverParams(bounds=NoiseBounds(eps_f=1e308))
        SolverParams(bounds=NoiseBounds(eps_f=8e307))
        SolverParams(bounds=NoiseBounds(eps_f=1e308), eps_ls=1.0)
