"""End-to-end tests of the command line harness.

Every test drives ``noisygs.cli.main`` in process so exit codes, stdout,
and output files can all be inspected cheaply. Smoke tests at the bottom
spawn a real interpreter to prove the module entry point and each
subcommand's --help work.
"""

import argparse
import csv
import hashlib
import json
import math
import subprocess
import sys

import pytest

from noisygs import cli
from noisygs.minnorm import MinNormNonConvergence
from testkit import files_identical

pytestmark = [
    pytest.mark.filterwarnings("ignore:admissibility violations"),
    pytest.mark.filterwarnings("ignore:oracle is not deterministic"),
]


def call(*argv):
    """Run the CLI, returning its exit code even when argparse bails out."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "out"


class TestRun:
    def test_writes_history_trajectory_and_run_json(self, out_dir, capsys):
        code = call("run", "--problem", "rosenbrock", "--eps-f", "1e-2",
                    "--seed", "0", "--budget", "40", "--out", out_dir)
        assert code == 0
        rows = read_rows(out_dir / "history.csv")
        assert rows[0] == ["k", "eps_k", "norm_g_tilde", "alpha", "backtracks",
                           "f_tilde", "f_true"]
        assert len(rows) == 41
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(1, 41)]

        traj = read_rows(out_dir / "trajectory.csv")
        assert traj[0] == ["k", "x1", "x2"]
        assert len(traj) == 41

        meta = read_json(out_dir / "run.json")
        assert meta["problem"] == "rosenbrock"
        assert meta["dims"] == 2
        assert meta["status"] == "BudgetExhausted"
        assert len(meta["final_x"]) == 2
        assert meta["f_evals"] >= 41
        assert meta["g_evals"] == 40 * 11

        out = capsys.readouterr().out
        assert "status: BudgetExhausted" in out
        assert "iterations: 40" in out
        assert "final f_true:" in out
        assert f"wrote: {out_dir / 'history.csv'}" in out
        assert f"wrote: {out_dir / 'trajectory.csv'}" in out
        assert f"wrote: {out_dir / 'run.json'}" in out

    def test_auto_noise_settings_are_resolved_in_run_json(self, out_dir):
        call("run", "--eps-f", "1e-2", "--budget", "1", "--out", out_dir)
        params = read_json(out_dir / "run.json")["params"]
        assert params["eps_f"] == 0.01
        assert params["eps_g"] == 0.1
        assert params["eps_ls"] == 2.1 * 0.01
        assert params["m"] == 10
        assert params["seed"] == 0
        assert params["noise_seed"] == 0
        assert params["lipschitz"] is None
        assert params["strict_requires"] is False

    def test_noiseless_run_reports_equal_true_and_noisy_values(self, out_dir):
        call("run", "--budget", "25", "--out", out_dir)
        rows = read_rows(out_dir / "history.csv")
        for row in rows[1:]:
            assert row[5] == row[6]

    def test_budget_zero_produces_header_only_files(self, out_dir):
        code = call("run", "--budget", "0", "--out", out_dir)
        assert code == 0
        assert len(read_rows(out_dir / "history.csv")) == 1
        assert len(read_rows(out_dir / "trajectory.csv")) == 1
        meta = read_json(out_dir / "run.json")
        assert meta["status"] == "BudgetExhausted"
        assert meta["theorem_bound"] is None

    def test_two_identical_invocations_are_byte_identical(self, tmp_path):
        args = ("run", "--problem", "rosenbrock", "--eps-f", "1e-2",
                "--seed", "3", "--noise-seed", "7", "--budget", "60")
        a, b = tmp_path / "a", tmp_path / "b"
        assert call(*args, "--out", a) == 0
        assert call(*args, "--out", b) == 0
        for name in ("history.csv", "trajectory.csv", "run.json"):
            assert files_identical(a / name, b / name), name

    def test_master_seed_changes_the_history(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        call("run", "--eps-f", "1e-2", "--seed", "3", "--budget", "30", "--out", a)
        call("run", "--eps-f", "1e-2", "--seed", "4", "--budget", "30", "--out", b)
        assert not files_identical(a / "history.csv", b / "history.csv")

    def test_output_uses_unix_line_endings_and_leaves_no_temp_files(self, out_dir):
        call("run", "--budget", "10", "--out", out_dir)
        for name in ("history.csv", "trajectory.csv"):
            assert b"\r" not in (out_dir / name).read_bytes()
        assert list(out_dir.glob("*.tmp")) == []

    def test_config_file_fills_gaps_and_flags_win(self, tmp_path, out_dir):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("eps_f: 0.5\nbudget: 7\ntheta: 0.2\n")
        code = call("run", "--config", cfg, "--eps-f", "0.25", "--out", out_dir)
        assert code == 0
        params = read_json(out_dir / "run.json")["params"]
        assert params["eps_f"] == 0.25
        assert params["budget"] == 7
        assert params["theta"] == 0.2
        assert params["gamma"] == 0.5

    def test_out_dir_falls_back_to_the_environment(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("NOISYGS_OUT_DIR", str(env_dir))
        assert call("run", "--budget", "5") == 0
        assert (env_dir / "history.csv").exists()

    def test_out_dir_defaults_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NOISYGS_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert call("run", "--budget", "5") == 0
        assert (tmp_path / "history.csv").exists()

    def test_diverging_objective_exits_two(self, tmp_path, capsys):
        pieces = tmp_path / "down.txt"
        pieces.write_text("-1 0\n")
        code = call("run", "--problem", f"max_linear:{pieces}",
                    "--f-low", "-20", "--budget", "200",
                    "--out", tmp_path / "run")
        assert code == 2
        assert "status: ObjectiveDiverging" in capsys.readouterr().out

    def test_min_norm_breakdown_exits_three(self, out_dir, monkeypatch):
        def explode(*args, **kwargs):
            raise MinNormNonConvergence("stalled")

        monkeypatch.setattr("noisygs.solver.solve_min_norm", explode)
        assert call("run", "--budget", "50", "--out", out_dir) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_bundle_ends_in_qp_failure(self, tmp_path, out_dir, capsys):
        pieces = tmp_path / "huge.txt"
        pieces.write_text("1e308 0\n-1e308 0\n")
        assert call("run", "--problem", f"max_linear:{pieces}", "--eps-f", "1e-4",
                    "--out", out_dir) == 3
        assert "status: QPFailure" in capsys.readouterr().out
        assert read_json(out_dir / "run.json")["status"] == "QPFailure"
        assert (out_dir / "history.csv").exists()
        assert (out_dir / "trajectory.csv").exists()
        assert call("verify", out_dir) == 0
        # The Goldstein estimate's QP overflows too: a usage error, not a traceback.
        assert call("verify", out_dir, "--goldstein", "5") == 64
        assert "squared column norms overflow" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self):
        assert call("run", "--bogus", "1") == 64

    def test_unknown_problem_is_a_usage_error(self, capsys):
        assert call("run", "--problem", "nosuch") == 64
        assert "unknown problem" in capsys.readouterr().err

    def test_negative_noise_bound_is_a_usage_error(self):
        assert call("run", "--eps-f", "-0.1") == 64

    def test_missing_pieces_file_is_a_usage_error(self):
        assert call("run", "--problem", "max_linear:/no/such/file.txt") == 64

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("wat: 3\n")
        assert call("run", "--config", cfg) == 64
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_yaml_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("a: [1,\n")
        assert call("run", "--config", cfg) == 64

    def test_non_mapping_config_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "list.yaml"
        cfg.write_text("- 1\n- 2\n")
        assert call("run", "--config", cfg) == 64

    def test_eta_outside_its_interval_runs_with_the_warning(self, out_dir):
        assert call("run", "--eta", "0.6", "--budget", "5", "--out", out_dir) == 0
        warnings = read_json(out_dir / "run.json")["warnings"]
        assert any("eta = 0.6 lies outside (0, 1/2)" in w for w in warnings)

    @pytest.mark.parametrize("flag,value,text", [("--gamma", "1.0", "gamma must lie in"),
                                                 ("--lipschitz", "0", "lipschitz must be")])
    def test_bad_line_search_constant_is_a_usage_error(self, flag, value, text, out_dir,
                                                       capsys):
        assert call("run", flag, value, "--budget", "5", "--out", out_dir) == 64
        assert text in capsys.readouterr().err

    def test_a_fractional_config_integer_is_a_usage_error(self, tmp_path, out_dir, capsys):
        # The integer rule of --budget, which refuses 2.5, holds in the file too.
        cfg = tmp_path / "run.yaml"
        cfg.write_text("budget: 2.5\n")
        assert call("run", "--config", cfg, "--out", out_dir) == 64
        assert "bad value for 'budget': 2.5" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_an_auto_slack_that_overflows_is_a_usage_error(self, out_dir, capsys):
        # 2.1 * eps_f overflows to inf once eps_f passes about 8.6e307.
        assert call("run", "--eps-f", "1e308", "--budget", "2", "--out", out_dir) == 64
        assert "eps_ls must be positive and finite" in capsys.readouterr().err
        assert not (out_dir / "run.json").exists()


@pytest.fixture(scope="module")
def stationary_dir(tmp_path_factory):
    """A finished absolute-value run that terminates at the radius floor,
    with the objective's exact Lipschitz constant stated."""
    out = tmp_path_factory.mktemp("stationary")
    code = call("run", "--problem", "abs_composite", "--budget", "2000",
                "--lipschitz", "1", "--out", out)
    assert code == 0
    assert read_json(out / "run.json")["status"] == "Stationary"
    return out


SOLVER_OPTIONS = [["--seed"], ["--noise-seed"], ["--budget"], ["--eps-min"], ["--m"],
                  ["--theta"], ["--gamma"], ["--eta"], ["--nu"], ["--eps1"], ["--lipschitz"],
                  ["--strict-requires"], ["--f-low"], ["--out"]]

OPTION_STRINGS = {
    "run": [["-h", "--help"], ["--config"], ["--problem"], ["--eps-f"], ["--eps-g"],
            ["--eps-ls"], *SOLVER_OPTIONS],
    "sweep": [["-h", "--help"], *SOLVER_OPTIONS],
    "verify": [["-h", "--help"], ["--goldstein"], ["--goldstein-eps"]],
    "train": [["-h", "--help"], ["--config"], ["--mode"], ["--batch"], ["--eps-f"],
              ["--eps-ls-grid"], ["--num-points"], ["--num-features"], ["--separation"],
              ["--data-seed"], ["--hidden"], *SOLVER_OPTIONS],
}

SCHEMAS = {"run": cli.RUN_SCHEMA, "sweep": cli.SWEEP_SCHEMA, "train": cli.TRAIN_SCHEMA}


def subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestParser:
    def test_option_strings_in_order(self):
        for name, sub in subparsers().items():
            assert [a.option_strings for a in sub._actions if a.option_strings] == \
                OPTION_STRINGS[name], name

    def test_schema_keys_with_help_are_flags(self):
        subs = subparsers()
        for name, schema in SCHEMAS.items():
            dests = {a.dest for a in subs[name]._actions}
            for key, (_, _, text) in schema.items():
                assert (key in dests) == (text is not None), (name, key)

    def test_every_shown_default_comes_from_the_table(self):
        for name, sub in subparsers().items():
            schema = SCHEMAS.get(name, {})
            for action in sub._actions:
                default, convert, text = schema.get(action.dest, (None, None, action.help))
                assert "default" not in text, (name, action.dest)
                if default is None:
                    assert "(default" not in action.help, (name, action.dest)
                    continue
                assert action.help.startswith(text + " (default ") and action.help[-1] == ")"
                shown = action.help[len(text) + len(" (default "):-1]
                assert convert(shown) == convert(default), (name, action.dest, shown)

    # sha256 of each --help text at 80 columns, taken with Python 3.11.7;
    # argparse's layout differs between Python versions.
    HELP_DIGESTS = {
        "": "8cf9941deb4922aad2d8fcf2f5ff3b34fa2ed5923b87a1cb8308cce3f2bc0f71",
        "run": "1c0b9d8c5348e079bfdc379be9e7e8e5d9ed66267c14640205e35781dd86ee84",
        "sweep": "9212d9ff3853354b7988723191e75b316d8cd05c6354a25e430d88e992548383",
        "verify": "7f5824a8fbc52a0cd0dbef6807555f8c8265f5771c6bb905a7a8bcaa19a6813d",
        "train": "52077eb42e6237fb83f2e64146dd725381c45b2c48d09937a3c2603cc9ad1b8f",
    }

    @pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
    def test_help_text_matches_its_digest(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert call(*command.split(), "--help") == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.HELP_DIGESTS[command]


class TestVerify:
    def test_reports_estimate_and_witnessed_bound(self, stationary_dir, capsys):
        assert call("verify", stationary_dir) == 0
        out = capsys.readouterr().out
        assert "status: Stationary" in out
        iters = int(out.split("iterations: ")[1].split("\n")[0])
        assert iters == len(read_rows(stationary_dir / "history.csv")) - 1

        level = float(out.split("terminal radius level: ")[1].split("\n")[0])
        bound = float(out.split("terminal bound: ")[1].split("\n")[0])
        assert level > 0.0
        assert bound == pytest.approx(10.0 * level, rel=1e-12)
        assert "terminal bound met at k=" in out

    def test_goldstein_estimate_straddles_the_kink(self, stationary_dir, capsys):
        code = call("verify", stationary_dir, "--goldstein", "200",
                    "--goldstein-eps", "1.0")
        assert code == 0
        out = capsys.readouterr().out
        line = out.split("goldstein estimate: ")[1].split("\n")[0]
        assert float(line.split()[0]) <= 1e-6
        assert "(radius 1.0, 200 samples)" in line
        # The estimate is read against the terminal bound verify prints.
        bound = float(out.split("terminal bound: ")[1].split("\n")[0])
        assert float(line.split()[0]) <= bound

    def test_run_without_steps_has_no_estimate(self, tmp_path, capsys):
        out = tmp_path / "idle"
        call("run", "--budget", "0", "--out", out)
        assert call("verify", out) == 0
        text = capsys.readouterr().out
        assert "terminal bound: unavailable" in text
        assert "terminal bound not witnessed" in text

    def test_diverging_run_still_verifies(self, tmp_path, capsys):
        pieces = tmp_path / "down.txt"
        pieces.write_text("-1 0\n")
        run_dir = tmp_path / "run"
        call("run", "--problem", f"max_linear:{pieces}", "--f-low", "-20",
             "--budget", "200", "--out", run_dir)
        capsys.readouterr()
        assert call("verify", run_dir) == 0
        assert "status: ObjectiveDiverging" in capsys.readouterr().out

    def test_missing_run_json_exits_sixty_five(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert call("verify", empty) == 65
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("line,edit", [
        (0, lambda cells: ["wrong", "header"]),
        (1, lambda cells: cells[:-1]),
        (1, lambda cells: [cells[0], "wide", *cells[2:]]),
        (1, lambda cells: [*cells[:-1], "none"]),
    ], ids=["wrong_header", "row_one_field_short", "non_numeric_eps_k", "f_true_none"])
    def test_garbled_history_header_exits_sixty_five(self, line, edit, stationary_dir,
                                                     tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "run.json").write_bytes((stationary_dir / "run.json").read_bytes())
        lines = (stationary_dir / "history.csv").read_text().splitlines()
        lines[line] = ",".join(edit(lines[line].split(",")))
        (broken / "history.csv").write_text("\n".join(lines) + "\n")
        assert call("verify", broken) == 65
        assert "cannot parse" in capsys.readouterr().err

    def test_incomplete_run_json_exits_sixty_five(self, stationary_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "history.csv").write_bytes(
            (stationary_dir / "history.csv").read_bytes())
        (broken / "run.json").write_text('{"status": "Stationary", "params": {}}')
        assert call("verify", broken) == 65

    @pytest.mark.parametrize("key,value,text", [("gamma", 1.0, "gamma must lie in (0, 1)"),
                                                ("eps1", 0.0, "eps1 must be positive"),
                                                ("eps_ls", -1.0, "eps_ls must be positive")])
    def test_bad_parameter_in_run_json_is_reported_against_run_json(
            self, key, value, text, stationary_dir, tmp_path, capsys):
        edited = tmp_path / "edited"
        edited.mkdir()
        (edited / "history.csv").write_bytes((stationary_dir / "history.csv").read_bytes())
        meta = read_json(stationary_dir / "run.json")
        meta["params"][key] = value
        (edited / "run.json").write_text(json.dumps(meta))
        assert call("verify", edited) == 65
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited / 'run.json'} holds invalid run parameters: ")
        assert text in err
        assert "history.csv" not in err


def run_capturing(monkeypatch, *argv):
    """Run the CLI and return the RunResult its `run` subcommand computed."""
    captured = []
    real_run = cli.run

    def capture(*args, **kwargs):
        captured.append(real_run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(cli, "run", capture)
    assert call("run", *argv) == 0
    return captured[0]


def verify_lines(capsys, run_dir, *extra):
    capsys.readouterr()
    assert call("verify", run_dir, *extra) == 0
    return capsys.readouterr().out.splitlines()


class TestCertificate:
    """verify and the solver reach their verdict through the same check."""

    def test_rows_that_do_not_reduce_the_radius_witness_nothing(self, tmp_path, capsys):
        # Every row passes |g| <= (nu/theta) eps_k below the level, but none
        # shrank the radius (|g| = 50 > nu * eps_k = 10), so none is a witness.
        (tmp_path / "history.csv").write_text(
            "k,eps_k,norm_g_tilde,alpha,backtracks,f_tilde,f_true\n"
            + "".join(f"{k},10.0,50.0,0.5,1,{60.0 - 10.0 * k},\n" for k in range(1, 6)))
        (tmp_path / "run.json").write_text(json.dumps({
            "status": "BudgetExhausted",
            "params": {"eps_f": 1e-4, "eps_g": 1e-2, "eps_ls": 2.1e-4, "theta": 0.1,
                       "gamma": 0.5, "eta": 1e-10, "nu": 1.0, "lipschitz": 0.4,
                       "seed": 0}}))
        lines = verify_lines(capsys, tmp_path)
        bound = float(next(line for line in lines if line.startswith("terminal bound: "))[16:])
        assert bound == pytest.approx(2178.0, rel=1e-3)
        assert "terminal bound not witnessed" in lines
        assert not any(line.startswith("terminal bound met") for line in lines)

    @pytest.mark.parametrize("argv", [
        ("--eps-f", "1e-4", "--seed", "0", "--budget", "400"),
        ("--eps-f", "1e-2", "--eta", "0.1", "--lipschitz", "4300", "--seed", "0",
         "--budget", "400"),
        ("--eps-f", "1e-2", "--lipschitz", "5", "--seed", "3", "--budget", "300"),
        ("--problem", "abs_composite", "--eps-f", "1e-3", "--lipschitz", "1", "--seed", "1",
         "--budget", "300"),
    ])
    def test_verify_agrees_with_run_json(self, argv, tmp_path, capsys, monkeypatch):
        result = run_capturing(monkeypatch, *argv, "--out", tmp_path)
        meta = read_json(tmp_path / "run.json")
        cert = result.certificate
        assert meta["theorem_bound_met"] == (cert.witness is not None)
        assert meta["theorem_bound_vacuous"] == cert.vacuous
        assert meta["theorem_bound"] == (cert.bound if math.isfinite(cert.bound) else None)
        lines = verify_lines(capsys, tmp_path)
        shown = repr(cert.bound) if math.isfinite(cert.bound) else "unavailable"
        assert f"terminal bound: {shown}" in lines
        verdict = (f"terminal bound met at k={cert.witness}" if cert.witness is not None
                   else "terminal bound not witnessed")
        assert verdict in lines
        if cert.witness is not None:
            assert result.history[cert.witness - 1].radius_reduced

    # 338 is the largest secant slope along these rosenbrock runs, not a
    # Lipschitz bound for the region they sample (that takes 4300). Stated,
    # it gives the radius levels 2042 and 9.48 pinned below.
    def test_default_eta_makes_the_certificate_vacuous(self, tmp_path, capsys):
        call("run", "--eps-f", "1e-4", "--lipschitz", "338", "--seed", "0", "--budget", "400",
             "--out", tmp_path)
        meta = read_json(tmp_path / "run.json")
        assert meta["theorem_bound_met"] is True
        assert meta["theorem_bound_vacuous"] is True
        lines = verify_lines(capsys, tmp_path)
        vacuous = [line for line in lines if line.startswith("terminal bound vacuous: ")]
        assert len(vacuous) == 1
        level = float(vacuous[0].split("radius level ")[1].split(" >=")[0])
        assert level == pytest.approx(2042.0, rel=1e-3)
        assert vacuous[0].endswith(">= eps1 = 10.0")
        assert any(line.startswith("terminal bound met at k=") for line in lines)

    def test_large_eta_gives_a_real_certificate(self, tmp_path, capsys):
        call("run", "--eps-f", "1e-2", "--eta", "0.1", "--lipschitz", "338", "--seed", "0",
             "--noise-seed", "0", "--budget", "400", "--out", tmp_path)
        meta = read_json(tmp_path / "run.json")
        assert meta["theorem_bound_met"] is True
        assert meta["theorem_bound_vacuous"] is False
        lines = verify_lines(capsys, tmp_path)
        prefix = "terminal radius level: "
        level = float(next(line for line in lines if line.startswith(prefix))[len(prefix):])
        assert level == pytest.approx(9.48, rel=1e-3)
        assert "terminal bound met at k=2" in lines
        assert not any(line.startswith("terminal bound vacuous") for line in lines)

    def test_the_exact_constant_certifies_abs_composite(self, stationary_dir, capsys):
        # |x| has Lipschitz constant 1, so this level and witness hold.
        assert verify_lines(capsys, stationary_dir) == [
            "status: Stationary",
            "iterations: 9",
            "terminal radius level: 0.49324241486609405",
            "terminal bound: 4.932424148660941",
            "terminal bound met at k=4",
        ]


class TestSweep:
    def sweep_config(self, tmp_path, out_dir, extra=""):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("problem: rosenbrock\n"
                       "eps_f_levels: [0.1, 0.01]\n"
                       "repeats: 2\n"
                       "budget: 25\n"
                       f"out: {out_dir}\n" + extra)
        return cfg

    def test_grid_layout_and_cell_directories(self, tmp_path, out_dir, capsys):
        cfg = self.sweep_config(tmp_path, out_dir)
        assert call("sweep", cfg) == 0
        rows = read_rows(out_dir / "sweep.csv")
        assert rows[0] == ["eps_f", "seed", "final_f_true", "iters",
                           "total_f_evals", "status"]
        assert len(rows) == 5
        assert [r[0] for r in rows[1:]] == ["0.1", "0.1", "0.01", "0.01"]
        assert [r[1] for r in rows[1:]] == ["0", "1", "0", "1"]
        for row in rows[1:]:
            assert row[3] == "25"
            assert row[5] == "BudgetExhausted"
            float(row[2])

        for level in ("0.1", "0.01"):
            for seed in ("0", "1"):
                cell = out_dir / "runs" / f"eps_f_{level}_seed_{seed}"
                assert (cell / "history.csv").exists()
                assert (cell / "run.json").exists()

        assert f"wrote: {out_dir / 'sweep.csv'} (4 rows)" in capsys.readouterr().out

    def test_cells_record_the_level_noise_settings(self, tmp_path, out_dir):
        call("sweep", self.sweep_config(tmp_path, out_dir))
        params = read_json(out_dir / "runs" / "eps_f_0.01_seed_1" / "run.json")["params"]
        assert params["eps_f"] == 0.01
        assert params["eps_g"] == 0.1
        assert params["eps_ls"] == 2.1 * 0.01
        assert params["seed"] == 1

    def test_cells_share_the_run_slack_floor(self, tmp_path, out_dir):
        # 2.1 * 1e-13 lies below the auto slack's 1e-12 floor, as in `run`.
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(f"eps_f_levels: [1e-13]\nrepeats: 1\nbudget: 3\nout: {out_dir}\n")
        assert call("sweep", cfg) == 0
        params = read_json(out_dir / "runs" / "eps_f_1e-13_seed_0" / "run.json")["params"]
        assert params["eps_ls"] == 1e-12

    def test_flags_override_the_config_file(self, tmp_path, out_dir):
        cfg = self.sweep_config(tmp_path, out_dir)
        assert call("sweep", cfg, "--budget", "10") == 0
        rows = read_rows(out_dir / "sweep.csv")
        assert all(r[3] == "10" for r in rows[1:])

    def test_per_run_failures_become_error_rows(self, tmp_path, out_dir):
        cfg = self.sweep_config(tmp_path, out_dir, extra="eps1: 0.0\n")
        assert call("sweep", cfg) == 0
        rows = read_rows(out_dir / "sweep.csv")
        assert len(rows) == 5
        for row in rows[1:]:
            assert row[2] == ""
            assert row[5].startswith("error:")

    def test_a_level_whose_auto_slack_overflows_gets_an_error_row(self, tmp_path, out_dir):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(f"eps_f_levels: [1e-2, 1e308]\nrepeats: 1\nbudget: 3\nout: {out_dir}\n")
        assert call("sweep", cfg) == 0
        rows = read_rows(out_dir / "sweep.csv")
        assert rows[1][5] == "BudgetExhausted"
        assert rows[2][5] == "error: eps_ls must be positive and finite"
        assert not (out_dir / "runs" / "eps_f_1e+308_seed_0").exists()

    def test_empty_level_list_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("eps_f_levels: []\n")
        assert call("sweep", cfg) == 64

    def test_zero_repeats_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("repeats: 0\n")
        assert call("sweep", cfg) == 64

    def test_unreadable_config_is_a_usage_error(self, tmp_path):
        assert call("sweep", tmp_path / "missing.yaml") == 64

    @pytest.mark.parametrize("line,shown", [("repeats: 1.9", "'repeats': 1.9"),
                                            ("budget: yes", "'budget': True"),
                                            ("budget: 2.5", "'budget': 2.5")])
    def test_a_non_integer_count_is_a_usage_error(self, line, shown, tmp_path, out_dir,
                                                  capsys):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(f"eps_f_levels: [0.1]\n{line}\nout: {out_dir}\n")
        assert call("sweep", cfg) == 64
        assert f"bad value for {shown}" in capsys.readouterr().err
        assert not out_dir.exists()


class TestTrain:
    def test_fixed_mode_grid(self, out_dir, capsys):
        code = call("train", "--mode", "fixed", "--batch", "64",
                    "--eps-ls-grid", "0.01,1.0", "--budget", "12",
                    "--num-points", "256", "--num-features", "5",
                    "--seed", "0", "--out", out_dir)
        assert code == 0

        for arm in ("0.01", "1.0"):
            rows = read_rows(out_dir / f"train_eps_ls_{arm}.csv")
            assert rows[0] == ["k", "f_true", "grad_norm", "eps_f_k", "eps_g_k",
                               "f_true_ma8", "grad_norm_ma8", "eps_f_k_ma8",
                               "eps_g_k_ma8", "batch"]
            assert len(rows) == 13
            assert all(r[-1] == "64" for r in rows[1:])

        summary = read_rows(out_dir / "train_summary.csv")
        assert summary[0] == ["eps_ls", "final_accuracy", "final_f_true",
                              "iters", "status", "samples_total"]
        assert [r[0] for r in summary[1:]] == ["0.01", "1.0"]
        for row in summary[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert row[3] == "12"
            assert row[4] == "BudgetExhausted"
            assert row[5] == ""

        out = capsys.readouterr().out
        assert "eps_ls=0.01: status=BudgetExhausted" in out
        assert "eps_ls=1.0: status=BudgetExhausted" in out
        assert f"wrote: {out_dir / 'train_summary.csv'}" in out

    def test_adaptive_mode_tracks_sample_usage(self, out_dir):
        code = call("train", "--mode", "adaptive", "--eps-f", "0.05",
                    "--eps-ls-grid", "0.5", "--budget", "8",
                    "--num-points", "128", "--num-features", "4",
                    "--out", out_dir)
        assert code == 0
        rows = read_rows(out_dir / "train_eps_ls_0.5.csv")
        assert rows[0][-2:] == ["batch", "samples_cum"]
        cum = [int(r[-1]) for r in rows[1:]]
        assert cum == sorted(cum)
        for r in rows[1:]:
            assert 1 <= int(r[-2]) <= 128

        summary = read_rows(out_dir / "train_summary.csv")
        assert int(summary[1][5]) > 0

    def test_full_mode_uses_the_whole_dataset(self, out_dir):
        code = call("train", "--mode", "full", "--eps-ls-grid", "0.1",
                    "--budget", "5", "--num-points", "64",
                    "--num-features", "3", "--out", out_dir)
        assert code == 0
        rows = read_rows(out_dir / "train_eps_ls_0.1.csv")
        assert all(r[-1] == "64" for r in rows[1:])
        assert read_rows(out_dir / "train_summary.csv")[1][5] == ""

    def test_unknown_mode_is_a_usage_error(self, capsys):
        assert call("train", "--mode", "sideways") == 64
        assert "unknown mode" in capsys.readouterr().err

    def test_a_bad_batch_size_creates_no_out_dir(self, tmp_path, capsys):
        assert call("train", "--batch", "0", "--out", tmp_path / "sub") == 64
        assert "batch_size must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()

    def test_negative_error_target_is_a_usage_error(self):
        assert call("train", "--mode", "adaptive", "--eps-f", "-0.5") == 64

    def test_empty_grid_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "train.yaml"
        cfg.write_text("eps_ls_grid: []\n")
        assert call("train", "--config", cfg) == 64

    @pytest.mark.parametrize("flag,value,text", [("--gamma", "1.0", "gamma must lie in"),
                                                 ("--lipschitz", "0", "lipschitz must be"),
                                                 ("--eps-ls-grid", "inf", "eps_ls must be")])
    def test_bad_line_search_constant_is_a_usage_error(self, flag, value, text, out_dir,
                                                       capsys):
        assert call("train", flag, value, "--budget", "2", "--out", out_dir) == 64
        assert text in capsys.readouterr().err

    def test_a_bad_value_late_in_the_grid_trains_no_arm(self, out_dir, capsys):
        code = call("train", "--eps-ls-grid", "0.1,inf", "--num-points", "256",
                    "--budget", "2", "--out", out_dir)
        assert code == 64
        assert "eps_ls must be" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep", "verify", "train"])
def test_subcommand_help_runs_in_a_subprocess(command):
    result = subprocess.run([sys.executable, "-m", "noisygs.cli", command, "--help"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith(f"usage: noisygs {command}")


@pytest.mark.parametrize("command", ["run", "train", "sweep"])
def test_an_unwritable_output_location_is_a_usage_error(command, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = tmp_path / "sweep.yaml"
    config.write_text("eps_f_levels: [0.1]\nrepeats: 1\n")
    argv = ["sweep", str(config)] if command == "sweep" else [command]
    result = subprocess.run(
        [sys.executable, "-m", "noisygs.cli", *argv, "--budget", "1",
         "--out", str(blocker / "sub")], capture_output=True, text=True, timeout=60)
    assert result.returncode == 64
    assert "Not a directory" in result.stderr
    assert "Traceback" not in result.stderr


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "noisygs.cli", "run", "--problem",
         "abs_composite", "--budget", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("status:")
    assert (tmp_path / "history.csv").exists()
