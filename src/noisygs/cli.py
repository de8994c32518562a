"""Command-line harness: single runs, noise-level sweeps, run verification,
and the network training demo.

Subcommands write plot-ready CSV files with LF endings and shortest
round-trip float formatting, so repeated runs with identical seeds produce
byte-identical output. Flags override config-file values, which override
defaults. The output root comes from --out, then the NOISYGS_OUT_DIR
environment variable, then the working directory.

Exit codes: 0 for Stationary or BudgetExhausted, 2 for ObjectiveDiverging,
3 for QPFailure, 64 for usage errors, 65 for malformed run directories.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np
import yaml

from .mldemo import (
    BatchOracleConfig,
    accuracy,
    adaptive_batch_eval,
    bce_loss_oracle,
    init_weights,
    synth_dataset,
)
from .oracle import NoiseBounds
from .problems import Problem, load_problem
from .solver import (
    IterateRecord,
    NoQualifyingStepsError,
    RunResult,
    RunStatus,
    SolverParams,
    certify,
    estimate_lipschitz,
    radius_reduced,
    resolve_eps_ls,
    resolve_m,
    run,
)
from .stationarity import estimate_goldstein

EXIT_OK = 0
EXIT_DIVERGING = 2
EXIT_QP_FAILURE = 3
EXIT_USAGE = 64
EXIT_BAD_RUN_DIR = 65

_STATUS_EXIT = {
    RunStatus.STATIONARY: EXIT_OK,
    RunStatus.BUDGET_EXHAUSTED: EXIT_OK,
    RunStatus.OBJECTIVE_DIVERGING: EXIT_DIVERGING,
    RunStatus.QP_FAILURE: EXIT_QP_FAILURE,
}

HISTORY_HEADER = ["k", "eps_k", "norm_g_tilde", "alpha", "backtracks", "f_tilde", "f_true"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int(v) -> int:
    out = int(str(v), 0) if isinstance(v, str) else int(v)
    return out


def _opt_int(v) -> Optional[int]:
    if v is None or (isinstance(v, str) and v.lower() in ("none", "")):
        return None
    return _int(v)


def _opt_float(v) -> Optional[float]:
    if v is None or (isinstance(v, str) and v.lower() in ("none", "")):
        return None
    return float(v)


def _float_or_auto(v):
    if isinstance(v, str) and v.strip().lower() == "auto":
        return "auto"
    return float(v)


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    text = str(v).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _float_list(v) -> list[float]:
    if isinstance(v, (list, tuple)):
        return [float(item) for item in v]
    return [float(piece) for piece in str(v).split(",") if piece.strip()]


def _opt_str(v) -> Optional[str]:
    return None if v is None else str(v)


# The SolverParams fields the CLI exposes, in flag order, with their help
# text. Defaults and converters come from SolverParams itself; the flags, the
# SolverParams call and the run.json params block are all built from here.
SOLVER_FLAGS = {
    "budget": "iteration cap",
    "eps_min": "radius floor that ends a run",
    "m": "sample points per iteration",
    "theta": "radius shrink factor",
    "gamma": "backtracking factor",
    "eta": "sufficient decrease coefficient",
    "nu": "stationarity test factor",
    "eps1": "initial sampling radius",
    "lipschitz": "Lipschitz bound for the step cutoff",
    "strict_requires": "refuse to run when admissibility conditions fail",
    "f_low": "divergence floor",
}

_DEFAULTS = SolverParams()
_CONVERTERS = {int: _int, float: float, bool: _bool,
               Optional[int]: _opt_int, Optional[float]: _opt_float}
_FIELD_TYPES = get_type_hints(SolverParams)

_SOLVER_KEYS = {
    "seed": (_DEFAULTS.master_seed, _int),
    "noise_seed": (0, _int),
    **{key: (getattr(_DEFAULTS, key), _CONVERTERS[_FIELD_TYPES[key]]) for key in SOLVER_FLAGS},
    "out": (None, _opt_str),
}

RUN_SCHEMA = {
    "problem": ("rosenbrock", str),
    "eps_f": (0.0, float),
    "eps_g": ("auto", _float_or_auto),
    "eps_ls": ("auto", _float_or_auto),
    **_SOLVER_KEYS,
}

SWEEP_SCHEMA = {
    "problem": ("rosenbrock", str),
    "eps_f_levels": ([1e-1, 1e-2, 1e-3, 1e-4], _float_list),
    "repeats": (10, _int),
    **{k: v for k, v in _SOLVER_KEYS.items() if k != "budget"},
    "budget": (3000, _int),
}

TRAIN_SCHEMA = {
    "mode": ("fixed", str),
    "batch": (128, _int),
    "eps_f": (0.05, float),
    "eps_ls_grid": ([1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0], _float_list),
    "num_points": (1024, _int),
    "num_features": (13, _int),
    "separation": (4.0, float),
    "data_seed": (5, _int),
    "hidden": (10, _int),
    **{k: v for k, v in _SOLVER_KEYS.items() if k not in ("budget", "m")},
    "budget": (2000, _int),
    "m": (10, _int),
}


def _load_config_file(path, parser: _Parser) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except yaml.YAMLError as exc:
        parser.error(f"cannot parse config file: {exc}")
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        parser.error("config file root must be a mapping")
    return {str(key).replace("-", "_"): value for key, value in loaded.items()}


def _merge_options(schema: dict, file_values: dict, ns: argparse.Namespace,
                   parser: _Parser) -> dict:
    merged = {key: default for key, (default, _) in schema.items()}
    for key, value in file_values.items():
        if key not in schema:
            parser.error(f"unknown config key {key!r}")
        merged[key] = value
    for key, value in vars(ns).items():
        if key in schema:
            merged[key] = value
    out = {}
    for key, (_, convert) in schema.items():
        try:
            out[key] = convert(merged[key])
        except (TypeError, ValueError):
            parser.error(f"bad value for {key!r}: {merged[key]!r}")
    return out


def _resolve_out(out_value: Optional[str]) -> Path:
    root = out_value or os.environ.get("NOISYGS_OUT_DIR") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list[str], rows) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    _write_text_atomic(path, buf.getvalue())


def _write_json(path: Path, payload) -> None:
    _write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _solver_params(opts: dict, eps_ls, bounds: NoiseBounds, master_seed: int) -> SolverParams:
    return SolverParams(bounds=bounds, eps_ls=eps_ls, master_seed=master_seed,
                        **{key: opts[key] for key in SOLVER_FLAGS})


def _run_payload(problem_name: str, dims: int, params: SolverParams, noise_seed: int,
                 result: RunResult) -> dict:
    cert = result.certificate
    return {
        "problem": problem_name,
        "dims": dims,
        "status": result.status.value,
        "final_x": [float(v) for v in result.final_x],
        "theorem_bound": cert.bound if math.isfinite(cert.bound) else None,
        "theorem_bound_met": cert.witness is not None,
        "theorem_bound_vacuous": cert.vacuous,
        "f_evals": int(result.f_evals),
        "g_evals": int(result.g_evals),
        "warnings": list(result.warnings),
        "params": {
            **{key: getattr(params, key) for key in SOLVER_FLAGS},
            "eps_f": params.bounds.eps_f,
            "eps_g": params.bounds.eps_g,
            "eps_ls": resolve_eps_ls(params.eps_ls, params.bounds.eps_f),
            "m": resolve_m(params.m, dims),
            "alpha_min": params.alpha_min,
            "seed": params.master_seed,
            "noise_seed": noise_seed,
        },
    }


def _history_rows(result: RunResult):
    for rec in result.history:
        yield [rec.k, rec.eps_k, rec.norm_g_tilde, rec.alpha, rec.backtracks,
               rec.f_tilde, rec.f_true]


def _run_and_write(problem_name: str, problem: Problem, params: SolverParams,
                   noise_seed: int, out: Path) -> RunResult:
    noisy = problem.make_noisy(params.bounds, noise_seed)
    result = run(noisy, problem.spec.default_start, params)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "history.csv", HISTORY_HEADER, _history_rows(result))
    n = problem.spec.dims
    if n <= 3:
        header = ["k"] + [f"x{i + 1}" for i in range(n)]
        rows = ([rec.k] + [float(v) for v in rec.x] for rec in result.history)
        _write_csv(out / "trajectory.csv", header, rows)
    _write_json(out / "run.json", _run_payload(problem_name, n, params, noise_seed, result))
    return result


def cmd_run(ns: argparse.Namespace, parser: _Parser) -> int:
    file_values = _load_config_file(ns.config, parser) if getattr(ns, "config", None) else {}
    opts = _merge_options(RUN_SCHEMA, file_values, ns, parser)
    try:
        problem = load_problem(opts["problem"])
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    eps_f = opts["eps_f"]
    eps_ls = None if opts["eps_ls"] == "auto" else opts["eps_ls"]
    try:
        NoiseBounds(eps_f=eps_f)  # reject a bad eps_f before it reaches sqrt
        eps_g = math.sqrt(eps_f) if opts["eps_g"] == "auto" else opts["eps_g"]
        bounds = NoiseBounds(eps_f=eps_f, eps_g=eps_g)
        params = _solver_params(opts, eps_ls, bounds, opts["seed"])
        out = _resolve_out(opts["out"])
        result = _run_and_write(opts["problem"], problem, params, opts["noise_seed"], out)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"status: {result.status.value}")
    print(f"iterations: {len(result.history)}")
    truth = problem.oracle.truth_access
    if truth is not None:
        print(f"final f_true: {_fmt_cell(float(truth.f(result.final_x)))}")
    print(f"wrote: {out / 'history.csv'}")
    if problem.spec.dims <= 3:
        print(f"wrote: {out / 'trajectory.csv'}")
    print(f"wrote: {out / 'run.json'}")
    return _STATUS_EXIT[result.status]


def cmd_sweep(ns: argparse.Namespace, parser: _Parser) -> int:
    file_values = _load_config_file(ns.config_path, parser)
    opts = _merge_options(SWEEP_SCHEMA, file_values, ns, parser)
    if opts["repeats"] < 1:
        parser.error("repeats must be at least 1")
    levels = opts["eps_f_levels"]
    if not levels or any(not (level > 0.0) for level in levels):
        parser.error("eps_f_levels must be a nonempty list of positive values")
    try:
        problem = load_problem(opts["problem"])
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    out = _resolve_out(opts["out"])
    runs_dir = out / "runs"
    truth = problem.oracle.truth_access
    rows = []
    for level in levels:
        for j in range(opts["repeats"]):
            master_seed = opts["seed"] + j
            noise_seed = opts["noise_seed"] + j
            cell_dir = runs_dir / f"eps_f_{repr(float(level))}_seed_{master_seed}"
            try:
                bounds = NoiseBounds(eps_f=level, eps_g=math.sqrt(level))
                params = _solver_params(opts, 2.1 * level, bounds, master_seed)
                result = _run_and_write(opts["problem"], problem, params, noise_seed, cell_dir)
                final_f = float(truth.f(result.final_x)) if truth is not None else None
                rows.append([float(level), master_seed, final_f,
                             len(result.history), result.f_evals, result.status.value])
            except Exception as exc:
                rows.append([float(level), master_seed, None, 0, 0, f"error: {exc}"])
    _write_csv(out / "sweep.csv", ["eps_f", "seed", "final_f_true", "iters",
                                   "total_f_evals", "status"], rows)
    print(f"wrote: {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _fail_run_dir(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_BAD_RUN_DIR


def _parse_history(path: Path, nu: float, eps_g: float) -> list[IterateRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != HISTORY_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        records = []
        for row in reader:
            if len(row) != len(HISTORY_HEADER):
                raise ValueError(f"row has {len(row)} fields, expected {len(HISTORY_HEADER)}")
            k = int(row[0])
            eps_k = float(row[1])
            norm_g = float(row[2])
            alpha = float(row[3])
            backtracks = int(row[4])
            f_tilde = float(row[5])
            f_true = float(row[6]) if row[6] != "" else None
            records.append(IterateRecord(
                k=k, eps_k=eps_k, norm_g_tilde=norm_g, alpha=alpha,
                backtracks=backtracks, f_tilde=f_tilde, f_true=f_true,
                radius_reduced=radius_reduced(norm_g, eps_k, nu, eps_g), x=None))
    return records


_REQUIRED_PARAM_KEYS = ("eps_f", "eps_g", "eps_ls", "theta", "gamma", "eta", "nu", "seed")


def cmd_verify(ns: argparse.Namespace, parser: _Parser) -> int:
    if not (ns.min_step > 0.0):
        parser.error("--min-step must be positive")
    run_dir = Path(ns.run_dir)
    meta_path = run_dir / "run.json"
    hist_path = run_dir / "history.csv"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_run_dir(f"cannot read {meta_path}: {exc}")
    params = meta.get("params")
    if not isinstance(params, dict) or any(key not in params for key in _REQUIRED_PARAM_KEYS):
        return _fail_run_dir(f"{meta_path} lacks the run parameters")
    try:
        lipschitz = params.get("lipschitz")
        run_params = SolverParams(
            bounds=NoiseBounds(eps_f=float(params["eps_f"]), eps_g=float(params["eps_g"])),
            theta=float(params["theta"]), gamma=float(params["gamma"]),
            eta=float(params["eta"]), nu=float(params["nu"]),
            eps1=float(params.get("eps1", _DEFAULTS.eps1)),
            lipschitz=float(lipschitz) if lipschitz is not None else None,
            lipschitz_min_step=ns.min_step)
        eps_ls = float(params["eps_ls"])
    except (ValueError, TypeError) as exc:
        return _fail_run_dir(f"{meta_path} holds invalid run parameters: {exc}")
    eps_g = run_params.bounds.eps_g
    try:
        records = _parse_history(hist_path, run_params.nu, eps_g)
    except (OSError, ValueError, TypeError) as exc:
        return _fail_run_dir(f"cannot parse {hist_path}: {exc}")
    cert = certify(records, run_params, eps_ls)
    # Without a given constant, certify has already estimated it.
    estimate = cert.lipschitz
    if run_params.lipschitz is not None:
        try:
            estimate = estimate_lipschitz(records, ns.min_step)
        except NoQualifyingStepsError:
            estimate = None
    print(f"status: {meta.get('status', 'unknown')}")
    print(f"iterations: {len(records)}")
    if estimate is None:
        print("estimated lipschitz: unavailable (no qualifying steps)")
    else:
        print(f"estimated lipschitz: {_fmt_cell(estimate)}")
    if math.isfinite(cert.bound):
        print(f"terminal radius level: {_fmt_cell(cert.level)}")
        print(f"terminal bound: {_fmt_cell(cert.bound)}")
    else:
        print("terminal bound: unavailable")
    if cert.witness is not None:
        print(f"terminal bound met at k={cert.witness}")
    else:
        print("terminal bound not witnessed")
    if cert.vacuous:
        print(f"terminal bound vacuous: radius level {_fmt_cell(cert.level)} "
              f">= eps1 = {_fmt_cell(run_params.eps1)}")
    if ns.goldstein is not None:
        problem_name = meta.get("problem")
        final_x = meta.get("final_x")
        if not isinstance(problem_name, str) or not isinstance(final_x, list):
            return _fail_run_dir(f"{meta_path} lacks problem or final_x")
        try:
            problem = load_problem(problem_name)
        except (ValueError, OSError) as exc:
            return _fail_run_dir(f"cannot rebuild problem {problem_name!r}: {exc}")
        eps = ns.goldstein_eps
        if eps is None:
            eps = records[-1].eps_k if records else run_params.eps1
        try:
            estimate = estimate_goldstein(problem.oracle, np.asarray(final_x, dtype=float),
                                          eps, ns.goldstein,
                                          master_seed=int(params["seed"]), stream_id=0)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"goldstein estimate: {_fmt_cell(estimate.value)} "
              f"(radius {_fmt_cell(float(eps))}, {ns.goldstein} samples)")
        floor = eps_g + max(eps_ls ** (1.0 / 3.0), eps_g)
        print(f"noise floor scale: {_fmt_cell(floor)}")
    return EXIT_OK


def _moving_average(values: list[float], window: int = 8) -> list[float]:
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def cmd_train(ns: argparse.Namespace, parser: _Parser) -> int:
    file_values = _load_config_file(ns.config, parser) if getattr(ns, "config", None) else {}
    opts = _merge_options(TRAIN_SCHEMA, file_values, ns, parser)
    if opts["mode"] not in ("full", "fixed", "adaptive"):
        parser.error(f"unknown mode {opts['mode']!r}")
    grid = opts["eps_ls_grid"]
    if not grid or any(not (value > 0.0) for value in grid):
        parser.error("eps_ls_grid must be a nonempty list of positive values")
    try:
        data = synth_dataset(opts["num_points"], opts["num_features"],
                             opts["separation"], opts["data_seed"])
    except ValueError as exc:
        parser.error(str(exc))
    hidden = opts["hidden"]
    w0 = init_weights(opts["num_features"], hidden, opts["seed"])
    out = _resolve_out(opts["out"])
    mode = opts["mode"]
    try:
        if mode == "adaptive":
            NoiseBounds(eps_f=opts["eps_f"])  # reject a bad eps_f before sqrt
            bounds = NoiseBounds(eps_f=opts["eps_f"], eps_g=math.sqrt(opts["eps_f"]))
        else:
            bounds = NoiseBounds()
    except ValueError as exc:
        parser.error(str(exc))
    # Every arm is built before the first one trains, so a bad value late in
    # the grid is a usage error with no CSV written.
    try:
        oracle_config = BatchOracleConfig(mode=mode, batch_size=opts["batch"],
                                          eps_f=opts["eps_f"],
                                          resample_seed=opts["noise_seed"])
        arms = [(eps_ls, bce_loss_oracle(data, oracle_config, hidden),
                 _solver_params(opts, eps_ls, bounds, opts["seed"])) for eps_ls in grid]
    except ValueError as exc:
        parser.error(str(exc))
    summary_rows = []
    worst = EXIT_OK
    for eps_ls, oracle, params in arms:
        truth = oracle.truth_access
        observed: dict[int, dict] = {}

        def observe(event, _truth=truth, _observed=observed, _meta=oracle.meta):
            g_true = np.asarray(_truth.g(event.x), dtype=float)
            entry = {
                "grad_norm": float(np.linalg.norm(event.g_center)),
                "eps_g_k": float(np.linalg.norm(event.g_center - g_true)),
            }
            if mode == "adaptive":
                entry["batch"] = adaptive_batch_eval(data, event.x, opts["eps_f"],
                                                     opts["noise_seed"], hidden)[2]
                entry["samples_cum"] = int(_meta["samples_total"])
            elif mode == "fixed":
                entry["batch"] = opts["batch"]
            else:
                entry["batch"] = data.features.shape[0]
            _observed[event.k] = entry

        result = run(oracle, w0, params, observer=observe)
        worst = max(worst, _STATUS_EXIT[result.status])
        ks, f_true, grad_norm, eps_f_k, eps_g_k, batch, samples = [], [], [], [], [], [], []
        for rec in result.history:
            entry = observed.get(rec.k, {})
            ks.append(rec.k)
            f_true.append(rec.f_true if rec.f_true is not None else math.nan)
            grad_norm.append(entry.get("grad_norm", math.nan))
            eps_f_k.append(abs(rec.f_tilde - rec.f_true) if rec.f_true is not None else math.nan)
            eps_g_k.append(entry.get("eps_g_k", math.nan))
            batch.append(entry.get("batch", 0))
            samples.append(entry.get("samples_cum", 0))
        header = ["k", "f_true", "grad_norm", "eps_f_k", "eps_g_k",
                  "f_true_ma8", "grad_norm_ma8", "eps_f_k_ma8", "eps_g_k_ma8", "batch"]
        columns = [ks, f_true, grad_norm, eps_f_k, eps_g_k,
                   _moving_average(f_true), _moving_average(grad_norm),
                   _moving_average(eps_f_k), _moving_average(eps_g_k), batch]
        if mode == "adaptive":
            header.append("samples_cum")
            columns.append(samples)
        metrics_path = out / f"train_eps_ls_{repr(float(eps_ls))}.csv"
        _write_csv(metrics_path, header, zip(*columns) if ks else [])
        final_acc = accuracy(data, result.final_x, hidden)
        final_f = float(truth.f(result.final_x))
        summary_rows.append([float(eps_ls), final_acc, final_f, len(result.history),
                             result.status.value,
                             int(oracle.meta["samples_total"]) if mode == "adaptive" else None])
        print(f"eps_ls={_fmt_cell(float(eps_ls))}: status={result.status.value} "
              f"accuracy={_fmt_cell(final_acc)} f_true={_fmt_cell(final_f)}")
        print(f"wrote: {metrics_path}")
    _write_csv(out / "train_summary.csv",
               ["eps_ls", "final_accuracy", "final_f_true", "iters", "status",
                "samples_total"], summary_rows)
    print(f"wrote: {out / 'train_summary.csv'}")
    return worst


def build_parser() -> _Parser:
    parser = _Parser(prog="noisygs",
                     description="Gradient sampling solver for nonsmooth objectives "
                                 "with bounded oracle noise.")
    subs = parser.add_subparsers(dest="command", required=True)
    sup = argparse.SUPPRESS

    run_p = subs.add_parser("run", help="solve one problem instance")
    run_p.add_argument("--config", help="YAML config file; flags override it")
    run_p.add_argument("--problem", default=sup, help="rosenbrock, abs_composite, or max_linear:<file>")
    run_p.add_argument("--eps-f", default=sup, help="value-noise bound (default 0)")
    run_p.add_argument("--eps-g", default=sup, help="gradient-noise bound or 'auto' (= sqrt(eps_f))")
    run_p.add_argument("--eps-ls", default=sup, help="line search slack or 'auto' (= 2.1 * eps_f)")
    run_p.set_defaults(func=cmd_run)

    sweep_p = subs.add_parser("sweep", help="run a noise-level grid from a config file")
    sweep_p.add_argument("config_path", help="YAML config: problem, eps_f_levels, repeats, ...")
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = subs.add_parser("verify", help="check a finished run directory")
    verify_p.add_argument("run_dir", help="directory holding history.csv and run.json")
    verify_p.add_argument("--min-step", type=float, default=1e-9,
                          help="shortest accepted step used for the Lipschitz estimate")
    verify_p.add_argument("--goldstein", type=int, default=None, metavar="N",
                          help="also estimate stationarity at final_x from N ball samples")
    verify_p.add_argument("--goldstein-eps", type=float, default=None,
                          help="ball radius for --goldstein (default: final eps_k)")
    verify_p.set_defaults(func=cmd_verify)

    train_p = subs.add_parser("train", help="train the demo network over an eps_ls grid")
    train_p.add_argument("--config", help="YAML config file; flags override it")
    train_p.add_argument("--mode", default=sup, help="full, fixed, or adaptive (default fixed)")
    train_p.add_argument("--batch", default=sup, help="fixed-mode batch size (default 128)")
    train_p.add_argument("--eps-f", default=sup, help="adaptive-mode error target (default 0.05)")
    train_p.add_argument("--eps-ls-grid", default=sup,
                         help="comma list of line search slacks (default 0.001,...,100)")
    train_p.add_argument("--num-points", default=sup, help="dataset size (default 1024)")
    train_p.add_argument("--num-features", default=sup, help="feature count (default 13)")
    train_p.add_argument("--separation", default=sup, help="class separation (default 4)")
    train_p.add_argument("--data-seed", default=sup, help="dataset seed (default 5)")
    train_p.add_argument("--hidden", default=sup, help="hidden layer width (default 10)")
    train_p.set_defaults(func=cmd_train)

    for sub in (run_p, sweep_p, train_p):
        sub.add_argument("--seed", default=sup, help="solver master seed")
        sub.add_argument("--noise-seed", default=sup, help="oracle noise seed")
        for key, text in SOLVER_FLAGS.items():
            flag = "--" + key.replace("_", "-")
            if _SOLVER_KEYS[key][1] is _bool:
                sub.add_argument(flag, action="store_true", default=sup, help=text)
            else:
                sub.add_argument(flag, default=sup, help=text)
        sub.add_argument("--out", default=sup, help="output directory")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    return ns.func(ns, parser)


if __name__ == "__main__":
    raise SystemExit(main())
