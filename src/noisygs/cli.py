"""Command-line harness: single runs, noise-level sweeps, run verification,
and the network training demo.

Subcommands write plot-ready CSV files with LF endings and shortest
round-trip float formatting, so repeated runs with identical seeds produce
byte-identical output. Flags override config-file values, which override
defaults. The output root comes from --out, then the NOISYGS_OUT_DIR
environment variable, then the working directory.

Exit codes: 0 for Stationary or BudgetExhausted, 2 for ObjectiveDiverging,
3 for QPFailure, 64 for usage errors, 65 for malformed run directories.
Commands raise, and main alone turns an error into code 64 or 65: a
ValueError, OSError or MinNormNonConvergence, such as a bad value or an
output location that cannot be written, is a usage error.
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
from typing import Optional, Sequence, get_type_hints

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
from .minnorm import MinNormNonConvergence
from .oracle import NoiseBounds
from .problems import Problem, load_problem
from .solver import (
    TRAJECTORY_MAX_DIMS,
    IterateRecord,
    RunResult,
    RunStatus,
    SolverParams,
    certify,
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

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _BadRunDir(Exception):
    """A run directory verify cannot read; main exits 65 with its message."""


def _int(v) -> int:
    # Through str, so a config value such as 2.5 or yes fails as the flag does.
    return int(str(v), 0)


def _optional(convert):
    """convert, with None, "none" and "" read as unset."""
    def parse(v):
        if v is None or (isinstance(v, str) and v.lower() in ("none", "")):
            return None
        return convert(v)
    return parse


def _float_or_auto(v) -> Optional[float]:
    # "auto" becomes None, which _noise_bounds and the solver resolve.
    if isinstance(v, str) and v.strip().lower() == "auto":
        return None
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


# history.csv's columns in order: the IterateRecord field each one writes and
# the converter _parse_history reads it back with. A blank f_true (a run with no
# truth) reads as None; any other cell that is not a number is an error.
HISTORY_COLUMNS = {"k": int, "eps_k": float, "norm_g_tilde": float, "alpha": float,
                   "backtracks": int, "f_tilde": float,
                   "f_true": lambda v: None if v == "" else float(v)}


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
               Optional[int]: _optional(_int), Optional[float]: _optional(float)}
_FIELD_TYPES = get_type_hints(SolverParams)

# Each subcommand's options as key -> (default, converter, help), in flag order.
# A key with help text is also a flag; one without is a config-file key only.
_SOLVER_KEYS = {
    "seed": (_DEFAULTS.master_seed, _int, "solver master seed"),
    "noise_seed": (0, _int, "oracle noise seed"),
    **{key: (getattr(_DEFAULTS, key), _CONVERTERS[_FIELD_TYPES[key]], text)
       for key, text in SOLVER_FLAGS.items()},
    "out": (None, _opt_str, "output directory"),
}

RUN_SCHEMA = {
    "problem": ("rosenbrock", str, "rosenbrock, abs_composite, or max_linear:<file>"),
    "eps_f": (0.0, float, "value-noise bound"),
    "eps_g": ("auto", _float_or_auto, "gradient-noise bound, or auto for sqrt(eps_f)"),
    "eps_ls": ("auto", _float_or_auto,
               "line search slack, or auto for max(2.1 * eps_f, 1e-12)"),
    **_SOLVER_KEYS,
}

SWEEP_SCHEMA = {
    "problem": (RUN_SCHEMA["problem"][0], str, None),
    "eps_f_levels": ([1e-1, 1e-2, 1e-3, 1e-4], _float_list, None),
    "repeats": (10, _int, None),
    **_SOLVER_KEYS,
    "budget": (3000, _int, SOLVER_FLAGS["budget"]),
}

TRAIN_SCHEMA = {
    "mode": ("fixed", str, "full, fixed, or adaptive"),
    "batch": (128, _int, "fixed-mode batch size"),
    "eps_f": (0.05, float, "adaptive-mode error target"),
    "eps_ls_grid": ([1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0], _float_list,
                    "comma list of line search slacks"),
    "num_points": (1024, _int, "dataset size"),
    "num_features": (13, _int, "feature count"),
    "separation": (4.0, float, "class separation"),
    "data_seed": (5, _int, "dataset seed"),
    "hidden": (10, _int, "hidden layer width"),
    **_SOLVER_KEYS,
    "budget": (2000, _int, SOLVER_FLAGS["budget"]),
    "m": (10, _int, SOLVER_FLAGS["m"]),
}


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"cannot parse config file: {exc}") from exc
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ValueError("config file root must be a mapping")
    return {str(key).replace("-", "_"): value for key, value in loaded.items()}


def _options(schema: dict, ns: argparse.Namespace) -> dict:
    """Schema defaults, overridden by the ns.config file, overridden by flags."""
    merged = {key: entry[0] for key, entry in schema.items()}
    file_values = _load_config_file(ns.config) if ns.config is not None else {}
    for key, value in file_values.items():
        if key not in schema:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = value
    merged.update((key, value) for key, value in vars(ns).items() if key in schema)
    out = {}
    for key, (_, convert, _) in schema.items():
        try:
            out[key] = convert(merged[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {key!r}: {merged[key]!r}") from exc
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


def _noise_bounds(eps_f: float, eps_g: Optional[float] = None) -> NoiseBounds:
    """Noise bounds with eps_g = sqrt(eps_f) unless eps_g is given."""
    NoiseBounds(eps_f=eps_f)  # reject a bad eps_f before it reaches sqrt
    return NoiseBounds(eps_f=eps_f, eps_g=math.sqrt(eps_f) if eps_g is None else eps_g)


def _solver_params(opts: dict, bounds: NoiseBounds, **extra) -> SolverParams:
    return SolverParams(bounds=bounds, **{key: opts[key] for key in SOLVER_FLAGS}, **extra)


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


def _run_and_write(problem_name: str, problem: Problem, params: SolverParams,
                   noise_seed: int, out: Path) -> RunResult:
    noisy = problem.make_noisy(params.bounds, noise_seed)
    result = run(noisy, problem.spec.default_start, params)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "history.csv", list(HISTORY_COLUMNS),
               ([getattr(rec, name) for name in HISTORY_COLUMNS] for rec in result.history))
    n = problem.oracle.dims
    if n <= TRAJECTORY_MAX_DIMS:
        header = ["k"] + [f"x{i + 1}" for i in range(n)]
        rows = ([rec.k] + [float(v) for v in rec.x] for rec in result.history)
        _write_csv(out / "trajectory.csv", header, rows)
    _write_json(out / "run.json", _run_payload(problem_name, n, params, noise_seed, result))
    return result


def cmd_run(ns: argparse.Namespace) -> int:
    opts = _options(RUN_SCHEMA, ns)
    problem = load_problem(opts["problem"])
    params = _solver_params(opts, _noise_bounds(opts["eps_f"], opts["eps_g"]),
                            eps_ls=opts["eps_ls"], master_seed=opts["seed"])
    out = _resolve_out(opts["out"])
    result = _run_and_write(opts["problem"], problem, params, opts["noise_seed"], out)
    print(f"status: {result.status.value}")
    print(f"iterations: {len(result.history)}")
    truth = problem.oracle.truth_access
    if truth is not None:
        print(f"final f_true: {_fmt_cell(float(truth.f(result.final_x)))}")
    print(f"wrote: {out / 'history.csv'}")
    if problem.oracle.dims <= TRAJECTORY_MAX_DIMS:
        print(f"wrote: {out / 'trajectory.csv'}")
    print(f"wrote: {out / 'run.json'}")
    return _STATUS_EXIT[result.status]


def cmd_sweep(ns: argparse.Namespace) -> int:
    opts = _options(SWEEP_SCHEMA, ns)
    if opts["repeats"] < 1:
        raise ValueError("repeats must be at least 1")
    levels = opts["eps_f_levels"]
    if not levels or any(not (level > 0.0) for level in levels):
        raise ValueError("eps_f_levels must be a nonempty list of positive values")
    problem = load_problem(opts["problem"])
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
                params = _solver_params(opts, _noise_bounds(level), master_seed=master_seed)
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


def _parse_history(path: Path, nu: float, eps_g: float) -> list[IterateRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(HISTORY_COLUMNS):
            raise ValueError(f"unexpected header {header!r}")
        records = []
        for row in reader:
            if len(row) != len(HISTORY_COLUMNS):
                raise ValueError(f"row has {len(row)} fields, expected {len(HISTORY_COLUMNS)}")
            cells = {name: convert(cell)
                     for (name, convert), cell in zip(HISTORY_COLUMNS.items(), row)}
            records.append(IterateRecord(**cells, radius_reduced=radius_reduced(
                cells["norm_g_tilde"], cells["eps_k"], nu, eps_g)))
    return records


_REQUIRED_PARAM_KEYS = ("eps_f", "eps_g", "eps_ls", "theta", "gamma", "eta", "nu", "seed")


def cmd_verify(ns: argparse.Namespace) -> int:
    run_dir = Path(ns.run_dir)
    meta_path = run_dir / "run.json"
    hist_path = run_dir / "history.csv"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _BadRunDir(f"cannot read {meta_path}: {exc}") from exc
    params = meta.get("params")
    if not isinstance(params, dict) or any(key not in params for key in _REQUIRED_PARAM_KEYS):
        raise _BadRunDir(f"{meta_path} lacks the run parameters")
    try:
        flags = {key: convert(params.get(key, default))
                 for key, (default, convert, _) in _SOLVER_KEYS.items() if key in SOLVER_FLAGS}
        eps_ls = float(params["eps_ls"])
        run_params = _solver_params(
            flags, NoiseBounds(eps_f=float(params["eps_f"]), eps_g=float(params["eps_g"])),
            eps_ls=eps_ls)
    except (ValueError, TypeError) as exc:
        raise _BadRunDir(f"{meta_path} holds invalid run parameters: {exc}") from exc
    eps_g = run_params.bounds.eps_g
    try:
        records = _parse_history(hist_path, run_params.nu, eps_g)
    except (OSError, ValueError, TypeError) as exc:
        raise _BadRunDir(f"cannot parse {hist_path}: {exc}") from exc
    cert = certify(records, run_params, eps_ls)
    print(f"status: {meta.get('status', 'unknown')}")
    print(f"iterations: {len(records)}")
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
            raise _BadRunDir(f"{meta_path} lacks problem or final_x")
        try:
            problem = load_problem(problem_name)
        except (ValueError, OSError) as exc:
            raise _BadRunDir(f"cannot rebuild problem {problem_name!r}: {exc}") from exc
        eps = ns.goldstein_eps
        if eps is None:
            eps = records[-1].eps_k if records else run_params.eps1
        estimate = estimate_goldstein(problem.oracle, np.asarray(final_x, dtype=float),
                                      eps, ns.goldstein,
                                      master_seed=int(params["seed"]))
        print(f"goldstein estimate: {_fmt_cell(estimate.value)} "
              f"(radius {_fmt_cell(float(eps))}, {ns.goldstein} samples)")
    return EXIT_OK


def _moving_average(values: Sequence[float], window: int = 8) -> list[float]:
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def cmd_train(ns: argparse.Namespace) -> int:
    opts = _options(TRAIN_SCHEMA, ns)
    oracle_config = BatchOracleConfig(mode=opts["mode"], batch_size=opts["batch"],
                                      eps_f=opts["eps_f"], resample_seed=opts["noise_seed"])
    grid = opts["eps_ls_grid"]
    if not grid or any(not (value > 0.0) for value in grid):
        raise ValueError("eps_ls_grid must be a nonempty list of positive values")
    data = synth_dataset(opts["num_points"], opts["num_features"],
                         opts["separation"], opts["data_seed"])
    hidden = opts["hidden"]
    w0 = init_weights(opts["num_features"], hidden, opts["seed"])
    out = _resolve_out(opts["out"])
    mode = opts["mode"]
    bounds = _noise_bounds(opts["eps_f"]) if mode == "adaptive" else NoiseBounds()
    # Every arm is built before the first one trains, so a bad value late in
    # the grid is a usage error with no CSV written.
    arms = [(eps_ls, bce_loss_oracle(data, oracle_config, hidden),
             _solver_params(opts, bounds, eps_ls=eps_ls, master_seed=opts["seed"]))
            for eps_ls in grid]
    batch = opts["batch"] if mode == "fixed" else data.features.shape[0]
    names = ["f_true", "grad_norm", "eps_f_k", "eps_g_k"]
    header = ["k", *names, *(name + "_ma8" for name in names), "batch"]
    if mode == "adaptive":
        header.append("samples_cum")
    summary_rows = []
    worst = EXIT_OK
    for eps_ls, oracle, params in arms:
        truth = oracle.truth_access
        # One metrics row per iteration: k, the four metrics (the header's
        # names), then batch, plus samples_cum when adaptive.
        rows: list[tuple] = []

        def observe(event, _truth=truth, _rows=rows, _meta=oracle.meta):
            rec = event.record
            g_true = np.asarray(_truth.g(event.x), dtype=float)
            row = (rec.k, rec.f_true, float(np.linalg.norm(event.g_center)),
                   abs(rec.f_tilde - rec.f_true),
                   float(np.linalg.norm(event.g_center - g_true)))
            if mode == "adaptive":
                row += (adaptive_batch_eval(data, event.x, opts["eps_f"],
                                            opts["noise_seed"], hidden)[2],
                        int(_meta["samples_total"]))
            else:
                row += (batch,)
            _rows.append(row)

        result = run(oracle, w0, params, observer=observe)
        worst = max(worst, _STATUS_EXIT[result.status])
        averages = zip(*map(_moving_average, zip(*(row[1:5] for row in rows))))
        metrics_path = out / f"train_eps_ls_{repr(float(eps_ls))}.csv"
        _write_csv(metrics_path, header,
                   ((*row[:5], *avg, *row[5:]) for row, avg in zip(rows, averages)))
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


def _add_flags(sub: argparse.ArgumentParser, schema: dict) -> None:
    """One flag per schema key with help text; _options applies the default."""
    for key, (default, convert, text) in schema.items():
        if text is None:
            continue
        if default is not None:
            shown = map(_fmt_cell, default if isinstance(default, list) else [default])
            text = f"{text} (default {','.join(shown)})"
        sub.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS, help=text,
                         **({"action": "store_true"} if convert is _bool else {}))


def build_parser() -> _Parser:
    parser = _Parser(prog="noisygs",
                     description="Gradient sampling solver for nonsmooth objectives "
                                 "with bounded oracle noise.")
    subs = parser.add_subparsers(dest="command", required=True)
    config_help = "YAML config file; flags override it"

    run_p = subs.add_parser("run", help="solve one problem instance")
    run_p.add_argument("--config", help=config_help)
    _add_flags(run_p, RUN_SCHEMA)
    run_p.set_defaults(func=cmd_run)

    sweep_p = subs.add_parser("sweep", help="run a noise-level grid from a config file")
    sweep_p.add_argument("config", metavar="config_path",
                         help="YAML config: problem, eps_f_levels, repeats, ...")
    _add_flags(sweep_p, SWEEP_SCHEMA)
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = subs.add_parser("verify", help="check a finished run directory")
    verify_p.add_argument("run_dir", help="directory holding history.csv and run.json")
    verify_p.add_argument("--goldstein", type=int, default=None, metavar="N",
                          help="also estimate stationarity at final_x from N ball samples")
    verify_p.add_argument("--goldstein-eps", type=float, default=None,
                          help="ball radius for --goldstein; omitted, the final eps_k")
    verify_p.set_defaults(func=cmd_verify)

    train_p = subs.add_parser("train", help="train the demo network over an eps_ls grid")
    train_p.add_argument("--config", help=config_help)
    _add_flags(train_p, TRAIN_SCHEMA)
    train_p.set_defaults(func=cmd_train)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except _BadRunDir as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_RUN_DIR
    except (ValueError, OSError, MinNormNonConvergence) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
