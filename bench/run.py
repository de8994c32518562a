"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload rosenbrock_sweep --seed 0 --seconds 48 --trace 0

Run from the repository root. The number of rounds is fixed before the
first timed operation from --seconds and the workload's nominal round
time, so a run's work never depends on how fast the host happens to be.
With --trace 0 the last line holds the end-to-end metrics; with --trace 1
rounds alternate untraced and traced, and it holds the per-layer metrics
of the traced rounds plus the tracing overhead.
"""

import os
import time


def since_process_start() -> float:
    """Seconds from the process's start to now (0 where /proc is absent).

    The kernel records the start rounded down to a clock tick (10 ms at
    100 Hz), so the figure is long by up to one tick."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


# Process start to here, then perf_counter from here on: each stretch once.
_STARTUP = since_process_start()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: BLAS/OpenMP pools are pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "noisygs" / "__init__.py").is_file():
        print(f"error: no noisygs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    import contextlib
    import resource
    import shutil
    import statistics
    import warnings

    from harness import Harness, Tracer, layer_metrics
    from workloads import WORKLOADS, op_digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # Every run of these configurations records admissibility warnings.
    warnings.filterwarnings("ignore", message="admissibility violations")
    warnings.filterwarnings("ignore", message="oracle is not deterministic")

    cls = WORKLOADS[args.workload]
    rounds = max(2, round(args.seconds / cls.nominal_round_s))
    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = cls(args.seed, work, rounds)
    workload.setup()
    harness = Harness()
    tracer = Tracer() if args.trace else None
    setup_s = _STARTUP + time.perf_counter() - _T0

    failures, failed_ops = [], set()
    round_s = {False: [], True: []}
    traced_records, all_records = [], []
    first_digests = None
    try:
        with harness.installed():
            for r in range(rounds):
                traced = tracer is not None and r % 2 == 1
                rdir = workload.round_dir(r)
                ops, records = [], []
                for op in workload.round_ops(r):
                    ops.append(op)
                    records.append(harness.execute(op.argv, tracer if traced else None))
                for i, rec in enumerate(records):
                    if rec.code != 0 or rec.error or rec.violations:
                        failed_ops.add((r, i))
                        failures.append(f"round {r} op {i} {rec.argv[:2]}: exit {rec.code} "
                                        f"{rec.error or ''}{'; '.join(rec.violations[:3])}")
                digests = [op_digest(op, rec.stdout, rdir) for op, rec in zip(ops, records)]
                if r == 0:
                    first_digests = digests
                    for f in workload.check(rdir, ops, records):
                        failed_ops.add((0, 0 if f.op is None else f.op))
                        failures.append(f"{f.check} (op {f.op}): {f.message}")
                else:
                    if len(digests) != len(first_digests):
                        failed_ops.add((r, 0))
                        failures.append(f"round {r} ran {len(digests)} operations")
                    for i, (a, b) in enumerate(zip(digests, first_digests)):
                        if a != b:
                            failed_ops.add((r, i))
                            failures.append(f"round {r} op {i}: output differs from round 0")
                    shutil.rmtree(rdir, ignore_errors=True)
                for rec in records:
                    rec.captures = []
                round_s[traced].append(sum(rec.seconds for rec in records))
                (traced_records if traced else all_records).extend(records)
                print(f"round {r}{' traced' if traced else ''}: "
                      f"{round_s[traced][-1]:.3f} s, {len(records)} operations", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = len(all_records) + len(traced_records)
    if tracer is None:
        iterations = sum(rec.iterations for rec in all_records)
        metrics = {
            "setup_s": (setup_s, "s"),
            "iters_per_s": (iterations / sum(rec.seconds for rec in all_records), "1/s"),
            "round_s": (statistics.median(round_s[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, traced_records, len(round_s[True]))
        metrics["trace.overhead_s"] = (
            statistics.median(round_s[True]) - statistics.median(round_s[False]), "s")
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        spans = {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                 for name, s in sorted(tracer.stats.items())}
        ops = [{"argv": rec.argv, "seconds": rec.seconds, "iterations": rec.iterations}
               for rec in traced_records]
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"spans": spans, "counts": dict(tracer.counts), "operations": ops},
                       indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
