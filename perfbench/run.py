"""Benchmark for fastblocks: one workload per process, metrics on stdout.

    python3 perfbench/run.py --workload train_demo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones (see README.md). The last line of
stdout is one JSON object: correct, attempted, failed and metrics. The exit
code is 0 only when every output check passed. Files go to `.perfbench-out/`
at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("train_demo", "infer_640_yolov5s", "infer_640_improved", "map_eval")
SETUP_REPEATS = 3
# One caller, one BLAS thread. On a 2-vCPU VM, two BLAS threads made the
# 640 x 640 forward about 15% faster but its run medians about twice as
# spread: each BLAS call then waits for a second vCPU that other tenants share.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def git_commit() -> str | None:
    """HEAD of the checkout; None when git is missing or ROOT is no repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False,
            # never report the commit of a repository that merely encloses ROOT
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(samples: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "samples": samples,
    }


def measure(workload, seconds: float, tracer=None):
    """Closed loop for `seconds`: returns (op times, attempted, failure messages)."""
    times, failures, attempted = [], [], 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = workload.op()
                elapsed = time.perf_counter() - start
            else:
                with tracer.root("op"):
                    start = time.perf_counter()
                    result = workload.op()
                    elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed operation is counted; the loop goes on
            failures.append(f"{workload.unit_of_work} {attempted}: {type(exc).__name__}: {exc}")
            continue
        error = workload.check(result)
        if error:
            failures.append(f"{workload.unit_of_work} {attempted}: {error}")
        else:
            times.append(elapsed)
    return times, attempted, failures


def traced_run(cls, args, reference, plain: list[float]):
    """A traced set-up, then half the run time traced; `plain` holds the op
    times of the untraced half, for the tracing overhead.

    Returns (traced workload, traced op times, attempted, failures, run
    errors, per-layer values).
    """
    from spans import Tracer, layer_metrics
    from workloads import OUT

    tracer = Tracer()
    restore = tracer.install()
    try:
        with tracer.root("setup"):
            workload = cls(args.seed, reference)
            workload.setup(tracer)
        times, attempted, failures = measure(workload, args.seconds / 2, tracer)
    finally:
        restore()
    run_errors = workload.finish()
    summary = tracer.summary()
    values = layer_metrics(summary, tracer.iou_calls, tracer.iou_unique_pairs)
    values["layers.retained_mb"] = 0.0
    if hasattr(workload, "model"):
        run_errors += workload.row_check(summary["rows"])
        values["layers.retained_mb"] = workload.retained_mb()
    if plain and times:
        values["trace.overhead_pct"] = 100.0 * (statistics.median(times) - statistics.median(plain)) / statistics.median(plain)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "summary": summary, "metrics": values})

    print(f"  trace: {path}  ({len(tracer.spans)} spans over {summary['ops']} traced ops)")
    print(f"  trace.overhead_pct = {values.get('trace.overhead_pct', float('nan')):.1f} %")
    print(f"  layers.retained_mb = {values['layers.retained_mb']:.1f} MB")
    top = sorted(summary["functions"].items(), key=lambda item: -item[1]["self_s"])[:12]
    n = max(summary["ops"], 1)
    for fname, e in top:
        rate = f"{e['macs'] / e['total_s'] / 1e9:6.2f} GMAC/s" if e["macs"] and e["total_s"] else ""
        print(f"  {fname:36s} {e['calls'] / n:8.1f} calls  self {e['self_s'] / n:8.4f} s"
              f"  {100 * e['self_s'] / summary['op_total_s']:5.1f} %  {rate}")
    return workload, times, attempted, failures, run_errors, values


def pin_blas() -> None:
    """Pin BLAS threads and load numpy, which reads them once, when it loads BLAS."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import numpy  # noqa: F401


def import_package() -> None:
    """Import fastblocks from src/, dropping any copy already loaded, so that
    every timed set-up pays for the package import as the first one does."""
    for name in [n for n in sys.modules if n == "fastblocks" or n.startswith("fastblocks.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import fastblocks
    except ImportError as exc:
        raise ImportError(f"cannot import fastblocks from {src}: {exc}") from None
    if Path(fastblocks.__file__).resolve().parent != (src / "fastblocks").resolve():
        raise ImportError(f"imported fastblocks from {fastblocks.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_blas()
    from stats import tail
    from workloads import OUT, WORKLOADS, load_reference

    cls = WORKLOADS[args.workload]
    reference = load_reference()
    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        workload = None  # free the previous set-up's model before building the next
        start = time.perf_counter()
        try:
            import_package()
        except ImportError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        workload = cls(args.seed, reference)
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}", flush=True)

    if args.trace:
        plain, attempted, failures = measure(workload, args.seconds / 2)
        run_errors = workload.finish()
        workload = None  # free the untraced model before the traced set-up
        workload, times, traced_attempted, traced_failures, traced_errors, values = traced_run(cls, args, reference, plain)
        attempted += traced_attempted
        failures += traced_failures
        run_errors += traced_errors
    else:
        times, attempted, failures = measure(workload, args.seconds)
        run_errors, values = workload.finish(), {}

    name = workload.metric
    samples = {"setup": len(setup_times), "ops": len(times)}
    picked = None
    if times:
        values["op_s.p50"] = values[f"{name}.p50"] = statistics.median(times)
        picked = tail(times)
        if picked:
            values[f"{name}.tail"] = picked[1]
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    section = "per_layer" if args.trace else "end_to_end"
    run_errors += [f"metric {m['name']} was not measured" for m in spec[section] if m["name"] not in values]
    failed = min(attempted, len(failures) + len(run_errors))
    values["error_rate"] = failed / attempted
    correct = failed == 0 and bool(times)

    if times:
        print(f"  {name}.p50 = {values[name + '.p50']:.4f} s  (median of n={len(times)}, one sample = one {workload.unit_of_work})")
        if picked:
            print(f"  {name}.tail = {picked[1]:.4f} s  (p{picked[0]} of n={len(times)})")
    print(f"  setup_s = {values['setup_s']:.4f} s  (median of {len(setup_times)} set-ups, each from a fresh import)")
    print(f"  peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    print(f"  error_rate = {values['error_rate']:g}  ({failed} of {attempted} failed)")
    for message in failures + run_errors:
        print(f"  FAILED: {message}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input": workload.input_record(),
        "environment": environment(samples),
        "values": values,
        "op_times_s": times,
        "setup_times_s": setup_times,
        "failures": failures + run_errors,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("record: " + json.dumps({k: record[k] for k in ("input", "environment")}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section] if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
