"""Benchmark of the siftmasks workbench: lifecycle, serve-delete and cli.

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, and scratch files go to ``.bench_build/perfbench``
there. Without ``--workload`` all three workloads run one after another.

Output: one ``{"detail": ...}`` line per workload with the environment, the
request-stream hash, the checkpoint-bytes hash, latency percentiles and,
with ``--trace 1``, the full span table; then the result line with exactly
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the ``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1``
its ``per_layer`` metrics, from a separate run whose spans wrap calls into
each layer (see spans.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("lifecycle", "serve-delete", "cli")
# end-to-end units whose values scale with machine speed: time, and its inverse
SPEED_POWER = {"s": 1, "ms": 1, "us": 1, "1/s": -1}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the usable cores; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def import_program() -> None:
    """Import siftmasks from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import siftmasks

    found = Path(siftmasks.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise ImportError(f"siftmasks was imported from {found}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies")
    except TypeError:  # numpy < 1.25 can only print its config
        blas = None
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "seed": seed,
        "python": sys.version,
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values) if values else None}
    ordered = sorted(values)
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1 - q / 100) >= 10:
            cut = statistics.quantiles(ordered, n=1000, method="inclusive")
            out[f"p{q:g}"] = cut[round(q * 10) - 1]
            break
    return out


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def execute(name: str, seed: int, seconds: float, trace: bool, size=None) -> tuple[dict, dict]:
    """Run one workload; returns (detail, result). ``size`` defaults to full size."""
    import workloads  # imports the program, so only after import_program()

    size = size or workloads.SIZES[name]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    run = workloads.Run(name, seed, size, workdir)
    # CLI commands in their own processes probe themselves (see probe.py)
    in_children = name == "cli" and not trace
    try:
        with contextlib.nullcontext() if in_children else run.probe.running():
            return _measure(run, name, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(run, name: str, seconds: float, trace: bool) -> tuple[dict, dict]:
    import spans
    import workloads

    if name == "cli":
        workload = workloads.Cli(run, SRC, in_process=trace)
    else:
        workload = workloads.WORKLOADS[name](run)
    tracer = spans.Tracer() if trace else None
    cpu_start = _cpu_s()
    run.recording = True
    run.start_clock(seconds)
    with contextlib.ExitStack() as stack:
        if tracer:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span("bench"))
        while True:
            workload.one_pass()
            run.recording = False
            if not run.time_left():
                break
    cpu_s = _cpu_s() - cpu_start
    workload.final_checks()
    raw = {k: statistics.median(v for v, _, _ in s) for k, s in run.values.items() if s}
    raw["peak_rss_mb"] = _peak_rss_mb(children=name == "cli" and not trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {"peak_rss_mb": raw["peak_rss_mb"]}
    for m in declared["end_to_end"]:
        power = SPEED_POWER.get(m["unit"], 0)
        if power and run.values[m["name"]]:
            e2e[m["name"]] = statistics.median(
                v * run.probe.factor(t0, t1) ** power for v, t0, t1 in run.values[m["name"]])
    detail = {
        "workload": name,
        "size": run.size.name,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(run.seed),
        "ops_sha256": run.ops_sha256,
        "checkpoints_sha256": run.checkpoints.hexdigest(),
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "speed": {"probes": len(run.probe.samples),
                  "probe_mean_s": statistics.fmean(d for _, d in run.probe.samples)},
        "latency_s": {k: _summary(v) for k, v in sorted(run.samples.items())},
        "samples": {k: len(v) for k, v in sorted(run.values.items())},
    }
    if tracer:
        detail["layers"] = spans.layer_metrics(
            tracer, workloads.METHODS, cpu_s, getattr(workload, "import_s", 0.0))
        detail["spans"] = tracer.table()
        detail["trace_wall_s"] = tracer.seconds("bench")
        detail["trace_self_sum_s"] = sum(s["self_s"] for s in detail["spans"].values())
        # gate: an untraced replay of the first pass writes the same bytes
        traced = run.checkpoints.hexdigest()
        run.checkpoints = hashlib.sha256()
        run.recording = True
        run.start_clock(math.inf)
        workload.restart()
        workload.one_pass()
        run.check("trace_gate", None if run.checkpoints.hexdigest() == traced
                  else "traced and untraced passes wrote different checkpoints")
    detail["failed_frac"] = run.failed / run.attempted
    detail["failures"] = run.failures
    values = detail["layers"] if tracer else e2e
    wanted = declared["per_layer" if trace else "end_to_end"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cap_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    for name in names:
        start = time.perf_counter()
        detail, result = execute(name, args.seed, args.seconds, bool(args.trace))
        detail["run_wall_s"] = time.perf_counter() - start
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
