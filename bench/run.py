"""delsarte benchmark: one workload per fresh process, closed loop.

    python3 bench/run.py --workload torus-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each

The load generator is this one process and thread: each op starts when
the previous one returns.  A run repeats the workload's fixed op list
(one pass) while another pass fits in ``--seconds``; there is always at
least one pass, and a traced run makes exactly one.  ``wall_s`` is the
time of the op list with each op at its median over the passes, which
damps the host-speed swings of a shared machine.  After timing, every
op execution is checked against an independent HiGHS reference (see
oracle.py).  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``).  ``op_p50_ms``, ``op_p99_ms`` and
``failed_frac`` are printed on the lines before it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("torus-grid", "group-battery", "exact-certify")
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170


@dataclass
class Execution:
    op: object
    seconds: float
    outcome: object = None
    error: str | None = None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="small: tiny op lists for the self-test")
    return p.parse_args(argv)


def require_source() -> None:
    """Import delsarte from this checkout's src/, never from elsewhere."""
    if not (SRC / "delsarte" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'delsarte'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import delsarte
    if Path(delsarte.__file__).resolve().parent != (SRC / "delsarte").resolve():
        sys.exit(f"error: imported delsarte from {delsarte.__file__}, not {SRC}")


# -- environment ----------------------------------------------------------------


def blas_threads() -> int | None:
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git not available)"
    return out.stdout.strip() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_start": loadavg(),
    }


# -- measurement ----------------------------------------------------------------


def setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import delsarte, build the
    workload's inputs and make one warm-up solve."""
    code = ("import sys; from pathlib import Path; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import workloads; "
            f"workloads.setup({args.workload!r}, {args.seed}, "
            f"{args.scale == 'small'}, Path({str(BENCH / '_work')!r}))")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
        samples.append(time.perf_counter() - start)
    return samples


def execute(op, tracer=None) -> tuple[Execution, object]:
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.span("op", op.op_id) as span:
                span["kind"] = op.kind
                result = op.run()
    except Exception as exc:  # an op that raises is a counted failure
        return Execution(op, time.perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}"), None
    seconds = time.perf_counter() - start
    try:
        outcome = op.outcome(result)
    except Exception as exc:  # so are unreadable artifacts
        return Execution(op, seconds, error=f"reading result: {exc!r}"), None
    return Execution(op, seconds, outcome=outcome), result


def run_passes(ops, budget: float) -> tuple[list[Execution], int]:
    executions, passes = [], 0
    started = time.perf_counter()
    while True:
        executions.extend(execute(op)[0] for op in ops)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes > budget:
            return executions, passes


def list_seconds(executions) -> float:
    """Time of the fixed op list: each op at its median over the passes."""
    by_op: dict[str, list[float]] = {}
    for ex in executions:
        by_op.setdefault(ex.op.op_id, []).append(ex.seconds)
    return sum(statistics.median(v) for v in by_op.values())


def run_traced(ops, work: Path):
    import layers
    tracer = layers.Tracer(work)
    executions = []
    started = time.perf_counter()
    for op in ops:
        ex, result = execute(op, tracer)
        executions.append(ex)
        if ex.error is not None:
            if "SimplexError" in ex.error:
                tracer.counts["simplex_errors"] += 1
            continue
        layers.retime(tracer, op, result, ex.seconds)
    pass_wall = time.perf_counter() - started
    op_spans = sum(ex.seconds for ex in executions)
    return executions, tracer, layers.per_layer_metrics(tracer, op_spans, pass_wall)


def p99_rank(n: int) -> int:
    """1-based nearest rank of the 99th percentile of n samples."""
    return max(1, math.ceil(0.99 * n))


# -- one workload ---------------------------------------------------------------


def run_workload(args) -> int:
    require_source()
    env = environment(args)
    setup = setup_seconds(args) if args.trace == 0 else []
    sys.path.insert(0, str(BENCH))
    import workloads
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.setup(args.workload, args.seed, args.scale == "small", work)
        if args.trace:
            executions, tracer, metrics = run_traced(ops, work)
            passes = 1
        else:
            executions, passes = run_passes(ops, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        import oracle
        failures = oracle.gate(executions, oracle.references(ops))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = loadavg()

    latencies = sorted(ex.seconds for ex in executions)
    attempted, failed = len(executions), len(failures)
    print(f"workload {args.workload} seed {args.seed}: {passes} pass(es) of "
          f"{len(ops)} ops, {attempted} op executions")
    print("env " + json.dumps(env, sort_keys=True))
    for op_id, reason in failures:
        print(f"FAILED op {op_id}: {reason}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"op_p50_ms {1000 * statistics.median(latencies):.6g} ms (n={attempted})")
    if attempted >= 1000:
        rank = p99_rank(attempted)
        print(f"op_p99_ms {1000 * latencies[rank - 1]:.6g} ms "
              f"(n={attempted}, {attempted - rank} beyond)")
    else:
        print(f"op_p99_ms not reported: {attempted} ops < 1000")

    if args.trace:
        units = {m["name"]: m["unit"] for m in load_manifest()["per_layer"]}
        trace_dir = BENCH / "_traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps({"env": env, "spans": tracer.spans,
                                    "metrics": metrics}) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        units = {m["name"]: m["unit"] for m in load_manifest()["end_to_end"]}
        metrics = {
            "wall_s": list_seconds(executions),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
        }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> int:
    """Each workload in its own fresh process; metrics keyed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
