"""Self-test of the benchmark at a small size on a fixed seed.

    python3 bench/selftest.py

Checks that every run prints every metric of BENCHMARK.json with its
unit, that the traced count metrics repeat exactly, that perturbing one
reference value makes the gate count exactly one failure, and that the
benchmark fails without printing a result when the program's source is
missing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
COUNTS = ("solver.iterations", "solver.lp_rows", "harmonic.dft_calls",
          "cli.bytes_written")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: list[dict], where: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{where}: not correct: {result}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} != BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} is not a number")


def check_runs(manifest: dict) -> None:
    for workload in [w["name"] for w in manifest["workloads"]]:
        check_result(result_of(run(workload, 0)), manifest["end_to_end"],
                     f"{workload} --trace 0")
        traced = [result_of(run(workload, 1)) for _ in range(2)]
        for result in traced:
            check_result(result, manifest["per_layer"], f"{workload} --trace 1")
        for name in COUNTS:
            a, b = (r["metrics"][name]["value"] for r in traced)
            if a != b:
                raise AssertionError(f"{workload}: count {name} differs: {a} != {b}")
        print(f"ok: {workload} prints every metric; counts repeat")


def check_gate() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import oracle
    import run as bench_run
    import workloads

    ops = workloads.build_ops("group-battery", SEED, True, BENCH / "_work")
    executions = [bench_run.execute(op)[0] for op in ops]
    refs = oracle.references(ops)
    if oracle.gate(executions, refs):
        raise AssertionError("gate fails the unperturbed run")
    target = ops[3].op_id
    refs[target] = [v * (1 + 1e-6) for v in refs[target]]
    failures = oracle.gate(executions, refs)
    if [op_id for op_id, _ in failures] != [target]:
        raise AssertionError(f"perturbed reference of {target} gave {failures}")
    print(f"ok: a perturbed reference fails exactly op {target}")


def check_bare_directory(manifest: dict) -> None:
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in manifest["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("_work", "_traces",
                                                          "__pycache__"))
        proc = run("group-battery", 0, cwd=bare)
        printed = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (printed and printed[-1].startswith("{")):
            raise AssertionError("benchmark ran without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate()
    import layers
    if [m["name"] for m in manifest["per_layer"]] != list(layers.INTERACTIONS):
        raise AssertionError("per_layer of BENCHMARK.json != layers.INTERACTIONS")
    check_runs(manifest)
    check_bare_directory(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
