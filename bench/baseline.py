"""Measure the benchmark's baseline and its spread between runs.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each seed, runs every workload of BENCHMARK.json once untraced,
seed by seed so that drift in host speed falls evenly on the workloads,
then one traced run per workload on the first seed.  Writes each
end-to-end metric's values, median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread, the
quartile distance as a share of the median, and the per-layer metrics of
the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(manifest: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*manifest["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(manifest["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    seeds = seed_list(args.seeds)

    values = {w: {m["name"]: [] for m in manifest["end_to_end"]} for w in workloads}
    counts = {w: {"attempted": 0, "failed": 0} for w in workloads}
    env = None
    for seed in seeds:
        for w in workloads:
            result, run_env = run(manifest, w, seed, 0)
            env = env or run_env
            counts[w]["attempted"] += result["attempted"]
            counts[w]["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    end_to_end = {}
    for w in workloads:
        end_to_end[w] = {}
        for name, vals in values[w].items():
            summary = summarize(vals)
            summary.update(unit=bounds[name]["unit"], bound=bounds[name]["bound"])
            end_to_end[w][name] = summary
            print(f"{w} {name}: median {summary['median']:.4g} "
                  f"spread {summary['spread']:.3f} (bound {summary['bound']})")

    per_layer = {}
    for w in workloads:
        result, _ = run(manifest, w, seeds[0], 1)
        per_layer[w] = result["metrics"]
    for per_run in ("workload", "seed", "seconds", "trace", "loadavg_start",
                    "loadavg_end"):
        env.pop(per_run, None)
    out = {"seeds": seeds, "run_seconds": manifest["run_seconds"], "env": env,
           "ops": counts, "end_to_end": end_to_end,
           "per_layer_seed": seeds[0], "per_layer": per_layer}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
