#!/usr/bin/env python3
"""Measure a baseline: every workload on several seeds, plus one traced run
each on the first seed.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs the command in BENCHMARK.json from the repository root, exactly as a
benchmark run is made, and records per metric the median, the quartiles and
their distance as a share of the median (the spread), next to the machine
it ran on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

from measure import machine_info

ROOT = Path(__file__).resolve().parent.parent


def run(command, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    print(workload, seed, trace, json.dumps(result), flush=True)
    return info, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1-10", help="first-last seed, inclusive")
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    out = {"label": args.label, "machine": {**machine_info(), "cpu_model": cpu_model()},
           "run_seconds": spec["run_seconds"], "seeds": [first, last], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(spec["command"], workload, seed, spec["run_seconds"], 0)
                for seed in range(first, last + 1)]
        traced_info, traced = run(spec["command"], workload, first, spec["run_seconds"], 1)
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "tail_notes": sorted({i["note"] for i, _ in runs}),
            "ref_kernel_s": spread([i["host.ref_kernel_s"] for i, _ in runs]),
            "end_to_end": {m["name"]: spread([r["metrics"][m["name"]]["value"] for _, r in runs])
                           for m in spec["end_to_end"]},
            "per_layer": {"seed": first, "note": traced_info["note"],
                          **{k: v["value"] for k, v in traced["metrics"].items()}},
        }
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
