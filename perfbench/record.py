"""Record a point of the benchmark trajectory: every workload run with seeds
1..10 untraced plus one traced run, summarised with machine information.

    python3 perfbench/record.py --label 7c5db7a

writes perfbench/BENCH_<label>.json.  For each end-to-end metric it gives the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is
the distance between the quartiles as a share of the median, and flags a
spread over the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def summarise(runs: list) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file, e.g. a commit id")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {"label": args.label, "machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        summary = summarise(runs)
        traced = bench(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": summary,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, m in summary.items():
            flag = "" if m["spread"] <= bounds[name] else "  OVER BOUND"
            print(f"{workload:16s} {name:16s} median {m['median']:12.5g} {m['unit']:3s} "
                  f"spread {m['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
