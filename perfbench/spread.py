"""Spread of the end-to-end metrics over repeated runs, one seed per run.

    python3 perfbench/spread.py --workloads count stream --runs 10 [--out FILE]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints each metric's median, quartiles and interquartile distance as a share
of the median next to the bound BENCHMARK.json fixes for it.  Then it makes
one traced run per workload, on the first seed.  With --out it also writes
those figures, the raw values, the traced run's per-layer metrics and the
machine as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} requests failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.machine()},
        "runs": args.runs, "seconds": bench["run_seconds"], "workloads": {},
    }
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
        per_metric = {}
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}", flush=True)
        for name in runs[0]:
            values = [r[name] for r in runs]
            fig = spread(values)
            fig["values"] = values
            per_metric[name] = fig
            print(f"  {name:12s} median {fig['median']:<12.6g} q1 {fig['q1']:<12.6g} "
                  f"q3 {fig['q3']:<12.6g} spread {fig['iqr_share']:.4f} bound {bounds[name]}",
                  flush=True)
        traced = run_once(workload, args.first_seed, bench["run_seconds"], trace=1)
        report["workloads"][workload] = {"end_to_end": per_metric, "per_layer": traced}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
