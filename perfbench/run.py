"""copa's benchmark.

    python3 perfbench/run.py --workload {verify,count,refined,stream} \
        --seed N --seconds S --trace {0,1}

Run from a checkout's root; the benchmark imports copa from ./src and fails
if it is not there.  The seeded request list (gen.py) is handed, one session
at a time, to a fresh worker process (worker.py), which times every request
as a closed loop with one caller and checks every answer against
perfbench/expected.json once the request's timer has stopped.  The last line of stdout is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Every time is reported in reference seconds: scaled to one fixed host speed,
measured with a fixed kernel while the run goes (hostspeed.py), because this
kind of shared host changes speed by more than the bounds allow from one run
to the next.  The per-layer host.wall_s and host.speed_factor give the wall
time and the scale of the traced run; stderr gives them for every run.

--trace 1 runs the workload twice, each in a fresh process: untraced, then
with spans around every call the benchmark makes into copa.  Per-layer self
times come from the spans, and the traced run's wall time over the untraced
one is the tracing overhead.  The spans, aggregated per request and per
layer, are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from hostspeed import bracket_factor  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402

DEADLINE_S = 170.0
SETUP_SAMPLES = 21
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import copa; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "req_p50_ms": "ms",
    "req_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}

MODULES = ("partitions", "enumeration", "series", "bijections",
           "copartitions", "diagrams", "cli", "verify")
# Span names; each gives the per-layer metric "<name>.s", its self time.
TIMED = (
    "partitions.enumerate_partitions", "partitions.partition_count",
    "enumeration.enumerate_copartitions", "enumeration.count_copartitions",
    "enumeration.count_copartitions.degenerate", "enumeration.count_formula",
    "enumeration.count_refined", "enumeration.crank_tally",
    "series.gf_product.scalar", "series.classical",
    "series.gf_product.bivariate", "series.gf_double_sum.bivariate",
    "bijections.pair", "bijections.eo", "bijections.cp111", "bijections.cp001",
    "bijections.enumerate_eo_star", "copartitions.json",
    "diagrams.render_ascii", "diagrams.render_svg", "cli.main",
) + tuple(f"verify.{s}" for s in gen.SUITES)
COUNTED = (
    "enumeration.enumerate_copartitions.objects", "bijections.round_trips",
    "bijections.enumerate_eo_star.items", "diagrams.bytes", "cli.main.calls",
) + tuple(f"verify.{s}.checks" for s in gen.SUITES)
SERIES_SPANS = ("series.gf_product.scalar", "series.classical",
                "series.gf_product.bivariate", "series.gf_double_sum.bivariate")
ROUND_TRIP_SPANS = ("bijections.pair", "bijections.eo", "bijections.cp111", "bijections.cp001")
# rate metric: (work counter, spans whose self time it is divided by)
RATES = {
    "partitions.enumerate_partitions.items_per_s":
        ("partitions.enumerate_partitions.items", ("partitions.enumerate_partitions",)),
    "enumeration.enumerate_copartitions.objects_per_s":
        ("enumeration.enumerate_copartitions.objects", ("enumeration.enumerate_copartitions",)),
    "series.terms_per_s": ("series.terms", SERIES_SPANS),
    "bijections.round_trips_per_s": ("bijections.round_trips", ROUND_TRIP_SPANS),
}
TRACE_META = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_ratio": "ratio",
              "host.wall_s": "s", "host.speed_factor": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in TIMED}
    units.update({name: "count" for name in COUNTED})
    units["diagrams.bytes"] = "bytes"
    units.update({name: "1/s" for name in RATES})
    units.update({f"{m}.failed": "count" for m in MODULES})
    units.update(TRACE_META)
    return units


class BenchError(Exception):
    pass


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def measure_setup(t_start: float) -> float:
    """Median time for a fresh interpreter to import copa, in reference
    seconds: each import is scaled by the host speed measured just before
    and just after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = bracket_factor()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, cwd=ROOT, timeout=_remaining(t_start),
        )
        if proc.returncode != 0:
            raise BenchError(f"importing copa failed:\n{proc.stderr}")
        samples.append(float(proc.stdout) * (before + bracket_factor()) / 2)
    return statistics.median(samples)


def run_worker(requests: list[dict], trace: bool, t_start: float) -> dict:
    job = json.dumps({"src": str(SRC), "trace": trace, "requests": requests})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=job, capture_output=True, text=True, cwd=ROOT, timeout=_remaining(t_start),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout)


def run_sessions(requests: list[dict], trace: bool, t_start: float) -> dict:
    """Each session's requests in a fresh worker, one after another; their
    outputs merged into one."""
    sessions = sorted({r["session"] for r in requests})
    outs = [run_worker([r for r in requests if r["session"] == k], trace, t_start)
            for k in sessions]
    merged = {
        "results": [r for o in outs for r in o["results"]],
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
        "speed_factor": statistics.mean(o["speed_factor"] for o in outs),
        "samples": sum(o["samples"] for o in outs),
    }
    for key in ("counts", "failed_by_module") + (("layers",) if trace else ()):
        total = Counter()
        for o in outs:
            total.update(o[key])
        merged[key] = dict(total)
    if trace:
        merged["per_request"] = {k: v for o in outs for k, v in o["per_request"].items()}
    return merged


def wall(out: dict) -> float:
    return sum(r["latency"] for r in out["results"])


def end_to_end(out: dict, setup_s: float) -> dict[str, float]:
    results = out["results"]
    latencies = [r["latency"] for r in results]
    failed = sum(r["failed"] is not None for r in results)
    w = wall(out)
    return {
        "setup_s": setup_s,
        "wall_s": w,
        "ops_per_s": sum(r["ops"] for r in results) / w,
        "req_p50_ms": 1000 * percentile(latencies, 50),
        "req_tail_ms": 1000 * percentile(latencies, tail_percentile(len(latencies))),
        "ok_ratio": (len(results) - failed) / len(results),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    layers, counts = traced["layers"], traced["counts"]
    metrics = {f"{name}.s": layers.get(name, 0.0) for name in TIMED}
    metrics.update({name: counts.get(name, 0) for name in COUNTED})
    for name, (work, spans) in RATES.items():
        busy = sum(layers.get(s, 0.0) for s in spans)
        metrics[name] = counts.get(work, 0) / busy if busy > 0 else 0.0
    metrics.update({f"{m}.failed": traced["failed_by_module"].get(m, 0) for m in MODULES})
    metrics["trace.wall_s"] = wall(traced)
    metrics["trace.untraced_wall_s"] = wall(untraced)
    metrics["trace.overhead_ratio"] = wall(traced) / wall(untraced)
    metrics["host.wall_s"] = sum(r["host_s"] for r in traced["results"])
    metrics["host.speed_factor"] = traced["speed_factor"]
    return metrics


def write_trace(workload: str, seed: int, traced: dict) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "self_s_per_layer": traced["layers"],
           "self_s_per_request": traced["per_request"],
           "requests": [{k: r[k] for k in ("id", "kind", "latency")} for r in traced["results"]]}
    (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "copa" / "__init__.py").is_file():
        print(f"no copa sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    requests = gen.make_requests(args.workload, args.seed, args.seconds, expected)
    try:
        if args.trace:
            untraced = run_sessions(requests, False, t_start)
            out = run_sessions(requests, True, t_start)
            metrics = per_layer(out, untraced)
            units = per_layer_units()
            write_trace(args.workload, args.seed, out)
        else:
            setup_s = measure_setup(t_start)
            out = run_sessions(requests, False, t_start)
            metrics = end_to_end(out, setup_s)
            units = END_TO_END
            print(f"host wall {sum(r['host_s'] for r in out['results']):.4f} s, "
                  f"speed factor {out['speed_factor']:.4f}, {out['samples']} samples",
                  file=sys.stderr)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] is not None for r in out["results"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(out["results"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
