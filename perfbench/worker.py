"""One workload run in a fresh process: time each request, then check it.

Reads {"src": ..., "trace": bool, "requests": [...]} as JSON on stdin and
writes one JSON object on stdout.  Each request runs as a closed loop with
one caller; its latency covers only the calls into copa, and its output is
checked against the request's "expect" after the timer has stopped.
Latencies and span self times are in reference seconds (hostspeed.py); each
result also carries its wall time as "host_s".  A wrong
answer or an exception fails the request and is charged to one module: the
one whose span raised, or the one whose output was wrong.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import ascii_ok, scalar_prefix, series_digest, svg_ok  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from spans import ROOT, Tracer, aggregate  # noqa: E402


class Session:
    """The calls one workload makes, each inside a span named after the
    layer metric it feeds."""

    def __init__(self, copa, tracer: Tracer):
        from copa import cli, series, verify

        self.copa, self.cli, self.series, self.verify = copa, cli, series, verify
        self.tr = tracer
        self.counts: Counter = Counter()
        self._classical = {
            "rr-G-sum": lambda o: series.rr_function("G", "sum", o),
            "rr-G-product": lambda o: series.rr_function("G", "product", o),
            "rr-H-sum": lambda o: series.rr_function("H", "sum", o),
            "rr-H-product": lambda o: series.rr_function("H", "product", o),
            "theta-1-2": lambda o: series.theta_f(1, 2, o),
            "theta-2-3": lambda o: series.theta_f(2, 3, o),
            "nu": series.mock_theta_nu,
            "eo-star": series.eo_star_gf,
        }

    def _cli(self, argv: list[str]) -> str:
        buf = io.StringIO()
        with self.tr.span("cli.main"), redirect_stdout(buf):
            rc = self.cli.main(argv)
        self.counts["cli.main.calls"] += 1
        if rc != 0:
            raise RuntimeError(f"copa {' '.join(argv)} exited {rc}")
        return buf.getvalue()

    @staticmethod
    def _triple_args(params) -> list[str]:
        a, b, m = params
        return ["--a", str(a), "--b", str(b), "--m", str(m)]

    # Each run_<kind> does the timed work and returns (ops, check), where
    # check() runs after the timer stops and names the module at fault, if any.

    def run_verify_all(self, req):
        reports = []
        for name in req["suites"]:
            with self.tr.span(f"verify.{name}"):
                reports.append(self.verify.run_suite(name))
        for name, rep in zip(req["suites"], reports):
            self.counts[f"verify.{name}.checks"] += rep.attempted
        ok = lambda: all(
            rep.ok and rep.attempted == rep.passed == want
            for rep, want in zip(reports, req["expect"])
        )
        return sum(r.attempted for r in reports), lambda: None if ok() else "verify"

    def _count(self, req, span):
        with self.tr.span(span):
            v = self.copa.count_copartitions(tuple(req["params"]), req["n"])
        return 1, lambda: None if v == req["expect"] else "enumeration"

    def run_count(self, req):
        return self._count(req, "enumeration.count_copartitions")

    def run_degenerate(self, req):
        return self._count(req, "enumeration.count_copartitions.degenerate")

    def run_count_cli(self, req):
        out = self._cli(["count", *self._triple_args(req["params"]), "--n", str(req["n"])])
        return 1, lambda: None if out == f"{req['expect']}\n" else "cli"

    def run_formula(self, req):
        with self.tr.span("enumeration.count_formula"):
            v = self.copa.count_formula(tuple(req["params"]), req["n"])
        return 1, lambda: None if v == req["expect"] else "enumeration"

    def run_scalar_series(self, req):
        order = req["order"]
        with self.tr.span("series.gf_product.scalar"):
            s = self.series.gf_product(tuple(req["params"]), order, markers=False)
        self.counts["series.terms"] += order + 1
        return 1, lambda: None if scalar_prefix(s, order) == req["expect"] else "series"

    def run_classical(self, req):
        order = req["order"]
        with self.tr.span("series.classical"):
            s = self._classical[req["series"]](order)
        self.counts["series.terms"] += order + 1
        return 1, lambda: None if scalar_prefix(s, order) == req["expect"] else "series"

    def _bivariate(self, req, name, build):
        order = req["order"]
        with self.tr.span(name):
            s = build(tuple(req["params"]), order)
        self.counts["series.terms"] += order + 1
        return 1, lambda: None if series_digest(s, order) == req["expect"] else "series"

    def run_product(self, req):
        return self._bivariate(req, "series.gf_product.bivariate", self.series.gf_product)

    def run_double_sum(self, req):
        return self._bivariate(req, "series.gf_double_sum.bivariate", self.series.gf_double_sum)

    def run_count_refined(self, req):
        with self.tr.span("enumeration.count_refined"):
            rc = self.copa.count_refined(tuple(req["params"]), req["n"])
        got = lambda: sorted([w, s, c] for (w, s), c in rc.table.items() if c)
        return 1, lambda: None if got() == req["expect"] else "enumeration"

    def run_crank_tally(self, req):
        mod = req["modulus"]
        with self.tr.span("enumeration.crank_tally"):
            ct = self.copa.crank_tally(tuple(req["params"]), req["n"], mod)
        got = lambda: [ct.counts.get(r) for r in range(mod)] if len(ct.counts) == mod else None
        return 1, lambda: None if got() == req["expect"] else "enumeration"

    def _round_trip(self, family, params, merged, objs):
        copa = self.copa
        with self.tr.span(f"bijections.{family}"):
            if family == "eo":
                back = [copa.eo_to_copartition(copa.copartition_to_eo(c)) for c in objs]
            elif family == "cp111":
                back = [copa.partition_to_cp111(*copa.cp111_to_partition(c)) for c in objs]
            elif family == "cp001":
                back = [copa.rim_cell_to_cp001(*copa.cp001_to_rim_cell(c)) for c in objs]
            else:
                back = [
                    copa.pair_to_copartition(*copa.copartition_to_pair(merged, c), params)
                    for c in objs
                ]
        self.counts["bijections.round_trips"] += len(objs)
        if family == "pair":
            return lambda: back == [(merged, c) for c in objs]
        return lambda: back == objs

    def run_enumerate(self, req):
        copa = self.copa
        params, n = tuple(req["params"]), req["n"]
        if req["cli"]:
            lines = self._cli(["enumerate", *self._triple_args(params), "--n", str(n)]).splitlines()
            with self.tr.span("copartitions.json"):
                objs = [copa.from_json(t) for t in lines]
                again = [copa.to_json(c) for c in objs]
            json_ok = lambda: again == lines
            lister = "cli"
        else:
            with self.tr.span("enumeration.enumerate_copartitions"):
                objs = list(copa.enumerate_copartitions(params, n))
            self.counts["enumeration.enumerate_copartitions.objects"] += len(objs)
            with self.tr.span("copartitions.json"):
                texts = [copa.to_json(c) for c in objs]
                back = [copa.from_json(t) for t in texts]
            json_ok = lambda: back == objs
            lister = "enumeration"
        merged = tuple(req.get("merged", ()))
        trips_ok = self._round_trip(req["family"], params, merged, objs)
        sample = [objs[i] for i in req["render"] if i < len(objs)]
        with self.tr.span("diagrams.render_ascii"):
            asciis = [copa.render_ascii(c) for c in sample]
        with self.tr.span("diagrams.render_svg"):
            svgs = [copa.render_svg(c) for c in sample]
        self.counts["diagrams.bytes"] += sum(map(len, asciis)) + sum(map(len, svgs))

        def check():
            if len(objs) != req["expect"]:
                return lister
            if not json_ok():
                return "copartitions"
            if not trips_ok():
                return "bijections"
            if not all(ascii_ok(t, c) and svg_ok(s, c) for t, s, c in zip(asciis, svgs, sample)):
                return "diagrams"
            return None

        return len(objs), check

    def run_eo_star(self, req):
        with self.tr.span("bijections.enumerate_eo_star"):
            items = self.copa.enumerate_eo_star(req["n"])
        self.counts["bijections.enumerate_eo_star.items"] += len(items)
        return len(items), lambda: None if len(set(items)) == len(items) == req["expect"] else "bijections"

    def run_partitions(self, req):
        n = req["n"]
        with self.tr.span("partitions.enumerate_partitions"):
            items = list(self.copa.enumerate_partitions(n))
        with self.tr.span("partitions.partition_count"):
            p = self.copa.partition_count(n)
        self.counts["partitions.enumerate_partitions.items"] += len(items)
        ok = lambda: len(set(items)) == len(items) == p == req["expect"]
        return len(items), lambda: None if ok() else "partitions"


def run(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import copa

    if Path(copa.__file__).resolve().parent != src / "copa":
        raise SystemExit(f"imported copa from {copa.__file__}, not from {src}")
    tracer = Tracer(job["trace"])
    session = Session(copa, tracer)
    results = []
    failed_by_module: Counter = Counter()
    with SpeedSampler() as speed:
        for req in job["requests"]:
            handler = getattr(session, f"run_{req['kind']}")
            tracer.start_request(req["id"])
            ops, fault = 0, None
            t0 = time.perf_counter()
            try:
                with tracer.span(ROOT):
                    ops, check = handler(req)
            except Exception:  # a failed request is counted, and the run goes on
                t1 = time.perf_counter()
                fault = (tracer.raised_in or ROOT).split(".")[0]
                traceback.print_exc(file=sys.stderr)
            else:
                t1 = time.perf_counter()
                try:
                    fault = check()
                except Exception:  # output too malformed to compare
                    fault = tracer.last_opened.split(".")[0]
                    traceback.print_exc(file=sys.stderr)
            if fault is not None:
                failed_by_module[fault] += 1
                print(f"request {req['id']} ({req['kind']}) failed in {fault}", file=sys.stderr)
            results.append({"id": req["id"], "kind": req["kind"], "t": (t0, t1),
                            "ops": ops, "failed": fault})
    # Converted only now, so that every interval is judged by the samples on
    # both sides of it.
    for r in results:
        t0, t1 = r.pop("t")
        r["latency"] = speed.ref_seconds(t0, t1)
        r["host_s"] = speed.clean(t1) - speed.clean(t0)
    out = {
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": dict(session.counts),
        "failed_by_module": dict(failed_by_module),
        "speed_factor": speed.run_factor(),
        "samples": len(speed.costs),
    }
    if job["trace"]:
        clean = [(name, speed.clean(t0), speed.clean(t1), parent, r)
                 for name, t0, t1, parent, r in tracer.spans]
        scale = [speed.factor(t0, t1) for _, t0, t1, _, _ in tracer.spans]
        per_layer, per_request = aggregate(clean, scale)
        out["layers"] = per_layer
        out["per_request"] = {str(k): v for k, v in per_request.items()}
    return out


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
