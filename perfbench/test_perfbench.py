"""Tests of the benchmark's own code:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from spans import Tracer, aggregate, self_times  # noqa: E402
from stats import beyond, percentile, spread, tail_percentile  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bytes(workload, seed):
    reqs = gen.make_requests(workload, seed, BENCH["run_seconds"], EXPECTED)
    return json.dumps(reqs, sort_keys=True).encode()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)


@pytest.mark.parametrize("workload", ["count", "refined", "stream"])
def test_seed_changes_inputs_not_composition(workload):
    a = json.loads(_bytes(workload, 1))
    b = json.loads(_bytes(workload, 2))
    assert a != b
    kinds = lambda reqs: sorted(r["kind"] for r in reqs)
    assert kinds(a) == kinds(b)


def test_refined_builds_every_product_order_whatever_the_seed():
    for seed in (1, 2, 3):
        reqs = gen.make_requests("refined", seed, BENCH["run_seconds"], EXPECTED)
        built = {(tuple(r["params"]), r["order"]) for r in reqs if r["kind"] == "product"}
        assert built == {
            (t, gen.PRODUCT_LOW[t] + k)
            for t in gen.REFINED_TRIPLES for k in range(gen.PRODUCT_WINDOW)
        }


def test_refined_builds_the_same_double_sums_whatever_the_seed():
    def built(seed):
        reqs = gen.make_requests("refined", seed, BENCH["run_seconds"], EXPECTED)
        orders = [(r["session"], tuple(r["params"]), r["order"])
                  for r in reqs if r["kind"] == "double_sum"]
        assert len(set(orders)) == len(orders)  # no double sum is a cache hit
        return set(orders)

    assert built(1) == built(2) == built(3)


def _sampler(starts, costs):
    s = hostspeed.SpeedSampler()
    for t, c in zip(starts, costs):
        s.starts.append(t)
        s.costs.append(c)
        s._spent.append(s._spent[-1] + c)
    return s


def test_sampling_time_is_taken_out_of_intervals():
    s = _sampler([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    assert s.clean(0.5) == 0.5
    assert s.clean(1.5) == pytest.approx(1.4)
    assert s.clean(2.0) == pytest.approx(1.9)  # a cut at a sample's start
    assert s.clean(3.5) == pytest.approx(2.9)


def test_reference_seconds_follow_the_local_speed():
    ref = hostspeed.REF_KERNEL_S
    # the host runs at full speed until t = 10, then at half speed
    starts = [0.1 * i for i in range(200)]
    costs = [ref if t < 10 else 2 * ref for t in starts]
    s = _sampler(starts, [0.0] * len(starts))
    s.costs[:] = costs
    assert s.ref_seconds(2.0, 3.0) == pytest.approx(1.0)
    assert s.ref_seconds(15.0, 17.0) == pytest.approx(1.0)
    # a long interval is scaled piece by piece
    assert s.ref_seconds(5.0, 15.0) == pytest.approx(5.0 + 2.5, rel=0.02)


def test_sampler_interrupts_and_restores_the_signal():
    import signal
    import time

    with hostspeed.SpeedSampler() as s:
        t = time.perf_counter()
        while time.perf_counter() - t < 4 * hostspeed.INTERVAL_S:
            pass
    assert len(s.costs) >= 3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize(
    "n, p", [(14, 100.0), (99, 100.0), (100, 90.0), (199, 90.0), (200, 95.0),
             (216, 95.0), (640, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    assert tail_percentile(n) == p
    if p < 100:
        assert beyond(n, p) >= 10
    higher = [q for q in (90.0, 95.0, 99.0, 99.9) if q > p]
    assert all(beyond(n, q) < 10 for q in higher)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0


def test_spread_matches_statistics_quantiles():
    fig = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (fig["q1"], fig["median"], fig["q3"]) == (2.75, 5.5, 8.25)
    assert fig["iqr_share"] == pytest.approx(1.0)


def test_self_time_on_hand_made_tree():
    spans = [
        ("request", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),   # overlaps b on [3, 4]
        ("b", 3.0, 6.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),   # inside a
        ("d", 9.0, 12.0, 0, 0),  # runs past its parent; only [9, 10] counts
        ("request", 20.0, 21.0, -1, 1),
    ]
    own = self_times(spans)
    assert own == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0, 1.0])
    per_layer, per_request = aggregate(spans)
    assert per_layer["request"] == pytest.approx(5.0)
    assert per_request[0]["a"] == pytest.approx(2.0)
    assert per_request[1] == pytest.approx({"request": 1.0})


def test_tracer_records_parents_and_charges_the_raising_span():
    tr = Tracer(enabled=True)
    tr.start_request(3)
    with pytest.raises(KeyError):
        with tr.span("request"):
            with tr.span("series.classical"):
                pass
            with tr.span("cli.main"):
                raise KeyError("x")
    names = [(s[0], s[3], s[4]) for s in tr.spans]
    assert names == [("request", -1, 3), ("series.classical", 0, 3), ("cli.main", 0, 3)]
    assert all(s[2] >= s[1] for s in tr.spans)
    assert tr.raised_in == "cli.main"
    off = Tracer(enabled=False)
    with pytest.raises(ValueError):
        with off.span("request"), off.span("diagrams.render_svg"):
            raise ValueError
    assert off.spans == [] and off.raised_in == "diagrams.render_svg"


def test_benchmark_json_names_every_metric_run_reports():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(gen.WORKLOADS)
