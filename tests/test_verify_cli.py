"""Verification suites at reduced bounds, plus the command-line surface."""

import functools
import io
import json
import os
import re
import subprocess
import sys

import pytest

import copa
import copa.cli
import copa.verify
from copa import SUITES, run_suite
from copa import series as qs
from copa import copartitions, partitions
from copa.bijections import (
    copartition_to_pair,
    cp001_to_rim_cell,
    cp111_to_partition,
    pair_to_copartition,
    partition_to_cp111,
    rim_cell_to_cp001,
)
from copa.cli import main
from copa.enumeration import RefinedCount, enumerate_copartitions
from copa.reporting import Checker

# Reduced bounds keep the whole registry affordable inside the unit run;
# the acceptance tests exercise the defaults.
REDUCED_BOUNDS = {
    "gf-triple": dict(max_n=12, refined_max=10, classes=3),
    "phi": dict(max_total=10, cardinality_max=12),
    "eo-star": dict(max_half=6, roundtrip_max=10),
    "cp111": dict(
        formula_max=30, enum_max=12, corollary_max=12, bound_max=10, bijection_max=8
    ),
    "cp011": dict(max_n=12),
    "cp001": dict(max_n=12, bijection_max=8),
    "cp0bm": dict(max_n=12, pairs=((1, 2), (2, 3))),
    "rr": dict(order=40, connection_order=30, enum_max=12),
    "theta-eta": dict(order=30),
    "mock-theta": dict(order=12),
    "scaling": dict(max_n=10, classes=2, scales=(2,), object_max=5),
    "conjugation": dict(max_n=12, refined_max=10, classes=3),
    "congruence": dict(max_k=2, eo_max_k=1),
    "crank": dict(max_k=0, transport_max=8),
}

PAIR_DOC = json.dumps(
    {
        "a": 1,
        "b": 2,
        "m": 4,
        "ground_source": [9, 5, 5, 5, 5, 1, 1, 1],
        "sky_source": [26, 26, 26, 22, 6, 6, 2],
    }
)

COPARTITION_DOC = '{"a":1,"b":2,"m":4,"ground":[9,5,5,5,1],"sky":[6,6,6,2]}'


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_at_reduced_bounds(name):
    report = run_suite(name, **REDUCED_BOUNDS[name])
    assert report.ok, report.line()
    assert report.attempted > 0
    assert report.passed == report.attempted
    assert report.suite == name
    assert report.wall_time >= 0.0


def test_registry_is_complete_and_ordered():
    assert list(SUITES) == [
        "gf-triple",
        "phi",
        "eo-star",
        "cp111",
        "cp011",
        "cp001",
        "cp0bm",
        "rr",
        "theta-eta",
        "mock-theta",
        "scaling",
        "conjugation",
        "congruence",
        "crank",
    ]


def test_unknown_suite_raises_key_error():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_report_line_mentions_status():
    line = run_suite("mock-theta", order=8).line()
    assert "suite=mock-theta" in line
    assert "status=ok" in line


def test_label_function_runs_only_for_the_recorded_counterexample():
    calls = []

    def label():
        calls.append(None)
        return "case [3, 1]"

    eager, lazy = Checker("s", "r"), Checker("s", "r")
    for ch, lab in ((eager, "case [3, 1]"), (lazy, label)):
        assert ch.check(True, lab) and ch.equal((1,), (1,), lab)
        assert not ch.equal({(0, 1): 2}, {}, lab)
        assert not ch.check(False, lab)
    assert len(calls) == 1
    assert lazy.report.counterexample == eager.report.counterexample
    assert lazy.report.counterexample == "case [3, 1]: {(0, 1): 2} != {}"
    eager, lazy = Checker("s", "r"), Checker("s", "r")
    eager.check(False, "case [3, 1]")
    lazy.check(False, label)
    assert lazy.done().line() == eager.done().line()


def _first(params):
    return next(iter(enumerate_copartitions(params, 0)))


def _break_copartition_to_pair(mu, cp):
    # right on the worked example only, so the first round trip fails
    return copartition_to_pair(mu, cp) if mu == (11, 7, 3) else ((cp.params.a,), ())


@pytest.mark.parametrize(
    "name, bounds, target, broken, expected",
    [
        (
            "phi",
            dict(max_total=1, cardinality_max=1),
            "copartition_to_pair",
            _break_copartition_to_pair,
            lambda: "round trip (1,2,4) []|[]",
        ),
        (
            "eo-star",
            dict(max_half=1, roundtrip_max=2),
            "copartition_to_eo",
            lambda cp: (2,),
            lambda: f"round trip from partition {list(())}",
        ),
        (
            "scaling",
            dict(max_n=1, classes=1, scales=(2,), object_max=1),
            "unscale_copartition",
            lambda d, s: None,
            lambda: f"dilate {_first((1, 1, 1))!r} by 2",
        ),
        (
            "conjugation",
            dict(max_n=1, refined_max=1, classes=1),
            "conjugate_copartition",
            lambda c: c,
            lambda: f"involution on {_first((1, 2, 4))!r}",
        ),
        (
            "crank",
            dict(max_k=0, transport_max=1),
            "eo_crank",
            lambda e: 1,
            lambda: f"transport failed on {_first((1, 1, 2))!r}",
        ),
    ],
)
def test_forced_failure_reports_the_eager_label(
    monkeypatch, name, bounds, target, broken, expected
):
    """Object labels are built only on failure, with the same text the
    eagerly formatted label had."""
    monkeypatch.setattr(copa.verify, target, broken)
    report = run_suite(name, **bounds)
    assert report.counterexample == expected()


# Maps broken on inputs of total size 2 only, past the suites' worked examples.
def _broken_partition_to_cp111(lam, k):
    if sum(lam) + k == 2:
        lam, k = (1, 1), 0
    return partition_to_cp111(lam, k)


def _broken_cp111_to_partition(cp):
    lam, k = cp111_to_partition(cp)
    return (lam, k + 1) if cp.size == 2 else (lam, k)


def _broken_rim_cell_to_cp001(lam, cell):
    return rim_cell_to_cp001((1, 1), (1, 1)) if sum(lam) == 2 else rim_cell_to_cp001(lam, cell)


def _broken_cp001_to_rim_cell(cp):
    lam, cell = cp001_to_rim_cell(cp)
    return (lam, cell[::-1]) if cp.size == 2 else (lam, cell)


def _colliding_rim_maps():
    # Every rim cell of size 2 goes to one copartition and the inverse
    # answers with the last input, so the round trip holds and the image
    # collides.
    last = []

    def forward(lam, cell):
        last[:] = [(lam, cell)]
        return _broken_rim_cell_to_cp001(lam, cell)

    def inverse(cp):
        return last[0] if cp.size == 2 else cp001_to_rim_cell(cp)

    return {"rim_cell_to_cp001": forward, "cp001_to_rim_cell": inverse}


_CP111 = dict(formula_max=1, enum_max=1, corollary_max=1, bound_max=1, bijection_max=4)
_CP001 = dict(max_n=1, bijection_max=4)


@pytest.mark.parametrize(
    "name, bounds, patches, counts, expected",
    [
        ("cp111", _CP111, {"partition_to_cp111": _broken_partition_to_cp111},
         (41, 37), "round trip broke at [2], k=0"),
        ("cp111", _CP111, {"cp111_to_partition": _broken_cp111_to_partition},
         (41, 36), "round trip broke at [2], k=0"),
        ("cp001", _CP001, {"rim_cell_to_cp001": _broken_rim_cell_to_cp001},
         (46, 42), "round trip broke at [2], cell (1, 2)"),
        ("cp001", _CP001, {"cp001_to_rim_cell": _broken_cp001_to_rim_cell},
         (46, 43), "round trip broke at [2], cell (1, 2)"),
        ("cp001", _CP001, _colliding_rim_maps(), (46, 42), "collision at [2], cell (1, 1)"),
    ],
)
def test_broken_bijection_reports_its_counterexample(
    monkeypatch, name, bounds, patches, counts, expected
):
    """A map broken at size 2 fails one check of the bijection loop per bad
    input, and the counterexample says whether the round trip broke or the
    image collided."""
    for target, broken in patches.items():
        monkeypatch.setattr(copa.verify, target, broken)
    report = run_suite(name, **bounds)
    assert (report.attempted, report.passed) == counts
    assert report.counterexample == expected


def test_mock_theta_checks_the_even_part_against_the_listing(monkeypatch):
    """A wrong even-part coefficient fails the per-n listing check."""
    real_gf = qs.eo_star_gf
    g2 = real_gf(12).coefficient_int(2)

    def wrong_at_two(order):
        coeffs = real_gf(order).scalar_coeffs()
        coeffs[2] += 1
        return qs.TruncatedSeries(order, {n: {(0, 0): c} for n, c in enumerate(coeffs)})

    monkeypatch.setattr(qs, "eo_star_gf", wrong_at_two)
    report = run_suite("mock-theta", order=12)
    assert (report.attempted, report.passed) == (20, 18)
    assert report.counterexample == f"series vs listing n=2: {g2 + 1} != {g2}"


def test_default_suites_fit_the_bounded_caches(monkeypatch):
    """The pair-merge domain cache is bounded, and the suites that fill it
    evict nothing at default bounds; they grow the partition-statistics
    table to no more than n = 30."""
    monkeypatch.setattr(partitions, "_by_least", partitions._by_least[:1])
    cache = copa.verify._family
    assert 0 < cache.cache_info().maxsize < 10_000
    cache.cache_clear()
    for name in ("phi", "cp111", "cp011", "cp001"):
        assert run_suite(name).ok
    info = cache.cache_info()
    assert info.currsize == info.misses > 0
    assert 1 < len(partitions._by_least) <= 31


def test_family_keeps_its_params_out_of_the_shared_cache():
    """The pair-merge domains name one (base, n + 1, m) triple each, used
    once; they build their own params object."""
    copartitions._shared_params.cache_clear()
    copa.verify._family.cache_clear()
    family = copa.verify._family(1, 4, 10)
    assert copartitions._shared_params.cache_info().misses == 0
    assert sorted(family) == [(1,) * 10, (5, 1, 1, 1, 1, 1), (5, 5), (9, 1)]


def _merge_one_pair_wrongly(pi, lam, params):
    # (1,) | (1,) in the (1,1,2) family takes the valid image of () | (1, 1)
    if (pi, lam, params) == ((1,), (1,), (1, 1, 2)):
        pi, lam = (), (1, 1)
    return pair_to_copartition(pi, lam, params)


def test_phi_catches_a_merge_that_sends_one_pair_to_another_image(monkeypatch):
    """A merge that sends one pair to another pair's image fails twice: the
    pair's round trip, and the reverse trip of the image nothing reaches."""
    attempted = run_suite("phi", max_total=8).attempted
    monkeypatch.setattr(copa.verify, "pair_to_copartition", _merge_one_pair_wrongly)
    report = run_suite("phi", max_total=8)
    assert report.attempted == attempted
    assert report.passed == attempted - 2
    assert report.counterexample == "round trip (1,1,2) [1]|[1]"


def test_default_pass_counts_match_the_benchmark_and_fit_the_table_memo():
    """One default verify pass: every suite attempts and passes the count
    the benchmark pins (a drift shows here, not only as a failed benchmark
    pass), and the enumeration memos (tables and block counts) and the
    series store are bounded and evict nothing."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expected.json")
    with open(path) as f:
        expected = json.load(f)["verify"]
    memos = (copa.enumeration._refined_table, copa.enumeration._block_count)
    for memo in memos:
        memo.cache_clear()
    with qs._store_lock:
        qs._store.clear()
    reports = copa.verify.run_all()
    assert {r.suite: (r.attempted, r.passed) for r in reports} == {
        name: (count, count) for name, count in expected.items()
    }
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize == info.misses > 0
        assert info.maxsize < 10_000
    # the store drops a family only to stay at its bound
    assert 0 < len(qs._store) < qs._STORE_MAX


def test_the_suites_enumerate_their_refined_side_without_the_series(monkeypatch):
    """The refined tables and crank tallies the suites check the series
    against come from the enumeration: reading the marked double sum for a
    refined column fails the run, and every suite still passes its count."""

    def no_column(*args):
        raise AssertionError("a suite read the refined series column")

    monkeypatch.setattr(copa.enumeration, "gf_double_sum", no_column)
    with pytest.raises(AssertionError, match="refined series column"):
        copa.count_refined((1, 1, 2), 9)
    for name, bounds, attempted in (
        ("crank", dict(max_k=1, transport_max=8), 61),
        ("conjugation", dict(max_n=12, refined_max=10, classes=3), 886),
        ("gf-triple", dict(max_n=12, refined_max=10, classes=3), 678),
    ):
        report = run_suite(name, **bounds)
        assert (report.attempted, report.passed) == (attempted, attempted), name


# -- CLI: counting ---------------------------------------------------------


def test_count_basic(capsys):
    assert main(["count", "--a", "1", "--b", "3", "--m", "4", "--n", "12"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_count_crosscheck(capsys):
    rc = main(
        ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "9", "--crosscheck"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "20"


def test_count_crosscheck_degenerate(capsys):
    rc = main(
        ["count", "--a", "0", "--b", "0", "--m", "1", "--n", "30", "--crosscheck"]
    )
    assert rc == 0
    assert int(capsys.readouterr().out) == copa.count_formula((0, 0, 1), 30)


@pytest.mark.parametrize("abm", [("0", "1", "1"), ("0", "0", "1")])
def test_count_refined_crosscheck_degenerate(capsys, abm):
    a, b, m = abm
    rc = main(
        ["count", "--a", a, "--b", b, "--m", m, "--n", "12", "--w", "2", "--s", "1",
         "--crosscheck"]
    )
    assert rc == 0
    want = copa.count_refined(tuple(map(int, abm)), 12).table[(2, 1)]
    assert int(capsys.readouterr().out) == want > 0


def test_count_crosscheck_failure_exits_1(monkeypatch, capsys):
    real = copa.cli.count_copartitions

    def enum_off_by_one(params, n, method="auto"):
        return real(params, n, method) + (method == "enum")

    monkeypatch.setattr(copa.cli, "count_copartitions", enum_off_by_one)
    rc = main(["count", "--a", "1", "--b", "1", "--m", "2", "--n", "9", "--crosscheck"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "crosscheck failed: auto=20, double-sum=20, enum=21, series=20\n"


def test_count_refined_crosscheck_failure_exits_1(monkeypatch, capsys):
    real = copa.cli.count_refined

    def enum_off_by_one(params, n, method="auto"):
        result = real(params, n, method)
        if method != "enum":
            return result
        return RefinedCount(result.params, result.n, {k: v + 1 for k, v in result.table.items()})

    monkeypatch.setattr(copa.cli, "count_refined", enum_off_by_one)
    rc = main(
        ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "4", "--w", "1", "--s", "1",
         "--crosscheck"]
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "crosscheck failed: auto=1, enum=2\n"


@pytest.mark.parametrize("abm", [("1", "1", "1"), ("0", "0", "1")])
def test_count_crosscheck_runs_far(capsys, abm):
    a, b, m = abm
    assert main(["count", "--a", a, "--b", b, "--m", m, "--n", "200", "--crosscheck"]) == 0
    assert int(capsys.readouterr().out) == copa.count_copartitions((int(a), int(b), int(m)), 200)


@pytest.mark.parametrize("flags", [["--method", "enum"], ["--crosscheck"]])
def test_count_past_the_enum_ceiling_exits_2(capsys, flags):
    assert main(["count", "--a", "1", "--b", "1", "--m", "1", "--n", "1001", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: method 'enum' counts n <= 1000")


def test_count_refined(capsys):
    rc = main(
        ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "4",
         "--w", "1", "--s", "1"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("extra", [[], ["--crosscheck"]])
@pytest.mark.parametrize("abm", [("1", "1", "2"), ("0", "0", "1"), ("2", "3", "5")])
def test_count_refined_negative_size_is_zero(capsys, abm, extra):
    a, b, m = abm
    rc = main(
        ["count", "--a", a, "--b", b, "--m", m, "--n", "-1", "--w", "1", "--s", "1"]
        + extra
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"


def test_count_refined_needs_both_flags(capsys):
    rc = main(["count", "--a", "1", "--b", "1", "--m", "2", "--n", "4", "--w", "1"])
    assert rc == 2
    assert "together" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["auto", "series", "enum"])
def test_count_refined_passes_the_method_through(capsys, method):
    rc = main(
        ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "9", "--w", "2", "--s", "1",
         "--method", method, "--crosscheck"]
    )
    assert rc == 0
    assert int(capsys.readouterr().out) == copa.count_refined((1, 1, 2), 9, "enum").table[(2, 1)]


def test_count_one_cell_reads_its_one_term(monkeypatch, capsys):
    # "auto" and "series" answer from the cell's own double-sum term and
    # build no stored series
    want = copa.count_refined((1, 1, 2), 201).table[(3, 2)]

    def no_store(*args):
        raise AssertionError("built a stored series")

    monkeypatch.setattr(qs, "_stored", no_store)
    for method in ("auto", "series"):
        rc = main(
            ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "201", "--w", "3", "--s", "2",
             "--method", method]
        )
        assert rc == 0
        assert int(capsys.readouterr().out) == want > 0


def test_count_refined_has_no_formula(capsys):
    rc = main(
        ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "9", "--w", "2", "--s", "1",
         "--method", "formula"]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown method 'formula'\n"


def test_count_invalid_params_exit_2(capsys):
    rc = main(["count", "--a", "1", "--b", "1", "--m", "0", "--n", "4"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_count_method_formula(capsys):
    rc = main(
        ["count", "--a", "1", "--b", "1", "--m", "1", "--n", "40",
         "--method", "formula"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "215308"


# -- CLI: enumerate / table / render ---------------------------------------


def test_enumerate_lists_seven_objects(capsys):
    rc = main(["enumerate", "--a", "1", "--b", "3", "--m", "4", "--n", "12"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    for line in lines:
        doc = json.loads(line)
        assert (doc["a"], doc["b"], doc["m"]) == (1, 3, 4)


def test_table_csv(capsys):
    rc = main(["table", "--a", "1", "--b", "1", "--m", "2", "--max-n", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,b,m,n,count"
    assert len(lines) == 8
    assert lines[1] == "1,1,2,0,1"
    assert lines[-1] == "1,1,2,6,10"


def test_table_json_refined(capsys):
    rc = main(
        ["table", "--a", "1", "--b", "1", "--m", "2", "--max-n", "4",
         "--format", "json", "--refined"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["a"], payload["b"], payload["m"]) == (1, 1, 2)
    row = payload["rows"][-1]
    assert row["n"] == 4
    assert row["count"] == 5
    assert sum(cell["count"] for cell in row["refined"]) == 5


def test_table_csv_refined_rejected(capsys):
    rc = main(["table", "--a", "1", "--b", "1", "--m", "2", "--max-n", "4",
               "--refined"])
    assert rc == 2
    assert "json" in capsys.readouterr().err


def test_table_builds_each_family_once(monkeypatch, capsys):
    # the top order is read first, so every lower row is a store hit
    builds = []
    stored = qs._stored

    def spy(build, key, n):
        @functools.wraps(build)
        def counted(*args):
            builds.append((build.__name__, *args[:-1]))
            return build(*args)

        return stored(counted, key, n)

    monkeypatch.setattr(qs, "_stored", spy)
    runs = (
        (["--a", "1", "--b", "2", "--m", "4", "--format", "json", "--refined"],
         [("_product", 1, 2, 4, False), ("_double_sum", 1, 2, 4, True)]),
        (["--a", "0", "--b", "2", "--m", "3"], [("_degenerate_series", 2, 3)]),
    )
    for flags, families in runs:
        for key in families:
            qs._store.pop(key, None)
        builds.clear()
        assert main(["table", "--max-n", "300", *flags]) == 0
        assert builds == families, flags
        capsys.readouterr()


def test_render_ascii(capsys):
    rc = main(["render", "--input", COPARTITION_DOC])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert "|" in out and "+" in out


def test_render_to_file(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    rc = main(["render", "--input", COPARTITION_DOC, "--format", "svg",
               "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8").startswith("<svg")


def test_render_to_a_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "diagram.svg"
    rc = main(["render", "--input", COPARTITION_DOC, "--out", str(target)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad input (cannot write {target}: No such file or directory)\n"
    assert not target.parent.exists()


def test_render_bad_json_exit_2(capsys):
    rc = main(["render", "--input", "{not json"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_render_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(COPARTITION_DOC))
    rc = main(["render", "--input", "-"])
    assert rc == 0
    assert "|" in capsys.readouterr().out


# -- CLI: verify ------------------------------------------------------------


def test_verify_text_output(capsys):
    rc = main(["verify", "mock-theta", "--order", "10"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "suite=mock-theta" in captured.out
    assert "status=ok" in captured.out
    assert "mock-theta:" in captured.err


def test_verify_json_output(capsys):
    rc = main(["verify", "mock-theta", "--order", "10", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["suite"] == "mock-theta"
    assert payload[0]["ok"] is True
    assert "wall_time" in payload[0]


def test_verify_unknown_suite_exit_2(capsys):
    rc = main(["verify", "nonsense"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nonsense" in err and "gf-triple" in err


def test_verify_bound_flag_mismatch_exit_2(capsys):
    rc = main(["verify", "crank", "--order", "50"])
    assert rc == 2
    assert "--order" in capsys.readouterr().err


def test_verify_crank_takes_max_k(capsys):
    # far balance at n = 5k + 4 through the CLI, up to n = 204
    rc = main(["verify", "crank", "--max-k", "40", "--format", "json"])
    assert rc == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["ranges"].startswith("points (4, 9, 14, 19, ") and "204) mod 5" in report["ranges"]
    assert report["attempted"] == report["passed"] == 181 + 2 * 38
    assert report["ok"] is True


def test_verify_order_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("COPA_MAX_ORDER", "10")
    rc = main(["verify", "mock-theta", "--order", "50"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "capped" in captured.err
    assert "status=ok" in captured.out


# -- CLI: series / bijection / crank ----------------------------------------


def test_series_product(capsys):
    rc = main(
        ["series", "--kind", "product", "--a", "1", "--b", "1", "--m", "1",
         "--order", "6"]
    )
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"n": 0, "coeff": 1}
    assert rows[6] == {"n": 6, "coeff": 30}


def test_series_kinds_agree(capsys):
    main(["series", "--kind", "product", "--a", "1", "--b", "2", "--m", "3",
          "--order", "8"])
    first = json.loads(capsys.readouterr().out)
    main(["series", "--kind", "double-sum", "--a", "1", "--b", "2", "--m", "3",
          "--order", "8"])
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_series_double_sum_degenerate_refined(capsys):
    rc = main(["series", "--kind", "double-sum", "--a", "0", "--b", "0", "--m", "1",
               "--order", "10", "--refined"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    for n, row in enumerate(rows):
        table = copa.count_refined((0, 0, 1), n).table
        assert {(t["w"], t["s"]): t["coeff"] for t in row["terms"]} == table


def test_series_refined_restricted(capsys):
    rc = main(["series", "--kind", "nu", "--order", "6", "--refined"])
    assert rc == 2
    assert "refined" in capsys.readouterr().err


def test_series_theta_needs_exponents(capsys):
    rc = main(["series", "--kind", "theta", "--order", "6"])
    assert rc == 2
    assert "--x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, build",
    [
        (["--kind", "theta", "--x", "1", "--y", "2"], lambda o: qs.theta_sum(1, 2, o)),
        (["--kind", "rr-g"], lambda o: qs.rr_function("G", "sum", o)),
        (["--kind", "rr-g", "--form", "product"], lambda o: qs.rr_function("G", "product", o)),
        (["--kind", "rr-h"], lambda o: qs.rr_function("H", "sum", o)),
        (["--kind", "rr-h", "--form", "product"], lambda o: qs.rr_function("H", "product", o)),
        (["--kind", "nu"], qs.mock_theta_nu),
        (["--kind", "eo-star"], qs.eo_star_gf),
    ],
)
def test_series_named_kinds_print_their_coefficients(capsys, argv, build):
    assert main(["series", *argv, "--order", "40"]) == 0
    rows = [{"n": n, "coeff": c} for n, c in enumerate(build(40).scalar_coeffs())]
    assert capsys.readouterr().out == json.dumps(rows) + "\n"


def test_series_product_needs_its_params(capsys):
    rc = main(["series", "--kind", "product", "--b", "1", "--m", "2", "--order", "6"])
    assert rc == 2
    assert capsys.readouterr().err == "--kind product needs --a --b --m\n"


def test_order_cap_above_the_order_keeps_it(monkeypatch, capsys):
    monkeypatch.setenv("COPA_MAX_ORDER", "50")
    assert main(["series", "--kind", "nu", "--order", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [row["n"] for row in json.loads(captured.out)] == list(range(11))


def test_a_closed_stdout_ends_quietly(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    assert main(["series", "--kind", "nu", "--order", "10"]) == 0
    assert pipe.closed


# The paper's worked examples for cp111 and cp001, and one (1,1,2)
# copartition for the even-odd map: (map, input, its output, the inverse map,
# the inverse's output), each output as printed.
BIJECTION_EXAMPLES = [
    (
        "partition-to-cp111",
        {"partition": [8, 6, 5, 3], "ground_count": 5},
        {"copartition": {"a": 1, "b": 1, "m": 1, "ground": [3, 3, 3, 2, 2], "sky": [3, 1]},
         "input_size": 27, "output_size": 27, "size_ok": True},
        "cp111-to-partition",
        {"partition": [8, 6, 5, 3], "ground_count": 5,
         "input_size": 27, "output_size": 27, "size_ok": True},
    ),
    (
        "rim-cell-to-cp001",
        {"partition": [8, 6, 5, 5, 3, 3], "cell": [4, 4]},
        {"copartition": {"a": 0, "b": 0, "m": 1, "ground": [2, 2, 2, 0], "sky": [4, 2, 1, 1]},
         "input_size": 30, "output_size": 30, "size_ok": True},
        "cp001-to-rim-cell",
        {"partition": [8, 6, 5, 5, 3, 3], "cell": [4, 4],
         "input_size": 30, "output_size": 30, "size_ok": True},
    ),
    (
        "copartition-to-eo",
        {"a": 1, "b": 1, "m": 2, "ground": [3, 1, 1], "sky": [1]},
        {"partition": [7, 7, 6, 2, 2], "input_size": 12, "output_size": 24, "size_ok": True},
        "eo-to-copartition",
        {"copartition": {"a": 1, "b": 1, "m": 2, "ground": [3, 1, 1], "sky": [1]},
         "input_size": 24, "output_size": 12, "size_ok": True},
    ),
]


@pytest.mark.parametrize("name, doc, out, inverse, back", BIJECTION_EXAMPLES)
def test_bijection_worked_examples_and_their_inverses(capsys, name, doc, out, inverse, back):
    assert main(["bijection", name, "--input", json.dumps(doc)]) == 0
    assert capsys.readouterr().out == json.dumps(out) + "\n"
    image = out["copartition"] if "copartition" in out else {"partition": out["partition"]}
    assert main(["bijection", inverse, "--input", json.dumps(image)]) == 0
    assert capsys.readouterr().out == json.dumps(back) + "\n"
    # the inverse gives back the input
    given_back = back["copartition"] if "copartition" in back else {key: back[key] for key in doc}
    assert given_back == doc


def test_bijection_pair_to_copartition(capsys):
    rc = main(["bijection", "pair-to-copartition", "--input", PAIR_DOC])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["merged"] == [11, 7, 3]
    assert payload["copartition"]["ground"] == [9, 5, 5, 5, 1]
    assert payload["copartition"]["sky"] == [6, 6, 6, 2]
    assert payload["size_ok"] is True


def test_bijection_copartition_to_pair_stdin(monkeypatch, capsys):
    doc = json.dumps(
        {"merged": [11, 7, 3], "copartition": json.loads(COPARTITION_DOC)}
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    rc = main(["bijection", "copartition-to-pair", "--input", "-"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ground_source"] == [9, 5, 5, 5, 5, 1, 1, 1]
    assert payload["sky_source"] == [26, 26, 26, 22, 6, 6, 2]
    assert payload["match_table"] == [[3, 0], [7, 1], [11, 1]]
    assert payload["size_ok"] is True


def test_bijection_illustrate(capsys):
    rc = main(["bijection", "pair-to-copartition", "--input", PAIR_DOC,
               "--illustrate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "|" in out and "A" in out


def test_bijection_illustrate_wrong_map(capsys):
    rc = main(["bijection", "eo-to-copartition", "--input", '{"partition":[4]}',
               "--illustrate"])
    assert rc == 2


def test_bijection_unknown_name_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "no-such-map", "--input", "{}"])
    assert exc.value.code == 2


def test_bijection_missing_field_exit_2(capsys):
    rc = main(["bijection", "eo-to-copartition", "--input", '{"wrong":[]}'])
    assert rc == 2
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["render", "--input", '{"a":1,"b":2,"m":4,"ground":[9]}'],
         "malformed copartition object: {'a': 1, 'b': 2, 'm': 4, 'ground': [9]}"),
        (["render", "--input", "{not json"], "bad input (Expecting property name"),
        (["render", "--input", '{"a":1,"b":2,"m":4,"ground":"95","sky":[6]}'],
         "malformed copartition object: {'a': 1, 'b': 2, 'm': 4, 'ground': '95', 'sky': [6]}"),
        (["bijection", "eo-to-copartition", "--input", "[4]"],
         "bad input (input must be a JSON object)"),
        (["bijection", "eo-to-copartition", "--input", '{"partition":[4, "2"]}'],
         "bad input (partition must be a list of integers)"),
        (["bijection", "partition-to-cp111", "--input", '{"partition":[4],"ground_count":1.5}'],
         "bad input (ground_count must be an integer)"),
        (["bijection", "copartition-to-pair", "--input", '{"merged":[3],"copartition":[]}'],
         "malformed copartition object: []"),
        (["bijection", "copartition-to-pair", "--input", '{"merged":[3],"copartition":{"a":1}}'],
         "malformed copartition object: {'a': 1}"),
        (["bijection", "copartition-to-pair", "--input", '{"merged":[3]}'],
         "bad input ('copartition')"),
        (["bijection", "copartition-to-pair", "--input", '{"merged":[3],"copartition":5}'],
         "malformed copartition object: 5"),
        (["render", "--input", "[1]"], "bad input (input must be a JSON object)"),
        # nested past the decoder's depth, and an int past the digit limit
        (["render", "--input", "[" * 100000], "bad input (maximum recursion depth exceeded"),
        (["render", "--input", '{"a":' + "1" * 5000 + "}"],
         "bad input (Exceeds the limit (4300 digits)"),
    ],
)
def test_bad_json_input_exit_2(argv, detail, capsys):
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {detail}")


def test_fault_inside_a_map_is_not_bad_input(monkeypatch, capsys):
    import copa.bijections

    def broken(parts):
        raise TypeError("internal fault")

    # the handler reads the map from its module when it runs
    monkeypatch.setattr(copa.bijections, "eo_to_copartition", broken)
    with pytest.raises(TypeError, match="internal fault"):
        main(["bijection", "eo-to-copartition", "--input", '{"partition":[4]}'])
    assert "bad input" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["crank", "--a", "1", "--b", "1", "--m", "2", "--n", "4", "--mod", "0"],
         "modulus must be positive, got 0"),
        (["count", "--a", "-1", "--b", "1", "--m", "2", "--n", "4"],
         "classes must be non-negative, got (-1, 1)"),
        (["enumerate", "--a", "1", "--b", "1", "--m", "0", "--n", "4"],
         "modulus must be positive, got 0"),
        (["bijection", "partition-to-cp111", "--input", '{"partition":[2],"ground_count":-1}'],
         "ground count must be non-negative, got -1"),
        (["bijection", "rim-cell-to-cp001", "--input", '{"partition":[2],"cell":[2,1]}'],
         "(2, 1) is not a rim cell of [2]"),
        (["bijection", "cp001-to-rim-cell", "--input",
          '{"a":0,"b":0,"m":1,"ground":[],"sky":[1]}'],
         "b = 0 requires a nonempty ground"),
        (["verify", "scaling", "--s", "0"], "scale factor must be positive, got 0"),
    ],
)
def test_typed_errors_exit_2(argv, detail, capsys):
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {detail}\n"


def test_bad_order_cap_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("COPA_MAX_ORDER", "ten")
    rc = main(["verify", "mock-theta", "--order", "10"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad input (COPA_MAX_ORDER must be")


def test_bare_value_error_is_not_bad_input(monkeypatch, capsys):
    import copa.cli

    def broken(params, n, method="auto"):
        raise ValueError("internal fault")

    monkeypatch.setattr(copa.cli, "count_copartitions", broken)
    with pytest.raises(ValueError, match="internal fault") as exc:
        main(["count", "--a", "1", "--b", "1", "--m", "2", "--n", "4"])
    assert type(exc.value) is ValueError
    assert "error" not in capsys.readouterr().err


def test_crank_distribution(capsys):
    rc = main(["crank", "--a", "1", "--b", "1", "--m", "2", "--n", "4",
               "--mod", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modulus"] == 5
    assert payload["total"] == 5
    assert set(payload["counts"].values()) == {1}


def _fresh_call(argv: list[str]) -> subprocess.CompletedProcess:
    # The child does not see pytest's pythonpath setting: point it at the
    # source tree this copa was imported from.
    src = os.path.dirname(os.path.dirname(copa.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "copa.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _fresh_call(["count", "--a", "1", "--b", "3", "--m", "4", "--n", "12"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"


# A count, an argparse error, a CopaError, a listing and a suite.
_MIXED_CALLS = (
    ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "300"],
    ["count", "--a", "1", "--b", "1", "--m", "2"],
    ["count", "--a", "1", "--b", "1", "--m", "0", "--n", "4"],
    ["enumerate", "--a", "1", "--b", "3", "--m", "4", "--n", "12"],
    ["verify", "rr"],
)


def _untimed(err: str) -> str:
    # verify's "<suite>: 0.00s" lines on stderr are wall times
    return re.sub(r"(?m)^([\w-]+): \d+\.\d\ds$", r"\1: <time>", err)


def test_one_process_answers_every_call_as_a_fresh_process_does(capsys):
    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return out, _untimed(err), code

    # twice through, on the one parser the process builds
    got = [in_process(argv) for argv in _MIXED_CALLS * 2]
    assert copa.cli._build_parser.cache_info().currsize == 1
    fresh = [_fresh_call(argv) for argv in _MIXED_CALLS]
    want = [(p.stdout, _untimed(p.stderr), p.returncode) for p in fresh]
    assert got == want * 2
    assert [code for *_, code in want] == [0, 2, 2, 0, 0]
    assert "required: --n" in want[1][1] and want[2][1].startswith("error: ")
