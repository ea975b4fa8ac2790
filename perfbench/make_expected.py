"""Regenerate perfbench/expected.json, the answers the benchmark checks against.

Every value is stored only after two methods agree on it:

- counts: copa's series path against its closed form, or against its double
  sum where there is no closed form; copa's enumeration against a dense
  double sum written here for a = b = 0, which has neither;
- classical series: sum form against product form (Rogers-Ramanujan, theta);
  copa's nu against a dense expansion written here; the even-odd series
  against the (1,1,2) counts at half the exponent;
- refined series: bivariate product against double sum; refined tables and
  crank tallies from the series against copa's enumeration;
- partitions: copa's p(n) and listings against Euler's pentagonal recurrence;
- verify: every suite ok at default bounds, with its attempted count.

Run from the repository root:  python3 perfbench/make_expected.py
It takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import copa  # noqa: E402
from copa import series as qs  # noqa: E402

import gen  # noqa: E402
from checks import scalar_prefix, series_digest  # noqa: E402

ENUM_CHECK_MAX = 30


def dense_double_sum(a: int, b: int, m: int, top: int) -> list[int]:
    """Counts for n <= top from the double sum over (ground count w, sky
    count s), with the same floors as the generator: w >= [b = 0] and
    s >= [a = 0]."""
    inv = [[1] + [0] * top]  # inv[k] = 1 / (q^m; q^m)_k

    def inverse(k):
        while len(inv) <= k:
            t = m * len(inv)
            nxt = inv[-1][:]
            for i in range(t, top + 1):
                nxt[i] += nxt[i - t]
            inv.append(nxt)
        return inv[k]

    out = [0] * (top + 1)
    s0 = 1 if a == 0 else 0
    w = 1 if b == 0 else 0
    while a * w + (m * w + b) * s0 <= top:
        s = s0
        while (base := m * w * s + a * w + b * s) <= top:
            x, y = inverse(w), inverse(s)
            room = top - base
            for i in range(room + 1):
                if x[i]:
                    for j in range(room - i + 1):
                        out[base + i + j] += x[i] * y[j]
            s += 1
        w += 1
    return out


def dense_nu(top: int) -> list[int]:
    """Sum over n of q^(n^2+n) / (-q; q^2)_(n+1), on dense lists."""
    inv = [1] + [0] * top
    acc = [0] * (top + 1)
    n = 0
    while n * n + n <= top:
        t = 2 * n + 1
        for i in range(t, top + 1):
            inv[i] -= inv[i - t]
        e = n * n + n
        for i in range(top - e + 1):
            acc[i + e] += inv[i]
        n += 1
    return acc


def euler_partitions(top: int) -> list[int]:
    p = [1] + [0] * top
    for n in range(1, top + 1):
        k, total = 1, 0
        while (g := k * (3 * k - 1) // 2) <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - g]
            if (g2 := k * (3 * k + 1) // 2) <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def agree(label: str, x, y) -> None:
    if x != y:
        raise SystemExit(f"methods disagree: {label}")


def count_tops() -> dict[tuple, int]:
    tops: dict[tuple, int] = {}

    def need(t, n):
        tops[t] = max(tops.get(t, 0), n)

    for t in gen.COUNT_TRIPLES:
        chunks = gen.COUNT_CHUNKS + ((gen.TOP_CHUNK,) if t in gen.TOP_TRIPLES else ())
        need(t, gen.CHUNK * max(chunks) + gen.CHUNK - 1)
    for t in gen.SCALAR_SERIES_TRIPLES:
        need(t, gen.SCALAR_SERIES_ORDERS[1])
    for t, sizes in gen.DEGENERATE_SIZES.items():
        need(t, max(sizes))
    for _, t, (_, hi) in gen.STREAM_FAMILIES:
        need(t, hi)
    need((1, 1, 2), max(hi for _, hi in gen.CLASSICAL_STRATA) // 2)
    need((1, 1, 2), max(gen.EO_STAR_SIZES) // 2)
    return tops


def counts_for(t: tuple, top: int) -> list[int]:
    a, b, m = t
    enum = [copa.count_copartitions(t, n, "enum") for n in range(min(top, ENUM_CHECK_MAX) + 1)]
    if a == 0 and b == 0:
        values = [copa.count_copartitions(t, n) for n in range(top + 1)]
        agree(f"{t} enumeration vs dense double sum", values, dense_double_sum(a, b, m, top))
        if t == (0, 0, 1):
            agree(f"{t} closed form", values[1:], [copa.count_formula(t, n) for n in range(1, top + 1)])
        return values
    values = [copa.count_copartitions(t, n, "series") for n in range(top + 1)]
    try:
        other = [copa.count_formula(t, n) for n in range(top + 1)]
    except copa.NoClosedFormError:
        other = scalar_prefix(qs.gf_double_sum(t, top, markers=False), top)
    agree(f"{t} series vs closed form or double sum", values, other)
    agree(f"{t} series vs enumeration", values[: len(enum)], enum)
    return values


def classical(counts_112: list[int]) -> dict[str, list[int]]:
    top = max(hi for _, hi in gen.CLASSICAL_STRATA)
    out = {}
    for which in ("G", "H"):
        s = scalar_prefix(qs.rr_function(which, "sum", top), top)
        agree(f"rr {which}", s, scalar_prefix(qs.rr_function(which, "product", top), top))
        out[f"rr-{which}-sum"] = out[f"rr-{which}-product"] = s
    for x, y in ((1, 2), (2, 3)):
        s = scalar_prefix(qs.theta_sum(x, y, top), top)
        agree(f"theta {x},{y}", s, scalar_prefix(qs.theta_product(x, y, top), top))
        out[f"theta-{x}-{y}"] = s
    nu = scalar_prefix(qs.mock_theta_nu(top), top)
    agree("nu", nu, dense_nu(top))
    out["nu"] = nu
    eo = scalar_prefix(qs.eo_star_gf(top), top)
    agree("eo-star", eo, [0 if n % 2 else counts_112[n // 2] for n in range(top + 1)])
    out["eo-star"] = eo
    return out


def refined(t: tuple) -> dict:
    top = gen.DSUM_ORDERS[1]
    if top < gen.PRODUCT_LOW[t] + gen.PRODUCT_WINDOW - 1:
        raise SystemExit(f"{t}: product window reaches past order {top}")
    prod = qs.gf_product(t, top)
    dsum = qs.gf_double_sum(t, top)
    agree(f"{t} refined product vs double sum", prod.agrees_with(dsum), True)
    digests = {str(o): series_digest(prod, o) for o in range(gen.DSUM_ORDERS[0], top + 1)}
    tables, cranks = [], []
    for n in range(gen.REFINED_N[1] + 1):
        # x marks sky parts, y ground parts; tables are keyed (ground, sky)
        table = sorted([y, x, c] for (x, y), c in prod.coefficient(n).items() if c)
        agree(f"{t} refined table n={n}", table,
              sorted([w, s, c] for (w, s), c in copa.count_refined(t, n).table.items()))
        tally = [0] * gen.CRANK_MODULUS
        for w, s, c in table:
            tally[(w - s) % gen.CRANK_MODULUS] += c
        got = copa.crank_tally(t, n, gen.CRANK_MODULUS).counts
        agree(f"{t} crank n={n}", tally, [got[r] for r in range(gen.CRANK_MODULUS)])
        tables.append(table)
        cranks.append(tally)
    return {"digests": digests, "tables": tables, "cranks": cranks}


def main() -> None:
    counts = {}
    for t, top in sorted(count_tops().items()):
        print(f"counts {t} to n={top}", file=sys.stderr, flush=True)
        counts[gen.triple_key(t)] = counts_for(t, top)
    out = {"counts": counts, "classical": classical(counts["1,1,2"])}
    out["refined"] = {gen.triple_key(t): refined(t) for t in gen.REFINED_TRIPLES}
    eo_top = max(gen.EO_STAR_SIZES)
    eo = [len(copa.enumerate_eo_star(n)) for n in range(eo_top + 1)]
    agree("even-odd listing vs series", eo, out["classical"]["eo-star"][: eo_top + 1])
    out["eo_star"] = eo
    p_top = gen.PARTITION_SIZES[1]
    p = euler_partitions(p_top)
    agree("p(n)", p, [copa.partition_count(n) for n in range(p_top + 1)])
    agree("partition listings", p, [sum(1 for _ in copa.enumerate_partitions(n)) for n in range(p_top + 1)])
    out["partitions"] = p
    reports = copa.run_all()
    agree("verify all ok", all(r.ok for r in reports), True)
    out["verify"] = {r.suite: r.attempted for r in reports}
    agree("suite names", tuple(out["verify"]), gen.SUITES)
    text = json.dumps(out, separators=(",", ":"), sort_keys=True)
    (HERE / "expected.json").write_text(text + "\n")
    print(f"wrote {len(text)} bytes", file=sys.stderr)


if __name__ == "__main__":
    main()
