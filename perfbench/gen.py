"""Seeded request lists for the four workloads.

`make_requests(workload, seed, seconds, expected)` returns a list of
JSON-ready request dicts.  Each carries the inputs copa is called with and,
under "expect", the committed answer the worker checks the output against
once the request's timer has stopped.  The same (workload, seed, seconds)
always gives byte-identical requests.

A run is a whole number of rounds, run in one or more sessions.  A round
has a fixed composition: the
seed picks sizes and orders inside fixed strata and shuffles the order of
requests, so two seeds cost about the same and differ only in their inputs.
The strata widths are chosen so that the cache hit pattern does not depend on
the seed either (see the notes on each workload).
"""

from __future__ import annotations

import random

WORKLOADS = ("verify", "count", "refined", "stream")

# Seconds one round took when the benchmark was defined (2-vCPU x86 VM,
# Python 3.11); a run makes max(1, round(seconds / ROUND_SECONDS)) rounds, so
# its work is fixed for a given --seconds.  verify and count make one round at
# the benchmark's run length.
ROUND_SECONDS = {"verify": 27.0, "count": 12.0, "refined": 0.15, "stream": 0.45}
# A session runs in a fresh process, so it starts with empty caches.  refined
# runs its rounds in sessions of 40: every session builds the same product and
# double-sum orders and then hits its caches in the same pattern, and its
# median request stays a double-sum build (see the notes on refined).  A
# longer run adds sessions, which also gives the tail more samples.
SESSION_ROUNDS = {"refined": 40}

# --- verify: `copa verify all` ------------------------------------------------

SUITES = (
    "gf-triple", "phi", "eo-star", "cp111", "cp011", "cp001", "cp0bm",
    "rr", "theta-eta", "mock-theta", "scaling", "conjugation", "congruence", "crank",
)

# --- count: scalar queries, caches kept for the session -----------------------

COUNT_TRIPLES = (
    (1, 1, 1), (1, 1, 2), (1, 3, 4), (2, 3, 5), (1, 2, 4),
    (2, 1, 3), (0, 1, 1), (0, 2, 3), (2, 0, 3), (0, 1, 2),
)
# count_series caches one series per 64-wide chunk of n, so a chunk is the
# unit of series work: the seed picks n inside each chunk.
CHUNK = 64
COUNT_CHUNKS = (2, 6, 10)
# The cheap families also go to n ~ 1000.
TOP_CHUNK = 15
TOP_TRIPLES = ((0, 2, 3), (2, 0, 3), (0, 1, 2))
# Repeat queries land in a chunk some other query of the round also uses.
HITS_PER_TRIPLE = 1
FORMULA_TRIPLES = ((1, 1, 1), (0, 1, 1), (0, 2, 3), (2, 0, 3), (0, 1, 2))
# The scalar product kernel at every order of a narrow window, for three
# families of about the same cost there: 36 cache misses of nearly equal
# cost in the middle of the latency distribution, so the median request is a
# series build and steady from run to run.  The window holds no multiple of
# CHUNK, which count_series would have cached.
SCALAR_SERIES_TRIPLES = ((1, 1, 2), (2, 1, 3), (1, 2, 3))
SCALAR_SERIES_ORDERS = (210, 221)
CLASSICAL_KINDS = (
    "rr-G-sum", "rr-G-product", "rr-H-sum", "rr-H-product",
    "theta-1-2", "theta-2-3", "nu", "eo-star",
)
CLASSICAL_STRATA = ((120, 129), (320, 329), (560, 569))
# a = b = 0 goes through enumeration, exponential in n: narrow windows.
DEGENERATE_SIZES = {
    (0, 0, 1): (16, 17, 18),
    (0, 0, 2): (46, 48),
    (0, 0, 3): (57, 60),
    (0, 0, 4): (72, 76),
}
DEGENERATE_PER_FAMILY = 3
# Every CLI_EVERY-th plain count query goes through copa.cli.main.
CLI_EVERY = 5

# --- refined: bivariate series with markers, refined tables and crank tallies -

# Product orders come from a window as wide as it is long in rounds, walked in
# a seeded permutation: from PRODUCT_WINDOW rounds on every order of the window
# is built once and the rest are cache hits, whatever the seed.
REFINED_TRIPLES = ((1, 1, 2), (1, 2, 4), (1, 3, 4), (2, 3, 5))
PRODUCT_LOW = {(1, 1, 2): 40, (1, 2, 4): 62, (1, 3, 4): 66, (2, 3, 5): 76}
PRODUCT_WINDOW = 24
# Double sums build a new order every round, from the top of DSUM_ORDERS
# down, walked in a seeded permutation: the set of orders built depends only
# on the number of rounds, so the median request, which is a double-sum
# build, does not move with the seed.  That holds while a session's rounds
# stay between about 30 and 45: more rounds add more cache hits below the
# median than double-sum builds.
DSUM_ORDERS = (40, 100)
REFINED_N = (10, 30)
CRANK_MODULUS = 5

# --- stream: list every copartition of one family at one size -----------------

STREAM_FAMILIES = (
    ("eo", (1, 1, 2), (28, 32)),
    ("cp111", (1, 1, 1), (16, 19)),
    ("cp001", (0, 0, 1), (13, 15)),
    ("pair", (1, 2, 4), (58, 66)),
    ("pair", (1, 3, 4), (60, 68)),
    ("pair", (2, 3, 5), (84, 92)),
)
EO_STAR_SIZES = (24, 26, 28)
PARTITION_SIZES = (22, 26)
RENDER_SAMPLE = 3


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def triple_key(triple) -> str:
    return ",".join(map(str, triple))


def _verify(rng, rounds, exp):
    # One request is the whole pass, as one `copa verify all` call is.
    return [{"kind": "verify_all", "suites": list(SUITES),
             "expect": [exp["verify"][name] for name in SUITES]} for _ in range(rounds)]


def _count_query(kind, triple, n, exp):
    return {"kind": kind, "params": list(triple), "n": n,
            "expect": exp["counts"][triple_key(triple)][n]}


def _count_round(rng, exp):
    reqs = []
    in_chunk = lambda c: CHUNK * c + rng.randrange(CHUNK)
    for t in COUNT_TRIPLES:
        chunks = COUNT_CHUNKS + ((TOP_CHUNK,) if t in TOP_TRIPLES else ())
        for c in chunks:
            reqs.append(_count_query("count", t, in_chunk(c), exp))
        for _ in range(HITS_PER_TRIPLE):
            reqs.append(_count_query("count", t, in_chunk(rng.choice(chunks)), exp))
    for t in FORMULA_TRIPLES:
        reqs.append(_count_query("formula", t, in_chunk(rng.choice(COUNT_CHUNKS)), exp))
    for t in SCALAR_SERIES_TRIPLES:
        table = exp["counts"][triple_key(t)]
        for order in range(SCALAR_SERIES_ORDERS[0], SCALAR_SERIES_ORDERS[1] + 1):
            reqs.append({"kind": "scalar_series", "params": list(t), "order": order,
                         "expect": table[: order + 1]})
    for kind in CLASSICAL_KINDS:
        for lo, hi in CLASSICAL_STRATA:
            order = rng.randrange(lo, hi + 1)
            reqs.append({"kind": "classical", "series": kind, "order": order,
                         "expect": exp["classical"][kind][: order + 1]})
    for t, sizes in DEGENERATE_SIZES.items():
        for _ in range(DEGENERATE_PER_FAMILY):
            reqs.append(_count_query("degenerate", t, rng.choice(sizes), exp))
    rng.shuffle(reqs)
    plain = 0
    for r in reqs:
        if r["kind"] == "count":
            if plain % CLI_EVERY == 0:
                r["kind"] = "count_cli"
            plain += 1
    return reqs


def _count(rng, rounds, exp):
    return [r for _ in range(rounds) for r in _count_round(rng, exp)]


def _refined(rng, rounds, exp):
    perms = {t: rng.sample(range(PRODUCT_WINDOW), PRODUCT_WINDOW) for t in REFINED_TRIPLES}
    width = min(rounds, DSUM_ORDERS[1] - DSUM_ORDERS[0] + 1)
    dsums = {t: rng.sample(range(width), width) for t in REFINED_TRIPLES}
    reqs = []
    for r in range(rounds):
        block = []
        for t in REFINED_TRIPLES:
            key = triple_key(t)
            order = PRODUCT_LOW[t] + perms[t][r % PRODUCT_WINDOW]
            block.append({"kind": "product", "params": list(t), "order": order,
                          "expect": exp["refined"][key]["digests"][str(order)]})
            order = DSUM_ORDERS[1] - dsums[t][r % width]
            block.append({"kind": "double_sum", "params": list(t), "order": order,
                          "expect": exp["refined"][key]["digests"][str(order)]})
        # one refined table and one crank tally a round, the triple rotating
        t = REFINED_TRIPLES[r % len(REFINED_TRIPLES)]
        n = rng.randrange(REFINED_N[0], REFINED_N[1] + 1)
        block.append({"kind": "count_refined", "params": list(t), "n": n,
                      "expect": exp["refined"][triple_key(t)]["tables"][n]})
        t = REFINED_TRIPLES[(r + 1) % len(REFINED_TRIPLES)]
        n = rng.randrange(REFINED_N[0], REFINED_N[1] + 1)
        block.append({"kind": "crank_tally", "params": list(t), "n": n,
                      "modulus": CRANK_MODULUS,
                      "expect": exp["refined"][triple_key(t)]["cranks"][n]})
        rng.shuffle(block)
        reqs += block
    return reqs


def _merged_source(rng, triple):
    # A partition into parts congruent to a+b (mod m), at least a+b: the
    # combined parts the pair round trip carries along.
    a, b, m = triple
    parts = [a + b + m * rng.randrange(4) for _ in range(rng.randrange(4))]
    return sorted(parts, reverse=True)


def _stream(rng, rounds, exp):
    reqs = []
    for r in range(rounds):
        block = []
        for i, (family, t, (lo, hi)) in enumerate(STREAM_FAMILIES):
            n = rng.randrange(lo, hi + 1)
            count = exp["counts"][triple_key(t)][n]
            req = {"kind": "enumerate", "family": family, "params": list(t), "n": n,
                   "cli": i == r % len(STREAM_FAMILIES),
                   "render": sorted(rng.randrange(count) for _ in range(RENDER_SAMPLE)),
                   "expect": count}
            if family == "pair":
                req["merged"] = _merged_source(rng, t)
            block.append(req)
        n = rng.choice(EO_STAR_SIZES)
        block.append({"kind": "eo_star", "n": n, "expect": exp["eo_star"][n]})
        n = rng.randrange(PARTITION_SIZES[0], PARTITION_SIZES[1] + 1)
        block.append({"kind": "partitions", "n": n, "expect": exp["partitions"][n]})
        rng.shuffle(block)
        reqs += block
    return reqs


_MAKERS = {"verify": _verify, "count": _count, "refined": _refined, "stream": _stream}


def make_requests(workload: str, seed: int, seconds: float, expected: dict) -> list[dict]:
    """The request list of one run; request i has id i, and "session" says
    which fresh process runs it."""
    rng = random.Random(f"copa-bench/{workload}/{seed}")
    rounds = rounds_for(workload, seconds)
    per_session = SESSION_ROUNDS.get(workload, rounds)
    reqs = []
    for session, first in enumerate(range(0, rounds, per_session)):
        for r in _MAKERS[workload](rng, min(per_session, rounds - first), expected):
            r["session"] = session
            reqs.append(r)
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs
