"""Exhaustive generation and counting of copartitions.

The generator is the ground truth the series engine and the closed forms
are tested against.  Output order is deterministic: blocks ascend by
(ground count, sky count), and inside a block pairs descend
reverse-lexicographically by ground, then by sky.

By default, counts, refined tables and crank tallies come from the series
engine: the (w, s) term of the marked double sum is exactly the block of
ground count w and sky count s, so the coefficient of q^n in
gf_double_sum(params, n) is the refined table, and its entries summed by
w - s mod k are the crank tally.  method="enum", the independent side the
verify suites check the series against, counts the same blocks without
listing an object.

One walk, _blocks, yields the blocks of a size, and the generator expands
each through the walker partitions._bounded_partitions: the ground of a
block with a sky runs over the sums at most its total, every other
component over one exact sum.  The counters take those iterators' sizes
from p(k, <= j), the partitions of k into at most j parts
(partitions._bounded_counts), a recurrence that tests pin to the walker and
that shares nothing with the series engine.  Its rows hold O(n^2) big
ints, so method="enum" stops at n = ENUM_MAX_N.

The walker's components are valid by construction: non-increasing, in
their class and at least its least part, and nonempty where a degenerate
class needs it.  So the generator builds its objects without re-checking
them (copartitions._built_valid), as the bijections do for the images they
compute from checked arguments; every public constructor still checks.

Inside a block with a sky, the skies depend only on what the ground leaves
over, so the walker builds the sky rows of each leftover once and shares
them among the grounds that leave it.  The rows live for that block only,
one tuple per distinct sky of the block: at most 5,353 at a time for the
215,308 objects of (1,1,1) at n = 40, and 530 for the 12,340 of (1,2,4) at
n = 100.

A block's count depends only on its shape (ground and sky counts capped at
the total, and the total), so one bounded memo serves every family.
"""

from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from .copartitions import Copartition, CopartitionParams, ParamsLike, _built_valid, coerce_params
from .errors import DomainError, NoClosedFormError
from .partitions import (
    ENUM_MAX_N,
    _as_int,
    _bounded_counts,
    _bounded_partitions,
    _partition_counts,
    partition_count,
)
from .series import count_series, gf_double_sum


def _blocks(p: CopartitionParams, n: int) -> Iterator[tuple[int, int, int]]:
    # The blocks of size n in output order: (ground count w, sky count s,
    # total), where total is what the shifted parts (part - class) / m sum to.
    a, b, m = p
    w = 1 if b == 0 else 0
    s_min = 1 if a == 0 else 0
    while a * w + (m * w + b) * s_min <= n:
        s = s_min
        while True:
            rest = n - a * w - (m * w + b) * s
            if rest < 0:
                break
            if rest % m == 0:
                yield w, s, rest // m
            s += 1
        w += 1


def enumerate_copartitions(params: ParamsLike, n: int) -> Iterator[Copartition]:
    """All copartitions of size n for the given parameters.  The params and
    the size are checked at the call, not at the first next()."""
    return _copartitions(coerce_params(params), _as_int(n, "size", scalar=True))


def _copartitions(p: CopartitionParams, n: int) -> Iterator[Copartition]:
    a, b, m = p
    if n < 0:
        return
    for w, s, total in _blocks(p, n):
        if s == 0:
            for t in _bounded_partitions(total, w, total):
                yield _built_valid(p, tuple(a + m * ti for ti in t + (0,) * (w - len(t))), ())
            continue
        skies: dict[int, list[tuple[int, ...]]] = {}
        for t in _bounded_partitions(total, w, total, at_most=True):
            ground = tuple(a + m * ti for ti in t + (0,) * (w - len(t)))
            left = total - sum(t)
            rows = skies.get(left)
            if rows is None:
                rows = skies[left] = [
                    tuple(b + m * ui for ui in u + (0,) * (s - len(u)))
                    for u in _bounded_partitions(left, s, left)
                ]
            for sky in rows:
                yield _built_valid(p, ground, sky)


@lru_cache(maxsize=4096)
def _block_count(w: int, s: int, total: int) -> int:
    # How many copartitions enumerate_copartitions expands the block to:
    # the sky iterator depends only on what the ground leaves over.
    # Callers pass the shape key, w and s capped at total (s = 0 stays 0).
    rows = _bounded_counts(total)
    if s == 0:
        return rows[total][min(w, total)]
    return sum(rows[k][min(w, k)] * rows[total - k][min(s, total - k)] for k in range(total + 1))


class RefinedCount(NamedTuple):
    """Counts of copartitions of n split by (ground count, sky count)."""

    params: CopartitionParams
    n: int
    table: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.table.values())


class CrankTally(NamedTuple):
    """Crank residues (mod modulus) with exact counts, zero-filled."""

    modulus: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@lru_cache(maxsize=8192)
def _refined_table(p: CopartitionParams, n: int) -> dict[tuple[int, int], int]:
    """Table (w,s) -> count at n.  Each block of enumerate_copartitions is
    counted from the sizes of the iterators it would expand, without
    building its objects.  Callers must not mutate the returned dict."""
    if n > ENUM_MAX_N:
        raise DomainError(f"method 'enum' counts n <= {ENUM_MAX_N}, got {n}; use method 'series'")
    table: dict[tuple[int, int], int] = {}
    for w, s, total in _blocks(p, n):
        count = _block_count(min(w, total), min(s, total) if s else 0, total)
        if count:
            table[(w, s)] = count
    return table


def _cells(p: CopartitionParams, n: int, method: str) -> Iterable[tuple[tuple[int, int], int]]:
    # ((w, s), count) for the nonzero blocks of size n >= 0, in no set order
    if method in ("auto", "series"):
        # the key (s, w) of the marked double sum is the block of w ground
        # and s sky parts
        return (((w, s), c) for (s, w), c in gf_double_sum(p, n).coefficient(n).items())
    if method == "enum":
        return _refined_table(p, n).items()
    raise DomainError(f"unknown method {method!r}")


def count_refined(params: ParamsLike, n: int, method: str = "auto") -> RefinedCount:
    """Counts of copartitions of n by (ground count, sky count), nonzero
    entries only, keyed (w, s) in ascending order; empty for n < 0.

    method "auto" or "series" reads the marked double sum, "enum" counts the
    enumeration blocks without building objects.
    """
    p = coerce_params(params)
    n = _as_int(n, "size", scalar=True)
    if n < 0:
        return RefinedCount(p, n, {})
    if method == "enum":  # its blocks come in (w, s) order
        return RefinedCount(p, n, dict(_refined_table(p, n)))
    return RefinedCount(p, n, dict(sorted(_cells(p, n, method))))


def crank_tally(params: ParamsLike, n: int, modulus: int, method: str = "auto") -> CrankTally:
    """Tally crank residues over all copartitions of n.

    The crank is the ground count minus the sky count, so the tally is the
    blocks of count_refined(params, n, method) summed by w - s, read
    without ordering them.
    """
    n = _as_int(n, "size", scalar=True)
    modulus = _as_int(modulus, "modulus", scalar=True)
    if modulus < 1:
        raise DomainError(f"modulus must be positive, got {modulus}")
    p = coerce_params(params)
    counts = {r: 0 for r in range(modulus)}
    if n >= 0:
        for (w, s), c in _cells(p, n, method):
            counts[(w - s) % modulus] += c
    return CrankTally(modulus, counts)


def count_formula(params: ParamsLike, n: int) -> int:
    """Closed-form counts for the families that have one.

    (1,1,1): partial sums of p.  (0,b,m): a partition-divisor convolution,
    over the divisors that could be a sky part (in the class, at least b).
    (0,0,1): twice the (0,1,1) value minus p(n).  Anything else raises.
    """
    p = coerce_params(params)
    n = _as_int(n, "size", scalar=True)
    if n < 0:
        return 0
    a, b, m = p
    if (a, b, m) == (1, 1, 1):
        return sum(_partition_counts(n)[: n + 1])
    if a == 0 and b >= 1:
        # hits[v] counts the divisors of v in the class, at least b: one
        # sieve over the divisors d, each marking its multiples
        hits = [0] * (n + 1)
        for d in range(b, n + 1, m):
            for v in range(d, n + 1, d):
                hits[v] += 1
        return sum(map(mul, _partition_counts(n // m), hits[n::-m]))
    if b == 0 and a >= 1:
        return count_formula((0, a, m), n)
    if (a, b, m) == (0, 0, 1):
        if n == 0:
            # the perimeter identity reads -1 here (empty partition)
            return 0
        return 2 * count_formula((0, 1, 1), n) - partition_count(n)
    raise NoClosedFormError(f"no closed form for ({a},{b},{m})")


def count_copartitions(params: ParamsLike, n: int, method: str = "auto") -> int:
    """Count copartitions of n.

    method "enum" sums the refined table (the generator's blocks, counted
    without building objects), "series" reads a generating-function
    coefficient, "formula" uses count_formula, and "auto" is "series", which
    covers every family.
    """
    p = coerce_params(params)
    if method in ("auto", "series"):
        return count_series(p, n)
    n = _as_int(n, "size", scalar=True)
    if n < 0:
        return 0
    if method == "enum":
        return sum(_refined_table(p, n).values())
    if method == "formula":
        return count_formula(p, n)
    raise DomainError(f"unknown method {method!r}")
