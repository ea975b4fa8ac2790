"""Independent brute-force reference implementations.

Everything here is deliberately written from the definitions, with none
of the package's algorithmic shortcuts, so tests can freeze values that
two different programs agree on.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache


def brute_partition_count(n: int) -> int:
    """Coin-change DP over part sizes 1..n."""
    return _coin_change_table(n)[n] if n >= 0 else 0


@lru_cache(maxsize=None)
def _coin_change_table(top: int) -> tuple[int, ...]:
    """p(0), ..., p(top) by the coin-change DP over part sizes 1..top."""
    table = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            table[total] += table[total - part]
    return tuple(table)


def brute_partitions(n: int, max_part: int | None = None):
    """All partitions of n, parts weakly decreasing, as tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in brute_partitions(n - first, first):
            yield (first,) + rest


def reference_partition_statistics(n: int) -> tuple[int, ...]:
    """The fields of partitions.PartitionStatistics, in order, summed over
    one walk of brute_partitions(n): parts, largest part, perimeter
    (largest + parts - 1), ones, distinct sizes, and the multiplicity of
    the smallest part (spt)."""
    per_partition = [
        (len(lam), lam[0], lam[0] + len(lam) - 1, lam.count(1), len(set(lam)), lam.count(lam[-1]))
        for lam in brute_partitions(n)
        if lam
    ]
    return tuple(map(sum, zip(*per_partition))) if per_partition else (0,) * 6


def reference_bounded_partitions(total: int, max_parts: int, max_part: int):
    """Partitions of total with at most max_parts parts, each at most
    max_part, reverse-lexicographic: one recursive frame per part, each
    partition rebuilt by tuple concatenation on the way up.  Negative
    totals are out of its domain (it can yield a negative part there)."""
    if total == 0:
        yield ()
        return
    if max_parts <= 0 or max_part <= 0:
        return
    lo = -(-total // max_parts)  # ceil: smaller first parts cannot reach the total
    for first in range(min(total, max_part), lo - 1, -1):
        for rest in reference_bounded_partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def reference_progression_partitions(n: int, base: int, step: int, max_part: int):
    """Partitions of n with parts drawn from {base, base+step, ...}, each at
    most max_part, reverse-lexicographic: one recursive frame per part,
    largest first part first."""
    if n == 0:
        yield ()
        return
    if base > max_part or base > n or base <= 0:
        return
    top = base + ((min(n, max_part) - base) // step) * step
    for first in range(top, base - 1, -step):
        for rest in reference_progression_partitions(n - first, base, step, first):
            yield (first,) + rest


def reference_all_bounded(max_total: int, max_parts: int, max_part: int | None = None):
    """Every partition with sum at most max_total and at most max_parts
    parts (each at most max_part, if given), reverse-lexicographic with
    each prefix after its extensions, so the empty partition comes last."""
    if max_parts > 0:
        top = max_total if max_part is None else min(max_total, max_part)
        for first in range(top, 0, -1):
            for rest in reference_all_bounded(max_total - first, max_parts - 1, first):
                yield (first,) + rest
    yield ()


@lru_cache(maxsize=None)
def _class_partitions(total: int, count: int, base: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of `total` into exactly `count` parts, each in
    {base, base+m, base+2m, ...}, weakly decreasing.  Kept, since the brute
    copartition sweeps ask for the same ones at every size."""

    def rec(left: int, k: int, cap: int):
        if k == 0:
            if left == 0:
                yield ()
            return
        part = min(left - base * (k - 1), cap)
        part -= (part - base) % m
        while part >= base:
            for rest in rec(left - part, k - 1, part):
                yield (part,) + rest
            part -= m

    if count == 0:
        return ((),) if total == 0 else ()
    if base * count > total:
        return ()
    return tuple(rec(total, count, total))


def brute_copartitions(a: int, b: int, m: int, n: int) -> set[tuple[tuple, tuple]]:
    """Every (ground, sky) pair of size n, found by looping over part
    counts and splitting the size between the two components and the
    rectangle.  Zero parts enter only through base 0."""
    found = set()
    for w in range(2 * n + 2):
        if a * w > n:
            break
        for s in range(n + 2):
            if a * w + m * w * s + b * s > n:
                break
            if a == 0 and s == 0:
                continue
            if b == 0 and w == 0:
                continue
            rect = m * w * s
            for g in range(n - rect + 1):
                grounds = _class_partitions(g, w, a, m)
                if not grounds:
                    continue
                skies = _class_partitions(n - rect - g, s, b, m)
                for ground in grounds:
                    for sky in skies:
                        found.add((ground, sky))
    return found


@lru_cache(maxsize=None)
def brute_copartition_count(a: int, b: int, m: int, n: int) -> int:
    return len(brute_copartitions(a, b, m, n))


def poly_mul(p: dict[int, int], q: dict[int, int], order: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, ci in p.items():
        for j, cj in q.items():
            if i + j <= order:
                out[i + j] = out.get(i + j, 0) + ci * cj
    return {k: v for k, v in out.items() if v}


def poly_pochhammer(offset: int, step: int, order: int) -> dict[int, int]:
    """(q^offset; q^step)_inf truncated, by naive polynomial products."""
    out = {0: 1}
    e = offset
    while e <= order:
        out = poly_mul(out, {0: 1, e: -1}, order)
        e += step
    return out


def reference_pochhammer(
    row: list[int], offset: int, step: int, sign: int = 1, invert: bool = False
) -> list[int]:
    """row times (sign q^offset; q^step)_inf through its last entry, or row
    divided by it, one factor 1 - sign q^e at a time for e = offset,
    offset + step, ...: a product takes away sign times the row shifted by
    e, and a quotient adds, coin-change style, each way to take one more
    part e, with weight sign per part."""
    out = list(row)
    for e in range(offset, len(out), step):
        if invert:
            for n in range(e, len(out)):
                out[n] += out[n - e] if sign == 1 else -out[n - e]
        else:
            out[e:] = [u - sign * v for u, v in zip(out[e:], out)]
    return out


def reference_class_divisor_counts(b: int, m: int, top: int) -> list[int]:
    """The (0, b, m) closed form for n = 0..top read off its definition: over
    k with n - m k >= 0, p(k) times the divisors d of n - m k with d >= b
    and d = b (mod m), found by trial division; p from the coin-change
    table."""
    p = _coin_change_table(top)
    divisors = [sum(1 for d in range(b, v + 1, m) if v % d == 0) for v in range(top + 1)]
    return [sum(p[k] * divisors[n - m * k] for k in range(n // m + 1)) for n in range(top + 1)]


def _marked_mul(
    p: dict[tuple[int, int, int], int], q: dict[tuple[int, int, int], int], order: int
) -> dict[tuple[int, int, int], int]:
    # product of two polynomials in q, x, y keyed (q-degree, x-degree, y-degree),
    # truncated past q^order
    out: dict[tuple[int, int, int], int] = {}
    for (n, i, j), c in p.items():
        for (dn, di, dj), d in q.items():
            if n + dn <= order:
                key = (n + dn, i + di, j + dj)
                out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


def reference_marked_product(a: int, b: int, m: int, order: int) -> dict[tuple[int, int, int], int]:
    """(x y q^(a+b); q^m)_inf / ((x q^b; q^m)_inf (y q^a; q^m)_inf) through
    q^order, as {(n, sky count, ground count): c}: x marks sky parts, y ground
    parts.  Each numerator factor 1 - x y q^e is multiplied in as a two-term
    polynomial, and each reciprocal 1 / (1 - x q^e) or 1 / (1 - y q^e) as its
    geometric series, the sum over j of x^j q^(j e) or y^j q^(j e), truncated
    at the order."""
    out = {(0, 0, 0): 1}
    for e in range(a + b, order + 1, m):
        out = _marked_mul(out, {(0, 0, 0): 1, (e, 1, 1): -1}, order)
    for e in range(b, order + 1, m):
        out = _marked_mul(out, {(j * e, j, 0): 1 for j in range(order // e + 1)}, order)
    for e in range(a, order + 1, m):
        out = _marked_mul(out, {(j * e, 0, j): 1 for j in range(order // e + 1)}, order)
    return out


def brute_eo_star(n: int) -> list[tuple[int, ...]]:
    """Partitions where evens sit below odds, odd parts pair up, and
    only the largest even may appear an odd number of times."""
    keep = []
    for parts in brute_partitions(n):
        evens = [p for p in parts if p % 2 == 0]
        odds = [p for p in parts if p % 2 == 1]
        if evens and odds and max(evens) >= min(odds):
            continue
        if any(odds.count(v) % 2 for v in set(odds)):
            continue
        if evens:
            top = max(evens)
            if evens.count(top) % 2 == 0:
                continue
            if any(evens.count(v) % 2 for v in set(evens) if v != top):
                continue
        keep.append(parts)
    return keep


def reference_is_eo_star(parts: tuple[int, ...]) -> bool:
    """The even-odd membership test read off the definition, one rule at a
    time, for a valid partition: every even part below every odd part,
    odd parts of even multiplicity, the largest even part of odd
    multiplicity and every other even part of even multiplicity."""
    evens = [q for q in parts if q % 2 == 0]
    odds = [q for q in parts if q % 2 == 1]
    if evens and odds and max(evens) > min(odds):
        return False
    mult = Counter(parts)
    if any(mult[q] % 2 for q in set(odds)):
        return False
    if evens:
        top = max(evens)
        if mult[top] % 2 == 0:
            return False
        if any(mult[q] % 2 for q in set(evens) if q != top):
            return False
    return True


def reference_eo_partition(ground: tuple[int, ...], sky: tuple[int, ...]) -> tuple[int, ...]:
    """The even-odd image of a (1,1,2)-copartition read off its definition:
    every sky part fused with its rectangle row, s + 2 * len(ground), twice,
    and every column height of the ground doubled, put in order by a full
    sort."""
    w = len(ground)
    columns = [sum(1 for g in ground if g >= col) for col in range(1, max(ground, default=0) + 1)]
    parts = [s + 2 * w for s in sky for _ in range(2)] + [2 * h for h in columns]
    return tuple(sorted(parts, reverse=True))
