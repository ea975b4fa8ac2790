"""Integer partitions and the counting helpers built on them.

A partition is a plain tuple of non-increasing ints.  Ordinary partitions
have strictly positive parts; a few operations (padded shapes with a fixed
number of parts) deal in explicit zero parts, and such tuples compare
unequal to their stripped forms: (2,) != (2, 0).

Every part sequence the package takes in, a plain partition or a
copartition's ground or sky, goes through one check, _check_component: a
plain partition is the class 1 mod 1, with no zero parts.

Enumeration order everywhere is reverse-lexicographic on the part
sequences, so enumerate_partitions(4) yields (4,), (3,1), (2,2), (2,1,1),
(1,1,1,1).

Partitions with bounded parts come from one iterative walker,
_bounded_partitions, with an exact or an at-most sum.  Plain enumeration,
the copartition generator and the even-odd shapes all rest on it; counts
and statistics come from tables grown once per size, not from a walk.
"""

from __future__ import annotations

import threading
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .errors import DomainError, InvalidPartitionError, MinimumPartError, ResidueError, ZeroPartError

Partition = tuple[int, ...]


def _as_int(x: object, what: str, scalar: bool = False) -> int:
    """The package's one int rule, for parts, params, cells and counts: x
    is taken when it equals an int (6.0 as 6, True as 1).  Anything else
    (2.7, "3", None) raises InvalidPartitionError for a part, DomainError
    for a scalar."""
    if type(x) is int:
        return x
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    if scalar:
        raise DomainError(f"{what} {x!r} is not an integer")
    raise InvalidPartitionError(f"{what} {x!r} is not an integer")


def _check_component(parts: Sequence[int], cls: int, m: int, label: str) -> Partition:
    """The parts as a tuple of ints, checked to be non-increasing, congruent
    to cls (mod m) and at least cls; zero parts pass only when cls = 0.

    The package's one part-sequence check: a plain partition is class 1
    mod 1, a copartition's ground and sky are classes a and b mod m.  A
    part that is not an int is taken only when it equals one (6.0 as 6).
    A tuple of valid ints comes back as the same object.
    """
    t = tuple(parts)
    r = cls % m
    prev = t[0] if t else 0
    for p in t:
        if type(p) is not int or p > prev or p % m != r or p < cls:
            if type(p) is not int:
                return _check_component([_as_int(q, f"{label} part") for q in t], cls, m, label)
            if p > prev:
                raise InvalidPartitionError(f"{label} parts not non-increasing: {list(t)}")
            if p == 0:
                raise ZeroPartError(f"zero {label} part with class {cls}")
            if p % m != r:
                raise ResidueError(f"{label} part {p} not congruent to {cls} (mod {m})")
            raise MinimumPartError(f"{label} part {p} below {cls}")
        prev = p
    return t


def as_partition(parts: Sequence[int]) -> Partition:
    """The parts as a partition: positive ints, non-increasing."""
    return _check_component(parts, 1, 1, "partition")


# The operations on one plain partition check it with as_partition; the
# bijections, whose partitions are checked already, call the unchecked
# cores _conjugate and _is_rim_cell.


def conjugate(parts: Sequence[int]) -> Partition:
    """Transpose of the Young diagram: column lengths become parts."""
    return _conjugate(as_partition(parts))


def _conjugate(lam: Partition) -> Partition:
    # Columns lam[r] + 1 .. lam[r - 1] (1-based r, lam[n] = 0) have r cells.
    out: list[int] = []
    padded = (*lam, 0)
    for r in range(len(lam), 0, -1):
        out += [r] * (padded[r - 1] - padded[r])
    return tuple(out)


def diversity(parts: Sequence[int]) -> int:
    """Number of distinct values among the parts."""
    return len(set(as_partition(parts)))


def perimeter(parts: Sequence[int]) -> int:
    """Largest part plus number of parts minus one; 0 for the empty partition."""
    lam = as_partition(parts)
    return lam[0] + len(lam) - 1 if lam else 0


def rim_cells(parts: Sequence[int]) -> list[tuple[int, int]]:
    """Cells (row, col), 1-based, with no cell diagonally below and right.

    Walks the south-east boundary from the top-right cell to the bottom-left
    cell; the number of rim cells equals perimeter(parts).
    """
    lam = as_partition(parts)
    cells: list[tuple[int, int]] = []
    n = len(lam)
    for i in range(1, n + 1):
        below = lam[i] if i < n else 0
        for j in range(lam[i - 1], max(below, 1) - 1, -1):
            cells.append((i, j))
    return cells


def _as_cell(cell: Sequence[int]) -> tuple[int, ...]:
    try:
        return tuple(_as_int(x, "cell coordinate", scalar=True) for x in cell)
    except TypeError:  # not iterable; _as_int raises only DomainError
        raise DomainError(f"cell {cell!r} is not a sequence") from None


def is_rim_cell(parts: Sequence[int], cell: tuple[int, int]) -> bool:
    """Whether cell is in rim_cells(parts), without listing the rim."""
    return _is_rim_cell(as_partition(parts), _as_cell(cell))


def _is_rim_cell(lam: Partition, cell: tuple[int, ...]) -> bool:
    # row i exists and j runs from the part below it (at least 1) up to its own
    if len(cell) != 2:
        return False
    i, j = cell
    n = len(lam)
    return 1 <= i <= n and max(lam[i] if i < n else 0, 1) <= j <= lam[i - 1]


def _fill(parts: list[int], v: int, budget: int, slots: int) -> int:
    # Append the largest run of at most `slots` parts, each <= v, summing to
    # at most `budget`; return what is left of the budget.
    q, r = divmod(budget, v)
    if q >= slots:
        parts += [v] * slots
        return budget - v * slots
    parts += [v] * q
    if r:
        parts.append(r)
    return 0


def _bounded_partitions(
    total: int, max_parts: int, max_part: int, at_most: bool = False
) -> Iterator[Partition]:
    """Partitions with at most max_parts parts, each at most max_part, that
    sum to total (with at_most: to at most total), in reverse-lex order.

    One list of parts is walked in place and each step yields a tuple of
    it, so a partition with k parts costs O(k).  An exact sum below 0 has
    no partition and a sum of 0 has only ().  With at_most every prefix
    follows its extensions and the walk always ends with ().
    """
    if not at_most and (total <= 0 or max_parts <= 0 or max_part <= 0):
        if total == 0:
            yield ()
        return
    parts: list[int] = []
    left = total  # the budget not in parts
    if total > 0 and max_parts > 0 and max_part > 0:
        left = _fill(parts, min(total, max_part), total, max_parts)
    if at_most:
        while True:
            yield tuple(parts)
            if not parts:
                return
            # The last part drops by one; a part that reaches 0 is removed
            # and its prefix, whose extensions all came before, is next.
            left += 1
            v = parts.pop() - 1
            if v:
                parts.append(v)
                left = _fill(parts, v, left, max_parts - len(parts))
    if left:
        return  # total does not fit in max_parts parts of at most max_part
    i = 0
    while True:
        yield tuple(parts)
        # Lower the rightmost part that can drop by one, to v, with what
        # follows it (rest - v) still fitting in the slots after it at
        # parts of at most v; trailing 1s never can, so start before them.
        i = (parts.index(1, i) if parts[-1] == 1 else len(parts)) - 1
        rest = len(parts) - 1 - i
        while True:
            if i < 0:
                return
            v = parts[i] - 1
            rest += v + 1
            if rest - v <= (max_parts - 1 - i) * v:
                break
            i -= 1
        q, r = divmod(rest, v)
        parts[i:] = [v] * q
        if r:
            parts.append(r)


ENUM_MAX_N = 1000  # the enumerated side's ceiling: its tables hold O(n^2) big ints
_tables_lock = threading.Lock()  # guards the growth of _p_cache, _pentagonal, _by_parts, _by_least
_by_parts: list[list[int]] = [[1]]


def _bounded_counts(max_total: int) -> list[list[int]]:
    """Row k, for k = 0..max_total at least, holds p(k, <= j), the partitions
    of k into at most j parts, for j = 0..k, by p(k, <= j) = p(k, <= j-1) +
    p(k-j, <= j): 1 off each part of one with exactly j parts leaves one of
    k - j into at most j.  Grown once per k and shared: do not mutate it.
    """
    with _tables_lock:
        while len(_by_parts) <= max_total:
            k = len(_by_parts)
            row = [0]
            for j in range(1, k + 1):
                row.append(row[-1] + _by_parts[k - j][min(j, k - j)])
            _by_parts.append(row)
    return _by_parts


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, reverse-lexicographic."""
    n = _as_int(n, "size", scalar=True)
    if n < 0:
        raise InvalidPartitionError(f"cannot partition {n}")
    return _bounded_partitions(n, n, n)


_p_cache = [1]
# The generalized pentagonal numbers j(3j - 1)/2 and j(3j + 1)/2, j >= 1,
# that p's recurrence has reached, ascending, each joining at the k equal to
# it: the offsets of odd j add p(k - g), those of even j subtract it.
_pentagonal: tuple[list[int], list[int]] = ([], [])


def _partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n) at least, grown once per size and shared: do not
    mutate it."""
    with _tables_lock:
        p, (adds, subs) = _p_cache, _pentagonal
        while len(p) <= n:
            k = len(p)
            i = len(adds) + len(subs)
            j = i // 2 + 1
            if (g := j * (3 * j - 1 + 2 * (i % 2)) // 2) <= k:
                (adds if j % 2 else subs).append(g)
            p.append(sum([p[k - g] for g in adds]) - sum([p[k - g] for g in subs]))
    return p


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (exact, memoized)."""
    n = _as_int(n, "size", scalar=True)
    if n < 0:
        raise InvalidPartitionError(f"p({n}) undefined")
    return _p_cache[n] if n < len(_p_cache) else _partition_counts(n)[n]


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def divisor_count_in_class(n: int, residue: int, modulus: int) -> int:
    """Number of divisors of n congruent to residue (mod modulus)."""
    n, residue, modulus = (_as_int(x, "argument", scalar=True) for x in (n, residue, modulus))
    if n < 1:
        raise DomainError(f"divisor count of {n} undefined")
    if modulus < 1:
        raise DomainError(f"modulus must be positive, got {modulus}")
    return sum(d % modulus == residue % modulus for d in _divisors(n))


class PartitionStatistics(NamedTuple):
    """Aggregates over all partitions of one n."""

    total_parts: int
    sum_largest_parts: int
    sum_perimeters: int
    parts_of_size_one: int
    diversity_sum: int
    spt: int


# Row k, column v (1 <= v <= k + 1): (count, parts, distinct sizes, largest
# parts, copies of v) over the partitions of k with every part at least v;
# column k + 1 holds only (), whose largest part an added v becomes.
_by_least: list[list[tuple[int, ...]]] = [[(0,) * 5, (1, 0, 0, 0, 0)]]


def partition_statistics(n: int) -> PartitionStatistics:
    """Sums over the partitions of n <= ENUM_MAX_N (DomainError above); spt
    sums each one's multiplicity of its smallest part.  All are 0 at n = 0."""
    n = _as_int(n, "size", scalar=True)
    if n < 0:
        raise InvalidPartitionError(f"cannot partition {n}")
    if n > ENUM_MAX_N:
        raise DomainError(f"partition statistics need n <= {ENUM_MAX_N}, got {n}")
    with _tables_lock:
        while len(_by_least) <= n:
            k = len(_by_least)
            row = [(0,) * 5] * (k + 2)
            for v in range(k, 0, -1):
                # column v + 1 (no v), plus column v of row k - v with one more v
                rest = _by_least[k - v]
                c, parts, distinct, largest, copies = rest[min(v, k - v + 1)]
                no_v = rest[min(v + 1, k - v + 1)][0]  # these gain a distinct size
                with_v = (c, parts + c, distinct + no_v, largest + (v if v == k else 0))
                row[v] = (*map(add, row[v + 1], with_v), copies + c)
            _by_least.append(row)
    count, parts, distinct, largest, ones = _by_least[n][1]
    spt = sum(cell[4] for cell in _by_least[n])  # over v, the copies of v in column v
    return PartitionStatistics(parts, largest, largest + parts - count if n else 0, ones, distinct, spt)
