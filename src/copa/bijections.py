"""Executable bijections with exact inverses.

Four families: merging a congruence-restricted pair of partitions into a
leftover partition plus a copartition, the even-odd correspondence for
(1,1,2), the threshold-split map for (1,1,1), and the rim-cell map for
(0,0,1).  Every map checks its arguments once (partitions._check_component)
and nothing it computes: each image is valid and of the right size by the
theorem the map implements, so its copartitions are built without a
re-check (copartitions._built_valid).  The theorems are checked where
checks belong: the phi, eo-star, cp111 and cp001 suites and the tests run
every round trip and compare every image set with the enumeration.

Indexing follows the usual convention for partitions: parts are 1-based,
largest first.
"""

from itertools import groupby
from typing import Sequence

from .copartitions import (
    Copartition, CopartitionParams, ParamsLike, _built_valid, _unfuse, coerce_params, enlarged_sky,
)
from .diagrams import render_ascii
from .errors import CopaError, DomainError, InvalidPartitionError, NotEOStarError
from .partitions import (
    Partition, _as_cell, _as_int, _bounded_partitions, _check_component, _conjugate, _is_rim_cell,
    as_partition,
)

# The fixed families of the last three maps, shared with every other caller.
_EO = coerce_params((1, 1, 2))
_CP111 = coerce_params((1, 1, 1))
_CP001 = coerce_params((0, 0, 1))


def pair_to_copartition(
    ground_source: Sequence[int], sky_source: Sequence[int], params: ParamsLike
) -> tuple[Partition, Copartition]:
    """Merge a pair into a partition of combined parts plus a copartition.

    ground_source has parts congruent to a and at least a; sky_source has
    parts congruent to b and at least b.  A threshold index k splits the
    sky source: parts from k on are each fused with a distinct ground part
    into the combined class (congruent to a+b), parts before k become the
    enlarged sky, and the unmatched ground parts become the ground.  Total
    size is preserved.
    """
    return _merge(ground_source, sky_source, coerce_params(params))[2:]


def _merge(
    ground_source: Sequence[int], sky_source: Sequence[int], p: CopartitionParams
) -> tuple[Partition, Partition, Partition, Copartition]:
    # The checked sources too, which render_pair_merge draws.
    a, b, m = p
    if a < 1 or b < 1:
        raise CopaError(f"pair merge needs a, b >= 1, got ({a},{b},{m})")
    pi = _check_component(ground_source, a, m, "ground source")
    lam = _check_component(sky_source, b, m, "sky source")
    np_, nl = len(pi), len(lam)
    k = nl + 1
    for cand in range(1, nl + 1):
        # the left side is strictly decreasing in the candidate index
        if (lam[cand - 1] - b) // m + nl - cand < np_:
            k = cand
            break
    merged: list[int] = []
    unmatched: list[int] = []
    done = 0  # pi[:done] is placed: matched or unmatched
    for j in range(k, nl + 1):
        # the matched index i rises strictly with j (lam is non-increasing),
        # so the ground parts between two matches are one run of pi
        i = np_ - (nl - j) - (lam[j - 1] - b) // m
        unmatched += pi[done : i - 1]
        done = i
        merged.append(lam[j - 1] + pi[i - 1])
    ground = tuple(unmatched) + pi[done:]
    # ground is a sub-tuple of the checked pi, and the sky a prefix of the
    # checked lam less m * len(ground), its floor checked by _unfuse
    return pi, lam, tuple(merged), _built_valid(p, ground, _unfuse(lam[: k - 1], len(ground), p))


def _inverse_steps(merged: Partition, c: Copartition) -> list[tuple[int, int]]:
    """Rows (combined part, chosen offset) in processing order, smallest
    combined part first.

    For each combined part the offset is the smallest j >= 0 such that the
    part minus (m*j + b) fits at or below the j-th smallest ground part;
    j = number of ground parts is always allowed (nothing above to fit
    under), which stands in for an unbounded top comparison.  Offsets are
    chosen against the copartition's original ground throughout.
    """
    _, b, m = c.params
    gamma = c.ground
    ng = len(gamma)
    rows = []
    for val in reversed(merged):
        jk = ng
        for j in range(ng):
            if val - m * j - b <= gamma[ng - 1 - j]:
                jk = j
                break
        rows.append((val, jk))
    return rows


def copartition_to_pair(
    merged: Sequence[int], copartition: Copartition
) -> tuple[Partition, Partition]:
    """Exact inverse of pair_to_copartition.

    Each combined part splits into a ground piece and a sky piece at the
    offset from _inverse_steps; the pieces join the copartition's ground
    and enlarged sky, and the two piles are the original pair.
    """
    c = copartition
    a, b, m = c.params
    if a < 1 or b < 1:
        raise CopaError(f"pair split needs a, b >= 1, got ({a},{b},{m})")
    mu = _check_component(merged, a + b, m, "combined")
    ground_pile = list(c.ground)
    sky_pile = list(enlarged_sky(c))
    for val, jk in _inverse_steps(mu, c):
        piece = m * jk + b
        sky_pile.append(piece)
        ground_pile.append(val - piece)
    return tuple(sorted(ground_pile, reverse=True)), tuple(sorted(sky_pile, reverse=True))


def inverse_match_table(merged: Sequence[int], copartition: Copartition) -> list[tuple[int, int]]:
    """The (combined part, offset) trace of copartition_to_pair."""
    mu = _check_component(merged, copartition.a + copartition.b, copartition.m, "combined")
    return _inverse_steps(mu, copartition)


def is_eo_star(parts: Sequence[int]) -> bool:
    """Membership test for even-odd partitions.

    Every even part is smaller than every odd part; every odd part has
    even multiplicity; if even parts exist, the largest even part has odd
    multiplicity and all other even parts have even multiplicity.  With no
    even parts the multiplicity rule on odd parts is all that remains.
    """
    return _eo_split(as_partition(parts)) is not None


def _eo_split(lam: Partition) -> tuple[list[int], list[int]] | None:
    # One pass over the runs of equal parts of a checked partition, largest
    # first: None off the even-odd shape, else the odd parts at half their
    # multiplicity and the even parts halved, both non-increasing.
    odds: list[int] = []
    evens: list[int] = []
    for q, run in groupby(lam):
        mult = len(tuple(run))
        if q % 2:
            if evens or mult % 2:
                return None
            odds += [q] * (mult // 2)
        else:
            # the first even run is the largest even part: odd multiplicity
            # there, even multiplicity below
            if mult % 2 == bool(evens):
                return None
            evens += [q // 2] * mult
    return odds, evens


def enumerate_eo_star(n: int) -> list[Partition]:
    """All even-odd partitions of n, reverse-lexicographic.

    Built from their shape, largest candidate first, instead of testing
    every partition of n: pairs (v, v) of odd parts, then optionally the
    largest even part 2t once, then pairs (2u, 2u) with u <= t.
    Independent of the copartition machinery on purpose.
    """
    if n < 0:
        raise InvalidPartitionError(f"cannot partition {n}")
    out: list[Partition] = []

    def extend(prefix: Partition, rest: int, top: int) -> None:
        # top: the last odd part placed (n at the start); nothing larger follows
        if rest == 0:
            out.append(prefix)
            return
        for v in range(min(top, rest), 0, -1):
            if v % 2:
                if 2 * v <= rest:
                    extend(prefix + (v, v), rest - 2 * v, v)
            elif (rest - v) % 4 == 0:
                quarter = (rest - v) // 4
                for tail in _bounded_partitions(quarter, quarter, v // 2):
                    out.append(prefix + (v,) + tuple(x for u in tail for x in (2 * u, 2 * u)))

    extend((), n, n)
    return out


def eo_crank(parts: Sequence[int]) -> int:
    """Largest even part (0 if none) minus the number of odd parts."""
    lam = as_partition(parts)
    evens = [q for q in lam if q % 2 == 0]
    odds = [q for q in lam if q % 2 == 1]
    return (max(evens) if evens else 0) - len(odds)


def copartition_to_eo(c: Copartition) -> Partition:
    """Double a (1,1,2)-copartition into an even-odd partition.

    Each enlarged-sky part appears twice (the odd block); the ground's
    conjugate doubles into the even block.  Size doubles.
    """
    if c.params != (1, 1, 2):
        raise CopaError(f"even-odd map needs params (1,1,2), got {tuple(c.params)}")
    # Each enlarged-sky part is odd and at least 2w + 1 (w ground parts),
    # each doubled conjugate part even and at most 2w, so the odd block
    # followed by the even block is already non-increasing: no sort.
    block: list[int] = []
    for f in enlarged_sky(c):
        block += [f, f]
    block += [2 * q for q in _conjugate(c.ground)]
    return tuple(block)


def eo_to_copartition(parts: Sequence[int]) -> Copartition:
    """Halve an even-odd partition back into a (1,1,2)-copartition."""
    lam = as_partition(parts)
    split = _eo_split(lam)
    if split is None:
        raise NotEOStarError(f"not an even-odd partition: {list(lam)}")
    fused, halves = split
    ground = _conjugate(halves)
    return _built_valid(_EO, ground, _unfuse(fused, len(ground), _EO))


def partition_to_cp111(parts: Sequence[int], ground_count: int) -> Copartition:
    """Pair (partition, count k) to a (1,1,1)-copartition with k ground parts.

    Parts larger than k become the enlarged sky; k stacked on the remaining
    parts conjugates into the ground.  The image has size |parts| + k.
    """
    lam = as_partition(parts)
    k = _as_int(ground_count, "ground count", scalar=True)
    if k < 0:
        raise DomainError(f"ground count must be non-negative, got {k}")
    j = next((idx for idx, q in enumerate(lam, start=1) if q <= k), len(lam) + 1)
    # with k = 0 no part is at most k, so the tail and the ground are empty
    ground = _conjugate((k,) + lam[j - 1 :]) if k else ()
    return _built_valid(_CP111, ground, _unfuse(lam[: j - 1], k, _CP111))


def cp111_to_partition(c: Copartition) -> tuple[Partition, int]:
    """Exact inverse of partition_to_cp111; the count is the ground size."""
    if c.params != (1, 1, 1):
        raise CopaError(f"threshold map needs params (1,1,1), got {tuple(c.params)}")
    return enlarged_sky(c) + _conjugate(c.ground)[1:], len(c.ground)


def rim_cell_to_cp001(parts: Sequence[int], cell: tuple[int, int]) -> Copartition:
    """Partition with a marked rim cell to a (0,0,1)-copartition.

    For the cell (i, j): rows 1..i lose their first j columns and become
    the sky (zero parts kept), rows below conjugate into the ground padded
    with zeros to exactly j parts, and the i-by-j block they framed is the
    derived rectangle.  Size is preserved.
    """
    lam = as_partition(parts)
    cell = _as_cell(cell)
    if not _is_rim_cell(lam, cell):
        raise CopaError(f"{cell} is not a rim cell of {list(lam)}")
    i, j = cell
    cols = _conjugate(lam[i:])
    return _built_valid(_CP001, cols + (0,) * (j - len(cols)), tuple(q - j for q in lam[:i]))


def cp001_to_rim_cell(c: Copartition) -> tuple[Partition, tuple[int, int]]:
    """Exact inverse of rim_cell_to_cp001."""
    if c.params != (0, 0, 1):
        raise CopaError(f"rim map needs params (0,0,1), got {tuple(c.params)}")
    j = len(c.ground)
    lower = _conjugate(tuple(g for g in c.ground if g))
    return tuple(s + j for s in c.sky) + lower, (len(c.sky), j)


def render_pair_merge(
    ground_source: Sequence[int], sky_source: Sequence[int], params: ParamsLike
) -> str:
    """Four-panel picture of the pair merge, with symbolic cells.

    Panel 1 draws both sources as modular diagrams (class cell, then one
    cell per modulus step).  Panel 2 rotates the ground source a quarter
    turn clockwise and skews the sky source one step per row.  Panel 3
    stacks them: a sky row whose last cell has a ground column below it is
    matched, and matched cells are uppercased.  Panel 4 shows the merged
    rows and the resulting copartition diagram.
    """
    p = coerce_params(params)
    pi, lam, merged, c = _merge(ground_source, sky_source, p)
    np_, nl = len(pi), len(lam)

    def sky_row(idx: int, skew: bool) -> list[str]:
        pad = ["."] * (nl - idx) if skew else []
        return pad + ["b"] + ["m"] * ((lam[idx - 1] - p.b) // p.m)

    def ground_rows_rotated() -> list[list[str]]:
        rows = [["a"] * np_]
        heights = [(pi[np_ - col] - p.a) // p.m for col in range(1, np_ + 1)]
        for r in range(1, max(heights, default=0) + 1):
            rows.append([("m" if h >= r else " ") for h in heights])
        return rows

    def fmt(rows: list[list[str]]) -> list[str]:
        return [" ".join(row).rstrip() for row in rows]

    lines = ["1. source diagrams", "  sky source:"]
    lines += ["    " + r for r in fmt([sky_row(i, False) for i in range(1, nl + 1)])]
    lines.append("  ground source:")
    lines += [
        "    " + r
        for r in fmt([["a"] + ["m"] * ((q - p.a) // p.m) for q in pi])
    ]
    lines.append("2. rotate the ground source, skew the sky source")
    skewed = [sky_row(i, True) for i in range(1, nl + 1)]
    rotated = ground_rows_rotated()
    lines += ["    " + r for r in fmt(skewed)]
    lines += ["    " + r for r in fmt(rotated)]

    lines.append("3. matched columns (uppercase)")
    k = nl + 1 - len(merged)
    matched_cols = set()
    marked_sky = []
    for i in range(1, nl + 1):
        row = sky_row(i, True)
        if i >= k:
            end = (nl - i) + 1 + (lam[i - 1] - p.b) // p.m
            matched_cols.add(end)
            row = [cell.upper() for cell in row]
        marked_sky.append(row)
    marked_rot = [
        [cell.upper() if col + 1 in matched_cols else cell for col, cell in enumerate(row)]
        for row in rotated
    ]
    lines += ["    " + r for r in fmt(marked_sky)]
    lines += ["    " + r for r in fmt(marked_rot)]
    lines.append("4. merged parts and copartition")
    lines += [
        "    " + r
        for r in fmt(
            [["a", "b"] + ["m"] * ((q - p.a - p.b) // p.m) for q in merged]
        )
    ]
    diagram = render_ascii(c)
    lines += ["    " + row for row in diagram.splitlines()] if diagram else ["    (empty)"]
    return "\n".join(lines) + "\n"
