"""The four structure-preserving maps and their exact inverses."""

from hypothesis import assume, given, settings
import hypothesis.strategies as st
import pytest

from copa import bijections, copartitions, partitions
from copa.bijections import (
    copartition_to_eo,
    copartition_to_pair,
    cp001_to_rim_cell,
    cp111_to_partition,
    enumerate_eo_star,
    eo_crank,
    eo_to_copartition,
    inverse_match_table,
    is_eo_star,
    pair_to_copartition,
    partition_to_cp111,
    render_pair_merge,
    rim_cell_to_cp001,
)
from copa.copartitions import Copartition, from_json, make_copartition, to_json
from copa.enumeration import enumerate_copartitions
from copa.errors import (
    CopaError,
    DomainError,
    InvalidPartitionError,
    MinimumPartError,
    NotEOStarError,
    ResidueError,
    ZeroPartError,
)
from copa.partitions import enumerate_partitions, is_rim_cell, rim_cells
from copa.series import eo_star_gf

from oracles import (
    brute_eo_star, reference_eo_partition, reference_is_eo_star, reference_progression_partitions,
)


def is_checked(image, cls=1, m=1):
    """The image equals what the validating constructor builds from its
    parts, and holds tuples of ints only: the maps build their images
    without a re-check, so these tests check them instead."""
    if isinstance(image, Copartition):
        seqs = (image.ground, image.sky)
        rebuilt = make_copartition(image.params, *seqs)
    else:
        seqs = (image,)
        rebuilt = partitions._check_component(image, cls, m, "image")
    return rebuilt == image and all(type(t) is tuple and {type(q) for q in t} <= {int} for t in seqs)


def pair_families(a, b, m, total):
    """All (ground_source, sky_source) pairs with combined size total."""
    for i in range(total + 1):
        for pi in reference_progression_partitions(i, a, m, i):
            for lam in reference_progression_partitions(total - i, b, m, total - i):
                yield pi, lam


def test_pair_merge_worked_example():
    pi = (9, 5, 5, 5, 5, 1, 1, 1)
    lam = (26, 26, 26, 22, 6, 6, 2)
    merged, c = pair_to_copartition(pi, lam, (1, 2, 4))
    assert merged == (11, 7, 3)
    assert c.ground == (9, 5, 5, 5, 1)
    assert c.sky == (6, 6, 6, 2)
    assert c.rectangle() == (20, 20, 20, 20)
    assert sum(pi) + sum(lam) == sum(merged) + c.size == 146


def test_pair_merge_worked_inverse():
    c = make_copartition((1, 2, 4), (9, 5, 5, 5, 1), (6, 6, 6, 2))
    merged = (11, 7, 3)
    # each merged part records how many rectangle columns it absorbs
    assert inverse_match_table(merged, c) == [(3, 0), (7, 1), (11, 1)]
    pi, lam = copartition_to_pair(merged, c)
    assert pi == (9, 5, 5, 5, 5, 1, 1, 1)
    assert lam == (26, 26, 26, 22, 6, 6, 2)


def test_pair_merge_edge_cases():
    assert pair_to_copartition((), (), (1, 1, 2))[0] == ()
    merged, c = pair_to_copartition((), (5, 1), (1, 1, 2))
    assert merged == () and c.ground == () and c.sky == (5, 1)
    # a single matched pair merges completely
    merged, c = pair_to_copartition((1,), (1,), (1, 1, 2))
    assert merged == (2,) and c.ground == () and c.sky == ()
    assert copartition_to_pair(merged, c) == ((1,), (1,))


def test_pair_merge_round_trips_exhaustive():
    for a, b, m in ((1, 2, 4), (1, 1, 2), (2, 3, 5)):
        for total in range(15):
            for pi, lam in pair_families(a, b, m, total):
                merged, c = pair_to_copartition(pi, lam, (a, b, m))
                assert sum(merged) + c.size == total
                assert is_checked(merged, a + b, m) and is_checked(c)
                assert copartition_to_pair(merged, c) == (pi, lam)


def test_pair_merge_rejections_are_typed():
    with pytest.raises(InvalidPartitionError):
        pair_to_copartition((1, 5), (2,), (1, 2, 4))  # out of order
    with pytest.raises(ZeroPartError):
        pair_to_copartition((5, 0), (2,), (1, 2, 4))
    with pytest.raises(MinimumPartError):
        pair_to_copartition((5, -3), (2,), (1, 2, 4))  # -3 is 1 (mod 4)
    with pytest.raises(ResidueError):
        pair_to_copartition((5,), (3,), (1, 2, 4))
    with pytest.raises(MinimumPartError):
        pair_to_copartition((1,), (2,), (5, 2, 4))  # 1 is 5 (mod 4)
    with pytest.raises(ResidueError):
        copartition_to_pair((4,), make_copartition((1, 2, 4), (), (2,)))
    with pytest.raises(InvalidPartitionError):
        pair_to_copartition([9, 5], [6.5, 2], (1, 2, 4))  # not merged as 6
    # JSON gives lists; they come back as tuples of ints.
    assert pair_to_copartition([9, 5], [6.0, 2], (1, 2, 4)) == pair_to_copartition(
        (9, 5), (6, 2), (1, 2, 4)
    )


@st.composite
def large_pairs(draw):
    """(a, b, m) with a, b >= 1 and a source pair of combined size 100..300.

    A drawn share splits the size between the sources, which are filled
    one part at a time from their classes; a drawn cap on the parts varies
    their number from a handful to a few hundred.
    """
    a, b, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cap = draw(st.integers(0, 40))
    total = draw(st.integers(106, 300))
    share = draw(st.integers(0, total))

    def source(left: int, base: int) -> tuple[int, ...]:
        parts = []
        while left >= base:
            part = base + m * draw(st.integers(0, min(cap, (left - base) // m)))
            parts.append(part)
            left -= part
        return tuple(sorted(parts, reverse=True))

    return (a, b, m), source(share, a), source(total - share, b)


@settings(max_examples=25, deadline=None)
@given(large_pairs())
def test_pair_merge_round_trip_on_large_sources(drawn):
    params, pi, lam = drawn
    assert 100 <= sum(pi) + sum(lam) <= 300
    merged, c = pair_to_copartition(pi, lam, params)
    assert sum(merged) + c.size == sum(pi) + sum(lam)
    assert is_checked(merged, params[0] + params[1], params[2]) and is_checked(c)
    assert copartition_to_pair(merged, c) == (pi, lam)


@st.composite
def large_splits(draw):
    """(merged, copartition) of combined size at least 100, with a, b >= 1.

    The combined parts, the ground and the sky are filled one part at a
    time from their classes, as in large_pairs; the copartition's rectangle
    adds m * len(ground) * len(sky) on top.
    """
    a, b, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cap = draw(st.integers(0, 40))
    total = draw(st.integers(112, 300))
    cuts = sorted(draw(st.integers(0, total)) for _ in range(2))

    def parts(left: int, base: int) -> tuple[int, ...]:
        out = []
        while left >= base:
            part = base + m * draw(st.integers(0, min(cap, (left - base) // m)))
            out.append(part)
            left -= part
        return tuple(sorted(out, reverse=True))

    merged = parts(cuts[0], a + b)
    c = make_copartition((a, b, m), parts(cuts[1] - cuts[0], a), parts(total - cuts[1], b))
    return merged, c


@settings(max_examples=25, deadline=None)
@given(large_splits())
def test_pair_split_round_trip_on_large_inputs(drawn):
    merged, c = drawn
    assert sum(merged) + c.size >= 100
    pi, lam = copartition_to_pair(merged, c)
    assert sum(pi) + sum(lam) == sum(merged) + c.size
    assert is_checked(pi, c.a, c.m) and is_checked(lam, c.b, c.m)
    assert pair_to_copartition(pi, lam, c.params) == (merged, c)


def test_pair_merge_counts_match():
    """The map is onto: over all splits of n, source pairs biject with
    (merged, copartition) pairs."""
    a, b, m, n = 1, 2, 4, 16
    images = set()
    for pi, lam in pair_families(a, b, m, n):
        merged, c = pair_to_copartition(pi, lam, (a, b, m))
        images.add((merged, c))
    targets = set()
    for j in range(n + 1):
        for merged in reference_progression_partitions(j, a + b, m, j):
            for c in enumerate_copartitions((a, b, m), n - j):
                targets.add((merged, c))
    assert images == targets


def test_pair_merge_validates_domain():
    with pytest.raises(CopaError):
        pair_to_copartition((2,), (2,), (1, 2, 4))  # ground part off-class
    with pytest.raises(CopaError):
        pair_to_copartition((1,), (3,), (1, 2, 4))  # sky part off-class
    with pytest.raises(CopaError):
        pair_to_copartition((1,), (1,), (0, 1, 2))  # degenerate parameters
    with pytest.raises(CopaError):
        copartition_to_pair((5,), make_copartition((1, 2, 4), (), (2,)))


def test_pair_merge_panels_frozen():
    text = render_pair_merge((9, 5, 5, 5, 5, 1, 1, 1), (26, 26, 26, 22, 6, 6, 2), (1, 2, 4))
    assert text == (
        "1. source diagrams\n"
        "  sky source:\n"
        "    b m m m m m m\n"
        "    b m m m m m m\n"
        "    b m m m m m m\n"
        "    b m m m m m\n"
        "    b m\n"
        "    b m\n"
        "    b\n"
        "  ground source:\n"
        "    a m m\n"
        "    a m\n"
        "    a m\n"
        "    a m\n"
        "    a m\n"
        "    a\n"
        "    a\n"
        "    a\n"
        "2. rotate the ground source, skew the sky source\n"
        "    . . . . . . b m m m m m m\n"
        "    . . . . . b m m m m m m\n"
        "    . . . . b m m m m m m\n"
        "    . . . b m m m m m\n"
        "    . . b m\n"
        "    . b m\n"
        "    b\n"
        "    a a a a a a a a\n"
        "          m m m m m\n"
        "                  m\n"
        "3. matched columns (uppercase)\n"
        "    . . . . . . b m m m m m m\n"
        "    . . . . . b m m m m m m\n"
        "    . . . . b m m m m m m\n"
        "    . . . b m m m m m\n"
        "    . . B M\n"
        "    . B M\n"
        "    B\n"
        "    A a A A a a a a\n"
        "          M m m m m\n"
        "                  m\n"
        "4. merged parts and copartition\n"
        "    a b m m\n"
        "    a b m\n"
        "    a b\n"
        "    4 4 4 4 4 | 2 4\n"
        "    4 4 4 4 4 | 2 4\n"
        "    4 4 4 4 4 | 2 4\n"
        "    4 4 4 4 4 | 2\n"
        "    ----------+\n"
        "    1 1 1 1 1\n"
        "    4 4 4 4\n"
        "    4\n"
    )


def test_is_eo_star_cases():
    assert is_eo_star(())
    assert is_eo_star((4,))
    assert is_eo_star((1, 1, 1, 1))
    assert is_eo_star((6, 6, 6))
    assert is_eo_star((5, 5, 2))
    assert not is_eo_star((3, 1))  # odd parts must pair up
    assert not is_eo_star((2, 2))  # largest even must appear oddly often
    assert not is_eo_star((2, 1, 1))  # evens must sit below odds
    assert not is_eo_star((6, 6, 4, 4))


def test_is_eo_star_matches_reference():
    for n in range(31):
        for lam in enumerate_partitions(n):
            assert is_eo_star(lam) == reference_is_eo_star(lam), lam
    with pytest.raises(InvalidPartitionError):
        is_eo_star((1, 2))


def test_copartition_to_eo_matches_the_sorted_reference():
    # copartition_to_eo concatenates its two blocks without sorting; the
    # reference sorts the same parts in full
    seen = 0
    for n in range(27):
        for c in enumerate_copartitions((1, 1, 2), n):
            assert copartition_to_eo(c) == reference_eo_partition(c.ground, c.sky), c
            seen += 1
    assert seen == 3218


def test_enumerate_eo_star_against_filter():
    for n in range(18):
        listed = list(enumerate_eo_star(n))
        assert len(set(listed)) == len(listed)
        assert set(listed) == set(brute_eo_star(n))
    assert all(enumerate_eo_star(n) == [] for n in (1, 3, 5, 7, 9))


def test_enumerate_eo_star_matches_filter_in_order():
    for n in range(41):
        reference = [lam for lam in enumerate_partitions(n) if is_eo_star(lam)]
        assert enumerate_eo_star(n) == reference


def test_enumerate_eo_star_counts_match_series():
    gf = eo_star_gf(80)
    for n in range(81):
        assert len(enumerate_eo_star(n)) == gf.coefficient_int(n)


def test_enumerate_eo_star_rejects_negative_size():
    with pytest.raises(InvalidPartitionError):
        enumerate_eo_star(-1)


def test_eo_worked_examples():
    c4 = eo_to_copartition((4,))
    assert (c4.ground, c4.sky) == ((1, 1), ())
    assert copartition_to_eo(c4) == (4,)
    ones = eo_to_copartition((1, 1, 1, 1))
    assert (ones.ground, ones.sky) == ((), (1, 1))
    assert copartition_to_eo(ones) == (1, 1, 1, 1)
    mixed = eo_to_copartition((5, 5, 2))
    assert (mixed.ground, mixed.sky) == ((1,), (3,))


def test_eo_round_trips():
    for n in range(0, 25, 2):
        for parts in enumerate_eo_star(n):
            c = eo_to_copartition(parts)
            assert c.size * 2 == n
            assert is_checked(c)
            assert copartition_to_eo(c) == parts
    for half in range(13):
        for c in enumerate_copartitions((1, 1, 2), half):
            parts = copartition_to_eo(c)
            assert sum(parts) == 2 * half
            assert is_checked(parts) and is_eo_star(parts)
            assert eo_to_copartition(parts) == c


odd_parts = st.lists(st.integers(0, 20).map(lambda k: 2 * k + 1), max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@settings(max_examples=25, deadline=None)
@given(odd_parts, odd_parts)
def test_eo_round_trip_on_large_copartitions(ground, sky):
    c = make_copartition((1, 1, 2), ground, sky)
    assume(100 <= c.size <= 300)
    parts = copartition_to_eo(c)
    assert sum(parts) == 2 * c.size
    assert is_checked(parts) and is_eo_star(parts)
    back = eo_to_copartition(parts)
    assert is_checked(back)
    assert back == c


def test_eo_crank_transport():
    for half in range(11):
        for c in enumerate_copartitions((1, 1, 2), half):
            assert eo_crank(copartition_to_eo(c)) == 2 * c.crank
    assert eo_crank((4,)) == 4
    assert eo_crank((1, 1, 1, 1)) == -4
    assert eo_crank((5, 5, 2)) == 0


def test_eo_rejects_bad_input():
    with pytest.raises(NotEOStarError):
        eo_to_copartition((3,))
    with pytest.raises(CopaError):
        copartition_to_eo(make_copartition((1, 3, 4), (1,), ()))


def test_threshold_map_worked_example():
    c = partition_to_cp111((8, 6, 5, 3), 5)
    assert c.ground == (3, 3, 3, 2, 2)
    assert c.rectangle() == (5, 5)
    assert c.sky == (3, 1)
    assert c.size == 22 + 5
    assert cp111_to_partition(c) == ((8, 6, 5, 3), 5)


def test_threshold_map_bijective():
    for n in range(13):
        images = {}
        for k in range(n + 1):
            for lam in enumerate_partitions(n - k):
                c = partition_to_cp111(lam, k)
                assert c.size == n and len(c.ground) == k
                assert is_checked(c)
                assert c not in images
                images[c] = (lam, k)
                back, count = cp111_to_partition(c)
                assert is_checked(back) and (back, count) == (lam, k)
        assert len(images) == sum(1 for _ in enumerate_copartitions((1, 1, 1), n))


def test_threshold_map_zero_rows():
    c = partition_to_cp111((2, 1), 0)
    assert c.ground == () and c.sky == (2, 1)
    assert cp111_to_partition(c) == ((2, 1), 0)


def test_rim_map_worked_examples():
    c = rim_cell_to_cp001((1,), (1, 1))
    assert (c.ground, c.sky) == ((0,), (0,))
    assert c.size == 1
    assert cp001_to_rim_cell(c) == ((1,), (1, 1))
    big = rim_cell_to_cp001((8, 6, 5, 5, 3, 3), (4, 4))
    assert big.ground == (2, 2, 2, 0)
    assert big.rectangle() == (4, 4, 4, 4)
    assert big.sky == (4, 2, 1, 1)
    assert cp001_to_rim_cell(big) == ((8, 6, 5, 5, 3, 3), (4, 4))


def test_rim_map_bijective():
    for n in range(1, 11):
        images = set()
        for lam in enumerate_partitions(n):
            for cell in rim_cells(lam):
                c = rim_cell_to_cp001(lam, cell)
                assert c.size == n
                assert is_checked(c)
                assert c not in images
                images.add(c)
                back, back_cell = cp001_to_rim_cell(c)
                assert is_checked(back) and (back, back_cell) == (lam, cell)
        assert len(images) == sum(1 for _ in enumerate_copartitions((0, 0, 1), n))


@st.composite
def large_partitions(draw):
    """A partition of a random size in 100..300, one part drawn at a time."""
    left = draw(st.integers(100, 300))
    parts = []
    while left:
        part = draw(st.integers(1, left))
        parts.append(part)
        left -= part
    return tuple(sorted(parts, reverse=True))


@settings(max_examples=25, deadline=None)
@given(large_partitions(), st.integers(0, 60))
def test_threshold_map_round_trip_on_large_partitions(lam, k):
    c = partition_to_cp111(lam, k)
    assert c.size == sum(lam) + k
    assert len(c.ground) == k
    assert is_checked(c)
    back, count = cp111_to_partition(c)
    assert is_checked(back) and (back, count) == (lam, k)


@settings(max_examples=25, deadline=None)
@given(large_partitions(), st.data())
def test_rim_map_round_trip_on_large_partitions(lam, data):
    cell = data.draw(st.sampled_from(rim_cells(lam)))
    c = rim_cell_to_cp001(lam, cell)
    assert c.size == sum(lam)
    assert is_checked(c)
    back, back_cell = cp001_to_rim_cell(c)
    assert is_checked(back) and (back, back_cell) == (lam, cell)


def test_cells_and_counts_follow_the_int_rule():
    # a coordinate or count that equals an int is read as one; the parts of
    # the image are ints either way
    c = rim_cell_to_cp001((3, 1), (1.0, 3))
    assert c == rim_cell_to_cp001((3, 1), (1, 3)) and is_checked(c)
    c = partition_to_cp111((2, 1), 1.0)
    assert c == partition_to_cp111((2, 1), 1) and is_checked(c)
    for bad in (1.5, "3", None):
        with pytest.raises(DomainError, match="is not an integer"):
            rim_cell_to_cp001((3, 1), (bad, 3))
        with pytest.raises(DomainError, match="ground count .* is not an integer"):
            partition_to_cp111((2, 1), bad)


def test_rim_map_rejects_off_rim_cells():
    with pytest.raises(CopaError):
        rim_cell_to_cp001((8, 6, 5, 5, 3, 3), (1, 1))  # interior cell
    with pytest.raises(CopaError):
        rim_cell_to_cp001((2,), (2, 1))  # outside the diagram


@pytest.mark.parametrize("cell", (5, None, 2.0))
def test_a_cell_that_is_not_a_sequence_is_a_domain_error(cell):
    # the int rule's scalar error, not a bare TypeError from iterating it
    for run in (lambda: rim_cell_to_cp001((3, 1), cell), lambda: is_rim_cell((3, 1), cell)):
        with pytest.raises(DomainError, match=f"cell {cell!r} is not a sequence"):
            run()


def test_round_trips_check_each_part_sequence_once(monkeypatch):
    # Every module that calls the one part-sequence check is spied on, as
    # test_series spies on its kernels; each count is per round trip.
    calls = []
    check = partitions._check_component

    def counted(*args):
        calls.append(args[-1])
        return check(*args)

    for module in (partitions, copartitions, bijections):
        monkeypatch.setattr(module, "_check_component", counted)

    def checks(run):
        calls.clear()
        run()
        return len(calls)

    c = make_copartition((1, 2, 4), (9, 5, 5, 5, 1), (6, 6, 6, 2))
    pi, lam = (9, 5, 5, 5, 5, 1, 1, 1), (26, 26, 26, 22, 6, 6, 2)
    eo = make_copartition((1, 1, 2), (3, 1), (5, 1))
    assert checks(lambda: from_json(to_json(c))) == 2
    assert checks(lambda: copartition_to_pair(*pair_to_copartition(pi, lam, (1, 2, 4)))) == 3
    assert checks(lambda: eo_to_copartition(copartition_to_eo(eo))) == 1
    assert checks(lambda: cp111_to_partition(partition_to_cp111((5, 3, 3, 1), 2))) == 1
    assert checks(lambda: cp001_to_rim_cell(rim_cell_to_cp001((5, 3, 3, 1), (2, 3)))) == 1
    # the panels draw the sources the merge reads, checked once
    assert checks(lambda: render_pair_merge(pi, lam, (1, 2, 4))) == 2
