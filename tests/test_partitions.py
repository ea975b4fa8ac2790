"""Plain partition machinery: counting, conjugation, rim, statistics."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from copa import partitions as partitions_module
from copa.errors import DomainError, InvalidPartitionError, MinimumPartError, ResidueError, ZeroPartError
from copa.partitions import (
    _bounded_partitions,
    as_partition,
    conjugate,
    diversity,
    divisor_count_in_class,
    enumerate_partitions,
    is_rim_cell,
    partition_count,
    partition_statistics,
    perimeter,
    rim_cells,
)
from copa.verify import PHI_PARAM_SETS, _family

from oracles import (
    brute_partition_count,
    brute_partitions,
    reference_all_bounded,
    reference_bounded_partitions,
    reference_partition_statistics,
    reference_progression_partitions,
)

partitions = st.lists(st.integers(1, 30), max_size=12).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_count_against_dp():
    for n in range(121):
        assert partition_count(n) == brute_partition_count(n)


def test_partition_count_known_values():
    assert partition_count(12) == 77
    assert partition_count(100) == 190569292
    assert partition_count(1000) == 24061467864032622473692149727991
    with pytest.raises(InvalidPartitionError):
        partition_count(-3)


def test_enumerate_partitions_complete():
    for n in range(13):
        listed = list(enumerate_partitions(n))
        assert len(listed) == partition_count(n)
        assert set(listed) == set(brute_partitions(n))
        assert len(set(listed)) == len(listed)


def test_bounded_walker_matches_the_recursive_reference():
    """Same partitions in the same order as the recursive generator, for
    exact sums; a negative total has no partition."""
    for total in range(-2, 21):
        for max_parts in range(-1, 22):
            for max_part in range(-1, 22):
                expected = (
                    list(reference_bounded_partitions(total, max_parts, max_part))
                    if total >= 0
                    else []
                )
                walked = list(_bounded_partitions(total, max_parts, max_part))
                assert walked == expected, (total, max_parts, max_part)


def test_bounded_walker_at_most_matches_the_recursive_reference():
    for max_total in range(-2, 15):
        for max_parts in range(-1, 9):
            for max_part in (None, *range(-1, 9)):
                cap = max_total if max_part is None else max_part
                walked = list(_bounded_partitions(max_total, max_parts, cap, at_most=True))
                expected = list(reference_all_bounded(max_total, max_parts, max_part))
                assert walked == expected, (max_total, max_parts, max_part)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.integers(0, 6), st.integers(0, 60))
def test_bounded_walker_matches_the_reference_on_larger_inputs(total, max_parts, max_part):
    assert list(_bounded_partitions(total, max_parts, max_part)) == list(
        reference_bounded_partitions(total, max_parts, max_part)
    )
    assert list(_bounded_partitions(total, max_parts, max_part, at_most=True)) == list(
        reference_all_bounded(total, max_parts, max_part)
    )


def test_as_partition_validates():
    assert as_partition([5, 3, 1]) == (5, 3, 1)
    assert as_partition(()) == ()
    with pytest.raises(InvalidPartitionError):
        as_partition([1, 5, 3])  # ordering is the caller's job
    with pytest.raises(InvalidPartitionError):
        as_partition([2, -1])
    with pytest.raises(InvalidPartitionError):
        as_partition([2, 0])
    # a part that is not an int is taken only when it equals one
    assert as_partition([5.0, True]) == (5, 1)
    assert all(type(p) is int for p in as_partition([5.0, True]))
    for bad in ([5, 2.7], ["3"], [None], [float("nan")], [float("inf")], [[2]]):
        with pytest.raises(InvalidPartitionError):
            as_partition(bad)


def test_component_errors_are_invalid_partition_errors():
    for cls in (ResidueError, MinimumPartError, ZeroPartError):
        assert issubclass(cls, InvalidPartitionError)
    with pytest.raises(ZeroPartError):
        as_partition([2, 0])
    with pytest.raises(MinimumPartError):
        as_partition([2, -1])


def test_conjugate_example():
    assert conjugate((5, 5, 4, 4, 4, 2, 2)) == (7, 7, 5, 5, 2)
    assert conjugate(()) == ()
    with pytest.raises(InvalidPartitionError):
        conjugate((3, 0))


@given(partitions)
def test_conjugate_involution(parts):
    assert conjugate(conjugate(parts)) == parts
    assert sum(conjugate(parts)) == sum(parts)


def test_rim_cells_frozen():
    assert rim_cells((8, 6, 5, 5, 3, 3)) == [
        (1, 8), (1, 7), (1, 6),
        (2, 6), (2, 5),
        (3, 5),
        (4, 5), (4, 4), (4, 3),
        (5, 3),
        (6, 3), (6, 2), (6, 1),
    ]
    assert rim_cells(()) == []
    assert rim_cells((1,)) == [(1, 1)]


def test_rim_length_is_perimeter():
    # perimeter = largest part + number of parts - 1
    for n in range(1, 13):
        for parts in enumerate_partitions(n):
            assert perimeter(parts) == parts[0] + len(parts) - 1
            assert len(rim_cells(parts)) == perimeter(parts)


def test_is_rim_cell_matches_rim_list():
    # every cell of the diagram's bounding box, with a border of one cell
    # (row or column 0, one past the last row or the largest part)
    for n in range(21):
        for lam in enumerate_partitions(n):
            rim = set(rim_cells(lam))
            width = lam[0] if lam else 0
            for i in range(len(lam) + 2):
                for j in range(width + 2):
                    assert is_rim_cell(lam, (i, j)) == ((i, j) in rim), (lam, i, j)
    assert not is_rim_cell((2, 1), (1,))
    assert not is_rim_cell((2, 1), (1, 2, 0))
    with pytest.raises(InvalidPartitionError):
        is_rim_cell((2, 0), (1, 2))


def test_diversity():
    assert diversity(()) == 0
    assert diversity((5, 5, 3, 1, 1, 1)) == 3


@pytest.mark.parametrize("op", (conjugate, perimeter, rim_cells, diversity))
@pytest.mark.parametrize("parts", ([1, 3], [2.5], [2, "a"], [3, 0]))
def test_plain_partition_operations_check_their_input(op, parts):
    # each used to answer for the out-of-order [1, 3], or fail with a bare
    # TypeError on a part that is not an integer
    with pytest.raises(InvalidPartitionError):
        op(parts)


def test_plain_partition_operations_read_int_like_parts():
    assert conjugate([3.0, 1]) == conjugate((3, 1)) == (2, 1, 1)
    assert is_rim_cell([2.0, 1], (1.0, 2)) and not is_rim_cell((2, 1), (2, 2))


def test_statistics_small_values():
    s3 = partition_statistics(3)
    assert (s3.total_parts, s3.sum_largest_parts, s3.sum_perimeters) == (6, 6, 9)
    assert (s3.parts_of_size_one, s3.diversity_sum, s3.spt) == (4, 4, 5)
    s4 = partition_statistics(4)
    assert (s4.total_parts, s4.sum_largest_parts, s4.sum_perimeters) == (12, 12, 19)
    assert (s4.parts_of_size_one, s4.diversity_sum, s4.spt) == (7, 7, 10)


def test_statistics_match_the_walk():
    for n in range(36):
        assert tuple(partition_statistics(n)) == reference_partition_statistics(n), n


def test_statistics_identities():
    """Conjugation swaps part count with largest part, and the perimeter
    of each partition is largest + count - 1.  No walk of the partitions
    reaches n = 400 (p(400) is about 6.7e18)."""
    for n in (*range(1, 41), 60, 200, 400):
        s = partition_statistics(n)
        assert s.total_parts == s.sum_largest_parts
        assert s.sum_perimeters == s.total_parts + s.sum_largest_parts - partition_count(n)
        assert s.total_parts == sum(
            divisor_count_in_class(k, 0, 1) * partition_count(n - k) for k in range(1, n + 1)
        )


def test_ones_count_equals_diversity_sum():
    for n in (*range(1, 31), 60, 200, 400):
        s = partition_statistics(n)
        assert s.parts_of_size_one == s.diversity_sum


def test_statistics_stop_at_the_enumerated_ceiling(monkeypatch):
    # a table of its own, so the 1000 rows go when the test ends
    monkeypatch.setattr(partitions_module, "_by_least", partitions_module._by_least[:1])
    assert partitions_module.ENUM_MAX_N == 1000
    assert partition_statistics(1000).total_parts > 0
    with pytest.raises(DomainError):
        partition_statistics(1001)


@pytest.mark.parametrize(
    "count",
    (
        partition_count,
        partition_statistics,
        lambda n: list(enumerate_partitions(n)),
        lambda n: divisor_count_in_class(n, 1, 2),
        lambda residue: divisor_count_in_class(12, residue, 5),
        lambda modulus: divisor_count_in_class(12, 1, modulus),
    ),
    ids=("partition_count", "partition_statistics", "enumerate_partitions", "divisor_n",
         "divisor_residue", "divisor_modulus"),
)
def test_partition_counters_follow_the_int_rule(count):
    # the one int rule: a value is taken only when it equals an int
    assert count(2.0) == count(2)
    for bad in (2.5, "3", None):
        with pytest.raises(DomainError):
            count(bad)


def test_pair_merge_domains_match_the_recursive_reference():
    """verify._family, read off the copartition walker, lists each
    partition into parts base, base + m, base + 2m, ... exactly once, for
    every class the phi suite merges."""
    classes = {(base, m) for a, b, m in PHI_PARAM_SETS for base in (a, b, a + b)}
    for base, m in sorted(classes):
        for n in range(26):
            got = _family(base, m, n)
            assert len(set(got)) == len(got), (base, m, n)
            assert set(got) == set(reference_progression_partitions(n, base, m, n)), (base, m, n)
    assert set(_family(1, 4, 12)) == {
        (9, 1, 1, 1), (5, 5, 1, 1), (5, 1, 1, 1, 1, 1, 1, 1), (1,) * 12
    }
    assert _family(3, 4, 12) == ((3, 3, 3, 3),)
    assert _family(1, 2, 0) == ((),)
    assert _family(2, 2, 5) == ()


def test_divisor_counts():
    assert divisor_count_in_class(12, 1, 2) == 2  # 1, 3
    assert divisor_count_in_class(12, 0, 2) == 4  # 2, 4, 6, 12
