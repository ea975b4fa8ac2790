"""Enumeration order, refined counts, closed forms, crank tallies."""

import random
import re
from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copa.copartitions import coerce_params, from_json, make_copartition, to_json
from copa.enumeration import (
    _blocks,
    count_copartitions,
    count_formula,
    count_refined,
    crank_tally,
    enumerate_copartitions,
)
from copa.errors import DomainError, NoClosedFormError
from copa.partitions import (
    ENUM_MAX_N,
    _bounded_counts,
    _bounded_partitions,
    _partition_counts,
    partition_count,
)
from copa.series import count_cell, count_series, gf_double_sum, gf_product

from oracles import (
    brute_copartition_count,
    brute_copartitions,
    reference_class_divisor_counts,
)

GOLDEN_134_12 = [
    '{"a":1,"b":3,"m":4,"ground":[],"sky":[3,3,3,3]}',
    '{"a":1,"b":3,"m":4,"ground":[5],"sky":[3]}',
    '{"a":1,"b":3,"m":4,"ground":[1],"sky":[7]}',
    '{"a":1,"b":3,"m":4,"ground":[9,1,1,1],"sky":[]}',
    '{"a":1,"b":3,"m":4,"ground":[5,5,1,1],"sky":[]}',
    '{"a":1,"b":3,"m":4,"ground":[5,1,1,1,1,1,1,1],"sky":[]}',
    '{"a":1,"b":3,"m":4,"ground":[1,1,1,1,1,1,1,1,1,1,1,1],"sky":[]}',
]


def test_golden_order():
    """The enumeration order is part of the output contract: blocks by
    ascending (ground count, sky count), canonical order inside."""
    listed = [to_json(c) for c in enumerate_copartitions((1, 3, 4), 12)]
    assert listed == GOLDEN_134_12


def test_enumeration_order_matches_the_sorted_brute_force():
    # The documented order: blocks by ascending (ground count, sky count),
    # and inside a block ground, then sky, reverse-lexicographic.  Two
    # stable sorts give it: pairs descending, then by the block key.
    def block(pair):
        return len(pair[0]), len(pair[1])

    for a, b, m in product(range(4), range(4), range(1, 4)):
        for n in range(19):
            listed = [(c.ground, c.sky) for c in enumerate_copartitions((a, b, m), n)]
            expected = sorted(sorted(brute_copartitions(a, b, m, n), reverse=True), key=block)
            assert listed == expected, ((a, b, m), n)


def test_enumeration_is_deterministic():
    a = list(enumerate_copartitions((2, 3, 5), 17))
    b = list(enumerate_copartitions((2, 3, 5), 17))
    assert a == b


def test_enumeration_against_brute_force():
    for params in ((1, 1, 2), (1, 3, 4), (0, 1, 2), (2, 0, 3), (0, 0, 1), (2, 2, 2)):
        for n in range(13):
            mine = [(c.ground, c.sky) for c in enumerate_copartitions(params, n)]
            assert len(set(mine)) == len(mine)
            assert set(mine) == brute_copartitions(*params, n), (params, n)


def test_refined_count_frozen():
    rc = count_refined((1, 1, 2), 4)
    assert rc.table == {(0, 2): 1, (0, 4): 1, (1, 1): 1, (2, 0): 1, (4, 0): 1}
    assert sum(rc.table.values()) == count_copartitions((1, 1, 2), 4) == 5


def test_refined_tables_count_the_generator_output():
    """Block counting gives the (ground count, sky count) tally of the
    objects the generator yields, degenerate classes included."""
    for a, b, m in product(range(5), range(5), range(1, 5)):
        for n in range(17):
            listed = Counter(
                (len(c.ground), len(c.sky)) for c in enumerate_copartitions((a, b, m), n)
            )
            assert count_refined((a, b, m), n, "enum").table == listed, ((a, b, m), n)


def test_walker_built_objects_pass_the_public_check():
    """The generator builds its objects without re-checking them; each one
    is the object the validating constructor builds from the same parts,
    degenerate classes included."""
    for a, b, m in product(range(5), range(5), range(1, 5)):
        for n in range(17):
            for c in enumerate_copartitions((a, b, m), n):
                assert c == make_copartition(c.params, c.ground, c.sky), c
                assert type(c.ground) is tuple and type(c.sky) is tuple, c
                assert all(type(part) is int for part in c.ground + c.sky), c


def test_block_counts_by_shape_match_the_direct_convolution():
    """Block counts are memoized on the block's shape, shared by every
    family; each table entry is the convolution of the block's own rows."""
    rows = _bounded_counts(30)

    def direct(w, s, total):
        if s == 0:
            return rows[total][min(w, total)]
        return sum(
            rows[k][min(w, k)] * rows[total - k][min(s, total - k)] for k in range(total + 1)
        )

    for a, b, m in product(range(5), range(5), range(1, 5)):
        for n in range(31):
            blocks = _blocks(coerce_params((a, b, m)), n)
            expected = {(w, s): direct(w, s, t) for w, s, t in blocks if direct(w, s, t)}
            assert count_refined((a, b, m), n, "enum").table == expected, ((a, b, m), n)


def test_bounded_count_matches_the_generator():
    rows = _bounded_counts(25)
    for j in range(26):
        for k in range(26):
            assert rows[k][min(j, k)] == len(list(_bounded_partitions(k, j, k))), (k, j)
    for w in range(26):
        for t in range(26):
            by_rows = sum(rows[k][min(w, k)] for k in range(t + 1))
            assert by_rows == len(list(_bounded_partitions(t, w, t, at_most=True))), (t, w)


def test_recurrence_rows_match_the_walker_tally():
    """The rows of p(k, <= j), built by a recurrence, past the n = 30 the
    verify suites read, against the walker's partitions of k tallied by
    number of parts."""
    top = 45
    rows = _bounded_counts(top)
    for k in range(top + 1):
        by_length = [0] * (k + 1)
        for lam in _bounded_partitions(k, k, k):
            by_length[len(lam)] += 1
        assert rows[k] == list(accumulate(by_length)), k


def test_enum_count_above_threshold():
    """At sizes past 40, where enumeration once stopped being the default,
    "enum" still counts the generator's objects."""
    for params, sizes in (((0, 0, 2), range(41, 49)), ((0, 0, 3), range(41, 61))):
        for n in sizes:
            listed = sum(1 for _ in enumerate_copartitions(params, n))
            assert count_copartitions(params, n, "enum") == listed, (params, n)
    for n in range(41):
        assert count_copartitions((0, 0, 1), n, "enum") == count_formula((0, 0, 1), n)


def test_counting_methods_agree():
    for params in ((1, 3, 4), (1, 1, 2), (2, 3, 5), (0, 0, 1), (0, 0, 2), (0, 2, 3), (3, 0, 4)):
        for n in range(26):
            by_enum = count_copartitions(params, n, method="enum")
            by_series = count_copartitions(params, n, method="series")
            assert by_enum == by_series == count_copartitions(params, n)


def test_count_negative_size_is_zero():
    assert count_copartitions((1, 1, 2), -1) == 0


def test_refined_tables_list_their_keys_in_ascending_order():
    # the CLI prints a table's cells in the order count_refined returns them
    for a, b, m in product(range(5), range(5), range(1, 5)):
        for n in range(41):
            for method in ("series", "enum"):
                keys = list(count_refined((a, b, m), n, method).table)
                assert keys == sorted(keys), ((a, b, m), n, method)


def test_refined_count_negative_size_is_empty():
    for params in ((1, 1, 2), (0, 0, 1), (2, 3, 5), (0, 2, 3)):
        rc = count_refined(params, -1)
        assert rc.table == {}
        assert rc.total == 0 == count_copartitions(params, -1)


def test_closed_forms_against_brute_force():
    # classes above the modulus included: a divisor below b is in b's class
    # but is no sky part
    for params in (
        (1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 1, 2), (0, 2, 3), (2, 0, 3),
        (0, 2, 1), (0, 3, 2), (0, 5, 3), (4, 0, 3),
    ):
        for n in range(16):
            assert count_formula(params, n) == brute_copartition_count(*params, n)


def test_class_divisor_closed_forms_against_trial_division():
    # every n <= 300 for sky classes 1..6 and moduli 1..6, classes above
    # the modulus included
    for b, m in product(range(1, 7), range(1, 7)):
        expected = reference_class_divisor_counts(b, m, 300)
        assert [count_formula((0, b, m), n) for n in range(301)] == expected, (b, m)


def test_partial_sum_family():
    # one congruence-free family counts by partial sums of p
    for n in range(41):
        expect = sum(partition_count(k) for k in range(n + 1))
        assert count_formula((1, 1, 1), n) == expect
    assert count_formula((1, 1, 1), 3) == 7


def test_zero_zero_one_identity():
    """Counts for both classes zero (modulus 1) follow the perimeter
    identity, except that n = 0 has no objects at all."""
    assert count_formula((0, 0, 1), 0) == 0
    for n in range(1, 31):
        both = count_formula((0, 0, 1), n)
        one = count_formula((0, 1, 1), n)
        assert both == 2 * one - partition_count(n)
    assert count_formula((0, 0, 1), 3) == 9
    assert count_formula((0, 1, 1), 2) == 3


def test_no_closed_form():
    with pytest.raises(NoClosedFormError):
        count_formula((1, 2, 4), 10)
    with pytest.raises(NoClosedFormError):
        count_formula((0, 0, 2), 10)


def test_series_and_enumeration_agree_on_refined_tables_totals_and_cranks():
    """The series path against the enumeration blocks: the tables, their
    totals, and the mod-5 crank tally (the crank is w - s) of both methods
    for n <= 40."""
    for a, b, m in product(range(5), range(5), range(1, 5)):
        for n in range(41):
            table = count_refined((a, b, m), n, "enum").table
            assert count_refined((a, b, m), n).table == table, ((a, b, m), n)
            assert count_refined((a, b, m), n, "series").total == count_copartitions(
                (a, b, m), n, "enum"
            )
            tally = {r: 0 for r in range(5)}
            for (w, s), c in table.items():
                tally[(w - s) % 5] += c
            assert crank_tally((a, b, m), n, 5).counts == tally, ((a, b, m), n)
            assert crank_tally((a, b, m), n, 5, "enum").counts == tally, ((a, b, m), n)


def _listed_crank_tally(params, n, modulus=5):
    # The oracle the folded tallies answer to: every copartition listed.
    listed = Counter(c.crank % modulus for c in enumerate_copartitions(params, n))
    return {r: listed[r] for r in range(modulus)}


def test_enumerated_crank_tallies_match_the_listing():
    """crank_tally(..., "enum") folds the block counts by w - s; it equals
    the crank residues of the listed copartitions, degenerate classes
    included."""
    for a, b, m in product(range(5), range(5), range(1, 5)):
        for n in range(13):
            assert crank_tally((a, b, m), n, 5, "enum").counts == _listed_crank_tally(
                (a, b, m), n
            ), ((a, b, m), n)


def test_refined_methods_mirror_count_copartitions():
    for method in ("formula", "exhaustive"):
        with pytest.raises(DomainError, match=re.escape(f"unknown method {method!r}")):
            count_refined((1, 1, 2), 4, method)
        with pytest.raises(DomainError, match=re.escape(f"unknown method {method!r}")):
            crank_tally((1, 1, 2), 4, 5, method)
    assert crank_tally((1, 1, 2), -1, 5).counts == {r: 0 for r in range(5)}
    assert list(count_refined((1, 1, 2), 9).table) == sorted(count_refined((1, 1, 2), 9).table)


def test_crank_tally_examples():
    t = crank_tally((1, 1, 2), 4, 5)
    assert t.counts == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert t.total == 5
    empty = crank_tally((1, 1, 2), 0, 5)
    assert empty.counts == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
    assert empty.total == 1


def test_enumerate_copartitions_checks_its_arguments_at_the_call():
    # a bad modulus or size raises where it is passed, not at the first next()
    for params, n in (((1, 1, 0), 5), ((1, 1, 2), 2.5)):
        with pytest.raises(DomainError):
            enumerate_copartitions(params, n)
    assert list(enumerate_copartitions((1, 1, 2), 4.0)) == list(enumerate_copartitions((1, 1, 2), 4))
    assert list(enumerate_copartitions((1, 1, 2), -1)) == []


def test_crank_values_frozen():
    cranks = sorted(c.crank for c in enumerate_copartitions((1, 1, 2), 4))
    assert cranks == [-4, -2, 0, 2, 4]


def test_far_congruences_through_the_series():
    """Past the suites' default ranges: every (1,1,2) count at n = 5k + 4,
    k < 100, is divisible by 5, and for k < 60 the series crank tally mod 5
    puts a fifth of that count in every residue class.  At the crank
    suite's points (k < 3) the series tally equals the listing's."""
    for k in range(100):
        n = 5 * k + 4
        count = count_copartitions((1, 1, 2), n)
        assert count % 5 == 0, n
        if k < 60:
            tally = crank_tally((1, 1, 2), n, 5).counts
            assert set(tally.values()) == {count // 5}, n
        if k < 3:
            assert tally == _listed_crank_tally((1, 1, 2), n), n


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 6), st.integers(0, 300), st.data())
def test_far_counts_agree_on_every_counting_path(a, b, m, n, data):
    """Past the exhaustive ranges: the enumerated count and refined table
    against the series, the scalar double sum, the closed form where one
    exists, and a few drawn cells read from their own double-sum term."""
    params = (a, b, m)
    table = count_refined(params, n, "enum").table
    assert count_refined(params, n).table == table, (params, n)
    count = count_copartitions(params, n, "enum")
    assert count == sum(table.values()) == count_copartitions(params, n, "series"), (params, n)
    assert count == gf_double_sum(params, n, False).coefficient_int(n), (params, n)
    try:
        assert count == count_formula(params, n), (params, n)
    except NoClosedFormError:
        pass
    cells = data.draw(st.lists(st.sampled_from(sorted(table)), max_size=3)) if table else []
    for w, s in cells:
        assert count_cell(params, n, w, s) == table[(w, s)], (params, n, w, s)


def test_far_rows_of_the_bounded_counts():
    """Every row k <= ENUM_MAX_N of p(k, <= j) against three closed forms:
    p(k, <= k) = p(k) from the pentagonal recurrence, p(k, <= 2) = k // 2 + 1,
    and p(k, <= 3) = the nearest integer to (k + 3)^2 / 12."""
    rows = _bounded_counts(ENUM_MAX_N)
    p = _partition_counts(ENUM_MAX_N)
    for k in range(ENUM_MAX_N + 1):
        row = rows[k]
        assert row[k] == p[k], k
        assert row[min(2, k)] == k // 2 + 1, k
        assert row[min(3, k)] == ((k + 3) ** 2 + 6) // 12, k  # (k + 3)^2 is 0, 1, 4 or 9 mod 12


def test_far_closed_forms_match_the_series():
    """The partition-divisor convolutions of count_formula against the
    series at n = ENUM_MAX_N and at four drawn n in 900..999, past the
    n <= 300 that the other closed-form checks reach."""
    drawn = random.Random(1000).sample(range(900, ENUM_MAX_N), 4)
    for params in ((0, 1, 1), (0, 2, 3), (0, 1, 2), (0, 3, 2)):
        for n in (ENUM_MAX_N, *drawn):
            assert count_formula(params, n) == count_series(params, n), (params, n)


def test_enum_counts_stop_at_their_ceiling():
    # every enumerated count reaches the one check in the block-count
    # table; the series still answers past it
    for count in (
        lambda n: count_copartitions((1, 1, 1), n, "enum"),
        lambda n: count_refined((1, 1, 1), n, "enum"),
        lambda n: crank_tally((1, 1, 1), n, 5, method="enum"),
    ):
        with pytest.raises(DomainError, match="n <= 1000, got 1001; use method 'series'"):
            count(1001)
    assert count_copartitions((1, 1, 1), 1001) > 0
    params = (1, 1, 1000)  # few blocks: the rows reach total 1 only
    assert count_copartitions(params, 1000, "enum") == count_series(params, 1000)
    assert count_refined(params, 1000, "enum").table == count_refined(params, 1000).table
    assert crank_tally(params, 1000, 5, method="enum") == crank_tally(params, 1000, 5)


def test_sizes_and_orders_follow_the_int_rule():
    # a size, order or modulus that equals an int is read as it; anything
    # else is a DomainError at every public entry point
    listed = list(enumerate_copartitions((1, 1, 2), 3.0))
    assert listed == list(enumerate_copartitions((1, 1, 2), 3)) and listed
    assert all(from_json(to_json(c)) == c for c in listed)
    entries = {
        "enumerate_copartitions": lambda v: list(enumerate_copartitions((1, 1, 2), v)),
        **{
            f"count_copartitions {method}": lambda v, method=method: count_copartitions(
                (1, 1, 1), v, method
            )
            for method in ("auto", "series", "enum", "formula")
        },
        "count_refined": lambda v: count_refined((1, 1, 2), v),
        "crank_tally n": lambda v: crank_tally((1, 1, 2), v, 5),
        "crank_tally modulus": lambda v: crank_tally((1, 1, 2), 9, v),
        "count_formula": lambda v: count_formula((0, 1, 2), v),
        "count_series": lambda v: count_series((1, 1, 2), v),
        "count_cell n": lambda v: count_cell((1, 1, 2), v, 0, 1),
        "count_cell w": lambda v: count_cell((1, 1, 2), 20, v, 1),
        "count_cell s": lambda v: count_cell((1, 1, 2), 20, 1, v),
        "gf_product": lambda v: gf_product((1, 1, 2), v),
        "gf_double_sum": lambda v: gf_double_sum((1, 1, 2), v),
    }
    for name, entry in entries.items():
        assert entry(3.0) == entry(3) and entry(3), name
        for bad in (2.5, "3", None):
            with pytest.raises(DomainError, match="is not an integer"):
                entry(bad)
    assert count_refined((1, 1, 2), 3.0).n == 3
