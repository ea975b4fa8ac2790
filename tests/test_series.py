"""The truncated series engine and the named q-series built on it."""

import collections
import functools
import random
import re
import threading
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from copa import series
from copa.enumeration import count_refined
from copa.errors import CopaError, DomainError, SeriesError
from copa.series import (
    TruncatedSeries,
    count_cell,
    count_series,
    eo_star_gf,
    gf_double_sum,
    gf_product,
    mock_theta_nu,
    pochhammer_factor,
    rr_function,
    theta_f,
    theta_product,
    theta_sum,
)

from oracles import (
    brute_copartition_count,
    brute_eo_star,
    brute_partition_count,
    poly_mul,
    poly_pochhammer,
    reference_marked_product,
    reference_pochhammer,
)

ORDER = 24


def _series(terms: dict[tuple[int, int, int], int], order: int = ORDER) -> TruncatedSeries:
    coeffs: dict[int, dict[tuple[int, int], int]] = {}
    for (n, x, y), c in terms.items():
        coeffs.setdefault(n, {})[(x, y)] = c
    return TruncatedSeries(order, coeffs)


def _terms(max_deg: int):
    degree = st.integers(0, max_deg)
    return st.dictionaries(
        st.tuples(st.integers(0, ORDER), degree, degree), st.integers(-9, 9), max_size=10
    )


# Scalar series, and series whose terms carry marker degrees up to x^3 y^3.
any_series = st.one_of(_terms(0), _terms(3)).map(_series)


def poly_inverse(p: dict[int, int], order: int) -> dict[int, int]:
    out = {0: 1}
    for n in range(1, order + 1):
        c = -sum(p.get(k, 0) * out.get(n - k, 0) for k in range(1, n + 1))
        if c:
            out[n] = c
    return out


def _unit(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, {0: {(0, 0): 1}})


def _sum(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    # a + b through the lower order, added row by row and key by key
    order = min(a.order, b.order)
    coeffs: dict[int, dict[tuple[int, int], int]] = {}
    for s in (a, b):
        for key, row in s.rows.items():
            for n, c in enumerate(row[: order + 1]):
                poly = coeffs.setdefault(n, {})
                poly[key] = poly.get(key, 0) + c
    return TruncatedSeries(order, coeffs)


def test_monomial_basics():
    q = TruncatedSeries(10, {1: {(0, 0): 1}})
    assert (q * q).coefficient_int(2) == 1
    assert (q * q * q).coefficient_int(3) == 1
    assert (q * TruncatedSeries(10, {3: {(0, 0): 1}})).coefficient_int(4) == 1
    assert _unit(10) * q == q


def test_truncation_and_min_order():
    a = TruncatedSeries(20, {0: {(0, 0): 1}})
    b = TruncatedSeries(8, {1: {(0, 0): 1}})
    assert (a * b).order == 8
    assert a.truncate(5).order == 5
    # the same coefficients through a lower order make a different series
    assert a.truncate(5).agrees_with(a) and a.truncate(5) != a


def test_constructor_drops_zeros():
    s = TruncatedSeries(10, {3: {(0, 0): 0}, 4: {(1, 0): 2}})
    assert s.coefficient(3) == {}
    assert s.coefficient(4) == {(1, 0): 2}


@settings(max_examples=60)
@given(any_series, any_series, any_series)
def test_ring_laws(a, b, c):
    assert _sum(a, b) * c == _sum(a * c, b * c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40)
@given(any_series)
def test_truncation_is_the_series_through_its_order(s):
    for k in range(s.order + 1):
        cut = s.truncate(k)
        fresh = TruncatedSeries(k, {n: s.coefficient(n) for n in range(k + 1)})
        assert cut == fresh and fresh == cut, k
        assert all(cut.truncate(j) == s.truncate(j) for j in range(k + 1)), k
        with pytest.raises(SeriesError, match=f"coefficient {k + 1} beyond order {k}"):
            cut.coefficient(k + 1)


@settings(max_examples=30)
@given(any_series, any_series)
def test_truncation_commutes_with_products_and_markers_one(s, t):
    # t's order is ORDER, at least every k; the truncation's rows run past k
    for k in range(s.order + 1):
        cut = s.truncate(k)
        assert cut * t == (s * t).truncate(k), k
        assert t * cut == (t * s).truncate(k), k
        assert cut.at_markers_one() == s.at_markers_one().truncate(k), k


@settings(max_examples=40)
@given(any_series)
def test_markers_one_sums_each_coefficient(s):
    # truncations keep rows that run past their order; nothing past it is added
    for cut in (s, *(s.truncate(k) for k in range(s.order))):
        one = cut.at_markers_one()
        assert one.order == cut.order
        for n in range(cut.order + 1):
            assert one.coefficient_int(n) == sum(cut.coefficient(n).values()), n


def test_a_key_nonzero_only_past_the_order_is_invisible():
    # the truncation keeps the key's row, and every reader stops at its order
    s = TruncatedSeries(10, {0: {(0, 0): 1}, 8: {(1, 0): -3}})
    cut, unit = s.truncate(5), _unit(5)
    assert cut.rows is s.rows
    assert [cut.coefficient(n) for n in range(6)] == [{(0, 0): 1}] + [{}] * 5
    assert cut.scalar_coeffs() == [cut.coefficient_int(n) for n in range(6)] == unit.scalar_coeffs()
    assert cut.at_markers_one().rows == unit.rows
    assert cut.agrees_with(unit) and unit.agrees_with(cut) and s.agrees_with(unit)
    assert cut == unit and unit == cut
    t = _series({(0, 0, 0): 2, (3, 1, 1): 5, (5, 0, 2): -1}, 10)
    assert cut * t == t * cut == t.truncate(5)
    assert cut * cut == unit
    assert s.truncate(8).coefficient(8) == {(1, 0): -3}


@pytest.mark.parametrize(
    "builder, build", ((gf_product, series._product), (gf_double_sum, series._double_sum))
)
def test_a_lower_order_read_shares_the_stored_rows(builder, build):
    # no row is sliced: every row of the order-100 answer is a stored row
    top = builder((1, 1, 2), 112)
    cut = builder((1, 1, 2), 100)
    assert cut.order == 100 and cut.rows is top.rows
    assert cut == build(1, 1, 2, True, 100)


def test_pochhammer_against_naive():
    for offset, step in ((1, 1), (2, 4), (3, 5), (2, 2)):
        s = pochhammer_factor(order=30, q_offset=offset, q_step=step)
        ref = poly_pochhammer(offset, step, 30)
        assert all(s.coefficient_int(n) == ref.get(n, 0) for n in range(31))


def test_pochhammer_inverse_counts_partitions():
    euler = pochhammer_factor(order=50, q_offset=1, q_step=1, invert=True)
    for n in range(51):
        assert euler.coefficient_int(n) == brute_partition_count(n)
    direct = pochhammer_factor(order=50, q_offset=1, q_step=1)
    assert (euler * direct).agrees_with(_unit(50))


@pytest.mark.parametrize("step", range(1, 6))
def test_pochhammer_at_a_multiple_of_its_step_against_naive(step):
    # (q^(j*step); q^step)_inf goes through Euler's pentagonal theorem
    for j in range(1, 5):
        naive = poly_pochhammer(j * step, step, 300)
        ref = TruncatedSeries(300, {n: {(0, 0): c} for n, c in naive.items()})
        kw = dict(q_offset=j * step, q_step=step, order=300)
        assert pochhammer_factor(**kw) == ref, j
        assert pochhammer_factor(**kw, invert=True) * ref == _unit(300), j


def _spy_kernels(monkeypatch, names) -> list[str]:
    # The names of the kernels called, in call order.
    calls = []

    def spy(kernel):
        def counted(*args):
            calls.append(kernel.__name__)
            return kernel(*args)

        return counted

    for name in names:
        monkeypatch.setattr(series, name, spy(getattr(series, name)))
    return calls


def test_scalar_builders_do_not_fall_back_to_factor_by_factor(monkeypatch):
    # Each factor-by-factor kernel call is one pass over the row; Euler's
    # theorem and the triple product leave only the leading factors of each
    # Pochhammer.
    calls = _spy_kernels(monkeypatch, ("_divide_geometric", "_times_binomial"))
    for a, b, m in ((1, 1, 1), (1, 1, 2), (1, 3, 4), (2, 3, 5), (2, 1, 3)):
        series._product(a, b, m, False, 3000)
    series._degenerate_series(1, 1, 3000)
    for which in ("G", "H"):
        rr_function.__wrapped__(which, "product", 3000)
    assert len(calls) <= 5, calls


def test_large_classes_keep_the_factor_by_factor_build(monkeypatch):
    # At order 1024, undoing the 999 leading factors of (q^1000; q)_inf, or
    # the 499 of (q^500; q)_inf, walks more coefficients than the 25 and
    # 525 factors through the order do, so no theta series comes in.  The
    # 25 factors also walk fewer than Euler's sum, whose first term is the
    # whole row; each denominator takes Cauchy's sum, whose terms at q^500
    # and q^1002 take two geometric factors each.
    names = ("_theta", "_divide_geometric", "_times_binomial", "_single_sum")
    calls = _spy_kernels(monkeypatch, names)
    series._product(500, 500, 1, False, 1024)
    assert collections.Counter(calls) == {
        "_times_binomial": 25,
        "_single_sum": 2,
        "_divide_geometric": 2 * 4,
    }


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 8),
    st.integers(1, 8),
    st.sampled_from((1, -1)),
    st.booleans(),
    st.integers(0, 400),
    st.data(),
)
def test_both_single_sums_match_the_factor_reference(offset, step, sign, invert, order, data):
    # Euler's sum multiplies a row by (sign q^offset; q^step)_inf and
    # Cauchy's divides it, whatever route the cost rule would pick there
    offset = max(offset, invert)
    entries = data.draw(
        st.dictionaries(st.integers(0, order), st.integers(-(2**70), 2**70), max_size=8)
    )
    row = [entries.get(n, 0) for n in range(order + 1)]
    expected = reference_pochhammer(row, offset, step, sign, invert)
    series._single_sum(row, order, series._euler_cauchy(order, offset, step, sign, invert))
    assert row == expected


@pytest.mark.parametrize("a, b, m, sums", ((3, 5, 7, 3), (1, 2, 7, 3), (1, 2, 4, 2)))
def test_far_lone_classes_match_the_factor_reference(a, b, m, sums, monkeypatch):
    # Of these Pochhammer products only (q^2; q^4)_inf has a theta route, so
    # at order 3000 every other one goes in through its single sum.
    order = 3000
    expected = reference_pochhammer([1] + [0] * order, a + b, m)
    for c in (b, a):
        expected = reference_pochhammer(expected, c, m, invert=True)
    calls = _spy_kernels(monkeypatch, ("_single_sum",))
    assert series._product(a, b, m, False, order).rows[(0, 0)] == expected
    assert len(calls) == sums


@pytest.mark.parametrize("r", range(1, 5))
def test_pochhammer_at_an_odd_multiple_of_half_its_step_against_naive(r, monkeypatch):
    # (q^(r + 2rj); q^2r)_inf goes through theta(r, 2r) / theta(2r, 4r)
    calls = _spy_kernels(monkeypatch, ("_theta",))
    for j in range(4):
        naive = poly_pochhammer(r + 2 * r * j, 2 * r, 300)
        ref = TruncatedSeries(300, {n: {(0, 0): c} for n, c in naive.items()})
        kw = dict(q_offset=r + 2 * r * j, q_step=2 * r, order=300)
        calls.clear()
        assert pochhammer_factor(**kw) == ref, j
        assert pochhammer_factor(**kw, invert=True) * ref == _unit(300), j
        assert calls == ["_theta"] * 4, j


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_multiplying_by_theta_in_place_is_multiplying_by_the_theta_sum(x, y, data):
    # sparse rows walk each nonzero entry against each term, dense ones
    # take one slice map per term
    order = data.draw(st.integers(0, 300))
    entries = data.draw(
        st.dictionaries(st.integers(0, order), st.integers(-(2**70), 2**70), max_size=8)
    )
    if x + y < 1:
        return
    row = [entries.get(n, 0) for n in range(order + 1)]
    expected = TruncatedSeries._of_rows(order, {(0, 0): list(row)}) * theta_sum(x, y, order)
    series._theta(row, order, x, y, False)
    assert TruncatedSeries._of_rows(order, {(0, 0): row}) == expected


def test_forward_theta_passes_walk_sparse_rows(monkeypatch):
    # For a + b = m the product is theta(m, 2m)^2 / theta(a, b): each theta
    # product finds the unit row or theta(m, 2m) itself, never a quotient.
    entries = []
    theta = series._theta

    def spy(row, order, x, y, invert, *start):
        if not invert:
            entries.append(sum(map(bool, row)))
        return theta(row, order, x, y, invert, *start)

    monkeypatch.setattr(series, "_theta", spy)
    for a, b, m in ((1, 1, 2), (1, 3, 4), (2, 3, 5), (2, 1, 3)):
        terms = sum(map(bool, theta_sum(m, 2 * m, 3000).scalar_coeffs()))
        entries.clear()
        series._product(a, b, m, False, 3000)
        assert sorted(entries) == [1, terms], (a, b, m)


def test_pochhammer_refuses_divergent_inverse():
    with pytest.raises(CopaError):
        pochhammer_factor(order=10, q_offset=0, q_step=2, invert=True)


def _geometric_reference(row: list[int], t: int, c: int) -> list[int]:
    out = list(row)
    for n in range(t, len(out)):
        out[n] = row[n] + c * out[n - t]
    return out


@settings(max_examples=300)
@given(
    st.lists(st.integers(-(2**200), 2**200), max_size=40),
    st.integers(1, 41),
    st.sampled_from((1, -1)),
)
def test_scalar_divide_matches_the_recurrence(row, t, c):
    t = min(t, len(row) + 1)
    out = list(row)
    series._divide_geometric(out, t, c)
    assert out == _geometric_reference(row, t, c)


def test_scalar_inverse_with_negative_sign():
    # 1 / (-q; q)_inf: the scalar kernel's c = -1 loop, as mock_theta_nu runs it
    inverted = pochhammer_factor(coeff_sign=-1, invert=True, order=200)
    direct = pochhammer_factor(coeff_sign=-1, order=200)
    assert inverted * direct == _unit(200)
    assert inverted != pochhammer_factor(invert=True, order=200)


@pytest.mark.parametrize("c", (0, 2, -2))
def test_scalar_divide_refuses_other_coefficients(c):
    row = [1, 2, 3, 4]
    with pytest.raises(SeriesError, match=f"got {c}"):
        series._divide_geometric(row, 1, c)
    assert row == [1, 2, 3, 4]


def test_product_and_double_sum_agree():
    for params in ((1, 1, 1), (1, 3, 4), (2, 3, 5), (4, 4, 4)):
        assert gf_product(params, 25).agrees_with(gf_double_sum(params, 25))


def test_markers_track_component_counts():
    s = gf_product((1, 3, 4), 12, markers=True)
    # q^12 coefficient: x marks sky parts, y marks ground parts
    assert s.coefficient(12) == {
        (0, 12): 1,
        (0, 8): 1,
        (0, 4): 2,
        (1, 1): 2,
        (4, 0): 1,
    }
    assert s.coefficient(12).get((4, 0), 0) == 1
    assert s.at_markers_one().coefficient_int(12) == 7


def test_marked_product_matches_the_factor_oracle():
    for a, b, m in iproduct(range(1, 5), range(1, 5), range(1, 5)):
        # the product form multiplied out from its definition, with none of
        # the package's kernels
        oracle = _series(reference_marked_product(a, b, m, 36), 36)
        for order in (0, 1, 2, m + 1, 17, 35, 36):
            s = gf_product((a, b, m), order)
            assert s == oracle.truncate(order), ((a, b, m), order)
            # a build makes no key past its least copartition size
            built = series._product(a, b, m, True, order)
            assert all(m * w * k + a * w + b * k <= order for k, w in built.rows), ((a, b, m), order)


def test_marked_product_truncates_across_row_lengths():
    # Row (s, w) has (order - b*s - a*w) // m + 1 slots, so every row gains
    # a slot once in each run of m consecutive orders.
    for a, b, m in iproduct(range(1, 5), range(1, 5), range(1, 5)):
        for order in range(24, 24 + m):
            for j in range(1, m + 1):
                longer = gf_product((a, b, m), order + j)
                assert longer.truncate(order) == gf_product((a, b, m), order), ((a, b, m), order, j)


def test_marked_product_never_creates_a_key_past_the_order():
    # One row per key (s, w) whose least copartition size is within the
    # order, at its progression length, and no other key.  Row (s, w) holds
    # exactly the product's coefficients of q^(b*s + a*w + m*i): zero below
    # i = w*s, and nonzero there, at the key's least copartition.
    for (a, b, m), order in (((1, 1, 1), 30), ((1, 1, 2), 40), ((2, 3, 5), 40), ((3, 1, 4), 9)):
        built = series._product(a, b, m, True, order)
        oracle = _series(reference_marked_product(a, b, m, order), order)
        keys = iproduct(range(order + 1), repeat=2)
        down_set = {(k, w) for k, w in keys if m * w * k + a * w + b * k <= order}
        assert built.family == (a, b, m) and built.rows.keys() == down_set, (a, b, m)
        for (k, w), row in built.rows.items():
            start = b * k + a * w
            assert len(row) == (order - start) // m + 1, ((a, b, m), (k, w))
            assert not any(row[: w * k]) and row[w * k], ((a, b, m), (k, w))
            column = [oracle.coefficient(start + m * i).get((k, w), 0) for i in range(len(row))]
            assert row == column, ((a, b, m), (k, w))


@pytest.mark.parametrize("build", (series._product, series._double_sum))
def test_marked_rows_come_in_ascending_least_size(build):
    # A read of q^n stops at the first row whose least copartition size is
    # past n, so a row out of this order would drop its key from the reads.
    for a, b, m in iproduct(range(5), range(5), range(1, 5)):
        if build is series._product and not (a and b):
            continue
        for order in (0, 1, m, 17, 36):
            built = build(a, b, m, True, order)
            least = [(m * w * k + a * w + b * k, (k, w)) for k, w in built.rows]
            assert least == sorted(least), ((a, b, m), order)
            assert all(size <= order for size, _ in least), ((a, b, m), order)


def _marked_grid():
    for a, b, m in iproduct(range(5), range(5), range(1, 5)):
        builds = [series._double_sum] + [series._product] * bool(a and b)
        for build, order in iproduct(builds, (0, 1, m, 17, 36)):
            yield build(a, b, m, True, order)


def _dense_copy(built: TruncatedSeries) -> TruncatedSeries:
    # The dict constructor's series of the coefficients in built's rows,
    # placed by the layout rule: row (s, w) holds q^(b*s + a*w + m*i) at i.
    a, b, m = built.family
    coeffs: dict[int, dict[tuple[int, int], int]] = {}
    for (s, w), row in built.rows.items():
        for i, c in enumerate(row):
            coeffs.setdefault(b * s + a * w + m * i, {})[(s, w)] = c
    return TruncatedSeries(built.order, coeffs)


def test_every_reader_of_a_marked_series_reads_its_dense_copy():
    # Each marked build, and its truncations to 0 and to the m orders below
    # its own, where row lengths step, read as their dense copies do, and
    # equality and products hold across the two layouts.
    probe = _series({(0, 0, 0): 1, (1, 1, 0): -1}, 36)
    for built in _marked_grid():
        order, m = built.order, built.family[2]
        dense = _dense_copy(built)
        assert dense.family == series._DENSE
        for n in range(order + 1):
            column = dense.coefficient(n)
            assert built.coefficient(n) == column, (built.family, order, n)
            if column.keys() - {(0, 0)}:
                with pytest.raises(SeriesError, match="marker degrees"):
                    built.coefficient_int(n)
            else:
                assert built.coefficient_int(n) == column.get((0, 0), 0), (built.family, n)
        for k in sorted({0, *range(max(0, order - m), order + 1)}):
            cut, copy = built.truncate(k), dense.truncate(k)
            label = (built.family, order, k)
            assert cut.columns() == [copy.coefficient(n) for n in range(k + 1)], label
            assert cut.at_markers_one() == copy.at_markers_one(), label
            assert cut == copy and copy.agrees_with(built), label
            with pytest.raises(SeriesError, match="beyond order"):
                cut.coefficient(k + 1)
        cut = built.truncate(max(0, order - 1))
        assert probe * cut == probe * dense.truncate(cut.order) == cut * probe, built.family
        if order:
            # one coefficient changed is seen across the layouts
            nudged = _sum(dense, TruncatedSeries(order, {order: {(1, 1): 1}}))
            assert not built.agrees_with(nudged) and built != nudged, built.family


@pytest.mark.parametrize(
    "params, orders",
    (
        ((1, 1, 2), (48, 64, 80, 96, 112)),
        ((1, 2, 4), (48, 64, 80, 96, 112)),
        ((1, 3, 4), (48, 64, 80, 96, 112)),
        ((2, 3, 5), (48, 64, 80, 96, 112)),
        ((1, 1, 1), (64,)),
    ),
)
def test_marked_product_matches_the_double_sum_at_the_refined_orders(params, orders):
    # the orders the refined benchmark workload builds
    for order in orders:
        product = series._product(*params, True, order)
        assert product == series._double_sum(*params, True, order), order


def test_marked_product_matches_the_double_sum_far_out():
    # order 200 against the double sum, and classes up to 7 against the oracle
    for params in ((1, 1, 1), (1, 1, 2)):
        product = series._product(*params, True, 200)
        assert product == series._double_sum(*params, True, 200), params
    for a, b, m in ((5, 7, 3), (7, 5, 6), (6, 6, 7)):
        oracle = _series(reference_marked_product(a, b, m, 28), 28)
        assert series._product(a, b, m, True, 28) == oracle, (a, b, m)


def test_one_cell_is_its_one_double_sum_term():
    # the floors included: no s = 0 when a = 0, no w = 0 when b = 0, and
    # nothing at a negative count
    for a, b, m in iproduct(range(4), range(4), range(1, 4)):
        for n in range(-1, 30):
            table = count_refined((a, b, m), n).table
            for w, s in iproduct(range(-1, 7), repeat=2):
                assert count_cell((a, b, m), n, w, s) == table.get((w, s), 0), ((a, b, m), n, w, s)


def test_series_errors_are_typed():
    unit = _unit(5)
    calls = (
        (lambda: TruncatedSeries(-1), "order must be non-negative, got -1"),
        (lambda: TruncatedSeries(5, {-2: {(0, 0): 1}}), "negative exponent -2"),
        (lambda: unit.coefficient(6), "coefficient 6 beyond order 5"),
        (lambda: gf_product((1, 1, 1), 5).coefficient_int(2), "specialize first"),
        (lambda: unit.truncate(6), "cannot extend order 5 to 6"),
        (lambda: pochhammer_factor(2, order=5), "coeff_sign must be +1 or -1, got 2"),
        (lambda: pochhammer_factor(q_step=0, order=5), "q_step must be positive, got 0"),
        (lambda: pochhammer_factor(q_offset=-1, order=5), "q_offset must be non-negative, got -1"),
        (lambda: pochhammer_factor(q_offset=0, invert=True, order=5), "constant term != 1"),
        (lambda: gf_product((0, 1, 2), 5), "product form needs a, b >= 1, got (0,1,2)"),
        (lambda: rr_function("F", "sum", 5), "which must be G or H, got 'F'"),
        (lambda: rr_function("G", "closed", 5), "form must be sum or product, got 'closed'"),
        (lambda: theta_sum(0, 0, 5), "summing to >= 1, got (0,0)"),
    )
    for call, message in calls:
        with pytest.raises(SeriesError, match=re.escape(message)) as info:
            call()
        assert isinstance(info.value, CopaError) and isinstance(info.value, ValueError)


def test_pochhammer_factor_follows_the_int_rule():
    # order, q_offset and q_step read as every other builder's scalars do
    assert pochhammer_factor(q_offset=2.0, q_step=3.0, order=9.0) == pochhammer_factor(
        q_offset=2, q_step=3, order=9
    )
    for kwargs, message in (
        ({"order": 2.5}, "order 2.5 is not an integer"),
        ({"q_offset": 1.5, "order": 5}, "q_offset 1.5 is not an integer"),
        ({"q_step": 2.5, "order": 5}, "q_step 2.5 is not an integer"),
        ({"q_step": "2", "order": 5}, "q_step '2' is not an integer"),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            pochhammer_factor(**kwargs)


def test_scalar_reads_raise_only_on_a_nonzero_marker_coefficient():
    s = TruncatedSeries(5, {0: {(0, 0): 1}, 2: {(0, 0): 4}, 3: {(1, 0): 2, (0, 0): 7}})
    assert [s.coefficient_int(n) for n in (0, 1, 2, 4, 5)] == [1, 0, 4, 0, 0]
    with pytest.raises(SeriesError, match="specialize first"):
        s.coefficient_int(3)
    marked_only = TruncatedSeries(5, {2: {(1, 1): 3}})
    assert marked_only.coefficient_int(1) == 0
    with pytest.raises(SeriesError, match="specialize first"):
        marked_only.coefficient_int(2)


def test_scalar_and_refined_reads_past_the_order_raise_and_below_zero_read_zero():
    s = TruncatedSeries(5, {0: {(0, 0): 1}, 3: {(1, 2): 2}})
    # x marks sky parts, y ground parts: the x^1 y^2 coefficient
    for read in (s.coefficient_int, lambda n: s.coefficient(n).get((1, 2), 0)):
        with pytest.raises(SeriesError, match=re.escape("coefficient 6 beyond order 5")):
            read(6)
        assert read(-1) == 0
    assert s.coefficient(3).get((1, 2), 0) == 2
    assert s.coefficient(3).get((2, 1), 0) == 0
    assert s.coefficient(2).get((1, 2), 0) == 0


def test_gf_rejects_zero_classes():
    with pytest.raises(CopaError):
        gf_product((0, 1, 2), 10)
    # The double sum covers the degenerate families.
    totals = gf_double_sum((1, 0, 2), 10).at_markers_one()
    assert totals.scalar_coeffs() == [brute_copartition_count(1, 0, 2, n) for n in range(11)]


def test_double_sum_matches_the_block_counted_tables():
    for a, b, m in iproduct(range(5), range(5), range(1, 5)):
        dsum = gf_double_sum((a, b, m), 30)
        for n in range(31):
            table = count_refined((a, b, m), n, "enum").table
            swapped = {(s, w): c for (w, s), c in table.items()}
            assert dsum.coefficient(n) == swapped, ((a, b, m), n)
        counts = [count_series((a, b, m), n) for n in range(31)]
        assert dsum.at_markers_one().scalar_coeffs() == counts, (a, b, m)


def test_count_series_matches_brute_force():
    for params in ((1, 1, 2), (1, 3, 4), (0, 1, 2), (0, 2, 3), (3, 0, 4), (0, 0, 1), (0, 0, 2)):
        for n in range(14):
            assert count_series(params, n) == brute_copartition_count(*params, n), (
                params,
                n,
            )
    assert count_series((1, 1, 2), -2) == 0


def test_count_series_keeps_the_highest_order_series():
    params = (2, 3, 7)
    key = ("_product", *params, False)
    series._store.pop(key, None)
    count_series(params, 200)
    count_series(params, 5)
    assert series._store[key].order == 208
    assert count_series(params, 300) == gf_product(params, 300, markers=False).coefficient_int(300)
    assert series._store[key].order == 304


# Every stored builder: (call at an order, the raw build, its store key).
STORED = {
    "product": (
        lambda o: gf_product((1, 1, 2), o),
        lambda o: series._product(1, 1, 2, True, o),
        ("_product", 1, 1, 2, True),
    ),
    "product-scalar": (
        lambda o: gf_product((1, 1, 2), o, markers=False),
        lambda o: series._product(1, 1, 2, False, o),
        ("_product", 1, 1, 2, False),
    ),
    "double-sum": (
        lambda o: gf_double_sum((1, 1, 1), o),
        lambda o: series._double_sum(1, 1, 1, True, o),
        ("_double_sum", 1, 1, 1, True),
    ),
    "double-sum-scalar": (
        lambda o: gf_double_sum((1, 1, 1), o, markers=False),
        lambda o: series._double_sum(1, 1, 1, False, o),
        ("_double_sum", 1, 1, 1, False),
    ),
    **{
        f"rr-{which}-{form}": (
            lambda o, w=which, f=form: rr_function(w, f, o),
            lambda o, w=which, f=form: rr_function.__wrapped__(w, f, o),
            ("rr_function", which, form),
        )
        for which in "GH"
        for form in ("sum", "product")
    },
    "theta-sum": (
        lambda o: theta_sum(1, 2, o),
        lambda o: theta_sum.__wrapped__(1, 2, o),
        ("theta_sum", 1, 2),
    ),
    "theta-product": (
        lambda o: theta_product(1, 2, o),
        lambda o: theta_product.__wrapped__(1, 2, o),
        ("theta_product", 1, 2),
    ),
    "nu": (mock_theta_nu, mock_theta_nu.__wrapped__, ("mock_theta_nu",)),
    "eo-star": (eo_star_gf, eo_star_gf.__wrapped__, ("eo_star_gf",)),
}

# The three count_series families (the two one-zero-class mirrors share a
# key) and the store key each one reads.
COUNT_FAMILIES = {
    (2, 5, 3): ("_product", 2, 5, 3, False),
    (0, 2, 3): ("_degenerate_series", 2, 3),
    (2, 0, 3): ("_degenerate_series", 2, 3),
    (0, 0, 2): ("_degenerate_series", 0, 2),
}


def test_cold_eo_star_gf_finishes():
    # eo_star_gf builds mock_theta_nu inside the store's lock.  This test
    # comes before the other store tests, so a deadlock fails here first.
    series._store.pop(("eo_star_gf",), None)
    series._store.pop(("mock_theta_nu",), None)
    out = []
    worker = threading.Thread(target=lambda: out.append(eo_star_gf(40)), daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "eo_star_gf deadlocked"
    assert out == [eo_star_gf.__wrapped__(40)]


@pytest.mark.parametrize("name", STORED)
def test_lower_orders_are_truncations_of_the_stored_series(name):
    call, build, key = STORED[name]
    series._store.pop(key, None)
    assert call(60) == build(60)
    top = series._store[key]
    assert top.order == 64 and top == build(64)
    assert call(64) is top
    for order in (0, 1, 17, 40, 59, 60):
        assert call(order) == build(order), (name, order)
    assert series._store[key] is top


@pytest.mark.parametrize("name", STORED)
def test_an_order_sweep_stores_one_series_per_key(name):
    call, build, key = STORED[name]
    series._store.pop(key, None)
    before = set(series._store)
    for order in range(61):
        call(order)
    assert set(series._store) - before <= {key, ("mock_theta_nu",)}
    assert key in series._store and series._store[key].order == 64
    assert call(33) == build(33)


def test_an_ascending_sweep_builds_once_per_chunk(monkeypatch):
    orders = []

    @functools.wraps(series._product)
    def counted(*args):
        orders.append(args[-1])
        return series._product(*args)

    monkeypatch.setattr(series, "_gf_product_cached", series._keep_highest(counted))
    series._store.pop(("_product", 1, 1, 2, True), None)
    for order in range(40, 64):
        assert gf_product((1, 1, 2), order) == series._product(1, 1, 2, True, order)
    assert orders == [48, 64]


@pytest.mark.parametrize("params", COUNT_FAMILIES)
def test_count_series_shares_the_store(params):
    key = COUNT_FAMILIES[params]
    series._store.pop(key, None)
    before = set(series._store)
    counts = [count_series(params, n) for n in range(61)]
    assert set(series._store) - before == {key}
    stored = series._store[key]
    assert stored.order == 64
    assert counts[:15] == [brute_copartition_count(*params, n) for n in range(15)]
    assert counts == gf_double_sum(params, 60).at_markers_one().scalar_coeffs()
    if params[0] and params[1]:
        assert gf_product(params, 64, markers=False) is stored
    else:
        assert series._stored(series._degenerate_series, key[1:], 64) is stored


def _count_builder(a: int, b: int, m: int):
    # the builder count_series stores for these params, and its key
    if a and b:
        return series._product, (a, b, m, False)
    return series._degenerate_series, (a + b, m)


@pytest.mark.parametrize(
    "params",
    (
        (1, 1, 2),
        (2, 3, 5),
        (5, 3, 4),  # a complementary pair with a leading factor
        (1, 3, 2),  # an Euler numerator with a leading factor
        (1, 1, 1),
        (1, 2, 4),
        (0, 1, 1),
        (0, 2, 3),
        (0, 0, 1),
        (0, 0, 3),
    ),
)
@pytest.mark.parametrize("n0, n1", ((16, 300), (416, 432), (640, 704)))
def test_a_continued_series_equals_a_fresh_build(params, n0, n1):
    build, key = _count_builder(*params)
    series._store.pop((build.__name__, *key), None)
    old = series._stored(build, key, n0)
    rows = {k: list(row) for k, row in old.rows.items()}
    grown = series._stored(build, key, n1)
    assert grown.order == -(-n1 // 16) * 16
    assert grown == build(*key, grown.order)
    # the replaced series, which earlier truncations share, is unchanged
    assert old.rows == rows and old == build(*key, n0)


def test_an_ascending_count_sweep_divides_each_coefficient_once(monkeypatch):
    # each build above a stored series runs its theta recurrence from one
    # past the stored order
    starts = []
    theta = series._theta

    def spy(row, order, x, y, invert, start=0):
        if invert:
            starts.append((order, start))
        return theta(row, order, x, y, invert, start)

    monkeypatch.setattr(series, "_theta", spy)
    series._store.pop(("_product", 1, 1, 2, False), None)
    counts = [count_series((1, 1, 2), n) for n in range(401)]
    assert starts == [(order, order - 15) for order in range(16, 401, 16)]
    assert counts == series._product(1, 1, 2, False, 400).scalar_coeffs()


def test_the_store_keeps_the_most_recently_used_families_within_its_bound():
    """A sweep over more families than the store holds drops the least
    recently used ones; a count_series read counts as a use."""
    with series._store_lock:
        series._store.clear()
    triples = list(iproduct(range(1, 12), range(1, 12), range(1, 11)))
    assert len(triples) > series._STORE_MAX
    kept = triples[0]
    for i, params in enumerate(triples):
        count_series(params, 3)
        if i % 100 == 0:
            count_series(kept, 3)
        assert len(series._store) <= series._STORE_MAX
    assert len(series._store) == series._STORE_MAX
    assert ("_product", *kept, False) in series._store
    assert ("_product", *triples[1], False) not in series._store
    assert ("_product", *triples[-1], False) in series._store
    assert count_series(triples[1], 3) == brute_copartition_count(*triples[1], 3)


@pytest.mark.parametrize("name", STORED)
def test_a_negative_order_is_refused_with_or_without_a_stored_series(name):
    call, _, key = STORED[name]
    message = "order must be non-negative, got -1"
    series._store.pop(key, None)
    with pytest.raises(SeriesError, match=re.escape(message)):
        call(-1)
    assert key not in series._store
    call(10)
    with pytest.raises(SeriesError, match=re.escape(message)):
        call(-1)
    assert series._store[key].order == 16


def test_a_builder_that_raises_stores_nothing():
    calls = (
        (lambda: rr_function("F", "sum", 5), ("rr_function", "F", "sum")),
        (lambda: rr_function("G", "closed", 5), ("rr_function", "G", "closed")),
        (lambda: theta_sum(0, 0, 5), ("theta_sum", 0, 0)),
        (lambda: theta_product(-1, 2, 5), ("theta_product", -1, 2)),
    )
    for call, key in calls:
        with pytest.raises(SeriesError):
            call()
        assert key not in series._store, key


def test_stored_builders_take_the_order_by_keyword():
    assert theta_sum(1, 2, order=12) == theta_sum(1, 2, 12)
    assert rr_function("G", form="product", order=9) == rr_function("G", "product", 9)
    assert eo_star_gf(order=8) == eo_star_gf(8)


def test_rogers_ramanujan_first_coefficients():
    g = rr_function("G", "sum", 30)
    assert [g.coefficient_int(n) for n in range(7)] == [1, 1, 1, 1, 2, 2, 3]
    assert g.agrees_with(rr_function("G", "product", 30))
    h = rr_function("H", "sum", 30)
    assert h.agrees_with(rr_function("H", "product", 30))
    assert h.coefficient_int(0) == 1 and h.coefficient_int(1) == 0


def test_theta_sum_equals_product():
    for x, y in ((1, 2), (1, 4), (2, 3), (1, 1), (3, 4)):
        assert theta_sum(x, y, 40).agrees_with(theta_product(x, y, 40))
        assert theta_f(x, y, 40) == theta_sum(x, y, 40)
    assert theta_f is theta_sum
    # fresh builds, short and long: the multiply skips the zero tail of the row
    pairs = ((1, 2), (2, 3), (1, 1), (0, 3), (3, 0), (2, 2), (1, 4), (5, 10))
    for (x, y), order in iproduct(pairs, (0, 1, 7, 300, 576)):
        assert theta_sum.__wrapped__(x, y, order) == theta_product.__wrapped__(x, y, order), (x, y)


def test_theta_sum_against_the_bilateral_sum():
    for x, y in iproduct(range(5), repeat=2):
        if x + y:
            for order in (0, 1, 2, 7, 60):
                naive = [0] * (order + 1)
                for n in range(-order - 1, order + 2):
                    if (d := x * n * (n + 1) // 2 + y * n * (n - 1) // 2) <= order:
                        naive[d] += (-1) ** n
                assert theta_sum(x, y, order).scalar_coeffs() == naive, (x, y, order)


def test_dividing_by_theta_with_doubled_terms_against_naive():
    # theta(x, x) = (q^x; q^2x)_inf^2 (q^2x; q^2x)_inf lists each exponent twice
    order = 200
    for x in (1, 2, 3):
        naive = poly_mul(poly_pochhammer(x, 2 * x, order), poly_pochhammer(x, 2 * x, order), order)
        naive = poly_mul(naive, poly_pochhammer(2 * x, 2 * x, order), order)
        ref = TruncatedSeries(order, {n: {(0, 0): c} for n, c in naive.items()})
        row = [1] + [0] * order
        series._theta(row, order, x, x, True)
        assert TruncatedSeries._of_rows(order, {(0, 0): row}) * ref == _unit(order), x
        series._theta(row, order, x, x, False)
        assert row == [1] + [0] * order, x


@pytest.mark.parametrize("a, b, m", ((3, 5, 4), (5, 3, 4), (7, 1, 4), (2, 5, 7)))
def test_complementary_classes_match_the_double_sum(a, b, m):
    # one theta division, then the leading factors below a and b
    for order in sorted({0, 1, min(a, b) - 1, max(a, b) - 1, a + b - 1, 300}):
        assert series._product(a, b, m, False, order) == series._double_sum(a, b, m, False, order)


def test_theta_zero_exponent_vanishes():
    assert theta_sum(0, 3, 20) == TruncatedSeries(20)
    assert theta_product(0, 3, 20) == TruncatedSeries(20)
    with pytest.raises(ValueError):
        theta_sum(0, 0, 20)


def test_mock_theta_nu_against_naive_expansion():
    order = 30
    naive: dict[int, int] = {}
    n = 0
    while n * n + n <= order:
        den = {0: 1}
        for j in range(n + 1):
            den = poly_mul(den, {0: 1, 2 * j + 1: 1}, order)
        term = poly_mul({n * n + n: 1}, poly_inverse(den, order), order)
        for k, v in term.items():
            naive[k] = naive.get(k, 0) + v
        n += 1
    s = mock_theta_nu(order)
    assert all(s.coefficient_int(k) == naive.get(k, 0) for k in range(order + 1))


def test_even_odd_gf_from_mock_theta():
    s = eo_star_gf(24)
    for n in range(25):
        assert s.coefficient_int(n) == len(brute_eo_star(n))
    nu = mock_theta_nu(24)
    for n in range(25):
        assert s.coefficient_int(n) == (0 if n % 2 else nu.coefficient_int(n)), n


# -- Far checks: two independent fast paths, well past the suites' ranges --


@pytest.mark.parametrize("a, b, m", ((1, 2, 3), (1, 1, 2), (1, 3, 4), (2, 3, 5)))
def test_far_conjugation_transposes_the_marked_double_sum(a, b, m):
    # swapping ground and sky maps the (a,b,m)-copartitions with w ground
    # and s sky parts onto the (b,a,m)-copartitions with s and w
    swapped = {(w, s): row for (s, w), row in series._double_sum(a, b, m, True, 200).rows.items()}
    assert swapped == series._double_sum(b, a, m, True, 200).rows


@pytest.mark.parametrize("b, m", ((1, 1), (1, 2), (2, 3), (3, 4)))
def test_far_lambert_series_matches_the_double_sum(b, m):
    lambert = series._degenerate_series(b, m, 500)
    assert lambert == series._double_sum(0, b, m, False, 500)


@pytest.mark.parametrize("m", range(1, 5))
def test_far_counts_with_both_classes_zero_match_the_double_sum(m):
    counts = [count_series((0, 0, m), n) for n in range(401)]
    assert counts == series._double_sum(0, 0, m, False, 400).scalar_coeffs()


def test_far_scaling_of_the_degenerate_families():
    # Multiplying every part by s maps the (a, b, m)-copartitions of n onto
    # the (s*a, s*b, s*m)-copartitions of s*n: the Lambert-side count against
    # the scaled double sum, which has nothing off the multiples of s.
    order = 300
    for a, b, m in iproduct(range(4), range(4), range(1, 4)):
        if a and b:
            continue
        counts = [count_series((a, b, m), n) for n in range(order + 1)]
        for s in (2, 3):
            scaled = gf_double_sum((s * a, s * b, s * m), s * order, markers=False)
            expected = [0 if k % s else counts[k // s] for k in range(s * order + 1)]
            assert scaled.scalar_coeffs() == expected, ((a, b, m), s)


def test_far_even_odd_counts_are_the_halved_copartition_counts():
    # The mock-theta relation to order 2000: even-odd partitions of 2n are
    # the (1,1,2)-copartitions of n, and none has an odd size.
    coeffs = eo_star_gf(2000).scalar_coeffs()
    assert coeffs[::2] == gf_product((1, 1, 2), 1000, markers=False).scalar_coeffs()
    assert not any(coeffs[1::2])


@pytest.mark.parametrize("x, y", ((1, 2), (2, 3), (2, 2)))
def test_far_theta_division_is_undone_by_the_theta_product(x, y):
    # A random row divided by theta(x, y) at an order of the ones copa count
    # serves, and multiplied back: the quotient is right through its last
    # coefficient.  x = y walks each doubled term once.
    rng = random.Random(f"{x},{y}")
    order = rng.randrange(6000, 8001)
    row = [rng.randrange(-9, 10) for _ in range(order + 1)]
    quotient = list(row)
    series._theta(quotient, order, x, y, True)
    series._theta(quotient, order, x, y, False)
    assert quotient == row


def _route_orders(a: int, b: int, m: int):
    # Orders on both sides of each _walk crossover: 0, 1, next to the class
    # offsets and their doubles, and anywhere up to a few hundred.
    offsets = {a, b, a + b, m, 2 * (a + b), 2 * m}
    near = st.sampled_from(sorted(offsets)).flatmap(lambda o: st.integers(max(o - 1, 0), o + 1))
    return st.sampled_from((0, 1)) | near | st.integers(0, 300)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 8), st.data())
def test_scalar_product_is_the_marked_product_at_markers_one(a, b, m, data):
    # the marked path takes no theta route, whatever the triple
    order = data.draw(_route_orders(a, b, m).filter(lambda o: o <= 200))
    marked = gf_product((a, b, m), order, markers=True)
    assert gf_product((a, b, m), order, markers=False) == marked.at_markers_one()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 8), st.data())
def test_scalar_builders_match_the_double_sum_on_every_route(a, b, m, data):
    # zero classes and classes above the modulus included; the builder is
    # the one count_series stores, at the drawn order
    order = data.draw(_route_orders(a, b, m))
    expected = series._double_sum(a, b, m, False, order).scalar_coeffs()
    if a and b:
        built = series._product(a, b, m, False, order)
    else:
        built = series._degenerate_series(a + b, m, order)
    assert built.scalar_coeffs() == expected
    n = data.draw(st.integers(0, order))
    assert count_series((a, b, m), n) == expected[n]


@pytest.mark.parametrize("params", ((1, 1, 2), (2, 3, 5)))
def test_far_marked_product_matches_the_double_sum(params):
    assert series._product(*params, True, 150) == series._double_sum(*params, True, 150)
