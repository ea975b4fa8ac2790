"""The truncated series engine and the named q-series built on it."""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from copa import series
from copa.enumeration import _refined_up_to
from copa.errors import CopaError
from copa.partitions import partition_count
from copa.series import (
    TruncatedSeries,
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
    poly_mul,
    poly_pochhammer,
)

ORDER = 24


def _series(terms: dict[tuple[int, int, int], int]) -> TruncatedSeries:
    coeffs: dict[int, dict[tuple[int, int], int]] = {}
    for (n, x, y), c in terms.items():
        coeffs.setdefault(n, {})[(x, y)] = c
    return TruncatedSeries(ORDER, coeffs)


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


def test_monomial_basics():
    one = TruncatedSeries.one(10)
    q = TruncatedSeries.monomial(10, 1)
    assert (one + q).coefficient_int(1) == 1
    assert (q * q).coefficient_int(2) == 1
    assert (q * q * q).coefficient_int(3) == 1
    assert (one - one).is_zero()
    assert q.shift(3).coefficient_int(4) == 1
    assert (3 * q - q * 3).is_zero()


def test_truncation_and_min_order():
    a = TruncatedSeries.monomial(20, 0)
    b = TruncatedSeries.monomial(8, 1)
    assert (a * b).order == 8
    assert a.truncate(5).order == 5


def test_constructor_drops_zeros():
    s = TruncatedSeries(10, {3: {(0, 0): 0}, 4: {(1, 0): 2}})
    assert s.coefficient(3) == {}
    assert s.coefficient(4) == {(1, 0): 2}


@settings(max_examples=60)
@given(any_series, any_series, any_series)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40)
@given(any_series)
def test_inverse_of_unit(s):
    u = TruncatedSeries.one(ORDER) + s.shift(1).truncate(ORDER)
    assert (u * u.inverse()).agrees_with(TruncatedSeries.one(ORDER))


def test_inverse_requires_unit_constant():
    with pytest.raises(CopaError):
        TruncatedSeries.monomial(10, 1).inverse()


def test_pochhammer_against_naive():
    for offset, step in ((1, 1), (2, 4), (3, 5), (2, 2)):
        s = pochhammer_factor(order=30, q_offset=offset, q_step=step)
        ref = poly_pochhammer(offset, step, 30)
        assert all(s.coefficient_int(n) == ref.get(n, 0) for n in range(31))


def test_pochhammer_inverse_counts_partitions():
    euler = pochhammer_factor(order=50, q_offset=1, q_step=1, invert=True)
    for n in range(51):
        assert euler.coefficient_int(n) == partition_count(n)
    direct = pochhammer_factor(order=50, q_offset=1, q_step=1)
    assert (euler * direct).agrees_with(TruncatedSeries.one(50))


def test_pochhammer_with_markers_inverts():
    for sign, x_deg, y_deg, offset, step in ((1, 1, 0, 1, 1), (-1, 1, 0, 2, 3), (1, 1, 1, 2, 2)):
        kw = dict(coeff_sign=sign, x_deg=x_deg, y_deg=y_deg, q_offset=offset, q_step=step)
        inverted = pochhammer_factor(**kw, invert=True, order=30)
        assert inverted * pochhammer_factor(**kw, order=30) == TruncatedSeries.one(30)


def test_pochhammer_refuses_divergent_inverse():
    with pytest.raises(CopaError):
        pochhammer_factor(order=10, q_offset=0, q_step=2, invert=True)


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
    assert s.refined_coefficient(12, ground_parts=0, sky_parts=4) == 1
    assert s.at_markers_one().coefficient_int(12) == 7
    swapped = s.swap_markers()
    assert swapped.coefficient(12)[(12, 0)] == 1


def test_gf_rejects_zero_classes():
    with pytest.raises(CopaError):
        gf_product((0, 1, 2), 10)
    # The double sum covers the degenerate families.
    totals = gf_double_sum((1, 0, 2), 10).at_markers_one()
    assert totals.scalar_coeffs() == [brute_copartition_count(1, 0, 2, n) for n in range(11)]


def test_double_sum_matches_the_block_counted_tables():
    for a, b, m in iproduct(range(5), range(5), range(1, 5)):
        dsum = gf_double_sum((a, b, m), 30)
        tables = _refined_up_to((a, b, m), 30)
        for n in range(31):
            swapped = {(s, w): c for (w, s), c in tables[n].items()}
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
    count_series(params, 200)
    count_series(params, 5)
    assert series._count_cache[params].order == 256
    assert count_series(params, 300) == gf_product(params, 300, markers=False).coefficient_int(300)
    assert series._count_cache[params].order == 320


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


def test_theta_zero_exponent_vanishes():
    assert theta_sum(0, 3, 20).is_zero()
    assert theta_product(0, 3, 20).is_zero()
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
    halves = nu + nu.substitute_q_negated()
    for n in range(0, 25, 2):
        assert halves.coefficient_int(n) == 2 * s.coefficient_int(n)
