"""Truncated formal power series in q over exact integers.

Two marker variables ride along with q: x tracks sky-part counts and y
tracks ground-part counts.  A series of order N stores one list of
q-coefficients per marker monomial x^s y^w, keyed (s, w), laid out by the
series' family (a, b, m): row (s, w) holds q^(b*s + a*w + m*i) at index i,
through q^N.  A scalar series has only the key (0, 0), and it and every
other series but the marked ones are dense, family (0, 0, 1): entry i is
q^i.  Nothing reads past q^N or tells a missing key from a list of zeros:
a truncation shares its source's dict of lists, so callers must not mutate
them.  Arithmetic results carry the minimum order of the operands, on the
dense layout.  There is no floating point anywhere.

The shared kernels are scalar: each works in place on one coefficient
list.  Two take one factor: times (1 + c q^t), and divide by (1 - c q^t),
which is the geometric recurrence out[n] = in[n] + c out[n - t].  Every
factor's c is 1 or -1, so they add or subtract and never multiply; other c
raise.  A third multiplies or divides by the theta series theta(x, y), the
sum over all n of (-1)^n q^(x n(n+1)/2 + y n(n-1)/2), which has about
2 sqrt(2N / (x + y)) terms through order N; a product walks each nonzero
entry against each term when that walks fewer coefficients than one slice
map per term.  A fourth adds up a single sum: one running term, divided by
a few factors per step and cut to the entries that still reach the order.
Euler's pentagonal theorem makes (q^m; q^m)_inf theta(m, 2m), so
(q^r; q^2r)_inf is theta(r, 2r) / theta(2r, 4r), and the triple product
makes (q^x; q^m)_inf (q^y; q^m)_inf theta(x, y) / (q^m; q^m)_inf when
x + y = m.  So (q^(j*m); q^m)_inf, j >= 1, (q^((2j+1)r); q^2r)_inf, and two
denominators in classes x, y >= 1 with x + y = m (this route first) go in
whole, and the factor kernels undo the leading factors, when that walks
fewer coefficients than the factors through the order do.  Any other
Pochhammer product goes in through Euler's sum, or its reciprocal through
Cauchy's, O(sqrt(N / step)) terms, unless its factors walk fewer
coefficients one by one.  Every scalar builder lists its kernel steps and
runs them on one list, wrapped once as the key (0, 0): products first,
while the list is still sparse, then divisions, a theta division last; a
product and a division by the same theta series cancel.  For a + b = m the
product form is theta(m, 2m)^2 / theta(a, b): two sparse products and one
recurrence.

The marked product and double sum of (a, b, m) keep their family's
layout, from build to read: key (s, w) only ever holds powers
q^(b*s + a*w + m*i), so its row keeps just those, and it is zero below
index w*s, the key's least copartition size m*w*s + a*w + b*s.  Only keys
whose least size is within the order are made, in ascending least size,
so a read of q^n stops at the first key past n.  The double sum's (w, s)
term is its key's whole row, after w*s zeros.  The product's two
q-difference equations, in x and in y, give each row from one or two rows
of smaller least size: one slice, at most one slice map and one geometric
recurrence per key.  The product's build reads nothing of the double sum,
which the gf-triple suite compares it with; the tests check it against the
three marked Pochhammer series multiplied out from their definition, in
tests/oracles.py.

Every builder below is memoized through one store.  A series of order N is
the truncation of any higher-order series of the same family, so for each
builder and each argument tuple without the order the store keeps only the
highest-order series built so far.  A request at or below that order gets
the stored series' truncation, which shares its rows (the series itself at
its own order); a higher order N > 0 is built at N rounded up to a
multiple of 16 and replaces it, so an ascending sweep of orders builds
once per 16 of them.  Orders <= 0 are built as asked.  The two scalar
builders that count_series reads, the product without markers and the
degenerate series, continue the series they replace: they compute the
input of their last theta division at the new order, copy the stored
coefficients through the old order into a new list (earlier truncations
share the old one) and run the recurrence only past it; a build that does
not end in a theta division starts over.  _stored hands out the stored
series itself, untruncated: count_series reads its coefficient there,
under the same rounding rule.  The store grows with the number of distinct
families asked for, not with the number of orders, and drops the least
recently used family past a fixed number of them.
"""

import threading
from collections import OrderedDict
from functools import wraps
from itertools import count, takewhile
from operator import add, itemgetter, sub
from typing import Callable, Optional, Sequence

from .copartitions import ParamsLike, coerce_params
from .errors import SeriesError
from .partitions import _as_int

Key = tuple[int, int]
Rows = dict[Key, list[int]]
# (a, b, m): row (s, w) holds q^(b*s + a*w + m*i) at index i
Family = tuple[int, int, int]
_DENSE: Family = (0, 0, 1)


def _one(order: int) -> list[int]:
    return [1] + [0] * order


# Every factor's coefficient is 1 or -1, so adding c times a row is one map.
_ADD = {1: add, -1: sub}


def _times_binomial(row: list[int], t: int, c: int) -> None:
    """row *= (1 + c q^t), in place: the row, shifted by t, added in once."""
    row[t:] = map(_ADD[c], row[t:], row)


def _divide_geometric(row: list[int], t: int, c: int) -> None:
    """row /= (1 - c q^t) for t >= 1, in place.

    n walks upwards through out[n] = in[n] + c out[n - t], one loop per sign
    of c, so no coefficient is multiplied by c.  Any other c raises.
    """
    if c == 1:
        for n in range(t, len(row)):
            row[n] += row[n - t]
    elif c == -1:
        for n in range(t, len(row)):
            row[n] -= row[n - t]
    else:
        raise SeriesError(f"factor coefficient must be +1 or -1, got {c}")


class TruncatedSeries:
    """Immutable by convention: no public operation mutates coefficients.

    Row (s, w) holds q^(b*s + a*w + m*i) at index i for the family
    (a, b, m), through the order, and may run past it.  A marked family's
    rows come in ascending least size, each zero below index w*s (see the
    module docstring).  A truncation and a store hit share their source's
    rows dict, so a caller must not mutate rows.
    """

    __slots__ = ("order", "rows", "family")

    def __init__(self, order: int, coeffs: Optional[dict[int, dict[Key, int]]] = None):
        """Series from {n: {(x_deg, y_deg): coefficient}}; terms past the order
        are dropped.  The order, exponents and coefficients follow the int rule."""
        order = _as_int(order, "order", scalar=True)
        if order < 0:
            raise SeriesError(f"order must be non-negative, got {order}")
        self.order = order
        self.family = _DENSE
        rows: Rows = {}
        for n, poly in (coeffs or {}).items():
            n = _as_int(n, "exponent", scalar=True)
            if n < 0:
                raise SeriesError(f"negative exponent {n}")
            if n <= order:
                for key, c in poly.items():
                    if c := _as_int(c, "coefficient", scalar=True):
                        rows.setdefault(key, [0] * (order + 1))[n] = c
        self.rows = rows

    @classmethod
    def _of_rows(cls, order: int, rows: Rows, family: Family = _DENSE) -> "TruncatedSeries":
        # Adopts rows on the family's layout without copying them.
        if order < 0:
            raise SeriesError(f"order must be non-negative, got {order}")
        out = object.__new__(cls)
        out.order, out.rows, out.family = order, rows, family
        return out

    def _within(self, n: int) -> None:
        if n > self.order:
            raise SeriesError(f"coefficient {n} beyond order {self.order}")

    def coefficient(self, n: int) -> dict[Key, int]:
        """Copy of the coefficient polynomial of q^n."""
        if type(n) is not int:  # store hits pass ints: no call
            n = _as_int(n, "exponent", scalar=True)
        self._within(n)
        if n < 0:
            return {}
        if self.family == _DENSE:
            return {key: row[n] for key, row in self.rows.items() if row[n]}
        # a marked family's rows come in ascending least size: stop past n
        a, b, m = self.family
        out = {}
        for key, row in self.rows.items():
            s, w = key
            start = b * s + a * w
            if start + m * w * s > n:
                break
            if not (n - start) % m and (c := row[(n - start) // m]):
                out[key] = c
        return out

    def coefficient_int(self, n: int) -> int:
        """Scalar coefficient of q^n; raises if a marker key has a nonzero
        coefficient there."""
        column = self.coefficient(n)
        if len(column) > ((0, 0) in column):
            raise SeriesError("series carries marker degrees; specialize first")
        return column.get((0, 0), 0)

    def columns(self, key: Optional[Callable[[Key], object]] = None) -> list[dict[Key, int]]:
        """Every coefficient polynomial, q^0 through q^order, from one pass
        over the rows; each lists its keys in ascending order of key(k), or
        of k itself."""
        (a, b, m), order = self.family, self.order
        out: list[dict[Key, int]] = [{} for _ in range(order + 1)]
        for k in sorted(self.rows, key=key):
            s, w = k
            for n, c in zip(range(b * s + a * w, order + 1, m), self.rows[k]):
                if c:
                    out[n][k] = c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.agrees_with(other)

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficientwise equality through the lower of the two orders."""
        order = min(self.order, other.order)
        return self.truncate(order).columns() == other.truncate(order).columns()

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        # each factor on the dense layout, through the dict constructor
        left, right = (
            TruncatedSeries(order, dict(enumerate(f.truncate(order).columns()))) for f in (self, other)
        )
        out: Rows = {}
        for (xa, ya), p in left.rows.items():
            for (xb, yb), q in right.rows.items():
                acc = out.setdefault((xa + xb, ya + yb), [0] * (order + 1))
                for i, c in enumerate(p):
                    if c:
                        acc[i:] = [u + c * v for u, v in zip(acc[i:], q)]
        return TruncatedSeries._of_rows(order, out)

    def truncate(self, order: int) -> "TruncatedSeries":
        """The series through q^order, sharing this series' rows dict: O(1)."""
        if type(order) is not int:  # store hits pass ints: no call
            order = _as_int(order, "order", scalar=True)
        if order > self.order:
            raise SeriesError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries._of_rows(order, self.rows, self.family)

    def at_markers_one(self) -> "TruncatedSeries":
        """Specialize x = y = 1, collapsing each coefficient to a scalar."""
        a, b, m = self.family
        total = [0] * (self.order + 1)
        for (s, w), row in self.rows.items():
            start = b * s + a * w
            total[start::m] = map(add, total[start::m], row)
        return TruncatedSeries._of_rows(self.order, {(0, 0): total})

    def scalar_coeffs(self) -> list[int]:
        """[c_0, ..., c_N] for a marker-free series."""
        return [self.coefficient_int(n) for n in range(self.order + 1)]


# (builder name, arguments but the order) -> highest-order series built so far,
# least recently used first; past _STORE_MAX keys the oldest is dropped.  A
# default verify pass stores 275.  The lock is reentrant because eo_star_gf
# builds mock_theta_nu.
_STORE_MAX = 1024
_store: OrderedDict[tuple, TruncatedSeries] = OrderedDict()
_store_lock = threading.RLock()


# Orders above 0 are built at the next multiple of this.
_CHUNK = 16


def _stored(build: Callable[..., TruncatedSeries], key: tuple, n: int) -> TruncatedSeries:
    """The stored series of build(*key, order) for some order >= n, untruncated
    and now the most recently used.

    Without one, it is built at n rounded up to a multiple of _CHUNK (n itself
    if n <= 0) and replaces the stored series.  A builder that raises leaves
    no entry behind.
    """
    store_key = (build.__name__, *key)
    with _store_lock:
        series = _store.get(store_key)
        if series is not None:
            _store.move_to_end(store_key)
        if series is None or series.order < n:
            order = -(-n // _CHUNK) * _CHUNK if n > 0 else n
            if series is not None and build in (_product, _degenerate_series):
                # the scalar builders continue the series they replace
                series = build(*key, order, head=series)
            else:
                series = build(*key, order)
            _store[store_key] = series
            if len(_store) > _STORE_MAX:
                _store.popitem(last=False)
    return series


def _keep_highest(build: Callable[..., TruncatedSeries]) -> Callable[..., TruncatedSeries]:
    """Memoize build(*key, order) through the store; order is the last of
    build's parameters without a default, and each may be passed by keyword."""

    @wraps(build)
    def cached(*args, **kwargs) -> TruncatedSeries:
        if kwargs:
            code = build.__code__
            names = code.co_varnames[len(args) : code.co_argcount - len(build.__defaults__ or ())]
            if kwargs.keys() != set(names):
                # a keyword build does not take, or one missing or repeated:
                # the call itself raises the interpreter's TypeError
                return build(*args, **kwargs)
            args += tuple(map(kwargs.get, names))
        *key, order = args
        order = _as_int(order, "order", scalar=True)
        series = _stored(build, key, order)
        # a negative order is refused by truncate, as by every builder
        return series if series.order == order else series.truncate(order)

    return cached


def _theta(row: list[int], order: int, x: int, y: int, invert: bool, start: int = 0) -> None:
    # row *= theta(x, y), or divides by it when x, y >= 1, in place; a
    # division leaves the entries below start as they are, taking them for
    # the quotient's.  Its terms past n = 0 are listed one per n in
    # ascending d: for x = y each d comes twice, from n and -n.
    def power(n: int) -> int:
        return x * n * (n + 1) // 2 + y * n * (n - 1) // 2

    terms, k = [], 1
    while ds := [d for d in (power(k), power(-k)) if d <= order]:
        terms += [(d, k % 2) for d in ds]
        k += 1
    terms.sort()
    if not invert:
        # past its last nonzero entry the row adds nothing; each nonzero
        # entry goes to each term by itself when that walks fewer
        # coefficients than one slice map per term
        nonzero = [(i, c) for i, c in enumerate(row) if c]
        size = nonzero[-1][0] + 1 if nonzero else 0
        if len(nonzero) * len(terms) < sum(min(size, len(row) - d) for d, _ in terms):
            for d, odd in terms:
                for i, c in nonzero:
                    if i + d > order:
                        break
                    row[i + d] += -c if odd else c
            return
        src = row[:size]
        for d, odd in terms:
            row[d : d + size] = map(sub if odd else add, row[d : d + size], src)
        return
    # out[i] = in[i] + out[i - d] for each term of odd n, minus it for each
    # of even n; between two consecutive d the same terms reach back.  For
    # x = y each d, listed twice in a row, is walked once and added twice.
    twice = x == y
    terms = terms[:: 1 + twice]
    ups, downs = [], []
    for (d, odd), end in zip(terms, [e for e, _ in terms[1:]] + [len(row)]):
        (ups if odd else downs).append(d)
        for n in range(max(d, start), end):
            acc = 0 if twice else row[n]
            for e in ups:
                acc += row[n - e]
            for e in downs:
                acc -= row[n - e]
            row[n] = row[n] + acc + acc if twice else acc


def _walk(order: int, *passes: range) -> int:
    # Coefficients walked by one kernel pass per t in the ranges: order + 1 - t each.
    return sum(len(ts) * (order + 1) - sum(ts) for ts in passes)


# A marker-free series is built by kernel steps on one row, each
# (rank, kernel, args) for kernel(row, *args).  _run takes them by rank:
# theta products while the row is still sparse, other products (a factor or
# Euler's sum), other divisions (a factor or Cauchy's sum), theta divisions.
_THETA_TIMES, _TIMES, _DIVIDE, _THETA_DIVIDE = range(4)


def _theta_step(order: int, x: int, y: int, invert: bool) -> tuple:
    return (_THETA_DIVIDE if invert else _THETA_TIMES, _theta, (order, x, y, invert))


def _factor_steps(ts: range, sign: int, invert: bool) -> list[tuple]:
    # times (1 - sign q^t) for each t in ts, or divided by it
    if invert:
        return [(_DIVIDE, _divide_geometric, (t, sign)) for t in ts]
    return [(_TIMES, _times_binomial, (t, -sign)) for t in ts]


def _terms(order: int, term: Callable[[int], tuple]) -> list[tuple]:
    # term(n) for n = 0, 1, ... while its exponent, term(n)[0], is within the order
    return list(takewhile(lambda t: t[0] <= order, map(term, count())))


def _single_sum(row: list[int], order: int, terms: list[tuple]) -> None:
    # row <- the sum over the terms (e, sign, factors) of sign q^e row divided
    # by each factor (t, c), 1 - c q^t, of that term and of the earlier ones,
    # in place.  One running term takes each term's factors, cut first to the
    # order + 1 - e entries that reach the order, and is added in at e.
    acc = [0] * (order + 1)
    term = row[: order + 1]
    for e, sign, factors in terms:
        del term[order + 1 - e :]
        for t, c in factors:
            _divide_geometric(term, t, c)
        acc[e:] = map(_ADD[sign], acc[e:], term)
    row[:] = acc


def _euler_cauchy(order: int, offset: int, step: int, sign: int, invert: bool) -> list[tuple]:
    # The single-sum terms of (sign q^offset; q^step)_inf, or of its
    # reciprocal.  Euler's sum has terms (-sign)^n q^(step n(n-1)/2 + offset n)
    # over (q^step; q^step)_n; Cauchy's, for the reciprocal, sign^n
    # q^(step n^2 + (offset - step) n) over (q^step; q^step)_n (sign q^offset; q^step)_n.
    return _terms(order, lambda n: (
        step * n * (n - 1) // (1 if invert else 2) + offset * n,
        sign**n if invert else (-sign) ** n,
        ((step * n, 1), (offset + step * (n - 1), sign))[: 1 + invert] if n else (),
    ))


def _pochhammer(
    order: int, offset: int, step: int, *, sign: int = 1, invert: bool = False
) -> list[tuple]:
    # The steps of row *= (sign q^offset; q^step)_inf, or of dividing by it.
    # At a multiple of step Euler's theorem gives theta(step, 2 step), and at
    # an odd multiple of r = step / 2, (q^r; q^2r)_inf is
    # theta(r, 2r) / theta(2r, 4r); either then undoes the leading factors,
    # when that walks fewer coefficients than the factors through the order.
    # Otherwise the single sum goes in, when its terms walk fewer
    # coefficients than the factors, and else the factors one by one.
    factors = range(offset, order + 1, step)
    first, thetas = 0, ()
    if sign == 1 and offset >= step and offset % step == 0:
        first, thetas = step, ((step, 2 * step, invert),)
    elif sign == 1 and step % 2 == 0 and offset % step == step // 2:
        first = r = step // 2
        thetas = ((r, 2 * r, invert), (2 * r, 4 * r, not invert))
    leading = range(first, min(offset, order + 1), step)
    if thetas and _walk(order, leading) < _walk(order, factors):
        return [_theta_step(order, *theta) for theta in thetas] + _factor_steps(
            leading, sign, not invert
        )
    terms = _euler_cauchy(order, offset, step, sign, invert)
    if sum((order + 1 - e) * (len(f) + 1) for e, _, f in terms) < _walk(order, factors):
        return [(_DIVIDE if invert else _TIMES, _single_sum, (order, terms))]
    return _factor_steps(factors, sign, invert)


def _divide_pair(order: int, r: int, s: int, step: int) -> list[tuple]:
    # The steps of dividing by (q^r; q^step)_inf (q^s; q^step)_inf: through
    # the triple product for complementary classes when cheaper.
    x, y = r % step, s % step
    leading = [range(c, min(o, order + 1), step) for c, o in ((x, r), (y, s))]
    direct = [range(o, order + 1, step) for o in (r, s)]
    if x and x + y == step and _walk(order, *leading) < _walk(order, *direct):
        return [
            _theta_step(order, step, 2 * step, False),
            *(t for ts in leading for t in _factor_steps(ts, 1, False)),
            _theta_step(order, x, y, True),
        ]
    return _pochhammer(order, r, step, invert=True) + _pochhammer(order, s, step, invert=True)


def _run(row: list[int], steps: list[tuple], head: Sequence[int] = ()) -> None:
    # The steps on row, in place and by rank; a theta product and a division
    # by the same theta series cancel.  Given head, this series'
    # coefficients through a lower order, a last theta division starts from
    # them and runs its recurrence only past them.
    steps = sorted(steps, key=itemgetter(0))
    for times in [step for step in steps if step[0] == _THETA_TIMES]:
        order, x, y, _ = times[2]
        if (divide := _theta_step(order, x, y, True)) in steps:
            steps.remove(times)
            steps.remove(divide)
    last = steps.pop() if head and steps and steps[-1][0] == _THETA_DIVIDE else None
    for _, kernel, args in steps:
        kernel(row, *args)
    if last:
        row[: len(head)] = head
        last[1](row, *last[2], len(head))


def pochhammer_factor(
    coeff_sign: int = 1,
    q_offset: int = 1,
    q_step: int = 1,
    invert: bool = False,
    *,
    order: int,
) -> TruncatedSeries:
    """Expansion of (s q^offset; q^step)_infinity or its reciprocal.

    Here s is coeff_sign (+1 or -1), and the k-th factor is
    (1 - s q^(offset + k*step)).  Inversion requires offset >= 1 so every
    inverted factor has constant term 1.
    """
    if coeff_sign not in (1, -1):
        raise SeriesError(f"coeff_sign must be +1 or -1, got {coeff_sign}")
    order = _as_int(order, "order", scalar=True)
    q_offset = _as_int(q_offset, "q_offset", scalar=True)
    q_step = _as_int(q_step, "q_step", scalar=True)
    if q_step < 1:
        raise SeriesError(f"q_step must be positive, got {q_step}")
    if q_offset < 0:
        raise SeriesError(f"q_offset must be non-negative, got {q_offset}")
    if invert and q_offset == 0:
        raise SeriesError("cannot invert a factor with constant term != 1")
    row = _one(order)
    _run(row, _pochhammer(order, q_offset, q_step, sign=coeff_sign, invert=invert))
    return TruncatedSeries._of_rows(order, {(0, 0): row})


def _least_first(a: int, b: int, m: int, keys) -> list[Key]:
    # The keys (s, w) in ascending least copartition size m*w*s + a*w + b*s,
    # then ascending key: the order of a marked family's rows.
    return sorted(keys, key=lambda k: (m * k[0] * k[1] + a * k[1] + b * k[0], k))


def _product(
    a: int, b: int, m: int, markers: bool, order: int, head: Optional[TruncatedSeries] = None
) -> TruncatedSeries:
    # (xy q^(a+b); q^m)_inf / ((x q^b; q^m)_inf (y q^a; q^m)_inf).  Without
    # markers, head is the stored series this one replaces.
    if not markers:
        row = _one(order)
        steps = _pochhammer(order, a + b, m) + _divide_pair(order, b, a, m)
        _run(row, steps, head.rows[(0, 0)][: head.order + 1] if head is not None else ())
        return TruncatedSeries._of_rows(order, {(0, 0): row})
    # Marked, from the q-difference equations P(x q^m, 0) = (1 - x q^b) P(x, 0)
    # and P(x, y q^m) (1 - xy q^(a+b)) = (1 - y q^a) P(x, y).  On the
    # family's layout, in q^m, row (s, w) is
    # row (s-1, 0) / (1 - q^(m*s)) when w = 0, else
    # (row (s, w-1) - q^(m*(w-1)) row (s-1, w-1)) / (1 - q^(m*w)).
    # Both inputs have a smaller least size, so they come first, and are
    # longer: each row is sliced from one.  No key past the order is made.
    keys = (
        (s, w) for s in range(order // b + 1) for w in range((order - b * s) // (m * s + a) + 1)
    )
    rows: Rows = {}
    for s, w in _least_first(a, b, m, keys):
        size = (order - b * s - a * w) // m + 1
        if w:
            row = rows[(s, w - 1)][:size]
            if s:
                row[w - 1 :] = map(sub, row[w - 1 :], rows[(s - 1, w - 1)])
            _divide_geometric(row, w, 1)
        elif s:
            row = rows[(s - 1, 0)][:size]
            _divide_geometric(row, s, 1)
        else:
            row = _one(size - 1)
        rows[(s, w)] = row
    return TruncatedSeries._of_rows(order, rows, (a, b, m))


_gf_product_cached = _keep_highest(_product)


def gf_product(params: ParamsLike, order: int, markers: bool = True) -> TruncatedSeries:
    """The product generating function; x marks sky parts, y ground parts.

    Needs a >= 1 and b >= 1: the degenerate families have no product form
    here (the verify suites check the a = 0 convolution instead).
    """
    a, b, m = coerce_params(params)
    if a < 1 or b < 1:
        raise SeriesError(f"product form needs a, b >= 1, got ({a},{b},{m})")
    return _gf_product_cached(a, b, m, markers, order)


def _double_sum(a: int, b: int, m: int, markers: bool, order: int) -> TruncatedSeries:
    # One term per (ground count w, sky count s):
    #   x^s y^w q^(m*w*s + a*w + b*s) / ((q^m;q^m)_w (q^m;q^m)_s)
    # with the floors of enumeration._blocks: w >= 1 when b = 0, s >= 1 when
    # a = 0.  The quotient lives on multiples of m, so it is kept as a list
    # in q^m, and the geometric kernel adds one factor to it per step in w or s.
    # With markers it is the whole row of its key, on the family's layout
    # after w*s leading zeros; without, every term goes into one dense row.
    rows: Rows = {}
    total = [0] * (order + 1)
    ground = [1] + [0] * (order // m)
    w = 1 if b == 0 else 0
    s_min = 1 if a == 0 else 0
    while a * w + (m * w + b) * s_min <= order:
        if w:
            _divide_geometric(ground, w, 1)
        term = list(ground)
        s = s_min
        while (base := m * w * s + a * w + b * s) <= order:
            del term[(order - base) // m + 1 :]
            if s:
                _divide_geometric(term, s, 1)
            if markers:
                rows[(s, w)] = [0] * (w * s) + term
            else:
                total[base::m] = map(add, total[base::m], term)
            s += 1
        w += 1
    if not markers:
        return TruncatedSeries._of_rows(order, {(0, 0): total})
    rows = {key: rows[key] for key in _least_first(a, b, m, rows)}
    return TruncatedSeries._of_rows(order, rows, (a, b, m))


_gf_double_sum_cached = _keep_highest(_double_sum)


def gf_double_sum(params: ParamsLike, order: int, markers: bool = True) -> TruncatedSeries:
    """The double-sum generating function, term by term over (w, s).

    Holds for every (a, b, m), the degenerate families included.
    """
    a, b, m = coerce_params(params)
    return _gf_double_sum_cached(a, b, m, markers, order)


def count_cell(params: ParamsLike, n: int, w: int, s: int) -> int:
    """Copartitions of n with w ground and s sky parts, read from the (w, s)
    term of the double sum alone, with its floors: its quotient in q^m takes
    one geometric pass per factor of (q^m;q^m)_w (q^m;q^m)_s over one list."""
    p = coerce_params(params)
    n = _as_int(n, "size", scalar=True)
    w = _as_int(w, "ground count", scalar=True)
    s = _as_int(s, "sky count", scalar=True)
    a, b, m = p
    base = m * w * s + a * w + b * s
    if min(w, s) < 0 or not (w or b) or not (s or a) or n < base or (n - base) % m:
        return 0
    term = [1] + [0] * ((n - base) // m)
    for t in (*range(1, w + 1), *range(1, s + 1)):
        _divide_geometric(term, t, 1)
    return term[-1]


def count_series(params: ParamsLike, n: int) -> int:
    """Coefficient of q^n in the counting series for these parameters."""
    p = coerce_params(params)
    n = _as_int(n, "size", scalar=True)
    if n < 0:
        return 0
    a, b, m = p
    if a >= 1 and b >= 1:
        build, key = _product, (a, b, m, False)
    else:
        # A class is 0.  Swapping ground and sky is size-preserving, so
        # (a, 0, m) counts as (0, a, m).
        build, key = _degenerate_series, (a + b, m)
    return _stored(build, key, n).coefficient_int(n)


def _degenerate_series(
    b: int, m: int, order: int, head: Optional[TruncatedSeries] = None
) -> TruncatedSeries:
    # Partition series in q^m times the Lambert-style series that counts
    # divisors in the class of b mod m.  For b = 0 it counts multiples of m,
    # and cp001's identity, dilated by m, gives (2 row - 1) / (q^m; q^m) + 1.
    # head is the stored series this one replaces.
    lam = [0] * (order + 1)
    for s in range(b or m, order + 1, m):
        for mult in range(s, order + 1, s):
            lam[mult] += 1
    done = head.rows[(0, 0)][: head.order + 1] if head is not None else []
    if not b:
        lam = [-1] + [2 * c for c in lam[1:]]
        # the quotient's own constant term is -1, before the + 1 below
        done = [-1, *done[1:]] if done else done
    _run(lam, _pochhammer(order, m, m, invert=True), done)
    if not b:
        lam[0] = 0
    return TruncatedSeries._of_rows(order, {(0, 0): lam})


def _sum_series(order: int, term: Callable[[int], tuple]) -> TruncatedSeries:
    # The single sum of the terms term(n) = (e, sign, factors), acting on 1
    row = _one(order)
    _single_sum(row, order, _terms(order, term))
    return TruncatedSeries._of_rows(order, {(0, 0): row})


@_keep_highest
def rr_function(which: str, form: str, order: int) -> TruncatedSeries:
    """The two classical sum-product pairs: "G" and "H", "sum" or "product".

    G sums q^(n^2)/(q;q)_n, H sums q^(n^2+n)/(q;q)_n; the product forms run
    over exponents 1, 4 and 2, 3 mod 5.
    """
    if which not in ("G", "H"):
        raise SeriesError(f"which must be G or H, got {which!r}")
    if form == "sum":
        shift = 0 if which == "G" else 1
        return _sum_series(order, lambda n: (n * (n + shift), 1, ((n, 1),) if n else ()))
    if form == "product":
        row = _one(order)
        _run(row, _divide_pair(order, *((1, 4) if which == "G" else (2, 3)), 5))
        return TruncatedSeries._of_rows(order, {(0, 0): row})
    raise SeriesError(f"form must be sum or product, got {form!r}")


def _check_theta_exponents(x_exp: int, y_exp: int) -> None:
    if x_exp < 0 or y_exp < 0 or x_exp + y_exp < 1:
        raise SeriesError(f"need non-negative exponents summing to >= 1, got ({x_exp},{y_exp})")


@_keep_highest
def theta_sum(x_exp: int, y_exp: int, order: int) -> TruncatedSeries:
    """Bilateral theta sum: over all integers n, (-1)^n q^(x_exp*n(n+1)/2
    + y_exp*n(n-1)/2)."""
    _check_theta_exponents(x_exp, y_exp)
    row = _one(order)
    _theta(row, order, x_exp, y_exp, False)
    return TruncatedSeries._of_rows(order, {(0, 0): row})


@_keep_highest
def theta_product(x_exp: int, y_exp: int, order: int) -> TruncatedSeries:
    """Triple-product form of theta_sum: three alternating factors with
    step x_exp + y_exp."""
    _check_theta_exponents(x_exp, y_exp)
    total = x_exp + y_exp
    row = _one(order)
    _run(row, [step for off in (x_exp, y_exp, total) for step in _pochhammer(order, off, total)])
    return TruncatedSeries._of_rows(order, {(0, 0): row})


# The package's name for the bilateral theta series: theta_sum itself, with
# its store entry.  The theta-eta suite checks the sum against theta_product.
theta_f = theta_sum


@_keep_highest
def mock_theta_nu(order: int) -> TruncatedSeries:
    """Sum over n of q^(n^2+n) / (-q; q^2)_(n+1)."""
    return _sum_series(order, lambda n: (n * n + n, 1, ((2 * n + 1, -1),)))


@_keep_highest
def eo_star_gf(order: int) -> TruncatedSeries:
    """Even-odd partition counts: the even part (nu(q) + nu(-q)) / 2 of the
    nu series, that is nu's coefficients at even exponents and 0 at odd
    ones."""
    row = mock_theta_nu(order).rows[(0, 0)][: order + 1]
    row[1::2] = [0] * ((order + 1) // 2)
    return TruncatedSeries._of_rows(order, {(0, 0): row})
