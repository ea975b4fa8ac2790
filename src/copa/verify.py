"""Named verification suites.

Each suite re-derives one cluster of claims from independent directions
(enumeration vs series vs closed form vs bijection image) and returns a
VerificationReport.  Default bounds match the acceptance tests, so running
every suite at its defaults reproduces the acceptance run.  The suites count
through the public counters, the enumerated side with method "enum", as the
CLI does.
"""

from functools import lru_cache
from itertools import product as iproduct

from . import series as qs
from .bijections import (
    copartition_to_eo,
    copartition_to_pair,
    cp001_to_rim_cell,
    cp111_to_partition,
    enumerate_eo_star,
    eo_crank,
    eo_to_copartition,
    inverse_match_table,
    pair_to_copartition,
    partition_to_cp111,
    rim_cell_to_cp001,
)
from .copartitions import (
    CopartitionParams,
    conjugate_copartition,
    scale_copartition,
    unscale_copartition,
)
from .enumeration import (
    count_copartitions,
    count_formula,
    count_refined,
    crank_tally,
    enumerate_copartitions,
)
from .errors import DomainError
from .partitions import (
    Partition,
    enumerate_partitions,
    partition_count,
    partition_statistics,
    rim_cells,
)
from .reporting import Checker, VerificationReport

PHI_PARAM_SETS = ((1, 2, 4), (1, 1, 2), (2, 3, 5))


@lru_cache(maxsize=256)
def _family(base: int, m: int, n: int) -> tuple[Partition, ...]:
    """Partitions of n with all parts congruent to base (mod m), each at
    least base; the domains the pair merge acts on.  They are the grounds of
    the sky-free (base, n + 1, m)-copartitions of n: no sky part fits.  The
    params object is built here, so these one-off triples stay out of the
    shared params cache."""
    return tuple(c.ground for c in enumerate_copartitions(CopartitionParams(base, n + 1, m), n))


def _rr_copartition_check(checker: Checker, which: str, order: int, enum_limit: int) -> None:
    """Sum form of G or H against the copartition product divided by
    (q^5;q^5), with enumeration pinning the small coefficients."""
    params = (1, 4, 5) if which == "G" else (2, 3, 5)
    lhs = qs.rr_function(which, "sum", order)
    cp = qs.gf_product(params, order, markers=False)
    rhs = qs.pochhammer_factor(q_offset=5, q_step=5, invert=True, order=order) * cp
    for n in range(order + 1):
        checker.equal(
            lhs.coefficient_int(n), rhs.coefficient_int(n), f"{which} vs product, q^{n}"
        )
    for n in range(min(enum_limit, order) + 1):
        count = count_copartitions(params, n, "enum")
        checker.equal(cp.coefficient_int(n), count, f"cp{params} series vs enumeration, n={n}")


def _eta_theta_quotient_check(checker: Checker, a: int, m: int, order: int) -> None:
    """(q^m;q^m)^2 over the theta series equals the copartition product.

    Verified in cross-multiplied form.  eta (by Euler's pentagonal theorem)
    and theta_sum both come from the one theta kernel; the copartition
    product is the marked one at x = y = 1, built from its q-difference
    equations with no theta series, since the marker-free product divides
    by this very quotient.
    """
    if not (1 <= a < m):
        raise DomainError(f"need 1 <= a < m, got ({a},{m})")
    eta = qs.pochhammer_factor(q_offset=m, q_step=m, order=order)
    lhs = eta * eta
    theta = qs.theta_sum(a, m - a, order)
    cp = qs.gf_product((a, m - a, m), order).at_markers_one()
    rhs = theta * cp
    for n in range(order + 1):
        checker.equal(lhs.coefficient_int(n), rhs.coefficient_int(n), f"(a,m)=({a},{m}), q^{n}")


def _gf_degenerate_check(checker: Checker, b: int, m: int, max_n: int) -> None:
    """Enumerated counts for (0, b, m) against the partition-divisor convolution."""
    params = (0, b, m)
    checker.equal(qs.count_series(params, 0), 0, f"gf-degenerate {params} q^0 (the sky is nonempty)")
    for n in range(max_n + 1):
        count = count_copartitions(params, n, "enum")
        checker.equal(qs.count_series(params, n), count, f"gf-degenerate {params}, n={n}")


def suite_gf_triple(max_n: int = 30, refined_max: int = 25, classes: int = 4) -> VerificationReport:
    """Enumeration, product series, and double-sum series agree, totals and
    refined (ground count, sky count) tables alike."""
    ch = Checker(
        "gf-triple",
        f"(a,b,m) in 1..{classes}^3, totals n<={max_n}, refined n<={refined_max}",
    )
    ch.equal(count_copartitions((1, 3, 4), 12, "enum"), 7, "(1,3,4) count at 12, enumerated")
    ch.equal(count_copartitions((1, 3, 4), 12, "series"), 7, "(1,3,4) count at 12, series")
    ch.equal(
        qs.gf_double_sum((1, 3, 4), 12).at_markers_one().coefficient_int(12),
        7,
        "(1,3,4) count at 12, double sum",
    )
    for a, b, m in iproduct(range(1, classes + 1), repeat=3):
        prod = qs.gf_product((a, b, m), max_n)
        dsum = qs.gf_double_sum((a, b, m), max_n)
        ch.check(prod.agrees_with(dsum), f"product vs double sum ({a},{b},{m})")
        totals = prod.at_markers_one()
        for n in range(max_n + 1):
            count = count_copartitions((a, b, m), n, "enum")
            ch.equal(count, totals.coefficient_int(n), f"enum vs series ({a},{b},{m}) n={n}")
            if n <= refined_max:
                table = count_refined((a, b, m), n, "enum").table
                swapped = {(s, w): c for (w, s), c in table.items()}
                ch.equal(swapped, prod.coefficient(n), f"refined ({a},{b},{m}) n={n}")
    return ch.done()


def suite_phi(max_total: int = 22, cardinality_max: int = 25) -> VerificationReport:
    """Pair merge: worked example, exhaustive round trips both ways, and
    the counting identity the bijection implies.

    The reverse trip reads the forward one: the pair behind (mu, cp) maps
    back to it exactly when (mu, cp) is the image of a pair whose round trip
    closed, so each enumerated (mu, cp) is checked by membership in those
    images, without running both maps again."""
    ch = Checker(
        "phi",
        f"pairs of total <= {max_total} on {PHI_PARAM_SETS}, counts n <= {cardinality_max}",
    )
    merged, c = pair_to_copartition(
        (9, 5, 5, 5, 5, 1, 1, 1), (26, 26, 26, 22, 6, 6, 2), (1, 2, 4)
    )
    ch.equal(merged, (11, 7, 3), "worked example: merged parts")
    ch.equal(c.ground, (9, 5, 5, 5, 1), "worked example: ground")
    ch.equal(c.sky, (6, 6, 6, 2), "worked example: sky")
    ch.equal(c.rectangle(), (20, 20, 20, 20), "worked example: rectangle")
    ch.equal(
        inverse_match_table(merged, c),
        [(3, 0), (7, 1), (11, 1)],
        "worked example: inverse offsets",
    )
    ch.equal(
        copartition_to_pair(merged, c),
        ((9, 5, 5, 5, 5, 1, 1, 1), (26, 26, 26, 22, 6, 6, 2)),
        "worked example: inverse",
    )
    for a, b, m in PHI_PARAM_SETS:
        for n in range(max_total + 1):
            image = set()  # the images whose round trip closed
            for i in range(n + 1):
                for pi in _family(a, m, i):
                    for lam in _family(b, m, n - i):
                        mu, cp = pair_to_copartition(pi, lam, (a, b, m))
                        ok = (
                            sum(mu) + cp.size == n
                            and copartition_to_pair(mu, cp) == (pi, lam)
                        )
                        if ch.check(
                            ok, lambda: f"round trip ({a},{b},{m}) {list(pi)}|{list(lam)}"
                        ):
                            image.add((mu, cp))
            for j in range(n + 1):
                if not (family := _family(a + b, m, j)):
                    continue
                copartitions = list(enumerate_copartitions((a, b, m), n - j))
                for mu in family:
                    for cp in copartitions:
                        ch.check(
                            (mu, cp) in image,
                            lambda: f"reverse trip ({a},{b},{m}) {list(mu)}|{cp!r}",
                        )
        counts = [count_copartitions((a, b, m), n, "enum") for n in range(cardinality_max + 1)]
        for n in range(cardinality_max + 1):
            lhs = sum(len(_family(a + b, m, j)) * counts[n - j] for j in range(n + 1))
            rhs = sum(
                len(_family(a, m, i)) * len(_family(b, m, n - i)) for i in range(n + 1)
            )
            ch.equal(lhs, rhs, f"pair count identity ({a},{b},{m}) n={n}")
    return ch.done()


def suite_eo_star(max_half: int = 15, roundtrip_max: int = 24) -> VerificationReport:
    """Even-odd partition counts against (1,1,2) counts, odd sizes empty,
    and the doubling correspondence round trip."""
    ch = Checker("eo-star", f"counts 2n <= {2 * max_half}, round trips <= {roundtrip_max}")
    for n in range(max_half + 1):
        ch.equal(
            len(enumerate_eo_star(2 * n)),
            count_copartitions((1, 1, 2), n, "enum"),
            f"even-odd count at 2n={2 * n}",
        )
    for n in range(1, 2 * max_half, 2):
        ch.equal(len(enumerate_eo_star(n)), 0, f"odd size {n} nonempty")
    for size in range(0, roundtrip_max + 1, 2):
        for e in enumerate_eo_star(size):
            cp = eo_to_copartition(e)
            ch.check(
                2 * cp.size == size and copartition_to_eo(cp) == e,
                lambda: f"round trip from partition {list(e)}",
            )
        for cp in enumerate_copartitions((1, 1, 2), size // 2):
            ch.check(
                eo_to_copartition(copartition_to_eo(cp)) == cp,
                lambda: f"round trip from {cp!r}",
            )
    return ch.done()


def suite_cp111(
    formula_max: int = 100,
    enum_max: int = 30,
    corollary_max: int = 30,
    bound_max: int = 25,
    bijection_max: int = 18,
) -> VerificationReport:
    """(1,1,1): partial sums of p, the statistics corollaries, the
    sandwich bounds, and the threshold-split bijection."""
    ch = Checker(
        "cp111",
        f"formula n<={formula_max}, enum n<={enum_max}, bijection n<={bijection_max}",
    )
    for n in range(formula_max + 1):
        ch.equal(
            count_formula((1, 1, 1), n),
            count_copartitions((1, 1, 1), n, "series"),
            f"formula vs series n={n}",
        )
    top = max(enum_max, corollary_max - 1, bound_max)
    counts = [count_copartitions((1, 1, 1), n, "enum") for n in range(top + 1)]
    for n in range(enum_max + 1):
        ch.equal(count_formula((1, 1, 1), n), counts[n], f"formula vs enum n={n}")
    for n in range(1, corollary_max + 1):
        st = partition_statistics(n)
        ch.equal(counts[n - 1], st.parts_of_size_one, f"count vs ones, n={n}")
        ch.equal(counts[n - 1], st.diversity_sum, f"count vs diversity, n={n}")
    for n in range(bound_max + 1):
        ch.check(
            partition_count(n) <= counts[n] <= partition_statistics(n + 1).spt,
            f"p(n) <= count <= spt(n+1) at n={n}",
        )
    c = partition_to_cp111((8, 6, 5, 3), 5)
    ch.equal((c.ground, c.sky), ((3, 3, 3, 2, 2), (3, 1)), "worked example")
    ch.equal(cp111_to_partition(c), ((8, 6, 5, 3), 5), "worked example inverse")
    for n in range(bijection_max + 1):
        image = set()
        for k in range(n + 1):
            for lam in enumerate_partitions(n - k):
                cp = partition_to_cp111(lam, k)
                if ch.check(
                    cp111_to_partition(cp) == (lam, k),
                    lambda: f"round trip broke at {list(lam)}, k={k}",
                ):
                    image.add(cp)
        ch.check(
            image == set(enumerate_copartitions((1, 1, 1), n)),
            f"bijection image at n={n}",
        )
    return ch.done()


def suite_cp011(max_n: int = 30) -> VerificationReport:
    """(0,1,1): divisor convolution, total parts, and largest-part sums
    all count the same thing."""
    ch = Checker("cp011", f"n <= {max_n}")
    for n in range(max_n + 1):
        st = partition_statistics(n)
        count = count_copartitions((0, 1, 1), n, "enum")
        ch.equal(count, count_formula((0, 1, 1), n), f"enum vs convolution n={n}")
        ch.equal(count, st.total_parts, f"enum vs total parts n={n}")
        ch.equal(count, st.sum_largest_parts, f"enum vs largest parts n={n}")
    _gf_degenerate_check(ch, 1, 1, max_n)
    return ch.done()


def suite_cp001(max_n: int = 30, bijection_max: int = 14) -> VerificationReport:
    """(0,0,1): perimeter sums, the two-convolutions identity, and the
    rim-cell bijection."""
    ch = Checker("cp001", f"n <= {max_n}, bijection n <= {bijection_max}")
    for n in range(max_n + 1):
        count = count_copartitions((0, 0, 1), n, "enum")
        ch.equal(count, partition_statistics(n).sum_perimeters, f"enum vs perimeters n={n}")
        ch.equal(count, count_formula((0, 0, 1), n), f"enum vs formula n={n}")
        if n >= 1:
            ch.equal(
                count,
                2 * count_formula((0, 1, 1), n) - partition_count(n),
                f"two-for-one identity n={n}",
            )
    c = rim_cell_to_cp001((8, 6, 5, 5, 3, 3), (4, 4))
    ch.equal((c.ground, c.sky), ((2, 2, 2, 0), (4, 2, 1, 1)), "figure example")
    ch.equal(cp001_to_rim_cell(c), ((8, 6, 5, 5, 3, 3), (4, 4)), "figure example inverse")
    c1 = rim_cell_to_cp001((1,), (1, 1))
    ch.equal((c1.ground, c1.sky), ((0,), (0,)), "unique copartition of 1")
    for n in range(bijection_max + 1):
        image = set()
        for lam in enumerate_partitions(n):
            for cell in rim_cells(lam):
                cp = rim_cell_to_cp001(lam, cell)
                back = cp001_to_rim_cell(cp) == (lam, cell)
                fault = "collision" if back else "round trip broke"
                if ch.check(
                    back and cp not in image, lambda: f"{fault} at {list(lam)}, cell {cell}"
                ):
                    image.add(cp)
        ch.check(
            image == set(enumerate_copartitions((0, 0, 1), n)),
            f"bijection image at n={n}",
        )
    return ch.done()


def suite_cp0bm(
    max_n: int = 30, pairs: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (2, 3))
) -> VerificationReport:
    """Degenerate ground class: partition-divisor convolution and the
    mirrored sky-class family."""
    ch = Checker("cp0bm", f"(b,m) in {pairs}, n <= {max_n}")
    for b, m in pairs:
        for n in range(max_n + 1):
            count = count_copartitions((0, b, m), n, "enum")
            mirror = count_copartitions((b, 0, m), n, "enum")
            ch.equal(count, count_formula((0, b, m), n), f"(0,{b},{m}) formula n={n}")
            ch.equal(count, mirror, f"(0,{b},{m}) vs ({b},0,{m}) n={n}")
        _gf_degenerate_check(ch, b, m, max_n)
    return ch.done()


def suite_rr(order: int = 100, connection_order: int = 60, enum_max: int = 30) -> VerificationReport:
    """Both classical sum-product identities, then their copartition
    connections."""
    ch = Checker("rr", f"sum=product to q^{order}, connection to q^{connection_order}")
    ch.equal(
        qs.rr_function("G", "sum", 6).scalar_coeffs(),
        [1, 1, 1, 1, 2, 2, 3],
        "first G coefficients",
    )
    for which in ("G", "H"):
        ch.check(
            qs.rr_function(which, "sum", order).agrees_with(
                qs.rr_function(which, "product", order)
            ),
            f"{which} sum vs product",
        )
        _rr_copartition_check(ch, which, connection_order, enum_max)
    return ch.done()


def suite_theta_eta(
    order: int = 60,
    sum_product_pairs: tuple[tuple[int, int], ...] = ((1, 2), (1, 4), (2, 3), (1, 1)),
    quotient_pairs: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (2, 5)),
) -> VerificationReport:
    """Bilateral theta sum vs triple product, and the eta-square quotient
    form of the generating function."""
    ch = Checker("theta-eta", f"order <= {order}, pairs {sum_product_pairs}")
    for x, y in sum_product_pairs:
        ch.check(
            qs.theta_sum(x, y, order).agrees_with(qs.theta_product(x, y, order)),
            f"sum vs product at ({x},{y})",
        )
    for a, m in quotient_pairs:
        _eta_theta_quotient_check(ch, a, m, order)
    return ch.done()


def suite_mock_theta(order: int = 30) -> VerificationReport:
    """Even part of the third-order series nu generates even-odd partitions
    and, at doubled exponents, the (1,1,2) counts."""
    ch = Checker("mock-theta", f"order <= {order}")
    gf = qs.eo_star_gf(order)
    for n in range(order + 1):
        got, listed = gf.coefficient_int(n), len(enumerate_eo_star(n))
        ch.equal(got, listed, f"series vs listing n={n}")
        if n % 2 == 0:
            ch.equal(
                got, count_copartitions((1, 1, 2), n // 2, "series"), f"series vs count n={n}"
            )
    return ch.done()


def suite_scaling(
    max_n: int = 30,
    classes: int = 4,
    scales: tuple[int, ...] = (2, 3),
    object_max: int = 10,
) -> VerificationReport:
    """Dilation invariance: scaled parameters at scaled size count the
    same, and the part-by-part dilation round-trips."""
    for s in scales:
        if s < 1:
            raise DomainError(f"scale factor must be positive, got {s}")
    ch = Checker("scaling", f"scales {scales}, (a,b,m) in 1..{classes}^3, n <= {max_n}")
    object_max = min(object_max, max_n)  # counts run through max_n
    for a, b, m in iproduct(range(1, classes + 1), repeat=3):
        counts = [count_copartitions((a, b, m), n, "enum") for n in range(max_n + 1)]
        for s in scales:
            scaled = qs.gf_product((s * a, s * b, s * m), s * max_n, markers=False)
            for n in range(max_n + 1):
                ch.equal(
                    counts[n],
                    scaled.coefficient_int(s * n),
                    f"({a},{b},{m}) x{s} at n={n}",
                )
            for n in range(object_max + 1):
                small = count_copartitions((s * a, s * b, s * m), s * n, "enum")
                ch.equal(counts[n], small, f"({a},{b},{m}) x{s} enum at n={n}")
            for n in range(object_max + 1):
                for c in enumerate_copartitions((a, b, m), n):
                    d = scale_copartition(c, s)
                    ch.check(
                        d.size == s * c.size and unscale_copartition(d, s) == c,
                        lambda: f"dilate {c!r} by {s}",
                    )
    return ch.done()


def suite_conjugation(
    max_n: int = 30, refined_max: int = 25, classes: int = 4
) -> VerificationReport:
    """Ground-sky swap: count symmetry, refined table transposition, and
    the object-level involution."""
    ch = Checker(
        "conjugation", f"(a,b,m) in 1..{classes}^3, n <= {max_n}, refined n <= {refined_max}"
    )
    for a, b, m in iproduct(range(1, classes + 1), repeat=3):
        for n in range(max_n + 1):
            ta = count_refined((a, b, m), n, "enum")
            tb = count_refined((b, a, m), n, "enum")
            ch.equal(ta.total, tb.total, f"count symmetry ({a},{b},{m}) n={n}")
            if n <= refined_max:
                swapped = {(s, w): c for (w, s), c in ta.table.items()}
                ch.equal(swapped, tb.table, f"refined swap ({a},{b},{m}) n={n}")
    for a, b, m in PHI_PARAM_SETS:
        for n in range(13):
            for c in enumerate_copartitions((a, b, m), n):
                d = conjugate_copartition(c)
                ch.check(
                    d.params == (b, a, m)
                    and d.size == c.size
                    and d.crank == -c.crank
                    and conjugate_copartition(d) == c,
                    lambda: f"involution on {c!r}",
                )
    return ch.done()


def suite_congruence(max_k: int = 10, eo_max_k: int = 5) -> VerificationReport:
    """Divisibility by five along the arithmetic progressions."""
    ch = Checker("congruence", f"count k <= {max_k}, even-odd k <= {eo_max_k}")
    for k in range(max_k + 1):
        n = 5 * k + 4
        v = count_copartitions((1, 1, 2), n, "auto")
        ch.check(v % 5 == 0, f"count({n})={v} not divisible by 5")
    for k in range(eo_max_k + 1):
        n = 10 * k + 8
        v = len(enumerate_eo_star(n))
        ch.check(v % 5 == 0, f"even-odd({n})={v} not divisible by 5")
    return ch.done()


def suite_crank(max_k: int = 2, modulus: int = 5, transport_max: int = 12) -> VerificationReport:
    """Crank residue classes balance at the points n = 5k + 4, k <= max_k,
    and the even-odd crank is twice the copartition crank."""
    points = tuple(5 * k + 4 for k in range(max_k + 1))
    ch = Checker("crank", f"points {points} mod {modulus}, transport n <= {transport_max}")
    for n in points:
        tally = crank_tally((1, 1, 2), n, modulus, method="enum")
        ch.check(
            len(set(tally.counts.values())) == 1,
            f"residues unbalanced at n={n}: {tally.counts}",
        )
        ch.equal(tally.total, count_copartitions((1, 1, 2), n, "series"), f"tally total n={n}")
    for n in range(transport_max + 1):
        for c in enumerate_copartitions((1, 1, 2), n):
            ch.check(
                eo_crank(copartition_to_eo(c)) == 2 * c.crank,
                lambda: f"transport failed on {c!r}",
            )
    return ch.done()


SUITES = {
    "gf-triple": suite_gf_triple,
    "phi": suite_phi,
    "eo-star": suite_eo_star,
    "cp111": suite_cp111,
    "cp011": suite_cp011,
    "cp001": suite_cp001,
    "cp0bm": suite_cp0bm,
    "rr": suite_rr,
    "theta-eta": suite_theta_eta,
    "mock-theta": suite_mock_theta,
    "scaling": suite_scaling,
    "conjugation": suite_conjugation,
    "congruence": suite_congruence,
    "crank": suite_crank,
}


def run_suite(name: str, **bounds) -> VerificationReport:
    """Run one named suite; unknown names raise KeyError."""
    return SUITES[name](**bounds)


def run_all() -> list[VerificationReport]:
    """Every suite at its default (acceptance) bounds, in registry order."""
    return [fn() for fn in SUITES.values()]
