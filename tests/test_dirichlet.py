import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from simsub import catalog
from simsub.dirichlet import (
    ClassFactor,
    CoeffSeries,
    EulerFactor,
    EulerRule,
    check_multiplicative,
    convolve,
    dirichlet_inverse,
    dirichlet_polynomial,
    epsilon,
    expand_euler,
    primes_up_to,
    scale_argument,
    shift,
    summatory,
)


def riemann(limit):
    return expand_euler(EulerRule(1, (ClassFactor((1,), (1, -1)),)), limit)


def random_series(limit, rng):
    coeffs = [1] + [rng.randint(-4, 4) for _ in range(limit - 1)]
    return CoeffSeries.from_coeffs(limit, tuple(coeffs))


def test_expand_euler_riemann():
    z = riemann(10)
    assert z.coeffs == (1,) * 10
    assert check_multiplicative(z)


def test_expand_euler_empty_factors_gives_epsilon():
    s = expand_euler(EulerRule(1, (ClassFactor((1,)),)), 12)
    assert s.coeffs == epsilon(12).coeffs


def test_expand_euler_refuses_anything_but_a_rule():
    # a function of p, or a single class, is refused before any factor is asked for
    asked = []

    def factor(p):
        asked.append(p)
        return EulerFactor((1,), (1, -1))

    for local_factor in (factor, ClassFactor((1,), (1, -1)), None):
        with pytest.raises(TypeError):
            expand_euler(local_factor, 100)
    assert asked == []


def test_non_expandable_factor_rejected():
    with pytest.raises(ValueError):
        EulerFactor((1,), (2, -1))
    with pytest.raises(ValueError):
        EulerFactor((1,), ())


_small_ints = st.integers(-5, 5)
_factors = st.builds(
    EulerFactor,
    st.lists(_small_ints, min_size=1, max_size=4).map(tuple),
    st.lists(_small_ints, max_size=3).map(lambda tail: (1, *tail)),
)


@given(_factors, _factors, st.integers(1, 12))
def test_euler_factor_product_is_cauchy_product(a, b, n):
    ea, eb = a.expand(n), b.expand(n)
    cauchy = [sum(ea[j] * eb[k - j] for j in range(k + 1)) for k in range(n)]
    assert (a * b).expand(n) == cauchy


def test_expand_euler_matches_single_prime_convolution():
    # divisor function two ways: local factors 1/(1-t)^2 versus zeta * zeta
    n = 100
    d1 = expand_euler(EulerRule(1, (ClassFactor((1,), (1, -2, 1)),)), n)
    d2 = convolve(riemann(n), riemann(n))
    assert d1.coeffs == d2.coeffs


def test_convolve_examples():
    z = riemann(10)
    zz = convolve(z, z)
    assert zz.a(4) == 3  # divisor count
    a = CoeffSeries.from_coeffs(10, (1, 2, 0, -1, 3, 0, 0, 5, 0, 1))
    assert convolve(a, epsilon(10)).coeffs == a.coeffs
    sigma = convolve(z, shift(z, 1))
    assert sigma.a(4) == 7


def test_convolve_limit_mismatch_rejected():
    with pytest.raises(ValueError):
        convolve(riemann(10), riemann(11))


def test_inverse_examples():
    z = riemann(30)
    mu = dirichlet_inverse(z)
    assert mu.a(2) == -1
    assert mu.a(4) == 0 and mu.a(6) == 1  # Moebius values
    assert dirichlet_inverse(epsilon(30)).coeffs == epsilon(30).coeffs
    with pytest.raises(ValueError):
        dirichlet_inverse(CoeffSeries.from_coeffs(5, (2, 0, 0, 0, 0)))


def test_inverse_is_two_sided():
    rng = random.Random(31)
    for _ in range(200):
        a = random_series(40, rng)
        inv = dirichlet_inverse(a)
        assert convolve(a, inv).coeffs == epsilon(40).coeffs
        assert convolve(inv, a).coeffs == epsilon(40).coeffs


def test_scale_argument_examples():
    z = riemann(100)
    s3 = scale_argument(z, 3)
    assert s3.a(64) == z.a(4)
    assert s3.a(6) == 0
    assert scale_argument(z, 1) is z


def test_scale_argument_summatory_property():
    rng = random.Random(32)
    for _ in range(50):
        a = random_series(200, rng)
        for k in (2, 3):
            scaled = scale_argument(a, k)
            root = int(round(200 ** (1 / k)))
            while (root + 1) ** k <= 200:
                root += 1
            while root ** k > 200:
                root -= 1
            assert summatory(scaled, 200) == summatory(a, root)


def test_shift_examples():
    z = riemann(10)
    assert shift(z, 1).a(4) == 4
    a = CoeffSeries.from_coeffs(10, (1, 0, 2, 0, 0, -3, 0, 0, 0, 4))
    assert shift(a, 0) is a
    assert shift(a, 2).a(10) == 400


def test_dirichlet_polynomial_examples():
    pre = dirichlet_polynomial({1: 1, 2: -1, 4: 2}, 10)
    assert pre.coeffs[:4] == (1, -1, 0, 2)
    assert pre.support == (1, 2, 4)
    dropped = dirichlet_polynomial({1: 1, 3: 0}, 5)
    assert dropped.coeffs == (1, 0, 0, 0, 0)
    assert dropped.support == (1,) and list(dropped.nonzero()) == [(1, 1)]
    assert check_multiplicative(pre)  # supported on powers of 2
    assert dirichlet_polynomial({1: 1}, 6).coeffs == epsilon(6).coeffs
    with pytest.raises(ValueError):
        dirichlet_polynomial({12: 1}, 10)


def test_dirichlet_polynomial_ratio_expansion():
    # (1 + 4t)/(1 + t) in t = 4^-s expands to 1 + 3/4^s - 3/16^s + 3/64^s - ...
    n = 256
    num = dirichlet_polynomial({1: 1, 4: 4}, n)
    den = dirichlet_polynomial({1: 1, 4: 1}, n)
    ratio = convolve(num, dirichlet_inverse(den))
    expected = {1: 1, 4: 3, 16: -3, 64: 3, 256: -3}
    assert dict(ratio.nonzero()) == expected


def test_summatory_examples():
    z = riemann(100)
    assert summatory(z, 1) == 1
    assert summatory(epsilon(100), 100) == 1
    with pytest.raises(ValueError):
        summatory(z, 101)


def test_check_multiplicative():
    assert check_multiplicative(riemann(60))
    assert not check_multiplicative(CoeffSeries.from_coeffs(5, (2, 0, 0, 0, 0)))
    # sigma_1 is multiplicative
    z = riemann(60)
    assert check_multiplicative(convolve(z, shift(z, 1)))
    assert not check_multiplicative(CoeffSeries.from_coeffs(6, (1, 1, 1, 1, 1, 2)))


def test_convolve_associative_commutative():
    rng = random.Random(33)
    for _ in range(100):
        a = random_series(30, rng)
        b = random_series(30, rng)
        c = random_series(30, rng)
        assert convolve(a, b).coeffs == convolve(b, a).coeffs
        assert convolve(convolve(a, b), c).coeffs == convolve(a, convolve(b, c)).coeffs


def test_coeff_series_validation():
    for limit in (0, -1):
        with pytest.raises(ValueError):
            CoeffSeries(limit, (), ())
    with pytest.raises(ValueError):
        CoeffSeries.from_coeffs(0, ())
    with pytest.raises(ValueError):
        CoeffSeries.from_coeffs(3, (1, 2))
    s = CoeffSeries.from_coeffs(3, (1, 2, 3))
    assert s.a(2) == 2
    with pytest.raises(IndexError):
        s.a(4)


_SPARSE = (1, 0, -2, 0, 0, 3)  # nonzero at 1, 3 and 6


def test_given_support_is_kept():
    s = CoeffSeries(6, (1, 3, 6), (1, -2, 3))
    assert s.support == (1, 3, 6) and s.values == (1, -2, 3)
    assert s.coeffs == _SPARSE
    dense = CoeffSeries.from_coeffs(6, _SPARSE)
    assert s == dense and hash(s) == hash(dense)
    assert dense.support == (1, 3, 6) and dense.values == (1, -2, 3)
    assert CoeffSeries(6, [1, 3, 6], [1, -2, 3]) == s
    assert CoeffSeries(2, (), ()) == CoeffSeries.from_coeffs(2, (0, 0))


# Each listed index takes its value from _SPARSE, or 5 outside 1..6, so a
# zero entry of the table becomes a zero value.  A support that misses a
# nonzero entry of _SPARSE has no case here: with its values, it is the
# terms of another valid series.
@pytest.mark.parametrize("support, reason", [
    ((3, 1, 6), "unsorted"),
    ((1, 3, 3, 6), "duplicate"),
    ((0, 1, 3, 6), "below 1"),
    ((1, 3, 6, 7), "above the limit"),
    ((1, 2, 3, 6), "lists a zero entry"),
    ((1, 2, 6), "lists a zero entry in place of a nonzero one"),
])
def test_wrong_support_rejected(support, reason):
    table = dict(enumerate(_SPARSE, 1))
    with pytest.raises(ValueError):
        CoeffSeries(6, support, tuple(table.get(m, 5) for m in support))


@pytest.mark.parametrize("values", [(1, -2), (1, -2, 3, 4), ()])
def test_terms_of_unequal_length_rejected(values):
    with pytest.raises(ValueError):
        CoeffSeries(6, (1, 3, 6), values)


def test_threads_reading_a_fresh_table_all_get_the_dense_reference():
    n = 20000
    reference = _dense_reference(catalog._itau_factor, n).coeffs
    series = expand_euler(catalog._itau_factor, n)
    assert "coeffs" not in vars(series)
    barrier = threading.Barrier(4)
    tables = [None] * 4

    def read(k):
        barrier.wait(timeout=30)
        tables[k] = series.coeffs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(table == reference for table in tables)
    assert series.coeffs == reference


def dense_nonzero(s):
    """Reference: (m, a(m)) for every a(m) != 0, by a scan of the whole table."""
    return [(m, c) for m, c in enumerate(s.coeffs, 1) if c]


def assert_support_is_dense_scan(s):
    reference = dense_nonzero(s)
    assert s.support == tuple(m for m, _ in reference)
    assert list(s.nonzero()) == reference


_coeff_lists = st.lists(st.integers(-3, 3), min_size=1, max_size=80)
_series = _coeff_lists.map(lambda c: CoeffSeries.from_coeffs(len(c), tuple(c)))
_invertible = _coeff_lists.map(lambda c: CoeffSeries.from_coeffs(len(c), (1, *c[1:])))


@given(_coeff_lists)
def test_terms_and_dense_builds_agree(coeffs):
    limit = len(coeffs)
    dense = CoeffSeries.from_coeffs(limit, coeffs)
    terms = CoeffSeries(limit, tuple(m for m, c in enumerate(coeffs, 1) if c),
                        tuple(c for c in coeffs if c))
    assert terms == dense and hash(terms) == hash(dense)
    assert list(terms.nonzero()) == list(dense.nonzero())
    # a(m) is the first read of the terms-built table, so it builds it
    assert [terms.a(m) for m in range(1, limit + 1)] == coeffs
    assert terms.coeffs == dense.coeffs == tuple(coeffs)
    assert [dense.a(m) for m in range(1, limit + 1)] == coeffs


@given(_series, st.lists(st.integers(-3, 3), min_size=80, max_size=80))
def test_convolution_support_is_dense_scan(a, other):
    b = CoeffSeries.from_coeffs(a.limit, other[:a.limit])
    assert_support_is_dense_scan(convolve(a, b))


@given(_invertible)
def test_inverse_support_is_dense_scan(a):
    assert_support_is_dense_scan(dirichlet_inverse(a))


@given(_series, st.integers(1, 7))
def test_scale_and_shift_support_is_dense_scan(a, k):
    assert_support_is_dense_scan(scale_argument(a, k))
    assert_support_is_dense_scan(shift(a, k - 1))


@given(st.integers(1, 40000))
@example(1)
@example(7)
@example(8)
@example(27 * 8 - 1)
def test_f_cubic_support_is_dense_scan(n):
    assert_support_is_dense_scan(catalog.f_cubic(n))


@given(st.sampled_from(catalog.CLI_SERIES + ("riemann-zeta",)), st.integers(1, 3000))
@example("zeta-qitau", 1)
@example("zeta-zisqrt2", 2)
def test_catalog_support_is_dense_scan(name, n):
    assert_support_is_dense_scan(catalog.catalog_entry(name, n).series)


# Engine laws over random multiplicative series: the local factors are an
# EulerRule, one ClassFactor per residue class of p, like the catalog's rules
# by p mod 5 or 8, with coefficients that may be polynomials in p, and
# exceptional primes of their own, some of them above sqrt(N) (9 is not
# prime, so its factor is never read).  A lambda over a rule is a reference
# built prime by prime, through _dense_reference.  expand_euler sets
# a(1) = 1, so a local factor stands for its series only when num[0] = 1,
# as in every catalog factor.

_small_polys = st.one_of(_small_ints, st.lists(_small_ints, max_size=2).map(tuple))
_monic_factors = st.builds(
    ClassFactor,
    st.lists(_small_polys, max_size=3).map(lambda tail: (1, *tail)),
    st.lists(_small_polys, max_size=3).map(lambda tail: (1, *tail)),
)
_class_factors = st.builds(
    ClassFactor,
    st.lists(_small_polys, min_size=1, max_size=4).map(tuple),
    st.lists(_small_polys, max_size=3).map(lambda tail: (1, *tail)),
)
_limits = st.integers(1, 120)


@st.composite
def _local_rules(draw, factors=_monic_factors):
    modulus = draw(st.sampled_from((1, 3, 4, 5, 8)))
    by_class = draw(st.lists(factors, min_size=modulus, max_size=modulus))
    exceptional = draw(st.dictionaries(st.sampled_from((2, 3, 5, 7, 9, 11, 13, 37, 97)),
                                       factors, max_size=3))
    return EulerRule(modulus, tuple(by_class), exceptional)


@given(_local_rules(), _local_rules(), _limits)
def test_expand_euler_of_product_is_convolution(f, g, n):
    product = _dense_reference(lambda p: f(p) * g(p), n)
    assert product.coeffs == convolve(expand_euler(f, n), expand_euler(g, n)).coeffs
    assert expand_euler(f * g, n) == product


@given(_local_rules(), _limits)
def test_swapped_local_factor_expands_to_inverse(f, n):
    swapped = _dense_reference(lambda p: EulerFactor(f(p).den, f(p).num), n)
    assert swapped.coeffs == dirichlet_inverse(expand_euler(f, n)).coeffs


@given(_class_factors, _class_factors, st.lists(st.sampled_from(primes_up_to(200)),
                                                 unique=True).map(sorted))
def test_class_factor_reads_linear_coefficient_at_each_prime(f, g, primes):
    for factor in (f, g, f * g):
        expected = [(p, factor(p).expand(2)[1]) for p in primes]
        got_primes, got_c1s = factor.linear_terms(iter(primes))
        assert list(zip(got_primes, got_c1s)) == [(p, c) for p, c in expected if c]
    assert [(f * g)(p) for p in primes] == [f(p) * g(p) for p in primes]


def test_rule_and_class_validation():
    with pytest.raises(ValueError):
        ClassFactor((1,), ((0, 1), -1))  # constant term p
    with pytest.raises(ValueError):
        ClassFactor((1,), ())
    with pytest.raises(ValueError):
        EulerRule(2, (ClassFactor((1,)),))
    with pytest.raises(ValueError):
        EulerRule(0, ())
    phi_split = ClassFactor((1, 2, 1), (1, (0, -2), (0, 0, 1)))
    assert phi_split(11) == EulerFactor((1, 2, 1), (1, -22, 121))
    assert phi_split.linear_terms([11, 19]) == ([11, 19], [24, 40])
    rule = EulerRule(3, (phi_split,) * 3, {3: ClassFactor((1, 1))})
    assert rule(3) == EulerFactor((1, 1)) and rule(7) == phi_split(7)


def _spread(poly, k):
    """poly(t^k): k - 1 zeros after each coefficient."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return tuple(out)


@given(_local_rules(_class_factors), st.integers(1, 4), _limits)
def test_scale_argument_of_expansion_is_expansion_at_t_power(f, k, n):
    at_power = _dense_reference(lambda p: EulerFactor(_spread(f(p).num, k),
                                                      _spread(f(p).den, k)), n)
    assert scale_argument(expand_euler(f, n), k).coeffs == at_power.coeffs


def _dense_reference(local_factor, limit):
    """The dense expansion: a smallest-prime-factor table, then one trial
    division per index, a(m) = a(m / p^e) * c_e with p the least prime of m."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    expansions = {}
    for p in range(2, limit + 1):
        if spf[p] == p:
            e_max, q = 0, p
            while q <= limit:
                e_max += 1
                q *= p
            expansions[p] = local_factor(p).expand(e_max + 1)
    coeffs = [0] * (limit + 1)
    coeffs[1] = 1
    for m in range(2, limit + 1):
        p = spf[m]
        e, rest = 0, m
        while rest % p == 0:
            rest //= p
            e += 1
        coeffs[m] = coeffs[rest] * expansions[p][e]
    return CoeffSeries.from_coeffs(limit, tuple(coeffs[1:]))


# Limits to 2000 cross prime squares and cubes (up to 11^3), and the
# random factors give zero t^e coefficients at some e.
@given(_local_rules(), st.integers(1, 2000))
def test_expand_euler_matches_dense_reference(f, n):
    sparse = expand_euler(f, n)
    assert sparse == _dense_reference(f, n)
    assert_support_is_dense_scan(sparse)


# Around N = p^2 the prime p moves from the t^1-only phase into the full
# expansion, so a(p^2) = c2 is the entry that shows where the cut lies.
# Each factor is written twice: as a function of p, the reference, and as
# the rule that expand_euler takes.
_SPLIT_SQ, _SKEW = ClassFactor((1,), (1, -2, 1)), ClassFactor((1, -1, 2), (1, -1))
_BOUNDARY_RULES = {
    "1/(1-t^2)": (lambda p: EulerFactor((1,), (1, 0, -1)),
                  EulerRule(1, (ClassFactor((1,), (1, 0, -1)),))),
    "(1+t)^2/(1-pt)^2": (lambda p: EulerFactor((1, 2, 1), (1, -2 * p, p * p)),
                         EulerRule(1, (ClassFactor((1, 2, 1), (1, (0, -2), (0, 0, 1))),))),
    "1/(1-t)^2 or (1-t+2t^2)/(1-t) by p mod 4":
        (lambda p: (EulerFactor((1,), (1, -2, 1)) if p % 4 == 1
                    else EulerFactor((1, -1, 2), (1, -1))),
         EulerRule(4, (_SKEW, _SPLIT_SQ, _SKEW, _SKEW))),
}


@pytest.mark.parametrize("rule", sorted(_BOUNDARY_RULES))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 23))
def test_expand_euler_at_prime_square_boundary(rule, p):
    f, as_rule = _BOUNDARY_RULES[rule]
    for n in (p * p - 1, p * p, p * p + 1):
        sparse = expand_euler(as_rule, n)
        assert sparse == _dense_reference(f, n), n
        assert_support_is_dense_scan(sparse)


@pytest.mark.parametrize("name", catalog.CLI_SERIES)
def test_catalog_tables_match_dense_reference(name, monkeypatch):
    n = 20000
    sparse = catalog.catalog_entry(name, n).series
    monkeypatch.setattr(catalog, "expand_euler", _dense_reference)
    assert sparse == catalog.catalog_entry(name, n).series
    assert_support_is_dense_scan(sparse)


# Every exceptional prime (2 and 5) lies above sqrt(N) for some N here, and
# every class of every rule is first reached somewhere in 1..300.
@pytest.mark.parametrize("name", catalog.CLI_SERIES + ("riemann-zeta",))
def test_catalog_tables_match_dense_reference_at_every_small_limit(name, monkeypatch):
    sparse = [catalog.catalog_entry(name, n).series for n in range(1, 301)]
    monkeypatch.setattr(catalog, "expand_euler", _dense_reference)
    for n, series in enumerate(sparse, 1):
        assert series == catalog.catalog_entry(name, n).series, n


def test_catalog_builds_ask_for_no_factor_above_sqrt(monkeypatch):
    """Phase 2 reads each class's c1 once: no factor is asked for, built or
    read at any prime above sqrt of the expanded limit."""
    asked, limits, counts = [], [], {"built": 0}
    class_call, init = ClassFactor.__call__, EulerFactor.__init__
    expand = catalog.expand_euler

    def counting_call(self, p):
        asked.append(p)
        return class_call(self, p)

    def counting_init(self, *args):
        counts["built"] += 1
        init(self, *args)

    def recording_expand(rule, limit):
        limits.append(limit)
        return expand(rule, limit)

    monkeypatch.setattr(ClassFactor, "__call__", counting_call)
    monkeypatch.setattr(EulerFactor, "__init__", counting_init)
    monkeypatch.setattr(catalog, "expand_euler", recording_expand)
    for name in catalog.CLI_SERIES + ("riemann-zeta",):
        asked.clear()
        limits.clear()
        counts.update(built=0)
        catalog.catalog_entry(name, 300000)
        (limit,) = limits
        assert asked == primes_up_to(math.isqrt(limit)), name
        assert counts == {"built": len(asked)}, name


def test_nonzero_with_negative_and_zero_coefficients():
    mu = dirichlet_inverse(catalog.riemann_zeta(200))
    assert min(mu.coeffs) < 0 and 0 in mu.coeffs
    assert list(mu.nonzero()) == [(m, c) for m, c in enumerate(mu.coeffs, 1) if c]
