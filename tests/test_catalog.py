from fractions import Fraction

import pytest

from simsub.catalog import (
    CLI_SERIES,
    _phi_c_factor,
    _tau_factor,
    CatalogEntry,
    SeriesName,
    catalog_entry,
    f_cubic,
    phi_c,
    sigma1,
    zeta_q_itau,
    zeta_q_tau,
    zeta_q_xi8,
    zeta_zi_sqrt2,
)
from simsub.dirichlet import (
    CoeffSeries,
    check_multiplicative,
    convolve,
    dirichlet_inverse,
    dirichlet_polynomial,
    expand_euler,
    icbrt,
    primes_up_to,
    scale_argument,
    shift,
)
from simsub.quadratic import TAU, norm_equation

# The printed coefficient tables being reproduced.
ZETA_Q_TAU_TERMS = {1: 1, 4: 1, 5: 1, 9: 1, 11: 2, 16: 1, 19: 2, 20: 1,
                    25: 1, 29: 2, 31: 2, 36: 1, 41: 2}
ZETA_Q_ITAU_TERMS = {1: 1, 4: 1, 5: 2, 9: 2, 16: 1, 20: 2, 25: 3, 36: 2,
                     45: 4, 49: 2, 64: 1, 80: 2, 81: 3}
ZETA_ZI_SQRT2_TERMS = {1: 1, 4: 2, 8: 2, 9: 2, 16: 2, 17: 4, 25: 2, 32: 2,
                       36: 4, 41: 4, 49: 2, 64: 2, 68: 8}
F_CUBIC_TERMS = {1: 1, 64: 9, 125: 7, 729: 11, 1331: 26, 4096: 41,
                 6859: 42, 8000: 63, 15625: 37, 24389: 62}


def expand_local(num, den, terms):
    """Independent local-factor expansion over Fraction (den[0] == 1)."""
    out = []
    for k in range(terms):
        c = Fraction(num[k] if k < len(num) else 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c)
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


# Reference oracles: the catalog's earlier constructions by Dirichlet
# polynomials, convolutions and inverses, kept to check the local factors.

def phi_c_by_convolution(limit):
    num = {m: c for m, c in {1: 1, 4: 4}.items() if m <= limit}
    den = {m: c for m, c in {1: 1, 4: 1}.items() if m <= limit}
    pre = convolve(dirichlet_polynomial(num, limit),
                   dirichlet_inverse(dirichlet_polynomial(den, limit)))
    zt = zeta_q_tau(limit)
    core = convolve(zt, shift(zt, 1))
    core = convolve(core, dirichlet_inverse(scale_argument(zt, 2)))
    return convolve(pre, core)


def zeta_zi_sqrt2_by_convolution(limit):
    pre = {m: c for m, c in {1: 1, 2: -1, 4: 2}.items() if m <= limit}
    return convolve(dirichlet_polynomial(pre, limit), zeta_q_xi8(limit))


def f_cubic_by_convolution(limit):
    return convolve(scale_argument(zeta_q_tau(limit), 3),
                    scale_argument(phi_c_by_convolution(limit), 3))


@pytest.mark.parametrize("build, oracle, limit", [
    (phi_c, phi_c_by_convolution, 5000),
    (zeta_zi_sqrt2, zeta_zi_sqrt2_by_convolution, 5000),
    (f_cubic, f_cubic_by_convolution, 24389),
])
def test_local_factors_match_convolution_oracle(build, oracle, limit):
    got, want = build(limit), oracle(limit)
    for m in range(1, limit + 1):
        assert got.a(m) == want.a(m), m


def test_zeta_q_tau_printed_terms():
    z = zeta_q_tau(41)
    assert dict(z.nonzero()) == ZETA_Q_TAU_TERMS
    assert z.a(2) == 0
    assert z.a(20) == z.a(4) * z.a(5) == 1


def test_zeta_q_tau_local_rules():
    z = zeta_q_tau(3000)
    for p in primes_up_to(13):
        for e in range(1, 6):
            if p ** e > 3000:
                break
            if p == 5:
                expected = 1
            elif p % 5 in (1, 4):
                expected = e + 1
            else:
                expected = 1 if e % 2 == 0 else 0
            assert z.a(p ** e) == expected, (p, e)


def test_zeta_q_itau_printed_terms():
    z = zeta_q_itau(81)
    for m, a in ZETA_Q_ITAU_TERMS.items():
        assert z.a(m) == a, m
    assert z.a(3) == 0
    # the Euler product also forces terms at completely split primes that
    # the quoted expansion skips; the brute-force oracle confirms these
    assert z.a(29) == z.a(41) == z.a(61) == 4


def test_zeta_q_xi8_derived_values():
    z = zeta_q_xi8(100)
    assert z.a(2) == 1
    assert z.a(9) == 2
    assert z.a(17) == 4


def test_zeta_zi_sqrt2_printed_terms():
    z = zeta_zi_sqrt2(68)
    assert dict(z.nonzero()) == ZETA_ZI_SQRT2_TERMS
    assert z.a(2) == 0


def test_zeta_zi_sqrt2_odd_terms_match_xi8():
    n = 301
    zs = zeta_zi_sqrt2(n)
    zx = zeta_q_xi8(n)
    for m in range(1, n + 1, 2):
        assert zs.a(m) == zx.a(m)


def test_zeta_zi_sqrt2_prefactor_identity():
    n = 200
    zs = zeta_zi_sqrt2(n)
    zx = zeta_q_xi8(n)
    for m in range(1, n + 1):
        expected = zx.a(m)
        if m % 2 == 0:
            expected -= zx.a(m // 2)
        if m % 4 == 0:
            expected += 2 * zx.a(m // 4)
        assert zs.a(m) == expected


def test_phi_c_derived_values():
    pc = phi_c(30)
    assert pc.a(1) == 1
    assert pc.a(4) == 8
    assert pc.a(5) == 6
    assert pc.a(9) == 10
    assert pc.a(11) == 24


def test_phi_c_against_local_expansions():
    # local factors of (1+4^(1-s))/(1+4^-s) * zeta(s) zeta(s-1) / zeta(2s)
    pc = phi_c(1000)
    # p = 2 (inert, carries the prefactor): (1 + 4 t^2)/(1 - 4 t^2)
    loc2 = expand_local((1, 0, 4), (1, 0, -4), 6)
    for e in range(6):
        if 2 ** e <= 1000:
            assert pc.a(2 ** e) == loc2[e]
    # p = 5 (ramified): (1 + t)/(1 - 5 t)
    loc5 = expand_local((1, 1), (1, -5), 4)
    for e in range(4):
        if 5 ** e <= 1000:
            assert pc.a(5 ** e) == loc5[e]
    # p = 3 (inert): (1 + t^2)/(1 - 9 t^2)
    loc3 = expand_local((1, 0, 1), (1, 0, -9), 7)
    for e in range(7):
        if 3 ** e <= 1000:
            assert pc.a(3 ** e) == loc3[e]
    # p = 11 (split): (1 + t)^2/(1 - 11 t)^2
    loc11 = expand_local((1, 2, 1), (1, -22, 121), 3)
    for e in range(3):
        if 11 ** e <= 1000:
            assert pc.a(11 ** e) == loc11[e]


def test_scale_argument_on_zeta_q_tau():
    z = zeta_q_tau(64)
    assert scale_argument(z, 3).a(64) == z.a(4) == 1
    assert shift(zeta_q_tau(10), 1).a(5) == 5


def test_f_cubic_printed_terms():
    f = f_cubic(24389)
    assert dict(f.nonzero()) == F_CUBIC_TERMS
    for m in (2, 10, 100, 1000, 12167 + 1):
        r = round(m ** (1 / 3))
        if r ** 3 != m:
            assert f.a(m) == 0


def f_cubic_by_scaling(limit):
    # the full-length expansion with every coefficient moved to r^3
    return scale_argument(
        expand_euler(_tau_factor * _phi_c_factor, limit), 3)


@pytest.mark.parametrize("limit", [1, 7, 8, 9, 26, 27, 28, 63, 64, 65, 24389])
def test_f_cubic_at_cubes_matches_full_expansion(limit):
    f = f_cubic(limit)
    assert f.limit == limit
    assert f == f_cubic_by_scaling(limit) == f_cubic_by_convolution(limit)


def test_f_cubic_rejects_empty_table():
    for limit in (0, -8):
        with pytest.raises(ValueError):
            f_cubic(limit)


def test_integer_cube_root_is_exact():
    for r in range(0, 300):
        for n in (r ** 3 - 1, r ** 3, r ** 3 + 1):
            if n >= 0:
                assert icbrt(n) ** 3 <= n < (icbrt(n) + 1) ** 3
    for r in (10 ** 6, 10 ** 15 + 7):
        # exact at large cubes and one below them
        assert icbrt(r ** 3) == r
        assert icbrt(r ** 3 - 1) == r - 1


def test_integer_cube_root_past_the_float_range():
    # 10^600 overflows a float, so no float step may enter the search
    assert icbrt(10 ** 600) == 10 ** 200
    assert icbrt(10 ** 600 - 1) == 10 ** 200 - 1
    for k in (52, 53, 54):  # around the largest exact float
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            assert icbrt(n) ** 3 <= n < (icbrt(n) + 1) ** 3


def test_integer_cube_root_rejects_negative_input():
    for n in (-1, -8, -10 ** 600):
        with pytest.raises(ValueError):
            icbrt(n)


def test_f_cubic_internal_consistency_at_8000():
    # coefficient at 20^3 must assemble from the catalog's own pieces
    z = zeta_q_tau(20)
    pc = phi_c(20)
    total = sum(z.a(d) * pc.a(20 // d) for d in (1, 2, 4, 5, 10, 20))
    assert total == 63
    assert f_cubic(8000).a(8000) == 63


def test_sigma1_examples():
    assert sigma1(4) == 7
    assert sigma1(1) == 1
    assert sigma1(6) == 12
    with pytest.raises(ValueError):
        sigma1(0)


def test_catalog_entries_multiplicative():
    for name in SeriesName:
        entry = catalog_entry(name, 150)
        assert isinstance(entry, CatalogEntry)
        assert entry.series.a(1) == 1
        assert check_multiplicative(entry.series), name


def test_catalog_entry_by_cli_name():
    entry = catalog_entry("zeta-qtau", 10)
    assert entry.name is SeriesName.ZETA_Q_TAU
    with pytest.raises(ValueError):
        catalog_entry("no-such-series", 10)
    with pytest.raises(ValueError):
        CatalogEntry(SeriesName.PHI_C, CoeffSeries.from_coeffs(2, (2, 0)))  # a(1) != 1
    assert CLI_SERIES == ("zeta-qtau", "zeta-qitau", "zeta-zisqrt2", "zeta-qxi8",
                          "phi-c", "f-cubic")


def test_expand_euler_equals_per_prime_convolution_for_zeta_q_tau():
    from simsub.dirichlet import ClassFactor, EulerRule, epsilon

    n = 100
    z = zeta_q_tau(n)
    acc = epsilon(n)
    for p in primes_up_to(n):
        if p == 5:
            at_p = ClassFactor((1,), (1, -1))
        elif p % 5 in (1, 4):
            at_p = ClassFactor((1,), (1, -2, 1))
        else:
            at_p = ClassFactor((1,), (1, 0, -1))
        only_p = EulerRule(1, (ClassFactor((1,)),), {p: at_p})
        acc = convolve(acc, expand_euler(only_p, n))
    assert acc.coeffs == z.coeffs


def test_norm_equation_counts_match_zeta_q_tau():
    z = zeta_q_tau(40)
    for k in range(1, 41):
        assert len(norm_equation(TAU, k)) == z.a(k), k
