import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from simsub import quartic
from simsub.quartic import (
    ISQRT2,
    ITAU,
    QuarticInt,
    UnitDecompositionError,
    quartic_unit_normal_form,
    regular_rep,
    unit_from_normal_form,
    units_up_to_height,
)


def random_elements(ring, count, seed, span=9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = QuarticInt(tuple(rng.randint(-span, span) for _ in range(4)), ring)
        if x:
            out.append(x)
    return out


def fraction_det(mat):
    """Reference determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    assert det.denominator == 1
    return int(det)


def test_qmul_examples():
    i = ITAU.i()
    itau = QuarticInt((0, 0, 0, 1), ITAU)  # i*tau
    assert (i * i).coeffs == (-1, 0, 0, 0)
    assert (itau * itau).coeffs == (-1, 0, -1, 0)  # -(1 + tau)
    s = ISQRT2.omega()
    is2 = QuarticInt((0, 0, 0, 1), ISQRT2)
    assert (s * is2).coeffs == (0, 2, 0, 0)  # sqrt2 * i sqrt2 = 2i


def test_mixed_rings_rejected():
    with pytest.raises(ValueError):
        ITAU.one() + ISQRT2.one()
    with pytest.raises(ValueError):
        ITAU.i() * ISQRT2.i()


def test_regular_rep_examples():
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert regular_rep(ITAU.one()) == ident
    assert regular_rep(ITAU.from_int(2)) == tuple(
        tuple(2 if i == j else 0 for j in range(4)) for i in range(4))
    # multiplication by i: 1 -> i, i -> -1, w -> iw, iw -> -w
    assert regular_rep(ITAU.i()) == (
        (0, -1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, -1),
        (0, 0, 1, 0),
    )


def test_abs_norm_examples():
    assert ITAU.i().abs_norm() == 1
    assert ITAU.from_int(2).abs_norm() == 16
    x = QuarticInt((1, 1, 0, 0), ISQRT2)
    # oracle: multiplication-by-(1+i) matrix on (1, i, sqrt2, i sqrt2)
    hand = ((1, -1, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 1, -1),
            (0, 0, 1, 1))
    assert regular_rep(x) == hand
    assert fraction_det(hand) == 4
    assert x.abs_norm() == 4


def test_abs_norm_matches_regular_rep_det():
    for ring, seed in ((ITAU, 21), (ISQRT2, 22)):
        for x in random_elements(ring, 200, seed):
            assert x.abs_norm() == abs(fraction_det(regular_rep(x)))


def test_abs_norm_multiplicative():
    for ring, seed in ((ITAU, 23), (ISQRT2, 24)):
        xs = random_elements(ring, 1000, seed, span=6)
        ys = random_elements(ring, 1000, seed + 5, span=6)
        for x, y in zip(xs, ys):
            assert (x * y).abs_norm() == x.abs_norm() * y.abs_norm()


def test_regular_rep_is_ring_homomorphism():
    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4))
                           for j in range(4)) for i in range(4))

    for ring, seed in ((ITAU, 25), (ISQRT2, 26)):
        xs = random_elements(ring, 150, seed, span=5)
        ys = random_elements(ring, 150, seed + 5, span=5)
        for x, y in zip(xs, ys):
            assert regular_rep(x * y) == matmul(regular_rep(x), regular_rep(y))


def test_multiplication_table_checked_on_basis_triples():
    for ring in (ITAU, ISQRT2):
        for x, y, z in itertools.product(ring.basis(), repeat=3):
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)


def test_unit_normal_form_examples():
    itau = QuarticInt((0, 0, 0, 1), ITAU)
    assert quartic_unit_normal_form(itau) == (1, 1)
    assert quartic_unit_normal_form(-ITAU.one()) == (2, 0)
    lam = ISQRT2.mu
    assert quartic_unit_normal_form(ISQRT2.i() * lam ** 3) == (1, 3)
    # rel_norm(mu^60000) = tau^120000, far past 10^5 unit steps
    assert quartic_unit_normal_form(ITAU.mu ** 60000) == (0, 60000)
    with pytest.raises(ValueError):
        quartic_unit_normal_form(ITAU.from_int(2))


@settings(deadline=None)
@given(st.sampled_from((ITAU, ISQRT2)), st.integers(0, 3), st.integers(-10 ** 4, 10 ** 4))
@example(ITAU, 3, -10 ** 4)
@example(ISQRT2, 1, 10 ** 4)
def test_unit_normal_form_roundtrip(ring, k, ell):
    u = unit_from_normal_form(ring, k, ell)
    assert quartic_unit_normal_form(u) == (k, ell)
    assert u.abs_norm() == 1


@pytest.mark.parametrize("real_form", [(-1, 2), (1, 3)])
def test_unit_normal_form_rejects_impossible_relative_norm(monkeypatch, real_form):
    # rel_norm(i^k mu^l) = mu^(2l): a negative or odd real normal form
    # would be a unit outside i^k mu^l
    monkeypatch.setattr(quartic, "unit_normal_form", lambda x: real_form)
    with pytest.raises(UnitDecompositionError):
        quartic_unit_normal_form(ITAU.i())


def test_unit_scan_decomposes_height_4():
    for ring in (ITAU, ISQRT2):
        units = units_up_to_height(ring, 4)
        assert units
        for u in units:
            k, ell = quartic_unit_normal_form(u)
            assert unit_from_normal_form(ring, k, ell) == u


def test_unit_decomposition_error_type_exists():
    # must never trigger for real units; the class records what a
    # counterexample would mean
    assert issubclass(UnitDecompositionError, ArithmeticError)

