import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from simsub import quadratic
from simsub.errors import InvariantViolation
from simsub.quadratic import (
    QuadInt,
    QuadRing,
    SQRT2,
    SplittingClass,
    TAU,
    canonical_associate,
    canonical_unit,
    coprime,
    exact_div,
    gcd,
    is_associate,
    is_canonical_associate,
    norm_equation,
    sign_embedding,
    splitting_class,
    unit_from_normal_form,
    unit_inverse,
    unit_normal_form,
    units_up_to_height,
)

from test_cubic import prime_factors  # the reference factorization


def tau(a, b):
    return QuadInt(a, b, TAU)


def rt2(a, b):
    return QuadInt(a, b, SQRT2)


def random_elements(ring, count, seed, span=50):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = QuadInt(rng.randint(-span, span), rng.randint(-span, span), ring)
        if x:
            out.append(x)
    return out


def test_only_two_rings_constructible():
    with pytest.raises(ValueError):
        QuadRing(2, 3)
    with pytest.raises(ValueError):
        QuadRing(0, 4)  # square discriminant
    assert QuadRing(1, 1) == TAU
    assert QuadRing(0, 2) == SQRT2


def test_ring_op_examples():
    assert tau(0, 1) * tau(0, 1) == tau(1, 1)            # tau^2 = 1 + tau
    assert tau(1, 1) * tau(2, 1) == tau(3, 4)            # (1+tau)(2+tau)
    assert rt2(0, 1) * rt2(0, 1) == rt2(2, 0)            # sqrt2^2 = 2


def test_mixed_ring_rejected():
    with pytest.raises(ValueError):
        tau(1, 0) + rt2(1, 0)
    with pytest.raises(ValueError):
        tau(1, 0) * rt2(0, 1)


def test_norm_examples():
    assert tau(0, 1).norm() == -1
    assert tau(2, 0).norm() == 4
    assert tau(3, 1).norm() == 11


def test_conj_examples():
    assert tau(0, 1).conj() == tau(1, -1)
    assert tau(5, 0).conj() == tau(5, 0)
    assert rt2(1, 1).conj() == rt2(1, -1)


def test_norm_multiplicative_and_conj_automorphism():
    for ring, seed in ((TAU, 1), (SQRT2, 2)):
        xs = random_elements(ring, 1000, seed)
        ys = random_elements(ring, 1000, seed + 10)
        for x, y in zip(xs, ys):
            assert (x * y).norm() == x.norm() * y.norm()
            assert x.conj().conj() == x
            assert (x * y).conj() == x.conj() * y.conj()
            assert (x + y).conj() == x.conj() + y.conj()


def test_is_unit_examples():
    assert tau(0, 1).is_unit()
    assert rt2(1, 1).is_unit()
    assert not tau(2, 0).is_unit()


def test_unit_normal_form_examples():
    assert unit_normal_form(tau(1, 1)) == (1, 2)    # tau^2
    assert unit_normal_form(tau(-1, 1)) == (1, -1)  # tau - 1 = 1/tau
    assert unit_normal_form(tau(-1, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        unit_normal_form(tau(2, 0))


@pytest.mark.parametrize("ring", (TAU, SQRT2))
def test_unit_normal_form_past_the_old_step_cap(ring):
    # exponents far past 10^5 still take O(1) steps of the unit walk
    fund = ring.fundamental_unit
    assert unit_normal_form(fund ** 110000) == (1, 110000)
    assert unit_normal_form(-fund ** -250000) == (-1, -250000)
    assert canonical_associate(3 * fund ** 250000) == ring.from_int(3)


def test_unit_scan_roundtrip_small():
    for ring in (TAU, SQRT2):
        units = units_up_to_height(ring, 20)
        assert units
        for u in units:
            sign, exp = unit_normal_form(u)
            assert unit_from_normal_form(ring, sign, exp) == u


def test_sign_embedding_matches_float():
    for ring, seed in ((TAU, 3), (SQRT2, 4)):
        for x in random_elements(ring, 500, seed):
            fl = x.embedding_float()
            if abs(fl) > 1e-6:
                assert sign_embedding(x) == (1 if fl > 0 else -1)


def test_euclidean_division_decreases_norm():
    for ring, seed in ((TAU, 5), (SQRT2, 6)):
        xs = random_elements(ring, 300, seed)
        ys = random_elements(ring, 300, seed + 1)
        for x, y in zip(xs, ys):
            q, r = divmod(x, y)
            assert q * y + r == x
            assert abs(r.norm()) < abs(y.norm())


def test_gcd_examples():
    x = tau(3, 1)
    assert gcd(TAU.zero(), x) == canonical_associate(x)
    assert gcd(tau(2, 0), tau(0, 1)) == TAU.one()
    g = gcd(tau(3, 1), tau(11, 0))
    assert is_associate(g, tau(3, 1))
    assert g == canonical_associate(tau(3, 1))
    # independent check: divides both inputs, any common divisor divides it
    assert not tau(3, 1) % g and not tau(11, 0) % g


def test_gcd_zero_zero_rejected():
    with pytest.raises(ValueError):
        gcd(TAU.zero(), TAU.zero())


def test_gcd_properties_random():
    for ring, seed in ((TAU, 7), (SQRT2, 8)):
        xs = random_elements(ring, 200, seed, span=30)
        ys = random_elements(ring, 200, seed + 1, span=30)
        for x, y in zip(xs, ys):
            g = gcd(x, y)
            assert not x % g and not y % g
            assert gcd(exact_div(x, g), exact_div(y, g)).is_unit()
            assert is_canonical_associate(g)


def test_canonical_associate_properties():
    for ring, seed in ((TAU, 9), (SQRT2, 10)):
        fund = ring.fundamental_unit
        for x in random_elements(ring, 200, seed, span=25):
            c = canonical_associate(x)
            assert is_associate(c, x)
            assert is_canonical_associate(c)
            assert canonical_associate(c) == c
            # unit multiples all normalize to the same representative
            assert canonical_associate(x * fund) == c
            assert canonical_associate(-x) == c
        assert canonical_associate(fund) == ring.one()


def test_splitting_class_examples():
    assert splitting_class(11, TAU) is SplittingClass.SPLIT
    assert splitting_class(2, TAU) is SplittingClass.INERT
    assert splitting_class(7, SQRT2) is SplittingClass.SPLIT
    assert splitting_class(5, TAU) is SplittingClass.RAMIFIED
    assert splitting_class(2, SQRT2) is SplittingClass.RAMIFIED
    assert splitting_class(3, SQRT2) is SplittingClass.INERT
    with pytest.raises(ValueError):
        splitting_class(10, TAU)
    with pytest.raises(ValueError):
        splitting_class(1, SQRT2)


def test_norm_equation_small():
    assert norm_equation(TAU, 1) == (TAU.one(),)
    assert norm_equation(TAU, 4) == (tau(2, 0),)
    assert norm_equation(TAU, 5) == (tau(2, 1),)
    assert len(norm_equation(TAU, 11)) == 2
    assert norm_equation(TAU, 2) == ()
    assert norm_equation(SQRT2, 2) == (rt2(2, 1),)
    for x in norm_equation(TAU, 19):
        assert x.norm() == 19 and is_canonical_associate(x)


def test_norm_equation_cache_is_bounded():
    assert norm_equation.cache_info().maxsize is not None


def test_prime_factors_reassemble():
    for ring, seed in ((TAU, 11), (SQRT2, 12)):
        for x in random_elements(ring, 60, seed, span=12):
            factors = prime_factors(x)
            prod = ring.one()
            for pi, mult in factors:
                assert abs(pi.norm()) > 1
                prod = prod * pi ** mult
            assert is_associate(prod, x)


_rings = st.sampled_from((TAU, SQRT2))
_parts = st.integers(-10 ** 6, 10 ** 6)


@st.composite
def _elements(draw, ring, nonzero=False):
    x = QuadInt(draw(_parts), draw(_parts), ring)
    if nonzero and not x:
        x = ring.one()
    return x


@given(st.data(), _rings)
def test_divmod_law(data, ring):
    x = data.draw(_elements(ring))
    y = data.draw(_elements(ring, nonzero=True))
    q, r = divmod(x, y)
    assert q * y + r == x
    assert abs(r.norm()) < abs(y.norm())


@given(st.data(), _rings)
def test_gcd_divides_and_is_canonical(data, ring):
    x = data.draw(_elements(ring))
    y = data.draw(_elements(ring, nonzero=True))
    g = gcd(x, y)
    assert not x % g and not y % g
    assert is_canonical_associate(g) and canonical_associate(g) == g


@given(st.data(), _rings)
def test_norm_is_multiplicative(data, ring):
    x = data.draw(_elements(ring))
    y = data.draw(_elements(ring))
    assert (x * y).norm() == x.norm() * y.norm()


@settings(deadline=None)
@given(st.data(), _rings, st.integers(-10 ** 4, 10 ** 4), st.sampled_from((1, -1)))
def test_canonical_associate_idempotent_and_unit_invariant(data, ring, k, sign):
    x = data.draw(_elements(ring, nonzero=True))
    c = canonical_associate(x)
    assert canonical_associate(c) == c
    assert canonical_associate(x * ring.fundamental_unit ** k * sign) == c


@settings(deadline=None)
@given(_rings, st.sampled_from((1, -1)), st.integers(-10 ** 4, 10 ** 4))
@example(TAU, 1, 10 ** 4)
@example(SQRT2, -1, -10 ** 4)
def test_unit_normal_form_roundtrip(ring, sign, exponent):
    assert unit_normal_form(unit_from_normal_form(ring, sign, exponent)) == (sign, exponent)


@pytest.mark.parametrize("ring", (TAU, SQRT2))
def test_canonical_associate_at_the_window_edges(ring):
    fund = ring.fundamental_unit
    three = ring.from_int(3)
    # embedding ratio exactly 1 is inside the window [1, fund^4)
    assert is_canonical_associate(three) and canonical_associate(three) == three
    # ratio exactly fund^4 is outside, and so is exactly fund^-4
    for x in (three * fund ** 2, three * fund ** -2):
        assert not is_canonical_associate(x)
        assert canonical_associate(x) == three
    # the window test alone, on either side of both edges
    assert quadratic._window_side(three) == 0
    assert quadratic._window_side(three * fund ** 2) == 1
    assert quadratic._window_side(three * fund ** -2) == -1
    assert quadratic._window_side(three * fund ** 2 + 1) == 0


@pytest.mark.parametrize("ring", (TAU, SQRT2))
@pytest.mark.parametrize("error", (-1, 1))
def test_unit_walk_corrects_a_jump_off_by_one(monkeypatch, ring, error):
    # the ratios of these elements are far from the powers of fund^4, so
    # the estimate is exact and the patch moves it by exactly one step
    fund = ring.fundamental_unit
    xs = [QuadInt(a, b, ring) * fund ** e
          for a, b in ((7, 4), (2, -9), (11, 1)) for e in (-9, -2, 3, 8, 41)]
    want = [canonical_associate(x) for x in xs]
    estimate = quadratic._ratio_steps
    monkeypatch.setattr(quadratic, "_ratio_steps", lambda x: estimate(x) + error)
    assert [canonical_associate(x) for x in xs] == want


@pytest.mark.parametrize("ring", (TAU, SQRT2))
@pytest.mark.parametrize("error", (-2, 2))
def test_unit_walk_raises_when_the_jump_is_off_by_two(monkeypatch, ring, error):
    # the proven bound allows one corrective step; a worse estimate must
    # raise, not loop and not return a wrong associate
    estimate = quadratic._ratio_steps
    monkeypatch.setattr(quadratic, "_ratio_steps", lambda x: estimate(x) + error)
    fund = ring.fundamental_unit
    with pytest.raises(InvariantViolation):
        canonical_associate(3 * fund ** 10)
    with pytest.raises(InvariantViolation):
        unit_normal_form(fund ** -10)


@given(st.data(), _rings)
def test_canonical_unit_is_the_unit_to_the_canonical_associate(data, ring):
    x = data.draw(_elements(ring, nonzero=True))
    u = canonical_unit(x)
    assert u.is_unit()
    assert x * u == canonical_associate(x)
    assert is_canonical_associate(x * u)


def test_canonical_unit_of_zero_rejected():
    for ring in (TAU, SQRT2):
        with pytest.raises(ValueError):
            canonical_unit(ring.zero())


_small = st.integers(-40, 40)
_pairs = st.tuples(_small, _small)


@given(_rings, _pairs, st.lists(_pairs, min_size=1, max_size=4))
@example(TAU, (1, 0), [(2, 0), (3, 1)])          # norms 4, 11: gcd 1
@example(TAU, (1, 0), [(3, 1), (4, -1)])         # 3+tau, 4-tau: both norm 11
@example(SQRT2, (1, 0), [(3, 1), (3, -1)])       # 3+sqrt2, 3-sqrt2: both norm 7
@example(TAU, (2, 0), [(1, 0), (0, 1), (5, 3)])  # 2 divides all
@example(SQRT2, (3, 1), [(1, 0), (3, -1)])       # 3+sqrt2 divides 7
@example(TAU, (0, 0), [(1, 0)])                  # all zero
def test_coprime_matches_ring_gcd_chain(ring, common, parts):
    # multiplying by a common factor makes shared primes frequent
    c = QuadInt(*common, ring)
    elements = [c * QuadInt(a, b, ring) for a, b in parts]
    nonzero = [x for x in elements if x]
    if not nonzero:
        with pytest.raises(ValueError):
            coprime(elements)
        return
    g = ring.zero()
    for x in nonzero:
        g = gcd_by_quadint(g, x)
    assert coprime(elements) == g.is_unit()


# Reference division and gcd, written on QuadInt products as the package
# computed them before both moved onto integer pairs.

def divmod_by_quadint(x, y):
    num = x * y.conj()
    nd = y.norm()
    if nd < 0:
        num, nd = -num, -nd
    q = QuadInt(quadratic._round_half_up(num.a, nd),
                quadratic._round_half_up(num.b, nd), x.ring)
    return q, x - q * y


def gcd_by_quadint(x, y):
    while y:
        x, y = y, divmod_by_quadint(x, y)[1]
    return canonical_associate(x)


_wide_pairs = st.tuples(_parts, _parts)


@given(_rings, _wide_pairs, _wide_pairs)
@example(SQRT2, (5, 3), (1, 1))    # 1 + sqrt2: a divisor of norm -1
@example(SQRT2, (9, -4), (1, 2))   # 1 + 2 sqrt2: norm -7
@example(TAU, (0, 0), (3, 1))      # zero dividend
@example(TAU, (3, 1), (0, 0))      # zero divisor
@example(TAU, (1, 1), (2, 0))      # (1 + tau) / 2: both coordinates half-way
@example(SQRT2, (-1, 3), (2, 0))   # (-1 + 3 sqrt2) / 2: negative ties
def test_pair_divmod_matches_quadint_reference(ring, xp, yp):
    x, y = QuadInt(*xp, ring), QuadInt(*yp, ring)
    if y:
        assert divmod(x, y) == divmod_by_quadint(x, y)
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(x, y)


@given(_rings, _wide_pairs, _wide_pairs)
@example(SQRT2, (5, 3), (1, 1))    # 1 + sqrt2: a divisor of norm -1
@example(TAU, (0, 0), (3, 1))      # one zero operand
@example(SQRT2, (0, 0), (0, 0))    # gcd(0, 0)
@example(TAU, (1, 1), (2, 0))      # a half-way quotient on the first step
def test_pair_gcd_matches_quadint_reference(ring, xp, yp):
    x, y = QuadInt(*xp, ring), QuadInt(*yp, ring)
    if x or y:
        assert gcd(x, y) == gcd_by_quadint(x, y)
        assert gcd(y, x) == gcd_by_quadint(y, x)
    else:
        with pytest.raises(ValueError):
            gcd(x, y)


@given(_rings, _pairs, st.lists(_pairs, min_size=1, max_size=5))
@example(TAU, (1, 0), [(3, 1), (4, -1)])            # norms 11, 11: a unit by descent
@example(SQRT2, (1, 0), [(3, 1), (3, -1), (7, 0)])  # norms 7, 7, 49: a unit by descent
@example(TAU, (2, 0), [(1, 0), (0, 1), (5, 3)])     # 2 by descent
@example(SQRT2, (3, 1), [(1, 0), (3, -1)])          # 3 + sqrt2 by descent
@example(TAU, (1, 0), [(2, 0), (3, 1)])             # norms 4, 11: the shortcut
@example(SQRT2, (5, 2), [(0, 0)])                   # all zero
def test_gcd_of_many_matches_the_folded_reference(ring, common, parts):
    # a common factor makes shared primes, and so the Euclidean branch, frequent
    c = QuadInt(*common, ring)
    xs = [c * QuadInt(a, b, ring) for a, b in parts]
    want = ring.zero()
    for x in xs:
        want = gcd_by_quadint(want, x)
    walks = []
    walk = quadratic._canonical_walk

    def counted(x):
        walks.append(x)
        return walk(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadratic, "_canonical_walk", counted)
        if not want:
            with pytest.raises(ValueError):
                gcd(*xs)
            return
        got = gcd(*xs)
    assert got == want
    # one walk at most, and none when the norms are coprime
    assert len(walks) == (math.gcd(*(x.norm() for x in xs)) != 1)


def test_coprime_rejects_no_nonzero_element():
    for elements in ([], (), iter(()), [TAU.zero(), TAU.zero()]):
        with pytest.raises(ValueError):
            coprime(elements)


def test_gcd_rejects_mixed_rings():
    with pytest.raises(ValueError):
        gcd(tau(2, 1), rt2(2, 1))
    with pytest.raises(ValueError):
        gcd(rt2(0, 0), tau(1, 0))


def test_gcd_raises_when_the_remainder_does_not_shrink(monkeypatch):
    # a division whose remainder keeps the divisor's norm would make the
    # Euclidean loop spin forever; gcd must stop at the first such step
    calls = []

    def stuck(x, y, c1, c0):
        calls.append(y)
        if len(calls) > 100:
            raise RuntimeError("gcd kept dividing")
        return (0, 0), y

    monkeypatch.setattr(quadratic, "_pair_divmod", stuck)
    for ring in (TAU, SQRT2):
        calls.clear()
        with pytest.raises(InvariantViolation):
            # norms share a factor (5 in Z[tau], 2 in Z[sqrt2]), so the
            # Euclidean branch runs rather than the norm shortcut
            gcd(QuadInt(7, 3, ring) * QuadInt(2, 1, ring), QuadInt(2, 1, ring))
        assert len(calls) == 1


# fund^30000 has coefficients past Python's default limit of 4300 digits
# for int-to-str conversion; the messages show such coefficients by their
# bit length instead of raising that limit's own ValueError.
_COEF = r"(?:<\d+-bit int>|\d+)"
_ELEMENT = rf"\(-?{_COEF}[+-]{_COEF}\*(?:tau|sqrt2)\)"


def test_unit_normal_form_message_survives_huge_operands():
    x = 2 * TAU.fundamental_unit ** 30000
    with pytest.raises(ValueError, match=rf"^not a unit: {_ELEMENT}$"):
        unit_normal_form(x)


def test_unit_inverse_message_survives_huge_operands():
    x = 2 * SQRT2.fundamental_unit ** 30000
    with pytest.raises(ValueError, match=rf"^not a unit: {_ELEMENT}$"):
        unit_inverse(x)


def test_exact_div_message_survives_huge_operands():
    x = 3 * TAU.fundamental_unit ** 30000 + 1
    with pytest.raises(ValueError, match=rf"^3 does not divide {_ELEMENT}$"):
        exact_div(x, 3)


def test_gcd_shrink_message_survives_huge_operands(monkeypatch):
    monkeypatch.setattr(quadratic, "_pair_divmod", lambda x, y, c1, c0: ((0, 0), y))
    x = 5 * TAU.fundamental_unit ** 30000
    with pytest.raises(InvariantViolation, match=rf"^remainder {_ELEMENT} of {_ELEMENT} "
                                                 rf"by {_ELEMENT} does not shrink the norm$"):
        gcd(x, TAU.from_int(5))


def test_int_text_falls_back_to_the_bit_length():
    big = 10 ** 5000
    assert quadratic._int_text(big) == f"<{big.bit_length()}-bit int>"
    assert quadratic._int_text(-big) == f"-<{big.bit_length()}-bit int>"
    assert quadratic._int_text(-7) == "-7"
    assert repr(QuadInt(2, -3, TAU)) == "(2-3*tau)"
    assert repr(QuadInt(-2, 0, SQRT2)) == "(-2+0*sqrt2)"
