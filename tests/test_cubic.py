import itertools
import math
import random
import subprocess
import sys
import threading
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from simsub import catalog, cubic
from simsub.cubic import (
    AffineSimilarity,
    InvariantViolation,
    QuatTau,
    Rotation3,
    compose_affine,
    count_submodules_3d,
    den,
    enumerate_rotations,
    hnf_over_ztau,
    identity_affine,
    is_unit_similarity,
    quat_to_rotation,
    rotation_counts,
    signed_permutations,
    similarity_index,
    verify_rotation_counts,
)
from simsub.lattice import Ambient, EnumerationBudgetExceeded, Submodule, hnf_canonical
from simsub.quadratic import (
    QuadInt,
    TAU,
    canonical_associate,
    exact_div,
    gcd,
    norm_equation,
    prime_factors,
    sign_embedding,
    unit_inverse,
)


def tau(a, b):
    return QuadInt(a, b, TAU)


def quat(*pairs):
    return QuatTau(tuple(tau(a, b) for a, b in pairs))


# Reference route: the Euler-Rodrigues matrix in QuadInt arithmetic, each
# entry put in lowest terms by QuadRat, and den(R) as the lcm of the entry
# denominators.  Rotation3 builds the same objects from one integral matrix,
# and its @ composes on integers; the package has no fraction type.

class QuadRat:
    """Fraction of two golden-ratio (or root-two) integers, in lowest terms.

    The denominator is normalized to its canonical associate, so equality
    and hashing are structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QuadInt, den: QuadInt | None = None):
        if den is None:
            den = num.ring.one()
        if num.ring != den.ring:
            raise ValueError("mixed-ring operands")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = num.ring.one()
        else:
            g = gcd(num, den)
            num = exact_div(num, g)
            den = exact_div(den, g)
            dc = canonical_associate(den)
            num = num * unit_inverse(exact_div(den, dc))
            den = dc
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, QuadRat):
            return other
        if isinstance(other, QuadInt):
            return QuadRat(other)
        if isinstance(other, int):
            return QuadRat(self.num.ring.from_int(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError
        return QuadRat(self.num * o.den, self.den * o.num)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_integral(self) -> bool:
        return self.den == self.num.ring.one()

    def to_quadint(self) -> QuadInt:
        if not self.is_integral():
            raise ValueError(f"{self!r} is not integral")
        return self.num

    def __repr__(self):
        return f"QuadRat({self.num!r}/{self.den!r})"


def euler_rodrigues_by_quadint(a, b, c, d):
    two = TAU.from_int(2)
    return (
        (a * a + b * b - c * c - d * d, two * (b * c - a * d), two * (b * d + a * c)),
        (two * (b * c + a * d), a * a - b * b + c * c - d * d, two * (c * d - a * b)),
        (two * (b * d - a * c), two * (c * d + a * b), a * a - b * b - c * c + d * d),
    )


def rows_by_quadrat(q):
    s = QuatTau(q).norm_sq()
    return tuple(tuple(QuadRat(e, s) for e in row) for row in euler_rodrigues_by_quadint(*q))


def quadrat_rows(rot):
    return tuple(tuple(QuadRat(e, rot.den) for e in row) for row in rot.mat)


def rotation_by_quadrat(rows):
    d = den_by_quadrat(rows)
    return Rotation3(tuple(tuple(e.num * exact_div(d, e.den) for e in row) for row in rows), d)


def product_by_quadrat(r1, r2):
    rows1, rows2 = quadrat_rows(r1), quadrat_rows(r2)
    zero = QuadRat(TAU.zero())
    return tuple(tuple(sum((rows1[i][k] * rows2[k][j] for k in range(3)), zero)
                       for j in range(3)) for i in range(3))


def key_by_quadrat(rows):
    return tuple((e.num.a, e.num.b, e.den.a, e.den.b) for row in rows for e in row)


def den_by_quadrat(rows):
    d = TAU.one()
    for row in rows:
        for e in row:
            d = exact_div(d * e.den, gcd(d, e.den))
    return canonical_associate(d)


def test_quadrat_normalization():
    x = QuadRat(tau(2, 0), tau(4, 0))
    assert x == QuadRat(tau(1, 0), tau(2, 0))
    assert QuadRat(tau(3, 0), tau(1, 0)).is_integral()
    # denominator normalizes to the canonical associate
    y = QuadRat(tau(1, 0), tau(0, 1))  # 1/tau = tau - 1
    assert y.is_integral() and y.to_quadint() == tau(-1, 1)
    with pytest.raises(ZeroDivisionError):
        QuadRat(tau(1, 0), tau(0, 0))


def test_quadrat_field_ops():
    rng = random.Random(51)
    vals = []
    while len(vals) < 40:
        n = tau(rng.randint(-9, 9), rng.randint(-9, 9))
        d = tau(rng.randint(-9, 9), rng.randint(-9, 9))
        if d:
            vals.append(QuadRat(n, d))
    for x, y in zip(vals[::2], vals[1::2]):
        assert x + y - y == x
        if y:
            assert (x * y) / y == x


def test_quat_to_rotation_examples():
    assert quat_to_rotation(quat((1, 0), (0, 0), (0, 0), (0, 0))) == Rotation3.identity()

    r = quat_to_rotation(quat((1, 0), (1, 0), (0, 0), (0, 0)))
    expected = Rotation3.from_int_rows(((1, 0, 0), (0, 0, -1), (0, 1, 0)))
    assert r == expected

    r = quat_to_rotation(quat((1, 0), (1, 0), (1, 0), (0, 0)))
    third = QuadRat(tau(1, 0), tau(3, 0))
    rows = tuple(tuple(third * v for v in row)
                 for row in ((1, 2, 2), (2, 1, -2), (-2, 2, -1)))
    assert r == rotation_by_quadrat(rows)
    assert r.det_sign == 1


def test_quat_validation():
    with pytest.raises(ValueError):
        QuatTau((tau(0, 0),) * 4)
    with pytest.raises(ValueError):
        QuatTau((tau(2, 0), tau(2, 0), tau(0, 0), tau(0, 0)))  # content 2


def test_rotation_validation():
    with pytest.raises(ValueError):
        Rotation3.from_int_rows(((1, 0, 0), (0, 1, 0), (0, 1, 1)))


def _integral(rows):
    return tuple(tuple(tau(*e) if isinstance(e, tuple) else tau(e, 0) for e in row)
                 for row in rows)


def test_integral_check_rejects_non_orthogonal():
    # rows of the right length but not perpendicular: only the
    # off-diagonal entries of mat mat^T are wrong
    with pytest.raises(ValueError, match="orthogonal"):
        Rotation3(_integral(((1, 2, 2), (2, 1, 2), (2, 2, 1))), tau(3, 0))
    with pytest.raises(ValueError, match="orthogonal"):
        Rotation3(_integral(((1, 0, 0), (1, 0, 0), (0, 0, 1))), TAU.one())
    ok = Rotation3(_integral(((1, 2, 2), (2, 1, -2), (-2, 2, -1))), tau(3, 0))
    assert ok == quat_to_rotation(quat((1, 0), (1, 0), (1, 0), (0, 0)))


def test_integral_check_rejects_non_least_denominator():
    with pytest.raises(InvariantViolation, match="least"):
        Rotation3(_integral(((2, 0, 0), (0, 2, 0), (0, 0, 2))), tau(2, 0))
    with pytest.raises(InvariantViolation, match="least"):
        Rotation3(_integral(((3, 6, 6), (6, 3, -6), (-6, 6, -3))), tau(9, 0))


def test_integral_check_rejects_non_canonical_denominator():
    # tau * I / tau is the identity, but tau is not a canonical associate
    with pytest.raises(InvariantViolation, match="canonical"):
        Rotation3(_integral((((0, 1), 0, 0), (0, (0, 1), 0), (0, 0, (0, 1)))),
                                tau(0, 1))
    with pytest.raises(InvariantViolation, match="canonical"):
        Rotation3(_integral(((-1, 0, 0), (0, -1, 0), (0, 0, -1))), tau(-1, 0))


def test_least_denominator_check_matches_prime_by_prime():
    # dens with repeated and mixed primes; entries are multiples of dens, so
    # the entry norms often share a factor with N(den) (split primes of den
    # divide some entries through their conjugate) and the ring gcd decides
    rng = random.Random(54)
    dens = [d for n in (1, 4, 5, 11, 25, 44, 55, 121, 209, 605, 1331)
            for d in norm_equation(TAU, n)]
    outcomes = Counter()
    for d in dens:
        for _ in range(40):
            entries = [tau(rng.randint(-9, 9), rng.randint(-9, 9)) * rng.choice(dens)
                       for _ in range(rng.randint(1, 3))]
            mat = ((entries + [TAU.zero()] * 2)[:3],)
            m = [(e.a, e.b) for e in mat[0]]
            expected = not any(all(not e % pi for e in entries)
                               for pi, _ in prime_factors(d))
            assert cubic._is_least_denominator(mat, m, d) == expected, (entries, d)
            shared = math.gcd(d.norm(), *(e.norm() for e in entries)) != 1
            outcomes[shared, expected] += 1
    assert outcomes[True, True] and outcomes[True, False] and outcomes[False, True]


def test_reflections_keep_negative_determinant():
    reflections = list(signed_permutations(det_sign=-1))
    assert len(reflections) == 24
    assert all(r.det_sign == -1 and r.den == TAU.one() for r in reflections)
    minus = Rotation3(_integral(((-1, 0, 0), (0, -1, 0), (0, 0, -1))), TAU.one())
    assert minus.det_sign == -1 and minus in reflections


def test_den_examples():
    assert den(Rotation3.identity()) == TAU.one()
    assert den(quat_to_rotation(quat((1, 0), (1, 0), (1, 0), (0, 0)))) == tau(3, 0)
    r = quat_to_rotation(quat((0, 1), (1, 0), (0, 0), (0, 0)))
    assert den(r) == tau(2, 1)  # norm-5 element tau + 2
    assert canonical_associate(den(r)) == den(r)


def test_den_times_rotation_integral_and_minimal():
    rng = random.Random(52)
    rotations = enumerate_rotations(5)
    sample = rng.sample(list(rotations), 25)
    for r in sample:
        d = den(r)
        rows = quadrat_rows(r)
        for row in rows:
            for e in row:
                assert not (d * e.num) % e.den
        # no prime of den(R) clears every denominator on its own
        for pi, _ in prime_factors(d):
            assert any((exact_div(d, pi) * e.num) % e.den for row in rows for e in row)


def test_similarity_index_examples():
    ident = Rotation3.identity()
    assert similarity_index(tau(2, 0), ident) == 64
    r3 = quat_to_rotation(quat((1, 0), (1, 0), (1, 0), (0, 0)))
    assert similarity_index(tau(1, 0), r3) == 729
    assert similarity_index(tau(0, 1), ident) == 1
    with pytest.raises(ValueError):
        similarity_index(tau(0, 0), ident)


def test_similarity_index_on_enumerated_rotations():
    # the closed-form index is asserted against the rank-6 integer
    # determinant inside similarity_index on every call
    for r in list(enumerate_rotations(5))[:60]:
        d = den(r)
        for alpha in (TAU.one(), tau(2, 0), tau(0, 1), tau(1, 2)):
            ind = similarity_index(alpha, r)
            assert ind == abs(alpha.norm() ** 3 * d.norm() ** 3)


def test_is_unit_similarity_examples():
    perm = next(signed_permutations(det_sign=1))
    assert is_unit_similarity(tau(0, 1), perm)
    assert not is_unit_similarity(tau(2, 0), Rotation3.identity())
    r3 = quat_to_rotation(quat((1, 0), (1, 0), (1, 0), (0, 0)))
    with pytest.raises(ValueError):
        is_unit_similarity(tau(1, 0), r3)  # does not preserve the module
    assert not is_unit_similarity(tau(3, 0), r3)


def test_signed_permutation_counts():
    assert len(list(signed_permutations())) == 48
    assert len(list(signed_permutations(det_sign=1))) == 24
    assert all(r.is_signed_permutation() for r in signed_permutations())


def test_rotation_counts_small():
    counts = rotation_counts(5)
    assert counts[1] == 24
    assert counts[2] == counts[3] == 0
    assert counts[4] == 192
    assert counts[5] == 144


def test_rotations_with_unit_denominator_are_signed_permutations():
    rots = [r for r in enumerate_rotations(1)]
    assert len(rots) == 24
    assert all(r.is_signed_permutation() and r.det_sign == 1 for r in rots)
    assert set(rots) == set(signed_permutations(det_sign=1))


def test_enumerated_rotations_exactly_orthogonal():
    for r in enumerate_rotations(4):
        ring = TAU
        one = QuadRat(ring.one())
        zero = QuadRat(ring.zero())
        rows = quadrat_rows(r)
        for i in range(3):
            for j in range(3):
                dot = sum((rows[i][k] * rows[j][k] for k in range(3)), zero)
                assert dot == (one if i == j else zero)


def test_verify_rotation_counts_against_phi():
    bound = 16
    phi = catalog.phi_c(bound)
    expected = {m: 24 * phi.a(m) for m in range(1, bound + 1)}
    report = verify_rotation_counts(bound, expected)
    assert report.ok, report.summary()
    fc = catalog.f_cubic(bound ** 3)
    for n in range(1, bound + 1):
        assert count_submodules_3d(n ** 3) == fc.a(n ** 3), n


def test_euler_rodrigues_content_divides_4():
    four = tau(4, 0)
    for n in range(1, 10):
        for d in norm_equation(TAU, n):
            for g in (1, 2, 4):
                s = d * g
                for q in cubic._primitive_quaternions(s):
                    assert QuatTau(q).norm_sq() == s
                    content = s
                    for row in euler_rodrigues_by_quadint(*q):
                        for e in row:
                            content = gcd(content, e)
                    assert content in (TAU.one(), tau(2, 0), four)


def test_primitive_quaternions_match_brute_force():
    # s with square factors, where non-primitive q = pi q' exist
    for s in (tau(4, 0), tau(8, 0), tau(9, 0), tau(8, 4)):
        squares = {x: x * x for x, *_ in cubic._components(s)}
        expected = set()
        for q in itertools.product(squares, repeat=4):
            if (sum(squares[c].a for c in q) == s.a
                    and sum(squares[c].b for c in q) == s.b
                    and sign_embedding(next(c for c in q if c)) > 0
                    and cubic._content(q) == TAU.one()):
                expected.add(q)
        got = cubic._primitive_quaternions(s)
        assert len(got) == len(set(got)) and set(got) == expected, s


def test_integral_route_matches_quadrat_route():
    # every primitive q with |q|^2 = g d, content any of 1, 2, 4, N(d) <= 9
    seen = 0
    for n in range(1, 10):
        for d in norm_equation(TAU, n):
            for g in (1, 2, 4):
                for q in cubic._primitive_quaternions(d * g):
                    rows = rows_by_quadrat(q)
                    rot = quat_to_rotation(QuatTau(q))
                    assert key_by_quadrat(quadrat_rows(rot)) == key_by_quadrat(rows)
                    assert rot.den == den(rot) == den_by_quadrat(rows)
                    via_rows = rotation_by_quadrat(rows)
                    assert via_rows == rot and via_rows.den == rot.den
                    seen += 1
    assert seen > 600
    # |q|^2 = tau^2 is not a canonical associate; the unit moves into mat
    r = quat_to_rotation(quat((0, 1), (0, 0), (0, 0), (0, 0)))
    assert r == Rotation3.identity() and r.den == TAU.one()
    q = (tau(0, 1), tau(1, 1), tau(0, 0), tau(0, 0))
    r = quat_to_rotation(QuatTau(q))
    assert key_by_quadrat(quadrat_rows(r)) == key_by_quadrat(rows_by_quadrat(q))
    assert r.den == den_by_quadrat(rows_by_quadrat(q))


def _drawn_rotation(data):
    # an enumerated rotation, or its product with -I (determinant -1)
    r = data.draw(st.sampled_from(enumerate_rotations(9)))
    if data.draw(st.booleans()):
        r = Rotation3(tuple(tuple(-e for e in row) for row in r.mat), r.den)
    return r


@settings(deadline=None)
@given(st.data())
def test_matmul_matches_quadrat_product(data):
    r1, r2, r3 = (_drawn_rotation(data) for _ in range(3))
    r12 = r1 @ r2
    reference = product_by_quadrat(r1, r2)
    assert key_by_quadrat(quadrat_rows(r12)) == key_by_quadrat(reference)
    assert r12.den == den_by_quadrat(reference)
    assert r12 @ r3 == r1 @ (r2 @ r3)
    transpose = Rotation3(tuple(zip(*r1.mat)), r1.den)
    assert r1 @ transpose == Rotation3.identity() == transpose @ r1
    assert r12.det_sign == r1.det_sign * r2.det_sign


@settings(deadline=None)
@given(st.data())
def test_equality_and_hash_match_quadrat_rows(data):
    # (den, mat) is the key: two rotations are equal, and hash alike,
    # exactly when their entries agree in lowest terms
    r1, r2 = _drawn_rotation(data), _drawn_rotation(data)
    if data.draw(st.booleans()):
        r2 = Rotation3(r1.mat, r1.den)
    same = quadrat_rows(r1) == quadrat_rows(r2)
    assert (r1 == r2) == same == (r1.key() == r2.key())
    if same:
        assert hash(r1) == hash(r2)


def test_rotation_counts_agree_across_bounds():
    full = rotation_counts(9)
    rotations = enumerate_rotations(9)
    for b in range(1, 9):
        counts = rotation_counts(b)
        assert counts == {n: full[n] for n in range(1, b + 1)}
        prefix = enumerate_rotations(b)
        assert prefix == rotations[:len(prefix)]
        by_den = Counter(abs(den(r).norm()) for r in prefix)
        assert by_den == {n: c for n, c in counts.items() if c}


def test_duplicate_rotation_raises(monkeypatch):
    plain = cubic._primitive_quaternions

    def with_negatives(s):
        qs = plain(s)
        return qs + [tuple(-c for c in q) for q in qs]

    monkeypatch.setattr(cubic, "_primitive_quaternions", with_negatives)
    with pytest.raises(InvariantViolation):
        cubic._rotations_of_norm(1)


def _no_enumeration(n):
    raise AssertionError(f"norm {n} enumerated again")


def test_norm_cache_serves_smaller_bounds(monkeypatch):
    full = rotation_counts(9)
    monkeypatch.setattr(cubic, "_rotations_of_norm", _no_enumeration)
    assert rotation_counts(4) == {n: full[n] for n in range(1, 5)}
    assert count_submodules_3d(64) == 9


def test_norm_cache_shared_across_threads(monkeypatch):
    monkeypatch.setattr(cubic, "_norm_cache", {})
    calls = Counter()
    plain = cubic._rotations_of_norm

    def counted(n):
        calls[n] += 1
        return plain(n)

    monkeypatch.setattr(cubic, "_rotations_of_norm", counted)
    results = [None] * 4

    def work(k):
        results[k] = rotation_counts(5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [{1: 24, 2: 0, 3: 0, 4: 192, 5: 144}] * 4
    assert calls == {n: 1 for n in range(1, 6)}


def test_enumeration_budget_refuses_before_enumerating(monkeypatch):
    monkeypatch.setattr(cubic, "_norm_cache", {})
    monkeypatch.setattr(cubic, "_rotations_of_norm", _no_enumeration)
    with pytest.raises(EnumerationBudgetExceeded):
        rotation_counts(10 ** 6)
    with pytest.raises(EnumerationBudgetExceeded):
        count_submodules_3d(1000 ** 3)
    assert cubic._norm_cache == {}


def test_invariant_violation_is_raised(monkeypatch):
    monkeypatch.setattr(cubic, "_int_det", lambda mat: 0)
    with pytest.raises(InvariantViolation):
        similarity_index(tau(2, 0), Rotation3.identity())


def test_invariant_violation_survives_optimize():
    script = ("from simsub import cubic\n"
              "cubic._int_det = lambda mat: 0\n"
              "try:\n"
              "    cubic.similarity_index(cubic.TAU.one(), cubic.Rotation3.identity())\n"
              "except cubic.InvariantViolation:\n"
              "    print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_count_submodules_3d_examples():
    assert count_submodules_3d(1) == 1
    assert count_submodules_3d(64) == 9
    assert count_submodules_3d(125) == 7
    for m in (10, 0, -8):
        with pytest.raises(ValueError):
            count_submodules_3d(m)
    for bound in (0, -3):
        with pytest.raises(ValueError):
            rotation_counts(bound)


def test_hnf_over_ztau_examples():
    e = [(tau(1, 0), tau(0, 0), tau(0, 0)),
         (tau(0, 0), tau(1, 0), tau(0, 0)),
         (tau(0, 0), tau(0, 0), tau(1, 0))]
    ident = hnf_over_ztau(e)
    assert ident.index == 1
    assert ident.basis[0][0] == tau(1, 0)

    scaled = [tuple(tau(0, 1) * v for v in col) for col in e]
    assert hnf_over_ztau(scaled).basis == ident.basis

    doubled = [tuple(tau(2, 0) * v for v in col) for col in e] + e
    assert hnf_over_ztau(doubled).basis == ident.basis

    with pytest.raises(ValueError):
        hnf_over_ztau(e[:2])
    with pytest.raises(ValueError):
        hnf_over_ztau([])


def test_hnf_over_ztau_unit_scaling_invariance():
    rng = random.Random(53)
    for _ in range(30):
        cols = [tuple(tau(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3))
                for _ in range(3)]
        try:
            base = hnf_over_ztau(cols)
        except ValueError:
            continue
        unit = tau(0, 1) ** rng.randrange(3)
        if rng.random() < 0.5:
            unit = -unit
        scaled = [tuple(unit * v for v in col) for col in cols]
        assert hnf_over_ztau(scaled).basis == base.basis
        assert base.ambient is Ambient.Z_TAU3_AS_ZTAU_MODULE


def _z6_image(columns):
    """Columns x and tau*x of each Z[tau] 3-vector, over the Z-basis (1, tau)."""
    return [[v for e in col for v in (e.a, e.b)]
            for x in columns for col in (x, tuple(tau(0, 1) * e for e in x))]


@settings(deadline=None)
@given(st.data())
def test_hnf_over_ztau_spans_the_module_and_is_canonical(data):
    part = st.integers(-6, 6)
    n = data.draw(st.integers(3, 5))
    gens = [tuple(tau(data.draw(part), data.draw(part)) for _ in range(3))
            for _ in range(n)]
    try:
        sub = hnf_over_ztau(gens)
    except ValueError:
        assume(False)
    basis_cols = [tuple(sub.basis[i][j] for i in range(3)) for j in range(3)]
    assert hnf_canonical(_z6_image(gens)) == hnf_canonical(_z6_image(basis_cols))
    # unimodular column operations over Z[tau] keep the module and its HNF
    cols = [list(c) for c in gens]
    for _ in range(data.draw(st.integers(1, 6))):
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if a != b:
            k = tau(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
            cols[a] = [x + k * y for x, y in zip(cols[a], cols[b])]
        unit = tau(0, 1) ** data.draw(st.integers(0, 2)) * data.draw(st.sampled_from((1, -1)))
        cols[b] = [unit * x for x in cols[b]]
        cols[a], cols[b] = cols[b], cols[a]
    assert hnf_over_ztau(cols).basis == sub.basis


def test_submodule_rule_over_ztau3():
    one, zero, two = tau(1, 0), tau(0, 0), tau(2, 0)

    def sub(*rows):
        return Submodule(Ambient.Z_TAU3_AS_ZTAU_MODULE, rows)

    assert sub((two, tau(-1, -1), zero), (zero, one, zero), (zero, zero, one)).index == 4
    for d in (tau(0, 1), tau(-1, 0)):  # tau and -1 are not canonical associates
        with pytest.raises(ValueError):
            sub((d, zero, zero), (zero, one, zero), (zero, zero, one))
    with pytest.raises(ValueError):  # nonzero entry below the diagonal
        sub((one, zero, zero), (tau(0, 1), one, zero), (zero, zero, one))
    with pytest.raises(ValueError):  # nearest quotient of 1 by 2 rounds to 1
        sub((two, one, zero), (zero, one, zero), (zero, zero, one))


def test_affine_composition():
    f = identity_affine()
    zero = TAU.zero()
    one = TAU.one()
    v = (one, tau(0, 1), zero)
    g = AffineSimilarity(one, Rotation3.identity(), v)
    assert compose_affine(g, f).translation == v
    assert compose_affine(f, g).translation == v

    w = (tau(2, 0), zero, one)
    h = AffineSimilarity(one, Rotation3.identity(), w)
    both = compose_affine(g, h)
    assert both.translation == tuple(a + b for a, b in zip(v, w))

    double = AffineSimilarity(tau(2, 0), Rotation3.identity(), (zero, zero, zero))
    composed = compose_affine(double, g)
    assert composed.scale == tau(2, 0)
    assert composed.translation == tuple(tau(2, 0) * x for x in v)


def test_affine_requires_module_preservation():
    r3 = quat_to_rotation(quat((1, 0), (1, 0), (1, 0), (0, 0)))
    zero = TAU.zero()
    with pytest.raises(ValueError):
        AffineSimilarity(TAU.one(), r3, (zero, zero, zero))
    ok = AffineSimilarity(tau(3, 0), r3, (zero, zero, zero))
    image = ok.apply((TAU.one(), zero, zero))
    assert all(isinstance(x, QuadInt) for x in image)


def test_alpha_integral_implies_denominator_divides():
    # any scale clearing all denominators of R is a multiple of den(R)
    for r in list(enumerate_rotations(5))[:40]:
        d = den(r)
        for row in quadrat_rows(r):
            for e in row:
                assert not (d * e.num) % e.den
        if not d.is_unit():
            with pytest.raises(ValueError):
                AffineSimilarity(TAU.one(), r,
                                 (TAU.zero(), TAU.zero(), TAU.zero()))
