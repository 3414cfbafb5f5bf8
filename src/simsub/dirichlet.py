"""Coefficient tables of Dirichlet series over exact integers.

A CoeffSeries holds a(1..N) for a fixed limit N.  All binary operations
insist on equal limits so that truncation mismatches cannot pass
silently, and no floating point is used anywhere.

A CoeffSeries is kept as its terms: the support, the increasing indices
m with a(m) != 0, and the values a(m) there; the constructor checks them
exactly.  nonzero(), summatory and the catalog read only the terms.  The
dense table is built on its first read (a(m), convolution, inversion,
the multiplicativity check) and kept; from_coeffs builds a series from a
dense table by one scan.

expand_euler builds a multiplicative series from its local factors,
given as an EulerRule: a modulus M, one ClassFactor per residue class mod
M, and the exceptional primes with their own factor.  A ClassFactor
states the t^k coefficients as integer polynomials in p, so one object
gives the factor at every prime of its class.  expand_euler writes only
the nonzero coefficients and returns them with their support; its
docstring has the two phases and their cost.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import cached_property
from itertools import compress, islice, takewhile, zip_longest
from operator import lt
from typing import Iterable, Iterator, Mapping

from .frozen import Frozen

Poly = tuple[int, ...]  # integer polynomial in p, constant term first; () is 0


def _sieve(n: int) -> bytearray:
    """Byte k is 1 exactly when k is prime, for 0 <= k <= n (n >= 1)."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = bytearray(len(range(start, n + 1, p)))
    return sieve


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    # compress makes one int per index it passes, so it skips the even ones
    return [2, *compress(range(3, n + 1, 2), _sieve(n)[3::2])]


def divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def icbrt(n: int) -> int:
    """Largest r with r^3 <= n, for n >= 0; ValueError for n < 0.

    Integer Newton steps r -> (2r + n // r^2) // 3 start from
    2^ceil(bits/3) > cbrt(n).  By AM-GM no step goes below floor(cbrt(n)),
    and while r^3 > n each step strictly lowers r, so the loop stops at
    r = floor(cbrt(n)).
    """
    if n < 0:
        raise ValueError(f"icbrt needs n >= 0, got {n}")
    r = 1 << -(-n.bit_length() // 3)
    while r ** 3 > n:
        r = (2 * r + n // (r * r)) // 3
    return r


class CoeffSeries(Frozen):
    """Exact coefficients a(1..limit) of a Dirichlet series, kept as its terms.

    support is the increasing tuple of the indices m with a(m) != 0, and
    values holds a(m) at each of them, in the same order.  The constructor
    checks the terms exactly and raises ValueError on a mismatch.  The
    dense table coeffs is built from the terms the first time it is read,
    and kept; threads that race on that first read all get equal tables.
    from_coeffs builds a series from a dense table instead.
    """

    # __dict__ holds coeffs once it is read
    __slots__ = ("limit", "support", "values", "__dict__")

    def __init__(self, limit: int, support: Iterable[int], values: Iterable[int]) -> None:
        support, values = tuple(support), tuple(values)
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if len(support) != len(values):
            raise ValueError("support and values differ in length")
        if not all(map(lt, support, islice(support, 1, None))):
            raise ValueError("support is not strictly increasing")
        if support and not (support[0] >= 1 and support[-1] <= limit):
            raise ValueError(f"support index outside 1..{limit}")
        if not all(values):
            raise ValueError("values hold a zero coefficient")
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.limit, self.support, self.values)
                == (other.limit, other.support, other.values))

    def __hash__(self) -> int:
        return hash((self.limit, self.support, self.values))

    @classmethod
    def from_coeffs(cls, limit: int, coeffs: Iterable[int]) -> CoeffSeries:
        """The series with the dense table coeffs; its terms come from one scan."""
        coeffs = tuple(coeffs)
        if len(coeffs) != limit:
            raise ValueError("coefficient table length must equal the limit")
        series = cls(limit, tuple(compress(range(1, limit + 1), coeffs)),
                     tuple(filter(None, coeffs)))
        series.__dict__["coeffs"] = coeffs
        return series

    @cached_property
    def coeffs(self) -> tuple[int, ...]:
        table = [0] * self.limit
        for m, c in zip(self.support, self.values):
            table[m - 1] = c
        return tuple(table)

    def a(self, m: int) -> int:
        if not 1 <= m <= self.limit:
            raise IndexError(f"index {m} outside 1..{self.limit}")
        return self.coeffs[m - 1]

    __getitem__ = a

    def nonzero(self) -> Iterator[tuple[int, int]]:
        """(m, a(m)) for every a(m) != 0, in increasing m."""
        return zip(self.support, self.values)

    def __repr__(self) -> str:
        first = dict(zip(self.support[:8], self.values))  # no dense table
        head = ", ".join(str(first.get(m, 0)) for m in range(1, min(self.limit, 8) + 1))
        tail = ", ..." if self.limit > 8 else ""
        return f"CoeffSeries(N={self.limit}: {head}{tail})"


def epsilon(limit: int) -> CoeffSeries:
    """The identity under Dirichlet convolution: indicator of m = 1."""
    return CoeffSeries(limit, (1,), (1,))


class EulerFactor(Frozen):
    """Local factor num(t)/den(t) at a prime, t the formal p^(-s).

    den must have constant term 1 so the ratio expands as an integer
    power series.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: tuple[int, ...] = (1,)) -> None:
        if not den or den[0] != 1:
            raise ValueError("local factor is not expandable: "
                             "denominator constant term must be 1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"EulerFactor(num={self.num!r}, den={self.den!r})"

    def expand(self, n_terms: int) -> list[int]:
        """First n_terms coefficients of num/den by long division."""
        out = []
        for k in range(n_terms):
            c = self.num[k] if k < len(self.num) else 0
            for j in range(1, min(k, len(self.den) - 1) + 1):
                c -= self.den[j] * out[k - j]
            out.append(c)
        return out

    def __mul__(self, other: EulerFactor) -> EulerFactor:
        """Product of two local factors at the same prime."""
        return EulerFactor(_poly_mul(self.num, other.num),
                           _poly_mul(self.den, other.den))


def _poly_mul(a: tuple, b: tuple, mul=operator.mul, add=operator.add, zero=0) -> tuple:
    """Cauchy product of two coefficient tuples; mul, add and zero default
    to those of the integers and may be those of the polynomials in p."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return tuple(out)


def _poly(c: int | Iterable[int]) -> Poly:
    """An int, or integer coefficients from the constant term up, as a Poly
    without trailing zeros."""
    poly = (c,) if isinstance(c, int) else tuple(c)
    end = len(poly)
    while end and not poly[end - 1]:
        end -= 1
    return poly[:end]


def _poly_add(a: Poly, b: Poly) -> Poly:
    return _poly(map(sum, zip_longest(a, b, fillvalue=0)))


def _poly_at(poly: Poly, p: int) -> int:
    value = 0
    for c in reversed(poly):
        value = value * p + c
    return value


class ClassFactor(Frozen):
    """The local factor num(t)/den(t) at every prime p of one class, each
    t^k coefficient an integer polynomial in p.

    A coefficient is an int or a tuple of ints from the constant term up:
    den = (1, (0, -2), (0, 0, 1)) is 1 - 2p t + p^2 t^2, that is (1 - pt)^2.
    Called at p, it gives the EulerFactor at p.  Its t^1 coefficient
    c1 = num[1] - den[1] num[0] is one polynomial, kept at construction, so
    linear_terms reads c1 at many primes and builds no factor at any.
    """

    __slots__ = ("num", "den", "_c1")

    def __init__(self, num: tuple[int | Poly, ...], den: tuple[int | Poly, ...] = (1,)) -> None:
        num, den = tuple(map(_poly, num)), tuple(map(_poly, den))
        if not den or den[0] != (1,):
            raise ValueError("local factor is not expandable: "
                             "denominator constant term must be 1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        n0, n1 = (num + ((), ()))[:2]  # the t^0 and t^1 coefficients, 0 if absent
        d1 = den[1] if len(den) > 1 else ()
        object.__setattr__(self, "_c1", _poly_add(n1, _poly_mul(d1, tuple(-c for c in n0))))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"ClassFactor(num={self.num!r}, den={self.den!r})"

    def __call__(self, p: int) -> EulerFactor:
        return EulerFactor(tuple(_poly_at(c, p) for c in self.num),
                           tuple(_poly_at(c, p) for c in self.den))

    def __mul__(self, other: ClassFactor) -> ClassFactor:
        """The factor of the product at every prime of both classes."""
        return ClassFactor(_poly_mul(self.num, other.num, _poly_mul, _poly_add, ()),
                           _poly_mul(self.den, other.den, _poly_mul, _poly_add, ()))

    def linear_terms(self, primes: Iterable[int]) -> tuple[list[int], list[int]]:
        """The given primes where c1 is nonzero, in their order, and c1 there.

        When c1 is the zero polynomial, primes is not read.  Otherwise c1 is
        evaluated by Horner's rule one degree at a time across all the
        primes, with no call per prime.
        """
        c1 = self._c1
        if not c1:
            return [], []
        primes = list(primes)
        values = [c1[-1]] * len(primes)
        for c in reversed(c1[:-1]):
            values = [v * p + c for v, p in zip(values, primes)]
        if 0 in values:
            return list(compress(primes, values)), [v for v in values if v]
        return primes, values


class EulerRule(Frozen):
    """Local factors by residue class: classes[p % modulus] at a prime p,
    unless p is one of the exceptional primes, which have their own factor.

    Called at p, it gives the EulerFactor at p, so a rule is a local factor
    function wherever one is taken.  An exceptional key that is not prime
    is never read.  exceptional defaults to a new empty dict.
    """

    __slots__ = ("modulus", "classes", "exceptional")

    def __init__(self, modulus: int, classes: tuple[ClassFactor, ...],
                 exceptional: Mapping[int, ClassFactor] | None = None) -> None:
        if modulus < 1 or len(classes) != modulus:
            raise ValueError("a rule needs one class per residue mod its modulus")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "exceptional", {} if exceptional is None else exceptional)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.modulus, self.classes, self.exceptional)
                == (other.modulus, other.classes, other.exceptional))

    def __hash__(self) -> int:
        # raises TypeError while exceptional is a dict
        return hash((self.modulus, self.classes, self.exceptional))

    def __repr__(self) -> str:
        return (f"EulerRule(modulus={self.modulus!r}, classes={self.classes!r}, "
                f"exceptional={self.exceptional!r})")

    def class_of(self, p: int) -> ClassFactor:
        return self.exceptional.get(p, self.classes[p % self.modulus])

    def __call__(self, p: int) -> EulerFactor:
        return self.class_of(p)(p)

    def __mul__(self, other: EulerRule) -> EulerRule:
        """The rule of the product series: class by class over the lcm of
        the moduli, and at every prime exceptional in either rule."""
        modulus = math.lcm(self.modulus, other.modulus)
        return EulerRule(
            modulus,
            tuple(self.classes[r % self.modulus] * other.classes[r % other.modulus]
                  for r in range(modulus)),
            {p: self.class_of(p) * other.class_of(p)
             for p in self.exceptional.keys() | other.exceptional.keys()})


def expand_euler(rule: EulerRule, limit: int) -> CoeffSeries:
    """Multiplicative series from the local factors of an EulerRule.

    a(m) is the product over p^e || m of the t^e coefficient of the local
    expansion at p.  The table is built in two phases along its support,
    the sorted nonzero indices, which stays exact because a product of
    nonzero integers is nonzero.

    Phase 1 takes the primes p <= isqrt(limit) in increasing order.
    Before prime p, every nonzero entry sits at an index whose prime
    factors are all below p; each such index m <= limit // p (found by
    bisection in the support) is extended to m * p^e for every e >= 1
    with a nonzero t^e coefficient and m * p^e <= limit.  Every index
    n > 1 is m * p^e for exactly one such m, with p its largest prime
    factor, so each nonzero a(n) is written once.  The new indices are
    merged into the support, which keeps only indices up to limit // p:
    no later prime reads past that.

    Phase 2 takes the primes p with p^2 > limit, in groups: each
    exceptional prime of the rule on its own, then, for each residue r
    mod the modulus M, the other primes p = r mod M, read from the sieve
    as compress(range(start, limit + 1, M), sieve[start::M]) from the
    first start > isqrt(limit) in the class.  The sieve bytes of the
    exceptional primes are cleared first, so every prime falls in exactly
    one group, and its local factor is the one that group states.  Only
    the t^1 coefficient c1 of that factor can be read, and each group
    gives its primes with c1 != 0, increasing, and c1 at each; a class
    evaluates its c1 polynomial across all its primes at once, and lists
    none when c1 is 0.  Then a(m * p) = a(m) * c1 is written for each
    support index m <= isqrt(limit) and each such prime p <= limit // m.
    This is exact: m <= limit / p < p, so a(m) is already final and p
    divides m * p exactly once; m * p > isqrt(limit), so no phase-2 write
    is ever read; and two writes never meet, since m * p determines p as
    its largest prime factor, and p its group.

    Every index written in either phase is recorded once; sorted, those
    indices and 1 are the support of the returned series, and the
    scratch table is read only there, for its values.

    Beside the prime sieve and the allocation of the scratch table, the
    cost is one local factor per prime up to isqrt(limit), one
    expansion per distinct phase-1 factor, one c1 polynomial per class
    (evaluated without a call per prime), and one write per nonzero
    coefficient (with a sort of the support prefix per phase-1 prime, and
    one sort of the recorded indices); nothing scans the table, and the
    constructor checks the terms alone.
    No local factor is asked for at a prime above isqrt(limit).
    """
    if not isinstance(rule, EulerRule):
        raise TypeError(f"expand_euler needs an EulerRule, not {type(rule).__name__}")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    coeffs = [0] * (limit + 1)
    coeffs[1] = 1
    support = [1]
    written = [1]
    root = math.isqrt(limit)
    sieve = _sieve(limit)
    expansions: dict[tuple, list[tuple[int, int]]] = {}
    for p in compress(range(root + 1), sieve[:root + 1]):
        factor = rule(p)
        e_max = 0
        q = p
        while q <= limit:
            e_max += 1
            q *= p
        key = (factor.num, factor.den, e_max)
        terms = expansions.get(key)
        if terms is None:
            terms = [(e, c) for e, c in enumerate(factor.expand(e_max + 1)) if e and c]
            expansions[key] = terms
        if not terms:
            continue
        powers = [(p ** e, c) for e, c in terms]
        top = limit // p
        support = support[:bisect_right(support, top)]
        found = []
        for m in support:
            a = coeffs[m]
            for p_e, c in powers:
                n = m * p_e
                if n > limit:
                    break
                coeffs[n] = a * c
                written.append(n)
                if n <= top:
                    found.append(n)
        support += found
        support.sort()
    groups = []
    for p, cls in rule.exceptional.items():
        if root < p <= limit and sieve[p]:
            sieve[p] = 0
            groups.append(cls.linear_terms((p,)))
    modulus = rule.modulus
    for r, cls in enumerate(rule.classes):
        start = root + 1 + (r - root - 1) % modulus
        groups.append(cls.linear_terms(
            compress(range(start, limit + 1, modulus), sieve[start::modulus])))
    small = support[:bisect_right(support, root)]
    for primes, c1s in groups:
        for m in small:
            k = bisect_right(primes, limit // m)
            if not k:
                break
            a = coeffs[m]
            for p, c1 in zip(primes[:k], c1s):
                n = m * p
                coeffs[n] = a * c1
                written.append(n)
    written.sort()
    return CoeffSeries(limit, tuple(written), tuple(map(coeffs.__getitem__, written)))


def _require_same_limit(a: CoeffSeries, b: CoeffSeries) -> int:
    if a.limit != b.limit:
        raise ValueError(f"limit mismatch: {a.limit} != {b.limit}")
    return a.limit


def convolve(a: CoeffSeries, b: CoeffSeries) -> CoeffSeries:
    """Dirichlet convolution c(m) = sum over d|m of a(d) b(m/d)."""
    n = _require_same_limit(a, b)
    ca, cb = a.coeffs, b.coeffs
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        ad = ca[d - 1]
        if not ad:
            continue
        for q in range(1, n // d + 1):
            bq = cb[q - 1]
            if bq:
                out[d * q] += ad * bq
    return CoeffSeries.from_coeffs(n, out[1:])


def dirichlet_inverse(a: CoeffSeries) -> CoeffSeries:
    """Two-sided inverse under convolution; needs a(1) = 1."""
    if a.coeffs[0] != 1:
        raise ValueError("series is not invertible: a(1) must be 1")
    n = a.limit
    ca = a.coeffs
    divs = [[] for _ in range(n + 1)]
    for d in range(2, n + 1):
        for m in range(d, n + 1, d):
            divs[m].append(d)
    inv = [0] * (n + 1)
    inv[1] = 1
    for m in range(2, n + 1):
        s = 0
        for d in divs[m]:
            s += ca[d - 1] * inv[m // d]
        inv[m] = -s
    return CoeffSeries.from_coeffs(n, inv[1:])


def scale_argument(a: CoeffSeries, k: int) -> CoeffSeries:
    """Substitute s -> k*s: coefficient a(r) moves to index r^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return a
    support = tuple(takewhile(a.limit.__ge__, (r ** k for r in a.support)))
    return CoeffSeries(a.limit, support, a.values[:len(support)])


def shift(a: CoeffSeries, k: int) -> CoeffSeries:
    """Substitute s -> s - k: coefficient a(m) becomes m^k a(m)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return a
    return CoeffSeries(a.limit, a.support, tuple(m ** k * c for m, c in a.nonzero()))


def dirichlet_polynomial(terms: Mapping[int, int], limit: int) -> CoeffSeries:
    """Finite Dirichlet polynomial sum of c / m^s over the given terms {m: c}.

    Every index must lie in 1..limit.  A term with c = 0 is dropped, so the
    support is the sorted indices of the nonzero terms.
    """
    for m in terms:
        if not 1 <= m <= limit:
            raise ValueError(f"term index {m} outside 1..{limit}")
    support = tuple(sorted(m for m, c in terms.items() if c))
    return CoeffSeries(limit, support, tuple(terms[m] for m in support))


def summatory(a: CoeffSeries, x: int) -> int:
    """Partial sum of coefficients up to x, over the terms with m <= x."""
    if not 1 <= x <= a.limit:
        raise ValueError(f"summatory point {x} outside 1..{a.limit}")
    return sum(a.values[:bisect_right(a.support, x)])


def check_multiplicative(a: CoeffSeries) -> bool:
    """True iff a(1) = 1 and a(mn) = a(m) a(n) for all coprime m, n <= N."""
    if a.coeffs[0] != 1:
        return False
    n = a.limit
    c = a.coeffs
    for m in range(2, n + 1):
        for k in range(2, n // m + 1):
            if math.gcd(m, k) == 1 and c[m * k - 1] != c[m - 1] * c[k - 1]:
                return False
    return True
