"""Exact arithmetic in the real quadratic rings Z[tau] and Z[sqrt(2)].

Elements are integer pairs a + b*w where w satisfies w^2 = c1*w + c0,
with (c1, c0) = (1, 1) for the golden ratio tau and (0, 2) for sqrt(2).
Everything is exact: comparisons of real embeddings go through integer
sign tests, never through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .errors import InvariantViolation


class QuadRing:
    """One of the two supported real quadratic rings.

    Only the golden-ratio ring (c1=1, c0=1) and the root-two ring
    (c1=0, c0=2) are constructible; both are norm-Euclidean, which the
    gcd below relies on.
    """

    _ALLOWED = {(1, 1): "tau", (0, 2): "sqrt2"}

    __slots__ = ("c1", "c0", "name", "omega_float", "omega_conj_float", "_fund", "_window")

    def __init__(self, c1: int, c0: int) -> None:
        try:
            self.name = self._ALLOWED[(c1, c0)]
        except KeyError:
            raise ValueError(f"unsupported quadratic ring: w^2 = {c1}*w + {c0}")
        self.c1 = c1
        self.c0 = c0
        # the larger and smaller root of x^2 = c1*x + c0, as floats
        self.omega_float = (c1 + math.sqrt(self.discriminant)) / 2.0
        self.omega_conj_float = (c1 - math.sqrt(self.discriminant)) / 2.0
        fund = QuadInt(0, 1, self) if self.name == "tau" else QuadInt(1, 1, self)
        self._fund = fund
        # (d, e) with d*a + e*b the w-coefficient of (a + b w) * fund^-2
        inv_sq = unit_inverse(fund * fund)
        self._window = (inv_sq.b, inv_sq.a + c1 * inv_sq.b)

    @property
    def discriminant(self) -> int:
        return self.c1 * self.c1 + 4 * self.c0

    @property
    def fundamental_unit(self) -> QuadInt:
        return self._fund

    def zero(self) -> QuadInt:
        return QuadInt(0, 0, self)

    def one(self) -> QuadInt:
        return QuadInt(1, 0, self)

    def omega(self) -> QuadInt:
        return QuadInt(0, 1, self)

    def from_int(self, n: int) -> QuadInt:
        return QuadInt(n, 0, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuadRing) and (self.c1, self.c0) == (other.c1, other.c0)

    def __hash__(self) -> int:
        return hash((self.c1, self.c0))

    def __repr__(self) -> str:
        return f"QuadRing({self.name})"


def _round_half_up(num: int, den: int) -> int:
    """floor(num/den + 1/2) for den > 0; deterministic at ties."""
    return (2 * num + den) // (2 * den)


def _pair_divmod(x: tuple[int, int], y: tuple[int, int], c1: int, c0: int):
    """Nearest-quotient division of two (a, b) pairs, y != 0, w^2 = c1 w + c0.

    Returns the pairs (q, r) with x = q y + r: q rounds each coordinate of
    x conj(y) / N(y) by _round_half_up, with the sign of N(y) moved to the
    numerator, so |N(r)| < |N(y)| in both rings.
    """
    (xa, xb), (ya, yb) = x, y
    ca = ya + c1 * yb  # conj(y) = ca - yb w
    t = -xb * yb
    na = xa * ca + c0 * t
    nb = xb * ca - xa * yb + c1 * t
    nd = ya * ya + c1 * ya * yb - c0 * yb * yb
    if nd < 0:
        na, nb, nd = -na, -nb, -nd
    qa = _round_half_up(na, nd)
    qb = _round_half_up(nb, nd)
    t = qb * yb
    return (qa, qb), (xa - qa * ya - c0 * t, xb - qa * yb - qb * ya - c1 * t)


def _int_text(n: int) -> str:
    """str(n), or n by its bit length past Python's int-to-str digit limit,
    so that the messages built from it never raise in its place."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' * (n < 0)}<{n.bit_length()}-bit int>"


@dataclass(frozen=True)
class QuadInt:
    """a + b*w in a QuadRing, exact."""

    a: int
    b: int
    ring: QuadRing

    def _coerce(self, other):
        if isinstance(other, int):
            return QuadInt(other, 0, self.ring)
        if isinstance(other, QuadInt):
            if other.ring != self.ring:
                raise ValueError("mixed-ring operands")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.a + o.a, self.b + o.b, self.ring)

    __radd__ = __add__

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.ring)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.a - o.a, self.b - o.b, self.ring)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b w)(c + d w) with w^2 = c1 w + c0
        a, b, c, d = self.a, self.b, o.a, o.b
        return QuadInt(a * c + self.ring.c0 * b * d,
                       a * d + b * c + self.ring.c1 * b * d,
                       self.ring)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return unit_inverse(self) ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Nearest-quotient division; |norm(remainder)| < |norm(divisor)|."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError("division by zero in quadratic ring")
        ring = self.ring
        (qa, qb), (ra, rb) = _pair_divmod((self.a, self.b), (o.a, o.b), ring.c1, ring.c0)
        return QuadInt(qa, qb, ring), QuadInt(ra, rb, ring)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def norm(self) -> int:
        a, b = self.a, self.b
        return a * a + self.ring.c1 * a * b - self.ring.c0 * b * b

    def conj(self) -> QuadInt:
        return QuadInt(self.a + self.ring.c1 * self.b, -self.b, self.ring)

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def embedding_float(self) -> float:
        return self.a + self.b * self.ring.omega_float

    def conj_embedding_float(self) -> float:
        return self.a + self.b * self.ring.omega_conj_float

    def __repr__(self) -> str:
        w = "tau" if self.ring.name == "tau" else "sqrt2"
        return f"({_int_text(self.a)}{'+' * (self.b >= 0)}{_int_text(self.b)}*{w})"


def is_unit(x: QuadInt) -> bool:
    return x.is_unit()


def unit_inverse(u: QuadInt) -> QuadInt:
    """Inverse of a unit: conj(u)/norm(u) with norm(u) = +-1."""
    n = u.norm()
    if abs(n) != 1:
        raise ValueError(f"not a unit: {u!r}")
    c = u.conj()
    return c if n == 1 else -c


def sign_embedding(x: QuadInt) -> int:
    """Sign of the real embedding a + b*w (w the positive root), exactly."""
    return pair_sign((x.a, x.b), x.ring.c1, x.ring.c0)


def pair_sign(x: tuple[int, int], c1: int, c0: int) -> int:
    """Sign of the real embedding of an (a, b) pair, w^2 = c1 w + c0, exactly.

    Writes 2(a + b w) = s + b*sqrt(D) with s = 2a + b*c1 and compares
    s^2 against D*b^2; D is a non-square so ties cannot occur.
    """
    a, b = x
    s = 2 * a + b * c1
    if b == 0:
        return (s > 0) - (s < 0)
    if s == 0:
        return 1 if b > 0 else -1
    if s > 0 and b > 0:
        return 1
    if s < 0 and b < 0:
        return -1
    d = s * s - (c1 * c1 + 4 * c0) * b * b
    if d == 0:
        raise InvariantViolation("non-square discriminant cannot give a tie")
    if s > 0:  # b < 0
        return 1 if d > 0 else -1
    return -1 if d > 0 else 1


def _window_side(x: QuadInt) -> int:
    """Where the embedding ratio r = emb(x)/emb'(x) of a totally positive x
    lies against the window [1, fund^4): -1 below, 0 inside, 1 at or above.

    emb(x) - emb'(x) = b*sqrt(D), so r >= 1 iff b >= 0; and r >= fund^4 iff
    x * fund^-2, whose ratio is r / fund^4, has a w-coefficient >= 0.
    """
    if x.b < 0:
        return -1
    d, e = x.ring._window
    return 1 if d * x.a + e * x.b >= 0 else 0


def is_canonical_associate(x: QuadInt) -> bool:
    """Totally positive with embedding ratio in [1, u^2).

    u = fund^2 is the totally positive fundamental unit; multiplying by u
    scales the embedding ratio by u^2, so exactly one associate of any
    nonzero element lands in the window.  Once N(x) > 0, x is totally
    positive iff a > 0, since sqrt(D)*a = -w'*emb(x) + w*emb'(x) with the
    roots w > 0 > w'.
    """
    return x.norm() > 0 and x.a > 0 and not _window_side(x)


def _ratio_steps(x: QuadInt) -> int:
    """floor(t'), for t' an estimate of t = log(emb(x)/emb'(x)) / log fund^4
    with |t' - t| < 1, for totally positive x.

    a > 0, so the embedding v = a + |b|*w, with w = omega if b >= 0 and
    w = -omega' if b < 0, adds two nonnegative terms; the other embedding
    is N(x)/v, so log ratio = +-(2 log v - log N(x)) with the sign of b.
    Both coefficients are first shifted down to 60 bits, since
    embedding_float overflows past 2^1024; the shift changes v by a
    relative error under 2^-56.  What is left is about ten double
    roundings, each of relative size 2^-53, on logs below 2n for n-bit
    coefficients, so |t' - t| < 2^-40 * (1 + n/64), below 1/2 for every n
    under 2^45 bits.
    """
    ring = x.ring
    w = ring.omega_float if x.b >= 0 else -ring.omega_conj_float
    a, b = x.a, abs(x.b)
    shift = max(max(a, b).bit_length() - 60, 0)
    log_v = math.log((a >> shift) + (b >> shift) * w) + shift * math.log(2)
    log_ratio = 2 * log_v - math.log(x.norm())
    if x.b < 0:
        log_ratio = -log_ratio
    return math.floor(log_ratio / (4 * math.log(ring._fund.embedding_float())))


def _canonical_walk(x: QuadInt) -> tuple[QuadInt, int, int]:
    """(c, sign, e) with c = sign * fund^e * x the canonical associate of x != 0.

    Fixes the sign of the norm with fund and the sign of the embeddings
    with -1.  Multiplying by fund^2 scales the embedding ratio by fund^4,
    so the walk jumps by fund^(-2k), k = _ratio_steps(x).  Proof that one
    more step is enough: |t' - t| < 1 gives t - k in (-1, 2), that is a
    ratio in (fund^-4, fund^8), and the exact window test then decides one
    fund^(+-2) step.  A ratio still outside raises InvariantViolation.
    """
    ring = x.ring
    sign, e = 1, 0
    if x.norm() < 0:
        x, e = x * ring._fund, 1
    if x.a < 0:
        x, sign = -x, -1
    if _window_side(x):
        k = _ratio_steps(x)
        x, e = x * ring._fund ** (-2 * k), e - 2 * k
        side = _window_side(x)
        if side:
            x, e = x * ring._fund ** (-2 * side), e - 2 * side
            if _window_side(x):
                raise InvariantViolation("unit walk is off the window by more than one step")
    return x, sign, e


def canonical_unit(x: QuadInt) -> QuadInt:
    """The unit u with x * u = canonical_associate(x); ValueError for zero."""
    if not x:
        raise ValueError("zero has no canonical associate")
    _, sign, e = _canonical_walk(x)
    return unit_from_normal_form(x.ring, sign, e)


def canonical_associate(x: QuadInt) -> QuadInt:
    """The distinguished unit multiple of x (see is_canonical_associate)."""
    return _canonical_walk(x)[0] if x else x


def is_associate(x: QuadInt, y: QuadInt) -> bool:
    if not x or not y:
        return (not x) and (not y)
    return canonical_associate(x) == canonical_associate(y)


def unit_normal_form(u: QuadInt) -> tuple[int, int]:
    """Write a unit as sign * fund^exponent, returning (sign, exponent).

    The totally positive units are the fund^(2j), with embedding ratio
    fund^(4j), so the canonical associate of every unit is 1: the walk's
    sign * fund^e * u = 1 gives u = sign * fund^-e.
    """
    if not u.is_unit():
        raise ValueError(f"not a unit: {u!r}")
    c, sign, e = _canonical_walk(u)
    if c != u.ring.one():
        raise InvariantViolation("canonical associate of a unit is not 1")
    return sign, -e


def unit_from_normal_form(ring: QuadRing, sign: int, exponent: int) -> QuadInt:
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    u = ring._fund ** exponent
    return u if sign == 1 else -u


def gcd(x: QuadInt, *rest: QuadInt) -> QuadInt:
    """Greatest common divisor of any number of elements, as the canonical
    associate; ValueError if every element is zero.

    Proof of the norm shortcut: a prime pi dividing every element makes
    N(pi), with |N(pi)| > 1, divide every norm.  So when math.gcd of the
    norms is 1 no prime divides them all, the gcd is a unit, and the
    canonical associate of a unit is 1 (see unit_normal_form).

    Otherwise the Euclidean descent with nearest-integer quotients
    (_pair_divmod, the rule of QuadInt.__divmod__) folds over the elements
    on (a, b) pairs; both rings satisfy |norm(x mod y)| < |norm(y)| under
    that rounding.  Each step checks that bound, so a faulty division
    raises InvariantViolation instead of looping forever.  The result is
    made canonical once, at the end.
    """
    ring = x.ring
    if any(y.ring != ring for y in rest):
        raise ValueError("mixed-ring operands")
    if math.gcd(x.norm(), *(y.norm() for y in rest)) == 1:
        return ring.one()
    c1, c0 = ring.c1, ring.c0
    g = (x.a, x.b)
    for y in rest:
        y = (y.a, y.b)
        size = abs(pair_norm(y, c1, c0))
        while y != (0, 0):
            r = _pair_divmod(g, y, c1, c0)[1]
            r_size = abs(pair_norm(r, c1, c0))
            if r_size >= size:
                r, g, y = (QuadInt(*p, ring) for p in (r, g, y))
                raise InvariantViolation(
                    f"remainder {r!r} of {g!r} by {y!r} does not shrink the norm")
            g, y, size = y, r, r_size
    if g == (0, 0):
        raise ValueError("gcd of zeros is undefined")
    return canonical_associate(QuadInt(g[0], g[1], ring))


def exact_div(x: QuadInt, y: QuadInt) -> QuadInt:
    q, r = divmod(x, y)
    if r:
        raise ValueError(f"{y!r} does not divide {x!r}")
    return q


def coprime(elements: Iterable[QuadInt]) -> bool:
    """Whether no prime divides every element; ValueError if none is nonzero."""
    elements = tuple(elements)
    if not elements:
        raise ValueError("coprime() needs a nonzero element")
    return gcd(*elements) == elements[0].ring.one()


def pair_mul(x: tuple[int, int], y: tuple[int, int], c1: int, c0: int) -> tuple[int, int]:
    """Product of two ring elements given as (a, b) pairs, w^2 = c1 w + c0."""
    t = x[1] * y[1]
    return (x[0] * y[0] + c0 * t, x[0] * y[1] + x[1] * y[0] + c1 * t)


def pair_norm(x: tuple[int, int], c1: int, c0: int) -> int:
    """Norm to Z of a ring element given as an (a, b) pair, w^2 = c1 w + c0."""
    a, b = x
    return a * a + c1 * a * b - c0 * b * b


class SplittingClass(Enum):
    RAMIFIED = "ramified"
    SPLIT = "split"
    INERT = "inert"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def splitting_class(p: int, ring: QuadRing) -> SplittingClass:
    """How the rational prime p factors in the ring.

    Golden ratio: 5 ramifies, p = +-1 (mod 5) splits, p = +-2 (mod 5) is
    inert.  Root two: 2 ramifies, p = +-1 (mod 8) splits, else inert.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if ring.name == "tau":
        if p == 5:
            return SplittingClass.RAMIFIED
        return SplittingClass.SPLIT if p % 5 in (1, 4) else SplittingClass.INERT
    if p == 2:
        return SplittingClass.RAMIFIED
    return SplittingClass.SPLIT if p % 8 in (1, 7) else SplittingClass.INERT


def elements_in_embedding_box(ring: QuadRing, bound1: float, bound2: float):
    """The (a, b) pair of each x = a + b*w with |emb(x)| <= bound1 and
    |emb'(x)| <= bound2, a bit padded, b then a increasing.

    The box is computed with floats and widened by one unit in each
    integer coordinate, so it may over-include but never under-include;
    callers apply their own exact filters, and build a QuadInt only for
    the pairs they keep.
    """
    w1 = ring.omega_float
    w2 = ring.omega_conj_float
    bmax = int((bound1 + bound2) / (w1 - w2)) + 1
    for b in range(-bmax, bmax + 1):
        lo = max(-bound1 - b * w1, -bound2 - b * w2)
        hi = min(bound1 - b * w1, bound2 - b * w2)
        if hi < lo - 1:
            continue
        for a in range(math.floor(lo) - 1, math.ceil(hi) + 2):
            yield a, b


@lru_cache(maxsize=4096)
def norm_equation(ring: QuadRing, n: int) -> tuple[QuadInt, ...]:
    """Canonical associates with norm exactly n (n >= 1).

    One entry per association class of solutions of |norm| = n; the
    canonical associate always has positive norm.  The cache is bounded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = ring._fund.embedding_float()
    root = math.sqrt(n)
    c1, c0 = ring.c1, ring.c0
    pairs = sorted(p for p in elements_in_embedding_box(ring, root * f * f * 1.001, root * 1.001)
                   if pair_norm(p, c1, c0) == n)
    return tuple(x for x in (QuadInt(a, b, ring) for a, b in pairs) if is_canonical_associate(x))


def units_up_to_height(ring: QuadRing, height: int) -> list[QuadInt]:
    """All units with |a|, |b| <= height (exhaustive coefficient scan)."""
    out = []
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
            x = QuadInt(a, b, ring)
            if x and x.is_unit():
                out.append(x)
    return out


TAU = QuadRing(1, 1)
SQRT2 = QuadRing(0, 2)
