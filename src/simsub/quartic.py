"""Exact arithmetic in the rank-4 rings Z[i,tau] and Z[i,sqrt(2)].

Elements are integer 4-vectors over the basis {1, i, w, i*w} with
i^2 = -1 and w the real quadratic generator.  An element is handled as
P + i*Q with P, Q in the underlying real quadratic ring, which keeps the
multiplication and norms exact and cheap.
"""

from __future__ import annotations

from .frozen import Frozen
from .quadratic import (
    QuadInt,
    QuadRing,
    SQRT2,
    TAU,
    unit_from_normal_form as _quad_unit_from_normal_form,
    unit_normal_form,
)


class QuarticRing(Frozen):
    """Z[i,w] for w = tau or sqrt(2), over the basis {1, i, w, i*w}.

    Elements multiply as P + i*Q over the real quadratic ring `quad`, so
    the ring stores no structure constants.
    """

    __slots__ = ("quad", "name", "mu")

    def __init__(self, quad: QuadRing) -> None:
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "name", "itau" if quad.name == "tau" else "isqrt2")
        # mu is the infinite-order unit used in unit normal forms:
        # tau itself, or lambda = 1 + sqrt(2).
        object.__setattr__(self, "mu",
                           QuarticInt.from_parts(quad.fundamental_unit, quad.zero(), self))

    def zero(self) -> QuarticInt:
        return QuarticInt((0, 0, 0, 0), self)

    def one(self) -> QuarticInt:
        return QuarticInt((1, 0, 0, 0), self)

    def i(self) -> QuarticInt:
        return QuarticInt((0, 1, 0, 0), self)

    def omega(self) -> QuarticInt:
        return QuarticInt((0, 0, 1, 0), self)

    def from_int(self, n: int) -> QuarticInt:
        return QuarticInt((n, 0, 0, 0), self)

    def from_pairs(self, re: tuple[int, int], im: tuple[int, int]) -> QuarticInt:
        """re + i*im, for re and im given as (a, b) pairs of the real quadratic ring."""
        return QuarticInt((re[0], im[0], re[1], im[1]), self)

    def basis(self) -> tuple[QuarticInt, ...]:
        return (self.one(), self.i(), self.omega(),
                QuarticInt((0, 0, 0, 1), self))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuarticRing) and self.name == getattr(other, "name", None)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"QuarticRing({self.name})"


class QuarticInt(Frozen):
    """coeffs = (x0, x1, x2, x3) meaning x0 + x1*i + x2*w + x3*i*w."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs: tuple[int, int, int, int], ring: QuarticRing) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "ring", ring)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeffs, self.ring) == (other.coeffs, other.ring)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.ring))

    @classmethod
    def from_parts(cls, re: QuadInt, im: QuadInt, ring: QuarticRing) -> QuarticInt:
        return cls((re.a, im.a, re.b, im.b), ring)

    @property
    def re_part(self) -> QuadInt:
        return QuadInt(self.coeffs[0], self.coeffs[2], self.ring.quad)

    @property
    def im_part(self) -> QuadInt:
        return QuadInt(self.coeffs[1], self.coeffs[3], self.ring.quad)

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, QuarticInt):
            if other.ring != self.ring:
                raise ValueError("mixed-ring operands")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuarticInt(tuple(s + t for s, t in zip(self.coeffs, o.coeffs)), self.ring)

    __radd__ = __add__

    def __neg__(self):
        return QuarticInt(tuple(-c for c in self.coeffs), self.ring)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuarticInt(tuple(s - t for s, t in zip(self.coeffs, o.coeffs)), self.ring)

    def __mul__(self, other):
        if isinstance(other, QuadInt):
            return QuarticInt.from_parts(self.re_part * other, self.im_part * other,
                                         self.ring)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = self.re_part, self.im_part
        r, s = o.re_part, o.im_part
        return QuarticInt.from_parts(p * r - q * s, p * s + q * r, self.ring)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported here")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def rel_norm(self) -> QuadInt:
        """Norm down to the real quadratic subring: P^2 + Q^2."""
        p, q = self.re_part, self.im_part
        return p * p + q * q

    def abs_norm(self) -> int:
        """|norm to Z|; equals |det(regular_rep)| and the index [M : xM]."""
        return abs(self.rel_norm().norm())

    def __repr__(self) -> str:
        return f"QuarticInt({self.coeffs}, {self.ring.name})"


def regular_rep(x: QuarticInt) -> tuple[tuple[int, ...], ...]:
    """4x4 integer matrix of multiplication by x; columns are x * basis_j."""
    cols = [(x * e).coeffs for e in x.ring.basis()]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def abs_norm(x: QuarticInt) -> int:
    return x.abs_norm()


class UnitDecompositionError(ArithmeticError):
    """A unit failed to factor as i^k * mu^l.

    Raising this would exhibit a counterexample to the expected unit-group
    structure of these rings; it must never trigger.
    """


def quartic_unit_normal_form(u: QuarticInt) -> tuple[int, int]:
    """Write a unit as i^k * mu^l with k in {0,1,2,3}; returns (k, l).

    mu is real, so rel_norm(i^k mu^l) = mu^(2l), a totally positive unit
    of the real quadratic ring: its normal form gives l, and u / mu^l must
    then be one of 1, i, -1, -i.
    """
    if u.abs_norm() != 1:
        raise ValueError(f"not a unit: {u!r}")
    sign, e = unit_normal_form(u.rel_norm())
    if sign != 1 or e % 2:
        raise UnitDecompositionError(f"unit {u!r} is not i^k * mu^l")
    ell = e // 2
    v = u * unit_from_normal_form(u.ring, 0, -ell)
    for k, w in enumerate(_i_powers(u.ring)):
        if v == w:
            return k, ell
    raise UnitDecompositionError(f"unit {u!r} is not i^k * mu^l")


def _i_powers(ring: QuarticRing):
    one, i = ring.one(), ring.i()
    return (one, i, -one, -i)


def unit_from_normal_form(ring: QuarticRing, k: int, ell: int) -> QuarticInt:
    return _i_powers(ring)[k % 4] * _quad_unit_from_normal_form(ring.quad, 1, ell)


def units_up_to_height(ring: QuarticRing, height: int) -> list[QuarticInt]:
    """All units with every coefficient bounded by height, by full scan."""
    out = []
    rng = range(-height, height + 1)
    for x0 in rng:
        for x1 in rng:
            for x2 in rng:
                for x3 in rng:
                    x = QuarticInt((x0, x1, x2, x3), ring)
                    if x and x.abs_norm() == 1:
                        out.append(x)
    return out


ITAU = QuarticRing(TAU)
ISQRT2 = QuarticRing(SQRT2)
