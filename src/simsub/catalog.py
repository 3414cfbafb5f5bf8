"""Named Dirichlet-series constructors for the module families we count.

Every series here is an Euler product.  It is stated once, as one
EulerRule: its local factor num(t)/den(t) (t stands for p^-s) on each
residue class of p mod 5, 8 or 20, which fixes the splitting type, and at
its exceptional primes 2 and 5.  It is built by one `expand_euler` call.
The local factors by splitting type:

* zeta_q_tau -- ideals of Z[tau] by index (Dedekind zeta of Q(tau)):
      p = 5, ramified                   1/(1-t)
      p = +-1 mod 5, split              1/(1-t)^2
      p = +-2 mod 5, inert              1/(1-t^2)
* zeta_q_itau -- ideals of Z[i,tau] by index (Dedekind zeta of Q(i*tau)):
      p = 2, one prime of norm 4        1/(1-t^2)
      p = 5, square of a split pair     1/(1-t)^2
      p = 1, 9 mod 20, split            1/(1-t)^4
      other odd p, two primes of norm p^2    1/(1-t^2)^2
* zeta_q_xi8 -- ideals of the 8th cyclotomic ring Z[xi_8] by norm:
      p = 2, totally ramified           1/(1-t)
      p = 1 mod 8, split                1/(1-t)^4
      other odd p, residue degree 2     1/(1-t^2)^2
* zeta_zi_sqrt2 -- principal ideals of the non-maximal order Z[i,sqrt2]
  by index: the zeta_q_xi8 factor at odd p, and at p = 2
      (1 - t + 2t^2)/(1-t)
* phi_c -- 1/24 of the SO(3, Q(tau)) rotation count by denominator norm,
  (1 + 4*4^-s)/(1 + 4^-s) * zeta(s) zeta(s-1) / zeta(2s) over Q(tau):
      p = 2, inert, with the prefactor  (1+4t^2)/(1-4t^2)
      p = 5, ramified                   (1+t)/(1-5t)
      p = +-1 mod 5, split              (1+t)^2/(1-pt)^2
      other p, inert                    (1+t^2)/(1-p^2 t^2)
  The split and inert factors depend on p itself; their coefficients are
  polynomials in p, and the t^1 coefficient is 2 + 2p (split) or 0.
* f_cubic -- similarity submodules of the rank-3 module Z[tau]^3 by
  index, zeta_q_tau(3s) * phi_c(3s): the product of the zeta_q_tau and
  phi_c rules, with the coefficient of r moved to index r^3.
* riemann_zeta -- 1/(1-t) at every p.
"""

from __future__ import annotations

from enum import Enum

# convolve, dirichlet_inverse, scale_argument and shift are unused here; perfbench/tracer.py
# patches them by name.
from .dirichlet import (  # noqa: F401
    ClassFactor,
    CoeffSeries,
    EulerRule,
    convolve,
    dirichlet_inverse,
    divisors,
    expand_euler,
    icbrt,
    scale_argument,
    shift,
)
from .frozen import Frozen

# Common local factors, in t = p^(-s), the same at every prime.
_GEOM = ClassFactor((1,), (1, -1))                    # 1/(1-t)
_GEOM_SQ = ClassFactor((1,), (1, -2, 1))              # 1/(1-t)^2
_GEOM_T2 = ClassFactor((1,), (1, 0, -1))              # 1/(1-t^2)
_GEOM_4TH = ClassFactor((1,), (1, -4, 6, -4, 1))      # 1/(1-t)^4
_GEOM_T2_SQ = ClassFactor((1,), (1, 0, -2, 0, 1))     # 1/(1-t^2)^2


def _split_rule(modulus: int, split: tuple[int, ...], split_factor: ClassFactor,
                other_factor: ClassFactor, exceptional: dict[int, ClassFactor]) -> EulerRule:
    """split_factor on the residues in split, other_factor on the rest."""
    return EulerRule(modulus, tuple(split_factor if r in split else other_factor
                                    for r in range(modulus)), exceptional)


# The rules of the module docstring, one per series.
_zeta_factor = EulerRule(1, (_GEOM,))
_tau_factor = _split_rule(5, (1, 4), _GEOM_SQ, _GEOM_T2, {5: _GEOM})
_itau_factor = _split_rule(20, (1, 9), _GEOM_4TH, _GEOM_T2_SQ, {2: _GEOM_T2, 5: _GEOM_SQ})
_xi8_factor = _split_rule(8, (1,), _GEOM_4TH, _GEOM_T2_SQ, {2: _GEOM})
_zi_sqrt2_factor = EulerRule(8, _xi8_factor.classes, {2: ClassFactor((1, -1, 2), (1, -1))})
_phi_c_factor = _split_rule(
    5, (1, 4),
    ClassFactor((1, 2, 1), (1, (0, -2), (0, 0, 1))),  # (1+t)^2/(1-pt)^2
    ClassFactor((1, 0, 1), (1, 0, (0, 0, -1))),       # (1+t^2)/(1-p^2 t^2)
    {2: ClassFactor((1, 0, 4), (1, 0, -4)), 5: ClassFactor((1, 1), (1, -5))})
_f_cubic_factor = _tau_factor * _phi_c_factor


class SeriesName(Enum):
    ZETA_Q_TAU = "zeta-qtau"
    ZETA_Q_ITAU = "zeta-qitau"
    ZETA_ZI_SQRT2 = "zeta-zisqrt2"
    ZETA_Q_XI8 = "zeta-qxi8"
    PHI_C = "phi-c"
    F_CUBIC = "f-cubic"
    RIEMANN_ZETA = "riemann-zeta"


class CatalogEntry(Frozen):
    __slots__ = ("name", "series")

    def __init__(self, name: SeriesName, series: CoeffSeries) -> None:
        if next(series.nonzero(), None) != (1, 1):
            raise ValueError("catalog series must start with a(1) = 1")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "series", series)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.series) == (other.name, other.series)

    def __hash__(self) -> int:
        return hash((self.name, self.series))

    def __repr__(self) -> str:
        return f"CatalogEntry(name={self.name!r}, series={self.series!r})"


def riemann_zeta(limit: int) -> CoeffSeries:
    """All coefficients 1: every index m gives exactly the ideal mZ."""
    return expand_euler(_zeta_factor, limit)


def zeta_q_tau(limit: int) -> CoeffSeries:
    """Ideal count of Z[tau] by index."""
    return expand_euler(_tau_factor, limit)


def zeta_q_itau(limit: int) -> CoeffSeries:
    """Ideal count of Z[i,tau] by index."""
    return expand_euler(_itau_factor, limit)


def zeta_q_xi8(limit: int) -> CoeffSeries:
    """Ideal count of Z[xi_8] by norm."""
    return expand_euler(_xi8_factor, limit)


def zeta_zi_sqrt2(limit: int) -> CoeffSeries:
    """Principal ideals of Z[i,sqrt2] by index.

    Odd indices match Z[xi_8] one-to-one; indices 2(2l+1) disappear and
    all other even ones double.
    """
    return expand_euler(_zi_sqrt2_factor, limit)


def phi_c(limit: int) -> CoeffSeries:
    """Rotation generating function for Z[tau]^3, divided by 24.

    (1 + 4*4^-s)/(1 + 4^-s) times zeta(s) zeta(s-1) / zeta(2s), all taken
    for the golden-ratio ring; the local factors are in the module
    docstring.
    """
    return expand_euler(_phi_c_factor, limit)


def f_cubic(limit: int) -> CoeffSeries:
    """Similarity submodule count of Z[tau]^3; supported on cubes.

    The product of the zeta_q_tau and phi_c rules is expanded only up to
    the integer cube root of limit, and a(r) is placed at r^3.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    r_max = icbrt(limit)
    base = expand_euler(_f_cubic_factor, r_max)
    return CoeffSeries(limit, tuple(r ** 3 for r in base.support), base.values)


def sigma1(m: int) -> int:
    """Divisor sum; counts the rank-2 sublattices of index m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return sum(divisors(m))


_BUILDERS = {
    SeriesName.ZETA_Q_TAU: zeta_q_tau,
    SeriesName.ZETA_Q_ITAU: zeta_q_itau,
    SeriesName.ZETA_ZI_SQRT2: zeta_zi_sqrt2,
    SeriesName.ZETA_Q_XI8: zeta_q_xi8,
    SeriesName.PHI_C: phi_c,
    SeriesName.F_CUBIC: f_cubic,
    SeriesName.RIEMANN_ZETA: riemann_zeta,
}

# Stable identifiers accepted on the command line.
CLI_SERIES = tuple(name.value for name in SeriesName if name is not SeriesName.RIEMANN_ZETA)


def catalog_entry(name: str | SeriesName, limit: int) -> CatalogEntry:
    key = name if isinstance(name, SeriesName) else SeriesName(name)
    return CatalogEntry(key, _BUILDERS[key](limit))
