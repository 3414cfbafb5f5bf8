"""Named Dirichlet-series constructors for the module families we count.

Every series here is an Euler product.  It is stated once, as its local
factor num(t)/den(t) at each rational prime p (t stands for p^-s), and
built by one `expand_euler` call.  The local factors by splitting type:

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
* f_cubic -- similarity submodules of the rank-3 module Z[tau]^3 by
  index, zeta_q_tau(3s) * phi_c(3s): the product of the zeta_q_tau and
  phi_c factors, with the coefficient of r moved to index r^3.
* riemann_zeta -- 1/(1-t) at every p.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# convolve, dirichlet_inverse, scale_argument and shift are unused here; perfbench/tracer.py
# patches them by name.
from .dirichlet import (  # noqa: F401
    CoeffSeries,
    EulerFactor,
    convolve,
    dirichlet_inverse,
    divisors,
    expand_euler,
    icbrt,
    scale_argument,
    shift,
)

# Common local factors, in t = p^(-s); built once, shared by every prime.
_GEOM = EulerFactor((1,), (1, -1))                    # 1/(1-t)
_GEOM_SQ = EulerFactor((1,), (1, -2, 1))              # 1/(1-t)^2
_GEOM_T2 = EulerFactor((1,), (1, 0, -1))              # 1/(1-t^2)
_GEOM_4TH = EulerFactor((1,), (1, -4, 6, -4, 1))      # 1/(1-t)^4
_GEOM_T2_SQ = EulerFactor((1,), (1, 0, -2, 0, 1))     # 1/(1-t^2)^2


class SeriesName(Enum):
    ZETA_Q_TAU = "zeta-qtau"
    ZETA_Q_ITAU = "zeta-qitau"
    ZETA_ZI_SQRT2 = "zeta-zisqrt2"
    ZETA_Q_XI8 = "zeta-qxi8"
    PHI_C = "phi-c"
    F_CUBIC = "f-cubic"
    RIEMANN_ZETA = "riemann-zeta"


@dataclass(frozen=True)
class CatalogEntry:
    name: SeriesName
    series: CoeffSeries

    def __post_init__(self):
        if self.series.coeffs[0] != 1:
            raise ValueError("catalog series must start with a(1) = 1")


def riemann_zeta(limit: int) -> CoeffSeries:
    """All coefficients 1: every index m gives exactly the ideal mZ."""
    return expand_euler(lambda p: _GEOM, limit)


def _tau_factor(p: int) -> EulerFactor:
    if p == 5:
        return _GEOM
    if p % 5 in (1, 4):
        return _GEOM_SQ
    return _GEOM_T2


def zeta_q_tau(limit: int) -> CoeffSeries:
    """Ideal count of Z[tau] by index."""
    return expand_euler(_tau_factor, limit)


def zeta_q_itau(limit: int) -> CoeffSeries:
    """Ideal count of Z[i,tau] by index."""
    def factor(p: int) -> EulerFactor:
        if p == 2:
            return _GEOM_T2
        if p == 5:
            return _GEOM_SQ
        if p % 20 in (1, 9):
            return _GEOM_4TH
        return _GEOM_T2_SQ
    return expand_euler(factor, limit)


def _xi8_factor(p: int) -> EulerFactor:
    if p == 2:
        return _GEOM
    if p % 8 == 1:
        return _GEOM_4TH
    return _GEOM_T2_SQ


def zeta_q_xi8(limit: int) -> CoeffSeries:
    """Ideal count of Z[xi_8] by norm."""
    return expand_euler(_xi8_factor, limit)


def _zi_sqrt2_factor(p: int) -> EulerFactor:
    if p == 2:
        return EulerFactor((1, -1, 2), _GEOM.den)
    return _xi8_factor(p)


def zeta_zi_sqrt2(limit: int) -> CoeffSeries:
    """Principal ideals of Z[i,sqrt2] by index.

    Odd indices match Z[xi_8] one-to-one; indices 2(2l+1) disappear and
    all other even ones double.
    """
    return expand_euler(_zi_sqrt2_factor, limit)


def _phi_c_factor(p: int) -> EulerFactor:
    if p == 2:
        return EulerFactor((1, 0, 4), (1, 0, -4))
    if p == 5:
        return EulerFactor((1, 1), (1, -5))
    if p % 5 in (1, 4):
        return EulerFactor((1, 2, 1), (1, -2 * p, p * p))
    return EulerFactor((1, 0, 1), (1, 0, -p * p))


def phi_c(limit: int) -> CoeffSeries:
    """Rotation generating function for Z[tau]^3, divided by 24.

    (1 + 4*4^-s)/(1 + 4^-s) times zeta(s) zeta(s-1) / zeta(2s), all taken
    for the golden-ratio ring; the local factors are in the module
    docstring.
    """
    return expand_euler(_phi_c_factor, limit)


def f_cubic(limit: int) -> CoeffSeries:
    """Similarity submodule count of Z[tau]^3; supported on cubes.

    The product of the zeta_q_tau and phi_c factors is expanded only up
    to the integer cube root of limit, and a(r) is placed at r^3.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    r_max = icbrt(limit)
    base = expand_euler(lambda p: _tau_factor(p) * _phi_c_factor(p), r_max)
    out = [0] * limit
    for r, c in base.nonzero():
        out[r ** 3 - 1] = c
    return CoeffSeries(limit, tuple(out), tuple(r ** 3 for r in base.support))


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
