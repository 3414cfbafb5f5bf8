"""The rank-3 module Z[tau]^3: exact rotations, denominators, and counts.

Rotations over the fraction field of Z[tau] are produced from quaternions
with Z[tau] components through the Euler-Rodrigues quadratic forms.  A
rotation R gets a denominator den(R), the canonical associate of the
least beta with beta*R integral, and a scaled map alpha*den(R)*R has
integer index |N(alpha)|^3 * |N(den R)|^3.

Every R in SO(3, Q(tau)) is M(q)/s for a primitive quaternion q over
Z[tau], where M(q) is the Euler-Rodrigues matrix and s = |q|^2.  q is
unique up to a unit factor e, which multiplies s by the totally positive
unit e^2, so exactly one choice (up to the sign of q) makes s a
canonical associate.  den(R) = s / g with g = gcd(s, entries of M(q)),
and g divides 4: the combinations s + M11 + M22 + M33, s + M11 - M22 -
M33, s - M11 + M22 - M33 and s - M11 - M22 + M33 are 4a^2, 4b^2, 4c^2
and 4d^2 for q = (a, b, c, d), and gcd(a^2, b^2, c^2, d^2) = 1 for
primitive q.  As 2 is inert in Z[tau], g is 1, 2 or 4, so the rotations
with canonical denominator d are exactly those from primitive q with
|q|^2 in {d, 2d, 4d} and content g = |q|^2 / d; that is the enumeration
below, and |N(s)| <= 16 |N(den R)| always.

A Rotation3 is stored as one integral matrix over its denominator, R =
mat / den, and its invariants are checked once, on integers:
mat mat^T = den^2 I, det mat = +-den^3, den canonical, and no prime of den
dividing every entry (so den is least).  As Z[tau] is a PID, the canonical
least denominator of R is unique, and so is mat = den(R) R: the pair
(den, mat) is the canonical form of R and the key by which rotations are
compared, hashed and sorted.  The enumeration builds mat as M(q) / g and
den as s / g, and R1 @ R2 is mat1 mat2 over den1 den2 with their gcd
divided out, so no fraction arithmetic is done anywhere.

"den is least" and "q is primitive" both say that no prime divides every
one of some elements, and R1 @ R2 divides out exactly such a common
factor.  All three are one call of quadratic.gcd on any number of
elements: a prime dividing them all divides every norm, so an integer gcd
of the norms of 1 settles almost every case at once, and otherwise one
Euclidean descent over the elements is made canonical by one unit walk.
A denominator is made canonical, and its entries with it, by the unit
quadratic.canonical_unit returns.

Submodules come in cosets of the cube's rotation group.  Let P be one of
the 24 signed permutation matrices of determinant 1.  P is integral with
integral inverse P^T, so P Z[tau]^3 = Z[tau]^3.  RP = (mat P) / den, and
mat P is mat with its columns permuted and signed, so it is still
integral, and a prime of den dividing every entry of mat P would divide
every entry of mat: den(RP) = den(R) and mat(RP) = mat(R) P.  Hence
alpha den(RP) RP Z[tau]^3 = alpha mat P Z[tau]^3 = alpha mat Z[tau]^3 for
every alpha, and count_submodules_3d reduces one Hermite basis per coset
R {P}.  The columns of mat are nonzero and pairwise orthogonal, so no
column is +- another and the 24 products mat P are distinct: each coset
has exactly 24 members.  The coset key is den with the columns of mat,
each replaced by the larger of itself and its negative and the three
sorted; it is the same for R and RP and needs no ring arithmetic.  Two
rotations with one key have the same den and mat' = mat P for a signed
permutation P, and det P = det mat' / det mat = 1 as both are rotations
(the other 24 signed permutations would give determinant -1), so among
rotations the key classes are exactly the cosets.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import catalog
from .dirichlet import divisors, icbrt
from .errors import InvariantViolation
from .lattice import (Ambient, EnumerationBudgetExceeded, OracleReport, Submodule, column_hnf,
                      hnf_canonical)
# canonical_associate is unused here; perfbench/tracer.py patches it by name.
from .quadratic import (  # noqa: F401
    QuadInt,
    TAU,
    canonical_associate,
    canonical_unit,
    coprime,
    elements_in_embedding_box,
    exact_div,
    gcd as qgcd,
    is_canonical_associate,
    norm_equation,
    pair_mul,
    pair_sign,
    sign_embedding,
)

# Ceiling on the predicted component triples of one rotation enumeration.
MAX_COMPONENT_TRIPLES = 10_000_000


class Rotation3:
    """3x3 orthogonal matrix over Q(tau), stored as mat / den.

    mat is an integral 3x3 QuadInt matrix and den its least denominator, a
    canonical associate, so (den, mat) is the one canonical form of the
    rotation and equality is equality of that pair.  The constructor
    checks that mat mat^T = den^2 I, det mat = +-den^3, den is canonical
    and no prime of den divides every entry.
    """

    __slots__ = ("mat", "den", "det_sign", "_key")

    def __init__(self, mat: Sequence[Sequence[QuadInt]], den: QuadInt):
        mat = tuple(tuple(row) for row in mat)
        if len(mat) != 3 or any(len(r) != 3 for r in mat):
            raise ValueError("need a 3x3 matrix")
        ring = den.ring
        if any(e.ring != ring for row in mat for e in row):
            raise ValueError("mixed-ring operands")
        if not is_canonical_associate(den):
            raise InvariantViolation(f"denominator {den!r} is not a canonical associate")
        c1, c0 = ring.c1, ring.c0
        m = [(e.a, e.b) for row in mat for e in row]
        dd = pair_mul((den.a, den.b), (den.a, den.b), c1, c0)
        for i in range(3):
            for j in range(i, 3):
                s0 = s1 = 0
                for k in range(3):
                    x0, x1 = m[3 * i + k]
                    y0, y1 = m[3 * j + k]
                    t = x1 * y1
                    s0 += x0 * y0 + c0 * t
                    s1 += x0 * y1 + x1 * y0 + c1 * t
                if (s0, s1) != (dd if i == j else (0, 0)):
                    raise ValueError("matrix is not orthogonal")
        det = _pdet(m, c1, c0)
        ddd = pair_mul(dd, (den.a, den.b), c1, c0)
        if det == ddd:
            self.det_sign = 1
        elif det == (-ddd[0], -ddd[1]):
            self.det_sign = -1
        else:
            raise InvariantViolation("orthogonal matrix must have determinant +-1")
        if not coprime((den, *(e for row in mat for e in row))):
            raise InvariantViolation(f"{den!r} is not the least denominator")
        self._key = ((den.a, den.b), *m)
        self.mat = mat
        self.den = den

    @classmethod
    def identity(cls, ring=TAU) -> Rotation3:
        return cls.from_int_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ring)

    @classmethod
    def from_int_rows(cls, rows, ring=TAU) -> Rotation3:
        return cls(tuple(tuple(ring.from_int(v) for v in row) for row in rows), ring.one())

    def key(self):
        """The canonical form (den, mat) on integers.

        (den.a, den.b), then the (a, b) pair of each entry of mat, row by row.
        """
        return self._key

    def __eq__(self, other):
        return isinstance(other, Rotation3) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __matmul__(self, other: Rotation3) -> Rotation3:
        """mat1 mat2 / (den1 den2), with the gcd of den1 den2 and the entries divided out."""
        d = self.den * other.den
        prod = [sum((self.mat[i][k] * other.mat[k][j] for k in range(3)), d.ring.zero())
                for i in range(3) for j in range(3)]
        g = qgcd(d, *prod)
        return _canonical_rotation([exact_div(e, g) for e in prod], exact_div(d, g))

    def is_integral(self) -> bool:
        return self.den == self.den.ring.one()

    def is_signed_permutation(self) -> bool:
        if not self.is_integral():
            return False
        for rows in (self.mat, tuple(zip(*self.mat))):
            for row in rows:
                hits = [e for e in row if e]
                if len(hits) != 1 or hits[0].b != 0 or abs(hits[0].a) != 1:
                    return False
        return True

    def __repr__(self):
        return f"Rotation3({self.mat!r}, {self.den!r})"


def _canonical_rotation(mat: list[QuadInt], d: QuadInt) -> Rotation3:
    """The rotation mat / d (nine entries, row by row), with d made canonical."""
    u = canonical_unit(d)
    if u != d.ring.one():
        mat, d = [e * u for e in mat], d * u
    return Rotation3((mat[0:3], mat[3:6], mat[6:9]), d)


def _pdet(m, c1: int, c0: int) -> tuple[int, int]:
    """Determinant of a 3x3 matrix given as nine (a, b) pairs, row by row."""
    out = (0, 0)
    for j in range(3):  # cyclic cofactors along the first row
        j1, j2 = (j + 1) % 3, (j + 2) % 3
        p = pair_mul(m[3 + j1], m[6 + j2], c1, c0)
        q = pair_mul(m[3 + j2], m[6 + j1], c1, c0)
        t = pair_mul(m[j], (p[0] - q[0], p[1] - q[1]), c1, c0)
        out = (out[0] + t[0], out[1] + t[1])
    return out


def signed_permutations(ring=TAU, det_sign: int | None = None):
    """The 48 signed permutation matrices (24 per determinant sign)."""
    for perm in itertools.permutations(range(3)):
        inversions = sum(1 for x in range(3) for y in range(x + 1, 3)
                         if perm[x] > perm[y])
        parity = -1 if inversions % 2 else 1
        for signs in itertools.product((1, -1), repeat=3):
            det = parity * signs[0] * signs[1] * signs[2]
            if det_sign is not None and det != det_sign:
                continue
            rows = [[0, 0, 0] for _ in range(3)]
            for i in range(3):
                rows[i][perm[i]] = signs[i]
            yield Rotation3.from_int_rows(rows, ring)


@dataclass(frozen=True)
class QuatTau:
    """Primitive quaternion with Z[tau] components."""

    components: tuple[QuadInt, QuadInt, QuadInt, QuadInt]

    def __post_init__(self):
        if any(c.ring != TAU for c in self.components):
            raise ValueError("quaternion components must live in the tau ring")
        if not any(self.components):
            raise ValueError("zero quaternion")
        if not coprime(self.components):
            raise ValueError("quaternion is not primitive")

    def norm_sq(self) -> QuadInt:
        return sum((c * c for c in self.components), TAU.zero())


def _euler_rodrigues(q) -> list[tuple[int, int]]:
    """Unnormalized rotation matrix of a Z[tau] quaternion, to be divided by |q|^2.

    The nine entries come as (a, b) pairs, row by row.
    """
    a, b, c, d = ((x.a, x.b) for x in q)
    c1, c0 = TAU.c1, TAU.c0
    aa, bb, cc, dd, bc, ad, bd, ac, cd, ab = (
        pair_mul(x, y, c1, c0) for x, y in ((a, a), (b, b), (c, c), (d, d), (b, c),
                                            (a, d), (b, d), (a, c), (c, d), (a, b)))
    coords = [(aa[k] + bb[k] - cc[k] - dd[k], 2 * (bc[k] - ad[k]), 2 * (bd[k] + ac[k]),
               2 * (bc[k] + ad[k]), aa[k] - bb[k] + cc[k] - dd[k], 2 * (cd[k] - ab[k]),
               2 * (bd[k] - ac[k]), 2 * (cd[k] + ab[k]), aa[k] - bb[k] - cc[k] + dd[k])
              for k in (0, 1)]
    return list(zip(*coords))


def _er_rotation(m, s: QuadInt, g: int) -> Rotation3:
    """M / s for the Euler-Rodrigues matrix M of q, s = |q|^2, g = gcd(s, M).

    M / s = (M / g) / (s / g), and s / g is made canonical by
    _canonical_rotation.
    """
    rot = _canonical_rotation([QuadInt(a // g, b // g, TAU) for a, b in m],
                              QuadInt(s.a // g, s.b // g, TAU))
    if rot.det_sign != 1:
        raise InvariantViolation("Euler-Rodrigues matrix must have determinant 1")
    return rot


def quat_to_rotation(q: QuatTau) -> Rotation3:
    """Exact Euler-Rodrigues rotation of a primitive quaternion."""
    m = _euler_rodrigues(q.components)
    s = q.norm_sq()
    return _er_rotation(m, s, _form_content(s, m))


def den(rotation: Rotation3) -> QuadInt:
    """Canonical least common denominator of the nine entries.

    den(R) * R is integral and no proper divisor of den(R) clears every
    denominator; Rotation3 checks both when it is built.
    """
    return rotation.den


def _block2(x: QuadInt):
    # multiplication by x on the Z-basis (1, tau)
    return ((x.a, x.b), (x.b, x.a + x.b))


def _abs_det(mat) -> int:
    """|det| of a square integer matrix: the product of the diagonal of the
    canonical column HNF.  ValueError if the matrix is singular."""
    hnf = hnf_canonical(list(zip(*mat)))
    return math.prod(hnf[i][i] for i in range(len(hnf)))


def _integral_matrix(rotation: Rotation3, scale: QuadInt):
    """scale * rotation as a 3x3 QuadInt matrix; scale must clear den(R)."""
    factor = exact_div(scale, rotation.den)
    return tuple(tuple(e * factor for e in row) for row in rotation.mat)


def similarity_index(alpha: QuadInt, rotation: Rotation3) -> int:
    """Index of alpha * den(R) * R on the rank-3 module: |N(alpha)^3 N(den R)^3|.

    Cross-checked on every call against |det| of the rank-6 integer
    representation of the map, read off its column HNF.
    """
    if not alpha:
        raise ValueError("alpha must be nonzero")
    d = den(rotation)
    ind = abs(alpha.norm() ** 3 * d.norm() ** 3)
    mat = _integral_matrix(rotation, alpha * d)
    z6 = [[0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            blk = _block2(mat[i][j])
            for r in range(2):
                for c in range(2):
                    z6[2 * i + r][2 * j + c] = blk[r][c]
    try:
        det = _abs_det(z6)
    except ValueError as exc:
        raise InvariantViolation("the Z-rank-6 representation is singular") from exc
    if ind != det:
        raise InvariantViolation("index formula disagrees with the Z-rank-6 determinant")
    return ind


def is_unit_similarity(alpha: QuadInt, rotation: Rotation3) -> bool:
    """True iff alpha is a unit and R is a signed permutation."""
    d = den(rotation)
    if alpha % d:
        raise ValueError("alpha * R does not map the module into itself")
    return alpha.is_unit() and rotation.is_signed_permutation()


# ---------------------------------------------------------------------------
# rotation enumeration


def _components(s: QuadInt):
    """(x, x^2 coordinates, x^2 embeddings) for each x with s - x^2 totally >= 0."""
    e1 = s.embedding_float()
    e2 = s.conj_embedding_float()
    c1, c0 = TAU.c1, TAU.c0
    w1, w2 = TAU.omega_float, TAU.omega_conj_float
    out = []
    for x in elements_in_embedding_box(TAU, math.sqrt(e1) * 1.000001,
                                       math.sqrt(e2) * 1.000001):
        qa, qb = pair_mul(x, x, c1, c0)
        ra, rb = s.a - qa, s.b - qb  # s - x^2, and its conjugate below
        if pair_sign((ra, rb), c1, c0) >= 0 and pair_sign((ra + c1 * rb, -rb), c1, c0) >= 0:
            out.append((QuadInt(*x, TAU), qa, qb, qa + qb * w1, qa + qb * w2))
    return out


def _primitive_quaternions(s: QuadInt) -> list[tuple[QuadInt, QuadInt, QuadInt, QuadInt]]:
    """Every primitive q in Z[tau]^4 with |q|^2 = s exactly, one of each pair +-q."""
    return _quaternion_search(s, _components(s))


def _content4_quaternions(s: QuadInt) -> list[tuple[QuadInt, QuadInt, QuadInt, QuadInt]]:
    """The primitive q of _primitive_quaternions(s) with every component
    congruent to one lam in {1, tau, tau^2} mod 2.

    Every q of Euler-Rodrigues content 4 is among them.  4 divides s + M11
    = 2(a^2 + b^2), and likewise 2(a^2 + c^2) and 2(a^2 + d^2), so a^2, b^2,
    c^2 and d^2 agree mod 2.  2 is inert, Z[tau]/2 is the field F4, and
    squaring is one-to-one on it, so a, b, c and d agree mod 2, and not in
    0 as q is primitive.
    """
    comps = _components(s)
    out = []
    for lam in ((1, 0), (0, 1), (1, 1)):
        out += _quaternion_search(s, [c for c in comps if (c[0].a % 2, c[0].b % 2) == lam])
    return out


def _quaternion_search(s: QuadInt, comps) -> list[tuple[QuadInt, QuadInt, QuadInt, QuadInt]]:
    """The primitive q with |q|^2 = s and all four components among comps,
    a list of _components(s) closed under negation, one of each pair +-q.

    Three nested loops run over components whose squares fit under s in
    both embeddings (floats only prune partial sums, with padding); the
    fourth component is the exact square root of what is left, looked up
    in a dict of squares.  The first nonzero component of each listed q
    has positive real embedding.
    """
    lead = [c for c in comps if not c[0] or sign_embedding(c[0]) > 0]
    roots = {(c[1], c[2]): c[0] for c in lead}
    cap1 = s.embedding_float() * (1 + 1e-9) + 1e-9
    cap2 = s.conj_embedding_float() * (1 + 1e-9) + 1e-9
    sa, sb = s.a, s.b
    out = []
    for x0, a0, b0, f0, g0 in lead:
        for x1, a1, b1, f1, g1 in (comps if x0 else lead):
            f01 = f0 + f1
            g01 = g0 + g1
            if f01 > cap1 or g01 > cap2:
                continue
            for x2, a2, b2, f2, g2 in (comps if x0 or x1 else lead):
                if f01 + f2 > cap1 or g01 + g2 > cap2:
                    continue
                x3 = roots.get((sa - a0 - a1 - a2, sb - b0 - b1 - b2))
                if x3 is None:
                    continue
                out.append((x0, x1, x2, x3))
                if x3 and (x0 or x1 or x2):
                    out.append((x0, x1, x2, -x3))
    return [q for q in out if qgcd(*q) == TAU.one()]


def _form_content(s: QuadInt, m) -> int:
    """gcd(s, entries of m) for the Euler-Rodrigues matrix m of a primitive q.

    m holds (a, b) pairs.  The gcd divides 4 (module docstring), so it is
    the largest of 4, 2, 1 dividing s and all nine entries.
    """
    entries = [(s.a, s.b)] + m
    for k in (4, 2):
        if all(a % k == 0 and b % k == 0 for a, b in entries):
            return k
    return 1


def _rotations_of_norm(n: int) -> tuple[Rotation3, ...]:
    """Every R with |N(den R)| = n, each exactly once, sorted by R.key().

    R.key() is the canonical form (den, mat) on integers.

    For each canonical d of norm n and g in (1, 2, 4), the primitive q with
    |q|^2 = g * d and Euler-Rodrigues content g give den = d; by the
    argument in the module docstring no other q does.  For g = 4 only the
    residue classes of _content4_quaternions are searched.
    """
    found: dict[tuple, Rotation3] = {}
    for d in norm_equation(TAU, n):
        for g in (1, 2, 4):
            s = d * g
            for q in (_content4_quaternions if g == 4 else _primitive_quaternions)(s):
                m = _euler_rodrigues(q)
                if _form_content(s, m) != g:
                    continue
                rot = _er_rotation(m, s, g)
                if rot.den != d:
                    raise InvariantViolation(f"den of {q!r} is not {d!r}")
                key = rot.key()
                if key in found:
                    raise InvariantViolation(f"rotation of {q!r} listed twice")
                found[key] = rot
    return tuple(found[k] for k in sorted(found))


def _predicted_triples(bound: int) -> int:
    """Estimated component triples that enumerating norms 1..bound visits.

    For one s the loops visit about the Z[tau]^3 points of a product of two
    3-balls of squared radii emb(s) and emb'(s), (4 pi/3)^2 |N(s)|^1.5 / 5^1.5.
    Canonical d of norm n average 0.4304 per n (the residue of the Dedekind
    zeta function of Q(sqrt 5)), and s = g d over g = 1, 2, 4 weighs
    |N(d)|^1.5 by 1 + 8 + 3 = 12: at g = 4, N(s)^1.5 = 64 N(d)^1.5, and
    each of the three residue classes keeps 1/4 of the components, so
    3/64 of the triples; summing n^1.5 up to the bound gives
    bound^2.5 / 2.5.  Bounds past 10^9, far over any ceiling, are clamped
    so that the estimate stays a finite float.
    """
    per_s = (4 * math.pi / 3) ** 2 / 5 ** 1.5
    return math.ceil(per_s * 12 * 0.4304 * min(bound, 10 ** 9) ** 2.5 / 2.5)


def check_rotation_budget(bound: int) -> None:
    """Raise EnumerationBudgetExceeded if a scan to this bound is over the ceiling."""
    predicted = _predicted_triples(bound)
    if predicted > MAX_COMPONENT_TRIPLES:
        raise EnumerationBudgetExceeded(
            f"rotation enumeration predicts {predicted} component triples, "
            f"over the ceiling {MAX_COMPONENT_TRIPLES}")


# norm -> tuple of rotations; filled on demand, shared by every bound
_norm_cache: dict[int, tuple[Rotation3, ...]] = {}
_norm_cache_lock = threading.Lock()


def _rotations_by_norm(bound: int) -> dict[int, tuple[Rotation3, ...]]:
    """{n: every R with |N(den R)| = n} for n = 1..bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    check_rotation_budget(bound)
    with _norm_cache_lock:
        for n in range(1, bound + 1):
            if n not in _norm_cache:
                _norm_cache[n] = _rotations_of_norm(n)
        return {n: _norm_cache[n] for n in range(1, bound + 1)}


def enumerate_rotations(bound: int) -> tuple[Rotation3, ...]:
    """All R in SO(3, Q(tau)) with |N(den R)| <= bound, each exactly once."""
    return tuple(rot for rots in _rotations_by_norm(bound).values() for rot in rots)


def rotation_counts(bound: int) -> dict[int, int]:
    """Rotation count per denominator norm, for norms up to the bound."""
    return {n: len(rots) for n, rots in _rotations_by_norm(bound).items()}


def verify_rotation_counts(bound: int, expected: Mapping[int, int]) -> OracleReport:
    """Compare the rotation count per denominator norm to an expected profile.

    The scan factor 16 in the report is N(4), the proven bound on
    |N(|q|^2)| / |N(den R)| (module docstring).
    """
    counts = rotation_counts(bound)
    rows = tuple((m, counts[m], expected.get(m, 0)) for m in range(1, bound + 1))
    return OracleReport("cubic3", bound, rows, "|N(den)|={}: found {} != expected {}",
                        " (scan factor 16)")


def verify_cubic(bound: int) -> tuple[OracleReport, OracleReport]:
    """The cubic3 oracles against the catalog, for |N(den)| and n up to the bound.

    Rotation counts per denominator norm against 24 * phi-c, then the
    submodule counts at the cubes n^3 against f-cubic.  The rotation
    budget is checked before any coefficient table is built.
    """
    check_rotation_budget(bound)
    phi = catalog.phi_c(bound)
    rotations = verify_rotation_counts(bound, {m: 24 * phi.a(m) for m in range(1, bound + 1)})
    fc = catalog.f_cubic(bound ** 3)
    rows = tuple((n ** 3, count_submodules_3d(n ** 3), fc.a(n ** 3))
                 for n in range(1, bound + 1))
    return rotations, OracleReport("cubic3", bound ** 3, rows,
                                   "index {}: oracle {} != expected {}")


def _coset_key(rot: Rotation3):
    """The same key for R and R P, P any signed permutation (module docstring).

    (den, columns of mat): each column, as three (a, b) pairs, replaced by
    the larger of itself and its negative, and the three sorted.
    """
    den_pair, *m = rot.key()
    cols = []
    for j in range(3):
        col = (m[j], m[3 + j], m[6 + j])
        neg = tuple((-a, -b) for a, b in col)
        cols.append(max(col, neg))
    cols.sort()
    return den_pair, tuple(cols)


def _coset_representatives(rotations: Sequence[Rotation3]) -> list[Rotation3]:
    """The first R of each coset R {P : P signed permutation, det P = 1}.

    InvariantViolation if a coset does not have all 24 of its members.
    """
    cosets: dict[tuple, list[Rotation3]] = {}
    for rot in rotations:
        cosets.setdefault(_coset_key(rot), []).append(rot)
    for members in cosets.values():
        if len(members) != 24:
            raise InvariantViolation(
                f"rotation coset of {members[0]!r} has {len(members)} members, not 24")
    return [members[0] for members in cosets.values()]


def count_submodules_3d(m: int) -> int:
    """Distinct submodules alpha * den(R) * R * Z[tau]^3 of index m.

    m must be a cube n^3 >= 1; scales alpha run over canonical associates
    with |N(alpha)| * |N(den R)| = n.  R and R P give the same module for
    each of the 24 signed permutations P of determinant 1 (module
    docstring), so the rotations of each denominator norm are grouped into
    these cosets, every coset must have 24 members, and one Hermite basis
    over Z[tau] is reduced per (alpha, coset).  Distinct pairs are not
    assumed to give distinct modules: the count is that of distinct
    canonical bases, and each one's index is checked against m.
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    n = icbrt(m)
    if n ** 3 != m:
        raise ValueError(f"index {m} is not a cube")
    by_norm = _rotations_by_norm(n)
    seen = set()
    for dn in divisors(n):
        alphas = norm_equation(TAU, n // dn)
        if not alphas:
            continue
        for rot in _coset_representatives(by_norm[dn]):
            integral = rot.mat
            for alpha in alphas:
                cols = [tuple(alpha * integral[i][j] for i in range(3))
                        for j in range(3)]
                sub = hnf_over_ztau(cols)
                if sub.index != m:
                    raise InvariantViolation(
                        f"submodule index {sub.index} differs from {m}")
                seen.add(sub.basis)
    return len(seen)


def hnf_over_ztau(generators: Sequence[Sequence[QuadInt]]) -> Submodule:
    """Canonical upper-triangular Z[tau]-basis of the span of the generators.

    lattice.column_hnf over Z[tau], the reduction hnf_canonical runs over
    Z: pivots by |N(x)|, canonical associates on the diagonal, and
    nearest-quotient remainders off it, so the result is unique per module.
    """
    if not generators or any(len(g) != 3 for g in generators):
        raise ValueError("generators must be 3-vectors")
    if any(e.ring != TAU for g in generators for e in g):
        raise ValueError("generators must have golden-ratio entries")
    basis = column_hnf(generators, lambda x: abs(x.norm()), canonical_unit)
    return Submodule(Ambient.Z_TAU3_AS_ZTAU_MODULE, basis)


@dataclass(frozen=True)
class AffineSimilarity:
    """x -> scale * R x + translation, mapping Z[tau]^3 into itself."""

    scale: QuadInt
    rotation: Rotation3
    translation: tuple[QuadInt, QuadInt, QuadInt]

    def __post_init__(self):
        if self.scale % den(self.rotation):
            raise ValueError("scale must be divisible by den(R) "
                             "for the map to preserve the module")

    def linear_matrix(self):
        return _integral_matrix(self.rotation, self.scale)

    def apply(self, vector: Sequence[QuadInt]):
        mat = self.linear_matrix()
        return tuple(sum((mat[i][k] * vector[k] for k in range(3)), TAU.zero())
                     + self.translation[i]
                     for i in range(3))


def identity_affine() -> AffineSimilarity:
    zero = TAU.zero()
    return AffineSimilarity(TAU.one(), Rotation3.identity(), (zero, zero, zero))


def compose_affine(f: AffineSimilarity, g: AffineSimilarity) -> AffineSimilarity:
    """(v1, L1) then (v2, L2) composes to (v1 + L1 v2, L1 L2)."""
    l1 = f.linear_matrix()
    moved = tuple(sum((l1[i][k] * g.translation[k] for k in range(3)), TAU.zero())
                  + f.translation[i]
                  for i in range(3))
    return AffineSimilarity(f.scale * g.scale, f.rotation @ g.rotation, moved)

