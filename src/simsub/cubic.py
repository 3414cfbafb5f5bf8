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
canonical associate.  den(R) = s / g for g = gcd(s, entries of M(q)),
the content of q.  s +- M11 +- M22 +- M33 with an even number of minus
signs are 4a^2, 4b^2, 4c^2, 4d^2 for q = (a, b, c, d), and q is
primitive, so g | 4; as 2 is inert, g is 1, 2 or 4.  The entries of M(q)
are even off the diagonal and congruent to s mod 2 on it, so 2 | g iff
2 | s.  g = 4 iff a, b, c, d share one class lam mod 2, nonzero as q is
primitive: each is then lam + 2x, squaring to lam^2 mod 4, so 4 divides
s, the diagonal and (bc, ad, ... are lam^2 mod 2) the rest; conversely
4 | s + M11 = 2(a^2 + b^2) makes a^2, ..., d^2 congruent mod 2, and
squaring is one-to-one on the field Z[tau]/2.  So the rotations of
canonical denominator d come from exactly the primitive q with |q|^2 =
g d and content g in {1, 2, 4}, searched at 4d in the classes lam only,
and |N(s)| <= 16 |N(den R)| always.

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
has exactly 24 members, and one checked Rotation3 per coset checks them
all, the key of R P being read off that of R on integers.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Mapping, Sequence

from . import catalog
from .dirichlet import divisors, icbrt
from .errors import InvariantViolation
from .frozen import Frozen
from .lattice import (Ambient, EnumerationBudgetExceeded, OracleReport, Submodule, column_hnf,
                      hnf_canonical)
# canonical_associate is unused here; perfbench/tracer.py patches it by name.
from .quadratic import (  # noqa: F401
    QuadInt,
    TAU,
    canonical_associate,
    canonical_unit,
    coprime,
    exact_div,
    gcd as qgcd,
    is_canonical_associate,
    norm_equation,
    pair_mul,
    sign_embedding,
    squares_under,
)

# Ceiling on the predicted component triples of one rotation enumeration.
MAX_COMPONENT_TRIPLES = 10_000_000


class Rotation3(Frozen):
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
        if det not in (ddd, (-ddd[0], -ddd[1])):
            raise InvariantViolation("orthogonal matrix must have determinant +-1")
        if not coprime((den, *(e for row in mat for e in row))):
            raise InvariantViolation(f"{den!r} is not the least denominator")
        object.__setattr__(self, "det_sign", 1 if det == ddd else -1)
        object.__setattr__(self, "_key", ((den.a, den.b), *m))
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "den", den)

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


# (perm, signs, det P) for the 48 signed permutation matrices P, with
# P[i][perm[i]] = signs[i] and zeros elsewhere
_SIGNED_PERMUTATIONS = tuple(
    (perm, signs, (-1) ** sum(perm[x] > perm[y] for x, y in itertools.combinations(range(3), 2))
     * math.prod(signs))
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3))


def signed_permutations(ring=TAU, det_sign: int | None = None):
    """The 48 signed permutation matrices (24 per determinant sign)."""
    for perm, signs, det in _SIGNED_PERMUTATIONS:
        if det_sign is None or det == det_sign:
            yield Rotation3.from_int_rows(
                [[signs[i] if j == perm[i] else 0 for j in range(3)] for i in range(3)], ring)


class QuatTau(Frozen):
    """Primitive quaternion with Z[tau] components."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[QuadInt, QuadInt, QuadInt, QuadInt]) -> None:
        if any(c.ring != TAU for c in components):
            raise ValueError("quaternion components must live in the tau ring")
        if not any(components):
            raise ValueError("zero quaternion")
        if not coprime(components):
            raise ValueError("quaternion is not primitive")
        object.__setattr__(self, "components", components)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash((self.components,))

    def __repr__(self) -> str:
        return f"QuatTau(components={self.components!r})"

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


def _content(q, s: QuadInt) -> int:
    """gcd(s, entries of M(q)) for a primitive q with |q|^2 = s, read off q mod 2.

    4 if the four components share one class mod 2 (nonzero, as q is
    primitive), else 2 if 2 | s, else 1 (module docstring).
    """
    if len({(c.a % 2, c.b % 2) for c in q}) == 1:
        return 4
    return 2 if s.a % 2 == 0 and s.b % 2 == 0 else 1


def _er_rotation(m, d: QuadInt) -> Rotation3:
    """The rotation m / d for nine (a, b) pairs m, row by row, with d made
    canonical by _canonical_rotation; InvariantViolation unless det = 1."""
    rot = _canonical_rotation([QuadInt(a, b, TAU) for a, b in m], d)
    if rot.det_sign != 1:
        raise InvariantViolation("Euler-Rodrigues matrix must have determinant 1")
    return rot


def quat_to_rotation(q: QuatTau) -> Rotation3:
    """Exact Euler-Rodrigues rotation of a primitive quaternion:
    M(q) / s = (M(q) / g) / (s / g) for s = |q|^2 and its content g."""
    s = q.norm_sq()
    g = _content(q.components, s)
    return _er_rotation([(a // g, b // g) for a, b in _euler_rodrigues(q.components)],
                        QuadInt(s.a // g, s.b // g, TAU))


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
    w1, w2 = TAU.omega_float, TAU.omega_conj_float
    return [(QuadInt(*x, TAU), qa, qb, qa + qb * w1, qa + qb * w2)
            for x, (qa, qb) in squares_under(TAU, (s.a, s.b))]


def _primitive_quaternions(s: QuadInt, lam: tuple[int, int] | None = None
                           ) -> list[tuple[QuadInt, QuadInt, QuadInt, QuadInt]]:
    """Every primitive q in Z[tau]^4 with |q|^2 = s exactly, one of each pair +-q;
    with lam, only those with every component congruent to a + b tau mod 2
    for lam = (a, b).

    Three nested loops run over components whose squares fit under s in
    both embeddings (floats only prune partial sums, with padding); the
    fourth component is the exact square root of what is left, looked up
    in a dict of squares.  The first nonzero component of each listed q
    has positive real embedding.
    """
    comps = _components(s)
    if lam is not None:
        comps = [c for c in comps if (c[0].a % 2, c[0].b % 2) == lam]
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


def _coset_keys(key) -> set[tuple]:
    """The keys of R P for the 24 signed permutations P of determinant 1,
    from the key of R: mat P has signs[k] mat[r][k] at (r, perm[k])."""
    den_pair, *m = key
    out = set()
    for perm, signs, det in _SIGNED_PERMUTATIONS:
        if det == 1:
            image = [None] * 9
            for k in range(3):
                sk = signs[k]
                for r in range(3):
                    a, b = m[3 * r + k]
                    image[3 * r + perm[k]] = (sk * a, sk * b)
            out.add((den_pair, *image))
    return out


def _rotations_of_norm(n: int) -> tuple[Rotation3, ...]:
    """One R per coset R {P} of the rotations with |N(den R)| = n, the
    least by R.key(), sorted by key.

    R.key() is the canonical form (den, mat) on integers.

    For each canonical d of norm n and g in (1, 2, 4), the primitive q with
    |q|^2 = g * d and content g give den = d and mat = M(q) / g; by the
    argument in the module docstring no other q does.  For g = 4 only the
    three nonzero residue classes mod 2 are searched.  The least key left
    is built as a checked Rotation3, and the 24 keys of its coset must all
    have been found; InvariantViolation for a key found twice or a coset
    with a member missing.
    """
    found: set[tuple] = set()
    for d in norm_equation(TAU, n):
        for g in (1, 2, 4):
            s = d * g
            for lam in (((1, 0), (0, 1), (1, 1)) if g == 4 else (None,)):
                for q in _primitive_quaternions(s, lam):
                    if _content(q, s) != g:
                        continue
                    key = ((d.a, d.b), *((a // g, b // g) for a, b in _euler_rodrigues(q)))
                    if key in found:
                        raise InvariantViolation(f"rotation of {q!r} listed twice")
                    found.add(key)
    reps = []
    for key in sorted(found):
        if key not in found:
            continue  # a member of an earlier coset
        rot = _er_rotation(key[1:], QuadInt(*key[0], TAU))
        coset = _coset_keys(key)
        if len(coset) != 24 or not coset <= found:
            raise InvariantViolation(
                f"rotation coset of {rot!r} has {len(coset & found)} members, not 24")
        found -= coset
        reps.append(rot)
    return tuple(reps)


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


# norm -> coset representatives; filled on demand, shared by every bound
_norm_cache: dict[int, tuple[Rotation3, ...]] = {}
_norm_cache_lock = threading.Lock()


def _rotations_by_norm(bound: int) -> dict[int, tuple[Rotation3, ...]]:
    """{n: _rotations_of_norm(n)}, one R per coset R {P}, for n = 1..bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    check_rotation_budget(bound)
    with _norm_cache_lock:
        for n in range(1, bound + 1):
            if n not in _norm_cache:
                _norm_cache[n] = _rotations_of_norm(n)
        return {n: _norm_cache[n] for n in range(1, bound + 1)}


def enumerate_rotations(bound: int) -> tuple[Rotation3, ...]:
    """All R in SO(3, Q(tau)) with |N(den R)| <= bound, each exactly once,
    by |N(den R)| and then by R.key().

    Each is built as a checked Rotation3 from the key of R P, for R a coset
    representative and P a signed permutation of determinant 1.
    """
    return tuple(_er_rotation(key[1:], QuadInt(*key[0], TAU))
                 for reps in _rotations_by_norm(bound).values()
                 for key in sorted(k for rep in reps for k in _coset_keys(rep.key())))


def rotation_counts(bound: int) -> dict[int, int]:
    """Rotation count per denominator norm, for norms up to the bound: 24 per coset."""
    return {n: 24 * len(reps) for n, reps in _rotations_by_norm(bound).items()}


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


def count_submodules_3d(m: int) -> int:
    """Distinct submodules alpha * den(R) * R * Z[tau]^3 of index m.

    m must be a cube n^3 >= 1; scales alpha run over canonical associates
    with |N(alpha)| * |N(den R)| = n.  R and R P give the same module for
    each of the 24 signed permutations P of determinant 1 (module
    docstring), so one Hermite basis over Z[tau] is reduced per alpha and
    coset representative R.  Distinct pairs are not assumed to give
    distinct modules: the count is that of distinct canonical bases, and
    each one's index is checked against m.
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
        for rot in by_norm[dn]:
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


class AffineSimilarity(Frozen):
    """x -> scale * R x + translation, mapping Z[tau]^3 into itself."""

    __slots__ = ("scale", "rotation", "translation")

    def __init__(self, scale: QuadInt, rotation: Rotation3,
                 translation: tuple[QuadInt, QuadInt, QuadInt]) -> None:
        if scale % den(rotation):
            raise ValueError("scale must be divisible by den(R) "
                             "for the map to preserve the module")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.scale, self.rotation, self.translation)
                == (other.scale, other.rotation, other.translation))

    def __hash__(self) -> int:
        return hash((self.scale, self.rotation, self.translation))

    def __repr__(self) -> str:
        return (f"AffineSimilarity(scale={self.scale!r}, rotation={self.rotation!r}, "
                f"translation={self.translation!r})")

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

