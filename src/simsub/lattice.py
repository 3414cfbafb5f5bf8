"""Brute-force sublattice enumeration and the oracle counts.

Full-rank sublattices of Z^r of index m are enumerated through their
column Hermite normal form: upper-triangular basis, positive diagonal
with product m, off-diagonal entries of row i reduced mod the diagonal
entry d_i.  Invariance under ring multiplier actions is tested one basis
at a time by exact back substitution (`is_invariant`).  The ideals of the
rings come from Hermite forms over the real quadratic ring R = Z[tau] or
Z[sqrt2] instead, in one walk: of rank 1 for Z[tau] itself, of rank 2
for Z[i,tau] and Z[i,sqrt2].  Both ranks take their diagonal entries
from a table of canonical associates by norm (one integer walk over the
norms the indices need, `quadratic._canonical_by_norm`), and neither
reads a catalog series or a closed form of the count.  The principal
ideals of the rank-4 rings come from a third walk, over their generators.

One Hermite normal form.  Z and Z[tau] are both norm-Euclidean, so one
column reduction, `column_hnf`, serves both: `hnf_canonical` runs it over
Z and `cubic.hnf_over_ztau` over Z[tau].  The rings differ only in the
pivot size and the canonical associate, which `Submodule` checks by one rule.

Hermite forms over Z[tau], rank 1.  R = Z[tau] is Euclidean, so a PID,
and each nonzero ideal is d R for some d.  d is unique up to a unit, so
exactly one generator is a canonical associate
(`quadratic.is_canonical_associate`).  Multiplication by d is Z-linear
on R = Z + Z tau with determinant N(d), so d R has index |N(d)| = N(d),
as canonical associates have positive norm.  So the ideals of index m
and the canonical d of norm m correspond one to one, and their count is
the length of the table's entry m.  The Z-HNF [[h, k], [0, l]] of d R in
the basis (1, tau) is that of the Z-span of d and tau d.

Hermite forms over Z[w], rank 2.  Let R = Z[w], w = tau or sqrt2, and
identify Z[i,w] = R + R i with R^2 by P + i Q -> (P, Q); in the basis
(1, i, w, i w) the pair (P, Q) has the Z-coordinates (P_a, Q_a, P_b,
Q_b).  An ideal of index m is an R-submodule M of R^2 of index m with
i M in M, where i (P, Q) = (-Q, P).  R is Euclidean, so a PID.  Proof that each M has
exactly one form [[d1, x], [0, d2]], with columns (d1, 0) and (x, d2):

- the second coordinates of M form a nonzero ideal d2 R, and the first
  coordinates of M meet R x 0 in a nonzero ideal d1 R (m (1, 0) lies in
  M); with d1 and d2 canonical associates, both are unique;
- for any (x, d2) in M, M = R (d1, 0) + R (x, d2): a vector (P, Q) of M
  has Q = beta d2, and (P, Q) - beta (x, d2) lies in M and in R x 0;
- (x', d2) lies in M iff (x' - x, 0) does, that is iff d1 | x' - x, so x
  is unique in any fixed residue system mod d1 R;
- conversely, any canonical d1, d2 and any x span a module with exactly
  these invariants: alpha (d1, 0) + beta (x, d2) has second coordinate
  beta d2, which is 0 only for beta = 0.

So the modules of finite index and the triples (d1, d2, x mod d1)
correspond one to one.  R^2 / M is an extension of R / d2 R by R / d1 R,
so the index is N(d1) N(d2); canonical associates have positive norm.
A residue system mod d R is the box 0 <= a < h, 0 <= b < l of the pairs
(a, b) = a + b w, for the integer HNF [[h, k], [0, l]] of d R in the
basis (1, w), h l = N(d): subtracting a multiple of (k, l) and then one
of (h, 0) moves any pair into the box, and two box pairs that differ by
a vector of d R have the same b (the difference of b is a multiple of l
below l) and then the same a.  And d | z iff z = s (h, 0) + t (k, l).

M is i-stable iff i, which is R-linear, maps both generators into M,
and (u, v) lies in M iff d2 | v and d1 | u - (v / d2) x.  So i (d1, 0)
needs d2 | d1 and i (x, d2) = (-d2, x) needs d2 | x.  Let d2 e, e
canonical, stand for d1 (it spans d1 R) and x = d2 y: y mod e maps one
to one onto the x mod d1 with d2 | x, as R is a domain.  Then i (d1, 0)
= (0, d2 e) lies in M, as u - e x = -d1 y, and i (x, d2) = (-d2, d2 y)
lies in M iff d1 | -d2 (1 + y^2), that is iff e | y^2 + 1.  The walk
takes d2 and e with N(d2)^2 N(e) = m from the norm table, finds the
roots y in the box of each e once, by one exact division per y, and
yields (d1, 0), w (d1, 0), (x, d2) and w (x, d2) in the basis
(1, i, w, i w).  For Z[i,tau] to 80 it tests 1,506 y for 35 ideals.

One walk for both ranks.  `_forms` yields, for each ideal, its index m
and the integer columns named above: d and tau d at rank 1, the four
columns of the Hermite form at rank 2.  `_counts` counts them, and
`_ideals` takes the Z-HNF of each by `hnf_canonical`, checks that its
diagonal product is m, keeps one basis per ideal, and sorts the ideals
of an index by diagonal, then in flat HNF order; for Z[tau] that is by
(h, l), then by k.  Rank 1 reads only the norms of its indices, so it
walks the table over [first index, last index]; rank 2 reads the norms
m / n^2 and n, so it walks the table from norm 1.

Principal ideals over Z[w], rank 2.  Let O = Z[i,w] = R + R i.  Complex
conjugation fixes R, so alpha = P + Q i has the relative norm
alpha conj(alpha) = P^2 + Q^2 in R, which generates the R-ideal
N(alpha O), and [O : alpha O] is its norm to Z.  Each real embedding of
R extends to a complex one of O that maps conj to complex conjugation,
so both embeddings of P^2 + Q^2 are squared absolute values: for
alpha != 0 it is totally positive, of norm [O : alpha O] > 0.  The
fundamental unit mu (tau, or 1 + sqrt2) has norm -1, so the totally
positive units of R are the mu^(2l), and the canonical associate of
P^2 + Q^2 is (P^2 + Q^2) mu^(2l) = N(alpha mu^l) for one l: each
principal ideal of index m has a generator with P^2 + Q^2 = d, for the
one canonical d of norm m associate to the relative norm of any of its
generators.  The units of O are the i^k mu^l (see
`quartic.quartic_unit_normal_form`), of relative norm mu^(2l), so the
generators with relative norm d are exactly the alpha i^k: +-alpha and
+-i alpha, four per ideal.  Conversely every P + Q i with P^2 + Q^2 = d
generates an ideal of index N(d) = m.  Q^2 is totally >= 0, so d - P^2
is too, and both embeddings of P are at most the square roots of those
of d in size: one finite box per d (`quadratic.root_box`, floats only
size it).  `_principal_forms` keeps the box pairs P with d - P^2 totally
>= 0, by the exact `pair_sign` of both embeddings
(`quadratic.squares_under`), keys them by P^2, and for each key looks up
d - P^2 among the keys: the Q of the key found are the partners of
every P of the key.  It yields the
columns of regular_rep(P + Q i), that is alpha times 1, i, w and i w,
and `_ideals` takes them to one basis per ideal.  An ideal I of index n
is principal iff some generator alpha of the walk at n lies in I: then
alpha O lies in I and has its index, so it is I (`is_principal`).

The budget.  `max_candidates` bounds the work of the walk, which `_forms`
counts exactly before it does it: the rows and entries of the norm table
(`quadratic.norm_table_pairs`: one step per row of the cone walk that
builds the table, counted in closed form, plus the row lengths, each
row exactly its entries), plus at rank 2 the y the root search tests,
the sum of h l = N(e) over the distinct e of the walk, read off the
integer HNFs of the e.  The table's work is counted before the table is
built, and the count stops at the first row that passes the ceiling, so
a huge index or range is refused at once, with no float of it.  A lower
bound of the y is checked before the table too: the rational integer n
is a canonical associate (totally positive, embedding ratio 1) of norm
n^2, so at each index n^2 the walk meets e = n, with n^2 y in its box.
The sum is checked as the HNFs are built, after the table and before
the first y is tested.  So no walk does more than max_candidates steps,
and a range far over it is refused before its table is built.

The principal walk counts the table's rows and entries, then, after the
table and before the first pair, the pairs of each d's box.  Before the
table it checks a lower bound of the boxes.  A canonical d of norm N has
embedding ratio in [1, mu^4) and product N, so its smaller embedding is
over sqrt(N) / mu^2 > sqrt(N) / 6 (mu^2 is about 2.62 and 5.83).  With
s = isqrt(isqrt(N // 2916)), 9 s^2 <= sqrt(N) / 6; |w| and |w'| are
below 2 in both rings, so each P = a + b w with |a|, |b| <= s has both
embeddings at most 3 s in size, P^2 <= d, and P lies in the box of d:
(2 s + 1)^2 pairs.  The walk counts them for each d of norm in
[max(lo, hi // 2), hi], at the least norm, when its indices are all of
lo..hi (at hi alone otherwise), from the entry counts of the cone rows,
before the table is built.
The Z-HNF count bounds only `hnf_sublattices`, which lists Z-HNF bases.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from enum import Enum
from typing import Callable, Iterator, Sequence

from . import catalog
from .dirichlet import divisors
from .errors import InvariantViolation
from .frozen import Frozen
from .parallel import map_ordered
from .quadratic import (SQRT2, TAU, _canonical_by_norm, _norm_rows, is_canonical_associate,
                        norm_table, norm_table_pairs, pair_mul, root_box, squares_under)
from .quartic import ISQRT2, ITAU, regular_rep

DEFAULT_MAX_CANDIDATES = 10_000_000


class EnumerationBudgetExceeded(RuntimeError):
    """Predicted candidate count exceeds the configured ceiling."""


class Ambient(Enum):
    """Which module a basis matrix describes."""

    Z_TAU_AS_Z2 = "ztau"           # Z[tau] over basis (1, tau)
    Z_ITAU_AS_Z4 = "zitau"         # Z[i,tau] over basis (1, i, tau, i*tau)
    Z_ISQRT2_AS_Z4 = "zisqrt2"     # Z[i,sqrt2] over basis (1, i, sqrt2, i*sqrt2)
    Z_TAU3_AS_ZTAU_MODULE = "ztau3"  # rank-3 free module over Z[tau]


class MultiplierAction(Frozen):
    """Integer matrix of multiplication by a ring generator; minimal_poly
    lists its coefficients from the constant term up."""

    __slots__ = ("name", "matrix", "minimal_poly")

    def __init__(self, name: str, matrix: tuple[tuple[int, ...], ...],
                 minimal_poly: tuple[int, ...]) -> None:
        r = len(matrix)
        acc = [[0] * r for _ in range(r)]
        power = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for c in minimal_poly:
            for i in range(r):
                for j in range(r):
                    acc[i][j] += c * power[i][j]
            power = [[sum(matrix[i][k] * power[k][j] for k in range(r))
                      for j in range(r)] for i in range(r)]
        if any(v for row in acc for v in row):
            raise ValueError(f"action {name} violates its minimal polynomial")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "minimal_poly", minimal_poly)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.matrix, self.minimal_poly)
                == (other.name, other.matrix, other.minimal_poly))

    def __hash__(self) -> int:
        return hash((self.name, self.matrix, self.minimal_poly))

    def __repr__(self) -> str:
        return (f"MultiplierAction(name={self.name!r}, matrix={self.matrix!r}, "
                f"minimal_poly={self.minimal_poly!r})")


_TAU_ACTION_2 = MultiplierAction(
    "tau", ((0, 1), (1, 1)), minimal_poly=(-1, -1, 1))

_I_ACTION_4 = MultiplierAction(
    "i",
    ((0, -1, 0, 0),
     (1, 0, 0, 0),
     (0, 0, 0, -1),
     (0, 0, 1, 0)),
    minimal_poly=(1, 0, 1))

_TAU_ACTION_4 = MultiplierAction(
    "tau",
    ((0, 0, 1, 0),
     (0, 0, 0, 1),
     (1, 0, 1, 0),
     (0, 1, 0, 1)),
    minimal_poly=(-1, -1, 1))

_SQRT2_ACTION_4 = MultiplierAction(
    "sqrt2",
    ((0, 0, 2, 0),
     (0, 0, 0, 2),
     (1, 0, 0, 0),
     (0, 1, 0, 0)),
    minimal_poly=(-2, 0, 1))

_ACTIONS = {
    Ambient.Z_TAU_AS_Z2: (_TAU_ACTION_2,),
    Ambient.Z_ITAU_AS_Z4: (_TAU_ACTION_4, _I_ACTION_4),
    Ambient.Z_ISQRT2_AS_Z4: (_SQRT2_ACTION_4, _I_ACTION_4),
}

# the real quadratic ring R of each ring ambient, and its quartic ring R + R i (None for R itself)
_RING_AMBIENTS = {
    Ambient.Z_TAU_AS_Z2: (TAU, None),
    Ambient.Z_ITAU_AS_Z4: (TAU, ITAU),
    Ambient.Z_ISQRT2_AS_Z4: (SQRT2, ISQRT2),
}


def _ring(ambient: Ambient) -> tuple:
    """(R, quartic ring or None) of a ring ambient; ValueError for any other ambient."""
    if ambient not in _RING_AMBIENTS:
        raise ValueError(f"{ambient} is not a ring ambient")
    return _RING_AMBIENTS[ambient]


def ambient_rank(ambient: Ambient) -> int:
    """Z-rank: 2 for Z[tau], 4 for the quartic rings, 6 for Z[tau]^3."""
    if ambient is Ambient.Z_TAU3_AS_ZTAU_MODULE:
        return 6
    return 2 if _ring(ambient)[1] is None else 4


def ambient_actions(ambient: Ambient) -> tuple[MultiplierAction, ...]:
    return _ACTIONS[ambient]


# (size, canonical diagonal test) over Z, and over Z[tau] for the rank-3 module
_INTEGERS = (abs, lambda d: d > 0)
_RINGS = {
    Ambient.Z_TAU3_AS_ZTAU_MODULE: (lambda x: abs(x.norm()), is_canonical_associate),
}


class Submodule(Frozen):
    """Full-rank submodule in canonical column HNF.

    basis[i][j] is the row-i entry of the j-th basis vector; entries are
    plain integers except for the rank-3 module over Z[tau], where they
    are QuadInt.  Over both rings the basis is upper triangular, each
    diagonal d is canonical and each b right of it has divmod(b, d)[0] == 0.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: Ambient | None, basis: tuple[tuple, ...]) -> None:
        r = len(basis)
        if any(len(row) != r for row in basis):
            raise ValueError("basis must be square")
        canonical = _RINGS.get(ambient, _INTEGERS)[1]
        for i, row in enumerate(basis):
            if not canonical(row[i]):
                raise ValueError("diagonal entries must be canonical")
            if any(row[:i]):
                raise ValueError("basis must be upper triangular")
            if any(divmod(b, row[i])[0] for b in row[i + 1:]):
                raise ValueError("off-diagonal entries must be reduced")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient, self.basis) == (other.ambient, other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Submodule(ambient={self.ambient!r}, basis={self.basis!r})"

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        size = _RINGS.get(self.ambient, _INTEGERS)[0]
        return math.prod(size(row[i]) for i, row in enumerate(self.basis))

    def contains(self, vector: Sequence) -> bool:
        """Exact membership by back substitution on the triangular basis."""
        r = self.rank
        w = list(vector)
        for i in range(r - 1, -1, -1):
            q, rem = divmod(w[i], self.basis[i][i])
            if rem:
                return False
            for i2 in range(i):
                w[i2] = w[i2] - q * self.basis[i2][i]
        return True


def column_hnf(columns: Sequence[Sequence], size: Callable,
               unit: Callable) -> tuple[tuple, ...]:
    """Canonical column HNF over a norm-Euclidean ring: Z or Z[tau].

    Rows are cleared bottom up by Euclid's algorithm, dividing by the live
    entry of least size; unit(pivot) makes each diagonal entry canonical,
    and an entry x right of a diagonal d is reduced by divmod(x, d)[0]: the
    floor over Z, the nearest quotient over Z[tau].  The result is unique,
    whatever the pivot order.  ValueError on empty or rank-deficient input.
    """
    active = [list(c) for c in columns]
    if not active:
        raise ValueError("no columns")
    r = len(active[0])
    pivots: list[list | None] = [None] * r
    for i in range(r - 1, -1, -1):
        live = [c for c in active if c[i]]
        active = [c for c in active if not c[i]]
        while len(live) > 1:
            live.sort(key=lambda c: size(c[i]))
            piv = live[0]
            for c in live[1:]:
                q = divmod(c[i], piv[i])[0]
                for k in range(r):
                    c[k] = c[k] - q * piv[k]
            active += [c for c in live if not c[i]]
            live = [c for c in live if c[i]]
        if not live:
            raise ValueError("columns do not span full rank")
        u = unit(live[0][i])
        pivots[i] = [x * u for x in live[0]]
    # reduce off-diagonal entries, lower pivot rows first
    for j in range(r):
        col = pivots[j]
        for i in range(j - 1, -1, -1):
            q = divmod(col[i], pivots[i][i])[0]
            if q:
                for k in range(i + 1):
                    col[k] = col[k] - q * pivots[i][k]
    return tuple(tuple(pivots[j][i] for j in range(r)) for i in range(r))


def hnf_canonical(columns: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical column HNF of the integer lattice spanned by the columns.

    Input columns must span full rank; returns the unique upper-triangular
    basis with positive diagonal and off-diagonal entries in [0, d_i).  It
    is column_hnf over Z, the reduction hnf_over_ztau runs over Z[tau].
    """
    if len({len(c) for c in columns}) > 1:
        raise ValueError("ragged columns")
    return column_hnf(columns, abs, lambda x: -1 if x < 0 else 1)


def ordered_diagonals(m: int, r: int) -> Iterator[tuple[int, ...]]:
    """All ordered r-tuples of positive integers with product m."""
    if r == 1:
        yield (m,)
        return
    for d in divisors(m):
        for rest in ordered_diagonals(m // d, r - 1):
            yield (d,) + rest


def hnf_candidate_count(rank: int, m: int) -> int:
    """Number of index-m HNF bases of Z^rank (sigma_1(m) for rank 2), in closed form.

    An HNF diagonal (d_0, ..., d_{r-1}) with product m holds
    prod_i d_i^(r-1-i) bases, so the count is the Dirichlet convolution of
    the r functions d -> d^k, k = 0..r-1.  Each is completely
    multiplicative, so the count is multiplicative, and at p^e it is
    sum over e_0 + ... + e_{r-1} = e of prod_k p^(k e_k) = h_e(1, p, ...,
    p^(r-1)), the complete homogeneous polynomial.  By the q-binomial
    theorem, prod_{k<r} 1 / (1 - q^k x) = sum_e [e+r-1 choose r-1]_q x^e, so
    h_e(1, q, ..., q^(r-1)) is the Gaussian binomial
    prod_{i=1}^{r-1} (q^(e+i) - 1) / (q^i - 1).  Its partial product to i is
    [e+i choose i]_q, a polynomial in q with integer coefficients, so every
    step of the product below divides exactly.  Rank 1 is the empty
    product, 1, and factors nothing.
    """
    if rank == 1:
        return 1
    count, p = 1, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            count *= _gaussian_binomial(p, e, rank)
        p += 1
    return count * _gaussian_binomial(m, 1, rank) if m > 1 else count


def _gaussian_binomial(q: int, e: int, rank: int) -> int:
    """[e+rank-1 choose rank-1]_q, the count of index-q^e HNF bases of Z^rank."""
    value = 1
    for i in range(1, rank):
        value = value * (q ** (e + i) - 1) // (q ** i - 1)
    return value


def hnf_candidates_over(rank: int, m: int, ceiling: int) -> bool:
    """Whether Z^rank has more than ceiling HNF bases of index m.

    The diagonal (m, 1, ..., 1) alone holds m^(rank-1) bases (the rank - 1
    entries right of d_0 = m run over [0, m), all others are 0), so past
    that bound no factoring of m is needed; a 4,000-digit m would take it
    forever.
    """
    return m ** (rank - 1) > ceiling or hnf_candidate_count(rank, m) > ceiling


def _refuse_if(over: bool, max_candidates: int) -> None:
    """Raise EnumerationBudgetExceeded if the predicted work is over max_candidates."""
    if over:
        # names no count: a bound for a 4,000-digit index is past the int-to-str limit
        raise EnumerationBudgetExceeded(f"predicted candidates exceed ceiling {max_candidates}; "
                                        f"raise max_candidates to proceed")


@functools.lru_cache(maxsize=8)
def _positions(r: int) -> tuple[tuple[int, int], ...]:
    """Strictly-upper HNF positions in flat enumeration order."""
    return tuple((i, j) for j in range(1, r) for i in range(j))


def hnf_sublattices(rank: int, m: int, ambient: Ambient | None = None,
                    max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list[Submodule]:
    """All index-m sublattices of Z^rank, each exactly once, in HNF."""
    if rank not in (1, 2, 4, 6):
        raise ValueError("rank must be one of 1, 2, 4, 6")
    if m < 1:
        raise ValueError("index must be >= 1")
    _refuse_if(hnf_candidates_over(rank, m, max_candidates), max_candidates)
    positions = _positions(rank)
    out = []
    for diag in ordered_diagonals(m, rank):
        basis = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
        for digits in itertools.product(*(range(diag[i]) for i, _ in positions)):
            for (i, j), v in zip(positions, digits):
                basis[i][j] = v
            out.append(Submodule(ambient, tuple(tuple(row) for row in basis)))
    return out


def is_invariant(sub: Submodule, actions: Sequence[MultiplierAction]) -> bool:
    """True iff every action maps every basis vector back into the lattice."""
    r = sub.rank
    for act in actions:
        if len(act.matrix) != r:
            raise ValueError("action dimension does not match submodule rank")
        for j in range(r):
            col = [sub.basis[i][j] for i in range(r)]
            image = [sum(act.matrix[i][k] * col[k] for k in range(r)) for i in range(r)]
            if not sub.contains(image):
                return False
    return True


# ---------------------------------------------------------------------------
# ideals: Hermite forms over Z[tau] and Z[w]


def _multiples_hnf(d, c1, c0):
    """(h, k, l) of the integer HNF [[h, k], [0, l]] of d Z[w], in the basis (1, w)."""
    (h, k), (_, l) = hnf_canonical([d, pair_mul(d, (0, 1), c1, c0)])
    return h, k, l


def _is_multiple(z, hnf) -> bool:
    """Whether the pair z = (a, b) lies in d Z[w], given the integer HNF (h, k, l) of d Z[w].

    z = s (h, 0) + t (k, l) needs the integer t = b / l, then the integer
    s = (a - t k) / h.
    """
    h, k, l = hnf
    a, b = z
    return not (b % l or (a - b // l * k) % h)


def _square_parts(indices: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(m, n, m / n^2) for each m of the indices and each n >= 1 with n^2 | m."""
    return ((m, n, m // (n * n)) for m in indices for n in range(1, math.isqrt(m) + 1)
            if m % (n * n) == 0)


def _window(indices: Sequence[int]) -> tuple[int, int]:
    """(first, last) of the increasing indices, (1, 0) for none; ValueError below 1."""
    lo, hi = (indices[0], indices[-1]) if indices else (1, 0)
    if lo < 1:
        raise ValueError("index must be >= 1")
    return lo, hi


def _forms(ambient: Ambient, indices: Sequence[int], max_candidates: int):
    """(m, columns) of each ideal of the increasing indices, index by index.

    The columns are integer vectors, in the basis of the ambient, whose
    Z-span is the ideal.  For Z[tau] they are d and tau d for each canonical
    d of norm m; see "Hermite forms over Z[tau], rank 1" in the module
    docstring.  For a rank-4 ring they are (d1, 0), w (d1, 0), (x, d2) and
    w (x, d2) for each Hermite form [[d1, x], [0, d2]] over Z[w]; see
    "Hermite forms over Z[w], rank 2".  There d1 = d2 e and x = d2 y, and
    each y of the box of e is tested for e | y^2 + 1 once per call.  Within
    an index the forms come in no fixed order.  Before the first form it
    raises EnumerationBudgetExceeded as "The budget" in the module
    docstring states, and ValueError for an index below 1 or an ambient
    that is not a ring.
    """
    quad, ring = _ring(ambient)
    lo, limit = _window(indices)
    c1, c0 = quad.c1, quad.c0
    if ring is None:
        _refuse_if(norm_table_pairs(quad, limit, max_candidates, lo) > max_candidates,
                   max_candidates)
        table = _canonical_by_norm(quad, lo, limit)
        yield from ((m, (d, pair_mul(d, (0, 1), c1, c0)))
                    for m in indices for d in table.get(m, ()))
        return
    work = norm_table_pairs(quad, limit, max_candidates)
    _refuse_if(work > max_candidates, max_candidates)
    # a lower bound of the y: at each index n^2 the walk meets e = n
    _refuse_if(work + sum(n * n for n in range(1, math.isqrt(limit) + 1)
                          if n * n in indices) > max_candidates, max_candidates)
    table = norm_table(quad, limit)
    hnfs = {}  # e -> the integer HNF (h, k, l) of e R; the root search tests h l y
    for _, _, k in _square_parts(indices):
        for e in table[k]:
            if e not in hnfs:
                h, _, l = hnfs[e] = _multiples_hnf(e, c1, c0)
                work += h * l
                _refuse_if(work > max_candidates, max_candidates)
    # e | y^2 + 1 for y = a + b w, y^2 = (a^2 + c0 b^2) + (2 a + c1 b) b w
    roots = {e: [(a, b) for a in range(hnf[0]) for b in range(hnf[2]) if _is_multiple(
        (a * a + c0 * b * b + 1, (2 * a + c1 * b) * b), hnf)] for e, hnf in hnfs.items()}
    for m, n2, k in _square_parts(indices):
        for e in table[k]:
            for d2 in table[n2]:
                d1 = pair_mul(d2, e, c1, c0)
                d1w, d2w = (pair_mul(p, (0, 1), c1, c0) for p in (d1, d2))
                for y in roots[e]:
                    x = pair_mul(d2, y, c1, c0)
                    xw = pair_mul(x, (0, 1), c1, c0)
                    yield m, ((d1[0], 0, d1[1], 0), (d1w[0], 0, d1w[1], 0),
                              (x[0], d2[0], x[1], d2[1]), (xw[0], d2w[0], xw[1], d2w[1]))


def _ideals(ambient: Ambient, forms) -> Iterator[Submodule]:
    """The ideals of the forms of `_forms`, index by index, each index sorted
    by diagonal, then in flat HNF order.

    Each form becomes the Z-HNF of its columns, whose index is checked
    against m; forms that span one ideal (the four generators of a
    principal ideal) give it once.
    """
    positions = _positions(ambient_rank(ambient))
    for m, group in itertools.groupby(forms, key=lambda f: f[0]):
        bases = set()
        for _, columns in group:
            basis = hnf_canonical(columns)
            if math.prod(row[i] for i, row in enumerate(basis)) != m:
                raise InvariantViolation(f"ideal spanned by {columns} has index other than {m}")
            bases.add(basis)
        for basis in sorted(bases, key=lambda b: (tuple(row[i] for i, row in enumerate(b)),
                                                  tuple(b[i][j] for i, j in positions))):
            yield Submodule(ambient, basis)


def _counts(forms, indices: Sequence[int]) -> list[int]:
    """The number of forms (m, ...) of each of the indices, all forms taken
    before the list of the indices is made."""
    counts = Counter(m for m, _ in forms)
    return [counts[m] for m in indices]


def count_ideals(ambient: Ambient, m: int,
                 max_candidates: int = DEFAULT_MAX_CANDIDATES) -> int:
    """Number of index-m sublattices invariant under all ring generators."""
    return _counts(_forms(ambient, (m,), max_candidates), (m,))[0]


def list_ideals(ambient: Ambient, m: int,
                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list[Submodule]:
    """Ideals of index m, sorted by diagonal, then in flat HNF order."""
    return list(_ideals(ambient, _forms(ambient, (m,), max_candidates)))


# ---------------------------------------------------------------------------
# principal ideals: generators P + Q i with P^2 + Q^2 = d


def _principal_forms(ambient: Ambient, indices: Sequence[int], max_candidates: int):
    """(m, columns) of each generator P + Q i with P^2 + Q^2 a canonical d of
    norm m, for the increasing indices, index by index.

    The columns are those of regular_rep(P + Q i); each principal ideal of
    index m is reached by exactly four of them (see "Principal ideals over
    Z[w], rank 2" in the module docstring).  Before the first pair it
    raises EnumerationBudgetExceeded as "The budget" there states, and
    ValueError for an index below 1 or an ambient that is not a rank-4 ring.
    """
    quad, ring = _ring(ambient)
    if ring is None:
        raise ValueError("principality is defined for the rank-4 ring ambients")
    lo, hi = _window(indices)
    work = norm_table_pairs(quad, hi, max_candidates, lo)
    _refuse_if(work > max_candidates, max_candidates)
    # a lower bound of the boxes, before the table: the (2 s + 1)^2 pairs
    # |a|, |b| <= s of each d of norm at least top
    top = max(lo, hi // 2) if len(indices) == hi - lo + 1 else hi
    s = math.isqrt(math.isqrt(top // 2916))
    entries = sum(max(stop - start, 0) for _, start, stop in _norm_rows(quad, top, hi))
    _refuse_if(work + (2 * s + 1) ** 2 * entries > max_candidates, max_candidates)
    table = _canonical_by_norm(quad, lo, hi)
    for m in indices:
        for d in table.get(m, ()):
            work += sum(stop - start for _, start, stop in root_box(quad, d))
            _refuse_if(work > max_candidates, max_candidates)
    for m in indices:
        for u, v in table.get(m, ()):
            squares = {}  # P^2 -> the P
            for p, p2 in squares_under(quad, (u, v)):
                squares.setdefault(p2, []).append(p)
            for (pu, pv), ps in squares.items():
                for q in squares.get((u - pu, v - pv), ()):
                    for p in ps:
                        yield m, tuple(zip(*regular_rep(ring.from_pairs(p, q))))


def list_principal_ideals(ambient: Ambient, m: int,
                          max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list[Submodule]:
    """Principal ideals of index m of a rank-4 ring, in the order of list_ideals."""
    return list(_ideals(ambient, _principal_forms(ambient, (m,), max_candidates)))


def is_principal(sub: Submodule) -> bool:
    """Whether an ideal of a rank-4 ring is generated by a single element.

    It is iff one generator alpha of the principal walk at its index lies
    in it: alpha O then lies in the ideal and has its index.  ValueError
    for another ambient or a submodule that is not an ideal, and
    EnumerationBudgetExceeded past the default ceiling.
    """
    if _ring(sub.ambient)[1] is None:
        raise ValueError("principality is defined for the rank-4 ring ambients")
    if not is_invariant(sub, ambient_actions(sub.ambient)):
        raise ValueError("submodule is not an ideal")
    return any(sub.contains(columns[0]) for _, columns in
               _principal_forms(sub.ambient, (sub.index,), DEFAULT_MAX_CANDIDATES))


def count_similarity_submodules(ambient: Ambient, m: int,
                                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> int:
    """Submodules of index m that arise from a multiplication map.

    Z[tau] and Z[i,tau] have class number 1, so every ideal qualifies;
    for Z[i,sqrt2] only the principal ideals do.
    """
    return _similarity_counts(ambient, (m,), max_candidates)[0]


def _similarity_counts(ambient: Ambient, indices: Sequence[int],
                       max_candidates: int) -> list[int]:
    """count_similarity_submodules of each of the increasing indices, in one walk:
    over the ideals, or over the generators of the principal ideals for
    Z[i,sqrt2], whose ideals of one index at a time are held."""
    if ambient is Ambient.Z_ISQRT2_AS_Z4:
        principal = _ideals(ambient, _principal_forms(ambient, indices, max_candidates))
        return _counts(((sub.index, sub) for sub in principal), indices)
    return _counts(_forms(ambient, indices, max_candidates), indices)


# ---------------------------------------------------------------------------
# oracle vs. catalog


_EXPECTED_SERIES = {
    Ambient.Z_TAU_AS_Z2: catalog.zeta_q_tau,
    Ambient.Z_ITAU_AS_Z4: catalog.zeta_q_itau,
    Ambient.Z_ISQRT2_AS_Z4: catalog.zeta_zi_sqrt2,
}


class OracleReport(Frozen):
    """Outcome of comparing brute-force counts against a coefficient table.

    The wording is part of the stable output, and the code that builds a
    report sets the parts that differ between tables: mismatch_format
    takes (m, oracle count, expected) for each mismatch row, and note
    follows the match count.  rows holds (m, oracle count, expected).
    """

    __slots__ = ("ambient", "limit", "rows", "mismatch_format", "note")

    def __init__(self, ambient: str, limit: int, rows: tuple[tuple[int, int, int], ...],
                 mismatch_format: str = "m={}: oracle {} != expected {}",
                 note: str = "") -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "mismatch_format", mismatch_format)
        object.__setattr__(self, "note", note)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ambient, self.limit, self.rows, self.mismatch_format, self.note)
                == (other.ambient, other.limit, other.rows, other.mismatch_format, other.note))

    def __hash__(self) -> int:
        return hash((self.ambient, self.limit, self.rows, self.mismatch_format, self.note))

    def __repr__(self) -> str:
        return (f"OracleReport(ambient={self.ambient!r}, limit={self.limit!r}, "
                f"rows={self.rows!r}, mismatch_format={self.mismatch_format!r}, "
                f"note={self.note!r})")

    @property
    def mismatches(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(r for r in self.rows if r[1] != r[2])

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        matched = len(self.rows) - len(self.mismatches)
        return f"{matched}/{len(self.rows)} match{self.note}" + "".join(
            "\n  " + self.mismatch_format.format(*r) for r in self.mismatches)


def verify_series(ambient: Ambient, limit: int,
                  max_candidates: int = DEFAULT_MAX_CANDIDATES) -> OracleReport:
    """Compare oracle counts with the catalog coefficients for m <= limit.

    The counts come from one walk over 1..limit, by Hermite forms over
    Z[tau] (rank 1) for Z[tau] and over Z[w] (rank 2) for the rank-4 rings.
    The walk, and so its budget check, comes before the catalog table.
    """
    counts, = map_ordered(lambda indices: _similarity_counts(ambient, indices, max_candidates),
                          (range(1, limit + 1),), 1)
    series = _EXPECTED_SERIES[ambient](limit)
    rows = tuple((m, count, series.a(m)) for m, count in enumerate(counts, 1))
    return OracleReport(ambient.value, limit, rows)
