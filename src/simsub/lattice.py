"""Brute-force sublattice enumeration and the oracle counts.

Full-rank sublattices of Z^r of index m are enumerated through their
column Hermite normal form: upper-triangular basis, positive diagonal
with product m, off-diagonal entries of row i reduced mod the diagonal
entry d_i.  Invariance under ring multiplier actions is tested by exact
triangular solves, vectorized over blocks of candidates with numpy.  That
kernel counts the ideals of Z[tau] (rank 2).  The ideals of the rank-4
rings Z[i,tau] and Z[i,sqrt2] come from Hermite forms over Z[tau] and
Z[sqrt2] instead, and the rank-4 kernel is kept as the reference the
tests compare them with.

One Hermite normal form.  Z and Z[tau] are both norm-Euclidean, so one
column reduction, `column_hnf`, serves both: `hnf_canonical` runs it over
Z and `cubic.hnf_over_ztau` over Z[tau].  The rings differ only in the
pivot size and the canonical associate, which `Submodule` checks by one rule.

Hermite forms over Z[w].  Let R = Z[w], w = tau or sqrt2, and identify
Z[i,w] = R + R i with R^2 by P + i Q -> (P, Q); in the basis (1, i, w, i w)
the pair (P, Q) has the Z-coordinates (P_a, Q_a, P_b, Q_b).  An ideal of
index m is an R-submodule M of R^2 of index m with i M in M, where
i (P, Q) = (-Q, P).  R is Euclidean, so a PID.  Proof that each M has
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
The residue system is the box 0 <= a < h, 0 <= b < l of the pairs
(a, b) = a + b w, for the integer HNF [[h, k], [0, l]] of d1 R in the
basis (1, w), h l = N(d1): subtracting a multiple of (k, l) and then one
of (h, 0) moves any pair into the box, and two box pairs that differ by
a vector of d1 R have the same b (the difference of b is a multiple of l
below l) and then the same a.  A pair z lies in d R, that is d | z,
iff z = s (h, 0) + t (k, l) for integers s and t, for the HNF of d R.

M is i-stable iff i, which is R-linear, maps both generators into M,
and (u, v) lies in M iff d2 | v and d1 | u - (v / d2) x.  So
i (d1, 0) = (0, d1) needs d2 | d1 and d1 | (d1 / d2) x, and
i (x, d2) = (-d2, x) needs d2 | x and d1 | -d2 - (x / d2) x.  The walk
takes d1 and d2 from one table of canonical associates by norm
(`quadratic.norm_table`), drops the pairs where d2 does not divide d1
(N(d2) | N(d1) first), and tests every x of the box of d1 by these exact
divisions; it reads no catalog series and no closed form of the count.
A surviving form becomes its Z-HNF by `hnf_canonical` of the Z-span of
(d1, 0), w (d1, 0), (x, d2) and w (x, d2), whose index is checked
against m, and the ideals of an index are sorted into the kernel's order
(diagonal, then flat HNF).  For Z[i,tau] to 80 the walk tests 1,551
candidates for 35 ideals; the reference kernel tests 154,705 in 61 numpy
passes.

Flag pruning (the rank-4 reference kernel).  Let V_k = span(e_1..e_k)
and let an action T keep V_k, that is T[i][l] == 0 for all i >= k > l.
Write an HNF basis B in blocks: the leading k x k block B11, the
trailing block B22 on the coordinates k+1..r, and the off-block entries
B12 (rows i < k, columns j >= k).  If L = B Z^r is T-invariant, then

- L meets V_k in the lattice spanned by the first k columns (B is
  upper triangular with nonzero diagonal, so Bx lies in V_k only when
  x_{k+1..r} = 0); T maps V_k into itself, so that lattice, whose HNF
  is B11, is invariant under the block T11;
- the projection P of L onto the coordinates k+1..r is spanned by B22
  (the first k columns project to 0); T is block upper triangular, so
  P(Tv) = T22 P(v) and P(L) is invariant under T22.

Both blocks are reduced HNFs in their own right, and a restriction of T
satisfies T's minimal polynomial.  So the kernel finds the invariant
leading and trailing blocks by running itself on the restricted actions,
and enumerates only their cross product with the free off-block digits.
This discards only candidates that provably fail; every survivor still
passes the full test under every action.  The factors of the cross
product come in flat HNF order (leading block, off-block digits column
by column, trailing block), so collected bases need no sort.  For
Z[i,tau] and Z[i,sqrt2] the action of i keeps span(1, i), so k = 2;
rank-2 Z[tau] has no split and takes the flat path.  The budget check
(max_candidates) still counts the full HNF set, not the pruned one.

A block's invariant HNFs depend only on its diagonal and the restricted
actions, and the restriction of i is the same on both blocks.  So the
blocks of each index a are computed once per process, in a bounded cache
of read-only tables keyed by (a, actions) (`_invariant_blocks`) that
lists only the block diagonals holding an invariant HNF.

Nonzero-diagonal walk (the rank-4 reference kernel).  With a split, a
diagonal's candidate set is empty exactly when its leading or trailing
block holds no invariant HNF (the set is their cross product with the
free digits).  So the walk of
index m lists only the diagonals lead + trail with lead from the table
of a | m and trail from the table of m / a, sorted back into
lexicographic order; the diagonals it leaves out have no candidate to
discard.  For Z[i,tau] to 80 that is 147 of 2,556 diagonals.

Packing (rank 2 and the reference kernel).  A diagonal with at least
_PACK candidates gets its own numpy passes with scalar diagonal entries,
at most _CHUNK candidates each.
Runs of smaller diagonals share one pass of at most _CHUNK candidates,
whose diagonal entries are per-candidate arrays, and the runs cross
index boundaries (every diagonal of an ambient has the same factor
layout).  So one walk covers a whole range of increasing indices:
Z[tau] to 400 takes 17 passes, where one walk per index took 400;
Z[i,tau] to 80 takes 61 (73 one index at a time).  In count mode a
survivor's index is the product of its diagonal entries, and one
bincount per pass adds the survivors to the counts of their indices; in
collect mode they come out in index order.  _PACK = 1024 was chosen by
timing the oracle ranges (Z[tau] to 400, Z[i,tau] to 80, Z[i,sqrt2] to
60) and the rank-4 ranges to 300 on a 2-core host, one walk per index:
every value from 512 to 4096 was within the noise; 128 was about 20%
slower on Z[tau] to 400, and packing every diagonal (no threshold) was
about 10% slower on Z[i,tau] to 300, where large per-candidate divisor
arrays cost more than the calls they save.

Pass size.  _CHUNK = 2^13 keeps a pass's arrays in cache and its peak
memory small.  On a 2-core host, the reference walk of Z[i,tau] to 300
(8.4 million candidates in 1,255 passes) peaks at 36 MB of RSS
in-process, where 2^20 peaked at 83 MB; 2^14 already raised the peak of
the benchmark's `oracles` pass by 1.4 MB, when the kernel still walked
Z[i,tau] there.  The same range takes a median 0.49 s in-process.

Principality.  A generator re + i*im (re, im in the real quadratic
ring) has relative norm re^2 + im^2.  The search squares each element
of its box once, as an integer pair, and passes a candidate on to the
exact membership and HNF checks only when the integer norm of the summed
squares equals the index.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterator, Sequence

import numpy as np

from . import catalog
from .dirichlet import divisors
from .errors import InvariantViolation
from .parallel import map_ordered
from .quadratic import (_pair_divmod, elements_in_embedding_box, is_canonical_associate,
                        norm_table, pair_mul)
from .quartic import ISQRT2, ITAU, QuarticInt, regular_rep

DEFAULT_MAX_CANDIDATES = 10_000_000

# Live candidates of one numpy pass, packed or not, at most; see "Pass size"
# in the module docstring for the measurement.
_CHUNK = 1 << 13
# A diagonal with fewer candidates than this shares a packed pass with its
# neighbours, of its index or the next; see "Packing" in the module docstring.
_PACK = 1024


class EnumerationBudgetExceeded(RuntimeError):
    """Predicted candidate count exceeds the configured ceiling."""


class Ambient(Enum):
    """Which module a basis matrix describes."""

    Z_TAU_AS_Z2 = "ztau"           # Z[tau] over basis (1, tau)
    Z_ITAU_AS_Z4 = "zitau"         # Z[i,tau] over basis (1, i, tau, i*tau)
    Z_ISQRT2_AS_Z4 = "zisqrt2"     # Z[i,sqrt2] over basis (1, i, sqrt2, i*sqrt2)
    Z_TAU3_AS_ZTAU_MODULE = "ztau3"  # rank-3 free module over Z[tau]


@dataclass(frozen=True)
class MultiplierAction:
    """Integer matrix of multiplication by a ring generator.

    Tuples of actions key the flag_split cache, and with a block index
    the _invariant_blocks cache, so the hash of the fields is taken once,
    when the action is built; equality stays field by field.
    """

    name: str
    matrix: tuple[tuple[int, ...], ...]
    minimal_poly: tuple[int, ...]  # low-order-first coefficients

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        r = len(self.matrix)
        acc = [[0] * r for _ in range(r)]
        power = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for c in self.minimal_poly:
            for i in range(r):
                for j in range(r):
                    acc[i][j] += c * power[i][j]
            power = [[sum(self.matrix[i][k] * power[k][j] for k in range(r))
                      for j in range(r)] for i in range(r)]
        if any(v for row in acc for v in row):
            raise ValueError(f"action {self.name} violates its minimal polynomial")
        object.__setattr__(self, "_hash", hash((self.name, self.matrix, self.minimal_poly)))


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

_QUARTIC_RING = {
    Ambient.Z_ITAU_AS_Z4: ITAU,
    Ambient.Z_ISQRT2_AS_Z4: ISQRT2,
}


def ambient_rank(ambient: Ambient) -> int:
    return 2 if ambient is Ambient.Z_TAU_AS_Z2 else 4


def ambient_actions(ambient: Ambient) -> tuple[MultiplierAction, ...]:
    return _ACTIONS[ambient]


# (size, canonical diagonal test) over Z, and over Z[tau] for the rank-3 module
_INTEGERS = (abs, lambda d: d > 0)
_RINGS = {
    Ambient.Z_TAU3_AS_ZTAU_MODULE: (lambda x: abs(x.norm()), is_canonical_associate),
}


@dataclass(frozen=True)
class Submodule:
    """Full-rank submodule in canonical column HNF.

    basis[i][j] is the row-i entry of the j-th basis vector; entries are
    plain integers except for the rank-3 module over Z[tau], where they
    are QuadInt.  Over both rings the basis is upper triangular, each
    diagonal d is canonical and each b right of it has divmod(b, d)[0] == 0.
    """

    ambient: Ambient | None
    basis: tuple[tuple, ...]

    def __post_init__(self):
        r = len(self.basis)
        if any(len(row) != r for row in self.basis):
            raise ValueError("basis must be square")
        canonical = _RINGS.get(self.ambient, _INTEGERS)[1]
        for i, row in enumerate(self.basis):
            if not canonical(row[i]):
                raise ValueError("diagonal entries must be canonical")
            if any(row[:i]):
                raise ValueError("basis must be upper triangular")
            if any(divmod(b, row[i])[0] for b in row[i + 1:]):
                raise ValueError("off-diagonal entries must be reduced")

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


def _candidates_or_bound(rank: int, m: int, ceiling: int) -> int:
    """hnf_candidate_count(rank, m), or a lower bound of it that is over ceiling.

    The diagonal (m, 1, ..., 1) alone holds m^(rank-1) bases (the rank - 1
    entries right of d_0 = m run over [0, m), all others are 0), so past
    that bound no factoring of m is needed; a 4,000-digit m would take it
    forever.
    """
    bound = m ** (rank - 1)
    return bound if bound > ceiling else hnf_candidate_count(rank, m)


def hnf_candidates_over(rank: int, m: int, ceiling: int) -> bool:
    """Whether Z^rank has more than ceiling HNF bases of index m."""
    return _candidates_or_bound(rank, m, ceiling) > ceiling


def _check_budget(rank: int, indices, max_candidates: int) -> None:
    """Refuse indices that hold more than max_candidates HNF bases of Z^rank in all.

    Counts each index once, and none past its cheap bound.
    """
    left = max_candidates
    for m in indices:
        if m < 1:
            raise ValueError("index must be >= 1")
        left -= _candidates_or_bound(rank, m, left)
        if left < 0:
            # names no candidate count: m^3 of a 4,000-digit m is past the int-to-str limit
            raise EnumerationBudgetExceeded(
                f"predicted HNF candidates exceed ceiling {max_candidates}; "
                f"raise max_candidates to proceed")


def hnf_sublattices(rank: int, m: int, ambient: Ambient | None = None,
                    max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list[Submodule]:
    """All index-m sublattices of Z^rank, each exactly once, in HNF."""
    if rank not in (1, 2, 4, 6):
        raise ValueError("rank must be one of 1, 2, 4, 6")
    _check_budget(rank, (m,), max_candidates)
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
# vectorized invariance kernel


def _stabilizer_mask(diag, digits, action, length):
    """Boolean mask of candidates whose lattice is preserved by the action.

    Each diagonal entry is a scalar shared by all candidates or an array
    with one value per candidate; digits maps the strictly-upper
    positions (i, j) to arrays of off-diagonal values.  Membership of
    each transformed basis column is decided by exact back substitution;
    floor divmod keeps the exactness test (remainder == 0) valid for
    negative entries.
    """
    r = len(diag)
    t = action.matrix

    def entry(i, j):
        if i == j:
            return diag[j]
        if i < j:
            return digits[(i, j)]
        return 0

    ok = np.ones(length, dtype=bool)
    for j in range(r):
        w = [sum(t[i][l] * entry(l, j) for l in range(j + 1) if t[i][l])
             for i in range(r)]
        for i in range(r - 1, -1, -1):
            q, rem = _divmod(w[i], diag[i])
            if isinstance(rem, np.ndarray):
                ok &= rem == 0
            elif rem:
                return np.zeros(length, dtype=bool)
            if isinstance(q, np.ndarray) or q:
                for i2 in range(i):
                    e = entry(i2, i)
                    if isinstance(e, np.ndarray) or e:
                        w[i2] = w[i2] - q * e
        if not ok.any():
            break
    return ok


@functools.lru_cache(maxsize=32)
def flag_split(actions: tuple[MultiplierAction, ...]):
    """Smallest split of the ambient that some actions keep, or None.

    Returns (k, lead, trail) for the smallest k whose flag space
    V_k = span(e_1..e_k) is kept by at least one action, that is
    matrix[i][l] == 0 for all i >= k > l.  lead and trail hold each such
    action restricted to V_k and to the coordinates k+1..r; a
    restriction satisfies the same minimal polynomial, which
    MultiplierAction checks again.
    """
    r = len(actions[0].matrix)
    for k in range(1, r):
        kept = [a for a in actions
                if not any(a.matrix[i][l] for i in range(k, r) for l in range(k))]
        if kept:
            return k, tuple(_restrict(a, 0, k) for a in kept), \
                tuple(_restrict(a, k, r) for a in kept)
    return None


def _restrict(action: MultiplierAction, lo: int, hi: int) -> MultiplierAction:
    block = tuple(tuple(row[lo:hi]) for row in action.matrix[lo:hi])
    return MultiplierAction(action.name, block, action.minimal_poly)


@functools.lru_cache(maxsize=8)
def _positions(r: int) -> tuple[tuple[int, int], ...]:
    """Strictly-upper HNF positions in flat enumeration order."""
    return tuple((i, j) for j in range(1, r) for i in range(j))


def _candidate_factors(diag, actions):
    """Factors whose cross product is the candidate set over one diagonal.

    A factor is (size, table), where table maps strictly-upper positions
    to arrays of that size, or to None when the entry is the factor's
    index itself.  Without a flag split every position is such a free
    factor over [0, d_i).  With a split at k the invariant leading and
    trailing blocks are two factors, found by this kernel on the
    restricted actions, and each off-block position (i < k <= j) is a
    free factor.  The factors come in flat HNF order, the first most
    significant, so their cross product needs no sort: the leading
    block holds the positions of the first k columns, and the trailing
    block of both rank-4 splits (k = 2) only the last position (2, 3).
    """
    r = len(diag)
    split = flag_split(actions)
    if split is None:
        return [(diag[i], {(i, j): None}) for i, j in _positions(r)]
    k, lead, trail = split
    blocks = []
    for lo, hi, block_actions in ((0, k, lead), (k, r, trail)):
        block = diag[lo:hi]
        n, digits = _invariant_blocks(math.prod(block), block_actions).get(block, (0, {}))
        blocks.append((n, {(i + lo, j + lo): arr for (i, j), arr in digits.items()}))
    return [blocks[0], *((diag[i], {(i, j): None}) for j in range(k, r) for i in range(k)),
            blocks[1]]


@functools.lru_cache(maxsize=1024)
def _invariant_blocks(a, actions):
    """Invariant HNFs of index a by diagonal, for one flag block, once per process.

    Maps each diagonal that holds an invariant HNF to (count, digits),
    digits in flat HNF order, in lexicographic diagonal order; diagonals
    that hold none are absent.  The mapping and its digit arrays are
    read-only, so any caller can share them.
    """
    r = len(actions[0].matrix)
    entries = _entries(_walk((a,), actions), r)
    blocks = {}
    start = 0
    for diag, group in itertools.groupby(zip(*(entries[(i, i)] for i in range(r)))):
        n = len(list(group))
        digits = {pos: np.array(entries[pos][start:start + n], dtype=np.int64)
                  for pos in _positions(r)}
        for arr in digits.values():
            arr.flags.writeable = False
        blocks[diag] = (n, digits)
        start += n
    return MappingProxyType(blocks)


def _nonzero_diagonals(m, actions):
    """(diag, factors) for each index-m diagonal with candidates, lexicographic.

    With a flag split a diagonal has candidates only when both of its
    blocks hold an invariant HNF, so the diagonals are built from the
    nonzero block diagonals of each block index a | m; without one every
    diagonal has candidates.
    """
    split = flag_split(actions)
    if split is None:
        diags = ordered_diagonals(m, len(actions[0].matrix))
    else:
        _, lead, trail = split
        diags = sorted(d1 + d2 for a in divisors(m) for d1 in _invariant_blocks(a, lead)
                       for d2 in _invariant_blocks(m // a, trail))
    for diag in diags:
        yield diag, _candidate_factors(diag, actions)


def _candidate_sets(indices, actions):
    """Candidate sets (diag, digits, length) over the nonzero diagonals of the indices.

    The indices increase.  A diagonal with at least _PACK candidates is
    expanded on its own with scalar diagonal entries, _CHUNK candidates
    at a time.  Runs of smaller diagonals, across index boundaries, are
    packed into one set of at most _CHUNK candidates, whose diagonal
    entries are per-candidate arrays; every diagonal of an ambient has
    the same factor layout.  Sets come in index order, then lexicographic
    diagonal order, and hold candidates in flat HNF order.
    """
    pack, packed = [], 0
    for m in indices:
        for diag, factors in _nonzero_diagonals(m, actions):
            total = math.prod(n for n, _ in factors)
            small = total < _PACK and total <= _CHUNK
            if pack and (not small or packed + total > _CHUNK):
                yield _packed_candidates(pack, packed)
                pack, packed = [], 0
            if small:
                pack.append((diag, factors, total))
                packed += total
                continue
            sizes = tuple(n for n, _ in factors)
            for lo in range(0, total, _CHUNK):
                hi = min(lo + _CHUNK, total)
                idx = _mixed_radix(np.arange(lo, hi, dtype=np.int64), sizes)
                digits = {pos: f if arr is None else arr[f]
                          for (_, table), f in zip(factors, idx) for pos, arr in table.items()}
                yield diag, digits, hi - lo
    if pack:
        yield _packed_candidates(pack, packed)


def _packed_candidates(pack, length):
    """One candidate set over consecutive diagonals of equal rank and factor layout.

    Per-diagonal values (diagonal entries, factor sizes, the diagonal's
    first candidate, the offsets of its block tables in their
    concatenation) are repeated once per candidate in a single call;
    the factor indices then come from the candidate's offset within its
    diagonal by mixed-radix division.
    """
    diags, layouts, totals = zip(*pack)
    r, nf = len(diags[0]), len(layouts[0])
    tables = [f for f, (_, table) in enumerate(layouts[0])
              if all(arr is not None for arr in table.values())]
    sizes = [[fs[f][0] for fs in layouts] for f in range(nf)]
    rows = [*zip(*diags), *sizes[1:], _starts(totals), *(_starts(sizes[f]) for f in tables)]
    cols = np.repeat(np.array(rows, dtype=np.int64), totals, axis=1)
    local = np.arange(length, dtype=np.int64) - cols[r + nf - 1]
    offsets = dict(zip(tables, cols[r + nf:]))
    idx = _mixed_radix(local, [None, *cols[r:r + nf - 1]])
    digits = {}
    for f, (_, table) in enumerate(layouts[0]):
        for pos, arr in table.items():
            digits[pos] = idx[f] if arr is None else \
                np.concatenate([fs[f][1][pos] for fs in layouts])[offsets[f] + idx[f]]
    return tuple(cols[:r]), digits, length


def _mixed_radix(local, radices):
    """Digit arrays of local in the mixed radices, the last the fastest.

    radices[0] is not read: the first digit is what is left of local.
    """
    idx = [None] * len(radices)
    for f in range(len(radices) - 1, 0, -1):
        local, digit = _divmod(local, radices[f])
        idx[f] = digit if isinstance(digit, np.ndarray) else np.zeros_like(local)
    if radices:
        idx[0] = local
    return idx


def _divmod(w, d):
    """Floor divmod of w by d, each a candidate array or a shared scalar.

    An array divided by a scalar d takes numpy's division by a constant
    and one multiply, about twice as fast as np.divmod, and by 1 no work
    at all (remainder 0).
    """
    if isinstance(d, np.ndarray) or not isinstance(w, np.ndarray):
        return divmod(w, d)
    if d == 1:
        return w, 0
    q = w // d
    return q, w - q * d


def _starts(sizes):
    return list(itertools.accumulate(sizes, initial=0))[:-1]


def _walk(indices, actions):
    """Survivors (diag, digits, length) of every action, per candidate set of the indices.

    Every action is tested on every candidate of every nonzero diagonal
    of every index, in the order of _candidate_sets.
    """
    for diag, digits, length in _candidate_sets(indices, actions):
        for act in actions:
            mask = _stabilizer_mask(diag, digits, act, length)
            length = int(np.count_nonzero(mask))
            if length == 0:
                break
            digits = {pos: arr[mask] for pos, arr in digits.items()}
            diag = tuple(d[mask] if isinstance(d, np.ndarray) else d for d in diag)
        yield diag, digits, length


def _entries(survivors, r):
    """Upper-triangular entries (i <= j) of the survivors, as lists in walk order."""
    entries = {(i, j): [] for j in range(r) for i in range(j + 1)}
    for diag, digits, length in survivors:
        if not length:
            continue
        for i, d in enumerate(diag):
            entries[(i, i)] += d.tolist() if isinstance(d, np.ndarray) else [d] * length
        for pos, arr in digits.items():
            entries[pos] += arr.tolist()
    return entries


def _ideal_counts(ambient: Ambient, indices: Sequence[int]) -> list[int]:
    """Invariant sublattices of each of the increasing indices, in one kernel walk.

    The numpy kernel counts Z[tau]; at rank 4 it is the reference.  A
    survivor's index is the product of its diagonal entries, so one
    bincount per pass adds its survivors to the counts of their indices.
    """
    at = np.array(indices, dtype=np.int64)
    counts = np.zeros(len(at), dtype=np.int64)
    for diag, _, length in _walk(indices, ambient_actions(ambient)):
        if length:
            index = np.broadcast_to(math.prod(diag), (length,))
            counts += np.bincount(np.searchsorted(at, index), minlength=len(at))
    return counts.tolist()


def _ideals(ambient: Ambient, indices: Sequence[int]) -> Iterator[Submodule]:
    """Invariant sublattices of the increasing indices, pass by pass as the kernel finds them.

    The numpy kernel lists Z[tau]; at rank 4 it is the reference.  They
    come in index order, and within an index in diagonal then flat HNF
    order.
    """
    r = ambient_rank(ambient)
    for survivors in _walk(indices, ambient_actions(ambient)):
        entries = _entries((survivors,), r)
        zero = [0] * survivors[2]
        rows = [list(zip(*(entries[(i, j)] if i <= j else zero for j in range(r))))
                for i in range(r)]
        for basis in zip(*rows):
            yield Submodule(ambient, basis)


# ---------------------------------------------------------------------------
# rank 4: Hermite forms over Z[w]


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


def _hermite_forms(ambient: Ambient, indices: Sequence[int]):
    """(m, d1, d2, x) of each ideal of the increasing indices, index by index.

    d1, d2 and x are (a, b) pairs of Z[w]: the ideal is the Z[w]-module
    spanned by (d1, 0) and (x, d2); see "Hermite forms over Z[w]" in the
    module docstring.  Once d2 | d1, every x of the box of d1 is tested by
    exact division; within an index the forms come in no fixed order.
    """
    quad = _QUARTIC_RING[ambient].quad
    c1, c0 = quad.c1, quad.c0
    table = [[(x.a, x.b) for x in xs] for xs in norm_table(quad, max(indices, default=0))]
    hnfs = {}
    for m in indices:
        for n2 in divisors(m):
            n1 = m // n2
            if n1 % n2:  # d2 | d1 needs N(d2) | N(d1)
                continue
            for d1 in table[n1]:
                for d2 in table[n2]:
                    e, r = _pair_divmod(d1, d2, c1, c0)
                    if r != (0, 0):
                        continue
                    for d in (d1, d2):
                        if d not in hnfs:
                            hnfs[d] = _multiples_hnf(d, c1, c0)
                    hnf1, hnf2 = hnfs[d1], hnfs[d2]
                    # d2 | x, d1 | e x and d1 | -d2 - (x / d2) x: i maps both generators in
                    for x in itertools.product(range(hnf1[0]), range(hnf1[2])):
                        if not (_is_multiple(x, hnf2)
                                and _is_multiple(pair_mul(e, x, c1, c0), hnf1)):
                            continue
                        yx = pair_mul(_pair_divmod(x, d2, c1, c0)[0], x, c1, c0)
                        if _is_multiple((-d2[0] - yx[0], -d2[1] - yx[1]), hnf1):
                            yield m, d1, d2, x


def _hermite_counts(ambient: Ambient, indices: Sequence[int]) -> list[int]:
    """_ideal_counts of a rank-4 ring ambient, by Hermite forms over Z[w]."""
    counts = dict.fromkeys(indices, 0)
    for m, *_ in _hermite_forms(ambient, indices):
        counts[m] += 1
    return list(counts.values())


def _hermite_ideals(ambient: Ambient, indices: Sequence[int]) -> Iterator[Submodule]:
    """_ideals of a rank-4 ring ambient, by Hermite forms over Z[w], in the same order.

    Each form becomes the Z-HNF, in the basis (1, i, w, i*w), of the Z-span of
    (d1, 0), w (d1, 0), (x, d2) and w (x, d2); the forms of an index are
    sorted by diagonal, then flat HNF order.
    """
    quad = _QUARTIC_RING[ambient].quad
    c1, c0 = quad.c1, quad.c0
    positions = _positions(4)
    for m, forms in itertools.groupby(_hermite_forms(ambient, indices), key=lambda f: f[0]):
        bases = []
        for _, d1, d2, x in forms:
            d1w, xw, d2w = (pair_mul(p, (0, 1), c1, c0) for p in (d1, x, d2))
            basis = hnf_canonical([(d1[0], 0, d1[1], 0), (d1w[0], 0, d1w[1], 0),
                                   (x[0], d2[0], x[1], d2[1]), (xw[0], d2w[0], xw[1], d2w[1])])
            if math.prod(basis[i][i] for i in range(4)) != m:
                raise InvariantViolation(f"Hermite form {d1}, {x}, {d2} has index other than {m}")
            bases.append(basis)
        bases.sort(key=lambda b: (tuple(b[i][i] for i in range(4)),
                                  tuple(b[i][j] for i, j in positions)))
        for basis in bases:
            yield Submodule(ambient, basis)


def _counts(ambient: Ambient, indices: Sequence[int]) -> list[int]:
    """Ideals of each of the increasing indices: Hermite forms at rank 4, the kernel at rank 2."""
    walk = _hermite_counts if ambient in _QUARTIC_RING else _ideal_counts
    return walk(ambient, indices)


def count_ideals(ambient: Ambient, m: int,
                 max_candidates: int = DEFAULT_MAX_CANDIDATES) -> int:
    """Number of index-m sublattices invariant under all ring generators."""
    _check_budget(ambient_rank(ambient), (m,), max_candidates)
    return _counts(ambient, (m,))[0]


def list_ideals(ambient: Ambient, m: int,
                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list[Submodule]:
    _check_budget(ambient_rank(ambient), (m,), max_candidates)
    walk = _hermite_ideals if ambient in _QUARTIC_RING else _ideals
    return list(walk(ambient, (m,)))


# ---------------------------------------------------------------------------
# principality


def _norm_targets(quad, n: int, bound: float) -> list[tuple[int, int]]:
    """(u, v) of each totally positive w = u + v*omega with N(w) = n >= 1 and
    both float embeddings at most the bound.

    N(w) = n gives (2u + c1 v)^2 = D v^2 + 4n, and w is totally positive iff
    its trace 2u + c1 v is the positive root; |v| (omega - omega') is
    |emb(w) - emb'(w)| < bound.  One exact isqrt per v.
    """
    w1, w2 = quad.omega_float, quad.omega_conj_float
    c1, disc = quad.c1, quad.discriminant
    vmax = int(bound / (w1 - w2)) + 1
    out = []
    for v in range(-vmax, vmax + 1):
        t = disc * v * v + 4 * n
        root = math.isqrt(t)
        if root * root != t or (root - c1 * v) % 2:
            continue
        u = (root - c1 * v) // 2
        if u + v * w1 <= bound and u + v * w2 <= bound:
            out.append((u, v))
    return out


def is_principal(sub: Submodule) -> bool:
    """Whether an ideal is generated by a single element.

    A generator must be an ideal element whose absolute norm equals the
    index.  Units i^k mu^l move any generator into the fundamental domain
    where both archimedean square-magnitudes are at most sqrt(index)*mu1;
    we scan that box enlarged by a factor 2 per embedding, so an empty
    scan proves non-principality.  Floats only size the box.

    A pair re, im of box elements whose embeddings pass the float cap test
    gives w = re^2 + im^2 with both embeddings in [0, cap + 1e-9], so
    N(re + i*im) = N(w) = n forces w totally positive: w is one of the
    _norm_targets under a padded cap.  So looking up w - re^2 among the
    squared box elements, for each re and target, tries exactly the pairs
    of the full pair scan with N(w) = n.
    """
    ring = _QUARTIC_RING.get(sub.ambient)
    if ring is None:
        raise ValueError("principality is defined for the rank-4 ring ambients")
    if not is_invariant(sub, ambient_actions(sub.ambient)):
        raise ValueError("submodule is not an ideal")
    n = sub.index
    quad = ring.quad
    mu1 = quad.fundamental_unit.embedding_float()
    cap = 2.0 * math.sqrt(n) * mu1
    side = math.sqrt(cap) * 1.0000001
    c1, c0 = quad.c1, quad.c0
    w1, w2 = quad.omega_float, quad.omega_conj_float
    by_square: dict[tuple[int, int], list] = {}  # the box elements by their square
    for x in elements_in_embedding_box(quad, side, side):
        a, b = x
        e1 = (a + b * w1) ** 2
        e2 = (a + b * w2) ** 2
        if e1 <= cap + 1e-9 and e2 <= cap + 1e-9:
            by_square.setdefault(pair_mul(x, x, c1, c0), []).append((e1, a, b, e2))
    targets = _norm_targets(quad, n, cap * (1 + 1e-9) + 1e-6)
    for (ru, rv), roots in by_square.items():
        for u, v in targets:
            partners = by_square.get((u - ru, v - rv), ())
            for r1, ra, rb, r2 in roots:
                for s1, sa, sb, s2 in partners:
                    if r1 + s1 > cap + 1e-9 or r2 + s2 > cap + 1e-9:
                        continue
                    cand = QuarticInt((ra, sa, rb, sb), ring)
                    if not sub.contains(cand.coeffs):
                        continue
                    generated = hnf_canonical(list(zip(*regular_rep(cand))))
                    if generated == sub.basis:
                        return True
    return False


def count_similarity_submodules(ambient: Ambient, m: int,
                                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> int:
    """Submodules of index m that arise from a multiplication map.

    Z[tau] and Z[i,tau] have class number 1, so every ideal qualifies;
    for Z[i,sqrt2] only the principal ideals do.
    """
    if ambient not in _EXPECTED_SERIES:
        raise ValueError(f"no similarity-submodule count for ambient {ambient}")
    _check_budget(ambient_rank(ambient), (m,), max_candidates)
    return _similarity_counts(ambient, (m,))[0]


def _similarity_counts(ambient: Ambient, indices: Sequence[int]) -> list[int]:
    """count_similarity_submodules of each of the increasing indices, in one walk.

    Each ideal of Z[i,sqrt2] is tested for principality as the walk finds
    it, so the ideals of the range are never held in one list.
    """
    if ambient is not Ambient.Z_ISQRT2_AS_Z4:
        return _counts(ambient, indices)
    counts = dict.fromkeys(indices, 0)
    for sub in _hermite_ideals(ambient, indices):
        counts[sub.index] += is_principal(sub)
    return list(counts.values())


# ---------------------------------------------------------------------------
# oracle vs. catalog


_EXPECTED_SERIES = {
    Ambient.Z_TAU_AS_Z2: catalog.zeta_q_tau,
    Ambient.Z_ITAU_AS_Z4: catalog.zeta_q_itau,
    Ambient.Z_ISQRT2_AS_Z4: catalog.zeta_zi_sqrt2,
}


@dataclass(frozen=True)
class OracleReport:
    """Outcome of comparing brute-force counts against a coefficient table.

    The wording is part of the stable output, and the code that builds a
    report sets the parts that differ between tables: mismatch_format
    takes (m, oracle count, expected) for each mismatch row, and note
    follows the match count.
    """

    ambient: str
    limit: int
    rows: tuple[tuple[int, int, int], ...]  # (m, oracle count, expected)
    mismatch_format: str = "m={}: oracle {} != expected {}"
    note: str = ""

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

    The counts come from one walk over 1..limit: the numpy kernel for
    Z[tau], Hermite forms over Z[w] for the rank-4 rings.
    """
    _check_budget(ambient_rank(ambient), range(1, limit + 1), max_candidates)
    series = _EXPECTED_SERIES[ambient](limit)
    counts, = map_ordered(lambda indices: _similarity_counts(ambient, indices),
                          (range(1, limit + 1),), 1)
    rows = tuple((m, count, series.a(m)) for m, count in enumerate(counts, 1))
    return OracleReport(ambient.value, limit, rows)
