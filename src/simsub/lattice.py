"""Brute-force sublattice enumeration and the oracle counts.

Full-rank sublattices of Z^r of index m are enumerated through their
column Hermite normal form: upper-triangular basis, positive diagonal
with product m, off-diagonal entries of row i reduced mod the diagonal
entry d_i.  Invariance under ring multiplier actions is tested by exact
triangular solves, vectorized over blocks of candidates with numpy so
the rank-4 scans stay desk-scale.

One Hermite normal form.  Z and Z[tau] are both norm-Euclidean, so one
column reduction, `column_hnf`, serves both: `hnf_canonical` runs it over
Z and `cubic.hnf_over_ztau` over Z[tau].  The rings differ only in the
pivot size and the canonical associate, which `Submodule` checks by one rule.

Flag pruning.  Let V_k = span(e_1..e_k) and let an action T keep V_k,
that is T[i][l] == 0 for all i >= k > l.  Write an HNF basis B in
blocks: the leading k x k block B11, the trailing block B22 on the
coordinates k+1..r, and the off-block entries B12 (rows i < k, columns
j >= k).  If L = B Z^r is T-invariant, then

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
passes the full test under every action, and collected bases are sorted
back into flat HNF order.  For Z[i,tau] and Z[i,sqrt2] the action of i
keeps span(1, i), so k = 2; rank-2 Z[tau] has no split and takes the
flat path.  The budget check (max_candidates) still counts the full HNF
set, not the pruned one.

A block's invariant HNFs depend only on its diagonal (d1, d2) and the
restricted actions, and the restriction of i is the same on both
blocks.  So each block is computed once per process, in a bounded cache
of small read-only digit arrays (`_invariant_block`), however many
diagonals share it.

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
from typing import Callable, Iterator, Sequence

import numpy as np

from . import catalog
from .dirichlet import divisors
from .parallel import map_ordered, worker_count
from .quadratic import elements_in_embedding_box, is_canonical_associate
from .quartic import ISQRT2, ITAU, QuarticInt, regular_rep

DEFAULT_MAX_CANDIDATES = 10_000_000

_CHUNK = 1 << 20


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
    """Integer matrix of multiplication by a ring generator."""

    name: str
    matrix: tuple[tuple[int, ...], ...]
    minimal_poly: tuple[int, ...]  # low-order-first coefficients

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


@functools.lru_cache(maxsize=4096)
def hnf_candidate_count(rank: int, m: int) -> int:
    """Number of index-m HNF bases of Z^rank (sigma_1(m) for rank 2).

    Cached, so the budget that verify_series predicts for every m is not
    walked again when each m is enumerated.
    """
    total = 0
    for diag in ordered_diagonals(m, rank):
        block = 1
        for i, d in enumerate(diag):
            block *= d ** (rank - 1 - i)
        total += block
    return total


def _check_budget(predicted: int, max_candidates: int):
    if predicted > max_candidates:
        raise EnumerationBudgetExceeded(
            f"predicted {predicted} HNF candidates exceeds ceiling {max_candidates}; "
            f"raise max_candidates to proceed")


def hnf_sublattices(rank: int, m: int, ambient: Ambient | None = None,
                    max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list[Submodule]:
    """All index-m sublattices of Z^rank, each exactly once, in HNF."""
    if rank not in (1, 2, 4, 6):
        raise ValueError("rank must be one of 1, 2, 4, 6")
    if m < 1:
        raise ValueError("index must be >= 1")
    _check_budget(hnf_candidate_count(rank, m), max_candidates)
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

    Candidates share the diagonal; digits maps the strictly-upper
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
            q, rem = np.divmod(w[i], diag[i]) if isinstance(w[i], np.ndarray) \
                else divmod(w[i], diag[i])
            ok = ok & (rem == 0)
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
    free factor.
    """
    r = len(diag)
    split = flag_split(actions)
    if split is None:
        return [(diag[i], {(i, j): None}) for i, j in _positions(r)]
    k, lead, trail = split
    factors = []
    for lo, hi, block_actions in ((0, k, lead), (k, r, trail)):
        n, digits = _invariant_block(diag[lo:hi], block_actions)
        factors.append((n, {(i + lo, j + lo): arr for (i, j), arr in digits.items()}))
    factors += [(diag[i], {(i, j): None}) for j in range(k, r) for i in range(k)]
    return factors


@functools.lru_cache(maxsize=4096)
def _invariant_block(diag, actions):
    """Collect-mode kernel result for one flag block, once per process.

    The digit arrays are read-only, so worker threads can share them.
    """
    n, digits = _invariant_for_diagonal(diag, actions, True)
    for arr in digits.values():
        arr.flags.writeable = False
    return n, digits


def _invariant_for_diagonal(diag, actions, collect):
    """(count, digits) of the invariant candidates over one diagonal type.

    In collect mode digits maps each strictly-upper position to the
    survivors' entries in flat HNF order; in count mode it is empty.
    Every action is tested on every candidate the factors produce.
    """
    factors = _candidate_factors(diag, actions)
    sizes = tuple(n for n, _ in factors)
    total = math.prod(sizes)
    count = 0
    kept = []
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.unravel_index(np.arange(lo, hi, dtype=np.int64), sizes) if sizes else ()
        digits = {pos: f if arr is None else arr[f]
                  for (_, table), f in zip(factors, idx) for pos, arr in table.items()}
        length = hi - lo
        for act in actions:
            mask = _stabilizer_mask(diag, digits, act, length)
            digits = {pos: arr[mask] for pos, arr in digits.items()}
            length = int(mask.sum())
            if length == 0:
                break
        count += length
        if collect and length:
            kept.append(digits)
    positions = _positions(len(diag)) if collect else ()
    if not (kept and positions):
        return count, {}
    merged = {pos: np.concatenate([d[pos] for d in kept]) for pos in positions}
    flat = np.ravel_multi_index([merged[pos] for pos in positions],
                                [diag[i] for i, _ in positions])
    order = np.argsort(flat, kind="stable")
    return count, {pos: arr[order] for pos, arr in merged.items()}


def _bases(diag, digits, count):
    r = len(diag)
    columns = {pos: arr.tolist() for pos, arr in digits.items()}
    for k in range(count):
        basis = [[0] * r for _ in range(r)]
        for i in range(r):
            basis[i][i] = diag[i]
        for (i, j), col in columns.items():
            basis[i][j] = col[k]
        yield tuple(tuple(row) for row in basis)


def _invariant_sublattices(ambient: Ambient, m: int, max_candidates: int,
                           collect: bool):
    if m < 1:
        raise ValueError("index must be >= 1")
    r = ambient_rank(ambient)
    _check_budget(hnf_candidate_count(r, m), max_candidates)
    actions = ambient_actions(ambient)
    count = 0
    found = []
    for diag in ordered_diagonals(m, r):
        c, digits = _invariant_for_diagonal(diag, actions, collect)
        count += c
        if collect:
            found.extend(_bases(diag, digits, c))
    return count, [Submodule(ambient, b) for b in found]


def count_ideals(ambient: Ambient, m: int,
                 max_candidates: int = DEFAULT_MAX_CANDIDATES) -> int:
    """Number of index-m sublattices invariant under all ring generators."""
    return _invariant_sublattices(ambient, m, max_candidates, collect=False)[0]


def list_ideals(ambient: Ambient, m: int,
                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list[Submodule]:
    return _invariant_sublattices(ambient, m, max_candidates, collect=True)[1]


# ---------------------------------------------------------------------------
# principality


def is_principal(sub: Submodule) -> bool:
    """Whether an ideal is generated by a single element.

    A generator must be an ideal element whose absolute norm equals the
    index.  Units i^k mu^l move any generator into the fundamental domain
    where both archimedean square-magnitudes are at most sqrt(index)*mu1;
    we scan that box enlarged by a factor 2 per embedding, so an empty
    scan proves non-principality.  Floats only size the box; a candidate
    re + i*im is screened by the exact integer norm of re^2 + im^2.
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
    pairs = []
    for x in elements_in_embedding_box(quad, side, side):
        e1 = x.embedding_float() ** 2
        e2 = x.conj_embedding_float() ** 2
        if e1 <= cap + 1e-9 and e2 <= cap + 1e-9:
            pairs.append((e1, x.a, x.b, e2, _square_pair(x.a, x.b, quad)))
    pairs.sort()
    for r1, ra, rb, r2, (ru, rv) in pairs:
        for s1, sa, sb, s2, (su, sv) in pairs:
            if r1 + s1 > cap + 1e-9 or r2 + s2 > cap + 1e-9:
                continue
            if _pair_abs_norm(ru + su, rv + sv, quad) != n:
                continue
            cand = QuarticInt((ra, sa, rb, sb), ring)
            if not sub.contains(cand.coeffs):
                continue
            generated = hnf_canonical(list(zip(*regular_rep(cand))))
            if generated == sub.basis:
                return True
    return False


def _square_pair(a: int, b: int, quad) -> tuple[int, int]:
    """(a + b*w)^2 as an integer pair, with w^2 = c1*w + c0."""
    return a * a + quad.c0 * b * b, 2 * a * b + quad.c1 * b * b


def _pair_abs_norm(u: int, v: int, quad) -> int:
    """|norm(u + v*w)| to Z; for u + v*w = re^2 + im^2 it is abs_norm(re + i*im)."""
    return abs(u * u + quad.c1 * u * v - quad.c0 * v * v)


def count_similarity_submodules(ambient: Ambient, m: int,
                                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> int:
    """Submodules of index m that arise from a multiplication map.

    Z[tau] and Z[i,tau] have class number 1, so every ideal qualifies;
    for Z[i,sqrt2] only the principal ideals do.
    """
    if ambient in (Ambient.Z_TAU_AS_Z2, Ambient.Z_ITAU_AS_Z4):
        return count_ideals(ambient, m, max_candidates)
    if ambient is Ambient.Z_ISQRT2_AS_Z4:
        ideals = list_ideals(ambient, m, max_candidates)
        return sum(1 for s in ideals if is_principal(s))
    raise ValueError(f"no similarity-submodule count for ambient {ambient}")


# ---------------------------------------------------------------------------
# oracle vs. catalog


_EXPECTED_SERIES = {
    Ambient.Z_TAU_AS_Z2: catalog.zeta_q_tau,
    Ambient.Z_ITAU_AS_Z4: catalog.zeta_q_itau,
    Ambient.Z_ISQRT2_AS_Z4: catalog.zeta_zi_sqrt2,
}


@dataclass(frozen=True)
class OracleReport:
    """Outcome of comparing brute-force counts against a coefficient table."""

    ambient: str
    limit: int
    rows: tuple[tuple[int, int, int], ...]  # (m, oracle count, expected)

    @property
    def mismatches(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(r for r in self.rows if r[1] != r[2])

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        matched = len(self.rows) - len(self.mismatches)
        text = f"{matched}/{len(self.rows)} match"
        if self.mismatches:
            text += "".join(f"\n  m={m}: oracle {got} != expected {want}"
                            for m, got, want in self.mismatches)
        return text


def verify_series(ambient: Ambient, limit: int,
                  max_candidates: int = DEFAULT_MAX_CANDIDATES,
                  workers: int | None = None) -> OracleReport:
    """Compare oracle counts with the catalog coefficients for m <= limit."""
    rank = ambient_rank(ambient)
    predicted = 0
    for m in range(1, limit + 1):
        predicted += hnf_candidate_count(rank, m)
        _check_budget(predicted, max_candidates)
    series = _EXPECTED_SERIES[ambient](limit)
    if workers is None:
        workers = worker_count()
    counts = map_ordered(
        lambda m: count_similarity_submodules(ambient, m, max_candidates),
        range(1, limit + 1), workers)
    rows = tuple((m, counts[m - 1], series.a(m)) for m in range(1, limit + 1))
    return OracleReport(ambient.value, limit, rows)
