import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from simsub import catalog, lattice, quadratic
from simsub.lattice import (
    Ambient,
    EnumerationBudgetExceeded,
    MultiplierAction,
    Submodule,
    ambient_actions,
    count_ideals,
    count_similarity_submodules,
    hnf_canonical,
    hnf_candidate_count,
    hnf_sublattices,
    is_invariant,
    is_principal,
    list_ideals,
    verify_series,
)
from simsub.errors import InvariantViolation
from simsub.quadratic import (SQRT2, TAU, QuadInt, embedding_box_rows, is_canonical_associate,
                              norm_equation, norm_table, pair_mul, pair_norm, sign_embedding)
from simsub.quartic import ISQRT2, ITAU, QuarticInt, regular_rep

CEILING = lattice.DEFAULT_MAX_CANDIDATES


def _box(ring, bound1, bound2):
    # the (a, b) pairs of the padded float box, row by row
    return [(a, b) for b, start, stop in embedding_box_rows(ring, bound1, bound2)
            for a in range(start, stop)]


def _counts(ambient, indices, max_candidates):
    # the ideals of each index, from one walk over the indices
    return lattice._counts(lattice._forms(ambient, indices, max_candidates), indices)


def test_hnf_sublattice_counts():
    assert len(hnf_sublattices(2, 4)) == 7
    assert len(hnf_sublattices(1, 12)) == 1
    for p in (2, 3, 5, 7):
        assert len(hnf_sublattices(2, p)) == p + 1
    # index-2 sublattices of Z^6 are the hyperplanes over GF(2)
    assert len(hnf_sublattices(6, 2)) == 63
    with pytest.raises(ValueError):
        hnf_sublattices(3, 4)


def _diagonal_sum(rank, m):
    # the count by its definition: each HNF diagonal holds prod d_i^(rank-1-i) bases
    return sum(math.prod(d ** (rank - 1 - i) for i, d in enumerate(diag))
               for diag in lattice.ordered_diagonals(m, rank))


@pytest.mark.parametrize("rank, limit", [(1, 300), (2, 300), (4, 300), (6, 60)])
def test_hnf_count_closed_form_matches_diagonal_sum(rank, limit):
    for m in range(1, limit + 1):
        assert hnf_candidate_count(rank, m) == _diagonal_sum(rank, m), (rank, m)


def test_hnf_count_is_sigma1_for_rank2():
    for m in range(1, 61):
        assert hnf_candidate_count(2, m) == catalog.sigma1(m)
        assert len(hnf_sublattices(2, m)) == catalog.sigma1(m)


def test_hnf_sublattices_distinct_and_valid():
    subs = hnf_sublattices(4, 8)
    assert len(set(s.basis for s in subs)) == len(subs)
    assert all(s.index == 8 for s in subs)


def test_hnf_canonical_is_unique_per_lattice():
    rng = random.Random(41)
    for _ in range(100):
        rank = rng.choice((2, 4))
        sub = rng.choice(hnf_sublattices(rank, rng.randint(1, 12)))
        cols = [[sub.basis[i][j] for i in range(rank)] for j in range(rank)]
        # scramble by a few unimodular column operations
        for _ in range(12):
            a, b = rng.randrange(rank), rng.randrange(rank)
            if a != b:
                k = rng.randint(-3, 3)
                for i in range(rank):
                    cols[a][i] += k * cols[b][i]
            if rng.random() < 0.3:
                cols[a] = [-v for v in cols[a]]
        rng.shuffle(cols)
        assert hnf_canonical(cols) == sub.basis


def test_hnf_canonical_rank_deficient_rejected():
    with pytest.raises(ValueError):
        hnf_canonical([[1, 0], [2, 0]])
    with pytest.raises(ValueError):
        hnf_canonical([])


def test_submodule_validation():
    good = Submodule(None, ((2, 1), (0, 3)))
    assert good.index == 6
    with pytest.raises(ValueError):
        Submodule(None, ((2, 2), (0, 2)))  # off-diagonal not reduced
    with pytest.raises(ValueError):
        Submodule(None, ((2, 0), (1, 2)))  # not upper triangular
    with pytest.raises(ValueError):
        Submodule(None, ((0, 0), (0, 2)))  # non-positive diagonal


def test_action_minimal_polynomials_enforced():
    with pytest.raises(ValueError):
        MultiplierAction("bad", ((0, 1), (1, 0)), minimal_poly=(-1, -1, 1))
    for ambient in (Ambient.Z_TAU_AS_Z2, Ambient.Z_ITAU_AS_Z4,
                    Ambient.Z_ISQRT2_AS_Z4):
        assert ambient_actions(ambient)


def test_actions_match_quartic_regular_representation():
    # the stored action matrices are the regular representations of the
    # ring generators in the same basis
    tau4, i4 = ambient_actions(Ambient.Z_ITAU_AS_Z4)
    assert tau4.matrix == regular_rep(ITAU.omega())
    assert i4.matrix == regular_rep(ITAU.i())
    s4, i4b = ambient_actions(Ambient.Z_ISQRT2_AS_Z4)
    assert s4.matrix == regular_rep(ISQRT2.omega())
    assert i4b.matrix == regular_rep(ISQRT2.i())


def test_is_invariant_examples():
    two_ztau = Submodule(Ambient.Z_TAU_AS_Z2, ((2, 0), (0, 2)))
    tau_action = ambient_actions(Ambient.Z_TAU_AS_Z2)
    assert is_invariant(two_ztau, tau_action)

    z_plus_2tau = Submodule(Ambient.Z_TAU_AS_Z2, ((1, 0), (0, 2)))
    assert not is_invariant(z_plus_2tau, tau_action)

    identity = MultiplierAction("id", ((1, 0), (0, 1)), minimal_poly=(-1, 1))
    for s in hnf_sublattices(2, 6):
        assert is_invariant(s, (identity,))


@pytest.mark.parametrize("ambient, limit", [
    (Ambient.Z_ISQRT2_AS_Z4, 16),
    (Ambient.Z_ITAU_AS_Z4, 16),
    (Ambient.Z_TAU_AS_Z2, 200),
])
def test_hermite_ideals_agree_with_scalar_invariance(ambient, limit):
    # the Hermite forms over Z[tau] (rank 2) and Z[w] (rank 4) and the
    # direct per-submodule test of every HNF basis are independent code
    # paths; they must select identical bases, in diagonal then flat HNF order
    actions = ambient_actions(ambient)
    rank = lattice.ambient_rank(ambient)
    for m in range(1, limit + 1):
        scalar = [s.basis for s in hnf_sublattices(rank, m, ambient)
                  if is_invariant(s, actions)]
        assert scalar == [s.basis for s in list_ideals(ambient, m)], (ambient, m)


def test_list_ideals_in_diagonal_then_flat_hnf_order():
    # in Z[i,tau] the first index where one diagonal holds ideals that a
    # trailing-block-first order would swap is 125
    for ambient in (Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        for m in range(1, 161):
            bases = [s.basis for s in list_ideals(ambient, m, max_candidates=10 ** 9)]
            key = [(tuple(b[i][i] for i in range(4)),
                    tuple(b[i][j] for i, j in lattice._positions(4))) for b in bases]
            assert key == sorted(key) and len(set(key)) == len(key), (ambient, m)


# the ids are those of the pass layouts of the former numpy kernel, which
# the walk sizes here stand in for
_WALK_SIZES = pytest.mark.parametrize("size", [
    pytest.param(1, id="_PACK-1"),                  # every index walked alone
    pytest.param(10 ** 9, id="_PACK-1000000000"),   # each part in one walk
    pytest.param(37, id="_CHUNK-37"),               # parts cut into walks of 37
])


@_WALK_SIZES
@pytest.mark.parametrize("walks", [1, 2])
def test_range_walk_matches_single_indices(walks, size):
    # a walk over any increasing indices, here the residue classes of 1..48
    # mod walks, cut into walks of at most size indices (so over norm tables
    # of different extents), gives the per-index counts and bases,
    # concatenated; the one walk over 1..48 is the one verify_series makes
    parts = [range(w + 1, 49, walks) for w in range(walks)]
    for ambient in (Ambient.Z_TAU_AS_Z2, Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        for part in parts:
            cuts = [part[i:i + size] for i in range(0, len(part), size)]
            counts = [c for cut in cuts for c in _counts(ambient, cut, CEILING)]
            bases = [s.basis for cut in cuts
                     for s in lattice._ideals(ambient, lattice._forms(ambient, cut, CEILING))]
            assert counts == [count_ideals(ambient, m) for m in part], ambient
            assert bases == [s.basis for m in part for s in list_ideals(ambient, m)], ambient
            assert sum(counts) == len(bases), ambient
        report = verify_series(ambient, 48)
        assert [row[1] for row in report.rows] == \
            [count_similarity_submodules(ambient, m) for m in range(1, 49)], ambient


@pytest.mark.parametrize("ring", [TAU, SQRT2])
def test_norm_table_matches_norm_equation(ring):
    table = norm_table(ring, 1000)
    assert len(table) == 1001 and table[0] == ()
    for n in range(1, 1001):
        assert tuple(QuadInt(a, b, ring) for a, b in table[n]) == norm_equation(ring, n), n


def _box_scan_by_norm(ring, lo, hi):
    # the slow reference: every pair of a padded float box that holds each
    # canonical associate of norm at most hi (emb' <= sqrt(hi), emb < sqrt(hi)
    # fund^2, as the embedding ratio lies in [1, fund^4)), kept by the exact tests
    root, f = math.sqrt(hi), ring.fundamental_unit.embedding_float()
    box = _box(ring, root * f * f * 1.001, root * 1.001)
    table = {}
    for a, b in sorted(p for p in box if lo <= pair_norm(p, ring.c1, ring.c0) <= hi):
        if is_canonical_associate(QuadInt(a, b, ring)):
            table.setdefault(pair_norm((a, b), ring.c1, ring.c0), []).append((a, b))
    return table


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([TAU, SQRT2]), st.integers(1, 20_000), st.integers(0, 20_000))
@example(SQRT2, 1, 1000)   # a row past an empty row holds an entry
@example(SQRT2, 7, 8)      # row 4 is empty, row 5 holds 8 + 5 sqrt2, of norm 14
@example(TAU, 2, 0)        # row 0 starts at a = 2: a = 1 has norm 1 < lo
@example(TAU, 10_000, 10_000)
def test_cone_walk_matches_the_box_scan(ring, lo, width):
    hi = min(lo + width, 20_000)
    assert quadratic._canonical_by_norm(ring, lo, hi) == _box_scan_by_norm(ring, lo, hi)


@pytest.mark.parametrize("ring, rows", [(TAU, 100), (SQRT2, 200)])
def test_cone_walk_stops_at_the_window_line(ring, rows):
    # to the square limit 100^2 the walk takes the rows with b^2 < 100^2 d^2,
    # d = -1 over Z[tau] and -2 over Z[sqrt2]: the row on the line is not walked
    assert [b for b, _, _ in quadratic._norm_rows(ring, 1, 10 ** 4)] == list(range(rows))


@pytest.mark.parametrize("ring", [TAU, SQRT2])
def test_norm_table_pairs_counts_the_table(ring):
    # one step per row of the cone walk, empty or not, plus the entries
    for limit in (1, 2, 97, 1000, 20_000):
        for lo in (1, limit // 2 + 1, limit):
            rows = len(list(quadratic._norm_rows(ring, lo, limit)))
            entries = sum(map(len, quadratic._canonical_by_norm(ring, lo, limit).values()))
            assert quadratic.norm_table_pairs(ring, limit, 10 ** 12, lo) == rows + entries
        assert quadratic.norm_table_pairs(ring, limit, 10 ** 12) == \
            len(list(quadratic._norm_rows(ring, 1, limit))) + sum(map(len, norm_table(ring, limit)))
    assert quadratic.norm_table_pairs(ring, 0, 10 ** 12) == 0
    start = time.perf_counter()
    assert quadratic.norm_table_pairs(ring, 10 ** 4000, CEILING) > CEILING
    assert quadratic.norm_table_pairs(ring, 10 ** 4000, CEILING, 10 ** 4000) > CEILING
    assert time.perf_counter() - start < 1.0


def test_single_index_walks_read_only_its_norms():
    # over Z[tau] the window [m, m] at m = 23,233,704 has 4,821 rows and no
    # entry; the table to m would hold 23 million positions
    m = 23_233_704
    assert quadratic.norm_table_pairs(TAU, m, CEILING, m) == 4821
    start = time.perf_counter()
    assert list_ideals(Ambient.Z_TAU_AS_Z2, m) == []
    assert time.perf_counter() - start < 1.0


@given(st.sampled_from([Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4]),
       st.integers(min_value=1, max_value=600))
@example(Ambient.Z_ITAU_AS_Z4, 125)
@example(Ambient.Z_ISQRT2_AS_Z4, 578)
def test_hermite_ideals_are_invariant_of_their_index(ambient, m):
    subs = list_ideals(ambient, m, max_candidates=10 ** 12)
    assert len(subs) == count_ideals(ambient, m, max_candidates=10 ** 12)
    assert len({s.basis for s in subs}) == len(subs)
    for sub in subs:
        assert sub.index == m and is_invariant(sub, ambient_actions(ambient))


def _canonical_upto(quad, limit):
    return [QuadInt(a, b, quad) for xs in norm_table(quad, limit) for a, b in xs]


_RANK4_RINGS = {Ambient.Z_ITAU_AS_Z4: ITAU, Ambient.Z_ISQRT2_AS_Z4: ISQRT2}


@given(st.sampled_from(list(_RANK4_RINGS)),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@example(Ambient.Z_ITAU_AS_Z4, 0, 0, 0, 0)     # d2 = e = 1: all of Z[i,tau]
@example(Ambient.Z_ITAU_AS_Z4, 1, 2, 2, 0)     # d2 = 2, e = 2 + tau | 2^2 + 1
@example(Ambient.Z_ITAU_AS_Z4, 1, 2, 1, 0)     # e = 2 + tau does not divide 1^2 + 1
@example(Ambient.Z_ISQRT2_AS_Z4, 1, 1, 0, 0)   # e = 2 + sqrt2 does not divide 0^2 + 1
@example(Ambient.Z_ISQRT2_AS_Z4, 1, 1, 1, 0)   # e = 2 + sqrt2 | 1^2 + 1
def test_hermite_form_is_an_ideal_iff_y_is_a_root(ambient, i2, ie, a, b):
    # both directions: the Z-span of (d2 e, 0), w (d2 e, 0), (d2 y, d2) and
    # w (d2 y, d2) is i-stable, by the scalar test of each basis vector,
    # iff e | y^2 + 1, by QuadInt division; the walk yields only the roots
    quad = _RANK4_RINGS[ambient].quad
    small, large = _canonical_upto(quad, 9), _canonical_upto(quad, 100)
    d2, e = small[i2 % len(small)], large[ie % len(large)]
    w = quad.omega()
    (h, _), (_, l) = hnf_canonical([(e.a, e.b), ((e * w).a, (e * w).b)])
    y = QuadInt(a % h, b % l, quad)
    d1, x = d2 * e, d2 * y
    columns = [(p.a, q.a, p.b, q.b)
               for p, q in ((d1, quad.zero()), (d1 * w, quad.zero()), (x, d2), (x * w, d2 * w))]
    sub = Submodule(ambient, hnf_canonical(columns))
    assert sub.index == d1.norm() * d2.norm()
    assert is_invariant(sub, ambient_actions(ambient)) == (not (y * y + 1) % e)


def test_zisqrt2_ideal_counts_match_xi8_at_odd_indices_and_are_multiplicative():
    # Z[i,sqrt2] has index 2 in Z[xi_8], so the conductor divides 2; an ideal
    # of odd index is prime to it, and such ideals of the two rings
    # correspond one to one with the same index
    counts = [None] + _counts(Ambient.Z_ISQRT2_AS_Z4, range(1, 1001), CEILING)
    xi8 = catalog.zeta_q_xi8(1000)
    assert [m for m in range(1, 1001, 2) if counts[m] != xi8.a(m)] == []
    assert [(m, n) for m in range(2, 501) for n in range(m + 1, 1000 // m + 1)
            if math.gcd(m, n) == 1 and counts[m * n] != counts[m] * counts[n]] == []


def test_hermite_form_of_wrong_index_raises(monkeypatch):
    # columns that span all of Z^4, index 1, reported at index 2
    unit_columns = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(lattice, "_forms",
                        lambda ambient, indices, max_candidates: iter([(2, unit_columns)]))
    with pytest.raises(InvariantViolation):
        list_ideals(Ambient.Z_ITAU_AS_Z4, 2)


@given(st.integers(min_value=1, max_value=3000))
@example(1)
@example(2)
@example(2900)
def test_ztau_ideals_are_invariant_of_their_index(m):
    subs = list_ideals(Ambient.Z_TAU_AS_Z2, m)
    assert len(subs) == count_ideals(Ambient.Z_TAU_AS_Z2, m)
    assert len({s.basis for s in subs}) == len(subs)
    for sub in subs:
        assert sub.index == m and is_invariant(sub, ambient_actions(Ambient.Z_TAU_AS_Z2))


def test_ztau_ideal_of_wrong_index_raises(monkeypatch):
    # a norm table that lists the unit 1, of norm 1, at norm 2
    monkeypatch.setattr(lattice, "_canonical_by_norm", lambda ring, lo, hi: {2: [(1, 0)]})
    with pytest.raises(InvariantViolation):
        list_ideals(Ambient.Z_TAU_AS_Z2, 2)


def test_count_ideals_examples():
    assert count_ideals(Ambient.Z_TAU_AS_Z2, 4) == 1
    assert count_ideals(Ambient.Z_TAU_AS_Z2, 11) == 2
    assert count_ideals(Ambient.Z_TAU_AS_Z2, 2) == 0
    assert count_ideals(Ambient.Z_ITAU_AS_Z4, 25) == 3
    for m in (0, -4):
        with pytest.raises(ValueError):
            count_ideals(Ambient.Z_ITAU_AS_Z4, m)
        with pytest.raises(ValueError):
            list_ideals(Ambient.Z_TAU_AS_Z2, m)


def test_invariant_counts_multiplicative_for_ztau():
    counts = {m: count_ideals(Ambient.Z_TAU_AS_Z2, m) for m in range(1, 46)}
    for m in range(2, 46):
        for n in range(2, 45 // m + 1):
            if math.gcd(m, n) == 1:
                assert counts[m * n] == counts[m] * counts[n]


def test_ideals_are_closed_under_generators():
    for m in (4, 5, 16, 20):
        for sub in list_ideals(Ambient.Z_ITAU_AS_Z4, m):
            assert is_invariant(sub, ambient_actions(Ambient.Z_ITAU_AS_Z4))
            assert sub.index == m


def test_is_principal_examples():
    # 2M has index 16 and generator 2
    ideals16 = list_ideals(Ambient.Z_ISQRT2_AS_Z4, 16)
    two_m = Submodule(Ambient.Z_ISQRT2_AS_Z4,
                      ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)))
    assert two_m in ideals16
    assert is_principal(two_m)

    # the index-2 ideal exists but has no generator
    ideals2 = list_ideals(Ambient.Z_ISQRT2_AS_Z4, 2)
    assert len(ideals2) == 1
    assert not is_principal(ideals2[0])

    # class number 1: every ideal of Z[i,tau] is principal
    for m in (4, 5, 9, 16, 20, 25):
        for sub in list_ideals(Ambient.Z_ITAU_AS_Z4, m):
            assert is_principal(sub)


def is_principal_by_quartic(sub):
    """Reference generator search: one QuarticInt and its abs_norm per box pair."""
    ring = {Ambient.Z_ITAU_AS_Z4: ITAU, Ambient.Z_ISQRT2_AS_Z4: ISQRT2}[sub.ambient]
    n = sub.index
    mu1 = ring.quad.fundamental_unit.embedding_float()
    cap = 2.0 * math.sqrt(n) * mu1
    side = math.sqrt(cap) * 1.0000001
    pairs = []
    for a, b in _box(ring.quad, side, side):
        x = QuadInt(a, b, ring.quad)
        e1 = x.embedding_float() ** 2
        e2 = x.conj_embedding_float() ** 2
        if e1 <= cap + 1e-9 and e2 <= cap + 1e-9:
            pairs.append((x, e1, e2))
    for re, r1, r2 in pairs:
        for im, s1, s2 in pairs:
            if r1 + s1 > cap + 1e-9 or r2 + s2 > cap + 1e-9:
                continue
            cand = QuarticInt.from_parts(re, im, ring)
            if not cand or cand.abs_norm() != n or not sub.contains(cand.coeffs):
                continue
            if hnf_canonical(list(zip(*regular_rep(cand)))) == sub.basis:
                return True
    return False


@pytest.mark.parametrize("ambient, limit", [
    (Ambient.Z_ISQRT2_AS_Z4, 60),
    (Ambient.Z_ITAU_AS_Z4, 30),
])
def test_is_principal_matches_quartic_norm_reference(ambient, limit):
    principal = 0
    for m in range(1, limit + 1):
        expected = []
        for sub in list_ideals(ambient, m):
            got = is_principal(sub)
            assert got == is_principal_by_quartic(sub), (ambient, sub.basis)
            principal += got
            expected += [sub] * got
        assert lattice.list_principal_ideals(ambient, m) == expected, (ambient, m)
    if ambient is Ambient.Z_ITAU_AS_Z4:
        assert principal == sum(catalog.zeta_q_itau(limit).coeffs)
    else:
        assert principal == sum(catalog.zeta_zi_sqrt2(limit).coeffs)


_parts = st.integers(-10 ** 6, 10 ** 6)


@given(st.sampled_from((ITAU, ISQRT2)), _parts, _parts, _parts, _parts)
@example(ITAU, 0, 0, 0, 0)
@example(ISQRT2, 0, 0, 0, 0)
@example(ISQRT2, -3, 0, 0, -2)
@example(ITAU, -1, 1, 2, -1)
def test_pair_square_norm_matches_quartic_norm(ring, a, b, c, d):
    c1, c0 = ring.quad.c1, ring.quad.c0
    ru, rv = pair_mul((a, b), (a, b), c1, c0)
    su, sv = pair_mul((c, d), (c, d), c1, c0)
    x = QuarticInt.from_parts(QuadInt(a, b, ring.quad), QuadInt(c, d, ring.quad), ring)
    assert (ru + su, rv + sv) == (x.rel_norm().a, x.rel_norm().b)
    assert abs(pair_norm((ru + su, rv + sv), c1, c0)) == x.abs_norm()


def test_is_principal_requires_ideal():
    plain = Submodule(Ambient.Z_ISQRT2_AS_Z4,
                      ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)))
    with pytest.raises(ValueError):
        is_principal(plain)


def test_count_similarity_submodules_examples():
    assert count_similarity_submodules(Ambient.Z_ISQRT2_AS_Z4, 4) == 2
    assert count_similarity_submodules(Ambient.Z_ISQRT2_AS_Z4, 68) == 8
    assert count_similarity_submodules(Ambient.Z_ITAU_AS_Z4, 16) == 1


def test_verify_series_ztau_41():
    report = verify_series(Ambient.Z_TAU_AS_Z2, 41)
    assert report.ok
    assert report.summary() == "41/41 match"


def test_verify_series_small_ranges():
    assert verify_series(Ambient.Z_ITAU_AS_Z4, 30).ok
    assert verify_series(Ambient.Z_ISQRT2_AS_Z4, 20).ok


def test_verify_series_makes_one_walk(monkeypatch):
    # the counts of 1..limit come from one walk, whatever the ambient
    calls = []
    walk = lattice._similarity_counts

    def recorded(ambient, indices, max_candidates):
        calls.append((ambient, indices))
        return walk(ambient, indices, max_candidates)

    monkeypatch.setattr(lattice, "_similarity_counts", recorded)
    for ambient, limit in ((Ambient.Z_TAU_AS_Z2, 60), (Ambient.Z_ITAU_AS_Z4, 30),
                           (Ambient.Z_ISQRT2_AS_Z4, 30)):
        calls.clear()
        report = verify_series(ambient, limit)
        assert calls == [(ambient, range(1, limit + 1))], ambient
        assert [row[:2] for row in report.rows] == \
            [(m, count_similarity_submodules(ambient, m)) for m in range(1, limit + 1)], ambient


def test_verify_series_zitau_1000():
    # the budget counts the walk: 5,107 box pairs and 215,775 y to 1000, well
    # under the default ceiling (the full Z-HNF set is 536,361,101,601 bases)
    report = verify_series(Ambient.Z_ITAU_AS_Z4, 1000)
    assert report.summary() == "1000/1000 match"


def test_verify_series_zisqrt2_1000():
    report = verify_series(Ambient.Z_ISQRT2_AS_Z4, 1000)
    assert report.summary() == "1000/1000 match"


def test_principal_walk_over_zitau_gives_the_ideal_counts():
    # Z[i,tau] has class number 1: the walk over generators and the walk over
    # Hermite forms count the same ideals, two independent walks
    indices = range(1, 1001)
    principal = _principal_counts(Ambient.Z_ITAU_AS_Z4, indices, CEILING)
    assert principal == _counts(Ambient.Z_ITAU_AS_Z4, indices, CEILING)


@pytest.mark.parametrize("ambient", [Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4])
def test_every_principal_ideal_has_exactly_four_generators(ambient):
    # +-alpha and +-i alpha, and no other generator, have the canonical relative
    # norm; the ideals they span are as many as the catalog counts
    generators = {}
    for m, columns in lattice._principal_forms(ambient, range(1, 301), CEILING):
        basis = hnf_canonical(columns)
        generators.setdefault(basis, []).append(columns[0])
    series = catalog.zeta_q_itau if ambient is Ambient.Z_ITAU_AS_Z4 else catalog.zeta_zi_sqrt2
    assert len(generators) == sum(series(300).coeffs)
    for basis, alphas in generators.items():
        a0, a1, a2, a3 = alphas[0]
        assert sorted(alphas) == sorted([(a0, a1, a2, a3), (-a0, -a1, -a2, -a3),
                                         (-a1, a0, -a3, a2), (a1, -a0, a3, -a2)]), basis


@pytest.mark.parametrize("ring", [TAU, SQRT2])
def test_squares_under_keeps_exactly_the_p_with_p_squared_under_d(ring):
    # for each canonical d of norm <= 300: the P the principal walk keys by
    # P^2 are the P with d - P^2 totally >= 0, by QuadInt signs over a four
    # times wider box, in the order of the box rows
    c1, c0 = ring.c1, ring.c0
    for d in (p for row in norm_table(ring, 300) for p in row):
        x = QuadInt(*d, ring)
        s1, s2 = math.sqrt(x.embedding_float()), math.sqrt(x.conj_embedding_float())
        wide = [QuadInt(a, b, ring) for a, b in _box(ring, 4 * s1, 4 * s2)]
        expected = [(p.a, p.b) for p in wide if sign_embedding(x - p * p) >= 0
                    and sign_embedding((x - p * p).conj()) >= 0]
        got = list(quadratic.squares_under(ring, d))
        assert [p for p, _ in got] == expected, d
        assert all(pair_mul(p, p, c1, c0) == p2 for p, p2 in got), d


def test_resource_guard(monkeypatch):
    # 101 splits in Z[tau]: the walk reads 11 table rows and 46 entries and tests 202 y
    with pytest.raises(EnumerationBudgetExceeded):
        count_ideals(Ambient.Z_ITAU_AS_Z4, 101, max_candidates=240)
    with pytest.raises(EnumerationBudgetExceeded):
        hnf_sublattices(4, 101, max_candidates=10)
    # 2,253 y to 100, past the ceiling once the table of 10 rows and 44 entries is admitted
    with pytest.raises(EnumerationBudgetExceeded):
        verify_series(Ambient.Z_ITAU_AS_Z4, 100, max_candidates=2000)

    # no ideal path counts Z-HNF bases
    def no_count(*args):
        raise AssertionError("Z-HNF bases counted on an ideal path")

    monkeypatch.setattr(lattice, "hnf_candidate_count", no_count)
    for ambient in (Ambient.Z_TAU_AS_Z2, Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        assert verify_series(ambient, 40).ok, ambient
        assert count_ideals(ambient, 25) == len(list_ideals(ambient, 25)), ambient
        assert count_similarity_submodules(ambient, 25) >= 1, ambient


def _principal_counts(ambient, indices, max_candidates):
    # the principal ideals of each index, from one walk over their generators
    forms = lattice._principal_forms(ambient, indices, max_candidates)
    return lattice._counts(((s.index, s) for s in lattice._ideals(ambient, forms)), indices)


def _walk_work(monkeypatch, walk, ambient, indices):
    """Rows and entries of the norm tables the walk builds, plus the y the
    root search tests and the box pairs the principal walk squares,
    counted while the walk runs over the indices."""
    work = [0]
    table, window, test, square = (lattice.norm_table, lattice._canonical_by_norm,
                                   lattice._is_multiple, quadratic.pair_mul)

    def counted_table(ring, limit):
        entries = table(ring, limit)
        work[0] += len(list(quadratic._norm_rows(ring, 1, limit))) + sum(map(len, entries))
        return entries

    def counted_window(ring, lo, hi):
        entries = window(ring, lo, hi)
        work[0] += len(list(quadratic._norm_rows(ring, lo, hi))) + sum(map(len, entries.values()))
        return entries

    def counted(fn):
        def step(*args):
            work[0] += 1
            return fn(*args)
        return step

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "norm_table", counted_table)
        patch.setattr(lattice, "_canonical_by_norm", counted_window)
        patch.setattr(lattice, "_is_multiple", counted(test))
        # quadratic.squares_under squares each box pair once
        patch.setattr(quadratic, "pair_mul", counted(square))
        walk(ambient, indices, 10 ** 12)
    return work[0]


@pytest.mark.parametrize("ambient", [Ambient.Z_TAU_AS_Z2, Ambient.Z_ITAU_AS_Z4,
                                     Ambient.Z_ISQRT2_AS_Z4])
def test_budget_predicts_the_walk_exactly(monkeypatch, ambient):
    # each walk is admitted at a ceiling of its own work and refused one below:
    # the ideal walk, and for the rank-4 rings the principal walk, whose lower
    # bound of the boxes is a sizable part of the work at large indices
    indices_of = (range(1, 49), range(1, 301), (97,), (101,), (211,), (2, 50, 98), ())
    walks = [(_counts, count_ideals, indices_of)]
    if ambient is Ambient.Z_ITAU_AS_Z4:
        walks.append((_principal_counts, count_ideals, indices_of))
    elif ambient is Ambient.Z_ISQRT2_AS_Z4:
        walks.append((_principal_counts, count_similarity_submodules,
                      indices_of + ((10 ** 6,), range(999_999, 10 ** 6 + 1))))
    for walk, count, indices_list in walks:
        for indices in indices_list:
            work = _walk_work(monkeypatch, walk, ambient, indices)
            counts = walk(ambient, indices, work)
            assert counts == [count(ambient, m) for m in indices], (ambient, indices)
            with pytest.raises(EnumerationBudgetExceeded):
                walk(ambient, indices, work - 1)


def test_large_range_is_refused_before_its_table(monkeypatch):
    # the table to 10^6 is under the default ceiling (430,407 entries over
    # Z[tau], 623,251 over Z[sqrt2]), but each square n^2 <= 10^6 puts the
    # n^2 y of e = n in the walk: 333,833,500 y, refused before any table
    def no_table(*args):
        raise AssertionError("norm table built for a refused range")

    monkeypatch.setattr(lattice, "norm_table", no_table)
    for ambient, ring in ((Ambient.Z_ITAU_AS_Z4, TAU), (Ambient.Z_ISQRT2_AS_Z4, SQRT2)):
        assert quadratic.norm_table_pairs(ring, 10 ** 6, CEILING) < CEILING
        with pytest.raises(EnumerationBudgetExceeded):
            verify_series(ambient, 10 ** 6)


def test_large_principal_range_is_refused_before_its_table(monkeypatch):
    # the table to 10^6 (623,251 entries and 2,000 rows over Z[sqrt2]) is under
    # the default ceiling, but the lower bound of the boxes is not: the
    # 311,613 d of norm at least 5 10^5 hold at least 49 box pairs each
    def no_table(*args):
        raise AssertionError("norm table built for a refused range")

    monkeypatch.setattr(lattice, "_canonical_by_norm", no_table)
    with pytest.raises(EnumerationBudgetExceeded):
        verify_series(Ambient.Z_ISQRT2_AS_Z4, 10 ** 6)
    with pytest.raises(EnumerationBudgetExceeded):
        list(lattice._principal_forms(Ambient.Z_ITAU_AS_Z4, range(1, 10 ** 6 + 1), CEILING))


def test_ring_entry_points_refuse_the_rank3_module():
    # Z[tau]^3 is a module over Z[tau], not a ring: no ideal walk takes it
    module = Ambient.Z_TAU3_AS_ZTAU_MODULE
    assert lattice.ambient_rank(module) == 6
    for call in (lambda: count_ideals(module, 5), lambda: list_ideals(module, 4),
                 lambda: verify_series(module, 5),
                 lambda: count_similarity_submodules(module, 5)):
        with pytest.raises(ValueError, match="not a ring"):
            call()


def test_contains_matches_enumeration():
    rng = random.Random(43)
    for sub in hnf_sublattices(2, 9):
        for _ in range(20):
            x = [rng.randint(-3, 3), rng.randint(-3, 3)]
            vec = [sum(sub.basis[i][j] * x[j] for j in range(2)) for i in range(2)]
            assert sub.contains(vec)
        assert not sub.contains([1, 0]) or sub.basis[0][0] == 1
