import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from simsub import catalog, lattice
from simsub.lattice import (
    Ambient,
    EnumerationBudgetExceeded,
    MultiplierAction,
    Submodule,
    ambient_actions,
    count_ideals,
    count_similarity_submodules,
    flag_split,
    hnf_canonical,
    hnf_candidate_count,
    hnf_sublattices,
    is_invariant,
    is_principal,
    list_ideals,
    verify_series,
)
from simsub.quadratic import QuadInt, elements_in_embedding_box, pair_mul, pair_norm, sign_embedding
from simsub.quartic import ISQRT2, ITAU, QuarticInt, regular_rep


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


def test_vector_kernel_agrees_with_scalar_invariance():
    # the numpy block kernel and the direct per-submodule test are
    # independent code paths; they must select identical bases, and the
    # pruned kernel must return them in flat HNF order
    for ambient, limit in ((Ambient.Z_ISQRT2_AS_Z4, 16), (Ambient.Z_ITAU_AS_Z4, 16),
                           (Ambient.Z_TAU_AS_Z2, 60)):
        actions = ambient_actions(ambient)
        rank = lattice.ambient_rank(ambient)
        for m in range(1, limit + 1):
            scalar = [s.basis for s in hnf_sublattices(rank, m, ambient)
                      if is_invariant(s, actions)]
            kernel = [s.basis for s in list_ideals(ambient, m)]
            assert scalar == kernel, (ambient, m)


def test_list_ideals_in_diagonal_then_flat_hnf_order():
    # the walk emits bases without a sort; in Z[i,tau] the first index
    # where one diagonal holds ideals that a trailing-block-first order
    # would swap is 125
    for ambient in (Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        for m in range(1, 161):
            bases = [s.basis for s in list_ideals(ambient, m, max_candidates=10 ** 9)]
            key = [(tuple(b[i][i] for i in range(4)),
                    tuple(b[i][j] for i, j in lattice._positions(4))) for b in bases]
            assert key == sorted(key) and len(set(key)) == len(key), (ambient, m)


def _kernel_results(limit):
    # the blocks are built by the same walk, so they are rebuilt under the
    # settings being tested
    lattice._invariant_blocks.cache_clear()
    return {ambient: ([count_ideals(ambient, m) for m in range(1, limit + 1)],
                      [[s.basis for s in list_ideals(ambient, m)]
                       for m in range(1, limit + 1)])
            for ambient in (Ambient.Z_TAU_AS_Z2, Ambient.Z_ITAU_AS_Z4,
                            Ambient.Z_ISQRT2_AS_Z4)}


_LAYOUTS = pytest.mark.parametrize("setting, value", [
    ("_PACK", 1),           # every diagonal in its own pass, scalar divisors
    ("_PACK", 10 ** 9),     # every diagonal packed, up to _CHUNK candidates
    ("_CHUNK", 37),         # diagonals split across chunks, packs cut short
])


def _record_pass_lengths(monkeypatch):
    lengths = []
    mask = lattice._stabilizer_mask

    def recorded(diag, digits, action, length):
        lengths.append(length)
        return mask(diag, digits, action, length)

    monkeypatch.setattr(lattice, "_stabilizer_mask", recorded)
    return lengths


@_LAYOUTS
def test_walk_results_do_not_depend_on_pass_layout(monkeypatch, setting, value):
    expected = _kernel_results(48)
    monkeypatch.setattr(lattice, setting, value)
    lengths = _record_pass_lengths(monkeypatch)
    try:
        assert _kernel_results(48) == expected
    finally:
        lattice._invariant_blocks.cache_clear()
    assert 0 < max(lengths) <= lattice._CHUNK


@_LAYOUTS
@pytest.mark.parametrize("walks", [1, 2])
def test_range_walk_matches_single_indices(monkeypatch, setting, value, walks):
    # a walk over any increasing indices, here the residue classes of 1..48
    # mod walks, gives the per-index counts and bases, concatenated; the one
    # walk over 1..48 is the one verify_series makes
    monkeypatch.setattr(lattice, setting, value)
    lengths = _record_pass_lengths(monkeypatch)
    parts = [range(w + 1, 49, walks) for w in range(walks)]
    try:
        for ambient in (Ambient.Z_TAU_AS_Z2, Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
            for part in parts:
                counts = lattice._ideal_counts(ambient, part)
                bases = [s.basis for s in lattice._ideals(ambient, part)]
                assert counts == [count_ideals(ambient, m) for m in part], ambient
                assert bases == [s.basis for m in part
                                 for s in list_ideals(ambient, m)], ambient
            report = verify_series(ambient, 48)
            assert [row[1] for row in report.rows] == \
                [count_similarity_submodules(ambient, m) for m in range(1, 49)], ambient
    finally:
        lattice._invariant_blocks.cache_clear()
    assert 0 < max(lengths) <= lattice._CHUNK


def test_walk_skips_exactly_the_empty_diagonals():
    for ambient in (Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        actions = ambient_actions(ambient)
        for m in range(1, 121):
            walked = [diag for diag, _ in lattice._nonzero_diagonals(m, actions)]
            nonempty = [diag for diag in lattice.ordered_diagonals(m, 4)
                        if math.prod(n for n, _ in lattice._candidate_factors(diag, actions))]
            assert walked == nonempty, (ambient, m)


def test_flag_split_detection():
    # i keeps span(1, i) in both rank-4 rings; tau and sqrt2 keep no flag
    # space, and rank-2 Z[tau] has no split at all
    for ambient in (Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        k, lead, trail = flag_split(ambient_actions(ambient))
        assert k == 2
        assert [a.name for a in lead] == [a.name for a in trail] == ["i"]
        assert lead[0].matrix == trail[0].matrix == ((0, -1), (1, 0))
    assert flag_split(ambient_actions(Ambient.Z_TAU_AS_Z2)) is None


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
    for a, b in elements_in_embedding_box(ring.quad, side, side):
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
        for sub in list_ideals(ambient, m):
            got = is_principal(sub)
            assert got == is_principal_by_quartic(sub), (ambient, sub.basis)
            principal += got
    if ambient is Ambient.Z_ITAU_AS_Z4:
        assert principal == sum(catalog.zeta_q_itau(limit).coeffs)
    else:
        assert principal == sum(catalog.zeta_zi_sqrt2(limit).coeffs)


def _principal_cap(quad, n):
    # the cap of is_principal, and the padded bound of its target list
    cap = 2.0 * math.sqrt(n) * quad.fundamental_unit.embedding_float()
    return cap, cap * (1 + 1e-9) + 1e-6


@pytest.mark.parametrize("ring", [ITAU, ISQRT2])
def test_norm_targets_match_brute_scan(ring):
    # every n <= 300: one brute scan of the [0, 2 cap]^2 embedding box of n = 300,
    # by exact norm and total positivity, then the float cap test of each n
    quad = ring.quad
    w1, w2 = quad.omega_float, quad.omega_conj_float
    wide = 2 * _principal_cap(quad, 300)[1]
    box = [QuadInt(a, b, quad) for a, b in elements_in_embedding_box(quad, wide, wide)]
    positive = [x for x in box if 1 <= x.norm() <= 300 and x.a > 0
                and x.a + x.b * w1 <= wide and x.a + x.b * w2 <= wide]
    assert all(sign_embedding(x) > 0 and sign_embedding(x.conj()) > 0 for x in positive)
    for n in range(1, 301):
        bound = _principal_cap(quad, n)[1]
        expected = sorted((x.a, x.b) for x in positive if x.norm() == n
                          and x.a + x.b * w1 <= bound and x.a + x.b * w2 <= bound)
        got = lattice._norm_targets(quad, n, bound)
        assert sorted(got) == expected and len(set(got)) == len(got), (quad, n)


def _norm_passing_pairs(sub):
    """Coefficients of every box pair of the full pair scan whose re^2 + im^2 has norm n."""
    ring = {Ambient.Z_ITAU_AS_Z4: ITAU, Ambient.Z_ISQRT2_AS_Z4: ISQRT2}[sub.ambient]
    quad, n = ring.quad, sub.index
    cap = _principal_cap(quad, n)[0]
    side = math.sqrt(cap) * 1.0000001
    box = []
    for a, b in elements_in_embedding_box(quad, side, side):
        x = QuadInt(a, b, quad)
        e1, e2 = x.embedding_float() ** 2, x.conj_embedding_float() ** 2
        if e1 <= cap + 1e-9 and e2 <= cap + 1e-9:
            box.append((e1, e2, x.a, x.b, pair_mul((x.a, x.b), (x.a, x.b), quad.c1, quad.c0)))
    return sorted((ra, sa, rb, sb) for r1, r2, ra, rb, (ru, rv) in box
                  for s1, s2, sa, sb, (su, sv) in box
                  if r1 + s1 <= cap + 1e-9 and r2 + s2 <= cap + 1e-9
                  and abs(pair_norm((ru + su, rv + sv), quad.c1, quad.c0)) == n)


@pytest.mark.parametrize("ambient, limit", [
    (Ambient.Z_ISQRT2_AS_Z4, 60),
    (Ambient.Z_ITAU_AS_Z4, 30),
])
def test_is_principal_tries_exactly_the_norm_passing_pairs(ambient, limit, monkeypatch):
    # with every membership test failing, the lookup tries each pair once;
    # the ideals are listed as invariant already, so the ideal check is skipped
    tried = []

    def record(sub, vector):
        tried.append(tuple(vector))
        return False

    subs = [sub for m in range(1, limit + 1) for sub in list_ideals(ambient, m)]
    monkeypatch.setattr(lattice, "is_invariant", lambda sub, actions: True)
    monkeypatch.setattr(Submodule, "contains", record)
    total = 0
    for sub in subs:
        tried.clear()
        assert not is_principal(sub)
        assert sorted(tried) == _norm_passing_pairs(sub), sub.basis
        total += len(tried)
    assert total >= len(subs)


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


def _i_blocks(ambient):
    return flag_split(ambient_actions(ambient))[1]


def test_block_cache_cold_and_warm_agree():
    for ambient in (Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        lattice._invariant_blocks.cache_clear()
        cold = verify_series(ambient, 40)
        cold_bases = [s.basis for s in list_ideals(ambient, 48)]
        assert lattice._invariant_blocks.cache_info().hits > 0
        warm = verify_series(ambient, 40)
        assert cold.ok and warm.rows == cold.rows, ambient
        assert [s.basis for s in list_ideals(ambient, 48)] == cold_bases


def test_block_cache_shared_across_threads():
    lattice._invariant_blocks.cache_clear()
    expected = [catalog.zeta_q_itau(24).a(m) for m in range(1, 25)]
    results = [None] * 4

    def work(k):
        results[k] = [count_ideals(Ambient.Z_ITAU_AS_Z4, m) for m in range(1, 25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected] * 4


def test_block_cache_entries_are_read_only_and_bounded():
    lattice._invariant_blocks.cache_clear()
    # i keeps the lattice with columns (5, 0), (x, 1) iff x^2 = -1 mod 5,
    # and no lattice with columns (1, 0), (0, 5): that diagonal is absent
    blocks = lattice._invariant_blocks(5, _i_blocks(Ambient.Z_ITAU_AS_Z4))
    assert list(blocks) == [(5, 1)]
    n, digits = blocks[(5, 1)]
    assert n == 2 and digits[(0, 1)].tolist() == [2, 3]
    with pytest.raises(ValueError):
        digits[(0, 1)][0] = 1
    with pytest.raises(TypeError):
        blocks[(1, 5)] = (0, {})
    # the restriction of i is the same in both rings, so they share the entry
    assert lattice._invariant_blocks(5, _i_blocks(Ambient.Z_ISQRT2_AS_Z4)) is blocks
    verify_series(Ambient.Z_ITAU_AS_Z4, 120, max_candidates=10 ** 9)
    info = lattice._invariant_blocks.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize


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
    # the counts of 1..limit come from one kernel walk, whatever the ambient
    calls = []
    walk = lattice._similarity_counts

    def recorded(ambient, indices):
        calls.append((ambient, indices))
        return walk(ambient, indices)

    monkeypatch.setattr(lattice, "_similarity_counts", recorded)
    for ambient, limit in ((Ambient.Z_TAU_AS_Z2, 60), (Ambient.Z_ITAU_AS_Z4, 30),
                           (Ambient.Z_ISQRT2_AS_Z4, 30)):
        calls.clear()
        report = verify_series(ambient, limit)
        assert calls == [(ambient, range(1, limit + 1))], ambient
        assert [row[:2] for row in report.rows] == \
            [(m, count_similarity_submodules(ambient, m)) for m in range(1, limit + 1)], ambient


def test_verify_series_zitau_300():
    # the budget still counts the full HNF set: 4,387,882,163 for m <= 300
    assert sum(hnf_candidate_count(4, m) for m in range(1, 301)) == 4_387_882_163
    report = verify_series(Ambient.Z_ITAU_AS_Z4, 300, max_candidates=10 ** 10)
    assert report.summary() == "300/300 match"


def test_verify_series_zisqrt2_300():
    report = verify_series(Ambient.Z_ISQRT2_AS_Z4, 300, max_candidates=10 ** 10)
    assert report.summary() == "300/300 match"


def test_resource_guard(monkeypatch):
    with pytest.raises(EnumerationBudgetExceeded):
        count_ideals(Ambient.Z_ITAU_AS_Z4, 97, max_candidates=1000)
    with pytest.raises(EnumerationBudgetExceeded):
        hnf_sublattices(4, 101, max_candidates=10)
    with pytest.raises(EnumerationBudgetExceeded):
        verify_series(Ambient.Z_ITAU_AS_Z4, 100, max_candidates=10 ** 5)
    # the budget is computed once per m: verify_series checks the whole
    # range up front, and its walk checks no index again
    seen = []
    count = lattice.hnf_candidate_count

    def recorded(rank, m):
        seen.append((rank, m))
        return count(rank, m)

    monkeypatch.setattr(lattice, "hnf_candidate_count", recorded)
    assert verify_series(Ambient.Z_ITAU_AS_Z4, 40).ok
    assert seen == [(4, m) for m in range(1, 41)]


def test_contains_matches_enumeration():
    rng = random.Random(43)
    for sub in hnf_sublattices(2, 9):
        for _ in range(20):
            x = [rng.randint(-3, 3), rng.randint(-3, 3)]
            vec = [sum(sub.basis[i][j] * x[j] for j in range(2)) for i in range(2)]
            assert sub.contains(vec)
        assert not sub.contains([1, 0]) or sub.basis[0][0] == 1
