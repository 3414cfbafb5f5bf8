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
from simsub.quadratic import QuadInt, elements_in_embedding_box
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
    for ambient in (Ambient.Z_ISQRT2_AS_Z4, Ambient.Z_ITAU_AS_Z4):
        actions = ambient_actions(ambient)
        for m in range(1, 17):
            scalar = [s.basis for s in hnf_sublattices(4, m, ambient)
                      if is_invariant(s, actions)]
            kernel = [s.basis for s in list_ideals(ambient, m)]
            assert scalar == kernel, (ambient, m)


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
    for x in elements_in_embedding_box(ring.quad, side, side):
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


_parts = st.integers(-10 ** 6, 10 ** 6)


@given(st.sampled_from((ITAU, ISQRT2)), _parts, _parts, _parts, _parts)
@example(ITAU, 0, 0, 0, 0)
@example(ISQRT2, 0, 0, 0, 0)
@example(ISQRT2, -3, 0, 0, -2)
@example(ITAU, -1, 1, 2, -1)
def test_pair_square_norm_matches_quartic_norm(ring, a, b, c, d):
    quad = ring.quad
    ru, rv = lattice._square_pair(a, b, quad)
    su, sv = lattice._square_pair(c, d, quad)
    x = QuarticInt.from_parts(QuadInt(a, b, quad), QuadInt(c, d, quad), ring)
    assert (ru + su, rv + sv) == (x.rel_norm().a, x.rel_norm().b)
    assert lattice._pair_abs_norm(ru + su, rv + sv, quad) == x.abs_norm()


def _i_blocks(ambient):
    return flag_split(ambient_actions(ambient))[1]


def test_block_cache_cold_and_warm_agree():
    for ambient in (Ambient.Z_ITAU_AS_Z4, Ambient.Z_ISQRT2_AS_Z4):
        for workers in (1, 2):
            lattice._invariant_block.cache_clear()
            cold = verify_series(ambient, 40, workers=workers)
            cold_bases = [s.basis for s in list_ideals(ambient, 48)]
            assert lattice._invariant_block.cache_info().hits > 0
            warm = verify_series(ambient, 40, workers=workers)
            assert cold.ok and warm.rows == cold.rows, (ambient, workers)
            assert [s.basis for s in list_ideals(ambient, 48)] == cold_bases


def test_block_cache_shared_across_threads():
    lattice._invariant_block.cache_clear()
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
    lattice._invariant_block.cache_clear()
    # i keeps the lattice with columns (5, 0), (x, 1) iff x^2 = -1 mod 5
    n, digits = lattice._invariant_block((5, 1), _i_blocks(Ambient.Z_ITAU_AS_Z4))
    assert n == 2 and digits[(0, 1)].tolist() == [2, 3]
    with pytest.raises(ValueError):
        digits[(0, 1)][0] = 1
    # the restriction of i is the same in both rings, so they share the entry
    assert lattice._invariant_block((5, 1), _i_blocks(Ambient.Z_ISQRT2_AS_Z4))[1] is digits
    verify_series(Ambient.Z_ITAU_AS_Z4, 120, max_candidates=10 ** 9)
    info = lattice._invariant_block.cache_info()
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


def test_verify_series_zitau_300():
    # the budget still counts the full HNF set: 4,387,882,163 for m <= 300
    assert sum(hnf_candidate_count(4, m) for m in range(1, 301)) == 4_387_882_163
    report = verify_series(Ambient.Z_ITAU_AS_Z4, 300, max_candidates=10 ** 10)
    assert report.summary() == "300/300 match"


def test_verify_series_zisqrt2_300():
    report = verify_series(Ambient.Z_ISQRT2_AS_Z4, 300, max_candidates=10 ** 10)
    assert report.summary() == "300/300 match"


def test_resource_guard():
    with pytest.raises(EnumerationBudgetExceeded):
        count_ideals(Ambient.Z_ITAU_AS_Z4, 97, max_candidates=1000)
    with pytest.raises(EnumerationBudgetExceeded):
        hnf_sublattices(4, 101, max_candidates=10)
    with pytest.raises(EnumerationBudgetExceeded):
        verify_series(Ambient.Z_ITAU_AS_Z4, 100, max_candidates=10 ** 5)
    # the budget walk runs once per m: enumerating each m reuses it
    hnf_candidate_count.cache_clear()
    assert verify_series(Ambient.Z_ITAU_AS_Z4, 40, workers=1).ok
    info = hnf_candidate_count.cache_info()
    assert info.misses == 40 and info.hits == 40
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_contains_matches_enumeration():
    rng = random.Random(43)
    for sub in hnf_sublattices(2, 9):
        for _ in range(20):
            x = [rng.randint(-3, 3), rng.randint(-3, 3)]
            vec = [sum(sub.basis[i][j] * x[j] for j in range(2)) for i in range(2)]
            assert sub.contains(vec)
        assert not sub.contains([1, 0]) or sub.basis[0][0] == 1
