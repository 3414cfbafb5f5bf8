"""Acceptance suite: every criterion as one test with its stated budget.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -s`
to see them live.  All coefficient comparisons are exact integer equality.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout

from simsub import catalog, cli, cubic, lattice, quadratic, quartic
from simsub.lattice import Ambient

MAX_CANDIDATES = 10 ** 9

EQ4_TERMS = {1: 1, 4: 1, 5: 1, 9: 1, 11: 2, 16: 1, 19: 2, 20: 1,
             25: 1, 29: 2, 31: 2, 36: 1, 41: 2}
EQ6_TERMS = {1: 1, 4: 1, 5: 2, 9: 2, 16: 1, 20: 2, 25: 3, 36: 2,
             45: 4, 49: 2, 64: 1, 80: 2, 81: 3}
EQ8_TERMS = {1: 1, 4: 2, 8: 2, 9: 2, 16: 2, 17: 4, 25: 2, 32: 2,
             36: 4, 41: 4, 49: 2, 64: 2, 68: 8}
EQ13_TERMS = {1: 1, 64: 9, 125: 7, 729: 11, 1331: 26, 4096: 41,
              6859: 42, 8000: 63, 15625: 37, 24389: 62}


@contextmanager
def criterion(num, desc, limit_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed < limit_seconds else "FAIL"
        print(f"ACCEPTANCE {num:2d} [{status}] {desc} "
              f"({elapsed:.2f}s, budget {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s over budget"


def run_coeffs(series, limit):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["coeffs", "--series", series, "--limit", str(limit)])
    assert code == 0
    payload = json.loads(buf.getvalue())
    return {row["m"]: row["a"] for row in payload["coefficients"]}


def test_criterion_01_zeta_q_tau_reproduction():
    with criterion(1, "zeta-qtau matches the 13 printed terms to 41", 1.0):
        table = run_coeffs("zeta-qtau", 41)
        assert table == EQ4_TERMS


def test_criterion_02_zeta_q_itau_reproduction():
    with criterion(2, "zeta-qitau matches the 13 printed terms to 81", 1.0):
        table = run_coeffs("zeta-qitau", 81)
        for m, a in EQ6_TERMS.items():
            assert table.get(m, 0) == a, m


def test_criterion_03_zeta_zi_sqrt2_reproduction():
    with criterion(3, "zeta-zisqrt2 matches the 13 printed terms to 68", 1.0):
        table = run_coeffs("zeta-zisqrt2", 68)
        assert table == EQ8_TERMS
        assert table.get(2, 0) == 0


def test_criterion_04_f_cubic_reproduction():
    with criterion(4, "f-cubic matches the 10 printed terms to 24389", 5.0):
        table = run_coeffs("f-cubic", 24389)
        assert table == EQ13_TERMS


def test_criterion_05_oracle_ztau_200():
    with criterion(5, "brute-force Z[tau] counts match to 200", 30.0):
        report = lattice.verify_series(Ambient.Z_TAU_AS_Z2, 200,
                                       max_candidates=MAX_CANDIDATES)
        assert report.ok, report.summary()
        assert len(report.rows) == 200


def test_criterion_06_oracle_zitau_100():
    with criterion(6, "brute-force Z[i,tau] ideal counts match to 100", 300.0):
        report = lattice.verify_series(Ambient.Z_ITAU_AS_Z4, 100,
                                       max_candidates=MAX_CANDIDATES)
        assert report.ok, report.summary()


def test_criterion_07_oracle_zisqrt2_72_with_nonprincipal_witness():
    with criterion(7, "brute-force Z[i,sqrt2] principal counts match to 72, "
                      "non-principal ideal exhibited", 300.0):
        report = lattice.verify_series(Ambient.Z_ISQRT2_AS_Z4, 72,
                                       max_candidates=MAX_CANDIDATES)
        assert report.ok, report.summary()
        witnesses = [s for s in lattice.list_ideals(Ambient.Z_ISQRT2_AS_Z4, 2)
                     if not lattice.is_principal(s)]
        assert witnesses, "expected a non-principal invariant sublattice of index 2"
        print(f"    non-principal index-2 ideal basis: {witnesses[0].basis}")


def test_criterion_08_rotation_counts():
    with criterion(8, "rotation counts 24/192/144/240 at |N(den)|=1/4/5/9", 600.0):
        phi = catalog.phi_c(9)
        expected = {m: 24 * phi.a(m) for m in range(1, 10)}
        report = cubic.verify_rotation_counts(9, expected)
        assert report.ok, report.summary()
        counts = dict((m, got) for m, got, _ in report.rows)
        assert counts[1] == 24 and counts[4] == 192
        assert counts[5] == 144 and counts[9] == 240


def test_criterion_09_submodule_counts_3d():
    with criterion(9, "3D submodule counts 1/9/7/11 at indices 1/64/125/729", 600.0):
        assert cubic.count_submodules_3d(1) == 1
        assert cubic.count_submodules_3d(64) == 9
        assert cubic.count_submodules_3d(125) == 7
        assert cubic.count_submodules_3d(729) == 11


def test_criterion_10_unit_group_suites():
    with criterion(10, "unit normal forms at stated heights; sigma_1 to 60", 60.0):
        # real quadratic units, coefficient height 50
        for ring in (quadratic.TAU, quadratic.SQRT2):
            units = quadratic.units_up_to_height(ring, 50)
            assert units
            for u in units:
                sign, exp = quadratic.unit_normal_form(u)
                assert quadratic.unit_from_normal_form(ring, sign, exp) == u
        # quartic units, coefficient height 8: every unit is i^k * mu^l
        for ring in (quartic.ITAU, quartic.ISQRT2):
            units = quartic.units_up_to_height(ring, 8)
            assert units
            for u in units:
                k, ell = quartic.quartic_unit_normal_form(u)
                assert quartic.unit_from_normal_form(ring, k, ell) == u
        # invertible self-similarities of Z[tau]^3: unit scales with the
        # 24 integral rotations (signed permutations)
        unit_rotations = cubic.enumerate_rotations(1)
        assert set(unit_rotations) == set(cubic.signed_permutations(det_sign=1))
        tau_unit = quadratic.TAU.omega()
        for r in list(unit_rotations)[:6]:
            for k in range(-2, 3):
                alpha = quadratic.unit_from_normal_form(quadratic.TAU, 1, k)
                assert cubic.is_unit_similarity(alpha, r)
                assert cubic.similarity_index(alpha, r) == 1
        assert not cubic.is_unit_similarity(quadratic.TAU.from_int(2),
                                            cubic.Rotation3.identity())
        reflection = next(cubic.signed_permutations(det_sign=-1))
        assert cubic.is_unit_similarity(tau_unit, reflection)
        assert tau_unit.is_unit()
        # sigma_1 sublattice count identity
        for m in range(1, 61):
            assert len(lattice.hnf_sublattices(2, m)) == catalog.sigma1(m)


def test_criterion_11_engine_properties():
    import random

    from simsub.dirichlet import (
        CoeffSeries, check_multiplicative, convolve, dirichlet_inverse,
        epsilon, summatory, scale_argument,
    )

    with criterion(11, "catalog multiplicativity and 1000 random engine identities", 10.0):
        for name, limit in (("zeta-qtau", 300), ("zeta-qitau", 300),
                            ("zeta-zisqrt2", 300), ("zeta-qxi8", 300),
                            ("phi-c", 300), ("f-cubic", 24389)):
            entry = catalog.catalog_entry(name, limit)
            assert check_multiplicative(entry.series), name

        rng = random.Random(99)
        n = 40
        eps = epsilon(n)
        for _ in range(1000):
            a = CoeffSeries.from_coeffs(n, [1] + [rng.randint(-3, 3) for _ in range(n - 1)])
            b = CoeffSeries.from_coeffs(n, [1] + [rng.randint(-3, 3) for _ in range(n - 1)])
            c = CoeffSeries.from_coeffs(n, [1] + [rng.randint(-3, 3) for _ in range(n - 1)])
            assert convolve(a, b).coeffs == convolve(b, a).coeffs
            assert convolve(convolve(a, b), c).coeffs == convolve(a, convolve(b, c)).coeffs
            assert convolve(a, eps).coeffs == a.coeffs
            assert convolve(a, dirichlet_inverse(a)).coeffs == eps.coeffs
        # scaling interacts with partial sums as floor-root evaluation
        z = catalog.zeta_q_tau(200)
        assert summatory(scale_argument(z, 3), 200) == summatory(z, 5)
