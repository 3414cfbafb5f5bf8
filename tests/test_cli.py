import csv
import hashlib
import importlib.util
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from simsub import catalog, cli, cubic, lattice
from simsub.dirichlet import dirichlet_inverse, summatory

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "zeta-qtau",
                           "--limit", "41")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == "zeta-qtau"
    assert payload["limit"] == 41
    table = {row["m"]: row["a"] for row in payload["coefficients"]}
    series = catalog.zeta_q_tau(41)
    assert table == dict(series.nonzero())
    assert {"m": 11, "a": 2} in payload["coefficients"]


def test_coeffs_limit_one(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "zeta-qtau",
                           "--limit", "1")
    assert code == 0
    assert json.loads(out)["coefficients"] == [{"m": 1, "a": 1}]


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "zeta-qxi8",
                           "--limit", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,a"
    assert lines[1] == "1,1"
    assert "2,1" in lines


def test_identical_invocations_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "coeffs", "--series", "phi-c", "--limit", "50")
    _, second, _ = run_cli(capsys, "coeffs", "--series", "phi-c", "--limit", "50")
    assert first == second


def test_unknown_series_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "coeffs", "--series", "zeta-q17",
                         "--limit", "5")
    assert code == 2


def test_bad_limit_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--series", "zeta-qtau",
                           "--limit", "0")
    assert code == 2
    assert "error" in err.lower()


def test_verify_ztau(capsys):
    code, out, _ = run_cli(capsys, "verify", "--module", "ztau",
                           "--limit", "41")
    assert code == 0
    assert "41/41 match" in out


def test_verify_exit_code_on_mismatch(capsys, monkeypatch):
    fake = lattice.OracleReport("ztau", 2, ((1, 1, 1), (2, 1, 0)))
    monkeypatch.setattr(lattice, "verify_series",
                        lambda *args, **kwargs: fake)
    code, out, _ = run_cli(capsys, "verify", "--module", "ztau", "--limit", "2")
    assert code == 1
    assert out == "1/2 match\n  m=2: oracle 1 != expected 0\n"


def test_verify_cubic3_mismatch_output(capsys, monkeypatch):
    # one rotation count and one submodule count forced wrong: both tables
    # report their mismatch row, each in its own wording
    rotation_counts = cubic.rotation_counts
    count_submodules_3d = cubic.count_submodules_3d
    monkeypatch.setattr(cubic, "rotation_counts",
                        lambda bound: {**rotation_counts(bound), 4: 193})
    monkeypatch.setattr(cubic, "count_submodules_3d",
                        lambda m: count_submodules_3d(m) + (m == 8))
    code, out, _ = run_cli(capsys, "verify", "--module", "cubic3", "--limit", "4")
    assert code == 1
    assert out == ("rotation counts vs 24 * phi-c, |N(den)| <= 4: 3/4 match (scan factor 16)\n"
                   "  |N(den)|=4: found 193 != expected 192\n"
                   "submodule counts vs f-cubic at cubes up to 64: 3/4 match\n"
                   "  index 8: oracle 1 != expected 0\n")


def test_verify_budget_guard_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--module", "zitau",
                           "--limit", "100", "--max-candidates", "1000")
    assert code == 2
    assert "ceiling" in err


def test_enumerate_ideals(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ambient", "ztau",
                           "--index", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert all(len(b) == 2 for b in payload["bases"])


def test_enumerate_principal(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ambient", "zisqrt2",
                           "--index", "2", "--filter", "principal")
    assert code == 0
    assert json.loads(out)["count"] == 0
    code, out, _ = run_cli(capsys, "enumerate", "--ambient", "zisqrt2",
                           "--index", "2", "--filter", "ideals")
    assert json.loads(out)["count"] == 1


def test_summatory(capsys):
    code, out, _ = run_cli(capsys, "summatory", "--series", "zeta-qtau",
                           "--limit", "20", "--at", "5", "--at", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [{"x": 1, "sum": 1}, {"x": 5, "sum": 3}]


def test_summatory_running_sum_matches_each_point(capsys):
    rng = random.Random(20)
    limit = 5000
    points = rng.sample(range(1, limit + 1), 50)
    argv = ["summatory", "--series", "phi-c", "--limit", str(limit)]
    for x in points:
        argv += ["--at", str(x)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    series = catalog.phi_c(limit)
    assert json.loads(out)["values"] == [{"x": x, "sum": summatory(series, x)}
                                         for x in sorted(points)]


def test_rotations_command(capsys):
    code, out, _ = run_cli(capsys, "rotations", "--bound", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [{"den_norm": 1, "rotations": 24}]


def test_bound_below_one_is_usage_error(capsys):
    for argv in (("rotations", "--bound", "0"),
                 ("rotations", "--bound", "-3"),
                 ("verify", "--module", "cubic3", "--limit", "0"),
                 ("rotations", "--bound", "4", "--scan-factor", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error" in err


def test_nonpositive_limit_or_index_is_parser_error(capsys):
    for argv in (("coeffs", "--series", "phi-c", "--limit", "0"),
                 ("summatory", "--series", "zeta-qtau", "--limit", "-1"),
                 ("enumerate", "--ambient", "zitau", "--index", "0"),
                 ("enumerate", "--ambient", "zitau", "--index", "-4"),
                 ("units", "--ring", "tau", "--height", "-1"),
                 ("units", "--ring", "itau", "--height", "0"),
                 ("verify", "--module", "ztau", "--limit", "5", "--max-candidates", "0"),
                 ("verify", "--module", "ztau", "--limit", "5", "--max-candidates", "-1"),
                 ("enumerate", "--ambient", "ztau", "--index", "4",
                  "--max-candidates", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "must be >= 1" in err, argv


def test_internal_error_is_not_usage_error(capsys, monkeypatch):
    def broken(n):
        raise ValueError("does not divide")

    monkeypatch.setattr(cubic, "_norm_cache", {})
    monkeypatch.setattr(cubic, "_rotations_of_norm", broken)
    code, out, err = run_cli(capsys, "verify", "--module", "cubic3", "--limit", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert "Traceback" in err and "does not divide" in err


def test_rotation_budget_guard_is_usage_error(capsys):
    for bound in (10 ** 6, 10 ** 400):
        code, out, err = run_cli(capsys, "rotations", "--bound", str(bound))
        assert code == 2
        assert out == ""
        assert "ceiling" in err


def test_table_ceiling_is_usage_error_before_any_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("coefficient table built before the ceiling check")

    monkeypatch.setattr(catalog, "catalog_entry", no_table)
    for limit in (cli.MAX_TABLE_LIMIT + 1, 10 ** 400):
        for command in ("coeffs", "summatory"):
            for series in ("zeta-qtau", "f-cubic"):
                code, out, err = run_cli(capsys, command, "--series", series,
                                         "--limit", str(limit))
                assert code == 2, (command, series, limit)
                assert out == ""
                assert err.startswith("error:") and err.count("\n") == 1
                assert "ceiling" in err
    cli._check_table_limit(cli.MAX_TABLE_LIMIT)


def test_summatory_point_outside_limit_is_usage_error_before_any_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("coefficient table built before the point check")

    monkeypatch.setattr(catalog, "catalog_entry", no_table)
    for at in ("0", "-5", "3000001"):
        code, out, err = run_cli(capsys, "summatory", "--series", "phi-c",
                                 "--limit", "3000000", "--at", "7", "--at", at)
        assert code == 2, at
        assert out == ""
        assert err.startswith("error:") and f"summatory point {at} outside" in err


def test_budget_guards_run_before_any_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("coefficient table built before the budget check")

    monkeypatch.setattr(catalog, "phi_c", no_table)
    monkeypatch.setattr(lattice, "_EXPECTED_SERIES",
                        dict.fromkeys(lattice._EXPECTED_SERIES, no_table))
    for bound in (10 ** 6, 10 ** 400):
        for argv in (("verify", "--module", "zitau", "--limit", str(bound),
                      "--max-candidates", "1000"),
                     ("verify", "--module", "cubic3", "--limit", str(bound))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "ceiling" in err


def test_huge_index_is_refused_without_counting_candidates(capsys, monkeypatch):
    # the diagonal (m, 1, ..., 1) alone holds m^(rank-1) candidates, so the
    # budget refuses before walking the ordered diagonals of m; m^3 of a
    # 4,000-digit index is past the int-to-str limit, so no message may print it
    def no_count(*args):
        raise AssertionError("candidates counted past the cheap bound")

    monkeypatch.setattr(lattice, "hnf_candidate_count", no_count)
    for index in (10 ** 400, 10 ** 4000):
        for ambient in ("ztau", "zitau"):
            for filt in ("all", "ideals", "principal"):
                start = time.perf_counter()
                code, out, err = run_cli(capsys, "enumerate", "--ambient", ambient,
                                         "--index", str(index), "--filter", filt)
                assert time.perf_counter() - start < 1.0
                assert code == 2, (ambient, filt)
                assert out == ""
                # Z[tau] has no principal filter, which is refused first
                word = "rank-4" if (ambient, filt) == ("ztau", "principal") else "ceiling"
                assert word in err, (ambient, filt, index)


def test_listing_ceiling_is_usage_error_before_enumerating(capsys, monkeypatch):
    def no_listing(*args):
        raise AssertionError("bases enumerated before the listing ceiling check")

    monkeypatch.setattr(lattice, "hnf_sublattices", no_listing)
    # 9,438,664 bases (the cheap bound refuses), and sigma_1(10^6) = 2,480,437
    for ambient, index in (("zitau", 211), ("ztau", 10 ** 6)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", "--ambient", ambient,
                                 "--index", str(index), "--filter", "all")
        assert time.perf_counter() - start < 1.0
        assert code == 2, ambient
        assert out == ""
        assert "ceiling" in err, ambient
    # Z[i,tau] index 48 (472,440 bases, about 0.5 GB) stays under the ceiling
    assert not lattice.hnf_candidates_over(4, 48, cli.MAX_LISTED_BASES)


def test_principal_filter_on_ztau_is_usage_error(capsys):
    for index in ("2", "4"):
        code, out, err = run_cli(capsys, "enumerate", "--ambient", "ztau",
                                 "--index", index, "--filter", "principal")
        assert code == 2, index
        assert out == ""
        assert "rank-4" in err


def test_units_command(capsys):
    code, out, _ = run_cli(capsys, "units", "--ring", "tau", "--height", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_decomposed"] is True
    assert payload["units_found"] > 0


def test_units_height_over_the_scan_ceiling_is_usage_error(capsys):
    # 2001^4 vectors would take years; the ceiling refuses before the scan
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "units", "--ring", "itau", "--height", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # the default height is under the ceiling, with the output it always had
    code, out, _ = run_cli(capsys, "units", "--ring", "tau", "--height", "50")
    assert code == 0
    assert out == '{"ring":"tau","height":50,"units_found":36,"all_decomposed":true}\n'


def test_coeffs_f_cubic_25000(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "f-cubic",
                           "--limit", "25000")
    assert code == 0
    rows = json.loads(out)["coefficients"]
    assert {"m": 64, "a": 9} in rows


def _coeffs_reference(series_name, limit, series, fmt):
    """coeffs stdout as a list of row dicts through json.dumps, or csv.writer."""
    pairs = list(series.nonzero())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("m", "a"))
        writer.writerows(pairs)
        return buf.getvalue()
    payload = {"series": series_name, "limit": limit,
               "coefficients": [{"m": m, "a": a} for m, a in pairs]}
    return json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=False) + "\n"


def test_coeffs_output_matches_row_dict_reference(capsys):
    for name in catalog.CLI_SERIES:
        for limit in (1, 2, 97, 1000, 4096):
            series = catalog.catalog_entry(name, limit).series
            for fmt in ("json", "csv"):
                code, out, _ = run_cli(capsys, "coeffs", "--series", name,
                                       "--limit", str(limit), "--format", fmt)
                assert code == 0
                assert out == _coeffs_reference(name, limit, series, fmt), (name, limit, fmt)


def test_coeffs_output_with_negative_coefficients(capsys, monkeypatch):
    mu = dirichlet_inverse(catalog.riemann_zeta(100))
    assert min(mu.coeffs) < 0
    monkeypatch.setattr(catalog, "catalog_entry", lambda name, limit:
                        catalog.CatalogEntry(catalog.SeriesName(name), mu))
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(capsys, "coeffs", "--series", "zeta-qtau",
                               "--limit", "100", "--format", fmt)
        assert code == 0
        assert out == _coeffs_reference("zeta-qtau", 100, mu, fmt), fmt


def test_worker_count_does_not_change_results(capsys, monkeypatch):
    # verify walks 1..limit once, on the calling thread; SIMSUB_THREADS, which
    # once sized a thread pool, changes neither the output nor the exit code
    for module, limit in (("zitau", 20), ("ztau", 60), ("zisqrt2", 20)):
        argv = ("verify", "--module", module, "--limit", str(limit))
        outputs = set()
        for raw in (None, "0", "abc", "3"):
            if raw is None:
                monkeypatch.delenv("SIMSUB_THREADS", raising=False)
            else:
                monkeypatch.setenv("SIMSUB_THREADS", raw)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, (module, raw)
            outputs.add(out)
        assert len(outputs) == 1, module
        assert f"{limit}/{limit} match" in outputs.pop(), module


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "simsub.cli", "coeffs", "--series",
         "zeta-qtau", "--limit", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["limit"] == 5


def _load_workloads(monkeypatch):
    # perfbench is not a package, so its workload table is loaded from the
    # file; its dataclass needs the module registered while it is built
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_series_tables_benchmark_output_is_byte_identical(capsys, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    for size in ("full", "tiny"):
        for _, argv in workloads.WORKLOADS["series-tables"].commands(size):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            key = " ".join(argv)
            assert workloads.digest(out) == workloads.DIGESTS[key], key


def test_rotation_path_output_is_byte_identical_past_the_benchmark(capsys):
    # SHA-256 of stdout recorded before quadratic.coprime and canonical_unit
    # took over the least-denominator test and the unit walk of cubic (limit
    # 16: before one Hermite basis was reduced per rotation coset); the
    # benchmark's own digests stop at cubic3 --limit 4
    digests = {
        ("verify", "--module", "cubic3", "--limit", "9"):
            "cf5514ffd8c5fa3e381f93e577e35adbf27602840d8f4eb4d74d63590fe8dd85",
        ("verify", "--module", "cubic3", "--limit", "16"):
            "e982301f51bb9d622a944618a5c20389e76fd2dee0aaeb8be9a88887b0752305",
        ("rotations", "--bound", "9"):
            "745b4b50f9b86e15ca7f94a2369a90d7bb7d65639a86ef47fe6b4fa3f988c926",
    }
    for argv, want in digests.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def test_enumerate_output_is_byte_identical(capsys):
    # SHA-256 of stdout recorded when every basis was copied into a list of
    # lists and the whole payload was dumped at once; the bases are now
    # written one by one from their tuples
    digests = {
        ("--ambient", "zitau", "--index", "12", "--filter", "all"):
            "5af20fb59773cb2b129da7cc7ae7a2c1bd2105c2d4060eb8388705417f98ccdc",
        ("--ambient", "zitau", "--index", "12", "--filter", "all", "--format", "csv"):
            "0bb992c8f4b4542e43c078ca309f53a1aff48203a2c8d23853bfaf671bce4727",
        ("--ambient", "ztau", "--index", "20", "--filter", "all"):
            "f26fd4772695f2a2935179ee26c0aee1e005272a01aa0532c6337534b8deea19",
        ("--ambient", "zitau", "--index", "45"):
            "197522d8bdba67625b04caa2894cb692336a98f0abe51689a8cbc8d22082610e",
        ("--ambient", "zitau", "--index", "45", "--format", "csv"):
            "d04e35047cf19b413caaf4ec84b250e6b1d78e0009ffd42c3d62267994e862a7",
        ("--ambient", "zisqrt2", "--index", "68", "--filter", "principal"):
            "0ce1163669a3ca7643d13484e0f5fa10ef087a38fee6263e952193c691436673",
        ("--ambient", "zisqrt2", "--index", "68", "--filter", "principal", "--format", "csv"):
            "e748bd8cb1abe6ce0effd289fe1a623e2fb4c12b7ebd5e5a168521a36c4cdb84",
        ("--ambient", "ztau", "--index", "2"):  # no ideal: an empty list of bases
            "76ce2c42554cb2851221949c6df4c618d7ac3c7bb46435a150c1445e6b0ad911",
        ("--ambient", "ztau", "--index", "2", "--format", "csv"):
            "d351db380b9ac43a02fa6b289c35278927046930b1e99879de27285b9db049b2",
    }
    for argv, want in digests.items():
        code, out, _ = run_cli(capsys, "enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
