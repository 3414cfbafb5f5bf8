import json
import subprocess
import sys

from simsub import catalog, cli, cubic, lattice


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
    assert "1/2 match" in out


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


def test_invalid_thread_setting_is_usage_error(capsys, monkeypatch):
    for raw in ("0", "abc"):
        monkeypatch.setenv("SIMSUB_THREADS", raw)
        code, out, err = run_cli(capsys, "verify", "--module", "ztau", "--limit", "3")
        assert code == 2, raw
        assert out == ""
        assert err.startswith("error: SIMSUB_THREADS must be an integer >= 1"), raw


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


def test_coeffs_f_cubic_25000(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "f-cubic",
                           "--limit", "25000")
    assert code == 0
    rows = json.loads(out)["coefficients"]
    assert {"m": 64, "a": 9} in rows


def test_worker_count_does_not_change_results(capsys, monkeypatch):
    monkeypatch.setenv("SIMSUB_THREADS", "1")
    _, serial, _ = run_cli(capsys, "verify", "--module", "zitau", "--limit", "20")
    monkeypatch.setenv("SIMSUB_THREADS", "3")
    _, threaded, _ = run_cli(capsys, "verify", "--module", "zitau", "--limit", "20")
    assert serial == threaded


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "simsub.cli", "coeffs", "--series",
         "zeta-qtau", "--limit", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["limit"] == 5
