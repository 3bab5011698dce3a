import argparse
import collections
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

from divpart import arith, cli, dirichlet, partition, saddle


def _subparsers():
    """Subcommand name -> its parser, as cli.build_parser declares them."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


SUBCOMMANDS = sorted(_subparsers())


def _src_env():
    """The environment for a fresh interpreter that imports this divpart."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstants:
    def test_r1_values(self, capsys, tmp_path):
        path = tmp_path / "constants.json"
        code, _, _ = run_cli(["constants", "--r", "1", "--output", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert abs(float(doc["C"]) - 1.339784) < 1e-5
        assert abs(float(doc["zeta2_times_C"]) - 2.20386) < 1e-4

    def test_r2_has_both_conventions(self, capsys):
        code, out, _ = run_cli(["constants", "--r", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        for key in ("C", "Cprime", "K1", "N", "C_mu", "C_sigma", "convention"):
            assert key in doc
        assert doc["convention"] == "standard"
        assert doc["alt_convention"] == "shifted-zeta"
        assert float(doc["C_mu"]) > 0

    @pytest.mark.parametrize("r", ["98", "169", "170"])
    def test_large_r_stays_finite(self, capsys, r):
        # Gamma(r+2)^2 alone overflowed from r = 98 on, though every printed value is finite
        code, out, err = run_cli(["constants", "--r", r, "--prime-cutoff", "1000"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        for key in ("N", "C_mu", "C_sigma", "C_mu_alt", "C_sigma_alt"):
            assert 0.0 < float(doc[key]) < math.inf

    def test_r_past_the_float_factorials(self):
        proc = subprocess.run(
            [sys.executable, "-m", "divpart", "constants", "--r", "171", "--prime-cutoff", "1000"],
            capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("configuration error:") and "[1, 170]" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("r,expected", [
        ("1", {"constant_C": 1, "euler_K": 1}),
        ("3", {"constant_C": 1, "euler_K": 1, "E_r_and_Cprime": 1}),
    ])
    def test_each_euler_product_once(self, capsys, monkeypatch, r, expected):
        calls = collections.Counter()
        for name in ("constant_C", "euler_K", "E_r_and_Cprime"):
            def counted(*args, _fn=getattr(dirichlet, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(dirichlet, name, counted)
        code, out, err = run_cli(["constants", "--r", r, "--prime-cutoff", "1000"], capsys)
        assert code == 0, err
        assert calls == expected


class TestTable:
    def test_csv_contains_known_cell(self, capsys):
        code, out, _ = run_cli(["table", "--r", "2", "--N", "3", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "n,k,coefficient"
        assert "3,2,20" in out.splitlines()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["table", "--r", "2", "--N", "5", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n_max"] == 5

    def test_huge_r_fits_the_digit_width(self, capsys):
        # gaps past the float range once made the width bound raise
        code, out, err = run_cli(["table", "--r", "300", "--N", "30"], capsys)
        assert code == 0, err
        assert out.splitlines()[-1].startswith("30,30,")

    def test_large_r_fits_the_digit_width(self, capsys):
        # gaps of up to 60 digits; the widest cell has 1,093 bits, the digits 1,096
        code, out, err = run_cli(["table", "--r", "40", "--N", "30"], capsys)
        assert code == 0, err
        assert out.splitlines()[-1].startswith("30,30,")

    def test_csv_shape(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, err = run_cli(["table", "--r", "2", "--N", "3", "--output", str(path)], capsys)
        assert code == 0, err
        raw = path.read_bytes()
        lines = raw.decode().splitlines()
        assert lines[0] == "n,k,coefficient"
        assert "3,2,20" in lines
        assert raw.endswith(b"\n") and b"\r" not in raw

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(["table", "--r", "2", "--N", "10", "--format", "json"], capsys)
        assert code == 0
        t = partition.build_table(2, 10)
        doc = json.loads(out)
        assert doc["r"] == 2 and doc["n_max"] == 10 and doc["k_max"] == 10
        cells = {(n, k): int(c) for n, k, c in doc["entries"]}
        for (n, k), c in cells.items():
            assert t.coeff[n][k] == c
        assert [int(x) for x in doc["row_totals"]] == t.row_totals

    def test_export_deterministic(self, capsys):
        for fmt in ("csv", "json"):
            args = ["table", "--r", "2", "--N", "15", "--format", fmt]
            assert run_cli(args, capsys) == run_cli(args, capsys)

    def test_int_str_limit_restored_after_a_failed_write(self, capsys, tmp_path):
        # the limit is lifted while the r = 363 text is built, and the write
        # to a missing directory fails after that
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(["table", "--r", "363", "--N", "40", "--output", str(path)],
                                 capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_cells_past_the_int_str_limit_export(self, capsys, fmt):
        # the widest cell at r = 363, N = 40 has 4,324 digits, past Python's
        # default 4,300-digit str() limit, which the export lifts and restores
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(["table", "--r", "363", "--N", "40", "--format", fmt], capsys)
        assert code == 0, err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        if fmt == "json":
            doc = json.loads(out)
            assert doc["n_max"] == 40
            assert max(len(c.lstrip("-")) for _, _, c in doc["entries"]) > 4300
        else:
            assert out.splitlines()[-1].startswith("40,40,")

    def test_digit_width_failure_is_an_error_not_a_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(partition, "_digit_bits", lambda gaps, n_max: 8)
        code, out, err = run_cli(["table", "--r", "2", "--N", "40"], capsys)
        assert code == 1
        assert err.startswith("error:") and "digit-width bound violated" in err
        assert "Traceback" not in err and out == ""


class TestSaddleCommand:
    def test_keys_and_residual(self, capsys):
        code, out, _ = run_cli(
            ["saddle", "--n", "100", "--r", "2", "--u", "1.0", "--mode", "general"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        for key in ("tau", "residual", "F", "F_g", "F_gg", "B2", "mu", "nu2"):
            assert key in doc
        assert float(doc["residual"]) < 1e-7

    @pytest.mark.parametrize("u,mode,solves", [
        ("1", "general", 1),
        ("1", "paper_literal", 1),
        ("1e-3", "paper_literal", 1),
        ("1.5", "paper_literal", 1),
        ("0.5", "general", 2),
    ])
    def test_solves_the_u1_root_once(self, capsys, monkeypatch, u, mode, solves):
        # mu and nu2 come from the u = 1 root; only general mode at u != 1
        # needs a second solve for it
        calls = []
        solve = saddle.solve_saddle

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(saddle, "solve_saddle", counted)
        code, out, err = run_cli(["saddle", "--n", "300", "--r", "2", "--u", u,
                                  "--mode", mode], capsys)
        assert code == 0, err
        assert len(calls) == solves
        doc = json.loads(out)
        mu, nu2 = saddle.mean_variance_saddle(300, 2, mode)
        assert (doc["mu"], doc["nu2"]) == (cli.fmt(mu), cli.fmt(nu2))


class TestReportCommands:
    def test_clt_report_csv_and_json(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["clt-report", "--r", "2", "--n-list", "10,20,30,40",
             "--csv", str(csv_path), "--output", str(json_path)],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("n,mean_exact")
        assert len(lines) == 5
        doc = json.loads(json_path.read_text())
        assert doc["n_list"] == [10, 20, 30, 40]
        assert "exclusion_count" in doc

    def test_tail_refusal_becomes_finding(self, capsys):
        code, out, _ = run_cli(["tail", "--n", "50", "--r", "2", "--x-grid", "1,2"], capsys)
        assert code == 0
        assert "# finding:" in out

    def test_mgf_with_override(self, capsys):
        code, out, _ = run_cli(
            ["mgf", "--n", "50", "--r", "2", "--theta-grid", "0.25,0.5",
             "--max-negative-mass", "0.01"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,mgf_exact,gauss_target,rel_deviation"
        assert len(lines) == 3

    def test_mgf_rel_deviation_is_the_documented_one(self, capsys):
        # |m - t| / t from the printed values, which 17 digits give exactly
        code, out, err = run_cli(["mgf", "--n", "60", "--r", "3", "--theta-grid=-1,0.5,2",
                                  "--max-negative-mass", "1e-12"], capsys)
        assert code == 0, err
        for line in out.splitlines()[1:]:
            _, m_est, target, dev = map(float, line.split(","))
            assert m_est != target
            assert dev == abs(m_est - target) / target

    def test_mgf_strict_refuses(self, capsys):
        code, _, err = run_cli(["mgf", "--n", "50", "--r", "2"], capsys)
        assert code == 1
        assert "refused" in err

    # r = 1, n = 4 and n = 6 are signed rows of negative exact variance
    # (-1/9 at n = 4); no max_negative_mass admits them as laws
    def test_clt_report_excludes_nonpositive_variance(self, capsys):
        code, out, err = run_cli(["clt-report", "--r", "1", "--n-list", "4,5,6,7",
                                  "--max-negative-mass", "inf"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[1].startswith("4,") and lines[3].startswith("6,")
        assert lines[1].endswith(",,1,0,nonpositive variance (-1.111e-01)")
        assert lines[3].endswith(",,1,0,nonpositive variance (-2.933e-01)")
        assert json.loads("\n".join(lines[5:]))["excluded"] == [4, 6]

    def test_tail_names_the_variance(self, capsys):
        code, out, _ = run_cli(["tail", "--n", "4", "--r", "1",
                                "--max-negative-mass", "inf"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == [
            "# finding: row 4 refused for tail check: nonpositive variance (-1.111e-01)"]

    def test_mgf_names_the_variance(self, capsys):
        code, out, err = run_cli(["mgf", "--n", "4", "--r", "1",
                                  "--max-negative-mass", "inf"], capsys)
        assert code == 1 and out == ""
        assert err == "error: row 4 refused for MGF: nonpositive variance (-1.111e-01)\n"

    # r = 1, n = 236 is the first row of negative total; the gate reads the
    # total before the cells, whatever max_negative_mass admits
    def test_clt_report_excludes_a_negative_total(self, capsys):
        code, out, err = run_cli(["clt-report", "--r", "1", "--n-list", "200,235,236"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[3].startswith("236,") and lines[3].endswith(",,31,0,nonpositive row total")
        assert not any(line.endswith("nonpositive row total") for line in lines[1:3])
        assert json.loads("\n".join(lines[4:]))["excluded"] == [200, 235, 236]

    def test_tail_names_the_negative_total(self, capsys):
        code, out, _ = run_cli(["tail", "--n", "236", "--r", "1"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == [
            "# finding: row 236 refused for tail check: nonpositive row total"]

    def test_mgf_names_the_negative_total(self, capsys):
        code, out, err = run_cli(["mgf", "--n", "236", "--r", "1",
                                  "--max-negative-mass", "inf"], capsys)
        assert code == 1 and out == ""
        assert err == "error: row 236 refused for MGF: nonpositive row total\n"


class TestDirichletCheck:
    def test_emits_series_comparison(self, capsys):
        code, out, _ = run_cli(["dirichlet-check", "--r", "2", "--s", "5.0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert float(doc["d1_difference"]) < 1e-3
        assert doc["shifted_ok"] is True
        assert float(doc["dsigma_residual"]) < 1e-6

    def test_r1_omits_shifted_series(self, capsys):
        code, out, err = run_cli(["dirichlet-check", "--r", "1", "--s", "3.5"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert not [key for key in doc if key.startswith("shifted")]
        assert float(doc["d1_difference"]) < 1e-3
        assert float(doc["dsigma_residual"]) < 1e-6

    @pytest.mark.parametrize("argv,calls", [
        (["--r", "2", "--s", "5"], 3),    # D1(s - i) for i = 0..2, D1(s) shared
        (["--r", "3", "--s", "4"], 1),    # s - r <= 1: no shifted series
        (["--r", "1", "--s", "3"], 1),
    ])
    def test_each_euler_K_once(self, capsys, monkeypatch, argv, calls):
        args = []
        real = dirichlet.euler_K

        def counted(*a, **kw):
            args.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(dirichlet, "euler_K", counted)
        code, _, err = run_cli(["dirichlet-check", *argv, "--prime-cutoff", "1000"], capsys)
        assert code == 0, err
        assert len(args) == calls and len(set(args)) == calls

    def test_d2_bound_evaluates_E_r_alone(self, capsys, monkeypatch):
        # d2_bound(s - i) for i = 0..2 needs E_r only, never C'(r)
        factors = collections.Counter()
        real = dirichlet._euler_product

        def counted(factor, *a, **kw):
            factors[factor.__qualname__] += 1
            return real(factor, *a, **kw)

        monkeypatch.setattr(dirichlet, "_euler_product", counted)
        code, _, err = run_cli(["dirichlet-check", "--r", "2", "--s", "5"], capsys)
        assert code == 0, err
        assert factors["E_r_and_Cprime.<locals>.<lambda>"] == 0
        assert factors["_E_r.<locals>.factor_e"] == 3

    @pytest.mark.parametrize("r", ["52", "60"])
    def test_sigma_past_float64_is_refused(self, r):
        # sigma_52(n) passes 1.8e308 near n = 10^6: the sums printed nan and
        # exited 0, with numpy overflow warnings on stderr
        s = str(int(r) + 2)
        proc = subprocess.run([sys.executable, "-m", "divpart", "dirichlet-check",
                               "--r", r, "--s", s],
                              capture_output=True, text=True, timeout=120, env=_src_env())
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip().endswith("the direct divisor series supports r <= 51")
        assert "Warning" not in proc.stderr

    def test_huge_s_stays_finite(self):
        proc = subprocess.run([sys.executable, "-m", "divpart", "dirichlet-check",
                               "--r", "2", "--s", "1e100"],
                              capture_output=True, text=True, timeout=120, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert "nan" not in proc.stdout and "inf" not in proc.stdout
        assert json.loads(proc.stdout)["shifted_ok"] is True


class TestVerify:
    def test_passes(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = run_cli(["verify", "--output", str(path)], capsys)
        assert code == 0
        assert out.strip().endswith("checks passed)")
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["checks", "failures"]
        assert doc["failures"] == 0
        arc = [c["detail"] for c in doc["checks"] if c["name"] == "saddle.minor_arc_decay"]
        measured, sample, regime = arc[0].split("; ")
        assert sample == "all at tau = 0.05, r = 2, u = 1 (n ~ 35,074)"
        assert regime == "sup <= 0 holds at n <= 13,960"
        fields = dict(part.split(" = ", 1) for part in measured.split(", "))
        # the far-arc value is a finite negative log, not an underflowed ratio
        far = float(fields["log ratio(pi)"])
        assert math.isfinite(far) and far < 0.0
        # the arc's supremum is reported beside it, and is at least the value at pi
        sup, at = fields["sup log ratio"].split(" at pi - theta = ")
        assert math.isfinite(float(sup)) and float(sup) >= far
        assert abs(float(at) - 0.0509) < 1e-4

    def test_a_raising_check_fails_with_its_message(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(saddle, "minor_arc_log_ratio", boom)
        code, out, _ = run_cli(["verify"], capsys)
        lines = out.splitlines()
        assert code == 1
        assert "FAIL saddle.minor_arc_decay: raised RuntimeError: boom" in lines
        assert lines[-1] == "FAILED (13/14 checks passed)"
        names = [line.split()[1].rstrip(":") for line in lines[:-1]]
        assert names == sorted(names)

    def test_quick_is_an_unknown_flag(self):
        # the reduced sweep is retired: verify has one set of sizes
        proc = subprocess.run([sys.executable, "-m", "divpart", "verify", "--quick"],
                              capture_output=True, text=True, timeout=120, env=_src_env())
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --quick" in proc.stderr
        assert "Traceback" not in proc.stderr


# (subcommand, file flag) -> cheap arguments of a run that writes through it
FILE_WRITERS = {
    ("table", "--output"): ["--N", "3"],
    ("constants", "--output"): ["--r", "1", "--prime-cutoff", "100"],
    ("dirichlet-check", "--output"): ["--r", "1", "--s", "2", "--prime-cutoff", "100"],
    ("saddle", "--output"): ["--n", "10"],
    ("clt-report", "--csv"): ["--n-list", "10,20"],
    ("clt-report", "--output"): ["--n-list", "10,20"],
    ("tail", "--output"): ["--n", "10"],
    ("mgf", "--output"): ["--n", "10", "--max-negative-mass", "inf"],
    ("verify", "--output"): [],
}


class TestUnwritableOutput:
    def test_every_file_flag_is_covered(self):
        flags = {(name, opt) for name, p in _subparsers().items()
                 for action in p._actions for opt in action.option_strings
                 if opt in ("--output", "--csv")}
        assert flags == set(FILE_WRITERS)

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("name,flag", sorted(FILE_WRITERS))
    def test_is_an_error_not_a_traceback(self, capsys, tmp_path, name, flag, target):
        path = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
        code, _, err = run_cli([name, *FILE_WRITERS[name, flag], flag, str(path)], capsys)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(["table", "--r", "2", "--N", "12", "--format", "json"], capsys)
        _, out2, _ = run_cli(["table", "--r", "2", "--N", "12", "--format", "json"], capsys)
        assert out1 == out2
        _, c1, _ = run_cli(["constants", "--r", "2"], capsys)
        _, c2, _ = run_cli(["constants", "--r", "2"], capsys)
        assert c1 == c2


class TestConfigErrors:
    def test_bad_r(self, capsys):
        code, _, err = run_cli(["constants", "--r", "0"], capsys)
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_tail_needs_n_at_least_2(self, capsys, n):
        code, out, err = run_cli(["tail", "--n", n, "--r", "2"], capsys)
        assert code == 2
        assert "configuration error" in err and "--n >= 2" in err
        assert out == ""

    @pytest.mark.parametrize("args", [
        ["saddle", "--n", "10", "--u", "0"],
        ["saddle", "--n", "10", "--u", "nan"],
        ["saddle", "--n", "0"],
        ["table", "--N", "-1"],
        ["mgf", "--theta-grid", "3"],
        ["mgf", "--n", "-3"],
        ["tail", "--x-grid=-1,2"],
        ["clt-report", "--n-list", "400,200"],
        ["clt-report", "--n-list", ","],
        ["clt-report", "--n-list=-5,10"],
        ["dirichlet-check", "--s", "inf"],
        ["dirichlet-check", "--s", "nan"],
        ["dirichlet-check", "--s", "1"],
        ["tail", "--n", "300", "--r", "2", "--x-grid", "1", "--max-negative-mass", "nan"],
        ["mgf", "--max-negative-mass=-0.5"],
        ["clt-report", "--max-negative-mass", "nan"],
        ["tail", "--x-grid="],
        ["mgf", "--theta-grid="],
        # just past PRIME_CUTOFF_LIMIT, and at 10^11, where the sieve asked for 46.6 GiB
        ["constants", "--prime-cutoff", "100000001"],
        ["dirichlet-check", "--prime-cutoff", "100000000000"],
        # repeated weights, where the slope fit divided by zero
        ["clt-report", "--n-list", "20,20,20,20"],
        ["mgf", "--theta-grid", "0.5,nan"],
        ["tail", "--x-grid", "nan"],
        # the edge just outside each domain
        ["tail", "--x-grid", "1,0"],
        ["mgf", "--theta-grid", "2.0000000000000004"],
        ["clt-report", "--n-list", "0,1"],
        ["constants", "--prime-cutoff", "99"],
        ["verify", "--workers", "0"],
    ])
    def test_domain_errors_exit_2(self, args):
        # a fresh process, so a hang fails by timeout and a traceback shows
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        proc = subprocess.run([sys.executable, "-m", "divpart", *args], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("script,args", [
        ("clt_experiment.py", ["--n-list", "20,20"]),
        ("clt_experiment.py", ["--n-list", "50,20"]),
        ("clt_experiment.py", ["--n-list", "0,5"]),
        ("clt_experiment.py", ["--r", "0"]),
        ("constants_table.py", ["--r-min", "1"]),
        ("constants_table.py", ["--r-max", "171"]),
        ("constants_table.py", ["--prime-cutoff", "10"]),
        ("minor_arc_scan.py", ["--tau", "0"]),
        ("minor_arc_scan.py", ["--u", "-1"]),
        ("clt_experiment.py", ["--theta=nan"]),
        ("clt_experiment.py", ["--theta=0.5,3"]),
        ("minor_arc_scan.py", ["--theta-steps", "0"]),
        ("minor_arc_scan.py", ["--theta-steps=-3"]),
    ])
    def test_script_domain_errors_exit_2(self, script, args):
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", script)
        proc = subprocess.run([sys.executable, path, *args], capture_output=True,
                              text=True, timeout=60, env=_src_env())
        assert proc.returncode == 2, proc.stderr
        assert f"{script}: error: --" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_arc_scan_closes_with_the_supremum(self):
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                            "minor_arc_scan.py")
        proc = subprocess.run([sys.executable, path, "--tau", "0.05,3", "--theta-steps", "1"],
                              capture_output=True, text=True, timeout=60, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-2].startswith("# tau = 0.05: sup log_ratio = 3.31417")
        assert lines[-1] == "# tau = 3.0: the minor arc [tau^(1 + 3r/7), pi] is empty at tau = 3.0"

    @pytest.mark.parametrize("argv", [
        ["table", "--r", "1", "--N", "0"],
        ["constants", "--r", "1", "--prime-cutoff", "100"],
        ["constants", "--r", "170", "--prime-cutoff", str(10**8)],
        ["dirichlet-check", "--s", repr(math.nextafter(1.0, 2.0))],
        ["saddle", "--n", "1", "--u", "1.7976931348623157e308"],
        ["saddle", "--n", "1", "--u", "5e-324"],
        ["tail", "--n", "2", "--x-grid", "5e-324"],
        ["mgf", "--n", "1", "--theta-grid=-2,2", "--max-negative-mass", "0"],
        ["clt-report", "--n-list", "1,2", "--max-negative-mass", "0"],
        ["verify", "--workers", "1"],
    ], ids=lambda argv: " ".join(argv))
    def test_domain_edges_are_admitted(self, monkeypatch, argv):
        # each domain holds its edge; the handler is stubbed
        seen = []
        monkeypatch.setitem(cli._DISPATCH, argv[0], lambda cfg: seen.append(cfg) or 0)
        assert cli.main(argv) == 0
        assert len(seen) == 1

    @pytest.mark.parametrize("u", ["0", "-1", "inf", "nan"])
    def test_u_outside_its_range_names_it(self, capsys, u):
        code, out, err = run_cli(["saddle", "--n", "10", "--u", u], capsys)
        assert code == 2 and out == ""
        assert err == "configuration error: --u must be positive and finite\n"

    @pytest.mark.parametrize("u", ["1.0000000001e143", "1e154", "1e308"])
    def test_huge_u_has_finite_fields(self, capsys, u):
        # past the retired 1e143 ceiling, where a k-sum term used to overflow
        code, out, err = run_cli(["saddle", "--n", "78818", "--r", "4", "--u", u,
                                  "--mode", "paper_literal"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert all(math.isfinite(float(doc[key])) for key in ("F", "F_g", "F_gg", "tau"))

    def test_huge_u_general_solve_meets_n(self):
        # a fresh process, so a hang fails by timeout and a traceback shows.  Every k
        # with u e^(-tau k) >> 1 adds about gap(k) k to -F_g, so the root sits near
        # tau = ln(u)/11 for n = 1000: a direct sum over k <= 100 there must give n
        proc = subprocess.run([sys.executable, "-m", "divpart", "saddle", "--n", "1000",
                               "--r", "2", "--u", "1e144"],
                              capture_output=True, text=True, timeout=60, env=_src_env())
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        tau, u = float(doc["tau"]), 1e144
        assert 25.0 < tau < 35.0
        sig = arith.sigma_r_table(102, 2)
        lhs = math.fsum((sig[k + 1] - sig[k]) * k * (u * math.exp(-tau * k))
                        / (1.0 + u * math.exp(-tau * k)) for k in range(1, 101))
        assert abs(lhs - 1000.0) <= 1e-9 * 1000.0
        assert abs(float(doc["F_g"]) + lhs) <= 1e-12 * lhs

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "--bogus", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_lists_defaults(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for action in _subparsers()[name]._actions:
            if action.default in (None, argparse.SUPPRESS) or isinstance(action.default, bool):
                continue
            assert "(default %(default)s" in action.help, action.dest
            assert f"{action.option_strings[0]} " in out
            assert f"(default {action.default}" in out, action.dest

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_defaults_lie_in_their_domains(self, name):
        # argparse runs only strings through type=, so no parse checks a
        # default: run each converter on its default's text
        checked = 0
        for action in _subparsers()[name]._actions:
            if action.choices is not None:
                assert action.default in action.choices, action.dest
            if action.type is not None and action.default is not None:
                default = action.default
                text = ",".join(map(str, default)) if isinstance(default, list) else str(default)
                assert action.type(text) == default, (action.dest, default)
                checked += 1
        assert checked > 0


class TestBlasThreads:
    """cli.main runs OpenBLAS on one thread unless the caller chose a count."""

    PROBE = ("import atexit, json, os, sys\n"
             "tasks = '/proc/self/task'\n"
             "atexit.register(lambda: print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
             "    len(os.listdir(tasks)) if os.path.isdir(tasks) else None]), file=sys.stderr))\n"
             "from divpart.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")

    def _child(self, code, *args, **blas):
        """Run code in a fresh interpreter whose OPENBLAS_NUM_THREADS is only
        what blas gives (in-process cli.main calls set it in this process)."""
        env = {k: v for k, v in _src_env().items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, timeout=120, env={**env, **blas})
        assert proc.returncode == 0, proc.stderr
        return proc

    def _saddle(self, **blas):
        proc = self._child(self.PROBE, "saddle", "--n", "50", "--r", "2", **blas)
        return json.loads(proc.stderr.splitlines()[-1])

    def test_default_is_one_thread(self):
        value, tasks = self._saddle()
        assert value == "1"
        if sys.platform.startswith("linux"):
            assert tasks == 1

    def test_a_value_the_caller_set_wins(self):
        value, _ = self._saddle(OPENBLAS_NUM_THREADS="2")
        assert value == "2"

    def test_library_import_leaves_the_environment_alone(self):
        code = ("import os, divpart.cli, divpart.saddle\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert self._child(code).stdout.strip() == "None"


class TestImportFootprint:
    """Each subcommand imports only the library modules it runs."""

    PROBE = ("import atexit, json, sys\n"
             "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
             "from divpart.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")

    def _loaded(self, *args):
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *args], capture_output=True,
                              text=True, timeout=120, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stderr.splitlines()[-1]))

    @pytest.mark.parametrize("args,runs,absent", [
        (["table", "--r", "2", "--N", "8"], "partition",
         ("dirichlet", "saddle", "cltlab", "checks")),
        (["saddle", "--n", "50", "--r", "2"], "saddle",
         ("dirichlet", "partition", "cltlab", "checks")),
        (["constants", "--r", "2", "--prime-cutoff", "1000"], "dirichlet",
         ("saddle", "partition", "cltlab", "checks")),
        (["dirichlet-check", "--r", "2", "--s", "5", "--prime-cutoff", "1000"], "dirichlet",
         ("saddle", "partition", "cltlab", "checks")),
        (["clt-report", "--r", "3", "--n-list", "20,40"], "saddle",
         ("dirichlet", "checks")),
    ])
    def test_subcommand_loads_only_what_it_runs(self, args, runs, absent):
        loaded = self._loaded(*args)
        assert f"divpart.{runs}" in loaded
        assert not loaded & {f"divpart.{name}" for name in absent}, sorted(loaded)

    EXACT_JOBS = [
        ["table", "--r", "2", "--N", "8"],
        ["tail", "--n", "60", "--r", "3", "--max-negative-mass", "1e-12"],
        ["mgf", "--n", "60", "--r", "3", "--max-negative-mass", "1e-12"],
    ]

    @pytest.mark.parametrize("args", EXACT_JOBS, ids=lambda args: args[0])
    def test_exact_law_jobs_load_no_numpy(self, args):
        loaded = self._loaded(*args)
        assert not {m for m in loaded if m.split(".")[0] == "numpy"}, sorted(loaded)
        assert "divpart.saddle" not in loaded

    @pytest.mark.parametrize("args", EXACT_JOBS, ids=lambda args: args[0])
    def test_exact_law_jobs_run_with_numpy_blocked(self, args, capsys):
        # a None entry makes every import of numpy fail, a transient one too
        probe = "import sys\nsys.modules['numpy'] = None\n" + self.PROBE
        proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                              text=True, timeout=120, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and proc.stdout == out

    def _imported(self, module):
        """numpy and divpart submodules loaded by importing module."""
        code = (f"import json, sys, {module}\n"
                "print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.startswith(('numpy', 'divpart.')))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_parsing_saddle_flags_loads_no_numpy(self):
        # the --u domain is plain positive and finite: the parse needs no saddle
        code = ("import json, sys\n"
                "from divpart import cli\n"
                "cli.build_parser().parse_args(['saddle', '--n', '10', '--u', '1e300'])\n"
                "print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.startswith(('numpy', 'divpart.')))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["divpart.arith", "divpart.cli"]

    def test_bare_import_loads_no_numpy(self):
        assert self._imported("divpart") == []

    def test_arith_import_loads_no_numpy(self):
        assert self._imported("divpart.arith") == ["divpart.arith"]

    def test_submodules_still_reachable_as_attributes(self):
        import divpart

        assert divpart.arith.primes_up_to(10) == [2, 3, 5, 7]
        assert all(hasattr(divpart, name) for name in divpart.__all__)
        with pytest.raises(AttributeError):
            divpart.no_such_module  # noqa: B018

    def test_every_listed_module_is_a_lazy_attribute(self):
        # in a fresh process, where no earlier import has set the attribute
        import divpart

        listed = sorted(set(divpart.__all__) - {"__version__"})
        assert listed == sorted(m.name for m in pkgutil.iter_modules(divpart.__path__)
                                if m.name != "__main__")
        code = ("import json, sys, divpart\n"
                "loaded = sorted(m for m in sys.modules if m.startswith('divpart.'))\n"
                "print(json.dumps([loaded, len(divpart.checks.REGISTRY), divpart.cli.SIZE_LIMIT]))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        loaded, checks, size_limit = json.loads(proc.stdout)
        assert loaded == [] and checks > 0 and size_limit == cli.SIZE_LIMIT

    def test_verify_path_loads_no_fractions(self):
        # against what the interpreter had loaded before the import, since
        # site may preload modules; only the exact statistics need Fraction
        code = ("import json, sys\n"
                "before = set(sys.modules)\n"
                "import divpart.cli, divpart.checks\n"
                "print(json.dumps(sorted({'fractions', 'decimal'} & (set(sys.modules) - before))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
        dist = partition.exact_distribution(partition.build_table(2, 10), 10)
        assert all(isinstance(x, Fraction) for x in (dist.mean, dist.variance, dist.negative_mass))


def test_src_holds_no_cache():
    # every table is built by the call that reads it; importing __main__ would run the CLI
    import divpart

    names = [m.name for m in pkgutil.iter_modules(divpart.__path__) if m.name != "__main__"]
    assert "arith" in names and "partition" in names
    for name in names:
        module = importlib.import_module(f"divpart.{name}")
        members = list(vars(module).items())
        members += [(f"{key}.{attr}", value) for key, cls in vars(module).items()
                    if isinstance(cls, type) for attr, value in vars(cls).items()]
        cached = [key for key, value in members if hasattr(value, "cache_info")]
        assert cached == [], f"divpart.{name}: {cached}"


def test_cli_owns_the_output_format():
    # the one float format is cli.fmt's, and partition is arithmetic only
    import ast

    import divpart

    src = os.path.dirname(divpart.__file__)
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                found[name] = fh.read()
    assert {name: text.count(".17g") for name, text in found.items() if ".17g" in text} == {
        "cli.py": 1}
    fmt_node = next(node for node in ast.parse(found["cli.py"]).body
                    if isinstance(node, ast.FunctionDef) and node.name == "fmt")
    assert ".17g" in ast.get_source_segment(found["cli.py"], fmt_node)
    imported = set()
    for node in ast.walk(ast.parse(found["partition.py"])):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not imported & {"sys", "threading"}, sorted(imported)


#: numpy names that reach BLAS (or LAPACK) from an attribute or an import
BLAS_NAMES = {"dot", "matmul", "tensordot", "inner", "vdot", "linalg"}


def test_src_makes_no_blas_call():
    # every product over characters or units is elementwise, summed along one
    # axis: a first BLAS call costs about half a MiB of buffers
    import ast

    import divpart

    src = os.path.dirname(divpart.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append((name, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                words = [alias.name for alias in node.names]
                words += (node.module or "").split(".") if isinstance(node, ast.ImportFrom) else []
                found += [(name, node.lineno, w) for w in words
                          if BLAS_NAMES & set(w.split("."))]
    assert found == []


class TestSizeLimit:
    """Table weights past cli.SIZE_LIMIT are a configuration error unless
    --no-size-limit is given, before or after the size."""

    # (argv with the weight as {}, the flag the message names, the cfg field holding it)
    SIZED = [
        (["table", "--N", "{}"], "--N", "table_limit"),
        (["tail", "--n", "{}"], "--n", "n"),
        (["mgf", "--n", "{}"], "--n", "n"),
        (["clt-report", "--n-list", "10,{}"], "--n-list", "n_list"),
    ]

    @staticmethod
    def _argv(template, weight):
        return [arg.format(weight) for arg in template]

    @pytest.mark.parametrize("template,flag,field", SIZED)
    def test_past_the_limit_is_refused(self, capsys, template, flag, field):
        code, out, err = run_cli(self._argv(template, cli.SIZE_LIMIT + 1), capsys)
        assert code == 2 and out == ""
        assert err == (f"configuration error: {flag} asks for a table of weight "
                       f"{cli.SIZE_LIMIT + 1}, past the size limit {cli.SIZE_LIMIT}; "
                       f"pass --no-size-limit to build it anyway\n")

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("template,flag,field", SIZED)
    def test_override_and_the_limit_itself_pass(self, monkeypatch, template, flag, field, where):
        # the handler is stubbed: only what reaches it is checked
        seen = []
        name = template[0]
        monkeypatch.setitem(cli._DISPATCH, name, lambda cfg: seen.append(getattr(cfg, field)) or 0)
        assert cli.main(self._argv(template, cli.SIZE_LIMIT)) == 0
        argv = self._argv(template, 10**6)
        argv = ([name, "--no-size-limit", *argv[1:]] if where == "before"
                else [*argv, "--no-size-limit"])
        assert cli.main(argv) == 0
        last = [s[-1] if isinstance(s, list) else s for s in seen]
        assert last == [cli.SIZE_LIMIT, 10**6]

    def test_override_keeps_every_other_check(self, capsys):
        # lifting the limit lifts nothing else
        code, out, err = run_cli(["table", "--N", "5000", "--r", "0", "--no-size-limit"], capsys)
        assert code == 2 and out == "" and "--r must be >= 1" in err
        code, out, err = run_cli(["clt-report", "--n-list", "5000,10", "--no-size-limit"],
                                 capsys)
        assert code == 2 and out == "" and "strictly increasing" in err

    def test_bound_admits_the_largest_catalog_inputs(self, monkeypatch):
        # table --N 604, tail --n 354 and clt-report --n-list ...,354; the
        # handlers are stubbed: only what reaches them is checked
        seen = []
        for name in cli._DISPATCH:
            monkeypatch.setitem(cli._DISPATCH, name, lambda cfg: seen.append(cfg) or 0)
        for argv in (["table", "--N", "604"], ["table", "--r", "363", "--N", "40"],
                     ["tail", "--n", "354"], ["mgf", "--n", "304"],
                     ["clt-report", "--n-list", "100,200,300,354"]):
            assert cli.main(argv) == 0, argv
        assert len(seen) == 5

    def test_a_repeated_flag_counts_its_last_value(self, capsys):
        # argparse keeps the last value; the guard reads what it kept
        code, out, err = run_cli(["table", "--N", str(cli.SIZE_LIMIT + 1), "--N", "5"], capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(["table", "--N", "5"], capsys)[1]
        code, out, err = run_cli(["table", "--N", "5", "--N", str(cli.SIZE_LIMIT + 1)], capsys)
        assert code == 2 and out == "" and "--N asks for a table of weight 1001" in err

    @pytest.mark.parametrize("argv,code", [
        (["table", "--N", "1000"], 0),
        (["table", "--N", "1001"], 2),
        (["table", "--no-size-limit", "--N", "1001"], 0),
        (["table", "--N", "1001", "--no-size-limit"], 0),
    ])
    def test_main_parses_once(self, monkeypatch, argv, code):
        built, parsed = [], []
        build = cli.build_parser

        def counted():
            parser = build()
            parse = parser.parse_args
            parser.parse_args = lambda args: parsed.append(args) or parse(args)
            built.append(parser)
            return parser

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setitem(cli._DISPATCH, "table", lambda cfg: 0)
        assert cli.main(argv) == code
        assert len(built) == 1 and parsed == [argv]
