"""End-to-end CLI behavior: output formats, determinism, exit codes."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from heatinv.cli import MAX_ORDER, MAX_TAYLOR_ORDER, build_parser, main
from heatinv.oracles import BridgeSampler, fk_diagonal
from heatinv.potentials import parse_potential


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "heatinv.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestLocal:
    def test_densities(self, capsys):
        assert main(["local", "--dim", "1", "--order", "3"]) == 0
        out = capsys.readouterr().out
        assert "a_1: -V" in out
        assert "a_2: 1/2*V^2 - 1/6*D[2]V" in out
        assert ("a_3: -1/6*V^3 + 1/12*D[1]V^2 + 1/6*D[2]V*V - 1/60*D[4]V"
                in out)

    def test_json_format(self, capsys):
        assert main(["local", "--dim", "2", "--order", "2",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 2
        assert data["rows"][0]["density"] == "-V"
        assert all(r["routes_agree"] for r in data["rows"])

    def test_order_cap(self, capsys):
        """One order past each dimension's cap is a usage error, and so is
        any order in a dimension past the table."""
        for dim, cap in MAX_ORDER.items():
            assert main(["local", "--dim", str(dim), "--order", str(cap + 1)]) == 2
            assert "exceeds" in capsys.readouterr().err
        assert main(["local", "--dim", str(max(MAX_ORDER) + 1), "--order", "1"]) == 2
        assert "outside the supported range" in capsys.readouterr().err


class TestAlpha:
    def test_known_example(self, capsys):
        assert main(["alpha", "--dim", "1", "--epsilon", "1/3",
                     "--order", "3"]) == 0
        out = capsys.readouterr().out
        assert "N = 3" in out
        assert "alpha_1 [zero]: 0" in out
        assert "alpha_2 [zero]: 0" in out
        assert ("alpha_3 [middle]: -1/4*D[1]V^2 - 1/3*D[2]V*V + 3/20*D[4]V"
                in out)

    def test_float_epsilon_rejected(self, capsys):
        assert main(["alpha", "--dim", "1", "--epsilon", "0.3",
                     "--order", "2"]) == 2
        assert "exact rational" in capsys.readouterr().err

    def test_out_of_range_epsilon_rejected(self, capsys):
        assert main(["alpha", "--dim", "1", "--epsilon", "3/2",
                     "--order", "2"]) == 2
        capsys.readouterr()


class TestCoeffs:
    def test_gaussian_table(self, capsys):
        assert main(["coeffs", "--dim", "1", "--potential", "exp(-x1^2)",
                     "--order", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0]["value"] == pytest.approx(-1.7724538509, abs=1e-6)
        assert data["rows"][1]["value"] == pytest.approx(0.6266570687, abs=1e-6)

    def test_json_round_trip(self, capsys):
        assert main(["coeffs", "--dim", "1", "--potential", "exp(-x1^2)",
                     "--order", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 1
        assert data["epsilon"] is None
        assert [r["j"] for r in data["rows"]] == [1, 2]
        assert data["rows"][0]["density"] == "-V"

    def test_csv_and_text(self, capsys):
        argv = ["coeffs", "--dim", "1", "--potential", "exp(-x1^2)", "--order", "2"]
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "j,value,b_or_beta,err,route,density"
        assert len(lines) == 3
        assert main([*argv, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "density" in text.splitlines()[0]
        assert "-V" in text

    def test_bad_potential_is_usage_error(self, capsys):
        assert main(["coeffs", "--dim", "1", "--potential", "x1 ^ (1/2)",
                     "--order", "1"]) == 2
        capsys.readouterr()

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        assert main(["coeffs", "--dim", "1", "--potential", "exp(-x1^2)",
                     "--order", "1", "--format", "json",
                     "--output", str(target)]) == 0
        capsys.readouterr()
        data = json.loads(target.read_text())
        assert data["rows"][0]["density"] == "-V"

    @pytest.mark.parametrize("box", ["0", "-1", "nan", "inf"])
    def test_box_must_be_positive_and_finite(self, box, capsys):
        for argv in (["coeffs"], ["regtrace", "--epsilon", "1/3"]):
            assert main([*argv, "--dim", "1", "--potential", "exp(-x1^2)",
                         "--order", "3", "--box", box]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "box half-width" in err


class TestRegtrace:
    def test_beta_absent_in_even_dimension(self, capsys):
        assert main(["regtrace", "--dim", "2", "--epsilon", "1",
                     "--potential", "exp(-x1^2 - x2^2)", "--order", "2",
                     "--box", "6", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["epsilon"] == "1"
        assert all(r["b_or_beta"] is None for r in data["rows"])


class TestVerify:
    def test_routes_suite(self, capsys):
        assert main(["verify", "routes", "--dim", "1", "--order", "3",
                     "--epsilon", "1/3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is True
        names = [c["name"] for c in data["checks"]]
        assert "alpha_routes_j3_n1_eps1/3" in names

    @pytest.mark.parametrize("dim,eps", [(1, "1/10"), (2, "1/4"), (3, "3/7")])
    def test_routes_agree_at_the_order_cap(self, capsys, dim, eps):
        """Both a_j routes, and both alpha_j routes with N = cap so that the
        cap lies in the middle regime, agree up to each dimension's cap."""
        cap = MAX_ORDER[dim]
        assert main(["verify", "routes", "--dim", str(dim), "--order", str(cap),
                     "--epsilon", eps, "--format", "json"]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert f"density_routes_j{cap}_n{dim}" in names
        assert f"alpha_routes_j{cap}_n{dim}_eps{eps}" in names

    def test_taylor_suite(self, capsys):
        assert main(["verify", "taylor", "--matrix-dim", "6", "--order", "1",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is True

    def test_taylor_order_cap(self, capsys):
        """Above MAX_TAYLOR_ORDER the remainder on the fitted t grid is below
        round-off, so a correct formula would print [FAIL]; such an order is
        a usage error, and the cap itself still passes."""
        assert main(["verify", "taylor", "--order", str(MAX_TAYLOR_ORDER)]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        for order in (MAX_TAYLOR_ORDER + 1, 7):
            assert main(["verify", "taylor", "--order", str(order)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error:") and "round-off" in err

    def test_fk_suite_small(self, capsys):
        assert main(["verify", "fk", "--paths", "20000", "--seed", "7",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        check = data["checks"][0]
        assert abs(check["observed"] - check["target"]) <= check["tolerance"]

    def test_fk_tolerance_covers_the_omitted_t4_term(self, capsys):
        # at 200k paths the a_4 t^4 term left out of the 3-term target is
        # close to 3 standard errors; at this seed the estimate is more than
        # 3 standard errors from the target
        assert main(["verify", "fk", "--paths", "200000", "--seed", "10",
                     "--format", "json"]) == 0
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["name"] == "fk_vs_3term_expansion"
        assert abs(check["observed"] - check["target"]) <= check["tolerance"]

    def test_fk_tolerance_is_3_stderr_plus_the_t4_term(self, capsys):
        # a_4 in one dimension is V^4/24 - V^2 V''/12 - V V'^2/12 + V''^2/40
        # + V' V'''/30 + V V''''/60 - V^(6)/840.  For V = exp(-x^2) at 0,
        # D^2k V(0) = (-1)^k (2k)!/k! and odd derivatives vanish, so V = 1,
        # V'' = -2, V'''' = 12, V^(6) = -120 and a_4 = 547/840.
        t, paths, seed = 0.05, 20000, 7
        assert main(["verify", "fk", "--paths", str(paths), "--seed", str(seed),
                     "--t", str(t), "--format", "json"]) == 0
        check = json.loads(capsys.readouterr().out)["checks"][0]
        _, stderr = fk_diagonal(parse_potential("exp(-x1^2)", 1), (0.0,), t,
                                BridgeSampler(seed=seed, steps=256, paths=paths, dim=1))
        t4_term = (4 * math.pi * t) ** -0.5 * (547 / 840) * t ** 4
        assert check["tolerance"] == pytest.approx(3 * stderr + t4_term, rel=1e-12)


# The csv and text bytes of one command of each report kind.  A `{...}`
# field is a float that the last digits of the platform's arithmetic
# decide; it is filled from the same command's JSON report, so the
# floats' formatting stays pinned while their values come from the run.
REPORT_BYTES = [
    (("local", "--dim", "1", "--order", "2"), "csv",
     'j,density,routes_agree\n'
     '1,"-V",True\n'
     '2,"1/2*V^2 - 1/6*D[2]V",True\n'),
    (("local", "--dim", "1", "--order", "2"), "text",
     "a_1: -V\n"
     "a_2: 1/2*V^2 - 1/6*D[2]V\n"),
    (("alpha", "--dim", "1", "--epsilon", "1/3", "--order", "3"), "csv",
     'j,regime,density\n'
     '1,zero,"0"\n'
     '2,zero,"0"\n'
     '3,middle,"-1/4*D[1]V^2 - 1/3*D[2]V*V + 3/20*D[4]V"\n'),
    (("alpha", "--dim", "1", "--epsilon", "1/3", "--order", "3"), "text",
     "N = 3\n"
     "alpha_1 [zero]: 0\n"
     "alpha_2 [zero]: 0\n"
     "alpha_3 [middle]: -1/4*D[1]V^2 - 1/3*D[2]V*V + 3/20*D[4]V\n"),
    (("coeffs", "--dim", "1", "--potential", "exp(-x1^2)", "--order", "2"), "csv",
     'j,value,b_or_beta,err,route,density\n'
     '1,{rows[0][value]},{rows[0][b_or_beta]},{rows[0][err]},binomial,"-V"\n'
     '2,{rows[1][value]},{rows[1][b_or_beta]},{rows[1][err]},binomial,'
     '"1/2*V^2 - 1/6*D[2]V"\n'),
    (("coeffs", "--dim", "1", "--potential", "exp(-x1^2)", "--order", "2"), "text",
     "j  value        b_or_beta     err       route     density            \n"
     "1  {rows[0][value]:.9g}  {rows[0][b_or_beta]:.9g}   {rows[0][err]:.3g}"
     "  binomial  -V                 \n"
     "2  {rows[1][value]:.9g}  {rows[1][b_or_beta]:.9g}  {rows[1][err]:.3g} "
     "  binomial  1/2*V^2 - 1/6*D[2]V\n"),
    (("regtrace", "--dim", "1", "--epsilon", "1/3", "--potential",
      "powr(1+x1^2,-1,6)", "--order", "3", "--box", "2000"), "csv",
     'j,value,b_or_beta,err,route,density\n'
     '1,0.0,0.0,0.0,subtracted,"0"\n'
     '2,0.0,0.0,0.0,subtracted,"0"\n'
     '3,{rows[2][value]},{rows[2][b_or_beta]},{rows[2][err]},subtracted,'
     '"-1/4*D[1]V^2 - 1/3*D[2]V*V + 3/20*D[4]V"\n'),
    (("regtrace", "--dim", "1", "--epsilon", "1/3", "--potential",
      "powr(1+x1^2,-1,6)", "--order", "3", "--box", "2000"), "text",
     "j  value          b_or_beta      err       route       density"
     "                                \n"
     "1  0              0              0         subtracted  0"
     "                                      \n"
     "2  0              0              0         subtracted  0"
     "                                      \n"
     "3  {rows[2][value]:.9g}  {rows[2][b_or_beta]:.9g}  {rows[2][err]:.3g}"
     "  subtracted  -1/4*D[1]V^2 - 1/3*D[2]V*V + 3/20*D[4]V\n"),
    (("verify", "routes", "--dim", "1", "--order", "3", "--epsilon", "1/3"), "csv",
     "name,target,observed,tolerance,pass\n"
     "density_routes_j1_n1,equal,equal,exact,True\n"
     "density_routes_j2_n1,equal,equal,exact,True\n"
     "density_routes_j3_n1,equal,equal,exact,True\n"
     "alpha_routes_j3_n1_eps1/3,equal,equal,exact,True\n"),
    (("verify", "routes", "--dim", "1", "--order", "3", "--epsilon", "1/3"), "text",
     "[PASS] density_routes_j1_n1: observed=equal target=equal tol=exact\n"
     "[PASS] density_routes_j2_n1: observed=equal target=equal tol=exact\n"
     "[PASS] density_routes_j3_n1: observed=equal target=equal tol=exact\n"
     "[PASS] alpha_routes_j3_n1_eps1/3: observed=equal target=equal tol=exact\n"),
    (("verify", "taylor", "--order", "1"), "csv",
     "name,target,observed,tolerance,pass\n"
     "taylor_slope_N1_seed0,\"[1.8, 2.3]\",{checks[0][observed]},slope window,True\n"
     "taylor_slope_N1_seed1,\"[1.8, 2.3]\",{checks[1][observed]},slope window,True\n"
     "taylor_slope_N1_seed2,\"[1.8, 2.3]\",{checks[2][observed]},slope window,True\n"
     "taylor_family_equals_operator_family_m0,0.0,0.0,1e-12,True\n"
     "taylor_family_equals_operator_family_m1,0.0,0.0,1e-12,True\n"),
    (("verify", "taylor", "--order", "1"), "text",
     "[PASS] taylor_slope_N1_seed0: observed={checks[0][observed]}"
     " target=[1.8, 2.3] tol=slope window\n"
     "[PASS] taylor_slope_N1_seed1: observed={checks[1][observed]}"
     " target=[1.8, 2.3] tol=slope window\n"
     "[PASS] taylor_slope_N1_seed2: observed={checks[2][observed]}"
     " target=[1.8, 2.3] tol=slope window\n"
     "[PASS] taylor_family_equals_operator_family_m0:"
     " observed=0.0 target=0.0 tol=1e-12\n"
     "[PASS] taylor_family_equals_operator_family_m1:"
     " observed=0.0 target=0.0 tol=1e-12\n"),
]


class TestReportBytes:
    @pytest.mark.parametrize(
        "argv,fmt,template", REPORT_BYTES,
        ids=[f"{a[1] if a[0] == 'verify' else a[0]}-{f}" for a, f, _ in REPORT_BYTES])
    def test_report_bytes(self, argv, fmt, template, capsys):
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == template.format(**payload)


# every command, with at least one density that holds commas and one empty
# field (the absent beta_j of an even dimension)
CSV_COMMANDS = [
    ("local", "--dim", "2", "--order", "2"),
    ("alpha", "--dim", "2", "--epsilon", "1/2", "--order", "3"),
    ("coeffs", "--dim", "2", "--potential", "exp(-x1^2-x2^2)", "--order", "2",
     "--box", "6"),
    ("regtrace", "--dim", "2", "--epsilon", "1", "--potential",
     "exp(-x1^2-x2^2)", "--order", "2", "--box", "6"),
    ("verify", "routes", "--dim", "2", "--order", "3", "--epsilon", "1/2"),
    ("verify", "fk", "--paths", "5000"),
    ("verify", "trace"),
    ("verify", "taylor", "--order", "1"),
]


class TestCsv:
    @pytest.mark.parametrize("argv", CSV_COMMANDS, ids=" ".join)
    def test_csv_parses_into_the_json_rows(self, argv, capsys):
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "csv"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert rows and all(len(row) == len(header) for row in rows)
        expected = payload["checks" if argv[0] == "verify" else "rows"]
        assert rows == [["" if r[c] is None else str(r[c]) for c in header]
                        for r in expected]


# the options each verify suite reads, with a value for each
SUITE_OPTIONS = {
    "routes": ("--dim", "--order", "--epsilon"),
    "fk": ("--dim", "--potential", "--t", "--seed", "--paths", "--steps"),
    "trace": ("--potential",),
    "taylor": ("--order", "--seed", "--matrix-dim"),
}
OPTION_VALUES = {"--dim": "2", "--order": "2", "--epsilon": "1/2",
                 "--potential": "x1", "--t": "9.5", "--seed": "4", "--paths": "3",
                 "--steps": "8", "--matrix-dim": "4"}
UNREAD = [("verify", suite, flag, value)
          for suite, reads in SUITE_OPTIONS.items()
          for flag, value in OPTION_VALUES.items() if flag not in reads]


class TestOptions:
    @pytest.mark.parametrize("suite", SUITE_OPTIONS)
    def test_suite_reads_its_options(self, suite):
        argv = [x for flag in SUITE_OPTIONS[suite] for x in (flag, OPTION_VALUES[flag])]
        args, unread = build_parser().parse_known_args(["verify", suite, *argv])
        assert unread == []
        for flag in SUITE_OPTIONS[suite]:
            assert str(getattr(args, flag[2:].replace("-", "_"))) == OPTION_VALUES[flag]

    @pytest.mark.parametrize("argv", UNREAD + [
        ("local", "--dim", "1", "--order", "1", "--foo"),
        ("coeffs", "--dim", "1", "--potential", "x1", "--order", "1", "--epsilon", "1"),
    ], ids=" ".join)
    def test_unread_option_is_usage_error(self, argv, capsys):
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")


class TestProcessLevel:
    def test_usage_error_exit_code(self):
        code, _, _ = run_cli("local", "--dim", "1")
        assert code == 2
        code, _, _ = run_cli("nonsense")
        assert code == 2
        code, out, err = run_cli("coeffs", "--dim", "1", "--potential",
                                 "0^(-1) + x1", "--order", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        # for exp(-x1^2) the omitted a_4 t^4 is as large as the 3-term
        # target from t near 0.84 on, so the check would test nothing
        for t in ("1", "2", "1e6"):
            code, out, err = run_cli("verify", "fk", "--paths", "2000", "--t", t)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "too large" in err

    @pytest.mark.parametrize("flag,value", [("--paths", "0"), ("--paths", "-5"),
                                            ("--steps", "0"), ("--dim", "9"),
                                            ("--t", "inf"), ("--t", "nan")])
    def test_bad_sampler_size_is_usage_error(self, flag, value):
        code, out, err = run_cli("verify", "fk", flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("dim", ["0", "2", "3"])
    def test_trace_suite_rejects_other_dims(self, dim):
        code, out, err = run_cli("verify", "trace", "--dim", dim)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_unwritable_output_is_usage_error(self, tmp_path):
        code, out, err = run_cli("local", "--dim", "1", "--order", "1", "--output",
                                 str(tmp_path / "missing" / "x.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write")

    def test_taylor_suite_imports_no_scipy(self):
        code = ("import sys; from heatinv.cli import main; "
                "main(['verify', 'taylor', '--matrix-dim', '6', '--order', '1']); "
                "print('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.stdout.splitlines()[-1] == "False"

    def test_trace_suite_imports_no_scipy(self):
        code = ("import sys; from heatinv.cli import main; "
                "main(['verify', 'trace']); "
                "print('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("argv,numpy_loaded", [
        (("--version",), False),
        (("local", "--dim", "2", "--order", "4"), False),
        (("alpha", "--dim", "3", "--order", "4", "--epsilon", "1/2"), False),
        (("verify", "routes", "--dim", "2", "--order", "4", "--epsilon", "1/2"), False),
        (("coeffs", "--dim", "1", "--potential", "exp(-x1^2)", "--order", "2"), True),
    ], ids=["version", "local", "alpha", "routes", "coeffs"])
    def test_symbolic_commands_start_without_numpy(self, argv, numpy_loaded):
        """The exact commands load no numpy submodule and no thread pool; a
        numeric command shows that the probe sees numpy when it loads."""
        code = ("import json, sys; from heatinv.cli import main\n"
                "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
                "('numpy.', 'concurrent.futures')))))")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert not [m for m in loaded if m.startswith("concurrent.futures")]
        assert bool([m for m in loaded if m.startswith("numpy.")]) == numpy_loaded

    def test_cli_import_loads_every_traced_module(self):
        """perfbench's tracer wraps functions in these modules after only
        `import heatinv.cli`."""
        code = ("import sys, heatinv.cli; print([m for m in ('invariants',"
                " 'potentials', 'numeric', 'oracles')"
                " if 'heatinv.' + m not in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--dim", "1", "--potential", "1/x1", "--order", "1"),
        ("verify", "fk", "--potential", "powr(x1,1,2)", "--paths", "5000"),
        ("verify", "fk", "--potential", "1/(x1-0.3)", "--paths", "20000"),
    ])
    def test_numeric_failure_exit_code(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 3
        assert err.startswith("numeric failure:")
        assert out == ""

    def test_byte_identical_determinism(self):
        args = ("verify", "fk", "--paths", "12000", "--seed", "3",
                "--format", "json")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_version(self):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert out.strip()
