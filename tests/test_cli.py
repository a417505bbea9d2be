"""End-to-end CLI behavior: output formats, determinism, exit codes."""

import csv
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from heatinv import cli, numeric
from heatinv.cli import MAX_ORDER, MAX_TAYLOR_ORDER, build_parser, main
from heatinv.oracles import BridgeSampler, fk_diagonal
from heatinv.potentials import parse_potential


def run_cli(*argv, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "heatinv.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)
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

    @pytest.mark.parametrize("epsilon", ["0.3", "1e-1", "1_0/30", "\u0661/\u0663"],
                             ids=["decimal", "exponent", "underscore", "arabic-indic"])
    def test_float_epsilon_rejected(self, epsilon, capsys):
        """Only p or p/q in ASCII digits: Fraction() would read the others
        as 1/10, 1/3 and 1/3."""
        assert main(["alpha", "--dim", "1", "--epsilon", epsilon,
                     "--order", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: epsilon must be an exact rational such as 1/3, got {epsilon!r}\n")

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

    @pytest.mark.parametrize("dim, box", [(2, "1e200"), (2, "1e160"), (3, "1e110")])
    def test_box_whose_cell_volume_overflows_is_usage_error(self, dim, box, capsys):
        """A --box whose first cell's volume L^n overflows a float exits 2
        with a named error and no numpy warning, before any density is
        built."""
        potential = "exp(-" + "-".join(f"x{i}^2" for i in range(1, dim + 1)) + ")"
        for argv in (["coeffs"], ["regtrace", "--epsilon", "1/3"]):
            assert main([*argv, "--dim", str(dim), "--potential", potential,
                         "--order", "1", "--box", box]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: box half-width {float(box)} is too large in"
                           f" dimension {dim}: the cell volume L^{dim} overflows a float\n")

    def test_node_budget_is_a_numeric_failure(self, monkeypatch, capsys):
        """An integral that would pass MAX_INTEGRAL_NODES exits 3, naming the
        budget, and prints no partial table."""
        monkeypatch.setattr(numeric, "MAX_INTEGRAL_NODES", 4 * 21 ** 2)
        assert main(["coeffs", "--dim", "2", "--potential", "exp(-x1^2-2*x2^2)",
                     "--order", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric failure:")
        assert f"within {4 * 21 ** 2} nodes" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("potential,domain", [
        ("exp(-x1^2-x2^2)", "R^n"), ("exp(-x1^2-2*x2^2)", "box")])
    def test_json_names_the_domain_its_rows_cover(self, potential, domain, capsys):
        assert main(["coeffs", "--dim", "2", "--potential", potential, "--order", "1",
                     "--box", "6", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["domain"] == domain

    @pytest.mark.parametrize("argv,exact", [
        (("coeffs", "--dim", "1", "--potential", "1/(1+x1^2)", "--order", "2"),
         [-math.pi, math.pi / 4]),
        (("coeffs", "--dim", "3", "--potential", "powr(1+x1^2+x2^2+x3^2,-2,1)",
          "--order", "2"), [-math.pi ** 2, math.pi ** 2 / 16]),
        (("regtrace", "--dim", "2", "--epsilon", "1", "--potential",
          "powr(1+x1^2+x2^2,-1,2)", "--order", "3", "--box", "50"),
         [0.0, 0.0, -3 * math.pi / 8]),
    ], ids=["lorentzian", "n3-s2", "regtrace-n2"])
    def test_radial_rows_are_whole_space_integrals(self, argv, exact, capsys):
        """Rows that the box missed by its tail (a_1 = -2.975 for -pi; alpha_2
        = -0.0377 for 0 at --box 50) are the integrals over R^n."""
        assert main([*argv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for row, value in zip(rows, exact, strict=True):
            assert abs(row["value"] - value) <= row["err"]

    def test_non_integrable_radial_row_is_a_numeric_failure(self, capsys):
        """(1+x1^2)^(-1/4) decays like |x1|^(-1/2), so a_1 = -V has no
        integral over R: exit 3 naming the non-convergence, and no table
        (the box printed -11.4681299 with err 1.11e-8)."""
        assert main(["coeffs", "--dim", "1", "--potential", "powr(1+x1^2,-1,4)",
                     "--order", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: quadrature did not converge")

    @pytest.mark.parametrize("argv", [
        ("--dim", "2", "--potential", "x1", "--order", "1", "--box", "1e154",
         "--format", "json"),
        ("--dim", "1", "--potential", "10^80*exp(-x1^2)", "--order", "4"),
        ("--dim", "1", "--potential", "x1", "--order", "1", "--box", "1e308"),
    ], ids=["box-1e154", "V-1e80", "box-1e308"])
    def test_overflowing_quadrature_is_a_numeric_failure(self, argv, capsys):
        """An integral that overflows float64 exits 3, naming the overflow,
        and prints no table: not an Infinity that is invalid JSON, nor a NaN
        error bisected until QUAD_LIMIT.  This suite turns a RuntimeWarning
        into an error, so none escapes either."""
        assert main(["coeffs", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: quadrature overflowed float64")


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

    def test_trace_targets_integrate_over_the_trace_box(self, capsys):
        """int a_1 = -2 atan(L) for 1/(1+x1^2) leaves [-12, 12] 3.4% short
        of its value over the trace's [-30, 30], past the 2% tolerance."""
        assert main(["verify", "trace", "--potential", "1/(1+x1^2)",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["checks"][0]["target"] == pytest.approx(-2 * math.atan(30.0))

    def test_taylor_suite(self, capsys):
        assert main(["verify", "taylor", "--order", "1", "--format", "json"]) == 0
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

    def test_taylor_negative_order(self, capsys):
        """The refusal names the option, not the oracle's internal N."""
        assert main(["verify", "taylor", "--order", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: order must be >= 0, got -1\n"

    def test_trace_of_a_deep_well_is_a_numeric_failure(self, capsys):
        """The trace of a well 10^4 deep overflows float64: exit 3 and no
        report, rather than NaN fit coefficients."""
        assert main(["verify", "trace", "--potential=-10000*exp(-x1^2)",
                     "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: relative heat trace overflows float64")

    @pytest.mark.parametrize("depth", ["1000", "11"])
    def test_trace_of_a_well_past_the_fit_window_is_refused(self, capsys, depth):
        """Past t |min V| = TRACE_MAX_WELL at the window's largest t, 0.2, the
        4-term fit fails (c_1 = -8.9e84 against 1772 at depth 1000): exit 3
        with no report, naming the bound."""
        assert main(["verify", "trace", f"--potential=-{depth}*exp(-x1^2)",
                     "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: t * |min V| reaches")
        assert f"bound {cli.TRACE_MAX_WELL:g}" in err

    @pytest.mark.parametrize("potential", ["-10*exp(-x1^2)", "1/(1+x1^2)"])
    def test_trace_within_the_fit_window_passes(self, capsys, potential):
        assert main(["verify", "trace", f"--potential={potential}"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_fk_suite_small(self, capsys):
        assert main(["verify", "fk", "--paths", "20000", "--seed", "7",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        check = data["checks"][0]
        assert abs(check["observed"] - check["target"]) <= check["tolerance"]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_fk_thread_count_below_one_is_a_usage_error(self, capsys, monkeypatch,
                                                         threads):
        monkeypatch.setenv("HEATINV_THREADS", threads)
        assert main(["verify", "fk", "--paths", "20000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: HEATINV_THREADS must be >= 1, got {threads}\n"

    def test_fk_worker_failure_is_a_numeric_failure(self, capsys, monkeypatch):
        monkeypatch.setenv("HEATINV_THREADS", "2")
        assert main(["verify", "fk", "--potential", "powr(x1,1,2)",
                     "--paths", "20000"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure:")

    def test_fk_tolerance_covers_the_omitted_t4_term(self, capsys):
        # at 200k paths the a_4 t^4 term left out of the 3-term target is
        # close to 3 standard errors; at this seed the estimate is more than
        # 3 standard errors from the target (a_4 = 547/840, see below)
        assert main(["verify", "fk", "--paths", "200000", "--seed", "5",
                     "--format", "json"]) == 0
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["name"] == "fk_vs_3term_expansion"
        deviation = abs(check["observed"] - check["target"])
        t4_term = (4 * math.pi * 0.05) ** -0.5 * (547 / 840) * 0.05 ** 4
        assert check["tolerance"] - t4_term < deviation <= check["tolerance"]

    @pytest.mark.parametrize("t", ["1e-300", "1e-20"])
    def test_fk_t_below_the_expansion_is_a_usage_error(self, capsys, monkeypatch, t):
        # for exp(-x1^2), 1 - t rounds to 1 at these t, and so does every
        # path weight: the suite would compare the free kernel with itself.
        # The refusal comes before any path is drawn
        def no_paths(*_):
            raise AssertionError("fk_diagonal called")
        monkeypatch.setattr(cli, "fk_diagonal", no_paths)
        assert main(["verify", "fk", "--paths", "2000", "--t", t]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: t = {float(t)} is too small: 1 + a_1 t + a_2 t^2"
                       " + a_3 t^3 rounds to 1, so the check would test nothing\n")

    def test_fk_t_below_the_expansion_is_exact_at_a_zero_potential(self, capsys):
        # every a_j is 0 there, so the target and every weight are exact
        assert main(["verify", "fk", "--paths", "2000", "--t", "1e-300",
                     "--potential", "0"]) == 0
        assert capsys.readouterr().out.startswith("[PASS] fk_vs_3term_expansion")

    @pytest.mark.parametrize("t,paths", [("1e-7", "20000"), ("1e-8", "20000"),
                                         ("1e-12", "2000"), ("1e-16", "2000")])
    def test_fk_tolerance_below_the_target_spacing_is_a_usage_error(self, capsys, t, paths):
        # the expansion does not round to 1 at these t, but the tolerance,
        # 3 standard errors plus the a_4 t^4 term, is narrower than one float
        # step of the target, so rounding alone would pass the check
        assert main(["verify", "fk", "--paths", paths, "--t", t]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        tolerance, spacing = re.fullmatch(
            rf"error: t = {float(t)} is too small: the tolerance (\S+) is below the"
            r" float spacing of the target, (\S+)\n", err).groups()
        assert 0 < float(tolerance) < float(spacing)

    @pytest.mark.parametrize("argv,exact", [(["--t", "1e-6"], False), ([], False),
                                            (["--potential", "0", "--t", "1e-12"], True)])
    def test_fk_tolerance_above_the_target_spacing_or_zero_is_checked(self, capsys, argv,
                                                                      exact):
        # at t = 1e-6 the window is about 32 float steps of the target; at a
        # zero potential it is exactly 0, and the check is exact
        assert main(["verify", "fk", "--paths", "20000", "--format", "json", *argv]) == 0
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["pass"]
        if exact:
            assert check["tolerance"] == 0.0 and check["observed"] == check["target"]
        else:
            assert check["tolerance"] > 16 * math.ulp(check["target"])

    def test_fk_prefactor_overflow_comes_before_the_small_t_refusal(self, capsys):
        assert main(["verify", "fk", "--paths", "100", "--t", "1e-300",
                     "--dim", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t = 1e-300 is too small: the kernel prefactor")
        assert err.count("\n") == 1

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
                                BridgeSampler(seed=seed, paths=paths, dim=1))
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
     "2  {rows[1][value]:.9g}  {rows[1][b_or_beta]:.9g}  {rows[1][err]:.3g}"
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
     "j  value          b_or_beta       err       route       density"
     "                                \n"
     "1  0              0               0         subtracted  0"
     "                                      \n"
     "2  0              0               0         subtracted  0"
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


# the options each verify suite reads, with a value for each (and for
# --matrix-dim, which none reads)
SUITE_OPTIONS = {
    "routes": ("--dim", "--order", "--epsilon"),
    "fk": ("--dim", "--potential", "--t", "--seed", "--paths", "--steps"),
    "trace": ("--potential",),
    "taylor": ("--order", "--seed"),
}
COMMAND_OPTIONS = {
    "local": ("--dim", "--order"),
    "alpha": ("--dim", "--epsilon", "--order"),
    "coeffs": ("--dim", "--potential", "--order", "--box"),
    "regtrace": ("--dim", "--epsilon", "--potential", "--order", "--box"),
}
OPTION_VALUES = {"--dim": "2", "--order": "2", "--epsilon": "1/2",
                 "--potential": "x1", "--t": "9.5", "--seed": "4", "--paths": "3",
                 "--steps": "8", "--box": "2.5", "--matrix-dim": "4"}
UNREAD = [("verify", suite, flag, value)
          for suite, reads in SUITE_OPTIONS.items()
          for flag, value in OPTION_VALUES.items() if flag not in reads]


class TestOptions:
    @pytest.mark.parametrize("suite", [*SUITE_OPTIONS, *COMMAND_OPTIONS])
    def test_suite_reads_its_options(self, suite):
        """Each verify suite and each command reads exactly its options."""
        flags = SUITE_OPTIONS.get(suite) or COMMAND_OPTIONS[suite]
        command = ["verify", suite] if suite in SUITE_OPTIONS else [suite]
        argv = [x for flag in flags for x in (flag, OPTION_VALUES[flag])]
        args, unread = build_parser().parse_known_args([*command, *argv])
        assert unread == []
        for flag in flags:
            assert str(getattr(args, flag[2:].replace("-", "_"))) == OPTION_VALUES[flag]
        assert {k for k in vars(args) if k not in ("command", "suite", "func")} == {
            "format", "output", *(flag[2:] for flag in flags)}

    @pytest.mark.parametrize("argv", UNREAD + [
        ("local", "--dim", "1", "--order", "1", "--foo"),
        ("verify", "taylor", "--matrix-dim", "6"),
        ("coeffs", "--dim", "1", "--potential", "x1", "--order", "1", "--epsilon", "1"),
    ], ids=" ".join)
    def test_unread_option_is_usage_error(self, argv, capsys):
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("verify", "fk", "--seed", "-1"), ("verify", "taylor", "--seed", "-5"),
    ], ids=" ".join)
    def test_negative_seed_is_named_usage_error(self, argv, capsys):
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("argv,builder", [
        (("coeffs",), "heat_invariant_binomial"),
        (("regtrace", "--epsilon", "1/2"), "alpha_density"),
    ], ids=["coeffs", "regtrace"])
    def test_quadrature_dimension_refused_before_any_density(
            self, argv, builder, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a density was built")
        monkeypatch.setattr(cli, builder, refuse)
        assert main([*argv, "--dim", "5", "--potential", "exp(-x1^2)",
                     "--order", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "21^5 = 4084101 nodes per cell" in err


class TestProcessLevel:
    def test_usage_error_exit_code(self):
        code, _, _ = run_cli("local", "--dim", "1")
        assert code == 2
        code, _, _ = run_cli("nonsense")
        assert code == 2
        # 2^(2^27) would be folded into a 134M-bit integer before any check
        for potential in ("0^(-1) + x1", "x1 + 2^2^27"):
            code, out, err = run_cli("coeffs", "--dim", "1", "--potential",
                                     potential, "--order", "1")
            assert (code, out) == (2, "")
            assert err.startswith("error:")
        # for exp(-x1^2) the omitted a_4 t^4 reaches a tenth of the 3-term
        # target from t near 0.55 on, so the check would test nothing
        # 1e300 ** 2 raises OverflowError, which used to end in exit 3
        for t in ("0.8", "1", "2", "1e6", "1e300"):
            code, out, err = run_cli("verify", "fk", "--paths", "2000", "--t", t)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "too large" in err
        # (4 pi t)^(-n/2) overflows float64 at n = 8
        code, out, err = run_cli("verify", "fk", "--paths", "100", "--t",
                                 "1e-300", "--dim", "8")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "t = 1e-300" in err

    @pytest.mark.parametrize("potential", [
        "(" * 200 + "x1" + ")" * 200, "exp(" * 200 + "x1" + ")" * 200,
        "-" * 1000 + "x1", "+".join(["x1"] * 1000),
    ], ids=["parens", "exp", "minus", "sum"])
    def test_nesting_past_the_budget_is_usage_error(self, potential):
        # each of these used to end in a RecursionError traceback (exit 1)
        code, out, err = run_cli("coeffs", "--dim", "1", "--order", "1",
                                 f"--potential={potential}", timeout=60)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "nested past the budget" in err

    @pytest.mark.parametrize("argv", [
        ("coeffs",), ("regtrace", "--epsilon", "1"),
    ], ids=["coeffs", "regtrace"])
    def test_quadrature_past_four_dimensions_is_usage_error(self, argv):
        # one G10/K21 cell of the box in n = 5 has 21^5 nodes: refused before
        # any is evaluated instead of running for minutes or running out of
        # memory.  The potential is not radial, so the box is its path
        code, out, err = run_cli(*argv, "--dim", "5", "--order", "1", "--potential",
                                 "exp(-x1^2-x2^2-x3^2-x4^2-2*x5^2)", timeout=60)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "21^5" in err

    @pytest.mark.parametrize("dim,order", [(5, 5), (8, 3)])
    def test_radial_quadrature_past_four_dimensions_runs(self, dim, order):
        # a radial potential integrates one half-line, 21 nodes per cell, so
        # no cell budget refuses it
        potential = "exp(-" + "-".join(f"x{i}^2" for i in range(1, dim + 1)) + ")"
        code, out, err = run_cli("coeffs", "--dim", str(dim), "--order", str(order),
                                 "--potential", potential, "--format", "json", timeout=60)
        assert (code, err) == (0, "")
        table = json.loads(out)
        assert table["domain"] == "R^n" and len(table["rows"]) == order
        assert table["rows"][0]["value"] == pytest.approx(-math.pi ** (dim / 2), rel=1e-12)

    def test_fk_window_past_a_tenth_of_the_target_fails(self):
        # near the pole the weights are heavy-tailed but finite: at 2000
        # paths the estimate is -3.9e11 against a target of 1.56, and its
        # 3 standard errors are wider than both
        code, out, _ = run_cli("verify", "fk", "--paths", "2000",
                               "--potential", "1/(x1-0.3)")
        assert code == 1
        assert out.startswith("[FAIL] fk_vs_3term_expansion")

    # one path has no spread: its standard error of 0 would leave a window
    # of the omitted a_4 t^4 term alone
    @pytest.mark.parametrize("flag,value", [("--paths", "0"), ("--paths", "-5"),
                                            ("--paths", "1"),
                                            ("--steps", "0"), ("--steps", "7"),
                                            ("--dim", "9"),
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
                "main(['verify', 'taylor', '--order', '1']); "
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

    def test_numeric_commands_load_no_numpy_ma(self):
        """numpy.ma costs 13-17 ms of import; np.unique would load it."""
        code = ("import sys; from heatinv.cli import main; "
                "main(['coeffs', '--dim', '1', '--potential', 'exp(-x1^2)', '--order', '2']); "
                "main(['verify', 'trace']); "
                "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.stdout.splitlines()[-1] == "False"

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


class _FullStdout(io.StringIO):
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestProcessEntry:
    """`cli.run()` is the process entry: it exits with `main()`'s code and
    freezes the heap on the way out, so shutdown's cyclic collections find
    nothing to traverse."""

    def test_heap_is_frozen_at_exit(self):
        # atexit hooks run after run() has raised SystemExit
        code = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                "sys.argv = ['heatinv', '--version']\n"
                "from heatinv.cli import run\n"
                "run()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [cli.__version__, "True"]

    def test_main_leaves_the_heap_collectable(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["local", "--dim", "1", "--order", "2"]) == 0
        with pytest.raises(SystemExit):
            main(["--version"])
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen

    def test_large_report_reaches_pipe_and_file_whole(self, capsys, tmp_path):
        argv = ("local", "--dim", "3", "--order", "7", "--format", "json")
        assert main(list(argv)) == 0
        expected = capsys.readouterr().out
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out == expected
        json.loads(out)
        path = tmp_path / "report.json"
        code, out, err = run_cli(*argv, "--output", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == expected

    @pytest.mark.parametrize("argv,status", [
        (("verify", "fk", "--steps", "7"), 2),
        (("coeffs", "--dim", "1", "--potential", "1/x1", "--order", "1"), 3),
    ], ids=["usage", "numeric"])
    def test_exit_codes_keep_their_messages(self, capsys, argv, status):
        assert main(list(argv)) == status
        expected = capsys.readouterr()
        code, out, err = run_cli(*argv)
        assert (code, out) == (status, expected.out)
        assert err == expected.err
        assert err.startswith("error:" if status == 2 else "numeric failure:")

    @pytest.mark.parametrize("argv,target,unbuffered", [
        *[pytest.param(("local", "--dim", "1", "--order", "2"), target, False, id=target)
          for target in ("closed pipe", "/dev/full", "closed stdout",
                         "--output /dev/full", "--output directory")],
        *[pytest.param((flag,), target, unbuffered,
                       id=f"{flag} {target}{' unbuffered' if unbuffered else ''}")
          for flag in ("--help", "--version") for target in ("closed pipe", "/dev/full")
          for unbuffered in (False, True)]])
    def test_failed_write_is_one_usage_error(self, argv, target, unbuffered, tmp_path):
        """A report, help or version text that cannot be written exits 2 with
        one stderr line, whatever the target, and a dead stdout does not fail
        again at the interpreter's final flush."""
        if "/dev/full" in target and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        cmd = [sys.executable, "-m", "heatinv.cli", *argv]
        if target == "closed pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            stdout, reason = os.fdopen(write_end, "w"), "stdout: Broken pipe"
        elif target == "/dev/full":
            stdout, reason = open("/dev/full", "w"), "stdout: No space left on device"
        elif target == "closed stdout":
            # started with fd 1 closed, so sys.stdout is None
            cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
            stdout, reason = open(os.devnull, "w"), "stdout: Bad file descriptor"
        elif target == "--output /dev/full":
            cmd += ["--output", "/dev/full"]
            stdout, reason = open(os.devnull, "w"), "/dev/full: No space left on device"
        else:
            cmd += ["--output", str(tmp_path)]
            with pytest.raises(OSError) as refused:
                open(tmp_path, "w")
            stdout, reason = open(os.devnull, "w"), f"{tmp_path}: {refused.value.strerror}"
        # stdout buffered, as by default, so a refused report is still in its
        # buffer when the interpreter flushes it at exit; or unbuffered, so
        # the write itself fails
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with stdout:
            proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True,
                                  env=env)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write {reason}\n")

    @pytest.mark.parametrize("argv,status", [
        (("local", "--bogus"), 2),
        (("local", "--dim", "1", "--order", "2", "--bogus"), 2),
        (("coeffs", "--dim", "1", "--potential", "1/x1", "--order", "1"), 3),
    ], ids=["argparse", "usage", "numeric"])
    def test_failure_into_a_full_stderr_keeps_its_exit_code(self, argv, status):
        """A message that stderr refuses is dropped, not raised: the exit
        code is the whole report."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "heatinv.cli", *argv],
                                  stdout=subprocess.PIPE, stderr=full, text=True)
        assert (proc.returncode, proc.stdout) == (status, "")

    @pytest.mark.parametrize("argv", [["--version"], ["verify", "fk", "--help"]])
    def test_main_reports_refused_argparse_output(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _FullStdout())
        assert main(argv) == 2
        reason = os.strerror(errno.ENOSPC)
        assert capsys.readouterr().err == f"error: cannot write stdout: {reason}\n"

    @pytest.mark.parametrize("closed", [False, True], ids=["full", "closed"])
    def test_main_reports_a_refused_stdout_and_keeps_fd_1(self, closed, capsys,
                                                          monkeypatch):
        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", None if closed else _FullStdout())
        assert main(["local", "--dim", "1", "--order", "2"]) == 2
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        reason = os.strerror(errno.EBADF if closed else errno.ENOSPC)
        assert capsys.readouterr().err == f"error: cannot write stdout: {reason}\n"
