"""Density evaluation, quadrature, spectral prefactors, and table emitters."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from heatinv.diffpoly import DiffPoly
from heatinv.halfint import HalfIntScalar
from heatinv import numeric
from heatinv.invariants import alpha_density, heat_invariant_binomial
from heatinv.numeric import (QuadratureConfig, QuadratureError, _gk_rule,
                             b_from_a, beta_from_alpha, box_tail_1d,
                             coefficient_table, evaluate_density,
                             integrate_density, spectral_prefactor)
from heatinv.potentials import parse_potential

GAUSSIAN = parse_potential("exp(-x1^2)", 1)


class TestDensityEvaluation:
    def test_a1_at_origin(self):
        density = heat_invariant_binomial(1, 1).density
        assert evaluate_density(density, GAUSSIAN, (0.0,)) == pytest.approx(-1.0)

    def test_a2_at_origin(self):
        # V = exp(-x^2): V(0) = 1, V''(0) = -2, a2(0) = 1/2 + 1/3 = 5/6
        density = heat_invariant_binomial(2, 1).density
        assert evaluate_density(density, GAUSSIAN, (0.0,)) == pytest.approx(5 / 6)

    def test_two_dimensional(self):
        v = parse_potential("exp(-x1^2 - x2^2)", 2)
        density = heat_invariant_binomial(1, 2).density
        assert evaluate_density(density, v, (0.5, -0.5)) == pytest.approx(
            -math.exp(-0.5))


class TestIntegration:
    def test_gaussian_moments(self):
        a1, err = integrate_density(heat_invariant_binomial(1, 1).density,
                                    GAUSSIAN, 1)
        assert a1 == pytest.approx(-math.sqrt(math.pi), abs=1e-8)
        assert err < 1e-6

    def test_a2_value(self):
        # integral of 1/2 e^(-2x^2) - 1/6 (e^(-x^2))'' = 1/2 sqrt(pi/2)
        a2, _ = integrate_density(heat_invariant_binomial(2, 1).density,
                                  GAUSSIAN, 1)
        assert a2 == pytest.approx(0.5 * math.sqrt(math.pi / 2), abs=1e-8)

    def test_box_doubling_stable(self):
        density = heat_invariant_binomial(1, 1).density
        small, _ = integrate_density(density, GAUSSIAN, 1,
                                     QuadratureConfig(half_width=8.0))
        large, _ = integrate_density(density, GAUSSIAN, 1,
                                     QuadratureConfig(half_width=16.0))
        assert small == pytest.approx(large, abs=1e-9)

    def test_zero_density_shortcut(self):
        density = alpha_density(1, 1, Fraction(1, 3)).density
        assert integrate_density(density, GAUSSIAN, 1) == (0.0, 0.0)

    def test_two_dimensional_quadrature(self):
        v = parse_potential("exp(-x1^2 - x2^2)", 2)
        density = heat_invariant_binomial(1, 2).density
        value, _ = integrate_density(density, v, 2,
                                     QuadratureConfig(half_width=6.0))
        assert value == pytest.approx(-math.pi, abs=1e-7)


    def test_three_dimensional_quadrature(self):
        v = parse_potential("exp(-x1^2 - x2^2 - x3^2)", 3)
        density = heat_invariant_binomial(1, 3).density
        value, err = integrate_density(density, v, 3,
                                       QuadratureConfig(half_width=6.0))
        assert abs(value + math.pi ** 1.5) <= max(err, 1e-9)

    def test_equal_densities_integrate_to_equal_floats(self):
        """Terms are summed in sorted order, not in the order they were
        built: a copy with its terms reversed gives bitwise equal results."""
        density = heat_invariant_binomial(4, 1).density
        reordered = DiffPoly(1, dict(reversed(list(density.terms.items()))))
        assert reordered == density
        assert list(reordered.terms) != list(density.terms)
        assert (integrate_density(density, GAUSSIAN, 1)
                == integrate_density(reordered, GAUSSIAN, 1))

    def test_non_convergence_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(numeric, "QUAD_LIMIT", 2)
        density = heat_invariant_binomial(3, 1).density
        with pytest.raises(QuadratureError) as exc:
            integrate_density(density, GAUSSIAN, 1)
        assert math.isfinite(exc.value.value) and math.isfinite(exc.value.error)
        assert exc.value.error > 0


class TestGaussKronrod:
    def test_rules_exact_to_their_degree(self):
        # K21 integrates polynomials of degree 31 exactly, G10 of degree 19
        nodes, kronrod, gauss = _gk_rule()
        for degree, weights in ((31, kronrod), (19, gauss)):
            for k in range(degree + 1):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert abs(weights @ nodes ** k - exact) <= 1e-15
        assert abs(kronrod @ nodes ** 32 - 2.0 / 33) > 1e-13

    def test_gauss_nodes_are_legendre_roots(self):
        gk_nodes, _, gauss = _gk_rule()
        nodes, weights = np.polynomial.legendre.leggauss(10)
        used = gauss > 0
        assert np.allclose(gk_nodes[used], nodes, rtol=0, atol=1e-15)
        assert np.allclose(gauss[used], weights, rtol=0, atol=1e-15)


class TestRegularizedTail:
    EPS = Fraction(1, 3)
    POWR = parse_potential("powr(1+x1^2,-1,6)", 1)

    def test_tail_term_covers_whole_line_integral(self):
        mpmath = pytest.importorskip("mpmath")
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x", real=True)
        v = (1 + x ** 2) ** sympy.Rational(-1, 6)
        invariants = [alpha_density(j, 1, self.EPS) for j in (3, 4)]
        box = 2000.0
        table = coefficient_table(invariants, self.POWR, 1,
                                  QuadratureConfig(half_width=box))
        for inv, row in zip(invariants, table.rows):
            expr = sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(sympy.diff(v, x, nu[0]) for nu in mono))
                       for mono, c in inv.density.terms.items())
            f = sympy.lambdify(x, expr, "mpmath")
            whole = float(mpmath.quad(f, [-mpmath.inf, -box, -1, 0, 1, box, mpmath.inf]))
            assert abs(row.value - whole) <= row.err
            # the tail term is what covers the miss, not the quadrature error
            assert row.err < 3 * abs(row.value - whole) + 1e-6

    def test_zero_density_keeps_zero_error(self):
        table = coefficient_table([alpha_density(1, 1, self.EPS)], self.POWR, 1)
        assert (table.rows[0].value, table.rows[0].err) == (0.0, 0.0)

    def test_tail_estimate_scales_with_box(self):
        density = alpha_density(4, 1, self.EPS).density
        near = box_tail_1d(density, self.POWR, self.EPS, 500.0)
        far = box_tail_1d(density, self.POWR, self.EPS, 2000.0)
        # the slowest monomial, V^4, decays like |x|^(-4/3)
        assert far / near == pytest.approx(4.0 ** (-1 / 3), rel=1e-2)


class TestSpectralPrefactor:
    def test_exact_value_odd_dimension(self):
        # n = 1, j = 1: (4 pi)^(-1/2) / Gamma(-1/2) = -1 / (4 pi)
        factor = spectral_prefactor(1, 1)
        assert factor == HalfIntScalar(Fraction(-1, 4), -2)
        assert float(factor) == pytest.approx(-1 / (4 * math.pi))

    def test_pole_detection(self):
        assert spectral_prefactor(1, 2) is None
        assert spectral_prefactor(2, 4) is None
        assert spectral_prefactor(1, 4) is not None

    def test_b_absent_iff_even_dim_and_large_j(self):
        for n in range(1, 7):
            for j in range(1, 7):
                absent = b_from_a(1.0, j, n) is None
                assert absent == (n % 2 == 0 and j >= n / 2)

    def test_zero_value_gives_positive_zero(self):
        # the n = 1, j = 1 factor is negative; a zero integral is 0.0, not -0.0
        assert float(spectral_prefactor(1, 1)) < 0
        for zero in (0.0, -0.0):
            for convert in (b_from_a, beta_from_alpha):
                assert math.copysign(1.0, convert(zero, 1, 1)) == 1.0

    def test_beta_absent_for_all_even_dims(self):
        for n in (2, 4, 6):
            for j in (1, 2, 3):
                assert beta_from_alpha(1.0, j, n) is None
        assert beta_from_alpha(1.0, 1, 3) is not None

    def test_exact_vs_float_assembly(self):
        # building through HalfIntScalar then converting once agrees with a
        # direct float computation to near machine precision
        for n in (1, 3, 5):
            for j in (1, 2, 3):
                exact = float(spectral_prefactor(j, n))
                direct = (4 * math.pi) ** (-n / 2) / math.gamma(n / 2 - j)
                assert abs(exact - direct) <= 1e-12 * abs(direct)


@pytest.fixture(scope="module")
def table():
    invariants = [heat_invariant_binomial(j, 1) for j in (1, 2)]
    return coefficient_table(invariants, GAUSSIAN, 1)


class TestTables:

    def test_json_matches_schema(self, table):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as resources
        schema = json.loads(resources.files("heatinv.schemas")
                            .joinpath("coefficient_table.schema.json")
                            .read_text())
        jsonschema.validate(table.to_json_dict(), schema)

    def test_absent_marker(self):
        invariants = [heat_invariant_binomial(1, 2)]
        v2 = parse_potential("exp(-x1^2 - x2^2)", 2)
        table = coefficient_table(invariants, v2, 2,
                                  config=QuadratureConfig(half_width=6.0))
        assert table.rows[0].b_or_beta is None
        assert "absent" in table.to_text()
        assert table.to_json_dict()["rows"][0]["b_or_beta"] is None
