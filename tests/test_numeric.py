"""Density evaluation, quadrature, spectral prefactors, and table emitters."""

import itertools
import json
import math
import operator
import re
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from heatinv.cli import MAX_ORDER
from heatinv.diffpoly import DiffPoly
from heatinv import numeric
from heatinv.halfint import gamma_half_integer
from heatinv.invariants import (alpha_density, heat_invariant_binomial,
                                monomial_decay_weight)
from heatinv.numeric import (EVAL_CHUNK, QUAD_TOL, QuadratureConfig,
                             QuadratureError, _gk_rule, b_from_a,
                             beta_from_alpha, box_tail_1d, coefficient_table,
                             evaluate_density, integrate_density,
                             spectral_prefactor, table_text)
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

    def test_densities_commute_with_rotations(self):
        """a_j[V o R](x) = a_j[V](Rx) for a rotation R and a V that is not
        radial, and likewise for middle-regime alpha_j: the densities are
        built from O(n)-invariant contractions of the jets, which is what
        lets a radial V's table integrate one half-line."""
        rot = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
        text = "exp(-x1^2-2*x2^2)*(1+x1+x1*x2^2)"
        rotated = re.sub(r"x(\d)", lambda m: "({}*x1+{}*x2)".format(*rot[int(m[1]) - 1]),
                         text)
        v, v_rot = parse_potential(text, 2), parse_potential(rotated, 2)
        densities = ([heat_invariant_binomial(j, 2).density for j in range(1, 6)]
                     + [alpha_density(j, 2, Fraction(1, 2)).density for j in (3, 4)])
        for x in [(0.3, -0.7), (1.1, 0.4), (-0.6, -1.3)]:
            rx = [float(sum(c * xi for c, xi in zip(row, x))) for row in rot]
            for density in densities:
                assert evaluate_density(density, v_rot, x) == pytest.approx(
                    evaluate_density(density, v, rx), rel=1e-12, abs=1e-13)


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
        built: a copy built from its terms reversed gives bitwise equal
        results."""
        density = heat_invariant_binomial(4, 1).density
        reordered = DiffPoly(1, dict(reversed(list(density.terms.items()))))
        assert reordered == density
        assert list(reordered._num) != list(density._num)
        assert (integrate_density(density, GAUSSIAN, 1)
                == integrate_density(reordered, GAUSSIAN, 1))

    def test_one_cell_past_the_round_budget_is_refused(self, monkeypatch):
        """n = 5 needs 21^5 nodes in its first cell, past MAX_ROUND_NODES: a
        ValueError naming both, before the integrand is called, also for a
        zero density."""
        def integrand(*_):
            raise AssertionError("integrand evaluated")
        monkeypatch.setattr(numeric, "_density_values", integrand)
        v = parse_potential("exp(-x1^2-x2^2-x3^2-x4^2-x5^2)", 5)
        for density in (heat_invariant_binomial(1, 5).density, DiffPoly.zero(5)):
            with pytest.raises(ValueError, match=r"21\^5 = 4084101 .* 262144"):
                integrate_density(density, v, 5)

    def test_box_whose_cell_volume_overflows_is_refused(self, monkeypatch):
        """L^n past the largest float is a ValueError before the integrand is
        called; the same L in fewer dimensions, whose L^n is finite, runs."""
        def integrand(*_):
            raise AssertionError("integrand evaluated")
        monkeypatch.setattr(numeric, "_density_values", integrand)
        for n, half_width in ((1, 1e308), (2, 1e154), (3, 1e102), (4, 1e77)):
            numeric.check_quadrature(n, QuadratureConfig(half_width=half_width))
        for n, half_width in ((2, 1e155), (2, 1e200), (3, 1e103), (4, 1e78)):
            with pytest.raises(ValueError, match=rf"cell volume L\^{n} overflows"):
                integrate_density(heat_invariant_binomial(1, n).density,
                                  _gaussian(n), n, QuadratureConfig(half_width=half_width))

    def test_config_is_frozen(self):
        config = QuadratureConfig(half_width=6.0)
        with pytest.raises(AttributeError):
            config.half_width = 12.0

    def test_non_convergence_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(numeric, "QUAD_LIMIT", 2)
        density = heat_invariant_binomial(3, 1).density
        with pytest.raises(QuadratureError) as exc:
            integrate_density(density, GAUSSIAN, 1)
        assert math.isfinite(exc.value.value) and math.isfinite(exc.value.error)
        assert exc.value.error > 0


def _gaussian(n):
    return parse_potential("exp(-" + "-".join(f"x{i}^2" for i in range(1, n + 1)) + ")", n)


def _hermite(k: int) -> list[int]:
    """Coefficients of the physicists' Hermite polynomial H_k, lowest power
    first: H_0 = 1, H_1 = 2x, H_(i+1) = 2x H_i - 2i H_(i-1)."""
    prev, cur = [], [1]
    for i in range(k):
        nxt = [0] + [2 * c for c in cur]
        for p, c in enumerate(prev):
            nxt[p] -= 2 * i * c
        prev, cur = cur, nxt
    return cur


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _jet_factor(p: list[int], k: int) -> list[int]:
    """d^k (p(x) e^(-x^2)) / e^(-x^2) = sum_l C(k, l) p^(l)(x) (-1)^(k-l)
    H_(k-l)(x), coefficients lowest power first."""
    out = [0]
    for l in range(k + 1):
        h = [math.comb(k, l) * (-1) ** (k - l) * c for c in _hermite(k - l)]
        term = _poly_mul(p, h)
        out = [a + b for a, b in itertools.zip_longest(out, term, fillvalue=0)]
        p = [i * c for i, c in enumerate(p)][1:] or [0]  # p' for the next l
    return out


def _gaussian_pairs(density: DiffPoly, prefactors=None) -> dict[int, Fraction]:
    """The whole-space integral of `density` for V = prod_i p_i(x_i)
    exp(-|x|^2) as exact pairs {m: q_m}, the integral being
    sum_m q_m (pi/m)^(n/2).  `prefactors` holds each axis's polynomial p_i,
    coefficients lowest power first; None means p_i = 1 on every axis.

    Along each axis a jet is a polynomial times exp(-x_i^2) (_jet_factor;
    for p_i = 1, (-1)^(nu_i) H_(nu_i)(x_i) exp(-x_i^2)), so a monomial of m
    jets is prod_i P_i(x_i) exp(-m |x|^2), and each axis integrates to
    sqrt(pi/m) sum_l c_(2l) (2l-1)!! / (2m)^l over the coefficients c of P_i."""
    prefactors = prefactors or [[1]] * density.dim
    pairs: dict[int, Fraction] = {}
    for mono, coeff in density.terms.items():
        m, q = len(mono), Fraction(coeff)
        for axis, p in enumerate(prefactors):
            poly = [1]
            for nu in mono:
                poly = _poly_mul(poly, _jet_factor(p, nu[axis]))
            q *= sum(Fraction(c * math.prod(range(1, k, 2)), (2 * m) ** (k // 2))
                     for k, c in enumerate(poly) if k % 2 == 0)
        pairs[m] = pairs.get(m, 0) + q
    return {m: q for m, q in pairs.items() if q}


class TestExactGaussianIntegrals:
    """integrate_density against the closed-form integrals of a_j for
    exp(-|x|^2) over R^n.  Outside the box [-6, 6]^n lies at most about
    5e-12 of them (the D^10 V term of a_6 at n = 1), below every reported
    error."""

    def test_ruler_of_a3_in_four_dimensions(self):
        # int a_3 = -1/6 int V^3 - 1/12 int |grad V|^2 at n = 4
        assert _gaussian_pairs(heat_invariant_binomial(3, 4).density) == {
            3: Fraction(-1, 6), 2: Fraction(-1, 3)}

    def test_ruler_of_the_hand_derived_rows(self):
        # -sqrt(pi) and 1/2 sqrt(pi/2), as in TestIntegration
        assert _gaussian_pairs(heat_invariant_binomial(1, 1).density) == {1: -1}
        assert _gaussian_pairs(heat_invariant_binomial(2, 1).density) == {2: Fraction(1, 2)}

    def test_ruler_of_a1_with_a_prefactor(self):
        # int a_1 = -int V: -sqrt(pi) for (1+x1) exp(-x1^2), -pi for
        # (1+x1) exp(-|x|^2) and -pi/2 for x1^2 exp(-|x|^2) in two dimensions
        assert _gaussian_pairs(heat_invariant_binomial(1, 1).density, [[1, 1]]) == {1: -1}
        assert _gaussian_pairs(heat_invariant_binomial(1, 2).density,
                               [[1, 1], [1]]) == {1: -1}
        assert _gaussian_pairs(heat_invariant_binomial(1, 2).density,
                               [[0, 0, 1], [1]]) == {1: Fraction(-1, 2)}

    @pytest.mark.parametrize("n,j", [(1, j) for j in range(1, 7)]
                             + [(2, j) for j in range(1, 7)]
                             + [(3, j) for j in range(1, 4)])
    def test_value_within_its_error_of_the_exact_integral(self, n, j):
        density = heat_invariant_binomial(j, n).density
        exact = sum(float(q) * (math.pi / m) ** (n / 2)
                    for m, q in _gaussian_pairs(density).items())
        value, err = integrate_density(density, _gaussian(n), n,
                                       QuadratureConfig(half_width=6.0))
        assert abs(value - exact) <= err

    @pytest.mark.parametrize("text,prefactors,j", [
        ("(1+x1)*exp(-x1^2)", [[1, 1]], j) for j in range(1, 6)
    ] + [("(1+x1)*exp(-x1^2-x2^2)", [[1, 1], [1]], j) for j in range(1, 5)]
      + [("x1^2*exp(-x1^2-x2^2)", [[0, 0, 1], [1]], j) for j in range(1, 4)])
    def test_polynomial_prefactor_within_its_error(self, text, prefactors, j):
        """p(x) exp(-|x|^2) is neither even nor symmetric under swapping
        axes, so errors in the coefficients of odd-order jets do not cancel."""
        n = len(prefactors)
        density = heat_invariant_binomial(j, n).density
        exact = sum(float(q) * (math.pi / m) ** (n / 2)
                    for m, q in _gaussian_pairs(density, prefactors).items())
        value, err = integrate_density(density, parse_potential(text, n), n,
                                       QuadratureConfig(half_width=6.0))
        assert abs(value - exact) <= err


def _algebraic_pieces(density: DiffPoly, s: Fraction) -> dict:
    """`density` for V = (1+|x|^2)^(-s) as {(b, c): q}, the sum of the pieces
    q x^b (1+|x|^2)^(-c).  Each derivative follows
    d_i [x^b (1+r^2)^(-c)] = b_i x^(b-e_i) (1+r^2)^(-c) - 2c x^(b+e_i) (1+r^2)^(-c-1),
    and a product of pieces adds their b and their c."""
    n = density.dim
    out = defaultdict(int)
    for mono, coeff in density.terms.items():
        product = {((0,) * n, 0): coeff}
        for nu in mono:
            jet = {((0,) * n, s): 1}
            for axis, order in enumerate(nu):
                e = tuple(int(i == axis) for i in range(n))
                for _ in range(order):
                    nxt = defaultdict(int)
                    for (b, c), q in jet.items():
                        nxt[tuple(map(operator.add, b, e)), c + 1] -= 2 * c * q
                        if b[axis]:
                            nxt[tuple(map(operator.sub, b, e)), c] += b[axis] * q
                    jet = nxt
            nxt = defaultdict(int)
            for ((b1, c1), q1), ((b2, c2), q2) in itertools.product(
                    product.items(), jet.items()):
                nxt[tuple(map(operator.add, b1, b2)), c1 + c2] += q1 * q2
            product = nxt
        for key, q in product.items():
            out[key] += q
    return {key: q for key, q in out.items() if q}


def _algebraic_pairs(density: DiffPoly, s: Fraction) -> dict[int, Fraction] | None:
    """The whole-space integral of `density` for V = (1+|x|^2)^(-s), 2s an
    integer, as exact pairs {k: q_k}, the integral being sum_k q_k pi^(k/2);
    None when it is not integrable.

    int_(R^n) x^(2a) (1+|x|^2)^(-c) dx = prod_i Gamma(a_i+1/2)
    Gamma(c-|a|-n/2) / Gamma(c) (Gradshteyn & Ryzhik 3.251), finite exactly
    when c - |a| > n/2, and a piece odd in some x_i integrates to 0.  Every
    piece of a monomial decays like the monomial, so the test on the pieces
    is monomial_decay_weight > n at epsilon = 2s.  Every Gamma is at a
    half-integer, so halfint.gamma_half_integer gives each one exactly."""
    n = density.dim
    pairs = defaultdict(int)
    for (b, c), q in _algebraic_pieces(density, s).items():
        if 2 * c - sum(b) <= n:
            return None
        if any(e % 2 for e in b):
            continue
        gammas = [gamma_half_integer(e + 1) for e in b]
        gammas.append(gamma_half_integer(int(2 * c) - sum(b) - n))
        den_q, den_k = gamma_half_integer(int(2 * c))
        k = sum(g[1] for g in gammas) - den_k
        pairs[k] += q * math.prod(g[0] for g in gammas) / den_q
    return {k: q for k, q in pairs.items() if q}


def _reflectionless_pairs(l: int, j: int) -> dict[int, Fraction]:
    """The whole-line integral of a_j for the reflectionless well
    V = -l(l+1) sech^2 x, as exact pairs in the form of _algebraic_pairs:
    a rational, {0: q}.

    V reflects nothing and its bound states sit at -m^2, m = 1..l (Poschl &
    Teller 1933), so Tr(e^(-tH) - e^(-tH0)) = sum_m e^(m^2 t) erf(m sqrt t).
    Expanding e^(x^2) erf x = (2/sqrt pi) sum_k 2^k x^(2k+1)/(2k+1)!! and
    matching (4 pi t)^(-1/2) sum_j t^j int a_j gives
    int a_j = sum_(m=1..l) 2^(j+1) m^(2j-1) / (2j-1)!!."""
    double_factorial = math.prod(range(1, 2 * j, 2))
    return {0: sum(Fraction(2 ** (j + 1) * m ** (2 * j - 1), double_factorial)
                   for m in range(1, l + 1))}


class TestExactAlgebraicIntegrals:
    """The exact whole-space integrals of a_j for the long-range potentials
    (1+|x|^2)^(-s), against values derived by hand."""

    @pytest.mark.parametrize("n,s,k,values", [
        (1, Fraction(1), 2, [-1, Fraction(1, 4), Fraction(-1, 12), Fraction(31, 960),
                             Fraction(-561, 35840)]),
        (2, Fraction(3, 2), 2, [-2, Fraction(1, 4), Fraction(-37, 336)]),
        (3, Fraction(2), 4, [-1, Fraction(1, 16), Fraction(-31, 768)]),
    ])
    def test_hand_values(self, n, s, k, values):
        # int a_j = q pi^(k/2): -pi, pi/4, ... for 1/(1+x1^2)
        for j, q in enumerate(values, start=1):
            assert _algebraic_pairs(heat_invariant_binomial(j, n).density, s) == {k: q}

    def test_integrability_boundary(self):
        # a_1 = -V: (1+x1^2)^(-1/2) decays like 1/|x1| and is log-divergent,
        # (1+x1^2)^(-1) is not
        a1 = heat_invariant_binomial(1, 1).density
        assert _algebraic_pairs(a1, Fraction(1, 2)) is None
        assert _algebraic_pairs(a1, Fraction(1)) == {2: -1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_refusals_follow_the_decay_weight(self, n):
        # epsilon = 2s per V factor plus one per derivative order
        for s, j in itertools.product([Fraction(k, 2) for k in range(1, 5)], [1, 2, 3]):
            density = heat_invariant_binomial(j, n).density
            weight = min(monomial_decay_weight(mono, 2 * s) for mono in density.terms)
            assert (_algebraic_pairs(density, s) is None) == (weight <= n)

    @pytest.mark.parametrize("n,text,s,j", [
        (1, "powr(1+x1^2,-1,2)", Fraction(1, 2), 4),
        (1, "1/(1+x1^2)", Fraction(1), 5),
        (2, "powr(1+x1^2+x2^2,-3,2)", Fraction(3, 2), 3),
    ])
    def test_pieces_are_the_density_of_the_parsed_potential(self, n, text, s, j):
        """The ruler integrates the density of the potential the CLI parses."""
        density = heat_invariant_binomial(j, n).density
        pieces = _algebraic_pieces(density, s)
        for point in [(0.0,) * n, (0.3, -1.7)[:n], (2.5, 0.4)[:n]]:
            r2 = sum(x * x for x in point)
            exact = sum(float(q) * math.prod(x ** e for x, e in zip(point, b))
                        * (1 + r2) ** -float(c) for (b, c), q in pieces.items())
            value = evaluate_density(density, parse_potential(text, n), point)
            assert value == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestReflectionlessRuler:
    """Quadrature of a_1..a_10, the 1-D order cap, against the reflectionless
    well's exact integrals.  At --box 20 the tail past the box, about
    4 l(l+1) e^(-40) for a_1, is far below the error target; rows at the
    default box, which the tail outweighs, are left out."""

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_rows_lie_within_their_error(self, l):
        invariants = [heat_invariant_binomial(j, 1) for j in range(1, 11)]
        table = coefficient_table(invariants,
                                  parse_potential(f"-{l * (l + 1)}*(1-tanh(x1)^2)", 1),
                                  1, QuadratureConfig(half_width=20.0))
        for row in table["rows"]:
            j = row["j"]
            exact = float(_reflectionless_pairs(l, j)[0])
            assert abs(row["value"] - exact) <= row["err"]
            # b_j is a_j times a constant, so its error is that constant times err
            assert row["b_or_beta"] == pytest.approx(
                b_from_a(exact, j, 1), rel=1e-12, abs=abs(b_from_a(row["err"], j, 1)))

    def test_first_integrals_by_hand(self):
        # int a_1 = -int V = l(l+1) int sech^2 = 2 l(l+1); a_2 = V^2/2 - V''/6
        # integrates to l^2 (l+1)^2 int sech^4 / 2 = 2/3 l^2 (l+1)^2
        for l in (1, 2, 3):
            assert _reflectionless_pairs(l, 1) == {0: 2 * l * (l + 1)}
            assert _reflectionless_pairs(l, 2) == {0: Fraction(2, 3) * (l * (l + 1)) ** 2}


def _algebraic(n: int, s: Fraction):
    """(1+|x|^2)^(-s) as the CLI parses it."""
    squares = "+".join(f"x{i}^2" for i in range(1, n + 1))
    return parse_potential(f"powr(1+{squares},{-s.numerator},{s.denominator})", n)


class TestWholeSpaceTables:
    """coefficient_table of a radial potential integrates each row over R^n,
    as one integral over the half-line, in every dimension the CLI admits.
    Each row lies within its err of the exact integral, with no box tail,
    and a row with no integral over R^n ends in QuadratureError."""

    @pytest.mark.parametrize("n", sorted(MAX_ORDER))
    def test_gaussian_rows_up_to_the_order_cap(self, n):
        invariants = [heat_invariant_binomial(j, n) for j in range(1, MAX_ORDER[n] + 1)]
        table = coefficient_table(invariants, _gaussian(n), n)
        assert table["domain"] == "R^n"
        for inv, row in zip(invariants, table["rows"]):
            exact = sum(float(q) * (math.pi / m) ** (n / 2)
                        for m, q in _gaussian_pairs(inv.density).items())
            assert abs(row["value"] - exact) <= row["err"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [Fraction(k, 2) for k in range(1, 6)], ids=str)
    def test_algebraic_rows_or_refusals(self, n, s):
        """Every integrable row within its err of the closed form, which the
        box misses by its tail (0.47 for a_1 at n = 2, s = 3/2), and every
        row the closed form finds not integrable refused by name."""
        for j in (1, 2, 3):
            inv = heat_invariant_binomial(j, n)
            pairs = _algebraic_pairs(inv.density, s)
            if pairs is None:
                with pytest.raises(QuadratureError, match="did not converge"):
                    coefficient_table([inv], _algebraic(n, s), n)
                continue
            row = coefficient_table([inv], _algebraic(n, s), n)["rows"][0]
            exact = sum(float(q) * math.pi ** (k / 2) for k, q in pairs.items())
            assert abs(row["value"] - exact) <= row["err"]


def _record_calls(monkeypatch):
    """Node counts of every call of the integrand, in order."""
    sizes = []
    density_values = numeric._density_values

    def record(density, potential, coords):
        sizes.append(len(coords[0]))
        return density_values(density, potential, coords)

    monkeypatch.setattr(numeric, "_density_values", record)
    return sizes


class TestRoundSlices:
    def test_integrand_never_sees_more_than_a_chunk(self, monkeypatch):
        """A round of up to 2^18 nodes reaches the integrand in slices of at
        most EVAL_CHUNK nodes, and every cell is evaluated whole."""
        sizes = _record_calls(monkeypatch)
        integrate_density(heat_invariant_binomial(1, 3).density, _gaussian(3), 3,
                          QuadratureConfig(half_width=6.0))
        assert max(sizes) == EVAL_CHUNK
        assert sum(sizes) % 21 ** 3 == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slices_match_a_whole_round(self, monkeypatch, n):
        """The slices' coordinates are the materialized c + h*o nodes of the
        whole round, in order, and the integral is bitwise the one built
        from a single call of the integrand on every node of each round."""
        density, v = heat_invariant_binomial(2, n).density, _gaussian(n)
        config = QuadratureConfig(half_width=6.0)
        sliced = integrate_density(density, v, n, config)
        apply_rules = numeric._apply_rules
        gk_nodes = _gk_rule()[0]
        offsets = np.stack(np.meshgrid(*([gk_nodes] * n), indexing="ij"),
                           axis=-1).reshape(-1, n)

        def whole_round(f, centers, halves):
            nodes = (centers[:, None, :] + halves[:, None, :] * offsets).reshape(-1, n)
            values = numeric._density_values(density, v, list(nodes.T))
            served = 0

            def replay(coords):
                nonlocal served
                lo, served = served, served + len(coords[0])
                for a in range(n):
                    assert np.array_equal(coords[a], nodes[lo:served, a])
                return values[lo:served]

            result = apply_rules(replay, centers, halves)
            assert served == len(values)
            return result

        monkeypatch.setattr(numeric, "_apply_rules", whole_round)
        assert integrate_density(density, v, n, config) == sliced

    def test_four_dimensional_nodes_follow_the_meshgrid_layout(self):
        """At n = 4 the slices' coordinates are the cell's c + h*o nodes in
        the "ij" meshgrid order of the Kronrod nodes, bitwise, and the
        estimate is the rule's exact integral of a quadratic."""
        n = 4
        gk_nodes = _gk_rule()[0]
        offsets = np.stack(np.meshgrid(*([gk_nodes] * n), indexing="ij"),
                           axis=-1).reshape(-1, n)
        centers = np.array([[0.5, -1.0, 2.0, 0.25]])
        halves = np.array([[1.0, 0.5, 3.0, 0.75]])
        seen = []

        def f(coords):
            seen.append(np.stack(coords, axis=1))
            return coords[0] * coords[1] + coords[2] ** 2 - coords[3]

        est, _, _ = numeric._apply_rules(f, centers, halves)
        assert max(map(len, seen)) == EVAL_CHUNK
        assert np.array_equal(np.concatenate(seen), centers + halves * offsets)
        (c0, c1, c2, c3), h2 = centers[0], halves[0, 2]
        exact = 2 ** n * np.prod(halves) * (c0 * c1 + c2 ** 2 + h2 ** 2 / 3 - c3)
        assert est[0] == pytest.approx(exact, rel=1e-13)


class TestOverflow:
    @pytest.mark.parametrize("potential, n, j, box", [
        ("x1", 2, 1, 1e154), ("10^80*exp(-x1^2)", 1, 4, 12.0), ("x1", 1, 1, 1e308)])
    def test_refused_after_the_first_round(self, monkeypatch, potential, n, j, box):
        """A value or error that overflows float64 raises QuadratureError,
        naming the overflow and carrying the non-finite pair, before any cell
        is bisected: the integrand sees one cell's 21^n nodes."""
        sizes = _record_calls(monkeypatch)
        with pytest.raises(QuadratureError, match="overflowed float64") as info:
            integrate_density(heat_invariant_binomial(j, n).density,
                              parse_potential(potential, n), n,
                              QuadratureConfig(half_width=box))
        assert sum(sizes) == 21 ** n
        assert not (math.isfinite(info.value.value) and math.isfinite(info.value.error))


class TestNodeBudget:
    DENSITY = heat_invariant_binomial(1, 2).density
    V2 = _gaussian(2)

    def test_budget_of_the_nodes_needed_admits_the_integral(self, monkeypatch):
        """A budget of exactly the nodes an integral spends gives the same
        result; one node fewer refuses it before the last round."""
        sizes = _record_calls(monkeypatch)
        full = integrate_density(self.DENSITY, self.V2, 2)
        needed = sum(sizes)
        monkeypatch.setattr(numeric, "MAX_INTEGRAL_NODES", needed)
        assert integrate_density(self.DENSITY, self.V2, 2) == full
        monkeypatch.setattr(numeric, "MAX_INTEGRAL_NODES", needed - 1)
        with pytest.raises(QuadratureError, match=f"within {needed - 1} nodes"):
            integrate_density(self.DENSITY, self.V2, 2)

    def test_refusal_carries_the_partial_value_and_error(self, monkeypatch):
        """Past the budget the integral stops with the value and error its
        cells hold so far: an error above tolerance that still covers the
        distance to the true value, -pi, after at most the budget's nodes."""
        budget = 10 * 21 ** 2
        monkeypatch.setattr(numeric, "MAX_INTEGRAL_NODES", budget)
        sizes = _record_calls(monkeypatch)
        with pytest.raises(QuadratureError) as exc:
            integrate_density(self.DENSITY, self.V2, 2)
        value, error = exc.value.value, exc.value.error
        assert 0 < sum(sizes) <= budget
        assert error > QUAD_TOL * max(1.0, abs(value))
        assert abs(value + math.pi) <= error


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
    # POWR moved by one along the line: not radial, so its table takes the
    # box, and its integrals over R are POWR's
    SHIFTED = parse_potential("powr(1+(x1-1)^2,-1,6)", 1)
    BOX = 2000.0

    @pytest.fixture(scope="class")
    def whole_line(self):
        """alpha_3 and alpha_4 of POWR and their integrals over R, from
        sympy and mpmath at 30 digits: the slowest term, V^4 in alpha_4,
        decays like |x|^(-4/3), past the reach of 15 digits."""
        mpmath = pytest.importorskip("mpmath")
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x", real=True)
        v = (1 + x ** 2) ** sympy.Rational(-1, 6)
        invariants = [alpha_density(j, 1, self.EPS) for j in (3, 4)]
        wholes = []
        with mpmath.workdps(30):
            for inv in invariants:
                expr = sum(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(sympy.diff(v, x, nu[0]) for nu in mono))
                           for mono, c in inv.density.terms.items())
                f = sympy.lambdify(x, expr, "mpmath")
                ends = [mpmath.mpf(10) ** k for k in range(-1, 31)]
                wholes.append(float(2 * mpmath.quad(f, [0, *ends, mpmath.inf])))
        return invariants, wholes

    def test_tail_term_covers_whole_line_integral(self, whole_line):
        invariants, wholes = whole_line
        table = coefficient_table(invariants, self.SHIFTED, 1,
                                  QuadratureConfig(half_width=self.BOX))
        assert table["domain"] == "box"
        for row, whole in zip(table["rows"], wholes):
            assert abs(row["value"] - whole) <= row["err"]
            # the tail term is what covers the miss, not the quadrature error
            assert row["err"] < 3 * abs(row["value"] - whole) + 1e-6

    def test_radial_rows_are_the_whole_line_integral(self, whole_line):
        """The unshifted potential is radial: its rows integrate over R with
        no tail term, to within an err at the quadrature tolerance."""
        invariants, wholes = whole_line
        table = coefficient_table(invariants, self.POWR, 1,
                                  QuadratureConfig(half_width=self.BOX))
        assert table["domain"] == "R^n"
        for row, whole in zip(table["rows"], wholes):
            assert abs(row["value"] - whole) <= row["err"] <= QUAD_TOL

    def test_zero_density_keeps_zero_error(self):
        table = coefficient_table([alpha_density(1, 1, self.EPS)], self.POWR, 1)
        row = table["rows"][0]
        assert (row["value"], row["err"]) == (0.0, 0.0)

    def test_tail_estimate_scales_with_box(self):
        density = alpha_density(4, 1, self.EPS).density
        near = box_tail_1d(density, self.POWR, self.EPS, 500.0)
        far = box_tail_1d(density, self.POWR, self.EPS, 2000.0)
        # the slowest monomial, V^4, decays like |x|^(-4/3)
        assert far / near == pytest.approx(4.0 ** (-1 / 3), rel=1e-2)


class TestSpectralPrefactor:
    def test_exact_value_odd_dimension(self):
        # n = 1, j = 1: (4 pi)^(-1/2) / Gamma(-1/2) = -1 / (4 pi)
        assert spectral_prefactor(1, 1) == (Fraction(-1, 4), -2)
        assert b_from_a(1.0, 1, 1) == pytest.approx(-1 / (4 * math.pi))

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
        assert spectral_prefactor(1, 1)[0] < 0
        for zero in (0.0, -0.0):
            for convert in (b_from_a, beta_from_alpha):
                assert math.copysign(1.0, convert(zero, 1, 1)) == 1.0

    def test_beta_absent_for_all_even_dims(self):
        for n in (2, 4, 6):
            for j in (1, 2, 3):
                assert beta_from_alpha(1.0, j, n) is None
        assert beta_from_alpha(1.0, 1, 3) is not None

    def test_exact_vs_float_assembly(self):
        # building the exact pair (q, k) then converting once agrees with a
        # direct float computation to near machine precision
        for n in (1, 3, 5):
            for j in (1, 2, 3):
                exact = b_from_a(1.0, j, n)
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
        jsonschema.validate(table, schema)
        # a regularized table: epsilon "1/3", zero-regime rows
        regularized = coefficient_table(
            [alpha_density(j, 1, Fraction(1, 3)) for j in range(1, 5)], GAUSSIAN, 1)
        assert regularized["epsilon"] == "1/3"
        assert regularized["rows"][0]["density"] == "0"
        jsonschema.validate(regularized, schema)

    def test_absent_marker(self):
        invariants = [heat_invariant_binomial(1, 2)]
        v2 = parse_potential("exp(-x1^2 - x2^2)", 2)
        table = coefficient_table(invariants, v2, 2,
                                  config=QuadratureConfig(half_width=6.0))
        assert table["rows"][0]["b_or_beta"] is None
        assert "absent" in table_text(table)
