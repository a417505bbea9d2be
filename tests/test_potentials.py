"""Potential expression language: parsing, differentiation, evaluation."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from heatinv.potentials import (DERIVATIVE_CAP, DerivativeCapError,
                                PotentialEvalError, PotentialSyntaxError,
                                differentiate, evaluate, evaluate_array,
                                parse_potential, taylor_derivatives)


class TestParsing:
    def test_precedence_and_associativity(self):
        e = parse_potential("1 + 2 * x1 ^ 2", 1)
        assert evaluate(e, (3.0,)) == 19.0
        e = parse_potential("2 - 1 - 1", 1)
        assert evaluate(e, (0.0,)) == 0.0
        e = parse_potential("-x1^2", 1)
        assert evaluate(e, (2.0,)) == -4.0

    def test_functions_and_pi(self):
        e = parse_potential("exp(-x1^2) + sin(pi * x2)", 2)
        assert evaluate(e, (0.0, 0.5)) == pytest.approx(2.0)

    def test_powr(self):
        e = parse_potential("powr(1 + x1^2, -1, 6)", 1)
        assert evaluate(e, (1.0,)) == pytest.approx(2.0 ** (-1 / 6))

    def test_round_trip(self):
        src = "powr(1 + x1^2, -1, 6) + (1/3) * tanh(x1) - sqrt(2)"
        e = parse_potential(src, 1)
        again = parse_potential(e.to_text(), 1)
        assert again.to_text() == e.to_text()
        for x in (-1.5, 0.0, 0.7):
            assert evaluate(again, (x,)) == pytest.approx(evaluate(e, (x,)))

    def test_syntax_errors_carry_offset(self):
        with pytest.raises(PotentialSyntaxError) as exc:
            parse_potential("x1 + ", 1)
        assert exc.value.offset == 5
        with pytest.raises(PotentialSyntaxError):
            parse_potential("", 1)
        with pytest.raises(PotentialSyntaxError):
            parse_potential("x1 )", 1)
        with pytest.raises(PotentialSyntaxError):
            parse_potential("foo(x1)", 1)
        # a zero base under a negative exponent, also once the base folds to 0
        for text in ("0^(-1) + x1", "(1-1)^(-2)*x1"):
            with pytest.raises(PotentialSyntaxError) as exc:
                parse_potential(text, 1)
            assert exc.value.offset == 0

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(PotentialSyntaxError) as exc:
            parse_potential("x1 ^ (1/2)", 1)
        assert "powr" in str(exc.value)
        with pytest.raises(PotentialSyntaxError):
            parse_potential("x1 ^ x1", 1)

    def test_variable_range_checked(self):
        with pytest.raises(PotentialSyntaxError):
            parse_potential("x3", 2)
        e = parse_potential("x2", 2)
        assert evaluate(e, (0.0, 5.0)) == 5.0

    def test_powr_denominator_positive(self):
        with pytest.raises(PotentialSyntaxError):
            parse_potential("powr(x1, 1, 0)", 1)
        with pytest.raises(PotentialSyntaxError):
            parse_potential("powr(x1, 1, -2)", 1)


class TestDifferentiation:
    CASES_1D = [
        "exp(-x1^2)",
        "powr(1 + x1^2, -1, 6)",
        "sin(x1) * cos(2*x1)",
        "tanh(x1) / (2 + x1^2)",
        "sqrt(1 + x1^2)",
    ]

    STENCILS = {
        1: {1: 0.5, -1: -0.5},
        2: {1: 1.0, 0: -2.0, -1: 1.0},
        3: {2: 0.5, 1: -1.0, -1: 1.0, -2: -0.5},
        4: {2: 1.0, 1: -4.0, 0: 6.0, -1: -4.0, -2: 1.0},
    }

    # step sizes balance truncation error against roundoff, which is
    # amplified by h^(-order)
    STEPS = {1: 1e-3, 2: 1e-3, 3: 1e-2, 4: 5e-2}

    @classmethod
    def fd(cls, e, x, order, h):
        """Central finite difference with one Richardson step."""

        def stencil(step):
            return sum(c * evaluate(e, (x + k * step,))
                       for k, c in cls.STENCILS[order].items()) / step ** order

        a, b = stencil(h), stencil(h / 2)
        return (2 ** 2 * b - a) / (2 ** 2 - 1)

    @pytest.mark.parametrize("src", CASES_1D)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_finite_differences(self, src, order):
        e = parse_potential(src, 1)
        de = differentiate(e, (order,))
        tol = 1e-6 if order <= 3 else 1e-4
        for x in (-0.8, 0.3, 1.1):
            sym = evaluate(de, (x,))
            num = self.fd(e, x, order, self.STEPS[order])
            assert abs(sym - num) <= tol * (1.0 + abs(sym))

    def test_mixed_partials(self):
        e = parse_potential("exp(-x1^2 - x2^2) * sin(x1 * x2)", 2)
        d12 = differentiate(differentiate(e, (1, 0)), (0, 1))
        d21 = differentiate(differentiate(e, (0, 1)), (1, 0))
        for pt in [(0.3, -0.4), (1.0, 0.5)]:
            assert evaluate(d12, pt) == pytest.approx(evaluate(d21, pt))

    def test_derivative_cap(self):
        e = parse_potential("exp(-x1^2)", 1)
        with pytest.raises(DerivativeCapError):
            differentiate(e, (DERIVATIVE_CAP + 1,))


class TestEvaluation:
    def test_eval_errors(self):
        with pytest.raises(PotentialEvalError):
            evaluate(parse_potential("1 / x1", 1), (0.0,))
        with pytest.raises(PotentialEvalError):
            evaluate(parse_potential("sqrt(x1)", 1), (-1.0,))
        with pytest.raises(PotentialEvalError):
            evaluate(parse_potential("powr(x1, 1, 2)", 1), (-1.0,))
        with pytest.raises(PotentialEvalError):
            evaluate(parse_potential("x1^400", 1), (10.0,))

    def test_powr_base_must_be_positive_everywhere(self):
        # 0^(1/2) is finite, but the powr domain is base > 0 in every evaluator
        e = parse_potential("powr(x1, 1, 2)", 1)
        with pytest.raises(PotentialEvalError):
            evaluate(e, (0.0,))
        with pytest.raises(PotentialEvalError):
            evaluate_array(e, [np.array([1.0, 0.0])])
        with pytest.raises(PotentialEvalError):
            taylor_derivatives(e, [(0,)], [np.array([1.0, 0.0])])
        # sqrt keeps its own domain, which holds 0
        assert evaluate(parse_potential("sqrt(x1)", 1), (0.0,)) == 0.0

    def test_infinite_intermediate_with_finite_value(self):
        e = parse_potential("exp(-1/x1^2)", 1)
        x = np.array([0.0, 0.5])
        want = [0.0, math.exp(-4.0)]
        assert [evaluate(e, (xi,)) for xi in x] == want
        assert evaluate_array(e, [x]).tolist() == want
        assert taylor_derivatives(e, [(0,)], [x])[(0,)].tolist() == want

    def test_array_matches_scalar(self):
        e = parse_potential("exp(-x1^2 - x2^2) + tanh(x1 - x2)", 2)
        xs = np.linspace(-2, 2, 9)
        ys = np.linspace(-1, 1, 9)
        arr = evaluate_array(e, [xs, ys])
        for i in range(9):
            assert arr[i] == pytest.approx(evaluate(e, (xs[i], ys[i])))

    def test_array_nonfinite_raises(self):
        e = parse_potential("1 / x1", 1)
        with pytest.raises(PotentialEvalError):
            evaluate_array(e, [np.array([1.0, 0.0])])

    def test_constant_broadcast(self):
        e = parse_potential("2", 1)
        arr = evaluate_array(e, [np.zeros((3, 4))])
        assert arr.shape == (3, 4)
        assert np.all(arr == 2.0)

    # One case per grammar construct, against numpy written out by hand:
    # a value reference that does not go through Taylor arithmetic.
    @pytest.mark.parametrize("src,numpy_value", [
        ("x1 + x2 - 3", lambda x, y: x + y - 3),
        ("x1 * x2 / (1 + x2^2)", lambda x, y: x * y / (1 + y ** 2)),
        ("-x1", lambda x, y: -x),
        ("x1^(-3) + x2^4", lambda x, y: x ** -3.0 + y ** 4),
        ("pi * x1", lambda x, y: np.pi * x),
        ("exp(-x1^2 - x2^2)", lambda x, y: np.exp(-x ** 2 - y ** 2)),
        ("sin(2*x1) * cos(x2/2)", lambda x, y: np.sin(2 * x) * np.cos(y / 2)),
        ("tanh(x1 - x2)", lambda x, y: np.tanh(x - y)),
        ("sqrt(1 + x1^2)", lambda x, y: np.sqrt(1 + x ** 2)),
        ("powr(1 + x1^2 + x2^2, -1, 6)", lambda x, y: (1 + x ** 2 + y ** 2) ** (-1 / 6)),
    ])
    def test_values_match_numpy(self, src, numpy_value):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.3, 2.0, (3, 4))  # away from the x1^(-3) pole
        y = rng.uniform(-2.0, 2.0, 4)      # broadcast against x
        e = parse_potential(src, 2)
        want = numpy_value(x, y)
        got = evaluate_array(e, [x, y])
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert evaluate(e, (x[0, 0], y[0])) == pytest.approx(want[0, 0], rel=1e-14, abs=0)


def assert_matches_trees(e, nus, coords):
    """Taylor-mode D^nu V against the symbolic derivative trees, relative to
    each derivative's largest magnitude on the sample."""
    got = taylor_derivatives(e, nus, coords)
    assert set(got) == set(nus)
    for nu in nus:
        want = evaluate_array(differentiate(e, nu), coords)
        scale = max(float(np.abs(want).max()), 1e-300)
        assert np.abs(got[nu] - want).max() <= 1e-12 * scale, nu


class TestTaylorMode:
    X = np.linspace(-1.3, 1.1, 7)

    # One case per grammar construct.  The quotient rule squares the
    # denominator of the symbolic tree at every order, so the reference trees
    # of Div and sqrt become too large (and overflow) beyond order 7; their
    # order-10 values are checked against closed forms below.
    CASES_1D = [
        ("3", 10), ("pi * x1", 10), ("x1", 10), ("x1 + x1^2", 10),
        ("x1^3 - 2*x1", 10), ("x1 * exp(x1/2)", 10), ("(1 + x1) / (2 + x1^2)", 7),
        ("-x1^4", 10), ("(1 + x1)^5", 10), ("(2 + x1)^(-3)", 10),
        ("powr(1 + x1^2, -1, 6)", 10), ("exp(-x1^2)", 10), ("sin(2*x1)", 10),
        ("cos(x1/2)", 10), ("tanh(x1)", 10), ("sqrt(2 + x1)", 7),
    ]

    @pytest.mark.parametrize("src,order", CASES_1D)
    def test_one_dimension_matches_trees(self, src, order):
        e = parse_potential(src, 1)
        assert_matches_trees(e, [(k,) for k in range(order + 1)], [self.X])

    def test_order_ten_closed_forms(self):
        x = self.X
        got = taylor_derivatives(parse_potential("1 / (2 + x1)", 1), [(10,)], [x])
        want = math.factorial(10) / (2 + x) ** 11
        assert np.allclose(got[(10,)], want, rtol=1e-12, atol=0)
        got = taylor_derivatives(parse_potential("sqrt(2 + x1)", 1), [(10,)], [x])
        falling = math.prod(0.5 - i for i in range(10))
        assert np.allclose(got[(10,)], falling * (2 + x) ** (0.5 - 10), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("src,n", [
        ("exp(-x1^2 - x2^2) * sin(x1 * x2)", 2),
        ("powr(1 + x1^2 + x2^2, -1, 3) + tanh(x1 - x2) / (3 + x2^2)", 2),
        ("exp(-x1^2 - x2^2 - x3^2) * cos(x1 * x3) + sqrt(2 + x2^2) * x3", 3),
    ])
    def test_mixed_partials_match_trees(self, src, n):
        rng = np.random.default_rng(0)
        coords = [rng.uniform(-1.5, 1.5, 9) for _ in range(n)]
        nus = [nu for nu in itertools.product(range(5), repeat=n) if sum(nu) <= 4]
        assert_matches_trees(parse_potential(src, n), nus, coords)

    def test_exact_at_zero_base(self):
        got = taylor_derivatives(parse_potential("x1^3", 1), [(k,) for k in range(5)],
                                 [np.array([0.0])])
        assert [float(got[(k,)][0]) for k in range(5)] == [0.0, 0.0, 0.0, 6.0, 0.0]

    def test_only_requested_derivatives_and_shape(self):
        e = parse_potential("exp(-x1^2 - x2^2)", 2)
        gx, gy = np.meshgrid(np.linspace(-1, 1, 3), np.linspace(-1, 1, 4))
        got = taylor_derivatives(e, [(2, 0), (0, 0)], [gx, gy])
        assert set(got) == {(2, 0), (0, 0)}
        assert got[(0, 0)].shape == (4, 3)
        assert np.allclose(got[(0, 0)], np.exp(-gx ** 2 - gy ** 2), rtol=1e-15)

    def test_domain_errors_raise(self):
        zero, minus = [np.array([1.0, 0.0])], [np.array([1.0, -1.0])]
        with pytest.raises(PotentialEvalError):
            taylor_derivatives(parse_potential("1 / x1", 1), [(0,)], zero)
        with pytest.raises(PotentialEvalError):
            taylor_derivatives(parse_potential("sqrt(x1)", 1), [(0,)], minus)
        for coords in (zero, minus):
            with pytest.raises(PotentialEvalError):
                taylor_derivatives(parse_potential("powr(x1, 1, 2)", 1), [(0,)], coords)
        with pytest.raises(PotentialEvalError):
            taylor_derivatives(parse_potential("exp(x1^2)", 1), [(0,)], [np.array([40.0])])


class TestTaylorBits:
    """sha256 of every taylor_derivatives array, |nu| <= 4 at n = 2, as the
    Taylor pass computed them before its index tables were merged into one
    row-pair table.  The potential holds every grammar construct, so any
    change to the order of a product or a sum in any operation fails here."""

    SRC = ("(2+x1^2)^(-2)*sqrt(3+cos(x1*x2)) - pi*powr(1+x2^2,-1,3)*tanh(x1)/(2+sin(x2))"
           " + exp(-x1*x2)/3")
    DIGEST = "df62c8fd1879cfda917c7c515ee3189968dd2d556e1f4497e9df42b3a1d3a290"

    def test_bits(self):
        gx, gy = np.meshgrid(np.linspace(-1.3, 1.1, 7), np.linspace(-0.9, 1.4, 5))
        nus = [nu for nu in itertools.product(range(5), repeat=2) if sum(nu) <= 4]
        got = taylor_derivatives(parse_potential(self.SRC, 2), nus, [gx, gy])
        h = hashlib.sha256()
        for nu in sorted(got):
            h.update(np.ascontiguousarray(got[nu]).tobytes())
        assert h.hexdigest() == self.DIGEST
