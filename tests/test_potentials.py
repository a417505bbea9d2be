"""Potential expression language: parsing, differentiation, evaluation."""

import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatinv import potentials
from heatinv.potentials import (DERIVATIVE_CAP, NESTING_BUDGET, UNARY, Binary,
                                Const, DerivativeCapError, Pi,
                                PotentialEvalError, PotentialSyntaxError,
                                Unary, Var, _operands, _TaylorPlan,
                                differentiate, evaluate, evaluate_array,
                                is_radial, parse_potential, taylor_derivatives)


def _height(expr) -> int:
    """Stored height of a potential AST (leaves are 1)."""
    return 1 + max((_height(a) for a in _operands(expr)), default=0)


def _nodes(expr):
    """Every node of a potential AST, each shared subtree once per path."""
    todo = [expr]
    while todo:
        node = todo.pop()
        yield node
        todo += _operands(node)


class TestParsing:
    def test_precedence_and_associativity(self):
        e = parse_potential("1 + 2 * x1 ^ 2", 1)
        assert evaluate(e, (3.0,)) == 19.0
        e = parse_potential("2 - 1 - 1", 1)
        assert evaluate(e, (0.0,)) == 0.0
        e = parse_potential("-x1^2", 1)
        assert evaluate(e, (2.0,)) == -4.0
        e = parse_potential("8/4/2", 1)  # (8/4)/2, not 8/(4/2)
        assert evaluate(e, (0.0,)) == 1.0

    def test_functions_and_pi(self):
        e = parse_potential("exp(-x1^2) + sin(pi * x2)", 2)
        assert evaluate(e, (0.0, 0.5)) == pytest.approx(2.0)

    def test_powr(self):
        e = parse_potential("powr(1 + x1^2, -1, 6)", 1)
        assert evaluate(e, (1.0,)) == pytest.approx(2.0 ** (-1 / 6))

    def test_round_trip(self):
        """A fully parenthesized spelling parses to the same tree."""
        e = parse_potential("powr(1 + x1^2, -1, 6) + (1/3) * tanh(x1) - sqrt(2)", 1)
        again = parse_potential(
            "((powr((1 + (x1^2)), (-1), 6) + ((1/3) * tanh(x1))) - sqrt(2))", 1)
        assert again == e
        for x in (-1.5, 0.0, 0.7):
            assert evaluate(again, (x,)) == evaluate(e, (x,))

    def test_difference_is_stored_as_a_sum(self):
        """a - b is Binary("+", a, Unary("-", b)), folded like any sum and
        negation."""
        assert parse_potential("x1 - x2", 2) == parse_potential("x1 + (-x2)", 2)
        assert parse_potential("x1 - -x2", 2) == parse_potential("x1 + x2", 2)
        assert parse_potential("x1 - 0", 1) == parse_potential("x1", 1)
        assert parse_potential("0 - x1", 1) == parse_potential("-x1", 1)
        assert parse_potential("3 - 5/2", 1).root.value == Fraction(1, 2)
        # the same folds in the second level and under '^'
        assert parse_potential("x1/1", 1) == parse_potential("x1", 1)
        assert parse_potential("x1/2/1", 1) == parse_potential("x1/2", 1)
        assert parse_potential("x1^0", 1).root.value == 1

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
        for text, message, offset in (("(x1", "expected ')'", 3),
                                      ("sin(x1", "expected ')'", 6),
                                      ("powr(x1 2, 3)", "expected ','", 8),
                                      ("1.2.3", "bad numeric literal", 0),
                                      ("powr(x1, 1/2, 3)", "expected an integer literal", 8)):
            with pytest.raises(PotentialSyntaxError, match=re.escape(message)) as exc:
                parse_potential(text, 1)
            assert exc.value.offset == offset
        with pytest.raises(ValueError, match="dimension"):
            parse_potential("x1", 0)
        # a zero base under a negative exponent, also once the base folds to 0
        for text in ("0^(-1) + x1", "(1-1)^(-2)*x1"):
            with pytest.raises(PotentialSyntaxError) as exc:
                parse_potential(text, 1)
            assert exc.value.offset == 0

    def test_constant_power_bit_budget(self):
        """c^k folds while |k| times the bit length of c's numerator or
        denominator stays within CONST_POWER_BITS; bases 0, 1 and -1 are
        exempt, whatever k."""
        assert parse_potential("2^2048", 1).root.value == 2 ** 2048
        assert parse_potential("(1/2)^(-2048)", 1).root.value == 2 ** 2048
        for text in ("0^(2^40)", "1^(2^40)", "(-1)^(2^40)", "(-1)^(-(2^40)+1)"):
            value = parse_potential(text, 1).root.value
            assert abs(value) <= 1
        for text, offset in (("2^2049", 1), ("x1 + 2^2^27", 6), ("2^2^40", 1),
                             ("(1/2)^(-2049)", 5), ("1.5 ^ 2049", 4)):
            with pytest.raises(PotentialSyntaxError) as exc:
                parse_potential(text, 1)
            assert exc.value.offset == offset
            assert "bit" in str(exc.value)

    # (text at the nesting budget, text one level past it, offset of the
    # refusal, the slope c of an at-budget text that is c * x1): a left-deep
    # sum and difference as high as the budget, and parentheses, function
    # calls, unary minus signs and right-nested differences as deep as it
    B = NESTING_BUDGET
    NESTED = [
        ("+".join(["x1"] * B), "+".join(["x1"] * (B + 1)), 3 * B - 1, B),
        ("(" * (B - 1) + "x1" + ")" * (B - 1), "(" * B + "x1" + ")" * B, B, 1),
        ("sin(" * (B - 1) + "x1" + ")" * (B - 1), "sin(" * B + "x1" + ")" * B, 4 * B, None),
        ("-" * (B - 1) + "x1", "-" * B + "x1", B, (-1) ** (B - 1)),
        ("-".join(["x1"] * B), "-".join(["x1"] * (B + 1)), 3 * B - 1, 2 - B),
        ("x1-(" * (B - 1) + "x1" + ")" * (B - 1), "x1-(" * B + "x1" + ")" * B, 4 * B, 0),
    ]
    NESTED_IDS = ["sum", "parens", "sin", "minus", "difference", "nested difference"]

    @pytest.mark.parametrize("_,past,offset,__", NESTED, ids=NESTED_IDS)
    def test_nesting_past_the_budget_is_refused(self, _, past, offset, __):
        with pytest.raises(PotentialSyntaxError) as exc:
            parse_potential(past, 1)
        assert exc.value.offset == offset < len(past)
        assert f"budget of {NESTING_BUDGET} levels" in str(exc.value)

    @pytest.mark.parametrize("text,_,__,slope", NESTED, ids=NESTED_IDS)
    def test_nesting_at_the_budget_evaluates_to_order_two(self, text, _, __, slope):
        """Parsing and a Taylor pass to order 2 stay below the recursion
        limit at the budget, where a stored tree, with the negation of
        every subtrahend, is below twice the budget high; the values follow the
        chain rule."""
        x = np.linspace(-1.3, 1.1, 7)
        e = parse_potential(text, 1)
        assert _height(e.root) < 2 * NESTING_BUDGET
        got = taylor_derivatives(e, [(0,), (1,), (2,)], [x])
        if slope is None:  # sin applied B - 1 times
            f, d1, d2 = x, np.ones_like(x), np.zeros_like(x)
            for _ in range(NESTING_BUDGET - 1):
                f, d1, d2 = np.sin(f), np.cos(f) * d1, np.cos(f) * d2 - np.sin(f) * d1 ** 2
        else:
            f, d1, d2 = slope * x, np.full_like(x, slope), np.zeros_like(x)
        for k, want in enumerate((f, d1, d2)):
            np.testing.assert_allclose(got[(k,)], want, rtol=1e-12, atol=1e-12)

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

    @pytest.mark.parametrize("text,message", [
        ("x1\u00b2", "unknown identifier"),       # superscript two
        ("x\u0661", "unknown identifier"),        # Arabic-Indic one
        ("\u0661\u0662*x1", "expected a number"),  # Arabic-Indic twelve
    ], ids=["superscript", "variable index", "literal"])
    def test_only_ascii_digits(self, text, message):
        """Digits are 0-9: str.isdigit takes other scripts' digits, which
        int() read as x1 and 12, and superscripts, which it refused with a
        bare ValueError."""
        with pytest.raises(PotentialSyntaxError, match=message) as exc:
            parse_potential(text, 1)
        assert exc.value.offset == 0

    def test_powr_denominator_positive(self):
        with pytest.raises(PotentialSyntaxError):
            parse_potential("powr(x1, 1, 0)", 1)
        with pytest.raises(PotentialSyntaxError):
            parse_potential("powr(x1, 1, -2)", 1)


class TestStoredTree:
    """Negation, both powers and every function are stored as one node,
    Unary(op, arg, params), and derivative trees are built of the same
    five node kinds as parsed ones."""

    @pytest.mark.parametrize("text,tree", [
        ("-x1", Unary("-", Var(0))),
        ("x1^-2", Unary("^", Var(0), (-2,))),
        ("powr(x1, 1, 3)", Unary("powr", Var(0), (1, 3))),
        *[(f"{f}(x1)", Unary(f, Var(0))) for f in ("sqrt", "exp", "sin", "cos", "tanh")],
        ("x1 - x2", Binary("+", Var(0), Unary("-", Var(1)))),
        ("exp(x1) - x2^3", Binary("+", Unary("exp", Var(0)), Unary("-", Unary("^", Var(1), (3,))))),
    ])
    def test_parsed_tree(self, text, tree):
        assert parse_potential(text, 2).root == tree

    def test_derivative_trees_hold_only_ast_nodes(self):
        e = parse_potential("-x1^-2 + powr(x1, 1, 3) * sqrt(x1) - exp(x1) * sin(x1) / cos(x1)"
                            " + tanh(pi * x1)", 1)
        params = {"^": 1, "powr": 2}
        for k in range(1, 4):
            nodes = list(_nodes(differentiate(e, (k,)).root))
            assert {type(node) for node in nodes} <= {Const, Pi, Var, Binary, Unary}, k
            for node in nodes:
                if isinstance(node, Unary):
                    assert node.op in UNARY and len(node.params) == params.get(node.op, 0)


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


class TestMultiIndices:
    """A multi-index is a tuple of dim non-negative ints, in both entries:
    (-1,) used to give V itself from differentiate and an IndexError from
    taylor_derivatives, and (1.5,) a TypeError."""

    @pytest.mark.parametrize("nu", [(-1,), (1.5,), (1, 0), (), [1], (np.int64(1),)],
                             ids=["negative", "float", "long", "empty", "list", "numpy"])
    def test_both_entries_refuse_it_by_name(self, nu):
        e = parse_potential("exp(-x1^2)", 1)
        message = re.escape(f"multi-index {nu!r} is not a tuple of 1 non-negative ints")
        with pytest.raises(ValueError, match=message):
            differentiate(e, nu)
        with pytest.raises(ValueError, match=message):
            taylor_derivatives(e, [(0,), nu], [np.array([0.5])])


@st.composite
def _plans_and_supports(draw):
    """A plan over a random downward closure and two operand supports of
    it, each holding row 0 as every series does."""
    dim = draw(st.integers(1, 3))
    nus = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), min_size=1, max_size=3))
    plan = _TaylorPlan(tuple(nus))
    support = st.sets(st.sampled_from(range(len(plan.table)))).map(
        lambda rows: tuple(sorted(rows | {0})))
    return plan, draw(support), draw(support)


class TestTaylorSupports:
    """Each plan operation returns the support its rule sets, worked out
    here on the multi-indices themselves: a recurrence reaches exactly the
    sums in S of its argument's rows, a set closed under the Cauchy square,
    so tanh's q = 1 - w^2 has w's rows."""

    @given(_plans_and_supports())
    @settings(max_examples=150, deadline=None)
    def test_each_operation_returns_its_rule(self, case):
        plan, su, sv = case
        index = {k: alpha for alpha, k in plan.pos.items()}

        def sums(left, right):
            return {plan.pos[alpha] for g in left for c in right
                    if (alpha := tuple(a + b for a, b in zip(index[g], index[c]))) in plan.pos}

        def reached(seed, steps):
            rows = set(seed) | {0}
            while more := sums(rows, set(steps) - {0}) - rows:
                rows |= more
            return tuple(sorted(rows))

        assert plan.add(su, sv)[0] == tuple(sorted(set(su) | set(sv)))
        assert plan.mul(su, sv)[0] == tuple(sorted(sums(su, sv)))
        assert plan.power(su, 3)[0] == tuple(sorted(sums(sums(su, su), su)))
        for op, *args in [("chain_rule", "exp"), ("chain_rule", "sin"),
                          ("chain_rule", "cos"), ("chain_rule", "tanh"),
                          ("real_power", 0.5, True), ("real_power", -1 / 6, False)]:
            assert getattr(plan, op)(su, *args)[0] == reached((0,), su), op
        assert plan.div(su, sv)[0] == reached(su, sv)
        sw = plan.chain_rule(su, "tanh")[0]
        assert plan.mul(sw, sw)[0] == sw


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


class TestUnaryOps:
    """One potential per key of UNARY, whose Taylor derivatives to
    |nu| <= 4 match differentiate's trees: an op without a plan operation
    or a derivative rule fails here."""

    CASES = {"-": "-x1*x2 + x2", "^": "(1 + x1*x2)^-3", "powr": "powr(2 + x1 - x2, -1, 3)",
             "sqrt": "sqrt(2 + x1*x2)", "exp": "exp(x1 - x2^2)", "sin": "sin(x1*x2 + x2)",
             "cos": "cos(2*x1 - x2)", "tanh": "tanh(x1*x2 - x1)"}

    @staticmethod
    def ops(e):
        return {node.op for node in _nodes(e.root) if isinstance(node, Unary)}

    def test_the_cases_cover_every_op(self):
        covered = set().union(*(self.ops(parse_potential(src, 2)) for src in self.CASES.values()))
        assert covered == set(self.CASES) == set(UNARY)

    @pytest.mark.parametrize("op", sorted(CASES))
    def test_matches_trees(self, op):
        e = parse_potential(self.CASES[op], 2)
        assert op in self.ops(e)
        rng = np.random.default_rng(2)
        coords = [rng.uniform(-0.6, 0.6, 9) for _ in range(2)]
        nus = [nu for nu in itertools.product(range(5), repeat=2) if sum(nu) <= 4]
        assert_matches_trees(e, nus, coords)


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


class TestTaylorZeros:
    """A row that no product can reach is never formed.  These cases pin
    what skipping it must keep: a structurally zero derivative reads +0.0,
    and a product with an infinite factor still fails by the error rule of
    the module docstring."""

    def test_structurally_zero_rows_read_positive_zero(self):
        # no term of x1^3*x2 - x2^2*sin(x1) has a third x2 derivative
        x1, x2 = np.array([0.7, -0.3, 0.0]), np.array([0.2, -1.1, -0.0])
        got = taylor_derivatives(parse_potential("x1^3*x2 - x2^2*sin(x1)", 2),
                                 [(0, 3), (1, 3)], [x1, x2])
        for nu in ((0, 3), (1, 3)):
            assert np.all(got[nu] == 0.0) and not np.any(np.signbit(got[nu])), nu

    def test_finite_value_over_an_infinite_intermediate(self):
        e = parse_potential("exp(-1/x1^2)", 1)
        at_zero = [np.array([0.0])]
        assert taylor_derivatives(e, [(0,)], at_zero)[(0,)][0] == 0.0
        with pytest.raises(PotentialEvalError):
            taylor_derivatives(e, [(1,)], at_zero)

    @pytest.mark.parametrize("nu", [(0,), (1,), (3,)])
    def test_zero_times_infinity_raises(self, nu):
        # x1^2 has no row 3, and exp(1/x1) is infinite in every row at 0
        with pytest.raises(PotentialEvalError):
            taylor_derivatives(parse_potential("x1^2*exp(1/x1)", 1), [nu], [np.array([0.0])])


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

    def test_bits_with_coordinates_handed_over(self):
        """Handing the coordinate arrays over lets the pass compute in them;
        every array keeps the digest above."""
        gx, gy = np.meshgrid(np.linspace(-1.3, 1.1, 7), np.linspace(-0.9, 1.4, 5))
        nus = [nu for nu in itertools.product(range(5), repeat=2) if sum(nu) <= 4]
        got = taylor_derivatives(parse_potential(self.SRC, 2), nus, [gx, gy],
                                 overwrite_coords=True)
        h = hashlib.sha256()
        for nu in sorted(got):
            h.update(np.ascontiguousarray(got[nu]).tobytes())
        assert h.hexdigest() == self.DIGEST


class TestTaylorBitsDeeper:
    """sha256 of every taylor_derivatives array, as TestTaylorBits, past its
    reach: |nu| <= 10 at n = 1 and |nu| <= 3 at n = 3, on potentials that
    run the chain rule of exp, sin, cos and tanh on rows of every order.
    The digests were recorded before those four functions shared one plan
    operation."""

    CASES = {
        "n1": ("sin(x1)*cos(2*x1) + tanh(x1/2) - exp(-x1^2)", 1, 10,
               "d524b62f6ba3b691da31c6504d7b0a61b6aaec0674c972147f3b2fd230ae7084"),
        "n3": ("cos(x1*x2)*tanh(x3) + sin(x1+x2+x3)*exp(-x2^2)", 3, 3,
               "0f4783daaf7e48e90c5f5702d31a717b670ad6f003bdbf3ae89c73bf47bd6df0"),
    }

    @staticmethod
    def coords(n):
        if n == 1:
            return [np.linspace(-1.3, 1.1, 11)]
        return list(np.meshgrid(np.linspace(-1.3, 1.1, 5), np.linspace(-0.9, 1.4, 4),
                                np.linspace(-0.7, 0.8, 3)))

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits(self, case, overwrite):
        src, n, order, digest = self.CASES[case]
        nus = [nu for nu in itertools.product(range(order + 1), repeat=n)
               if sum(nu) <= order]
        got = taylor_derivatives(parse_potential(src, n), nus, self.coords(n),
                                 overwrite_coords=overwrite)
        h = hashlib.sha256()
        for nu in sorted(got):
            h.update(np.ascontiguousarray(got[nu]).tobytes())
        assert h.hexdigest() == digest


class TestChainRuleRows:
    """The chain rule forms its series q = f'(u) only on the rows that a
    step of w reads, which are all of lower order than the top: the
    products `_dot` forms in one pass at n = 2, |nu| <= 4.  Building q on
    every row of w took 99 for tanh(x1*x2), 40 for sin(x1+x2) and 56 for
    cos(x1*x2); exp's q is w itself, so its count does not move."""

    @pytest.mark.parametrize("src,products", [
        ("tanh(x1*x2)", 64), ("sin(x1+x2)", 32), ("cos(x1*x2)", 45),
        ("exp(-x1^2-x2^2)", 40)])
    def test_products_formed(self, src, products, monkeypatch):
        dot, count = potentials._dot, [0]

        def counting(factors, *rest):
            def each():
                for pair in factors:
                    count[0] += 1
                    yield pair
            return dot(each(), *rest)

        monkeypatch.setattr(potentials, "_dot", counting)
        rng = np.random.default_rng(0)
        nus = [nu for nu in itertools.product(range(5), repeat=2) if sum(nu) <= 4]
        taylor_derivatives(parse_potential(src, 2), nus, [rng.uniform(-1, 1, 8) for _ in range(2)])
        assert count[0] == products


class TestHandedOverCoordinates:
    """overwrite_coords=True lets the Taylor pass compute in the caller's
    coordinate arrays.  Each case reaches kernels that write into their
    operands: exp, tanh, sin, cos, a quotient, powers of one row and of
    several, sqrt and products; several repeat a variable, whose last
    occurrence alone may take the caller's array."""

    CASES = ["exp(-x1^2-x2^2)", "x1*exp(-x1^2)", "exp(-x1^2)*cos(x1)",
             "2*sin(x1)*exp(-x2^2)", "tanh(x1)/(2+sin(x2))", "cos(x1*x2)^3",
             "x1^-2 + sqrt(1+x2^2)", "(x1 + x2)^5 - x2^4 * x1", "1/(1+x1^2)",
             "powr(1+x2^2,-1,3)*x1*x2"]
    ORDERS = [[(0, 0)], [(0, 0), (1, 0), (0, 2), (2, 1)]]

    @staticmethod
    def coords():
        gx, gy = np.meshgrid(np.linspace(-1.3, 1.1, 9), np.linspace(0.4, 1.4, 6))
        return [gx, gy]

    @pytest.mark.parametrize("nus", ORDERS)
    @pytest.mark.parametrize("src", CASES)
    def test_arrays_not_handed_over_are_unchanged(self, src, nus):
        e, coords = parse_potential(src, 2), self.coords()
        kept = [c.copy() for c in coords]
        taylor_derivatives(e, nus, coords)
        evaluate_array(e, coords)
        for c, k in zip(coords, kept):
            assert c.tobytes() == k.tobytes()

    @pytest.mark.parametrize("nus", ORDERS)
    @pytest.mark.parametrize("src", CASES)
    def test_values_are_bitwise_those_of_the_copies(self, src, nus):
        e = parse_potential(src, 2)
        want = taylor_derivatives(e, nus, self.coords())
        got = taylor_derivatives(e, nus, self.coords(), overwrite_coords=True)
        assert sorted(got) == sorted(want)
        for nu in want:
            assert got[nu].tobytes() == want[nu].tobytes(), nu
        values = evaluate_array(e, self.coords(), overwrite_coords=True)
        assert values.tobytes() == want[(0, 0)].tobytes()

    def test_the_last_occurrence_computes_in_the_caller_array(self):
        """In x1*exp(-x1^2) the first x1 is a copy and the second the
        caller's array, which ends up holding exp(-x1^2); in exp(-x1^2) at
        order 0 the value itself is the caller's array."""
        x = np.linspace(-1.0, 1.0, 5)
        e = parse_potential("x1*exp(-x1^2)", 1)
        got = evaluate_array(e, [x.copy()])
        handed = x.copy()
        assert evaluate_array(e, [handed], overwrite_coords=True).tobytes() == got.tobytes()
        assert handed.tobytes() == np.exp(-x ** 2).tobytes()
        handed = x.copy()
        values = evaluate_array(parse_potential("exp(-x1^2)", 1), [handed],
                                overwrite_coords=True)
        assert np.shares_memory(values, handed)


@st.composite
def _potential_texts(draw, radial_only: bool):
    """(n, text) of a random potential in n = 1..3.  Its leaves are blocks
    c (x_1^2 + ... + x_n^2) + k, written in several ways, and, unless
    radial_only, pieces that reach the coordinates otherwise; above them,
    random functions, powers, sums, products and quotients."""
    n = draw(st.integers(1, 3))

    def block():
        squares = [f"x{i}^2" for i in draw(st.permutations(range(1, n + 1)))]
        c = draw(st.sampled_from(["2", "1/2", "3/4"]))
        body = draw(st.sampled_from([
            f"{c}*({'+'.join(squares)})", "+".join(f"{c}*{q}" for q in squares),
            "-" + "-".join(squares), f"-({'+'.join(squares)})/{c}"]))
        return f"({body}{draw(st.sampled_from(['', '+1', '-2', '+pi']))})"

    def other():
        pieces = ["x1", "sin(x1)", "(x1-1)^2", "x1^4"]
        if n > 1:
            pieces += ["x1^2", f"x{n}", "x1*x2", "x1^2+2*x2^2", "(x1^2+x2^2)"]
        return f"({draw(st.sampled_from(pieces))})"

    def expr(depth):
        kind = draw(st.integers(0, 13 if depth else 1))
        if kind <= 1:
            return block() if kind == 0 or radial_only else other()
        a = expr(depth - 1)
        if kind <= 9:
            return ["exp(-{}^2)", "sin({})", "cos({})", "tanh({})", "sqrt(1+{}^2)",
                    "powr(2+{}^2,-1,3)", "(-{})", "({}^3)"][kind - 2].format(a)
        b = expr(depth - 1)
        return ["({}+{})", "({}-{})", "({}*{})", "({}/(2+{}^2))"][kind - 10].format(a, b)

    return n, expr(3)


class TestRadialStructure:
    """is_radial reads the AST and never samples V; these tests sample."""

    # (3/5, -4/5; 4/5, 3/5) on the first two axes, after each permutation
    ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])

    @pytest.mark.parametrize("n,text,radial", [
        (2, "exp(-x1^2-x2^2)", True), (2, "exp(-(x1^2+x2^2))", True),
        (2, "powr(1+x1^2+x2^2,-3,2)", True), (3, "2*(x3^2+x1^2+x2^2)/3 + sin(pi)", True),
        (1, "powr(1+x1^2,-1,6)", True), (1, "1/(1+x1^2)", True), (1, "cos(x1^2)*7", True),
        (2, "exp(-x1^2)*exp(-x2^2)", False), (2, "exp(-x1^2-2*x2^2)", False),
        (2, "exp(-x1^2)", False), (1, "x1*exp(-x1^2)", False),
        (1, "-2*(1-tanh(x1)^2)", False), (1, "exp(-x1^4)", False),
        (5, "exp(-x1^2-x2^2-x3^2-x4^2-2*x5^2)", False),
    ])
    def test_examples(self, n, text, radial):
        assert is_radial(parse_potential(text, n)) is radial

    def assert_invariant(self, n, text):
        e = parse_potential(text, n)
        x = np.random.default_rng(0).uniform(-1.2, 1.2, (n, 25))
        value = evaluate_array(e, list(x))
        for perm in itertools.permutations(range(n)):
            moved = x[list(perm)]
            if n > 1:
                moved[:2] = self.ROTATION @ moved[:2]
            assert np.allclose(evaluate_array(e, list(moved)), value, rtol=1e-9,
                               atol=1e-9 * (1 + np.max(np.abs(value)))), perm

    @given(_potential_texts(radial_only=True))
    @settings(max_examples=80, deadline=None)
    def test_functions_of_radial_blocks_are_seen(self, case):
        n, text = case
        assert is_radial(parse_potential(text, n)), text
        self.assert_invariant(n, text)

    @given(_potential_texts(radial_only=False))
    @settings(max_examples=150, deadline=None)
    def test_a_potential_seen_radial_is_rotation_invariant(self, case):
        n, text = case
        if is_radial(parse_potential(text, n)):
            self.assert_invariant(n, text)
