"""Small expression language for concrete potentials V(x).

Grammar (standard precedence, left-associative binary operators):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" exponent)?          exponent must fold to an integer
    atom    := number | "pi" | variable | call | "(" expr ")"
    call    := name "(" expr ("," expr)* ")"

Variables are x1..xn.  Functions: exp, sin, cos, tanh, sqrt, and
powr(base, p, q) for the rational power base^(p/q) with base > 0 at
evaluation time.  `^` takes integer exponents only; rational powers must go
through powr, which keeps symbolic differentiation total.

ASTs are immutable.  A difference a - b is stored as a + (-b), which IEEE 754
evaluates to the same float.  Every number comes from one walk of the AST on
numpy arrays: a truncated multivariate Taylor pass (`taylor_derivatives`
gives D^nu V); values are its order-0 case (`evaluate_array`, and `evaluate`
on one point).  `differentiate` builds the exact symbolic D^nu V tree, with
light constant folding; it serves as the independent reference for Taylor
mode.
One error rule holds for every evaluation: a non-positive powr base gives NaN,
and a non-finite final value raises PotentialEvalError.  Nothing else raises
it, so a finite value is accepted even where an intermediate one is infinite,
as in exp(-1/x1^2) at x1 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._lazy import np
from .diffpoly import MultiIndex, multi_index_factorial, multi_indices_below

DERIVATIVE_CAP = 12

FUNCTIONS = ("exp", "sin", "cos", "tanh", "sqrt")


class PotentialSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PotentialEvalError(ValueError):
    pass


class DerivativeCapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    index: int  # zero-based axis


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Powr(Expr):
    base: Expr
    num: int
    den: int


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr


@dataclass(frozen=True)
class PotentialExpr:
    """A parsed potential: expression AST plus ambient dimension."""

    root: Expr
    dim: int


# smart constructors with constant folding -----------------------------------

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))

# `^` folds a constant c^k only while |k| times the bit length of c's
# numerator or denominator (a bound on those of c^k) is within this budget
CONST_POWER_BITS = 4096

# the parser nests at most this many levels deep (every "(", function
# argument, unary minus and exponent opens one) and returns trees at most
# this high as written.  A subtraction counts one level, but its
# subtrahend's stored Neg can add one more per subtraction, so a stored tree
# stays below 2 * NESTING_BUDGET levels, far from Python's recursion limit
NESTING_BUDGET = 100


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    return _add(a, _neg(b))


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE:
        return b
    if b == ONE:
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0:
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b == ONE:
            return a
    if a == ZERO and not (isinstance(b, Const) and b.value == 0):
        return ZERO
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(a: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** k)
    return Pow(a, k)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent.  Each rule returns its tree with its height as
    written, one above its highest operand's (leaves are 1); `a - b` counts
    one level, though it is stored as Add(a, Neg(b))."""

    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.pos = 0
        self.depth = 0  # unary() calls in progress: every recursion passes one

    def error(self, message: str):
        raise PotentialSyntaxError(message, self.pos)

    def nested_too_deep(self, at: int):
        raise PotentialSyntaxError(
            f"expression nested past the budget of {NESTING_BUDGET} levels", at)

    def node(self, build, at: int, *parts: tuple[Expr, int]) -> tuple[Expr, int]:
        """build applied to the parts' trees, refused at offset `at` when its
        height would pass the nesting budget."""
        height = 1 + max(h for _, h in parts)
        if height > NESTING_BUDGET:
            self.nested_too_deep(at)
        return build(*(e for e, _ in parts)), height

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> Expr:
        e, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("unexpected trailing input")
        return e

    def expr(self) -> tuple[Expr, int]:
        e = self.term()
        while True:
            if self.accept("+"):
                e = self.node(_add, self.pos - 1, e, self.term())
            elif self.accept("-"):
                e = self.node(_sub, self.pos - 1, e, self.term())
            else:
                return e

    def term(self) -> tuple[Expr, int]:
        e = self.unary()
        while True:
            if self.accept("*"):
                e = self.node(_mul, self.pos - 1, e, self.unary())
            elif self.accept("/"):
                e = self.node(_div, self.pos - 1, e, self.unary())
            else:
                return e

    def unary(self) -> tuple[Expr, int]:
        self.skip_ws()
        self.depth += 1
        if self.depth > NESTING_BUDGET:
            self.nested_too_deep(self.pos)
        e = self.node(_neg, self.pos - 1, self.unary()) if self.accept("-") else self.power()
        self.depth -= 1
        return e

    def power(self) -> tuple[Expr, int]:
        self.skip_ws()
        start = self.pos
        base, height = self.atom()
        if not self.accept("^"):
            return base, height
        at = self.pos
        exponent, _ = self.unary()  # parenthesized or signed exponents allowed
        if not isinstance(exponent, Const) or exponent.value.denominator != 1:
            raise PotentialSyntaxError(
                "exponent of '^' must be an integer; use powr(base, p, q)"
                " for rational powers", at)
        if base == ZERO and exponent.value < 0:  # base as folded: (1-1) is 0
            raise PotentialSyntaxError("zero base under a negative exponent", start)
        k = int(exponent.value)
        c = base.value if isinstance(base, Const) else 0
        if abs(c) not in (0, 1) and abs(k) * max(
                c.numerator.bit_length(), c.denominator.bit_length()) > CONST_POWER_BITS:
            raise PotentialSyntaxError(
                f"constant power past the {CONST_POWER_BITS}-bit folding budget", at - 1)
        return self.node(lambda b: _pow(b, k), at - 1, (base, height))

    def number(self) -> Expr:
        start = self.pos
        while self.pos < len(self.src) and (self.src[self.pos].isdigit()
                                            or self.src[self.pos] == "."):
            self.pos += 1
        text = self.src[start:self.pos]
        try:
            return Const(Fraction(text))
        except (ValueError, ZeroDivisionError):
            self.pos = start
            self.error(f"bad numeric literal {text!r}")

    def identifier(self) -> str:
        start = self.pos
        while self.pos < len(self.src) and (self.src[self.pos].isalnum()
                                            or self.src[self.pos] == "_"):
            self.pos += 1
        return self.src[start:self.pos]

    def atom(self) -> tuple[Expr, int]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch.isdigit() or ch == ".":
            return self.number(), 1
        if ch.isalpha() or ch == "_":
            at = self.pos
            name = self.identifier()
            if name == "pi":
                return Pi(), 1
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:])
                if not 1 <= index <= self.dim:
                    self.pos = at
                    self.error(f"variable {name} out of range for dimension {self.dim}")
                return Var(index - 1), 1
            if name == "powr":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                p = self.int_literal()
                self.expect(",")
                q = self.int_literal()
                self.expect(")")
                if q <= 0:
                    self.pos = at
                    self.error("powr denominator must be a positive integer")
                return self.node(lambda b: Powr(b, p, q), at, base)
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return self.node(lambda a: Call(name, a), at, arg)
            self.pos = at
            self.error(f"unknown identifier {name!r}")
        self.error("expected a number, variable, function, or '('")

    def int_literal(self) -> int:
        at = self.pos
        e, _ = self.expr()
        if not isinstance(e, Const) or e.value.denominator != 1:
            self.pos = at
            self.error("expected an integer literal")
        return int(e.value)


def parse_potential(src: str, n: int) -> PotentialExpr:
    """Parse a potential expression in variables x1..xn."""
    if not src or src.isspace():
        raise PotentialSyntaxError("empty potential expression", 0)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return PotentialExpr(_Parser(src, n).parse(), n)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def _d(e: Expr, axis: int) -> Expr:
    if isinstance(e, (Const, Pi)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == axis else ZERO
    if isinstance(e, Add):
        return _add(_d(e.left, axis), _d(e.right, axis))
    if isinstance(e, Mul):
        return _add(_mul(_d(e.left, axis), e.right), _mul(e.left, _d(e.right, axis)))
    if isinstance(e, Div):
        num = _sub(_mul(_d(e.left, axis), e.right), _mul(e.left, _d(e.right, axis)))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Neg):
        return _neg(_d(e.arg, axis))
    if isinstance(e, Pow):
        inner = _d(e.base, axis)
        return _mul(_mul(Const(Fraction(e.exponent)), _pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Powr):
        inner = _d(e.base, axis)
        factor = _mul(Const(Fraction(e.num, e.den)), Powr(e.base, e.num - e.den, e.den))
        return _mul(factor, inner)
    if isinstance(e, Call):
        inner = _d(e.arg, axis)
        if e.name == "exp":
            outer = Call("exp", e.arg)
        elif e.name == "sin":
            outer = Call("cos", e.arg)
        elif e.name == "cos":
            outer = _neg(Call("sin", e.arg))
        elif e.name == "tanh":
            outer = _sub(ONE, _pow(Call("tanh", e.arg), 2))
        elif e.name == "sqrt":
            return _div(inner, _mul(Const(Fraction(2)), Call("sqrt", e.arg)))
        else:
            raise TypeError(f"unknown function {e.name!r}")
        return _mul(outer, inner)
    raise TypeError(f"unknown node {e!r}")


def differentiate(e: PotentialExpr, nu: MultiIndex) -> PotentialExpr:
    """Exact symbolic derivative D^nu of the potential."""
    if len(nu) != e.dim:
        raise ValueError(f"multi-index {nu} has wrong length for dimension {e.dim}")
    if sum(nu) > DERIVATIVE_CAP:
        raise DerivativeCapError(
            f"derivative order {sum(nu)} exceeds the cap {DERIVATIVE_CAP}")
    root = e.root
    for axis, count in enumerate(nu):
        for _ in range(count):
            root = _d(root, axis)
    return PotentialExpr(root, e.dim)


# ---------------------------------------------------------------------------
# Evaluation: truncated Taylor arithmetic
# ---------------------------------------------------------------------------
#
# Every AST node becomes its truncated Taylor expansion at each point,
# T[k] = D^alpha f / alpha! for the multi-indices alpha of a downward-closed
# set S (Griewank & Walther, Evaluating Derivatives, ch. 13).  Along an axis
# i with alpha_i > 0, the coefficient of x^(alpha - e_i) in an identity
# between first derivatives gives the recurrences used below, e.g. for
# w = exp(u), from d_i w = w d_i u,
#
#     alpha_i w_alpha = sum_(0 < g <= alpha) g_i u_g w_(alpha - g).
#
# Plain values are the case S = {0}: one row, and no recurrence steps.


def _dot(out: np.ndarray, factors) -> np.ndarray:
    """out = the sum of x * y over the (x, y) row pairs of `factors`: the
    first product is written into out and the rest are added in order."""
    factors = iter(factors)
    x, y = next(factors)
    np.multiply(x, y, out=out)
    for x, y in factors:
        out += x * y
    return out


class _TaylorPlan:
    """Truncated Taylor arithmetic on the downward closure S of a set of
    multi-indices, ordered by total order.

    One table drives every operation.  Its row k, for alpha = indices[k],
    holds alpha_i along the first axis i with alpha_i > 0 (0 at alpha = 0)
    and one term (g_i, g, alpha - g) per g <= alpha, as row positions, g = 0
    first.  All of them give the Cauchy product
    (u v)_alpha = sum_(g <= alpha) u_g v_(alpha - g); all but the first give
    the recurrence sums over 0 < g <= alpha above."""

    def __init__(self, nus: tuple[MultiIndex, ...]):
        closure = set()
        for nu in nus:
            closure.update(multi_indices_below(nu))
        self.indices = sorted(closure, key=lambda a: (sum(a), a))
        self.pos = pos = {a: k for k, a in enumerate(self.indices)}
        dim = len(self.indices[0])
        # row of d x_i / d x_i = 1 in the series of x_i, if S holds e_i
        self.unit_rows = [pos.get(tuple(int(i == j) for j in range(dim)))
                          for i in range(dim)]
        self.table: list[tuple[float, list[tuple[float, int, int]]]] = []
        for alpha in self.indices:
            axis = next((i for i, a in enumerate(alpha) if a), 0)
            self.table.append((float(alpha[axis]), [
                (float(g[axis]), pos[g], pos[tuple(a - b for a, b in zip(alpha, g))])
                for g in multi_indices_below(alpha)]))

    def constant(self, value: float, size: int) -> np.ndarray:
        out = np.zeros((len(self.indices), size))
        out[0] = value
        return out

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = np.empty_like(u)
        for k, (_, terms) in enumerate(self.table):
            _dot(w[k], ((u[g], v[c]) for _, g, c in terms))
        return w

    def div(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # v w = u: w_alpha = (u_alpha - sum_(0 < g <= alpha) v_g w_(alpha - g)) / v_0
        w = np.empty_like(u)
        np.divide(u[0], v[0], out=w[0])
        for k, (_, terms) in enumerate(self.table[1:], 1):
            _dot(w[k], ((v[g], w[c]) for _, g, c in terms[1:]))
            np.subtract(u[k], w[k], out=w[k])
            w[k] /= v[0]
        return w

    def power(self, u: np.ndarray, k: int) -> np.ndarray:
        # repeated multiplication, exact at a zero base
        if k < 0:
            return self.div(self.constant(1.0, u.shape[1]), self.power(u, -k))
        out, base = None, u
        while k:
            if k & 1:
                out = base if out is None else self.mul(out, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return self.constant(1.0, u.shape[1]) if out is None else out

    def real_power(self, u: np.ndarray, r: float, w0: np.ndarray) -> np.ndarray:
        # w = u^r from its value w0: u d_i w = r w d_i u
        w = np.empty_like(u)
        w[0] = w0
        for k, (order, terms) in enumerate(self.table[1:], 1):
            _dot(w[k], ((((r + 1.0) * gi - order) * u[g], w[c]) for gi, g, c in terms[1:]))
            w[k] /= order * u[0]
        return w

    def exp(self, u: np.ndarray) -> np.ndarray:
        # d_i w = w d_i u
        w = np.empty_like(u)
        np.exp(u[0], out=w[0])
        for k, (order, terms) in enumerate(self.table[1:], 1):
            _dot(w[k], ((gi / order * u[g], w[c]) for gi, g, c in terms[1:]))
        return w

    def sin_cos(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # d_i sin u = cos u d_i u, d_i cos u = -sin u d_i u
        s, c = np.empty_like(u), np.empty_like(u)
        np.sin(u[0], out=s[0])
        np.cos(u[0], out=c[0])
        for k, (order, terms) in enumerate(self.table[1:], 1):
            du = [(gi / order * u[g], rest) for gi, g, rest in terms[1:]]
            _dot(s[k], ((d, c[rest]) for d, rest in du))
            np.negative(_dot(c[k], ((d, s[rest]) for d, rest in du)), out=c[k])
        return s, c

    def tanh(self, u: np.ndarray) -> np.ndarray:
        # d_i w = (1 - w^2) d_i u, with q = 1 - w^2 built alongside w
        w, q = np.empty_like(u), np.empty_like(u)
        np.tanh(u[0], out=w[0])
        q[0] = 1.0 - w[0] ** 2
        for k, (order, terms) in enumerate(self.table[1:], 1):
            _dot(w[k], ((gi / order * u[g], q[c]) for gi, g, c in terms[1:]))
            np.negative(_dot(q[k], ((w[g], w[c]) for _, g, c in terms)), out=q[k])
        return w


@lru_cache(maxsize=64)
def _taylor_plan(nus: tuple[MultiIndex, ...]) -> _TaylorPlan:
    return _TaylorPlan(nus)


def _taylor(e: Expr, plan: _TaylorPlan, coords: list[np.ndarray]) -> np.ndarray:
    size = coords[0].shape[0]
    if isinstance(e, Const):
        return plan.constant(float(e.value), size)
    if isinstance(e, Pi):
        return plan.constant(math.pi, size)
    if isinstance(e, Var):
        out = plan.constant(0.0, size)
        out[0] = coords[e.index]
        if plan.unit_rows[e.index] is not None:
            out[plan.unit_rows[e.index]] = 1.0
        return out
    if isinstance(e, Add):
        return _taylor(e.left, plan, coords) + _taylor(e.right, plan, coords)
    if isinstance(e, Mul):
        return plan.mul(_taylor(e.left, plan, coords), _taylor(e.right, plan, coords))
    if isinstance(e, Div):
        return plan.div(_taylor(e.left, plan, coords), _taylor(e.right, plan, coords))
    if isinstance(e, Neg):
        # every series _taylor returns is new and held by its caller alone
        u = _taylor(e.arg, plan, coords)
        return np.negative(u, out=u)
    if isinstance(e, Pow):
        return plan.power(_taylor(e.base, plan, coords), e.exponent)
    if isinstance(e, Powr):
        u = _taylor(e.base, plan, coords)
        r = e.num / e.den
        # the powr domain is base > 0: NaN elsewhere, which the caller rejects
        return plan.real_power(u, r, np.where(u[0] > 0.0, u[0] ** r, np.nan))
    if isinstance(e, Call):
        u = _taylor(e.arg, plan, coords)
        if e.name == "exp":
            return plan.exp(u)
        if e.name == "sin":
            return plan.sin_cos(u)[0]
        if e.name == "cos":
            return plan.sin_cos(u)[1]
        if e.name == "tanh":
            return plan.tanh(u)
        if e.name == "sqrt":
            return plan.real_power(u, 0.5, np.sqrt(u[0]))
        raise TypeError(f"unknown function {e.name!r}")
    raise TypeError(f"unknown node {e!r}")


def _derivatives(e: PotentialExpr, nus: tuple[MultiIndex, ...],
                 coords) -> dict[MultiIndex, np.ndarray]:
    """D^nu V for the sorted, distinct `nus` from one Taylor pass; the
    common core of evaluate, evaluate_array and taylor_derivatives."""
    if len(coords) != e.dim:
        raise ValueError(f"{len(coords)} coordinate arrays for dimension {e.dim}")
    if not nus:
        return {}
    plan = _taylor_plan(nus)
    coords = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    flat = [np.broadcast_to(c, shape).ravel() for c in coords]
    with np.errstate(all="ignore"):
        series = _taylor(e.root, plan, flat)
    out = {}
    for nu in nus:
        scale = multi_index_factorial(nu)
        values = series[plan.pos[nu]]
        values = (values if scale == 1 else values * scale).reshape(shape)
        if not np.all(np.isfinite(values)):
            raise PotentialEvalError("non-finite values in evaluation")
        out[nu] = values
    return out


def evaluate(e: PotentialExpr, point) -> float:
    """Value at a point (sequence of dim floats), as evaluate_array gives it
    on one node."""
    if len(point) != e.dim:
        raise ValueError(f"point of length {len(point)} for dimension {e.dim}")
    zero = (0,) * e.dim
    return float(_derivatives(e, (zero,), [float(x) for x in point])[zero])


def evaluate_array(e: PotentialExpr, coords: list[np.ndarray]) -> np.ndarray:
    """Values on numpy coordinate arrays (one per axis, broadcast together):
    the order-0 Taylor pass.  Non-finite entries raise PotentialEvalError, by
    the rule in the module docstring."""
    zero = (0,) * e.dim
    return _derivatives(e, (zero,), coords)[zero]


def taylor_derivatives(e: PotentialExpr, nus,
                       coords: list[np.ndarray]) -> dict[MultiIndex, np.ndarray]:
    """D^nu V for every nu in `nus` at the nodes given by `coords` (one
    array per axis, broadcast together), from one truncated Taylor pass over
    the AST.  No derivative tree is built, so the cost grows with the number of
    Taylor coefficients rather than with the size of D^nu V.  Errors follow
    the rule in the module docstring."""
    nus = tuple(sorted(set(nus)))
    if any(len(nu) != e.dim for nu in nus):
        raise ValueError(f"multi-indices {nus} have wrong length for dimension {e.dim}")
    return _derivatives(e, nus, coords)
