"""Small expression language for concrete potentials V(x).

Grammar (standard precedence, left-associative binary operators):

    expr     := term (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" unary)?          the exponent must fold to an integer
    atom     := number | "pi" | variable | call | "(" expr ")"
    call     := function "(" expr ")" | "powr" "(" expr "," expr "," expr ")"
    number   := digits ("." digits?)? | "." digits
    variable := "x" digits                 x1..xn

Digits are the ASCII digits 0-9.  Functions: exp, sin, cos, tanh, sqrt,
and powr(base, p, q) for the rational power base^(p/q) with base > 0 at
evaluation time, whose p and q must fold to integers with q > 0.  `^` takes
integer exponents only, such as x1^-2 or x1^(1+1); rational powers must go
through powr, which keeps symbolic differentiation total.

ASTs are immutable.  A sum, product or quotient is one node,
Binary(op, left, right), whose op is the parser's symbol "+", "*" or "/";
a difference a - b is stored as a + (-b), which IEEE 754 evaluates to the
same float.  Every node of one operand is Unary(op, arg, params): negation
"-", an integer power "^" with params (k,), powr with params (p, q), or the
function whose name is its op, with no params.  Every number comes from one
walk of the AST on numpy arrays: a truncated multivariate Taylor pass in
which each node stores and multiplies only the coefficients that can be
nonzero.  Its one entry is `taylor_derivatives`, which gives D^nu V;
`evaluate_array`, and `evaluate` on one point, are views of its order-0
case.  `differentiate` builds the exact symbolic D^nu V tree, with light
constant folding; it serves as the independent reference for Taylor mode.
One error rule holds for every evaluation: a non-positive powr base gives NaN,
and a non-finite final value raises PotentialEvalError.  Nothing else raises
it, so a finite value is accepted even where an intermediate one is infinite,
as in exp(-1/x1^2) at x1 = 0.  A derivative that no term of the expression
reaches, such as D^(0,3) of x1^3*x2, is never computed: it is +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._lazy import np
from .diffpoly import MultiIndex, multi_index_factorial, multi_indices_below

DERIVATIVE_CAP = 12


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
class Binary(Expr):
    op: str  # a key of BINARY: "+", "*" or "/"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # a key of UNARY: "-", "^", "powr" or a function name
    arg: Expr
    params: tuple[int, ...] = ()  # (k,) for "^", (p, q) for "powr"


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
# subtrahend's negation can add one more per subtraction, so a stored tree
# stays below 2 * NESTING_BUDGET levels, far from Python's recursion limit
NESTING_BUDGET = 100


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    return Binary("+", a, b)


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
    return Binary("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0:
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b == ONE:
            return a
    if a == ZERO and not (isinstance(b, Const) and b.value == 0):
        return ZERO
    return Binary("/", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "-":
        return a.arg
    return Unary("-", a)


def _pow(a: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** k)
    return Unary("^", a, (k,))


# The binary operators, by the symbol the parser reads, one precedence level
# per line, loosest first: the level, the smart constructor the parser builds
# with, and the _TaylorPlan operation that _taylor applies to a Binary node of
# that op.  "-" builds "+" over a negation, so it has no operation of its own
BINARY = {"+": (0, _add, "add"), "-": (0, _sub, None),
          "*": (1, _mul, "mul"), "/": (1, _div, "div")}

# The ops of a Unary node: from its params, the _TaylorPlan operation that
# gives its series from its argument's support, and that operation's further
# arguments.  exp, sin, cos and tanh share chain_rule, which builds f'(u)
# alongside the result on the rows the result reads.  Every key but "-" and
# "^" is a name the parser reads before "("
UNARY = {"-": lambda: ("neg",), "^": lambda k: ("power", k),
         "powr": lambda p, q: ("real_power", p / q, False),
         "sqrt": lambda: ("real_power", 0.5, True),
         **{f: lambda f=f: ("chain_rule", f) for f in ("exp", "sin", "cos", "tanh")}}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _digits(text: str) -> bool:
    """Whether text is one or more of 0-9: str.isdigit alone also takes
    other scripts' digits, which int() reads, and superscripts."""
    return text.isascii() and text.isdigit()


class _Parser:
    """Recursive descent.  Each rule returns its tree with its height as
    written, one above its highest operand's (leaves are 1); `a - b` counts
    one level, though it is stored as Binary("+", a, Unary("-", b))."""

    LEVELS = 1 + max(level for level, _, _ in BINARY.values())

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

    def expr(self, level: int = 0) -> tuple[Expr, int]:
        """A left-associative chain of the BINARY operators of precedence
        `level` over the next level's chains; below the last level, over
        unary()."""
        if level == self.LEVELS:
            return self.unary()
        e = self.expr(level + 1)
        while (op := self.peek()) in BINARY and BINARY[op][0] == level:
            self.pos += 1
            e = self.node(BINARY[op][1], self.pos - 1, e, self.expr(level + 1))
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
        while self.pos < len(self.src) and (_digits(self.src[self.pos])
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
        if _digits(ch) or ch == ".":
            return self.number(), 1
        if ch.isalpha() or ch == "_":
            at = self.pos
            name = self.identifier()
            if name == "pi":
                return Pi(), 1
            if name.startswith("x") and _digits(name[1:]):
                index = int(name[1:])
                if not 1 <= index <= self.dim:
                    self.pos = at
                    self.error(f"variable {name} out of range for dimension {self.dim}")
                return Var(index - 1), 1
            if name in UNARY:  # powr or a function
                self.expect("(")
                arg, params = self.expr(), ()
                if name == "powr":
                    self.expect(",")
                    p = self.int_literal()
                    self.expect(",")
                    params = (p, self.int_literal())
                self.expect(")")
                if params and params[1] <= 0:
                    self.pos = at
                    self.error("powr denominator must be a positive integer")
                return self.node(lambda a: Unary(name, a, params), at, arg)
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
    if isinstance(e, Binary):
        a, b = e.left, e.right
        if e.op == "+":
            return _add(_d(a, axis), _d(b, axis))
        if e.op == "*":
            return _add(_mul(_d(a, axis), b), _mul(a, _d(b, axis)))
        num = _sub(_mul(_d(a, axis), b), _mul(a, _d(b, axis)))
        return _div(num, _pow(b, 2))
    if isinstance(e, Unary):
        # the rules by op, kept apart from UNARY as an independent reference
        u, inner = e.arg, _d(e.arg, axis)
        if e.op == "-":
            return _neg(inner)
        if e.op == "sqrt":
            return _div(inner, _mul(Const(Fraction(2)), e))
        if e.op == "^":
            k, = e.params
            outer = _mul(Const(Fraction(k)), _pow(u, k - 1))
        elif e.op == "powr":
            p, q = e.params
            outer = _mul(Const(Fraction(p, q)), Unary("powr", u, (p - q, q)))
        elif e.op == "exp":
            outer = e
        elif e.op == "sin":
            outer = Unary("cos", u)
        elif e.op == "cos":
            outer = _neg(Unary("sin", u))
        elif e.op == "tanh":
            outer = _sub(ONE, _pow(e, 2))
        else:
            raise TypeError(f"unknown op {e.op!r}")
        return _mul(outer, inner)
    raise TypeError(f"unknown node {e!r}")


def _multi_index(nu, dim: int) -> MultiIndex:
    """nu, if it is a multi-index in dimension dim: a tuple of dim
    non-negative ints; ValueError otherwise."""
    if not (isinstance(nu, tuple) and len(nu) == dim
            and all(type(a) is int and a >= 0 for a in nu)):
        raise ValueError(f"multi-index {nu!r} is not a tuple of {dim} non-negative ints")
    return nu


def differentiate(e: PotentialExpr, nu: MultiIndex) -> PotentialExpr:
    """Exact symbolic derivative D^nu of the potential."""
    _multi_index(nu, e.dim)
    if sum(nu) > DERIVATIVE_CAP:
        raise DerivativeCapError(
            f"derivative order {sum(nu)} exceeds the cap {DERIVATIVE_CAP}")
    root = e.root
    for axis, count in enumerate(nu):
        for _ in range(count):
            root = _d(root, axis)
    return PotentialExpr(root, e.dim)


# ---------------------------------------------------------------------------
# Evaluation: truncated Taylor arithmetic on each node's support
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
# exp, sin, cos and tanh are one chain-rule operation: d_i w = q d_i u with
# q = f'(u), a series built alongside w (exp's q is w itself).  Row alpha of
# w reads q only at the rows alpha - g of lower order, so q is formed on the
# rows some step reads, and not on the rest.
#
# A node's series is a dict from the rows of S that can be nonzero at some
# point, in ascending order, to one 1-D array each; its keys are its
# support.  Row 0 is always stored; x_i adds e_i; a sum holds the union of
# its operands' rows, a product the sums of their rows that lie in S, and a
# recurrence the sums in S of its argument's rows.  An operation's support
# and row pairs are worked out once per S and operand supports, and it forms
# only the products whose factors are both stored, in table order.  Each
# term it leaves out is an exact zero times a finite number, unless that
# number is infinite or NaN, where the product would have been NaN; so a
# stored row is the float of the full sum up to the sign of an exact zero,
# and a requested row outside the support reads +0.0.  Plain values are the
# case S = {0}: one row, and no recurrence steps.


def _dot(factors, negate: bool = False) -> np.ndarray:
    """The sum of x * y over the (x, y) row pairs of `factors`, as a new
    row: the first product, then the rest added to it in order, and the
    whole negated in place if `negate`."""
    factors = iter(factors)
    x, y = next(factors)
    out = x * y
    for x, y in factors:
        out += x * y
    return np.negative(out, out=out) if negate else out


def _shared(op):
    """Work a plan operation out once per plan and arguments: every node
    with operands of the same supports, the tuples of their series' rows,
    shares its support and kernel."""
    def shared(plan, *args):
        key = (op.__name__, *args)
        found = plan.kernels.get(key)
        if found is None:
            found = plan.kernels[key] = op(plan, *args)
        return found
    return shared


class _TaylorPlan:
    """Truncated Taylor arithmetic on the downward closure S of a set of
    multi-indices, ordered by total order.

    One table drives every operation.  Its row k, for alpha = the k-th index
    of S, holds alpha_i along the first axis i with alpha_i > 0 (0 at
    alpha = 0) and one term (g_i, g, alpha - g) per g <= alpha, as rows,
    g = 0 first.  All of them give the Cauchy product
    (u v)_alpha = sum_(g <= alpha) u_g v_(alpha - g); all but the first give
    the recurrence sums over 0 < g <= alpha above.

    A node's series is a dict {row: 1-D array} over the rows that can be
    nonzero, in ascending order.  Each operation takes its operands'
    supports, the tuples of those rows, and returns the support of its
    result with a kernel: a function from the operands' dicts to the
    result's, which reads only the terms whose factors are both stored, in
    table order.  A kernel owns its operands' arrays (see _taylor) and
    computes in one wherever no later step reads it: a sum in its first
    operand's rows, a negation in its operand's, the chain rule (exp, sin,
    cos and tanh) and a quotient in row 0 of their argument or numerator,
    and, on one row, a product in its first factor and a power or sqrt in
    its base."""

    def __init__(self, nus: tuple[MultiIndex, ...]):
        closure = set()
        for nu in nus:
            closure.update(multi_indices_below(nu))
        indices = sorted(closure, key=lambda a: (sum(a), a))
        self.pos = pos = {a: k for k, a in enumerate(indices)}
        dim = len(indices[0])
        # row of d x_i / d x_i = 1 in the series of x_i, if S holds e_i
        self.unit_rows = [pos.get(tuple(int(i == j) for j in range(dim)))
                          for i in range(dim)]
        self.table: list[tuple[float, list[tuple[float, int, int]]]] = []
        for alpha in indices:
            axis = next((i for i, a in enumerate(alpha) if a), 0)
            self.table.append((float(alpha[axis]), [
                (float(g[axis]), pos[g], pos[tuple(a - b for a, b in zip(alpha, g))])
                for g in multi_indices_below(alpha)]))
        self.kernels = {}

    def _pairs(self, k: int, left, right, first: int = 0):
        """The terms (g_i, g, alpha - g) of row k, from its first-th on,
        whose row g is in `left` and row alpha - g in `right`."""
        return [(gi, g, c) for gi, g, c in self.table[k][1][first:]
                if g in left and c in right]

    @_shared
    def neg(self, su: tuple):
        return su, lambda u: {k: np.negative(x, out=x) for k, x in u.items()}

    @_shared
    def add(self, su: tuple, sv: tuple):
        sw = tuple(sorted(set(su) | set(sv)))

        def kernel(u, v):
            return {k: v[k] if k not in u else u[k] if k not in v
                    else np.add(u[k], v[k], out=u[k]) for k in sw}
        return sw, kernel

    @_shared
    def mul(self, su: tuple, sv: tuple):
        if su == sv == (0,):  # one row: the product takes u's array
            return (0,), lambda u, v: {0: np.multiply(u[0], v[0], out=u[0])}
        su, sv = set(su), set(sv)
        steps = [(k, pairs) for k in range(len(self.table))
                 if (pairs := self._pairs(k, su, sv))]

        def kernel(u, v):
            return {k: _dot((u[g], v[c]) for _, g, c in pairs) for k, pairs in steps}
        return tuple(k for k, _ in steps), kernel

    def _recurrence(self, su: tuple, scale, seed: tuple = ()):
        """Support of w and its steps for a recurrence
        alpha_i w_alpha = sum_(0 < g <= alpha) (...) u_g w_(alpha - g), with
        the rows of `seed` stored too: per row k after row 0, k, alpha_i and
        the triples (scale(g_i, alpha_i), g, alpha - g) whose u_g and
        w_(alpha - g) are both stored.  By induction on the order, w's rows
        are the sums in S of row 0 or a row of seed and rows of u."""
        su, sw, steps = set(su), {0: None}, []
        for k, (order, _) in enumerate(self.table[1:], 1):
            pairs = self._pairs(k, su, sw, 1)
            if pairs or k in seed:
                sw[k] = None
                steps.append((k, order, [(scale(gi, order), g, c) for gi, g, c in pairs]))
        return tuple(sw), steps

    @_shared
    def div(self, su: tuple, sv: tuple):
        # v w = u: w_alpha = (u_alpha - sum_(0 < g <= alpha) v_g w_(alpha - g)) / v_0,
        # whose sums are unscaled
        sw, steps = self._recurrence(sv, lambda gi, order: None, su)

        def kernel(u, v):
            w = {0: np.divide(u[0], v[0], out=u[0])}  # no later row reads u_0
            for k, _, pairs in steps:
                if not pairs:
                    row = u[k] / v[0]
                else:
                    row = _dot(((v[g], w[c]) for _, g, c in pairs), k not in u)
                    if k in u:
                        np.subtract(u[k], row, out=row)
                    row /= v[0]
                w[k] = row
            return w
        return sw, kernel

    @_shared
    def power(self, su: tuple, k: int):
        # square-and-multiply, exact at a zero base; k is never 0 or 1,
        # which _pow folds
        if k < 0:
            sp, positive = self.power(su, -k)
            sw, divide = self.div((0,), sp)
            return sw, lambda u: divide({0: np.ones(len(u[0]))}, positive(u))
        # the steps: (True, mul) sets out = out * base, (True, None)
        # out = base, and (False, mul) base = base * base
        steps, sw, sbase = [], None, su
        while k:
            if k & 1:
                if sw is None:
                    sw = sbase
                    steps.append((True, None))
                else:
                    sw, mul = self.mul(sw, sbase)
                    steps.append((True, mul))
            k >>= 1
            if k:
                sbase, mul = self.mul(sbase, sbase)
                steps.append((False, mul))

        def kernel(u):
            # a product may compute in its first factor (one row does), so a
            # base that the result still holds is squared as a copy
            out, base = None, u
            for to_out, mul in steps:
                if not to_out:
                    base = mul({k: b.copy() for k, b in base.items()}
                               if base is out else base, base)
                else:
                    out = base if mul is None else mul(out, base)
            return out
        return sw, kernel

    @_shared
    def real_power(self, su: tuple, r: float, sqrt: bool):
        # w = u^r: u d_i w = r w d_i u, from w_0 = sqrt(u_0), or for powr,
        # whose domain is base > 0, u_0^r there and NaN elsewhere, which the
        # caller rejects
        sw, steps = self._recurrence(su, lambda gi, order: (r + 1.0) * gi - order)

        def kernel(u):
            # every later row reads u_0; with none, sqrt takes its array
            w = {0: np.sqrt(u[0], out=None if steps else u[0]) if sqrt
                 else np.where(u[0] > 0.0, u[0] ** r, np.nan)}
            for k, order, pairs in steps:
                row = _dot((s * u[a], w[b]) for s, a, b in pairs)
                row /= order * u[0]
                w[k] = row
            return w
        return sw, kernel

    @_shared
    def chain_rule(self, su: tuple, name: str):
        # w = f(u) for f = exp, sin, cos or tanh, with q = f'(u):
        #     w_alpha = sum_(0 < g <= alpha) (g_i / alpha_i) u_g q_(alpha - g).
        # exp: q is w.  tanh: q = 1 - w^2, the Cauchy square over w's rows.
        # sin, cos: q = cos u, -sin u, whose rows are
        # -sum (g_i / alpha_i) u_g w_(alpha - g); cos stores sin u = -q and
        # negates its finished sums rather than their terms, so an exact zero
        # keeps its sign.  q is formed only on the rows some step reads
        sw, steps = self._recurrence(su, lambda gi, order: gi / order)
        read = {c for _, _, pairs in steps for _, _, c in pairs}
        rows, trig = set(sw), name in ("sin", "cos")
        square = ({k: self._pairs(k, rows, rows) for k in read if k}
                  if name == "tanh" else {})

        def kernel(u):
            # w_0 takes u_0's array, which no step reads; sin and cos form q_0
            # from it first
            q = {0: (np.sin if name == "cos" else np.cos)(u[0])} if trig and 0 in read else {}
            w = {0: getattr(np, name)(u[0], out=u[0])}
            if name == "exp":
                q = w
            elif name == "tanh" and 0 in read:
                q[0] = 1.0 - w[0] ** 2
            for k, _, pairs in steps:
                if trig:  # each scaled term f u_g is read twice, so it is held
                    du = [(f * u[a], c) for f, a, c in pairs]
                    w[k] = _dot(((d, q[c]) for d, c in du), name == "cos")
                    if k in read:
                        q[k] = _dot(((d, w[c]) for d, c in du), name == "sin")
                else:
                    w[k] = _dot((f * u[a], q[c]) for f, a, c in pairs)
                    if k in square:
                        q[k] = _dot(((w[g], w[c]) for _, g, c in square[k]), True)
            return w
        return sw, kernel


@lru_cache(maxsize=64)
def _taylor_plan(nus: tuple[MultiIndex, ...]) -> _TaylorPlan:
    return _TaylorPlan(nus)


def _operands(e: Expr) -> tuple[Expr, ...]:
    """The operands of a node, left to right; none for a leaf."""
    if isinstance(e, Binary):
        return e.left, e.right
    return (e.arg,) if isinstance(e, Unary) else ()


def _occurrences(e: Expr, counts: list[int]) -> list[int]:
    """counts, with counts[i] raised by the number of x_i leaves of e's tree."""
    if isinstance(e, Var):
        counts[e.index] += 1
    for a in _operands(e):
        _occurrences(a, counts)
    return counts


def is_radial(e: PotentialExpr) -> bool:
    """Whether V is, by the structure of its AST, a function of |x|^2: it
    reaches its coordinates only through subtrees c (x_1^2 + ... + x_n^2) + k
    with one rational c on every axis and k free of coordinates, once the
    "+" chain is flattened and negations and constant factors are folded.
    V is never sampled.  The test is conservative: exp(-x1^2)*exp(-x2^2) is
    radial but not seen, and in one dimension it holds for every f(x1^2)."""
    n = e.dim

    def walk(a: Expr) -> tuple[list[Fraction] | None, bool]:
        # (the c_i of a = sum_i c_i x_i^2 + k, or None when a is not of
        # that form; whether a is a function of |x|^2)
        if isinstance(a, Var):
            return None, False
        parts = [walk(b) for b in _operands(a)]
        forms = [form for form, _ in parts]
        form = None
        if all(f is not None and not any(f) for f in forms):  # a constant
            form = [Fraction(0)] * n
        elif (isinstance(a, Unary) and a.op == "^" and a.params == (2,)
              and isinstance(a.arg, Var)):
            form = [Fraction(i == a.arg.index) for i in range(n)]
        elif isinstance(a, Unary) and a.op == "-" and forms[0] is not None:
            form = [-c for c in forms[0]]
        elif isinstance(a, Binary) and a.op == "+" and None not in forms:
            form = [l + r for l, r in zip(*forms)]
        elif isinstance(a, Binary) and a.op == "*":
            for factor, other in ((a.left, forms[1]), (a.right, forms[0])):
                if isinstance(factor, Const) and other is not None:
                    form = [factor.value * c for c in other]
        elif (isinstance(a, Binary) and a.op == "/" and isinstance(a.right, Const)
              and a.right.value and forms[0] is not None):
            form = [c / a.right.value for c in forms[0]]
        if form is not None:
            return form, len(set(form)) == 1
        return None, all(radial for _, radial in parts)

    return walk(e.root)[1]


def _taylor(e: Expr, plan: _TaylorPlan, coords: list[np.ndarray], unread) -> dict:
    """The series of e at the points of `coords`: a dict from each row of
    its support to that row's array, arrays held by the caller alone.  A
    node's op names its plan operation in BINARY or UNARY.

    `unread` is None when the coordinate arrays stay the caller's, and
    otherwise counts, per axis, the x_i leaves the walk has yet to reach:
    the last one takes coords[i] itself, every other one a copy.

    The walk is a tree walk, so a subtree shared in the AST, as in a
    `differentiate` result, is walked once per path to it and every series
    returned here is held by exactly one parent.  Kernels rely on that when
    they write into their operands' arrays; a memo of shared nodes would have
    to hand out copies."""
    if isinstance(e, (Const, Pi)):
        return {0: np.full(len(coords[0]), math.pi if isinstance(e, Pi) else float(e.value))}
    if isinstance(e, Var):
        x = coords[e.index]
        if unread is not None:
            unread[e.index] -= 1
        if unread is None or unread[e.index]:
            x = x.copy()
        unit = plan.unit_rows[e.index]
        return {0: x} if unit is None else {0: x, unit: np.ones(len(x))}
    if isinstance(e, Binary):
        u = _taylor(e.left, plan, coords, unread)
        v = _taylor(e.right, plan, coords, unread)
        return getattr(plan, BINARY[e.op][2])(tuple(u), tuple(v))[1](u, v)
    if isinstance(e, Unary):
        u = _taylor(e.arg, plan, coords, unread)
        op, *args = UNARY[e.op](*e.params)
        return getattr(plan, op)(tuple(u), *args)[1](u)
    raise TypeError(f"unknown node {e!r}")


def evaluate(e: PotentialExpr, point) -> float:
    """Value at a point (sequence of dim floats), as evaluate_array gives it
    on one node."""
    zero = (0,) * e.dim
    return float(taylor_derivatives(e, [zero], [float(x) for x in point])[zero])


def evaluate_array(e: PotentialExpr, coords: list[np.ndarray], *,
                   overwrite_coords: bool = False) -> np.ndarray:
    """Values on numpy coordinate arrays (one per axis, broadcast together):
    the order-0 Taylor pass, with overwrite_coords as in taylor_derivatives.
    Non-finite entries raise PotentialEvalError, by the rule in the module
    docstring."""
    zero = (0,) * e.dim
    return taylor_derivatives(e, [zero], coords, overwrite_coords=overwrite_coords)[zero]


def taylor_derivatives(e: PotentialExpr, nus, coords: list[np.ndarray], *,
                       overwrite_coords: bool = False) -> dict[MultiIndex, np.ndarray]:
    """D^nu V for every nu in `nus` at the nodes given by `coords` (one
    array per axis, broadcast together), from one truncated Taylor pass over
    the AST.  This is the one Taylor entry: evaluate and evaluate_array are
    its nu = 0 case.  No derivative tree is built, so the cost grows with the
    number of Taylor coefficients rather than with the size of D^nu V.
    Errors follow the rule in the module docstring.

    overwrite_coords=True hands the coordinate arrays, which must not share
    memory, over to the pass: the last x_i leaf it walks computes in coords[i]
    rather than in a copy, so the arrays' contents are undefined afterwards
    and a returned array may be one of them.  With the kernels' writes into
    their operands, exp(-x1^2-x2^2) at order 0 on same-shape contiguous float
    arrays then allocates no array.  The values are the same either way."""
    nus = tuple(sorted({_multi_index(nu, e.dim) for nu in nus}))
    if len(coords) != e.dim:
        raise ValueError(f"{len(coords)} coordinate arrays for dimension {e.dim}")
    if not nus:
        return {}
    plan = _taylor_plan(nus)
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shape = coords[0].shape
    flat = [c.ravel() for c in coords]
    unread = _occurrences(e.root, [0] * e.dim) if overwrite_coords else None
    with np.errstate(all="ignore"):
        series = _taylor(e.root, plan, flat, unread)
    out = {}
    for nu in nus:
        values = series.get(plan.pos[nu])
        if values is None:  # structurally zero
            out[nu] = np.zeros(shape)
            continue
        scale = multi_index_factorial(nu)
        if scale != 1:
            values *= scale  # each nu has its own row
        values = values.reshape(shape)
        if not np.all(np.isfinite(values)):
            raise PotentialEvalError("non-finite values in evaluation")
        out[nu] = values
    return out
