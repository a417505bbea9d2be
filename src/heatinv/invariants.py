"""Symbolic heat-invariant and regularized-trace densities.

Everything here reduces to exact diagonal values of operator words applied
to z-monomials, combined with Gaussian moment factors.  The same density
can be computed along several independent routes; their structural equality
is the package's main correctness argument:

  * "binomial"  - alternating binomial sum over H^(k+j) |z|^(2k) diagonals,
  * "operator"  - sum over the alternating operator family X_m applied to
                  Gaussian moment monomials,

and for the regularized densities alpha_j:

  * "subtracted" - a_j minus a finite binomial correction sum,
  * "tail_sum"   - the truncated X_m sum that survives the subtraction.

Two memoized diagonals carry the work: h_power_diagonal (H^p z^alpha) and
_word_monomial_diagonal (H^h H0^k z^alpha, with (-Lap)^k z^alpha in closed
form).  Every sum above is a list of (diagonal, coefficient) pairs built by
_binomial_terms or _operator_terms and accumulated once by
DiffPoly.combination; the operator lists read one Gaussian-moment order of
the X_m diagonal at a time from _word_sum_coefficient.  No Jet is built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .diffpoly import (DiffPoly, MultiIndex, multi_index_factorial,
                       multi_indices, multi_indices_upto)
from .halfint import binomial, half_integer_binomial

# ---------------------------------------------------------------------------
# Gaussian diagonal moments
# ---------------------------------------------------------------------------


def gaussian_diag_derivative(mu: MultiIndex, n: int) -> tuple[Fraction, int]:
    """Even-order derivative of the free heat kernel on the diagonal.

    For the doubled multi-index 2*mu, the derivative d^(2mu) e^(-tH0)(x,x)
    equals (4 pi t)^(-n/2) times  (-1)^|mu| (2mu)! / (4^|mu| mu!)  times
    t^(-|mu|); returns (rational factor, t-exponent).  Odd derivatives vanish,
    so the caller always supplies the halved index mu.
    """
    order = sum(mu)
    two_mu = tuple(2 * e for e in mu)
    q = Fraction((-1) ** order * multi_index_factorial(two_mu),
                 4 ** order * multi_index_factorial(mu))
    return q, -order


# ---------------------------------------------------------------------------
# Memoized diagonals of operator words applied to z^alpha
# ---------------------------------------------------------------------------


def _by_sorted_exponents(fn, dim: int, alpha: tuple[int, ...], *head) -> DiffPoly:
    """fn(dim, *head, alpha) for a diagonal that is symmetric under coordinate
    relabeling: computed once per exponent pattern sorted descending, then
    permuted back."""
    order = sorted(range(dim), key=lambda i: -alpha[i])
    canonical = tuple(alpha[i] for i in order)
    result = fn(dim, *head, canonical)
    if canonical == tuple(alpha):
        return result
    return result.permute_axes(tuple(order))


@lru_cache(maxsize=None)
def _h_power_diag_canonical(dim: int, p: int, alpha: tuple[int, ...]) -> DiffPoly:
    # H acts on z only; DiffPoly coefficients are scalars for it.  Expanding
    # one application H z^alpha = -Lap z^alpha + sum_nu (D^nu V / nu!)
    # z^(alpha+nu) gives a linear recursion over (p, alpha).  A term of
    # z-degree d needs at least d/2 Laplacians to reach the constant term,
    # so branches with |alpha + nu| > 2(p-1) are dropped.
    degree = sum(alpha)
    if degree > 2 * p:
        return DiffPoly.zero(dim)
    if p == 0:
        return DiffPoly.constant(dim, 1)  # degree > 0 was excluded above
    # (diagonal, integer weight, weight denominator, appended factor) parts,
    # summed over their least common denominator.  A key that cancels keeps
    # its place and is dropped only at the end.
    parts = []
    for i, e in enumerate(alpha):
        if e >= 2:
            lowered = alpha[:i] + (e - 2,) + alpha[i + 1:]
            parts.append((h_power_diagonal(dim, p - 1, lowered), -e * (e - 1), 1, None))
    budget = 2 * (p - 1) - degree
    if budget >= 0:
        for nu in multi_indices_upto(dim, budget):
            sub = h_power_diagonal(dim, p - 1, tuple(a + b for a, b in zip(alpha, nu)))
            if sub:
                parts.append((sub, 1, multi_index_factorial(nu), nu))
    den = lcm(*(sub._den * w_den for sub, _, w_den, _ in parts))
    acc: dict = {}
    for sub, w, w_den, nu in parts:
        f = w * (den // (sub._den * w_den))
        for mono, c in sub._num.items():
            key = mono if nu is None else tuple(sorted(mono + (nu,), reverse=True))
            acc[key] = acc.get(key, 0) + c * f
    return DiffPoly._from_ints(dim, {m: c for m, c in acc.items() if c}, den)


@lru_cache(maxsize=None)
def h_power_diagonal(dim: int, p: int, alpha: tuple[int, ...]) -> DiffPoly:
    """Diagonal value (z-constant term) of H^p applied to z^alpha."""
    return _by_sorted_exponents(_h_power_diag_canonical, dim, alpha, p)


@lru_cache(maxsize=None)
def _distance_power_diag(dim: int, p: int, k: int) -> DiffPoly:
    """Diagonal of H^p applied to |z|^(2k) = sum_(|mu|=k) k!/mu! z^(2mu)."""
    return DiffPoly.combination(dim, (
        (h_power_diagonal(dim, p, tuple(2 * e for e in mu)),
         Fraction(factorial(k), multi_index_factorial(mu)))
        for mu in multi_indices(dim, k)))


def _laplacian_power_monomial(alpha: tuple[int, ...], times: int):
    """(-Laplacian)^times z^alpha as (beta, coeff) pairs: the multinomial
    expansion of (-sum_i d_i^2)^times, where d_i^(2 k_i) z_i^e gives
    e!/(e - 2 k_i)! z_i^(e - 2 k_i)."""
    sign = (-1) ** times
    for ks in multi_indices(len(alpha), times):
        if any(2 * k > e for k, e in zip(ks, alpha)):
            continue
        coeff = sign * factorial(times)
        for k, e in zip(ks, alpha):
            coeff = coeff * factorial(e) // (factorial(k) * factorial(e - 2 * k))
        yield tuple(e - 2 * k for k, e in zip(ks, alpha)), coeff


@lru_cache(maxsize=None)
def _word_monomial_diag_canonical(dim: int, h_count: int, h0_count: int,
                                  alpha: tuple[int, ...]) -> DiffPoly:
    return DiffPoly.combination(dim, (
        (h_power_diagonal(dim, h_count, beta), c)
        for beta, c in _laplacian_power_monomial(alpha, h0_count)))


@lru_cache(maxsize=None)
def _word_monomial_diagonal(dim: int, h_count: int, h0_count: int,
                            alpha: tuple[int, ...]) -> DiffPoly:
    """Diagonal of H^h_count H0^h0_count applied to z^alpha (H0 acts first)."""
    return _by_sorted_exponents(_word_monomial_diag_canonical, dim, alpha,
                                h_count, h0_count)


# ---------------------------------------------------------------------------
# Laurent diagonals of X_m e^(-tH0) and e^(-tH0) V_m
# ---------------------------------------------------------------------------


class LaurentDiagonal:
    """Finite Laurent polynomial in t with DiffPoly coefficients, representing
    a kernel diagonal divided by its overall (4 pi t)^(-n/2) factor."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[int, DiffPoly] | None = None):
        object.__setattr__(self, "dim", dim)
        clean = {e: c for e, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentDiagonal is immutable")

    def coefficient(self, exponent: int) -> DiffPoly:
        return self.terms.get(exponent, DiffPoly.zero(self.dim))

    def scale(self, q) -> "LaurentDiagonal":
        q = Fraction(q)
        return LaurentDiagonal(self.dim,
                               {e: c.scale(q) for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentDiagonal) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        body = ", ".join(f"t^{e}: {c.to_text()}" for e, c in sorted(self.terms.items()))
        return f"LaurentDiagonal({{{body}}})"


@lru_cache(maxsize=None)
def _word_sum_coefficient(m: int, n: int, order: int, swapped: bool) -> DiffPoly:
    """Coefficient of t^(-order) in the diagonal of an alternating word sum
    applied to the free heat kernel: the Gaussian moments of order |mu| = order
    weighting the word sum's diagonal on z^(2mu)/(2mu)!.  swapped=False gives
    the words H^k H0^(m-k) (the X_m family), swapped=True gives H^(m-k) H0^k
    (the partial-integration transpose)."""
    pairs = []
    for mu in multi_indices(n, order):
        two_mu = tuple(2 * e for e in mu)
        weight = gaussian_diag_derivative(mu, n)[0] / multi_index_factorial(two_mu)
        for k in range(m + 1):
            h_count, h0_count = (m - k, k) if swapped else (k, m - k)
            pairs.append((_word_monomial_diagonal(n, h_count, h0_count, two_mu),
                          weight * (-1) ** k * binomial(m, k)))
    return DiffPoly.combination(n, pairs)


def _word_sum_diagonal(m: int, n: int, swapped: bool) -> LaurentDiagonal:
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return LaurentDiagonal(n, {-order: _word_sum_coefficient(m, n, order, swapped)
                               for order in range(max(m - 1, 0) // 2 + 1)})


def xm_diagonal(m: int, n: int) -> LaurentDiagonal:
    """Exact Laurent diagonal of X_m e^(-tH0), without the (4 pi t)^(-n/2)."""
    return _word_sum_diagonal(m, n, swapped=False)


def vm_diagonal(m: int, n: int) -> LaurentDiagonal:
    """Exact Laurent diagonal of e^(-tH0) V_m, via the swapped operator words
    coming from repeated partial integration (independent of xm_diagonal)."""
    return _word_sum_diagonal(m, n, swapped=True)


# ---------------------------------------------------------------------------
# Invariant densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantResult:
    j: int
    density: DiffPoly
    route: str
    dim: int
    epsilon: Fraction | None = None
    depth: int | None = None  # N = floor(dim / epsilon) for regularized densities

    def to_json_dict(self) -> dict:
        out = {"j": self.j, "route": self.route, "density": self.density.to_text(),
               "n": self.dim}
        if self.epsilon is not None:
            out["epsilon"] = str(self.epsilon)
            out["N"] = self.depth
        return out


def _binomial_terms(j: int, n: int, upper: int) -> list:
    """(diagonal, coefficient) pairs of the alternating binomial sum

        (-1)^j sum_(k=0)^(upper-1) C(upper-1+n/2, k+n/2)
                H^(k+j)(|z|^(2k))|_diag / (4^k k! (k+j)!).

    upper = j gives a_j; upper = N-j+1 gives the correction that alpha_j
    subtracts from it."""
    sign = (-1) ** j
    return [(_distance_power_diag(n, k + j, k),
             sign * half_integer_binomial(upper, k, n)
             / (Fraction(4) ** k * factorial(k) * factorial(k + j)))
            for k in range(upper)]


def _operator_terms(j: int, n: int, first_m: int) -> list:
    """(diagonal, coefficient) pairs of sum_(m=first_m)^(2j-1) (1/m!) times
    the t^(j-m) coefficient of the X_m diagonal, which holds the Gaussian
    moments of order m-j <= (m-1)/2.  first_m = j gives a_j; first_m = N+1
    gives the tail that survives the subtraction in alpha_j."""
    return [(_word_sum_coefficient(m, n, m - j, False), Fraction(1, factorial(m)))
            for m in range(first_m, 2 * j)]


def heat_invariant_binomial(j: int, n: int) -> InvariantResult:
    """Local heat invariant a_j(x) via the closed alternating binomial sum

        a_j = (-1)^j sum_(k=0)^(j-1) C(j-1+n/2, k+n/2)
                     H^(k+j)(|z|^(2k))|_diag / (4^k k! (k+j)!).
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return InvariantResult(j, DiffPoly.combination(n, _binomial_terms(j, n, j)),
                           "binomial", n)


def heat_invariant_operator_sum(j: int, n: int) -> InvariantResult:
    """Local heat invariant a_j(x) read off from the operator-family diagonal:
    the coefficient of t^j in sum_m (t^m/m!) (X_m e^(-tH0))(x,x)."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return InvariantResult(j, DiffPoly.combination(n, _operator_terms(j, n, j)),
                           "operator", n)


def regularization_depth(n: int, epsilon: Fraction) -> int:
    """N = floor(n / epsilon), computed exactly from a rational epsilon."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return int(Fraction(n) / epsilon)


def alpha_regime(j: int, n: int, epsilon: Fraction) -> str:
    """Classify the order j: "zero" (density vanishes), "middle" (subtracted),
    or "tail" (coincides with the heat invariant)."""
    depth = regularization_depth(n, epsilon)
    if 2 * j < depth + 2:
        return "zero"
    if j <= depth:
        return "middle"
    return "tail"


def alpha_density(j: int, n: int, epsilon: Fraction) -> InvariantResult:
    """Regularized-trace density alpha_j(x): zero below the regularization
    depth, the heat invariant above it, and in between a_j minus the finite
    binomial correction sum with upper entry N-j+n/2."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    epsilon = Fraction(epsilon)
    depth = regularization_depth(n, epsilon)
    regime = alpha_regime(j, n, epsilon)
    if regime == "zero":
        density = DiffPoly.zero(n)
    elif regime == "tail":
        density = heat_invariant_binomial(j, n).density
    else:
        correction = [(p, -q) for p, q in _binomial_terms(j, n, depth - j + 1)]
        density = DiffPoly.combination(n, _binomial_terms(j, n, j) + correction)
    return InvariantResult(j, density, "subtracted", n, epsilon, depth)


def alpha_density_tail_sum(j: int, n: int, epsilon: Fraction) -> InvariantResult:
    """Middle-regime alpha_j(x) via the truncated operator sum
    sum_(m=N+1)^(2j-1) (1/m!) [t^(j-m) coefficient of X_m diagonal];
    only defined for (N+2)/2 <= j <= N."""
    epsilon = Fraction(epsilon)
    depth = regularization_depth(n, epsilon)
    if alpha_regime(j, n, epsilon) != "middle":
        raise ValueError(
            f"j={j} is outside the middle regime [{(depth + 2) / 2}, {depth}]"
            f" for n={n}, epsilon={epsilon}")
    return InvariantResult(j, DiffPoly.combination(n, _operator_terms(j, n, depth + 1)),
                           "tail_sum", n, epsilon, depth)


def monomial_decay_weight(mono, epsilon: Fraction) -> Fraction:
    """Decay budget of one density monomial: epsilon per V factor plus one per
    derivative order.  Integrability of alpha_j needs weight > n."""
    epsilon = Fraction(epsilon)
    return sum((epsilon + sum(nu) for nu in mono), Fraction(0))
