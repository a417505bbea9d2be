"""Symbolic heat-invariant and regularized-trace densities.

Everything here reduces to exact diagonal values of operator words applied
to z-monomial jets, combined with Gaussian moment factors.  The same density
can be computed along several independent routes; their structural equality
is the package's main correctness argument:

  * "binomial"  - alternating binomial sum over H^(k+j) |z|^(2k) diagonals,
  * "operator"  - sum over the alternating operator family X_m applied to
                  Gaussian moment monomials,

and for the regularized densities alpha_j:

  * "subtracted" - a_j minus a finite binomial correction sum,
  * "tail_sum"   - the truncated X_m sum that survives the subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .diffpoly import DiffPoly, MultiIndex, multi_index_factorial
from .halfint import binomial, half_integer_binomial
from .jets import Jet, multi_indices, multi_indices_upto

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
# Memoized diagonal of H^p z^alpha
# ---------------------------------------------------------------------------


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
    zero = Fraction(0)
    acc: dict = {}
    for i, e in enumerate(alpha):
        if e >= 2:
            lowered = alpha[:i] + (e - 2,) + alpha[i + 1:]
            q = Fraction(-e * (e - 1))
            for mono, c in h_power_diagonal(dim, p - 1, lowered).terms.items():
                acc[mono] = acc.get(mono, zero) + c * q
    budget = 2 * (p - 1) - degree
    if budget >= 0:
        for nu in multi_indices_upto(dim, budget):
            sub = h_power_diagonal(dim, p - 1, tuple(a + b for a, b in zip(alpha, nu)))
            if not sub:
                continue
            q = Fraction(1, multi_index_factorial(nu))
            for mono, c in sub.terms.items():
                key = tuple(sorted(mono + (nu,), reverse=True))
                acc[key] = acc.get(key, zero) + c * q
    return DiffPoly.from_accumulator(dim, acc)


def h_power_diagonal(dim: int, p: int, alpha: tuple[int, ...]) -> DiffPoly:
    """Diagonal value (z-constant term) of H^p applied to z^alpha.

    The computation is symmetric under coordinate relabeling, so it is done
    once per sorted exponent pattern and permuted back.
    """
    order = sorted(range(dim), key=lambda i: -alpha[i])
    canonical = tuple(alpha[i] for i in order)
    result = _h_power_diag_canonical(dim, p, canonical)
    if canonical == tuple(alpha):
        return result
    return result.permute_axes(tuple(order))


@lru_cache(maxsize=None)
def _distance_power_diag(dim: int, p: int, k: int) -> DiffPoly:
    """Diagonal of H^p applied to |z|^(2k)."""
    out = DiffPoly.zero(dim)
    for mu in multi_indices(dim, k):
        coeff = Fraction(factorial(k), multi_index_factorial(mu))
        out = out + h_power_diagonal(dim, p, tuple(2 * e for e in mu)).scale(coeff)
    return out


@lru_cache(maxsize=None)
def _laplacian_power_monomial(dim: int, alpha: tuple[int, ...],
                              times: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """(-Laplacian)^times applied to the monomial z^alpha, as (beta, coeff) pairs."""
    f = Jet.monomial(dim, sum(alpha), alpha)
    for _ in range(times):
        f = -f.laplacian()
    out = []
    for beta, c in sorted(f.terms.items()):
        const = c.terms.get((), Fraction(0))
        if const:
            out.append((beta, const))
    return tuple(out)


@lru_cache(maxsize=None)
def _word_monomial_diag_canonical(dim: int, h_count: int, h0_count: int,
                                  alpha: tuple[int, ...]) -> DiffPoly:
    out = DiffPoly.zero(dim)
    for beta, c in _laplacian_power_monomial(dim, alpha, h0_count):
        out = out + h_power_diagonal(dim, h_count, beta).scale(c)
    return out


def _word_monomial_diagonal(dim: int, h_count: int, h0_count: int,
                            alpha: tuple[int, ...]) -> DiffPoly:
    """Diagonal of H^h_count H0^h0_count applied to z^alpha (H0 acts first).
    Symmetric under coordinate relabeling, like h_power_diagonal."""
    order = sorted(range(dim), key=lambda i: -alpha[i])
    canonical = tuple(alpha[i] for i in order)
    result = _word_monomial_diag_canonical(dim, h_count, h0_count, canonical)
    if canonical == tuple(alpha):
        return result
    return result.permute_axes(tuple(order))


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

    def __add__(self, other: "LaurentDiagonal") -> "LaurentDiagonal":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentDiagonal(self.dim, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentDiagonal) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        body = ", ".join(f"t^{e}: {c.to_text()}" for e, c in sorted(self.terms.items()))
        return f"LaurentDiagonal({{{body}}})"


def _alternating_word_diagonal(m: int, n: int, swapped: bool,
                               mu_orders: tuple[int, ...] | None = None) -> LaurentDiagonal:
    """Diagonal Laurent series of an alternating word sum applied to the free
    heat kernel.  swapped=False gives the words H^k H0^(m-k) (the X_m family),
    swapped=True gives H^(m-k) H0^k (the partial-integration transpose).
    mu_orders restricts to the given Gaussian-moment orders |mu| (each
    contributing the single t-exponent -|mu|)."""
    terms: dict[int, DiffPoly] = {}
    max_mu = max(m - 1, 0) // 2
    if mu_orders is None:
        mu_orders = tuple(range(max_mu + 1))
    for order in mu_orders:
        if order > max_mu:
            continue
        for mu in multi_indices(n, order):
            two_mu = tuple(2 * e for e in mu)
            # p_(2mu)(x): word applied to z^(2mu)/(2mu)!, on the diagonal
            p = DiffPoly.zero(n)
            for k in range(m + 1):
                h_count, h0_count = (m - k, k) if swapped else (k, m - k)
                contrib = _word_monomial_diagonal(n, h_count, h0_count, two_mu)
                p = p + contrib.scale(Fraction((-1) ** k * binomial(m, k)))
            p = p.scale(Fraction(1, multi_index_factorial(two_mu)))
            weight, exponent = gaussian_diag_derivative(mu, n)
            c = p.scale(weight)
            if c:
                s = terms.get(exponent)
                terms[exponent] = c if s is None else s + c
    return LaurentDiagonal(n, terms)


@lru_cache(maxsize=None)
def xm_diagonal(m: int, n: int) -> LaurentDiagonal:
    """Exact Laurent diagonal of X_m e^(-tH0), without the (4 pi t)^(-n/2)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _alternating_word_diagonal(m, n, swapped=False)


@lru_cache(maxsize=None)
def vm_diagonal(m: int, n: int) -> LaurentDiagonal:
    """Exact Laurent diagonal of e^(-tH0) V_m, via the swapped operator words
    coming from repeated partial integration (independent of xm_diagonal)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _alternating_word_diagonal(m, n, swapped=True)


@lru_cache(maxsize=None)
def _xm_diag_coefficient(m: int, n: int, t_exp: int) -> DiffPoly:
    """Single Laurent coefficient of the X_m diagonal (t-exponent t_exp),
    computed without touching the other Gaussian-moment orders."""
    if t_exp > 0 or -2 * t_exp > max(m - 1, 0):
        return DiffPoly.zero(n)
    slice_ = _alternating_word_diagonal(m, n, swapped=False, mu_orders=(-t_exp,))
    return slice_.coefficient(t_exp)


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


def heat_invariant_binomial(j: int, n: int) -> InvariantResult:
    """Local heat invariant a_j(x) via the closed alternating binomial sum

        a_j = (-1)^j sum_(k=0)^(j-1) C(j-1+n/2, k+n/2)
                     H^(k+j)(|z|^(2k))|_diag / (4^k k! (k+j)!).
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    out = DiffPoly.zero(n)
    for k in range(j):
        coeff = (half_integer_binomial(j, k, n)
                 / (Fraction(4) ** k * factorial(k) * factorial(k + j)))
        out = out + _distance_power_diag(n, k + j, k).scale(coeff)
    return InvariantResult(j, out.scale(Fraction((-1) ** j)), "binomial", n)


def heat_invariant_operator_sum(j: int, n: int) -> InvariantResult:
    """Local heat invariant a_j(x) read off from the operator-family diagonal:
    the coefficient of t^j in sum_m (t^m/m!) (X_m e^(-tH0))(x,x)."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    out = DiffPoly.zero(n)
    for m in range(j, 2 * j):
        out = out + _xm_diag_coefficient(m, n, j - m).scale(Fraction(1, factorial(m)))
    return InvariantResult(j, out, "operator", n)


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
        correction = DiffPoly.zero(n)
        for k in range(depth - j + 1):
            coeff = (half_integer_binomial(depth - j + 1, k, n)
                     / (Fraction(4) ** k * factorial(k) * factorial(k + j)))
            correction = correction + _distance_power_diag(n, k + j, k).scale(coeff)
        density = (heat_invariant_binomial(j, n).density
                   - correction.scale(Fraction((-1) ** j)))
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
    out = DiffPoly.zero(n)
    for m in range(depth + 1, 2 * j):
        out = out + _xm_diag_coefficient(m, n, j - m).scale(Fraction(1, factorial(m)))
    return InvariantResult(j, out, "tail_sum", n, epsilon, depth)


def monomial_decay_weight(mono, epsilon: Fraction) -> Fraction:
    """Decay budget of one density monomial: epsilon per V factor plus one per
    derivative order.  Integrability of alpha_j needs weight > n."""
    epsilon = Fraction(epsilon)
    return sum((epsilon + sum(nu) for nu in mono), Fraction(0))
