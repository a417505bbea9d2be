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

What two routes check is their term expansions.  Once _combine has merged
equal keys, the binomial and operator lists are the same (p, alpha) -> q
map at every order up to the CLI's caps, n = 1..8, and so are the
subtracted and tail-sum lists in the middle regime (tests/test_invariants.py
compares the maps without building a DiffPoly).  Both routes then sum the
same diagonals, so their equal densities say nothing about
h_power_diagonal itself; only the tests' comparison with the transport
recursion of jets.py checks it from outside.

One memoized diagonal carries the work: h_power_diagonal, the z-constant
term of H^p z^alpha, a recursion over p whose steps are each one
DiffPoly.combination.  Each route only lists its terms as
((p, alpha), coefficient) items: _binomial_terms expands |z|^(2k) into
z-monomials, and _operator_terms the X_m e^(-tH0) diagonal, with
(-Lap)^k z^alpha in closed form.  _combine merges equal keys as rationals
and sums the diagonals once through DiffPoly.combination.

The operator routes weight each z^(2mu) by d^(2mu) e^(-tH0)(x,x) / (2mu)!,
the free heat kernel's derivative on the diagonal over (2mu)!, which in
closed form is (4 pi t)^(-n/2) t^(-|mu|) (-1)^|mu| / (4^|mu| mu!); odd
derivatives vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add

from .diffpoly import (DiffPoly, multi_index_factorial, multi_indices,
                       multi_indices_below, multi_indices_upto)
from .halfint import half_integer_binomial

# ---------------------------------------------------------------------------
# The memoized diagonal of H^p z^alpha, and (-Lap)^k z^alpha in closed form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _taylor_weights(dim: int, budget: int, parity: tuple[int, ...]) -> tuple:
    """(nu, 1/nu!) for the |nu| <= budget whose D^nu V step, taken from
    exponents alpha of this parity with |alpha| = 2(p-1) - budget, leads to a
    nonzero diagonal of H^(p-1) z^(alpha+nu); built once per key instead of
    once per diagonal.

    Laplacian steps keep each exponent's parity, so from z^beta every odd
    axis of beta needs an odd share of the degree that the k >= 1 remaining
    V steps add, 2(p-1) - 2k - |beta|.  With odd such axes and
    odd > 2(p-1) - 2 - |beta| = budget - |nu| - 2, no constant term is
    reached and the diagonal is zero."""
    out = []
    for nu in multi_indices_upto(dim, budget):
        odd = sum((a + b) & 1 for a, b in zip(parity, nu))
        if odd and odd > budget - sum(nu) - 2:
            continue
        out.append((nu, Fraction(1, multi_index_factorial(nu))))
    return tuple(out)


@lru_cache(maxsize=None)
def h_power_diagonal(dim: int, p: int, alpha: tuple[int, ...]) -> DiffPoly:
    """Diagonal value (z-constant term) of H^p applied to z^alpha.

    Symmetric under relabeling the coordinates: only the exponent pattern
    sorted in descending order runs the recursion, and any other order of
    alpha is that diagonal with its axes permuted back, memoized here too."""
    order = tuple(sorted(range(len(alpha)), key=lambda i: -alpha[i]))
    canonical = tuple(alpha[i] for i in order)
    if canonical != alpha:
        return h_power_diagonal(dim, p, canonical).permute_axes(order)
    # H acts on z only; DiffPoly coefficients are scalars for it.  Expanding
    # one application H z^alpha = -Lap z^alpha + sum_nu (D^nu V / nu!)
    # z^(alpha+nu) gives a linear recursion over (p, alpha).  A term of
    # z-degree d needs at least d/2 Laplacians to reach the constant term,
    # so branches with |alpha + nu| > 2(p-1) are dropped, and so are those
    # whose odd exponents cannot all turn even (see _taylor_weights).
    degree = sum(alpha)
    if degree > 2 * p:
        return DiffPoly.zero(dim)
    if p == 0:
        return DiffPoly.constant(dim, 1)  # degree > 0 was excluded above
    # One combination item per term of H z^alpha: the Laplacian lowers an
    # exponent, and a (sub, 1/nu!, nu) item multiplies sub by D^nu V.
    items = []
    for i, e in enumerate(alpha):
        if e >= 2:
            lowered = alpha[:i] + (e - 2,) + alpha[i + 1:]
            items.append((h_power_diagonal(dim, p - 1, lowered), -e * (e - 1)))
    budget = 2 * (p - 1) - degree
    if budget >= 0:
        for nu, weight in _taylor_weights(dim, budget, tuple(e & 1 for e in alpha)):
            sub = h_power_diagonal(dim, p - 1, tuple(map(add, alpha, nu)))
            if sub:
                items.append((sub, weight, nu))
    return DiffPoly.combination(dim, items)


def _laplacian_powers(alpha: tuple[int, ...]) -> dict[int, list]:
    """(-Laplacian)^times z^alpha for every times at once, as
    {times: [(beta, coeff)]}: the multinomial expansion of
    (-sum_i d_i^2)^times, where d_i^(2 k_i) z_i^e gives
    e!/(e - 2 k_i)! z_i^(e - 2 k_i)."""
    out: dict[int, list] = {}
    for ks in multi_indices_below(tuple(e // 2 for e in alpha)):
        times = sum(ks)
        coeff = (-1) ** times * factorial(times)
        for k, e in zip(ks, alpha):
            coeff = coeff * factorial(e) // (factorial(k) * factorial(e - 2 * k))
        beta = tuple(e - 2 * k for k, e in zip(ks, alpha))
        out.setdefault(times, []).append((beta, coeff))
    return out


# ---------------------------------------------------------------------------
# Invariant densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantResult:
    j: int
    density: DiffPoly
    route: str
    epsilon: Fraction | None = None  # the decay rate of a regularized density


def _binomial_terms(j: int, n: int, upper: int):
    """((p, alpha), coefficient) items of the alternating binomial sum

        (-1)^j sum_(k=0)^(upper-1) C(upper-1+n/2, k+n/2)
                H^(k+j)(|z|^(2k))|_diag / (4^k k! (k+j)!),

    with |z|^(2k) = sum_(|mu|=k) k!/mu! z^(2mu).  upper = j gives a_j;
    upper = N-j+1 gives the correction that alpha_j subtracts from it."""
    sign = (-1) ** j
    for k in range(upper):
        q = sign * half_integer_binomial(upper, k, n) / (Fraction(4) ** k * factorial(k + j))
        for mu in multi_indices(n, k):
            yield (k + j, tuple(2 * e for e in mu)), q / multi_index_factorial(mu)


def _xm_terms(m: int, n: int, order: int):
    """((p, beta), coefficient) items of the t^(-order) coefficient of the
    X_m e^(-tH0) diagonal, without the (4 pi t)^(-n/2), where
    X_m = sum_k (-1)^k C(m,k) H^k H0^(m-k): the Gaussian weights of order
    |mu| = order (see the module docstring) times the diagonals of
    H^k (-Lap)^(m-k) z^(2mu)."""
    for mu in multi_indices(n, order):
        two_mu = tuple(2 * e for e in mu)
        weight = Fraction((-1) ** order, 4 ** order * multi_index_factorial(mu))
        powers = _laplacian_powers(two_mu)
        for k in range(m + 1):
            w = weight * (-1) ** k * comb(m, k)
            for beta, c in powers.get(m - k, ()):
                yield (k, beta), w * c


def _operator_terms(j: int, n: int, first_m: int):
    """((p, beta), coefficient) items of sum_(m=first_m)^(2j-1) (1/m!) times
    the t^(j-m) coefficient of the X_m diagonal, which holds the Gaussian
    moments of order m-j <= (m-1)/2.  first_m = j gives a_j; first_m = N+1
    gives the tail that survives the subtraction in alpha_j."""
    for m in range(first_m, 2 * j):
        for key, q in _xm_terms(m, n, m - j):
            yield key, q / factorial(m)


def _subtracted_terms(j: int, n: int, depth: int):
    """((p, alpha), coefficient) items of the middle-regime alpha_j: those
    of a_j, then the binomial correction with upper entry depth-j+1, negated."""
    yield from _binomial_terms(j, n, j)
    for key, q in _binomial_terms(j, n, depth - j + 1):
        yield key, -q


def _merged(items) -> dict:
    """The ((p, alpha) -> q) map of ((p, alpha), q) items: equal keys merged
    as rationals, zero sums dropped."""
    acc: dict = {}
    for key, q in items:
        acc[key] = acc.get(key, 0) + q
    return {key: q for key, q in acc.items() if q}


def _combine(n: int, items) -> DiffPoly:
    """sum q * h_power_diagonal(n, p, alpha) over ((p, alpha), q) items,
    equal keys merged as rationals first, so shared terms cancel as scalars."""
    return DiffPoly.combination(n, ((h_power_diagonal(n, *key), q)
                                    for key, q in _merged(items).items()))


def heat_invariant_binomial(j: int, n: int) -> InvariantResult:
    """Local heat invariant a_j(x) via the closed alternating binomial sum

        a_j = (-1)^j sum_(k=0)^(j-1) C(j-1+n/2, k+n/2)
                     H^(k+j)(|z|^(2k))|_diag / (4^k k! (k+j)!).
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return InvariantResult(j, _combine(n, _binomial_terms(j, n, j)), "binomial")


def heat_invariant_operator_sum(j: int, n: int) -> InvariantResult:
    """Local heat invariant a_j(x) read off from the operator-family diagonal:
    the coefficient of t^j in sum_m (t^m/m!) (X_m e^(-tH0))(x,x)."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return InvariantResult(j, _combine(n, _operator_terms(j, n, j)), "operator")


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
        density = _combine(n, _subtracted_terms(j, n, depth))
    return InvariantResult(j, density, "subtracted", epsilon)


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
    return InvariantResult(j, _combine(n, _operator_terms(j, n, depth + 1)),
                           "tail_sum", epsilon)


def monomial_decay_weight(mono, epsilon: Fraction) -> Fraction:
    """Decay budget of one density monomial: epsilon per V factor plus one per
    derivative order.  Integrability of alpha_j needs weight > n."""
    epsilon = Fraction(epsilon)
    return sum((epsilon + sum(nu) for nu in mono), Fraction(0))
