"""Exact differential-polynomial ring.

A DiffPoly is a polynomial with rational coefficients in the formal jet
variables D^nu V (the partial derivatives of the potential at the base
point).  A monomial is a multiset of multi-indices, one per V factor.  Its
public spelling, the keys of `terms` and of the constructor's dict, is a
tuple of multi-indices sorted in descending order; e.g. in one dimension

    V * V''   ->  ((2,), (0,))      (key sorted descending)
    V^3       ->  ((0,), (0,), (0,))

Inside, each D^nu V is a prime, its jet prime, handed out the first time
the multi-index is seen, and a stored monomial is the product of its
factors' primes (1 for the empty monomial).  Unique factorization makes that
int a canonical key, and multiplying a monomial by D^nu V is one int
multiplication, so `combination` neither builds nor sorts a tuple.  `terms`
and `permute_axes` factor a key back into its jets; `terms` holds the
monomials in sorted order, which `jet_variables`, `to_text` and numeric
evaluation read.

The coefficients are stored as integer numerators over one shared positive
denominator, and `combination`, the one sum and product, runs on Python
ints.  The form is kept reduced (the gcd of the denominator and all
numerators is 1, zero numerators are never stored, and zero has
denominator 1), so equality of the stored (denominator, numerators) pair is
structural equality of polynomials.  `terms` reads the coefficients as
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import factorial, gcd, isqrt, lcm, prod
from operator import sub
from types import MappingProxyType

MultiIndex = tuple[int, ...]
Monomial = tuple[MultiIndex, ...]
PrimeMonomial = int  # the product of the factors' jet primes, the stored key

# The jet registry.  It is process-global because the exact layer runs on one
# thread, and it only grows by the jets that the requested orders reach: at
# the CLI's order caps a few hundred multi-indices, whose primes stay below
# 3000, and a few thousand distinct monomials in _FACTORS.  Which prime a jet
# gets depends on the order in which jets are first seen, so nothing outside
# this module reads the primes.
_JET_PRIMES: dict[MultiIndex, int] = {}
_JETS: dict[int, MultiIndex] = {}  # prime -> multi-index
_PRIMES: list[int] = []  # the registered primes, ascending
_FACTORS: dict[PrimeMonomial, tuple[int, ...]] = {1: ()}  # key -> its primes

# perm -> {prime: prime of the axis-relabeled jet}, over every registered jet
_AXIS_IMAGES: dict[tuple[int, ...], dict[int, int]] = {}
# perm -> {key: key of the axis-relabeled monomial}, over the keys permuted so
# far: the diagonals that h_power_diagonal permutes share most of their keys
_KEY_IMAGES: dict[tuple[int, ...], dict[PrimeMonomial, PrimeMonomial]] = {}


def _jet_prime(nu: MultiIndex) -> int:
    p = _JET_PRIMES.get(nu)
    if p is None:
        p = _PRIMES[-1] + 1 if _PRIMES else 2
        while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            p += 1
        _JET_PRIMES[nu] = p
        _JETS[p] = nu
        _PRIMES.append(p)
    return p


def _factors(key: PrimeMonomial) -> tuple[int, ...]:
    """The jet primes of a stored key, ascending and repeated by power:
    trial division by the registered primes, memoized per key."""
    out = _FACTORS.get(key)
    if out is None:
        found, rest = [], key
        for p in _PRIMES:
            while rest % p == 0:
                found.append(p)
                rest //= p
            if rest == 1:
                break
        out = _FACTORS[key] = tuple(found)
    return out


def _axis_images(perm: tuple[int, ...]) -> dict[int, int]:
    """The prime -> prime table of the relabeling perm, cached per perm and
    extended to the jets registered since its last use (another
    dimension's jets map to 0)."""
    table = _AXIS_IMAGES.setdefault(perm, {})
    if len(table) < len(_PRIMES):
        source = [0] * len(perm)
        for i, p in enumerate(perm):
            source[p] = i
        while len(table) < len(_PRIMES):  # an image may register a new jet
            p = _PRIMES[len(table)]
            nu = _JETS[p]
            table[p] = (_jet_prime(tuple([nu[k] for k in source]))
                        if len(nu) == len(perm) else 0)
    return table


def _spelled(key: PrimeMonomial) -> Monomial:
    """A stored key as the public descending tuple of multi-indices."""
    return tuple(sorted([_JETS[p] for p in _factors(key)], reverse=True))


def multi_index_factorial(nu: MultiIndex) -> int:
    out = 1
    for e in nu:
        out *= factorial(e)
    return out


def multi_indices(dim: int, order: int) -> list[MultiIndex]:
    """All multi-indices of length dim with total order exactly `order`, in
    lexicographic order: stars and bars, whose cuts 0 <= c_1 <= ... <= order
    give the entries c_1, c_2 - c_1, ..., order - c_(dim-1)."""
    return [tuple(map(sub, cuts + (order,), (0,) + cuts))
            for cuts in combinations_with_replacement(range(order + 1), dim - 1)]


def multi_indices_below(alpha: MultiIndex):
    """The box g <= alpha as an iterator, in itertools.product order."""
    return product(*(range(k + 1) for k in alpha))


def multi_indices_upto(dim: int, order: int) -> list[MultiIndex]:
    """All multi-indices of length dim with total order at most `order`,
    by total order and then lexicographically."""
    return [nu for d in range(order + 1) for nu in multi_indices(dim, d)]


def _format_factor(nu: MultiIndex, power: int) -> str:
    if all(e == 0 for e in nu):
        base = "V"
    else:
        base = f"D[{','.join(str(e) for e in nu)}]V"
    return base if power == 1 else f"{base}^{power}"


class DiffPoly:
    """Immutable canonical differential polynomial: integer numerators over
    one shared positive denominator, kept reduced."""

    __slots__ = ("dim", "_num", "_den", "_terms")

    def __init__(self, dim: int, terms: dict[Monomial, Fraction] | None = None):
        """terms maps monomials spelled as tuples of multi-indices to their
        coefficients; spellings of one multiset are summed."""
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        coeffs: dict[PrimeMonomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if any(len(nu) != dim for nu in m):
                raise ValueError(f"monomial {m} has a multi-index whose length is not {dim}")
            key = prod(map(_jet_prime, m))
            coeffs[key] = coeffs.get(key, 0) + Fraction(c)
        coeffs = {m: q for m, q in coeffs.items() if q}
        den = lcm(*(q.denominator for q in coeffs.values()))
        self._init(dim, {m: q.numerator * (den // q.denominator)
                         for m, q in coeffs.items()}, den)

    def _init(self, dim: int, num: dict[PrimeMonomial, int], den: int):
        """Adopt nonzero integer numerators over den > 0, dividing out their
        common factor with den (zero ends up with den == 1)."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _from_ints(cls, dim: int, num: dict[PrimeMonomial, int], den: int) -> "DiffPoly":
        out = object.__new__(cls)
        out._init(dim, num, den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("DiffPoly is immutable")

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {monomial: Fraction} view of the coefficients, sorted by
        monomial whatever order they were built in; built on first read."""
        if self._terms is None:
            den = self._den
            object.__setattr__(self, "_terms", MappingProxyType(dict(sorted(
                (_spelled(m), Fraction(c, den)) for m, c in self._num.items()))))
        return self._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "DiffPoly":
        return cls(dim)

    @classmethod
    def combination(cls, dim: int, items) -> "DiffPoly":
        """Exact linear combination of (p, q) items, each adding q * p, and
        (p, q, nu) items, each adding q * D^nu V * p; q is an int or a
        Fraction.  Summed over the items' least common denominator into one
        integer accumulator and built once.  The term order is not part of
        the result: `terms` reads it sorted."""
        items = list(items)
        den = lcm(*(item[0]._den * item[1].denominator for item in items))
        acc: dict[PrimeMonomial, int] = {}
        for item in items:
            p, q = item[0], item[1]
            f = q.numerator * (den // (p._den * q.denominator))
            if len(item) == 3:
                jet = _jet_prime(item[2])
                for mono, c in p._num.items():
                    key = mono * jet
                    acc[key] = acc.get(key, 0) + c * f
            else:
                for mono, c in p._num.items():
                    acc[mono] = acc.get(mono, 0) + c * f
        return cls._from_ints(dim, {m: c for m, c in acc.items() if c}, den)

    @classmethod
    def constant(cls, dim: int, value) -> "DiffPoly":
        return cls(dim, {(): Fraction(value)})

    # -- axis relabeling ---------------------------------------------------

    def permute_axes(self, perm: tuple[int, ...]) -> "DiffPoly":
        """Relabel coordinate axes: entry i of each multi-index moves to
        position perm[i]."""
        perm = tuple(perm)
        image = _axis_images(perm).__getitem__
        images = _KEY_IMAGES.setdefault(perm, {})
        num = {}
        for mono, c in self._num.items():
            key = images.get(mono)
            if key is None:
                key = images[mono] = prod(map(image, _factors(mono)))
            num[key] = c
        return DiffPoly._from_ints(self.dim, num, self._den)

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffPoly) and self.dim == other.dim
                and self._den == other._den and self._num == other._num)

    def jet_variables(self) -> set[MultiIndex]:
        """All distinct D^nu V appearing in the polynomial."""
        return {nu for mono in self.terms for nu in mono}

    # -- canonical text form ----------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form: terms in the order of `terms`, sorted by
        their canonical (descending-factor) key, e.g. `1/2*V^2 - 1/6*D[2]V`."""
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.terms.items():
            body = "*".join(_format_factor(nu, len(list(run))) for nu, run in groupby(mono))
            mag = abs(c)
            if body:
                coeff_txt = "" if mag == 1 else f"{mag}*"
                term = f"{coeff_txt}{body}"
            else:
                term = f"{mag}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"DiffPoly({self.dim}, {self.to_text()})"
