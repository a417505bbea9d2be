"""Exact differential-polynomial ring.

A DiffPoly is a polynomial with rational coefficients in the formal jet
variables D^nu V (the partial derivatives of the potential at the base
point).  A monomial is a multiset of multi-indices, one per V factor, stored
as a tuple sorted in descending order; e.g. in one dimension

    V * V''   ->  ((2,), (0,))      (key sorted descending)
    V^3       ->  ((0,), (0,), (0,))

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
from math import factorial, gcd, lcm
from operator import sub
from types import MappingProxyType

MultiIndex = tuple[int, ...]
Monomial = tuple[MultiIndex, ...]


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
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        coeffs = {m: Fraction(c) for m, c in terms.items() if c} if terms else {}
        den = lcm(*(q.denominator for q in coeffs.values()))
        self._init(dim, {m: q.numerator * (den // q.denominator)
                         for m, q in coeffs.items()}, den)

    def _init(self, dim: int, num: dict[Monomial, int], den: int):
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
    def _from_ints(cls, dim: int, num: dict[Monomial, int], den: int) -> "DiffPoly":
        out = object.__new__(cls)
        out._init(dim, num, den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("DiffPoly is immutable")

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {monomial: Fraction} view of the coefficients, in no
        particular order; built on first read."""
        if self._terms is None:
            den = self._den
            object.__setattr__(self, "_terms", MappingProxyType(
                {m: Fraction(c, den) for m, c in self._num.items()}))
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
        the result: to_text and numeric evaluation read terms sorted."""
        items = list(items)
        den = lcm(*(item[0]._den * item[1].denominator for item in items))
        acc: dict[Monomial, int] = {}
        for item in items:
            p, q, factor = item[0], item[1], item[2:]
            f = q.numerator * (den // (p._den * q.denominator))
            if factor:
                for mono, c in p._num.items():
                    key = tuple(sorted(mono + factor, reverse=True))
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
        source = [0] * self.dim
        for i, p in enumerate(perm):
            source[p] = i
        images: dict[MultiIndex, MultiIndex] = {}
        out: dict[Monomial, int] = {}
        for mono, c in self._num.items():
            new = []
            for nu in mono:
                img = images.get(nu)
                if img is None:
                    img = images[nu] = tuple([nu[k] for k in source])
                new.append(img)
            new.sort(reverse=True)
            out[tuple(new)] = c
        return DiffPoly._from_ints(self.dim, out, self._den)

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffPoly) and self.dim == other.dim
                and self._den == other._den and self._num == other._num)

    def jet_variables(self) -> set[MultiIndex]:
        """All distinct D^nu V appearing in the polynomial."""
        out: set[MultiIndex] = set()
        for mono in self._num:
            out.update(mono)
        return out

    # -- canonical text form ----------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form: terms lexicographically sorted by their
        canonical (descending-factor) key, e.g. `1/2*V^2 - 1/6*D[2]V`."""
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
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
