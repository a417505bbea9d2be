"""Exact differential-polynomial ring.

A DiffPoly is a polynomial with rational coefficients in the formal jet
variables D^nu V (the partial derivatives of the potential at the base
point).  A monomial is a multiset of multi-indices, one per V factor, stored
as a tuple sorted in descending order; e.g. in one dimension

    V * V''   ->  ((2,), (0,))      (key sorted descending)
    V^3       ->  ((0,), (0,), (0,))

Coefficients are Fractions, zero coefficients are never stored, so equality
of canonical dictionaries is structural equality of polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

MultiIndex = tuple[int, ...]
Monomial = tuple[MultiIndex, ...]


def multi_index_factorial(nu: MultiIndex) -> int:
    out = 1
    for e in nu:
        out *= factorial(e)
    return out


def multi_indices(dim: int, order: int) -> list[MultiIndex]:
    """All multi-indices of length dim with total order exactly `order`."""
    if dim == 1:
        return [(order,)]
    out = []
    for first in range(order + 1):
        for rest in multi_indices(dim - 1, order - first):
            out.append((first,) + rest)
    return out


def multi_indices_upto(dim: int, order: int) -> list[MultiIndex]:
    out: list[MultiIndex] = []
    for d in range(order + 1):
        out.extend(multi_indices(dim, d))
    return out


def _format_factor(nu: MultiIndex, power: int) -> str:
    if all(e == 0 for e in nu):
        base = "V"
    else:
        base = f"D[{','.join(str(e) for e in nu)}]V"
    return base if power == 1 else f"{base}^{power}"


class DimensionMismatch(ValueError):
    pass


class DiffPoly:
    """Immutable canonical differential polynomial."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[Monomial, Fraction] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", dict(terms) if terms else {})

    def __setattr__(self, *a):
        raise AttributeError("DiffPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "DiffPoly":
        return cls(dim)

    @classmethod
    def from_accumulator(cls, dim: int, acc: dict[Monomial, Fraction]) -> "DiffPoly":
        """Adopt a mutable accumulation dict (keys already canonical), dropping
        zero entries.  The caller must not mutate acc afterwards."""
        out = cls(dim)
        object.__setattr__(out, "terms", {m: c for m, c in acc.items() if c})
        return out

    @classmethod
    def combination(cls, dim: int, pairs) -> "DiffPoly":
        """Exact linear combination sum q * p over (p, q) pairs, summed into
        one accumulator and built once.  A sum that cancels drops its key, as
        in __add__, so the terms keep the order that adding the pairs one by
        one gives: the numeric layer sums a density's terms in that order."""
        zero = Fraction(0)
        acc: dict[Monomial, Fraction] = {}
        for p, q in pairs:
            for mono, c in p.terms.items():
                s = acc.get(mono, zero) + c * q
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        return cls.from_accumulator(dim, acc)

    @classmethod
    def constant(cls, dim: int, value) -> "DiffPoly":
        q = Fraction(value)
        if q == 0:
            return cls(dim)
        return cls(dim, {(): q})

    @classmethod
    def jet_variable(cls, dim: int, nu: MultiIndex, coeff=1) -> "DiffPoly":
        """The single jet variable D^nu V, optionally scaled."""
        nu = tuple(nu)
        if len(nu) != dim:
            raise DimensionMismatch(f"multi-index {nu} has wrong length for dim {dim}")
        q = Fraction(coeff)
        if q == 0:
            return cls(dim)
        return cls(dim, {(nu,): q})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "DiffPoly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return DiffPoly(self.dim, out)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(self.dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other) -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(sorted(m1 + m2, reverse=True))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return DiffPoly(self.dim, out)

    __rmul__ = __mul__

    def scale(self, q) -> "DiffPoly":
        q = Fraction(q)
        if q == 0:
            return DiffPoly(self.dim)
        return DiffPoly(self.dim, {m: c * q for m, c in self.terms.items()})

    def permute_axes(self, perm: tuple[int, ...]) -> "DiffPoly":
        """Relabel coordinate axes: entry i of each multi-index moves to
        position perm[i]."""
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            new = []
            for nu in mono:
                img = [0] * self.dim
                for i, e in enumerate(nu):
                    img[perm[i]] = e
                new.append(tuple(img))
            out[tuple(sorted(new, reverse=True))] = c
        return DiffPoly(self.dim, out)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffPoly) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def jet_variables(self) -> set[MultiIndex]:
        """All distinct D^nu V appearing in the polynomial."""
        out: set[MultiIndex] = set()
        for mono in self.terms:
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
            factors = []
            i = 0
            while i < len(mono):
                j = i
                while j < len(mono) and mono[j] == mono[i]:
                    j += 1
                factors.append(_format_factor(mono[i], j - i))
                i = j
            body = "*".join(factors)
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
