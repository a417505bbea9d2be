"""Truncated formal power series in z = y - x with DiffPoly coefficients.

A Jet represents sum_alpha c_alpha(x) z^alpha with |alpha| <= trunc, where
each c_alpha is a DiffPoly in the jet variables D^nu V(x).  The operators

    H0 = -Laplacian_z          (coefficients are constants in y)
    H  = H0 + V(y)             (V(y) enters as its formal Taylor jet about x)

act degree-by-degree.  Truncated multiplication is exact on all retained
degrees, so the only bookkeeping needed is that extracting the z-constant
term after w operator applications requires trunc >= 2*w (each Laplacian
moves information down by exactly two degrees).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .diffpoly import (DiffPoly, DimensionMismatch, multi_index_factorial,
                       multi_indices, multi_indices_upto)

ZIndex = tuple[int, ...]


class TruncationError(ValueError):
    """Raised when a jet's truncation order is too small for the requested
    operator application to produce a trustworthy diagonal value."""


class Jet:
    """Immutable truncated power series in z with DiffPoly coefficients."""

    __slots__ = ("dim", "trunc", "terms")

    def __init__(self, dim: int, trunc: int,
                 terms: dict[ZIndex, DiffPoly] | None = None):
        if trunc < 0:
            raise ValueError(f"truncation order must be >= 0, got {trunc}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "trunc", trunc)
        clean = {}
        if terms:
            for alpha, c in terms.items():
                if sum(alpha) <= trunc and c:
                    clean[alpha] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Jet is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, trunc: int) -> "Jet":
        return cls(dim, trunc)

    @classmethod
    def constant(cls, dim: int, trunc: int, value) -> "Jet":
        c = value if isinstance(value, DiffPoly) else DiffPoly.constant(dim, value)
        return cls(dim, trunc, {(0,) * dim: c})

    @classmethod
    def monomial(cls, dim: int, trunc: int, alpha: ZIndex, coeff=1) -> "Jet":
        alpha = tuple(alpha)
        if len(alpha) != dim:
            raise DimensionMismatch(f"z-index {alpha} has wrong length for dim {dim}")
        if sum(alpha) > trunc:
            raise TruncationError(
                f"monomial of degree {sum(alpha)} does not fit truncation {trunc}")
        c = coeff if isinstance(coeff, DiffPoly) else DiffPoly.constant(dim, coeff)
        return cls(dim, trunc, {alpha: c})

    @classmethod
    def distance_power(cls, k: int, dim: int, trunc: int) -> "Jet":
        """(z_1^2 + ... + z_dim^2)^k as a jet with constant coefficients."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if trunc < 2 * k:
            raise TruncationError(
                f"truncation {trunc} would drop |z|^{2 * k} itself")
        terms: dict[ZIndex, DiffPoly] = {}
        for mu in multi_indices(dim, k):
            coeff = Fraction(factorial(k), multi_index_factorial(mu))
            terms[tuple(2 * e for e in mu)] = DiffPoly.constant(dim, coeff)
        return cls(dim, trunc, terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Jet"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out = {a: c for a, c in self.terms.items() if sum(a) <= trunc}
        for alpha, c in other.terms.items():
            if sum(alpha) > trunc:
                continue
            s = out.get(alpha)
            s = c if s is None else s + c
            if s:
                out[alpha] = s
            else:
                out.pop(alpha, None)
        return Jet(self.dim, trunc, out)

    def __neg__(self) -> "Jet":
        return Jet(self.dim, self.trunc, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self.scale(other)
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out: dict[ZIndex, DiffPoly] = {}
        for a1, c1 in self.terms.items():
            d1 = sum(a1)
            for a2, c2 in other.terms.items():
                if d1 + sum(a2) > trunc:
                    continue
                key = tuple(x + y for x, y in zip(a1, a2))
                p = c1 * c2
                s = out.get(key)
                s = p if s is None else s + p
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Jet(self.dim, trunc, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Jet":
        if isinstance(c, DiffPoly):
            return Jet(self.dim, self.trunc,
                       {a: q * c for a, q in self.terms.items()})
        q = Fraction(c)
        if q == 0:
            return Jet(self.dim, self.trunc)
        return Jet(self.dim, self.trunc,
                   {a: p.scale(q) for a, p in self.terms.items()})

    def laplacian(self) -> "Jet":
        """Laplacian in the z variables."""
        out: dict[ZIndex, DiffPoly] = {}
        for alpha, c in self.terms.items():
            for i, e in enumerate(alpha):
                if e < 2:
                    continue
                key = alpha[:i] + (e - 2,) + alpha[i + 1:]
                p = c.scale(e * (e - 1))
                s = out.get(key)
                s = p if s is None else s + p
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Jet(self.dim, self.trunc, out)

    # -- structure ---------------------------------------------------------

    def prune(self, max_degree: int) -> "Jet":
        """Drop terms of z-degree above max_degree (truncation unchanged)."""
        return Jet(self.dim, self.trunc,
                   {a: c for a, c in self.terms.items() if sum(a) <= max_degree})

    def diagonal(self) -> DiffPoly:
        """Value at y = x, i.e. the z-constant coefficient."""
        return self.terms.get((0,) * self.dim, DiffPoly.zero(self.dim))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Jet) and self.dim == other.dim
                and self.trunc == other.trunc and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, self.trunc,
                     frozenset((a, c) for a, c in self.terms.items())))

    def __repr__(self):
        body = " + ".join(f"({c.to_text()})*z^{a}" for a, c in sorted(self.terms.items()))
        return f"Jet(dim={self.dim}, trunc={self.trunc}, {body or '0'})"


@lru_cache(maxsize=None)
def v_taylor_jet(dim: int, trunc: int) -> Jet:
    """Formal Taylor series of V(y) about x: sum_nu (D^nu V) z^nu / nu!."""
    terms = {}
    for nu in multi_indices_upto(dim, trunc):
        terms[nu] = DiffPoly.jet_variable(
            dim, nu, Fraction(1, multi_index_factorial(nu)))
    return Jet(dim, trunc, terms)


def apply_H0(f: Jet) -> Jet:
    """H0 = -Laplacian_z."""
    return -f.laplacian()


def apply_H(f: Jet) -> Jet:
    """H = -Laplacian_z + multiplication by the Taylor jet of V(y)."""
    return -f.laplacian() + v_taylor_jet(f.dim, f.trunc) * f


def _apply_word(ops: tuple, f: Jet, prune_diagonal: bool) -> Jet:
    """The operator word ops[0] ops[1] ... applied to f (last factor first)."""
    g = f
    remaining = len(ops)
    for op in reversed(ops):
        if prune_diagonal:
            g = g.prune(2 * remaining)
        g = op(g)
        remaining -= 1
        if prune_diagonal:
            g = g.prune(2 * remaining)
    return g


def _alternating_family(m: int, f: Jet, a, b, route: str, prune_diagonal: bool) -> Jet:
    """W_m f for W_m = sum_k (-1)^k C(m,k) a^k b^(m-k).

    route="closed" sums the words.  route="recurrence" uses W_0 = I,
    W_k = W_(k-1) b - a W_(k-1) as a ladder: row k holds W_k b^i f for
    i = 0..m-k, so a is applied m(m+1)/2 times."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if f.trunc < 2 * m:
        raise TruncationError(
            f"truncation {f.trunc} too small for {m} operator applications"
            f" (need >= {2 * m})")
    if route == "closed":
        out = Jet.zero(f.dim, f.trunc)
        for k in range(m + 1):
            word = _apply_word((a,) * k + (b,) * (m - k), f, prune_diagonal)
            out = out + word.scale((-1) ** k * comb(m, k))
        return out
    if route == "recurrence":
        row = [f]
        for _ in range(m):
            row.append(b(row[-1]))
        for _ in range(m):
            row = [row[i + 1] - a(row[i]) for i in range(len(row) - 1)]
        return row[0]
    raise ValueError(f"unknown route {route!r}")


def apply_Xm(m: int, f: Jet, *, route: str = "closed",
             prune_diagonal: bool = False) -> Jet:
    """X_m = sum_k (-1)^k C(m,k) H^k H0^(m-k), acting on a jet.

    route="closed" evaluates the alternating word sum; route="recurrence"
    uses X_0 = I, X_m = X_(m-1) H0 - H X_(m-1)  (= -V X_(m-1) + [X_(m-1), H0]).
    """
    return _alternating_family(m, f, apply_H, apply_H0, route, prune_diagonal)


def apply_Vm(m: int, f: Jet, *, route: str = "closed",
             prune_diagonal: bool = False) -> Jet:
    """V_m = sum_k (-1)^k C(m,k) H0^k H^(m-k), acting on a jet.

    route="closed" evaluates the alternating word sum; route="recurrence"
    uses V_0 = I, V_m = V_(m-1) H - H0 V_(m-1)  (= V_(m-1) V + [V_(m-1), H0]).
    """
    return _alternating_family(m, f, apply_H0, apply_H, route, prune_diagonal)
