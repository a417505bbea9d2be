"""Truncated formal power series in z = y - x with DiffPoly coefficients,
and the transport recursion for the heat kernel off the diagonal.

A Jet represents sum_alpha c_alpha(x) z^alpha with |alpha| <= trunc, where
each c_alpha is a DiffPoly in the jet variables D^nu V(x).  The operators

    H0 = -Laplacian_z          (coefficients are constants in y)
    H  = H0 + V(y)             (V(y) enters as its formal Taylor jet about x)

act degree-by-degree.  Truncated multiplication is exact on all retained
degrees, and H lowers the z-degree by at most two, so H f is exact through
degree trunc - 2.

transport_jets solves the Minakshisundaram-Pleijel / DeWitt transport
equations of the kernel of e^(-tH),

    K(t, x, x+z) = (4 pi t)^(-n/2) e^(-|z|^2/4t) sum_k t^k u_k(x, x+z),
    u_0 = 1,   (k + z.grad_z) u_k = -H u_(k-1),

whose diagonal values u_k(x, x) are the heat invariants a_k.  It reads no
memoized diagonal of the invariants module, so it checks both of that
module's routes from outside.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diffpoly import (DiffPoly, DimensionMismatch, multi_index_factorial,
                       multi_indices_upto)

ZIndex = tuple[int, ...]


class TruncationError(ValueError):
    """Raised when a z-monomial's degree exceeds the truncation order of the
    jet meant to hold it."""


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
    def constant(cls, dim: int, trunc: int, value) -> "Jet":
        return cls(dim, trunc, {(0,) * dim: DiffPoly.constant(dim, value)})

    @classmethod
    def monomial(cls, dim: int, trunc: int, alpha: ZIndex) -> "Jet":
        """The jet z^alpha."""
        alpha = tuple(alpha)
        if len(alpha) != dim:
            raise DimensionMismatch(f"z-index {alpha} has wrong length for dim {dim}")
        if sum(alpha) > trunc:
            raise TruncationError(
                f"monomial of degree {sum(alpha)} does not fit truncation {trunc}")
        return cls(dim, trunc, {alpha: DiffPoly.constant(dim, 1)})

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

    def __mul__(self, other: "Jet") -> "Jet":
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

    def scale(self, q) -> "Jet":
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

    def diagonal(self) -> DiffPoly:
        """Value at y = x, i.e. the z-constant coefficient."""
        return self.terms.get((0,) * self.dim, DiffPoly.zero(self.dim))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Jet) and self.dim == other.dim
                and self.trunc == other.trunc and self.terms == other.terms)

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


def transport_jets(J: int, n: int) -> list[Jet]:
    """u_0..u_J of the transport recursion in dimension n, u_k truncated at
    z-degree 2(J-k).

    On z^alpha, k + z.grad_z is multiplication by k + |alpha|, so u_k is
    -H u_(k-1) with each z^alpha term divided by k + |alpha|; H u_(k-1) is
    exact through degree 2(J-k) because u_(k-1) is exact through 2(J-k+1)."""
    u = [Jet.constant(n, 2 * J, 1)]
    for k in range(1, J + 1):
        h = apply_H(u[-1])
        u.append(Jet(n, 2 * (J - k),
                     {alpha: c.scale(Fraction(-1, k + sum(alpha)))
                      for alpha, c in h.terms.items()}))
    return u
