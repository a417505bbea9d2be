"""The transport recursion for the heat kernel off the diagonal.

transport_jets solves the Minakshisundaram-Pleijel / DeWitt transport
equations of the kernel of e^(-tH), H = -Laplacian + V,

    K(t, x, x+z) = (4 pi t)^(-n/2) e^(-|z|^2/4t) sum_k t^k u_k(x, x+z),
    u_0 = 1,   (k + z.grad_z) u_k = -H u_(k-1),

with each u_k a truncated power series in z = y - x whose coefficients
are DiffPolys in the jet variables D^nu V(x).  V(y) enters as its formal
Taylor series sum_nu (D^nu V / nu!) z^nu.  The diagonal values u_k(x, x)
are the heat invariants a_k.  The recursion reads no memoized diagonal of
the invariants module, so it checks both of that module's routes from
outside.
"""

from __future__ import annotations

from fractions import Fraction

from .diffpoly import DiffPoly, multi_index_factorial, multi_indices_below, multi_indices_upto

ZIndex = tuple[int, ...]


def transport_jets(J: int, n: int) -> list[dict[ZIndex, DiffPoly]]:
    """u_0..u_J of the transport recursion in dimension n, each u_k a
    {z-index b: coefficient} dict over |b| <= 2(J-k) with zero
    coefficients left out.

    On z^b, k + z.grad_z is multiplication by k + |b|, and the z^b
    coefficient of -H u_(k-1) gives

        (k + |b|) u_k[b] = sum_i (b_i+2)(b_i+1) u_(k-1)[b + 2e_i]
                           - sum_(nu <= b) (D^nu V / nu!) u_(k-1)[b - nu],

    exact because u_(k-1) is kept through degree 2(J-k) + 2."""
    if J < 0:
        raise ValueError(f"transport order must be >= 0, got {J}")
    u = [{(0,) * n: DiffPoly.constant(n, 1)}]
    for k in range(1, J + 1):
        prev, cur = u[-1], {}
        for b in multi_indices_upto(n, 2 * (J - k)):
            scale = k + sum(b)
            items = []
            for i, e in enumerate(b):
                c = prev.get(b[:i] + (e + 2,) + b[i + 1:])
                if c is not None:
                    items.append((c, Fraction((e + 2) * (e + 1), scale)))
            for nu in multi_indices_below(b):
                c = prev.get(tuple(x - y for x, y in zip(b, nu)))
                if c is not None:
                    items.append((c, Fraction(-1, multi_index_factorial(nu) * scale), nu))
            coefficient = DiffPoly.combination(n, items)
            if coefficient:
                cur[b] = coefficient
        u.append(cur)
    return u
