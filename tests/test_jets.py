"""The transport recursion of the heat kernel, and the closed form of
(-Lap)^k z^alpha that the invariants use."""

from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from heatinv.diffpoly import (DiffPoly, multi_indices, multi_indices_below,
                              multi_indices_upto)
from heatinv.invariants import h_power_diagonal, heat_invariant_binomial
from heatinv.jets import transport_jets


def _multi_indices_recursive(dim, order):
    """The recursive definition: every first entry, then the rest."""
    if dim == 1:
        return [(order,)]
    return [(first,) + rest for first in range(order + 1)
            for rest in _multi_indices_recursive(dim - 1, order - first)]


class TestJetBasics:
    def test_multi_indices(self):
        assert multi_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert len(multi_indices_upto(3, 2)) == 10

    def test_multi_indices_match_the_recursive_definition(self):
        for dim in range(1, 9):
            for order in range(12):
                assert multi_indices(dim, order) == _multi_indices_recursive(dim, order)

    @pytest.mark.parametrize("alpha", [(0,), (3,), (2, 0), (1, 3), (0, 2, 1), (2, 1, 3, 1)])
    def test_multi_indices_below_is_the_product_box(self, alpha):
        assert list(multi_indices_below(alpha)) == list(product(*(range(k + 1) for k in alpha)))


def _minus_laplacian(f: dict) -> dict:
    """-Laplacian of a polynomial in z held as a {z-index: int} dict."""
    out: dict = {}
    for alpha, c in f.items():
        for i, e in enumerate(alpha):
            if e >= 2:
                key = alpha[:i] + (e - 2,) + alpha[i + 1:]
                out[key] = out.get(key, 0) - e * (e - 1) * c
    return {beta: c for beta, c in out.items() if c}


class TestLaplacianPowerClosedForm:
    @pytest.mark.parametrize("alpha,times", [
        ((6,), 2), ((4, 2), 2), ((4, 2), 3), ((2, 3, 4), 2), ((4, 2, 2), 4)])
    def test_matches_repeated_jet_laplacian(self, alpha, times):
        """The multinomial closed form of (-Lap)^k z^alpha used by the
        invariants equals k applications of -Lap to the monomial."""
        from heatinv.invariants import _laplacian_powers
        f = {alpha: 1}
        for _ in range(times):
            f = _minus_laplacian(f)
        assert dict(_laplacian_powers(alpha).get(times, [])) == f

    def test_matches_the_compose_and_discard_definition(self):
        """Walking only k <= alpha / 2 gives the terms of the expansion over
        every k with |k| = times whose 2k fits under alpha."""
        from heatinv.invariants import _laplacian_powers
        for n in (1, 2, 3):
            for half in multi_indices_upto(n, 6):
                alpha = tuple(2 * e for e in half)
                for times in range(12):
                    want = {}
                    for ks in multi_indices(n, times):
                        if all(2 * k <= e for k, e in zip(ks, alpha)):
                            coeff = (-1) ** times * factorial(times)
                            for k, e in zip(ks, alpha):
                                coeff = coeff * factorial(e) // (
                                    factorial(k) * factorial(e - 2 * k))
                            want[tuple(e - 2 * k for k, e in zip(ks, alpha))] = coeff
                    assert dict(_laplacian_powers(alpha).get(times, [])) == want


class TestOperatorAction:
    def test_truncation_guard(self):
        """A negative transport order is refused rather than read as an
        empty expansion."""
        with pytest.raises(ValueError):
            transport_jets(-1, 1)


def _poly_mul(f: dict, g: dict) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def linear_potential_jets(J: int, n: int) -> list[dict]:
    """u_0..u_J for V(x+z) = V + g.z, read off the exact kernel of
    -Lap + g.x: sum_k t^k u_k = exp(-t(V + g.z/2) + t^3 |g|^2/12).

    Polynomials in (V, g_1..g_n, z_1..z_n) are {exponent tuple: Fraction}
    dicts; u_k is the t^k coefficient sum_(a+3b=k) (-A)^a/a! B^b/b!, with
    V as the jet variable D^0 V and g_i as D^(e_i) V."""
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    zero = (0,) * n
    minus_a = {(1,) + zero + zero: Fraction(-1)}
    for e in unit:
        minus_a[(0,) + e + e] = Fraction(-1, 2)
    b_term = {(0,) + tuple(2 * x for x in e) + zero: Fraction(1, 12)
              for e in unit}
    one = {(0,) * (2 * n + 1): Fraction(1)}
    powers_a, powers_b = [one], [one]
    for _ in range(J):
        powers_a.append(_poly_mul(powers_a[-1], minus_a))
        powers_b.append(_poly_mul(powers_b[-1], b_term))
    out = []
    for k in range(J + 1):
        coeffs: dict = {}
        for b in range(k // 3 + 1):
            a = k - 3 * b
            weight = Fraction(1, factorial(a) * factorial(b))
            for key, c in _poly_mul(powers_a[a], powers_b[b]).items():
                v_power, g_powers, alpha = key[0], key[1:n + 1], key[n + 1:]
                factors = [zero] * v_power
                for e, q in zip(unit, g_powers):
                    factors += [e] * q
                mono = tuple(sorted(factors, reverse=True))
                row = coeffs.setdefault(alpha, {})
                row[mono] = row.get(mono, 0) + weight * c
        out.append({alpha: DiffPoly(n, row) for alpha, row in coeffs.items()
                    if sum(alpha) <= 2 * (J - k)})
    return out


class TestTransport:
    @pytest.mark.parametrize("n,J", [(1, 10), (2, 6), (3, 5), (4, 4)])
    def test_diagonals_equal_the_binomial_route(self, n, J):
        u = transport_jets(J, n)
        zero = (0,) * n
        assert u[0] == {zero: DiffPoly.constant(n, 1)}
        for k in range(1, J + 1):
            assert all(sum(b) <= 2 * (J - k) for b in u[k])
            assert u[k].get(zero, DiffPoly.zero(n)) == heat_invariant_binomial(k, n).density

    @pytest.mark.parametrize("n,J", [(1, 6), (2, 5), (3, 4)])
    def test_first_order_is_minus_the_averaged_potential(self, n, J):
        """u_1(x, x+z) = -int_0^1 V(x+sz) ds, so its z^alpha coefficient
        is -D^alpha V / (alpha! (|alpha|+1)), derivatives of every order."""
        expected = {alpha: DiffPoly(n, {(alpha,): Fraction(
                        -1, prod(map(factorial, alpha)) * (sum(alpha) + 1))})
                    for alpha in multi_indices_upto(n, 2 * (J - 1))}
        assert transport_jets(J, n)[1] == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_linear_potential_closed_form(self, n):
        """The off-diagonal jets, with every D^nu V of order >= 2 set to
        zero, are those of the exact kernel of -Lap + g.x."""
        J = 5
        expected = linear_potential_jets(J, n)
        for k, u in enumerate(transport_jets(J, n)):
            linear = {alpha: DiffPoly(n, {m: q for m, q in c.terms.items()
                                          if all(sum(nu) <= 1 for nu in m)})
                      for alpha, c in u.items()}
            assert {a: c for a, c in linear.items() if c} == expected[k]

    def test_reads_no_memoized_diagonal(self):
        h_power_diagonal.cache_clear()
        transport_jets(4, 2)
        assert h_power_diagonal.cache_info().currsize == 0
