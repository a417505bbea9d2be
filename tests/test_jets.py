"""Jet arithmetic, the operators H0 and H on jets, and the transport
recursion of the heat kernel."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatinv.diffpoly import DiffPoly, multi_indices, multi_indices_upto
from heatinv.invariants import h_power_diagonal, heat_invariant_binomial
from heatinv.jets import (Jet, TruncationError, apply_H, apply_H0,
                          transport_jets, v_taylor_jet)


def random_jet(dim: int, trunc: int, rng_data) -> Jet:
    """Jet with small integer coefficients drawn from hypothesis data."""
    terms = {}
    for alpha in multi_indices_upto(dim, min(trunc, 3)):
        c = rng_data.draw(st.integers(-3, 3))
        if c:
            terms[alpha] = DiffPoly.constant(dim, c)
    return Jet(dim, trunc, terms)


class TestJetBasics:
    def test_multi_indices(self):
        assert multi_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert len(multi_indices_upto(3, 2)) == 10

    def test_truncation_drops_high_degrees(self):
        f = Jet(1, 2, {(3,): DiffPoly.constant(1, 1)})
        assert f.terms == {}
        with pytest.raises(TruncationError):
            Jet.monomial(1, 2, (3,))

    def test_mul_respects_truncation(self):
        z = Jet.monomial(1, 3, (2,))
        assert (z * z).terms == {}
        z1 = Jet.monomial(1, 3, (1,))
        assert (z1 * z).terms == {(3,): DiffPoly.constant(1, 1)}

    @given(st.data())
    @settings(max_examples=30)
    def test_linearity_of_H(self, data):
        f = random_jet(1, 4, data)
        g = random_jet(1, 4, data)
        assert apply_H(f + g) == apply_H(f) + apply_H(g)
        assert apply_H0(f.scale(3)) == apply_H0(f).scale(3)


class TestLaplacianPowerClosedForm:
    @pytest.mark.parametrize("alpha,times", [
        ((6,), 2), ((4, 2), 2), ((4, 2), 3), ((2, 3, 4), 2), ((4, 2, 2), 4)])
    def test_matches_repeated_jet_laplacian(self, alpha, times):
        """The multinomial closed form of (-Lap)^k z^alpha used by the
        invariants equals k applications of H0 to the monomial jet."""
        from heatinv.invariants import _laplacian_power_monomial
        f = Jet.monomial(len(alpha), sum(alpha), alpha)
        for _ in range(times):
            f = apply_H0(f)
        expected = {beta: c.terms[()] for beta, c in f.terms.items()}
        assert dict(_laplacian_power_monomial(alpha, times)) == expected


class TestOperatorAction:
    def test_H_on_constant_is_potential_jet(self):
        one = Jet.constant(1, 4, 1)
        assert apply_H(one) == v_taylor_jet(1, 4)

    def test_H_on_distance_square_diagonal(self):
        for n in (1, 2, 3):
            f = Jet(n, 2)
            for i in range(n):
                f = f + Jet.monomial(n, 2, tuple(2 * (k == i) for k in range(n)))
            assert apply_H(f).diagonal() == DiffPoly.constant(n, -2 * n)

    def test_H_on_z1(self):
        f = Jet.monomial(1, 2, (1,))
        out = apply_H(f)
        # V(y) z = (V + V' z + ...) z ; no Laplacian contribution
        assert out.terms[(1,)] == DiffPoly.jet_variable(1, (0,))
        assert out.terms[(2,)] == DiffPoly.jet_variable(1, (1,))

    def test_truncation_guard(self):
        """A negative truncation order, hence a negative transport order, is
        refused rather than read as an empty jet."""
        with pytest.raises(ValueError):
            Jet(1, -1)
        with pytest.raises(ValueError):
            transport_jets(-1, 1)


def _poly_mul(f: dict, g: dict) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def linear_potential_jets(J: int, n: int) -> list[Jet]:
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
        out.append(Jet(n, 2 * (J - k), {alpha: DiffPoly(n, row)
                                        for alpha, row in coeffs.items()}))
    return out


class TestTransport:
    @pytest.mark.parametrize("n,J", [(1, 10), (2, 6), (3, 5), (4, 4)])
    def test_diagonals_equal_the_binomial_route(self, n, J):
        u = transport_jets(J, n)
        assert u[0] == Jet.constant(n, 2 * J, 1)
        for k in range(1, J + 1):
            assert u[k].trunc == 2 * (J - k)
            assert u[k].diagonal() == heat_invariant_binomial(k, n).density

    @pytest.mark.parametrize("n", [1, 2])
    def test_linear_potential_closed_form(self, n):
        """The off-diagonal jets, with every D^nu V of order >= 2 set to
        zero, are those of the exact kernel of -Lap + g.x."""
        J = 5
        expected = linear_potential_jets(J, n)
        for k, u in enumerate(transport_jets(J, n)):
            linear = Jet(n, u.trunc, {
                alpha: DiffPoly(n, {m: q for m, q in c.terms.items()
                                    if all(sum(nu) <= 1 for nu in m)})
                for alpha, c in u.terms.items()})
            assert linear == expected[k]

    def test_reads_no_memoized_diagonal(self):
        h_power_diagonal.cache_clear()
        transport_jets(4, 2)
        assert h_power_diagonal.cache_info().currsize == 0
