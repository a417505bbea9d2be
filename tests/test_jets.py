"""Jet arithmetic and the alternating operator families acting on jets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatinv.diffpoly import DiffPoly
from heatinv.jets import (Jet, TruncationError, apply_H, apply_H0, apply_Vm,
                          apply_Xm, multi_indices, multi_indices_upto,
                          v_taylor_jet)


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

    def test_distance_power(self):
        f = Jet.distance_power(2, 2, 4)
        assert f.terms[(4, 0)] == DiffPoly.constant(2, 1)
        assert f.terms[(2, 2)] == DiffPoly.constant(2, 2)
        with pytest.raises(TruncationError):
            Jet.distance_power(3, 2, 4)

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
            f = Jet.distance_power(1, n, 2)
            assert apply_H(f).diagonal() == DiffPoly.constant(n, -2 * n)

    def test_H_on_z1(self):
        f = Jet.monomial(1, 2, (1,))
        out = apply_H(f)
        # V(y) z = (V + V' z + ...) z ; no Laplacian contribution
        assert out.terms[(1,)] == DiffPoly.jet_variable(1, (0,))
        assert out.terms[(2,)] == DiffPoly.jet_variable(1, (1,))

    def test_truncation_guard(self):
        f = Jet.constant(1, 3, 1)
        with pytest.raises(TruncationError):
            apply_Xm(2, f)


class TestAlternatingFamilies:
    # dim 2 cases stop at m = 3: jet sizes at truncation 2m grow quickly
    # with the dimension, and m = 6 in one dimension is covered separately
    CASES = [(1, m) for m in range(6)] + [(2, m) for m in range(4)]

    @pytest.mark.parametrize("dim,m", CASES)
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_Xm_routes_agree(self, dim, m, data):
        f = random_jet(dim, 2 * m, data)
        assert apply_Xm(m, f, route="closed") == apply_Xm(m, f, route="recurrence")

    @pytest.mark.parametrize("dim,m", CASES)
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_Vm_routes_agree(self, dim, m, data):
        f = random_jet(dim, 2 * m, data)
        assert apply_Vm(m, f, route="closed") == apply_Vm(m, f, route="recurrence")

    def test_routes_agree_at_m6(self):
        from heatinv.jets import multi_indices_upto as upto
        terms = {a: DiffPoly.constant(1, (i % 5) - 2)
                 for i, a in enumerate(upto(1, 3))}
        f = Jet(1, 12, {a: c for a, c in terms.items() if c})
        assert apply_Xm(6, f, route="closed") == apply_Xm(6, f, route="recurrence")
        assert apply_Vm(6, f, route="closed") == apply_Vm(6, f, route="recurrence")

    def test_X0_and_V0_are_identity(self):
        f = Jet.monomial(1, 2, (2,))
        assert apply_Xm(0, f) == f
        assert apply_Vm(0, f) == f

    def test_X1_is_multiplication_by_minus_V(self):
        f = Jet.constant(1, 4, 1)
        expected = (-v_taylor_jet(1, 4)).prune(4)
        assert apply_Xm(1, f) == expected

    @pytest.mark.parametrize("m", range(1, 7))
    def test_order_bound_vanishing(self, m):
        """diag(X_m z^(2 mu)) = 0 when 2 |mu| >= m: the family has operator
        order at most m - 1."""
        for n in (1, 2):
            for mu_order in range((m + 1) // 2, (m + 1) // 2 + 2):
                for mu in multi_indices(n, mu_order):
                    alpha = tuple(2 * e for e in mu)
                    trunc = max(2 * m, sum(alpha))
                    f = Jet.monomial(n, trunc, alpha, Fraction(1))
                    assert apply_Xm(m, f, prune_diagonal=True).diagonal().is_zero()
