"""Half-integer binomials and exact Gamma values."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatinv.halfint import gamma_half_integer, half_integer_binomial


class TestHalfIntegerBinomial:
    @given(st.integers(2, 20), st.integers(1, 18), st.integers(1, 6))
    def test_pascal_identity(self, j, k, n):
        """C(a, b) = C(a-1, b-1) + C(a-1, b) with a = j-1+n/2, b = k+n/2."""
        if k > j - 2:
            k = j - 2
        if k < 1:
            return
        lhs = half_integer_binomial(j, k, n)
        rhs = half_integer_binomial(j - 1, k - 1, n) + half_integer_binomial(j - 1, k, n)
        assert lhs == rhs

    @given(st.integers(1, 15), st.integers(0, 14), st.integers(1, 4))
    def test_even_dimension_matches_integer_binomial(self, j, k, n):
        if k > j - 1:
            k = j - 1
        even_n = 2 * n
        expected = math.comb(j - 1 + n, k + n)
        assert half_integer_binomial(j, k, even_n) == expected

    def test_edge_values(self):
        assert half_integer_binomial(1, 0, 3) == 1
        assert half_integer_binomial(3, 2, 1) == 1
        # C(2 + 1/2, 1/2) = (5/2)(3/2)/2! = 15/8
        assert half_integer_binomial(3, 0, 1) == Fraction(15, 8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            half_integer_binomial(0, 0, 1)
        with pytest.raises(ValueError):
            half_integer_binomial(2, 2, 1)
        with pytest.raises(ValueError):
            half_integer_binomial(2, -1, 1)
        with pytest.raises(ValueError):
            half_integer_binomial(2, 0, 0)


class TestGammaHalfInteger:
    def test_known_values(self):
        assert gamma_half_integer(2) == (Fraction(1), 0)
        assert gamma_half_integer(8) == (Fraction(6), 0)
        assert gamma_half_integer(1) == (Fraction(1), 1)
        assert gamma_half_integer(3) == (Fraction(1, 2), 1)
        assert gamma_half_integer(-1) == (Fraction(-2), 1)

    def test_poles_exactly_at_nonpositive_even(self):
        for two_z in range(-20, 21):
            value = gamma_half_integer(two_z)
            if two_z % 2 == 0 and two_z <= 0:
                assert value is None
            else:
                assert value is not None

    @given(st.integers(-19, 17).filter(lambda t: t % 2 == 1 or t > 0))
    def test_recursion(self, two_z):
        """Gamma(z + 1) = z * Gamma(z) away from poles."""
        if two_z % 2 == 0 and two_z + 2 <= 0:
            return
        left = gamma_half_integer(two_z + 2)
        right = gamma_half_integer(two_z)
        assert left == (right[0] * Fraction(two_z, 2), right[1])

    def test_matches_math_gamma(self):
        for two_z in (1, 3, 5, 7, 2, 4, 6, -1, -3):
            q, k = gamma_half_integer(two_z)
            assert float(q) * math.pi ** (k / 2) == pytest.approx(
                math.gamma(two_z / 2), rel=1e-12)
