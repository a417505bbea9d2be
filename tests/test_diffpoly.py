"""Ring structure, derivations, and canonical text form of DiffPoly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatinv.diffpoly import DiffPoly, DimensionMismatch


def polys(dim=1, max_order=3, max_factors=3, max_terms=4):
    nu = st.tuples(*[st.integers(0, max_order)] * dim)
    mono = st.lists(nu, max_size=max_factors).map(
        lambda vs: tuple(sorted(vs, reverse=True)))
    coeff = st.fractions(min_value=-5, max_value=5).filter(lambda q: q != 0)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: DiffPoly(dim, d))


class TestRingAxioms:
    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    @settings(max_examples=60)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(polys())
    def test_identities(self, a):
        one = DiffPoly.constant(1, 1)
        zero = DiffPoly.zero(1)
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a.scale(0) == zero

    @given(st.lists(st.tuples(polys(), st.fractions(min_value=-3, max_value=3)),
                    max_size=4))
    @settings(max_examples=60)
    def test_combination_is_the_sum_of_scaled_terms(self, pairs):
        """One accumulation equals adding the scaled polynomials one by one,
        term order included."""
        expected = DiffPoly.zero(1)
        for p, q in pairs:
            expected = expected + p.scale(q)
        got = DiffPoly.combination(1, pairs)
        assert got == expected
        assert list(got.terms) == list(expected.terms)

    def test_combination_drops_a_cancelled_term(self):
        """A term that cancels and comes back moves to the end, as with +."""
        v = DiffPoly.jet_variable(1, (0,))
        d1 = DiffPoly.jet_variable(1, (1,))
        got = DiffPoly.combination(1, [(v, 1), (d1, 1), (v, -1), (v, 2)])
        assert list(got.terms.items()) == [(((1,),), 1), (((0,),), 2)]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DiffPoly.constant(1, 1) + DiffPoly.constant(2, 1)


class TestCanonicalForm:
    def test_zero_coefficients_never_stored(self):
        a = DiffPoly.jet_variable(1, (0,))
        assert (a - a).terms == {}
        assert not DiffPoly.constant(1, 0).terms

    def test_multiplication_sorts_keys_descending(self):
        v = DiffPoly.jet_variable(1, (0,))
        d2 = DiffPoly.jet_variable(1, (2,))
        prod = v * d2
        assert list(prod.terms) == [((2,), (0,))]
        assert prod == d2 * v

    def test_permute_axes(self):
        p = DiffPoly.jet_variable(2, (2, 0))
        q = DiffPoly.jet_variable(2, (0, 2))
        assert p.permute_axes((1, 0)) == q
        assert (p + q).permute_axes((1, 0)) == p + q

    def test_hash_consistent_with_eq(self):
        a = DiffPoly(1, {((1,), (0,)): Fraction(2)})
        b = DiffPoly.jet_variable(1, (1,)) * DiffPoly.jet_variable(1, (0,)) * 2
        assert a == b
        assert hash(a) == hash(b)


class TestTextForm:
    def test_examples(self):
        dim1 = DiffPoly.constant(1, Fraction(1, 2))
        v = DiffPoly.jet_variable(1, (0,))
        d2 = DiffPoly.jet_variable(1, (2,))
        expr = dim1 * v * v - d2.scale(Fraction(1, 6))
        assert expr.to_text() == "1/2*V^2 - 1/6*D[2]V"
        assert (-v).to_text() == "-V"
        assert DiffPoly.zero(3).to_text() == "0"

    def test_multidimensional_labels(self):
        p = DiffPoly.jet_variable(2, (1, 2))
        assert p.to_text() == "D[1,2]V"

    @given(polys(dim=2, max_order=2))
    @settings(max_examples=40)
    def test_text_is_deterministic(self, a):
        assert a.to_text() == a.to_text()
        if not a.is_zero():
            assert a.to_text() != "0"
