"""Ring structure, derivations, and canonical text form of DiffPoly."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatinv.diffpoly import DiffPoly, _factors, _jet_prime, _spelled


def polys(dim=1, max_order=3, max_factors=3, max_terms=4):
    nu = st.tuples(*[st.integers(0, max_order)] * dim)
    mono = st.lists(nu, max_size=max_factors).map(
        lambda vs: tuple(sorted(vs, reverse=True)))
    coeff = st.fractions(min_value=-5, max_value=5).filter(lambda q: q != 0)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: DiffPoly(dim, d))


class TestRingAxioms:
    @given(st.lists(st.tuples(polys(), st.fractions(min_value=-3, max_value=3)),
                    max_size=4))
    @settings(max_examples=60)
    def test_combination_is_the_sum_of_scaled_terms(self, pairs):
        """One accumulation equals accumulating the pairs one by one."""
        expected = DiffPoly.zero(1)
        for p, q in pairs:
            expected = DiffPoly.combination(1, [(expected, 1), (p, q)])
        got = DiffPoly.combination(1, pairs)
        assert got == expected


def _jet(dim, nu, coeff=1):
    """The single jet variable coeff * D^nu V."""
    return DiffPoly(dim, {(nu,): Fraction(coeff)})


class TestCanonicalForm:
    def test_zero_coefficients_never_stored(self):
        a = _jet(1, (0,))
        assert DiffPoly.combination(1, [(a, 1), (a, -1)]).terms == {}
        assert not DiffPoly.constant(1, 0).terms

    def test_multiplication_sorts_keys_descending(self):
        """A (p, q, nu) item multiplies p by D^nu V into a descending key."""
        v, d2 = _jet(1, (0,)), _jet(1, (2,))
        prod = DiffPoly.combination(1, [(v, 1, (2,))])
        assert list(prod.terms) == [((2,), (0,))]
        assert prod == DiffPoly.combination(1, [(d2, 1, (0,))])

    def test_multi_index_of_another_dimension_is_refused(self):
        with pytest.raises(ValueError, match="length is not 2"):
            DiffPoly(2, {((1,),): 1})

    def test_permute_axes(self):
        p = _jet(2, (2, 0))
        q = _jet(2, (0, 2))
        assert p.permute_axes((1, 0)) == q
        both = DiffPoly(2, {((2, 0),): 1, ((0, 2),): 1})
        assert both.permute_axes((1, 0)) == both


def _ref_accumulate(out, items):
    """Add (monomial, coefficient) items into a {monomial: Fraction} dict,
    dropping a key whose sum cancels."""
    for mono, c in items:
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _ref_scale(a, q):
    return {m: c * q for m, c in a.items()} if q else {}


def _ref_mul(a, b):
    return _ref_accumulate({}, ((tuple(sorted(m1 + m2, reverse=True)), c1 * c2)
                                for m1, c1 in a.items() for m2, c2 in b.items()))


def _ref_permute(a, perm):
    out = {}
    for mono, c in a.items():
        images = []
        for nu in mono:
            img = [0] * len(nu)
            for i, e in enumerate(nu):
                img[perm[i]] = e
            images.append(tuple(img))
        out[tuple(sorted(images, reverse=True))] = c
    return out


def _ref_combination(pairs):
    out = {}
    for p, q in pairs:
        _ref_accumulate(out, _ref_scale(dict(p.terms), q).items())
    return out


def _assert_matches(got, expected):
    """Same values, stored in the reduced form under jet-prime product keys."""
    assert dict(got.terms) == expected
    assert got._den > 0
    assert 0 not in got._num.values()
    assert gcd(got._den, *got._num.values()) == 1
    if not expected:
        assert got._den == 1
    for mono, c in got._num.items():
        assert prod(_factors(mono)) == mono
        assert Fraction(c, got._den) == expected[_spelled(mono)]


class TestIntegerRepresentation:
    """Every operation on integer numerators over one denominator agrees
    with the same operation on {monomial: Fraction} dicts."""

    @given(polys(dim=2), polys(dim=2), st.fractions(min_value=-4, max_value=4),
           st.permutations(range(2)))
    @settings(max_examples=80)
    def test_ring_operations_match_fraction_dicts(self, a, b, q, perm):
        """Sum, difference, negation and scaling, each as one combination,
        and the axis relabeling."""
        ta, tb = dict(a.terms), dict(b.terms)
        _assert_matches(DiffPoly.combination(2, [(a, 1), (b, 1)]),
                        _ref_accumulate(dict(ta), tb.items()))
        _assert_matches(DiffPoly.combination(2, [(a, 1), (b, -1)]),
                        _ref_accumulate(dict(ta), _ref_scale(tb, -1).items()))
        _assert_matches(DiffPoly.combination(2, [(a, -1)]), _ref_scale(ta, -1))
        _assert_matches(DiffPoly.combination(2, [(a, q)]), _ref_scale(ta, q))
        _assert_matches(a.permute_axes(tuple(perm)), _ref_permute(ta, perm))

    @given(st.lists(st.tuples(polys(dim=2),
                              st.fractions(min_value=-3, max_value=3,
                                           max_denominator=12)),
                    max_size=5))
    @settings(max_examples=80)
    def test_combination_matches_fraction_dicts(self, pairs):
        _assert_matches(DiffPoly.combination(2, pairs), _ref_combination(pairs))

    @given(st.lists(st.tuples(polys(dim=2), st.fractions(min_value=-3, max_value=3,
                                                       max_denominator=12),
                              st.none() | st.tuples(st.integers(0, 3),
                                                    st.integers(0, 3))),
                    max_size=5))
    @settings(max_examples=80)
    def test_jet_factor_items_match_fraction_dicts(self, triples):
        """A (p, q, nu) item adds q * D^nu V * p."""
        items = [(p, q) if nu is None else (p, q, nu) for p, q, nu in triples]
        expected: dict = {}
        for p, q, nu in triples:
            terms = dict(p.terms) if nu is None else _ref_mul(dict(p.terms), {(nu,): 1})
            _ref_accumulate(expected, _ref_scale(terms, q).items())
        _assert_matches(DiffPoly.combination(2, items), expected)

    def test_equal_across_constructions(self):
        v = _jet(1, (0,))
        unreduced = DiffPoly(1, {((0,),): Fraction(2, 4)})
        combined = DiffPoly.combination(1, [(v, Fraction(1, 3)), (v, Fraction(1, 6))])
        assert unreduced == combined == _jet(1, (0,), Fraction(1, 2))
        v_key = _jet_prime((0,))
        assert (unreduced._den, unreduced._num) == (2, {v_key: 1})
        assert (combined._den, combined._num) == (2, {v_key: 1})

    def test_cancellation_across_denominators_drops_the_key(self):
        a = DiffPoly(1, {((0,),): Fraction(1, 2), ((1,),): Fraction(1, 6)})
        b = DiffPoly(1, {((2,),): Fraction(1, 3), ((1,),): Fraction(-1, 6)})
        got = DiffPoly.combination(1, [(a, 1), (b, 1)])
        assert dict(got.terms) == {((0,),): Fraction(1, 2),
                                   ((2,),): Fraction(1, 3)}
        assert got._den == 6
        zero = DiffPoly.combination(1, [(a, 1), (a, -1)])
        assert zero == DiffPoly.zero(1) and zero._den == 1


class TestTextForm:
    def test_examples(self):
        expr = DiffPoly(1, {((0,), (0,)): Fraction(1, 2), ((2,),): Fraction(-1, 6)})
        assert expr.to_text() == "1/2*V^2 - 1/6*D[2]V"
        assert _jet(1, (0,), -1).to_text() == "-V"
        assert DiffPoly.zero(3).to_text() == "0"

    def test_multidimensional_labels(self):
        assert _jet(2, (1, 2)).to_text() == "D[1,2]V"

    @given(polys(dim=2, max_order=2))
    @settings(max_examples=40)
    def test_text_is_deterministic(self, a):
        assert a.to_text() == a.to_text()
        if a:
            assert a.to_text() != "0"
