"""Symbolic invariant densities: known values, route equivalences, and the
structure of the regularized densities."""

import hashlib
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from heatinv.cli import MAX_ORDER
from heatinv.diffpoly import DiffPoly
from heatinv.invariants import (_binomial_terms, _combine, _merged,
                                _operator_terms, _subtracted_terms, _xm_terms,
                                alpha_density, alpha_density_tail_sum,
                                alpha_regime, heat_invariant_binomial,
                                heat_invariant_operator_sum,
                                monomial_decay_weight, regularization_depth)
from heatinv.jets import transport_jets


class TestGaussianFactors:
    def test_values(self):
        """X_0 is the identity, so its items are the Gaussian weights alone:
        d^(2mu) e^(-tH0)(x,x) / (2mu)!, i.e. 1, -1/2 / 2!, 3/4 / 4! and
        1/4 / (2! 2!) for mu = 0, 1, 2 and (1, 1)."""
        assert list(_xm_terms(0, 1, 0)) == [((0, (0,)), 1)]
        assert list(_xm_terms(0, 1, 1)) == [((0, (2,)), Fraction(-1, 4))]
        assert list(_xm_terms(0, 1, 2)) == [((0, (4,)), Fraction(1, 32))]
        assert dict(_xm_terms(0, 2, 2))[(0, (2, 2))] == Fraction(1, 16)


class TestKnownDensities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a1_is_minus_V(self, n):
        density = heat_invariant_binomial(1, n).density
        assert density == DiffPoly(n, {((0,) * n,): -1})
        assert density.to_text() == "-V"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a2(self, n):
        """a_2 = V^2/2 - Lap V/6."""
        expected = {((0,) * n, (0,) * n): Fraction(1, 2)}
        for i in range(n):
            nu = tuple(2 if k == i else 0 for k in range(n))
            expected[(nu,)] = Fraction(-1, 6)
        assert heat_invariant_binomial(2, n).density == DiffPoly(n, expected)

    def test_a3_one_dimensional(self):
        text = heat_invariant_binomial(3, 1).density.to_text()
        assert text == ("-1/6*V^3 + 1/12*D[1]V^2 + 1/6*D[2]V*V - 1/60*D[4]V")


class TestRouteEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_binomial_equals_operator_sum(self, j, n):
        assert (heat_invariant_binomial(j, n).density
                == heat_invariant_operator_sum(j, n).density)

    @pytest.mark.parametrize("n", sorted(MAX_ORDER))
    def test_term_maps_agree_before_any_diagonal(self, n):
        """The binomial and operator term lists merge to the same
        (p, alpha) -> q map at every order up to the CLI's cap, with no
        DiffPoly built: the two routes agree as term expansions, so their
        equal densities do not check h_power_diagonal itself."""
        for j in range(1, MAX_ORDER[n] + 1):
            assert (_merged(_binomial_terms(j, n, j))
                    == _merged(_operator_terms(j, n, j))), j

    @pytest.mark.parametrize("eps", ["1", "1/2", "1/3", "2/3", "1/4"])
    def test_middle_term_maps_agree_before_any_diagonal(self, eps):
        """The same for the subtracted and the tail-sum lists of alpha_j at
        every middle-regime order up to the cap, n = 1..8."""
        eps, cases = Fraction(eps), 0
        for n, cap in MAX_ORDER.items():
            depth = regularization_depth(n, eps)
            for j in range(1, cap + 1):
                if alpha_regime(j, n, eps) != "middle":
                    continue
                cases += 1
                assert (_merged(_subtracted_terms(j, n, depth))
                        == _merged(_operator_terms(j, n, depth + 1))), (n, j)
        assert cases


class TestOperatorFamilyDiagonals:
    def test_x0_diagonal_is_one(self):
        assert _combine(2, _xm_terms(0, 2, 0)) == DiffPoly.constant(2, 1)

    def test_x1_diagonal_is_minus_V(self):
        assert _combine(1, _xm_terms(1, 1, 0)) == DiffPoly(1, {((0,),): -1})

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_moments_above_the_truncation_vanish(self, m, n):
        """The operator routes read the X_m diagonal only at Gaussian-moment
        orders m-j <= (m-1)/2; the next two orders are zero."""
        for order in range((m + 1) // 2, (m + 1) // 2 + 2):
            assert not _combine(n, _xm_terms(m, n, order))


class TestRegularizedDensities:
    def test_depth(self):
        assert regularization_depth(1, Fraction(1, 3)) == 3
        assert regularization_depth(2, Fraction(1, 2)) == 4
        assert regularization_depth(3, Fraction(2, 3)) == 4
        assert regularization_depth(1, Fraction(1)) == 1
        with pytest.raises(ValueError):
            regularization_depth(1, Fraction(3, 2))
        with pytest.raises(ValueError):
            regularization_depth(1, Fraction(0))

    def test_regimes(self):
        eps = Fraction(1, 3)
        assert alpha_regime(1, 1, eps) == "zero"
        assert alpha_regime(2, 1, eps) == "zero"
        assert alpha_regime(3, 1, eps) == "middle"
        assert alpha_regime(4, 1, eps) == "tail"

    def test_low_orders_vanish(self):
        eps = Fraction(1, 3)
        assert not alpha_density(1, 1, eps).density
        assert not alpha_density(2, 1, eps).density

    def test_known_middle_density(self):
        text = alpha_density(3, 1, Fraction(1, 3)).density.to_text()
        assert text == "-1/4*D[1]V^2 - 1/3*D[2]V*V + 3/20*D[4]V"

    def test_middle_routes_agree(self):
        for (j, n, eps) in [(3, 1, Fraction(1, 3)), (2, 1, Fraction(1, 2)),
                            (2, 2, Fraction(1))]:
            assert (alpha_density(j, n, eps).density
                    == alpha_density_tail_sum(j, n, eps).density)

    def test_tail_matches_heat_invariant(self):
        eps = Fraction(1)
        assert (alpha_density(2, 1, eps).density
                == heat_invariant_binomial(2, 1).density)

    def test_tail_sum_rejects_other_regimes(self):
        with pytest.raises(ValueError):
            alpha_density_tail_sum(1, 1, Fraction(1, 3))
        with pytest.raises(ValueError):
            alpha_density_tail_sum(4, 1, Fraction(1, 3))

    def test_middle_regime_drops_pure_powers(self):
        """Every surviving monomial in a middle-regime density carries enough
        decay weight for integrability; in particular the pure V^j term is
        subtracted away."""
        eps = Fraction(1, 3)
        density = alpha_density(3, 1, eps).density
        for mono in density.terms:
            assert monomial_decay_weight(mono, eps) > 1
            assert mono != (((0,),) * 3)


class TestDecayWeight:
    def test_additive_over_factors(self):
        eps = Fraction(1, 2)
        assert monomial_decay_weight(((0,), (0,)), eps) == 1
        assert monomial_decay_weight(((2,), (1,), (0,)), eps) == Fraction(9, 2)
        assert monomial_decay_weight((), eps) == 0


# j <= 6 for n = 1, 2 and j <= 5 for n = 3
STRUCTURE_CASES = [(j, n) for n, top in ((1, 6), (2, 6), (3, 5))
                   for j in range(1, top + 1)]


class TestStructure:
    """Cheap structural invariants of a_j that hold whatever route built it."""

    @pytest.mark.parametrize("j,n", STRUCTURE_CASES)
    def test_weight_homogeneity(self, j, n):
        """D^nu V has weight 2 + |nu|, and every monomial of a_j weighs 2j."""
        for mono in heat_invariant_binomial(j, n).density.terms:
            assert sum(2 + sum(nu) for nu in mono) == 2 * j

    @pytest.mark.parametrize("j,n", [(j, n) for j, n in STRUCTURE_CASES if n > 1])
    def test_axis_permutation_invariance(self, j, n):
        density = heat_invariant_binomial(j, n).density
        for perm in permutations(range(n)):
            assert density.permute_axes(perm) == density

    @pytest.mark.parametrize("j,n", STRUCTURE_CASES)
    def test_derivative_free_part(self, j, n):
        """For a constant potential the kernel is e^(-tV) times the free one,
        so the V-only part of a_j is (-1)^j/j! V^j."""
        density = heat_invariant_binomial(j, n).density
        free = {mono: c for mono, c in density.terms.items()
                if not any(any(nu) for nu in mono)}
        assert free == {((0,) * n,) * j: Fraction((-1) ** j, factorial(j))}

    @pytest.mark.parametrize("j,n", [(j, n) for n in (2, 3, 4) for j in range(1, 6)])
    def test_dimension_restriction(self, j, n):
        """A potential free of x_n splits H into H' + (-d_n^2), so the terms
        of a_j in dimension n whose jets carry no x_n derivative, with that
        last index dropped, are a_j in dimension n - 1."""
        restricted = {tuple(nu[:-1] for nu in mono): c
                      for mono, c in heat_invariant_binomial(j, n).density.terms.items()
                      if not any(nu[-1] for nu in mono)}
        assert DiffPoly(n - 1, restricted) == heat_invariant_binomial(j, n - 1).density

    @pytest.mark.parametrize("n,j", [(3, 3), (4, 3), (4, 4)])
    def test_dimension_spread(self, n, j):
        """A monomial of a_j has at most 2j - 2 derivatives, each axis an even
        number of times, so it uses at most j - 1 axes: a_j in dimension n is
        a_j in dimension j - 1 spread over the n axes."""
        assert _spread(heat_invariant_binomial(j, j - 1).density, n) == (
            heat_invariant_binomial(j, n).density)


def _spread(density: DiffPoly, n: int) -> DiffPoly:
    """A density of a lower dimension carried into dimension n: each
    monomial under every injection of the axes it uses into the n axes.  An
    image reached from several monomials, which differ by a permutation of
    axes, is counted once, with their common coefficient."""
    spread = {}
    for mono, coeff in density.terms.items():
        used = sorted({a for nu in mono for a, k in enumerate(nu) if k})
        for image in permutations(range(n), len(used)):
            jets = []
            for nu in mono:
                jet = [0] * n
                for a, b in zip(used, image):
                    jet[b] = nu[a]
                jets.append(tuple(jet))
            assert spread.setdefault(tuple(sorted(jets)), coeff) == coeff
    return DiffPoly(n, spread)


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


class TestGoldenText:
    """sha256 of the joined to_text() of the densities, as the package printed
    them before its symbolic layer was rebuilt on DiffPoly.combination.  Any
    byte change to a density text fails here."""

    A_DIGESTS = {
        1: "6e7b4e02c4a689f8ffd6424e4f099b280031b9c950745fd1aee8dbbe1d929b07",
        2: "30bfb93fc9387dc97862f4c24e81bc583f14f26cbe17f2d5860739727591f025",
        3: "b39ba3510206e9781998e4b00ec577503822a98363f2301e2924501397c67373",
    }
    ALPHA_DIGESTS = {
        (1, "1"): "c0b5d3c1a1617f790eb3311eead5183ce5eebc513c54aa6a8ced18d114193889",
        (1, "1/2"): "e09195ba3f3edd2f8a07171688bde887d5d878c0c5bdf3187bc7462cc4115162",
        (1, "1/3"): "088f57565bd4bd2e9108dda2b6b2558b7e32790cd8113c57355a88ad79e0f98e",
        (2, "1"): "483f18780c487df9bcde9d566edca5eccdeb523072b873796c9a9981632cba7a",
        (2, "1/2"): "92d17b50fbe600e5b071de02dbc2e8885738f76dc935c06bea30d6f0965dc797",
        (2, "1/3"): "00f8917947730cb14f98ac5c2e2a2cb8e13cb4de1ea904c940499f404c1379c1",
        (3, "1"): "b52c9e52e4533d393d2f74cb201c4901c6530cc23460450be5c7598bc364f366",
        (3, "1/2"): "3920b28c4b1009fc3332e49c3c2479521353064d49863e2ce285120e1a8edc6a",
        (3, "1/3"): "1f11d75c7f50437d92f4459b9c5ca8e5d4d7997a0ffa405213293e4c572a5c6e",
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_heat_invariants(self, n):
        """a_1..a_6, each from the binomial then the operator route."""
        texts = []
        for j in range(1, 7):
            texts.append(heat_invariant_binomial(j, n).density.to_text())
            texts.append(heat_invariant_operator_sum(j, n).density.to_text())
        assert _digest(texts) == self.A_DIGESTS[n]

    # a_j from the binomial route over the orders above 6 that each
    # dimension's order cap admits (n, first j, last j)
    A_DIGESTS_TO_CAP = {
        (1, 1, 10): "d280ce395c5e77e52c04c31dc4750fc0747b39fceb1e08713a23730331da7341",
        (2, 1, 8): "baf9190408d8264ee3ed3cb20113b96f86f4a833e7500e38ac734c9518589f94",
        (3, 7, 7): "2450fcdedb063f371e68898f8558f6a94f1334896be510947f680aa4a295dd22",
    }

    @pytest.mark.parametrize("n,first,last", list(A_DIGESTS_TO_CAP))
    def test_heat_invariants_to_the_order_cap(self, n, first, last):
        texts = [heat_invariant_binomial(j, n).density.to_text()
                 for j in range(first, last + 1)]
        assert _digest(texts) == self.A_DIGESTS_TO_CAP[(n, first, last)]

    @pytest.mark.parametrize("n,eps", list(ALPHA_DIGESTS))
    def test_regularized_densities(self, n, eps):
        """alpha_1..alpha_6 subtracted, each followed by its tail sum in the
        middle regime."""
        eps_q = Fraction(eps)
        texts = []
        for j in range(1, 7):
            texts.append(alpha_density(j, n, eps_q).density.to_text())
            if alpha_regime(j, n, eps_q) == "middle":
                texts.append(alpha_density_tail_sum(j, n, eps_q).density.to_text())
        assert _digest(texts) == self.ALPHA_DIGESTS[(n, eps)]


class TestGoldenTextBeyondThreeDims:
    """sha256 digests taken before monomials were stored as jet-prime products:
    a_1..a_6 in dimension 4, each from the binomial then the operator
    route, and the coefficient texts of transport_jets(6, 3), one line
    `k b text` per u_k[b], b in sorted order."""

    A4_DIGEST = "31f51f45b3bde6c66ecfaabe29a42f57bbc544ceb0b11a6fd991a8bea726a495"
    TRANSPORT_DIGEST = "4afda11c975e01e8cc12f532950d79c31ddddc9a36341c9a7dc7a3fb8f3de6b9"

    def test_heat_invariants_in_four_dimensions(self):
        texts = []
        for j in range(1, 7):
            texts.append(heat_invariant_binomial(j, 4).density.to_text())
            texts.append(heat_invariant_operator_sum(j, 4).density.to_text())
        assert _digest(texts) == self.A4_DIGEST

    def test_transport_coefficients(self):
        texts = [f"{k} {b} {u_k[b].to_text()}"
                 for k, u_k in enumerate(transport_jets(6, 3)) for b in sorted(u_k)]
        assert _digest(texts) == self.TRANSPORT_DIGEST


# Run in a fresh interpreter: every multi-index of order <= 10 in three
# dimensions is registered highest order first, so D[10,0,0]V and its
# neighbours hold the small jet primes and V a large one, the reverse of the
# order the densities meet them in.  Prints one digest per golden entry.
_REVERSED_PRIMES_SCRIPT = """
import hashlib
from fractions import Fraction
from heatinv.diffpoly import DiffPoly, _jet_prime, multi_indices_upto
from heatinv.invariants import (alpha_density, alpha_density_tail_sum, alpha_regime,
                                heat_invariant_binomial, heat_invariant_operator_sum)
for nu in reversed(multi_indices_upto(3, 10)):
    DiffPoly(3, {(nu,): 1})
assert _jet_prime((10, 0, 0)) == 2 and _jet_prime((0, 0, 0)) > 1000
digest = lambda texts: hashlib.sha256("\\n".join(texts).encode()).hexdigest()
texts = []
for j in range(1, 7):
    b, o = heat_invariant_binomial(j, 3).density, heat_invariant_operator_sum(j, 3).density
    assert b == o, j
    texts += [b.to_text(), o.to_text()]
print(digest(texts))
for eps in ("1", "1/2", "1/3"):
    texts = []
    for j in range(1, 7):
        sub = alpha_density(j, 3, Fraction(eps)).density
        texts.append(sub.to_text())
        if alpha_regime(j, 3, Fraction(eps)) == "middle":
            tail = alpha_density_tail_sum(j, 3, Fraction(eps)).density
            assert sub == tail, (j, eps)
            texts.append(tail.to_text())
    print(digest(texts))
"""


def test_densities_do_not_depend_on_jet_prime_order():
    proc = subprocess.run([sys.executable, "-c", _REVERSED_PRIMES_SCRIPT],
                          capture_output=True, text=True, check=True)
    expected = [TestGoldenText.A_DIGESTS[3]] + [
        TestGoldenText.ALPHA_DIGESTS[(3, eps)] for eps in ("1", "1/2", "1/3")]
    assert proc.stdout.split() == expected
