"""From symbolic densities to numbers for a concrete potential.

The symbolic densities are exact; turning them into expansion coefficients
for a specific V means taking every D^nu V a density needs from one
truncated Taylor pass over V's expression at the quadrature nodes,
evaluating the density there, and integrating it.  Both potentials below
are functions of |x|^2, so each density is radial and integrates over R^n
as one integral over the half-line r >= 0, mapped onto [0, 1) with the
scale L (12 by default, 2000 for the slowly decaying potential); any other
potential is integrated over the box [-L, L]^n.  The
integrated invariants then produce the scattering-phase coefficients b_j
through exact Gamma factors (kept as rational multiples of powers of
sqrt(pi) until the last moment)."""

import math
from fractions import Fraction

from heatinv import (alpha_density, coefficient_table, heat_invariant_binomial,
                     parse_potential, QuadratureConfig, table_text)

print("Gaussian potential V(x) = exp(-x^2) in one dimension")
print("----------------------------------------------------")
potential = parse_potential("exp(-x1^2)", 1)
invariants = [heat_invariant_binomial(j, 1) for j in (1, 2, 3)]
table = coefficient_table(invariants, potential, 1)
print(table_text(table))
print(f"domain: {table['domain']}")
print()
print(f"Check: integral of a_1 = -sqrt(pi) = {-math.sqrt(math.pi):.9f}")
print(f"       integral of a_2 = sqrt(pi/2)/2 = {0.5 * math.sqrt(math.pi / 2):.9f}")

print()
print("Slowly decaying potential V(x) = (1 + x^2)^(-1/6)")
print("-------------------------------------------------")
slow = parse_potential("powr(1 + x1^2, -1, 6)", 1)
eps = Fraction(1, 3)
alphas = [alpha_density(j, 1, eps) for j in (1, 2, 3)]
table = coefficient_table(alphas, slow, 1, QuadratureConfig(half_width=2000.0))
print(table_text(table))
print()
print("alpha_1 and alpha_2 vanish identically; alpha_3 integrates to a")
print("finite value even though V itself is not integrable.")
