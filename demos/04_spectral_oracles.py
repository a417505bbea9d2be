"""Numerical verification against two independent spectral oracles.

1. Feynman-Kac: the diagonal heat kernel is a Brownian-bridge expectation,
       e^(-tH)(x, x) = (4 pi t)^(-n/2) E exp(-t int_0^1 V(x + sqrt(2t) b(s)) ds),
   which knows nothing about the symbolic machinery.
2. Relative heat trace: Tr(e^(-tH) - e^(-tH0)) for a discretized 1-D
   operator, fitted to the small-time model whose coefficients should be
   the integrated heat invariants.
"""

import math

import numpy as np

from heatinv import (BridgeSampler, TraceGrid, evaluate_density,
                     fit_expansion, fk_diagonal, heat_invariant_binomial,
                     integrate_density, parse_potential,
                     relative_heat_trace_1d)

potential = parse_potential("exp(-x1^2)", 1)
t = 0.05

print("Feynman-Kac Monte Carlo vs the 3-term symbolic expansion")
print("--------------------------------------------------------")
sampler = BridgeSampler(seed=7, paths=100_000)
estimate, stderr = fk_diagonal(potential, (0.0,), t, sampler)
series = 1.0
for j in (1, 2, 3):
    aj = evaluate_density(heat_invariant_binomial(j, 1).density,
                          potential, (0.0,))
    series += aj * t ** j
target = (4 * math.pi * t) ** -0.5 * series
print(f"  Monte-Carlo estimate : {estimate:.6f} +- {stderr:.6f}")
print(f"  symbolic 3-term value: {target:.6f}")
print(f"  discrepancy          : {abs(estimate - target) / stderr:.2f} standard errors")

print()
print("Relative heat trace vs integrated invariants")
print("--------------------------------------------")
ts = np.geomspace(0.02, 0.2, 12)
traces = relative_heat_trace_1d(potential, ts, TraceGrid())  # one resolvent sweep for all t
samples = list(zip(ts.tolist(), traces.tolist()))
fit = fit_expansion(samples, 1, 4)
for j in (1, 2):
    exact, _ = integrate_density(heat_invariant_binomial(j, 1).density,
                                 potential, 1)
    fitted = fit.coefficient(j)
    print(f"  c_{j}: fitted {fitted:+.6f}, exact integral {exact:+.6f},"
          f" rel err {abs(fitted - exact) / abs(exact):.2%}")
