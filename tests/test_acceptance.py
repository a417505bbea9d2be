"""Top-level acceptance suite.

Each test covers one release gate and prints a single PASS/FAIL line; the
assertions carry the same condition, so the printed line always matches the
pytest verdict.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as the suite executes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from heatinv.cli import MAX_ORDER as ORDER_CAPS
from heatinv.diffpoly import DiffPoly
from heatinv.invariants import (alpha_density, alpha_density_tail_sum,
                                alpha_regime, heat_invariant_binomial,
                                heat_invariant_operator_sum,
                                regularization_depth)
from heatinv.jets import transport_jets
from heatinv.numeric import b_from_a, beta_from_alpha, integrate_density
from heatinv.oracles import (BridgeSampler, TraceGrid,
                             discretized_schrodinger_1d, fit_expansion,
                             fk_diagonal, nc_taylor_matrix_check,
                             relative_heat_trace_1d,
                             taylor_family_matches_operator_family)
from heatinv.numeric import evaluate_density
from heatinv.potentials import parse_potential

# Route-equivalence sweeps stop at order 6: closed-form densities beyond
# that are outside the supported envelope (combinatorial blowup).
MAX_ORDER = 6


def report(number: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {label}: {verdict}{suffix}")


def test_1_symbolic_examples():
    ok = True
    details = []
    for n in (1, 2, 3):
        v = (0,) * n
        if heat_invariant_binomial(1, n).density != DiffPoly(n, {(v,): -1}):
            ok, details = False, details + [f"a1 n={n}"]
        # a_2 = V^2/2 - Lap V/6
        expected_a2 = {(v, v): Fraction(1, 2)}
        for i in range(n):
            expected_a2[(tuple(2 if k == i else 0 for k in range(n)),)] = Fraction(-1, 6)
        if heat_invariant_binomial(2, n).density != DiffPoly(n, expected_a2):
            ok, details = False, details + [f"a2 n={n}"]
    a3_text = heat_invariant_binomial(3, 1).density.to_text()
    if a3_text != "-1/6*V^3 + 1/12*D[1]V^2 + 1/6*D[2]V*V - 1/60*D[4]V":
        ok, details = False, details + ["a3 n=1"]
    eps = Fraction(1, 3)
    if alpha_density(1, 1, eps).density:
        ok, details = False, details + ["alpha1"]
    if alpha_density(2, 1, eps).density:
        ok, details = False, details + ["alpha2"]
    alpha3 = alpha_density(3, 1, eps).density.to_text()
    if alpha3 != "-1/4*D[1]V^2 - 1/3*D[2]V*V + 3/20*D[4]V":
        ok, details = False, details + ["alpha3"]
    report(1, "known symbolic densities reproduced exactly", ok,
           "; ".join(details) or "a1, a2 (n=1..3), a3, alpha1..alpha3")
    assert ok


def test_2_route_equivalence():
    mismatches = []
    for n in (1, 2, 3):
        for j in (1, 2, 3, 4):
            if (heat_invariant_binomial(j, n).density
                    != heat_invariant_operator_sum(j, n).density):
                mismatches.append(f"a_{j} n={n}")
    combos = 0
    for n in (1, 2, 3):
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            depth = regularization_depth(n, eps)
            for j in range(1, min(depth, MAX_ORDER) + 1):
                if alpha_regime(j, n, eps) != "middle":
                    continue
                combos += 1
                if (alpha_density(j, n, eps).density
                        != alpha_density_tail_sum(j, n, eps).density):
                    mismatches.append(f"alpha_{j} n={n} eps={eps}")
    ok = not mismatches
    report(2, "independent derivation routes agree", ok,
           "; ".join(mismatches) or f"a_j j<=4 n<=3 and {combos} alpha combos")
    assert ok


def test_4_transport_equals_binomial():
    """The transport recursion shares no code with h_power_diagonal, which
    both routes of gate 2 read; checked at every dimension's order cap."""
    bad = []
    cases = ORDER_CAPS.items()
    for n, J in cases:
        u = transport_jets(J, n)
        for k in range(1, J + 1):
            if u[k].get((0,) * n) != heat_invariant_binomial(k, n).density:
                bad.append(f"a_{k} n={n}")
    ok = not bad
    report(4, "transport equals binomial", ok,
           "; ".join(bad) or ", ".join(f"a_j j<={J} n={n}" for n, J in cases))
    assert ok


def test_5_relative_trace_oracle():
    potential = parse_potential("exp(-x1^2)", 1)
    ts = np.geomspace(0.02, 0.2, 12)
    samples = [(float(t), relative_heat_trace_1d(potential, float(t),
                                                 TraceGrid()))
               for t in ts]
    fit = fit_expansion(samples, 1, 4)
    a1, _ = integrate_density(heat_invariant_binomial(1, 1).density,
                              potential, 1)
    a2, _ = integrate_density(heat_invariant_binomial(2, 1).density,
                              potential, 1)
    err1 = abs(fit.coefficient(1) - a1) / abs(a1)
    err2 = abs(fit.coefficient(2) - a2) / abs(a2)
    ok = err1 <= 0.02 and err2 <= 0.10
    report(5, "spectral trace fit recovers integrated invariants", ok,
           f"a1 rel err {err1:.2%} (<=2%), a2 rel err {err2:.2%} (<=10%)")
    assert ok


def test_6_feynman_kac_oracle():
    potential = parse_potential("exp(-x1^2)", 1)
    t = 0.05
    sampler = BridgeSampler(seed=7, steps=256, paths=20_000)
    estimate, stderr = fk_diagonal(potential, (0.0,), t, sampler)
    series = 1.0
    for j in (1, 2, 3):
        aj = evaluate_density(heat_invariant_binomial(j, 1).density,
                              potential, (0.0,))
        series += aj * t ** j
    target = (4 * math.pi * t) ** -0.5 * series
    sigmas = abs(estimate - target) / stderr
    ok = sigmas <= 3.0
    v0 = parse_potential("0 * x1", 1)
    est0, se0 = fk_diagonal(v0, (0.0,), t, BridgeSampler(seed=1, paths=4096))
    free = (4 * math.pi * t) ** -0.5
    exact0 = abs(est0 - free) <= 1e-14 * free and se0 == 0.0
    vc = parse_potential("2 + 0 * x1", 1)
    estc, _ = fk_diagonal(vc, (0.0,), t, BridgeSampler(seed=1, paths=4096))
    exactc = abs(estc - free * math.exp(-2 * t)) <= 1e-12 * free
    ok = ok and exact0 and exactc
    report(6, "Feynman-Kac diagonal matches 3-term expansion", ok,
           f"{sigmas:.2f} std errors (<=3); V=0 exact: {exact0};"
           f" V=const exact: {exactc}")
    assert ok


def test_7_matrix_taylor_remainder():
    bad = []
    slopes = []
    for N in range(4):
        for seed in (0, 1, 2):
            slope = nc_taylor_matrix_check(6, N, seed).slope
            slopes.append(slope)
            if not N + 0.8 <= slope <= N + 1.3:
                bad.append(f"N={N} seed={seed} slope={slope:.3f}")
    grid = np.linspace(-3.0, 3.0, 7)
    h0, h = discretized_schrodinger_1d(np.exp(-grid ** 2), 1.0)
    worst = 0.0
    for m in range(7):
        worst = max(worst,
                    taylor_family_matches_operator_family(h0, h, m))
    if worst > 1e-12:
        bad.append(f"C_m vs V_m deviation {worst:.2e}")
    ok = not bad
    report(7, "matrix Taylor remainder slopes and family identity", ok,
           "; ".join(bad) or f"12 slopes in window, max family dev {worst:.1e}")
    assert ok


def test_8_coefficient_presence_rules():
    bad = []
    for n in range(1, 7):
        for j in range(1, 7):
            absent = b_from_a(1.0, j, n) is None
            if absent != (n % 2 == 0 and j >= n / 2):
                bad.append(f"b_{j} n={n}")
            beta_absent = beta_from_alpha(1.0, j, n) is None
            if beta_absent != (n % 2 == 0):
                bad.append(f"beta_{j} n={n}")
    potential = parse_potential("exp(-x1^2)", 1)
    for n, eps in [(1, Fraction(1, 3)), (3, Fraction(1))]:
        depth = regularization_depth(n, eps)
        for j in range(1, (depth + 2 + 1) // 2):
            if 2 * j < depth + 2:
                density = alpha_density(j, n, eps).density
                if density:
                    bad.append(f"alpha_{j} n={n} eps={eps} nonzero")
    ok = not bad
    report(8, "presence and vanishing rules for b_j and beta_j", ok,
           "; ".join(bad) or "n<=6, j<=6; low-order alpha vanish")
    assert ok
