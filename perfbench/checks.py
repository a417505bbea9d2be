"""Checks of each command's output against the references in refs.py.

`check(cmd, stdout, refs, seed)` returns a list of problems; empty means the
output is right.  No check compares against a stored copy of the program's
output: densities are tested by exact properties, integrals by sympy/mpmath,
and verification suites by their own verdicts plus recomputed targets.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

import refs as R

EPS = 2.0 ** -52


def is_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def jet_points(seed: int, dim: int, count: int = 2):
    """Rational sample points and quadratic/linear coefficients from the seed."""
    rng = random.Random(seed * 1009 + dim)
    for _ in range(count):
        w = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)]
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)]
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        g = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)]
        yield w, x, c, g


def density_properties(poly: dict, j: int, dim: int, seed: int) -> list[str]:
    """Weight homogeneity, axis-permutation invariance, and exact agreement
    with Mehler's kernel and the linear-potential kernel at seeded points."""
    problems = []
    bad = [m for m in poly if R.weight(m) != 2 * j]
    if bad:
        problems.append(f"a_{j} n={dim}: monomials of weight != {2 * j}: {bad[:3]}")
    for perm in R.axis_permutations(dim)[1:]:
        if R.permute(poly, perm) != poly:
            problems.append(f"a_{j} n={dim}: not invariant under axis permutation {perm}")
    for w, x, c, g in jet_points(seed, dim):
        mehler = R.mehler_series(w, x, j)[j]
        got = R.evaluate(poly, R.quadratic_jet(w, x))
        if got != mehler:
            problems.append(f"a_{j} n={dim} on V=sum {w} x^2 at {x}: {got} != Mehler {mehler}")
        v0 = c + sum(gi * xi for gi, xi in zip(g, x))
        linear = R.linear_series(v0, sum(gi * gi for gi in g), j)[j]
        got = R.evaluate(poly, R.linear_jet(c, g, x))
        if got != linear:
            problems.append(f"a_{j} n={dim} on linear V at {x}: {got} != {linear}")
    return problems


def check_local(cmd, out: dict, refs, seed: int) -> list[str]:
    dim = int(cmd.argv[cmd.argv.index("--dim") + 1])
    order = int(cmd.argv[cmd.argv.index("--order") + 1])
    problems = []
    if out.get("dim") != dim or [r["j"] for r in out["rows"]] != list(range(1, order + 1)):
        return [f"rows are not j=1..{order} for n={dim}"]
    for row in out["rows"]:
        if row["routes_agree"] is not True:
            problems.append(f"a_{row['j']}: binomial and operator routes disagree")
        problems += density_properties(R.parse_density(row["density"], dim), row["j"],
                                       dim, seed)
    return problems


def _middle_orders(dim: int, eps: Fraction, order: int) -> list[int]:
    depth = math.floor(Fraction(dim) / eps)
    return [j for j in range(1, order + 1) if 2 * j >= depth + 2 and j <= depth]


def _suite(out: dict, name: str) -> list[str]:
    problems = []
    if out.get("suite") != name:
        problems.append(f"suite is {out.get('suite')!r}, not {name!r}")
    if out.get("pass") is not True:
        problems.append(f"suite {name} reports pass={out.get('pass')}")
    problems += [f"check {c['name']} failed" for c in out.get("checks", []) if not c["pass"]]
    return problems


def check_routes(cmd, out: dict, refs, seed: int) -> list[str]:
    dim = int(cmd.argv[cmd.argv.index("--dim") + 1])
    order = int(cmd.argv[cmd.argv.index("--order") + 1])
    eps = Fraction(cmd.argv[cmd.argv.index("--epsilon") + 1])
    expected = [f"density_routes_j{j}_n{dim}" for j in range(1, order + 1)]
    expected += [f"alpha_routes_j{j}_n{dim}_eps{eps}" for j in _middle_orders(dim, eps, order)]
    problems = _suite(out, "routes")
    names = [c["name"] for c in out.get("checks", [])]
    if names != expected:
        problems.append(f"checks {names} != expected {expected}")
    return problems


def row_integral(value: float, err: float, ref: dict) -> str | None:
    """|value - int_R| <= err + |int_R - int_box|, plus the reference's own
    error and the rounding of the reference to a double."""
    whole, box = ref["whole"], ref["box"]
    allowed = err + abs(whole - box) + ref["ref_err"] + 4 * EPS * max(abs(whole), abs(box))
    if not abs(value - whole) <= allowed:
        return f"value {value!r} vs integral over R {whole!r}: off by " \
               f"{abs(value - whole):.3g} > {allowed:.3g}"
    return None


# Integrals over R^n of a_j for V = exp(-|x|^2), derived by hand; they pin
# the density text and the sympy reference pipeline together.
KNOWN_GAUSSIAN = {(2, 1): -math.pi, (2, 2): math.pi / 4, (2, 3): -5 * math.pi / 36,
                  (1, 6): 0.0291324831017574803}


def check_table(cmd, out: dict, refs, seed: int) -> list[str]:
    dim = int(cmd.argv[cmd.argv.index("--dim") + 1])
    order = int(cmd.argv[cmd.argv.index("--order") + 1])
    regularized = cmd.kind == "regtrace"
    problems = []
    if out.get("dim") != dim or [r["j"] for r in out["rows"]] != list(range(1, order + 1)):
        return [f"rows are not j=1..{order} for n={dim}"]
    eps = Fraction(cmd.argv[cmd.argv.index("--epsilon") + 1]) if regularized else None
    depth = math.floor(Fraction(dim) / eps) if regularized else None
    for row in out["rows"]:
        j, value, err = row["j"], row["value"], row["err"]
        tag = f"{cmd.label} j={j}"
        poly = R.parse_density(row["density"], dim)
        if regularized and 2 * j < depth + 2:
            if poly or value != 0.0 or err != 0.0:
                problems.append(f"{tag}: zero-regime alpha_j is not 0")
        elif not poly:
            problems.append(f"{tag}: density is 0 outside the zero regime")
        if not regularized:
            problems += density_properties(poly, j, dim, seed)
        elif any(R.weight(m) != 2 * j for m in poly):
            problems.append(f"{tag}: density is not homogeneous of weight {2 * j}")
        if regularized and any(eps * len(m) + sum(sum(nu) for nu in m) <= dim for m in poly):
            problems.append(f"{tag}: a monomial decays too slowly to integrate over R^{dim}")
        if not (math.isfinite(value) and math.isfinite(err) and err >= 0):
            problems.append(f"{tag}: value {value} err {err}")
            continue
        ref = refs.integrals(cmd.potential, dim, cmd.box, row["density"])
        miss = row_integral(value, err, ref)
        if miss:
            problems.append(f"{tag}: {miss}")
        known = KNOWN_GAUSSIAN.get((dim, j)) if cmd.potential == R.GAUSSIAN else None
        if known is not None and not is_close(ref["whole"], known, 1e-14):
            problems.append(f"{tag}: integral over R {ref['whole']!r} != {known!r}")
        want = (R.beta_reference if regularized else R.b_reference)(value, j, dim)
        got = row["b_or_beta"]
        if (want is None) != (got is None):
            problems.append(f"{tag}: b/beta present={got is not None}, expected {want is not None}")
        elif want is not None and not is_close(got, want, 1e-12):
            problems.append(f"{tag}: b/beta {got!r} != {want!r} from math.gamma")
    return problems


def _gaussian_jet_at_zero(k: int) -> int:
    """D^k exp(-x^2) at 0: (-1)^(k/2) k!/(k/2)! for even k, 0 for odd."""
    return 0 if k % 2 else (-1) ** (k // 2) * math.factorial(k) // math.factorial(k // 2)


def check_fk(cmd, out: dict, refs, seed: int) -> list[str]:
    problems = _suite(out, "fk")
    if [c["name"] for c in out.get("checks", [])] != ["fk_vs_3term_expansion"]:
        return problems + ["fk suite does not hold exactly the 3-term check"]
    c = out["checks"][0]
    t = 0.05  # the CLI default
    # Textbook a_1..a_3 of -d^2/dx^2 + V at x = 0 for V = exp(-x^2).
    v, v1, v2, _, v4 = (_gaussian_jet_at_zero(k) for k in range(5))
    a = [-v, Fraction(v * v, 2) - Fraction(v2, 6),
         -Fraction(v ** 3, 6) + Fraction(v1 * v1, 12) + Fraction(v * v2, 6) - Fraction(v4, 60)]
    target = (4 * math.pi * t) ** -0.5 * (1 + sum(float(aj) * t ** (i + 1)
                                                  for i, aj in enumerate(a)))
    if not is_close(c["target"], target, 1e-12):
        problems.append(f"fk target {c['target']!r} != textbook 3-term value {target!r}")
    if not abs(c["observed"] - c["target"]) <= c["tolerance"]:
        problems.append("fk estimate outside its own tolerance")
    return problems


def check_trace(cmd, out: dict, refs, seed: int) -> list[str]:
    problems = _suite(out, "trace")
    names = [c["name"] for c in out.get("checks", [])]
    if names != ["trace_fit_c1", "trace_fit_c2"]:
        return problems + [f"trace suite checks are {names}"]
    # c_j targets are the integrals of a_1 = -V and a_2 = V^2/2 - V''/6
    for c, want in zip(out["checks"], (-math.sqrt(math.pi), math.sqrt(2 * math.pi) / 4)):
        if not is_close(c["target"], want, 1e-8):
            problems.append(f"{c['name']} target {c['target']!r} != {want!r}")
        rel = float(re.match(r"([\d.]+)%", c["tolerance"]).group(1)) / 100
        if not abs(c["observed"] - c["target"]) <= rel * abs(c["target"]):
            problems.append(f"{c['name']} observed outside {c['tolerance']}")
    return problems


def check_taylor(cmd, out: dict, refs, seed: int) -> list[str]:
    problems = _suite(out, "taylor")
    order = 3  # the CLI default
    expected = [f"taylor_slope_N{order}_seed{s}" for s in (seed, seed + 1, seed + 2)]
    expected += [f"taylor_family_equals_operator_family_m{m}" for m in range(order + 1)]
    names = [c["name"] for c in out.get("checks", [])]
    if names != expected:
        return problems + [f"taylor checks {names} != {expected}"]
    for c in out["checks"][:3]:
        if not order + 0.8 <= c["observed"] <= order + 1.3:
            problems.append(f"{c['name']}: slope {c['observed']} outside [N+0.8, N+1.3]")
    return problems


_CHECKS = {"local": check_local, "routes": check_routes, "coeffs": check_table,
           "regtrace": check_table, "fk": check_fk, "trace": check_trace,
           "taylor": check_taylor}


def check(cmd, stdout: str, refs, seed: int) -> list[str]:
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return _CHECKS[cmd.kind](cmd, out, refs, seed)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"output has an unexpected shape: {exc!r}"]
