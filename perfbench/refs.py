"""References computed apart from heatinv, and the density-text reader the
checks share.

Nothing here imports heatinv.  Densities are read back from the text the
command line prints (`-1/6*V^3 + 1/12*D[1]V^2 ...`), and every reference is
built from that text plus sympy/mpmath/math only:

* exact Gaussian integrals of a density for V = exp(-|x|^2), from sympy's own
  derivatives of V (`coeffs` rows);
* mpmath integrals over R and over the quadrature box for the long-range
  V = (1 + x^2)^(-1/6) (`regtrace` rows);
* b_j / beta_j recomputed with math.gamma, with the absent/present pattern;
* exact t-series of Mehler's kernel and of the linear-potential kernel, the
  targets for a_j evaluated on the jet of a quadratic or linear potential.

The sympy/mpmath integrals are cached in perfbench/out/references.json,
keyed by potential, dimension, box and density text.  `python3
perfbench/refs.py` deletes that cache and rebuilds it for every row the
workloads use.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
CACHE_FILE = OUT_DIR / "references.json"

# ---------------------------------------------------------------------------
# Density text
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"^(?:V|D\[(\d+(?:,\d+)*)\]V)(?:\^(\d+))?$")
_COEFF = re.compile(r"^\d+(?:/\d+)?$")


def parse_density(text: str, dim: int) -> dict[tuple, Fraction]:
    """Density text -> {monomial: coefficient}; a monomial is a tuple of
    multi-indices sorted in descending order, one per V factor."""
    parts = text.strip().split(" ")
    if parts == ["0"]:
        return {}
    if len(parts) % 2 == 0:
        raise ValueError(f"unreadable density {text!r}")
    terms = [("-", parts[0][1:]) if parts[0].startswith("-") else ("+", parts[0])]
    for op, body in zip(parts[1::2], parts[2::2]):
        if op not in "+-":
            raise ValueError(f"unreadable density {text!r}")
        terms.append((op, body))
    poly: dict[tuple, Fraction] = {}
    for op, body in terms:
        coeff = Fraction(-1 if op == "-" else 1)
        factors = body.split("*")
        if _COEFF.match(factors[0]):
            coeff *= Fraction(factors.pop(0))
        mono: list[tuple[int, ...]] = []
        for factor in factors:
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"unreadable factor {factor!r} in {text!r}")
            nu = tuple(int(e) for e in m.group(1).split(",")) if m.group(1) else (0,) * dim
            if len(nu) != dim:
                raise ValueError(f"factor {factor!r} is not {dim}-dimensional")
            mono.extend([nu] * int(m.group(2) or 1))
        key = tuple(sorted(mono, reverse=True))
        if not mono or key in poly:
            raise ValueError(f"constant or repeated monomial in {text!r}")
        poly[key] = coeff
    return poly


def weight(mono) -> int:
    """2 per V factor plus its derivative order; a_j is homogeneous of 2j."""
    return sum(2 + sum(nu) for nu in mono)


def permute(poly: dict, perm: tuple[int, ...]) -> dict:
    """Relabel axis i as perm[i] in every factor."""
    out = {}
    for mono, c in poly.items():
        key = tuple(sorted((tuple(nu[perm[i]] for i in range(len(nu))) for nu in mono),
                           reverse=True))
        out[key] = c
    return out


def axis_permutations(dim: int):
    return list(permutations(range(dim)))


def evaluate(poly: dict, jet) -> Fraction:
    """Exact value of a density for the jet {nu: D^nu V(x)} (missing = 0)."""
    total = Fraction(0)
    for mono, c in poly.items():
        term = c
        for nu in mono:
            term *= jet.get(nu, 0)
            if not term:
                break
        total += term
    return total


# ---------------------------------------------------------------------------
# Exact t-series of closed-form kernels (truncated power series of Fractions)
# ---------------------------------------------------------------------------


def _mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if ai:
            for k, bk in enumerate(b[:order + 1 - i]):
                out[i + k] += ai * bk
    return out


def _exp(a, order):
    """exp of a series with zero constant term."""
    assert a[0] == 0
    out = [Fraction(1)] + [Fraction(0)] * order
    term = list(out)
    for k in range(1, order + 1):
        term = [c / k for c in _mul(term, a, order)]
        out = [o + t for o, t in zip(out, term)]
    return out


def _log1p(a, order):
    """log(1 + a) for a series with zero constant term."""
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        power = _mul(power, a, order)
        out = [o + Fraction((-1) ** (k + 1), k) * p for o, p in zip(out, power)]
    return out


def _div(a, b, order):
    out = []
    for k in range(order + 1):
        s = a[k] - sum(out[i] * b[k - i] for i in range(k))
        out.append(s / b[0])
    return out


def mehler_series(w, x, order) -> list[Fraction]:
    """t-series of (4 pi t)^(n/2) e^(-tH)(x, x) for V = sum_i w_i x_i^2, i.e.
    prod_i sqrt(2 s t / sinh 2 s t) exp(-s x_i^2 tanh s t) with s^2 = w_i.
    Every coefficient is a polynomial in w_i, so rational w is exact."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for wi, xi in zip(w, x):
        # sinh(2st)/(2st) = sum (4 w)^k t^(2k) / (2k+1)!
        sinhc = [Fraction(0)] * (order + 1)
        for k in range(0, order // 2 + 1):
            sinhc[2 * k] = Fraction(4 * wi) ** k / math.factorial(2 * k + 1)
        log_s = _log1p([Fraction(0)] + sinhc[1:], order)
        root = _exp([-c / 2 for c in log_s], order)          # sinhc^(-1/2)
        # s tanh(st) = sinh(st) s / cosh(st), both even/odd series in w
        sinh_s = [Fraction(0)] * (order + 1)
        cosh_ = [Fraction(0)] * (order + 1)
        for k in range(0, order // 2 + 1):
            cosh_[2 * k] = Fraction(wi) ** k / math.factorial(2 * k)
            if 2 * k + 1 <= order:
                sinh_s[2 * k + 1] = Fraction(wi) ** (k + 1) / math.factorial(2 * k + 1)
        s_tanh = _div(sinh_s, cosh_, order)
        gauss = _exp([-xi * xi * c for c in s_tanh], order)
        out = _mul(out, _mul(root, gauss, order), order)
    return out


def linear_series(v0, grad_sq, order) -> list[Fraction]:
    """t-series of exp(-t V + t^3 |grad V|^2 / 12), the diagonal for a linear V."""
    a = [Fraction(0)] * (order + 1)
    a[1] = -Fraction(v0)
    if order >= 3:
        a[3] = Fraction(grad_sq, 12)
    return _exp(a, order)


def quadratic_jet(w, x) -> dict:
    dim = len(w)
    jet = {(0,) * dim: sum(wi * xi * xi for wi, xi in zip(w, x))}
    for i in range(dim):
        e1 = tuple(1 if k == i else 0 for k in range(dim))
        e2 = tuple(2 if k == i else 0 for k in range(dim))
        jet[e1] = 2 * w[i] * x[i]
        jet[e2] = 2 * w[i]
    return jet


def linear_jet(c, g, x) -> dict:
    dim = len(g)
    jet = {(0,) * dim: c + sum(gi * xi for gi, xi in zip(g, x))}
    for i in range(dim):
        jet[tuple(1 if k == i else 0 for k in range(dim))] = g[i]
    return jet


# ---------------------------------------------------------------------------
# b_j and beta_j
# ---------------------------------------------------------------------------


def b_reference(value: float, j: int, n: int) -> float | None:
    """(4 pi)^(-n/2) value / Gamma(n/2 - j); None where Gamma has a pole."""
    arg = n / 2 - j
    if arg <= 0 and arg == int(arg):
        return None
    return value * (4 * math.pi) ** (-n / 2) / math.gamma(arg)


def beta_reference(value: float, j: int, n: int) -> float | None:
    if n % 2 == 0:
        return None
    return b_reference(value, j, n)


# ---------------------------------------------------------------------------
# Integrals of densities over R^n and over the box [-L, L]^n
# ---------------------------------------------------------------------------

GAUSSIAN = "exp(-|x|^2)"
POWR = "(1+x1^2)^(-1/6)"


def _gaussian_integrals(poly: dict, dim: int, box: float) -> dict:
    import mpmath as mp
    import sympy as sp

    xs = sp.symbols(f"x1:{dim + 1}", real=True)
    v = sp.exp(-sum(x * x for x in xs))
    quotient = {}  # nu -> polynomial P with D^nu V = P V, by sympy.diff

    def factor_poly(nu):
        if nu not in quotient:
            spec = [a for pair in zip(xs, nu) for a in pair]
            quotient[nu] = sp.Poly(sp.expand(sp.diff(v, *spec) / v), *xs)
        return quotient[nu]

    mp.mp.dps = 40
    whole, boxed = sp.Integer(0), mp.mpf(0)
    for mono, c in poly.items():
        prod = sp.Poly(1, *xs)
        for nu in mono:
            prod = prod * factor_poly(nu)
        m = len(mono)  # V^m = exp(-m |x|^2)
        for powers, coeff in prod.terms():
            term_exact = sp.Rational(c.numerator, c.denominator) * coeff
            term_box = mp.mpf(c.numerator) / c.denominator * mp.mpf(int(coeff.p)) / int(coeff.q)
            for k in powers:
                if k % 2:
                    term_exact, term_box = 0, 0
                    break
                half = sp.Rational(k + 1, 2)
                term_exact *= sp.gamma(half) / sp.Integer(m) ** half
                # int_{-L}^{L} x^k e^(-m x^2) = m^(-(k+1)/2) * lower gamma(m L^2)
                term_box *= mp.gammainc(mp.mpf(k + 1) / 2, 0, m * mp.mpf(box) ** 2) \
                    / mp.mpf(m) ** (mp.mpf(k + 1) / 2)
            whole += term_exact
            boxed += term_box
    return {"whole": float(sp.N(whole, 30)), "whole_exact": str(whole),
            "box": float(boxed), "ref_err": 0.0}


def _powr_integrals(poly: dict, box: float) -> dict:
    import mpmath as mp
    import sympy as sp

    x = sp.Symbol("x1", real=True)
    v = (1 + x ** 2) ** sp.Rational(-1, 6)
    expr = sp.Integer(0)
    for mono, c in poly.items():
        term = sp.Rational(c.numerator, c.denominator)
        for (k,) in mono:
            term *= sp.diff(v, x, k)
        expr += term
    f = sp.lambdify(x, expr, "mpmath")
    mp.mp.dps = 30
    inner = [0, 1, 10, 100, box]
    box_half, e1 = mp.quad(f, inner, error=True)
    tail_half, e2 = mp.quad(f, [box, mp.inf], error=True)
    # densities have even total derivative order, so the integrand is even
    return {"whole": float(2 * (box_half + tail_half)), "box": float(2 * box_half),
            "ref_err": float(2 * (e1 + e2))}


class References:
    """Row integrals by (potential, dim, box, density text), cached on disk."""

    def __init__(self, path: Path = CACHE_FILE):
        self.path = path
        try:
            self.table = json.loads(path.read_text())
        except (OSError, ValueError):
            self.table = {}
        self.dirty = False

    def integrals(self, potential: str, dim: int, box: float, text: str) -> dict:
        key = f"{potential}|{dim}|{box!r}|{text}"
        if key not in self.table:
            poly = parse_density(text, dim)
            if potential == GAUSSIAN:
                self.table[key] = _gaussian_integrals(poly, dim, box)
            elif potential == POWR and dim == 1:
                self.table[key] = _powr_integrals(poly, box)
            else:
                raise ValueError(f"no reference for potential {potential}")
            self.dirty = True
        return self.table[key]

    def save(self):
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.table, indent=1, sort_keys=True))
        tmp.replace(self.path)
        self.dirty = False


def rebuild() -> int:
    """Delete the cache and recompute every row integral the workloads use,
    reading the densities from the commands' own output."""
    import subprocess
    from workloads import COMMANDS, command_env, ROOT, python_cmd

    if CACHE_FILE.exists():
        CACHE_FILE.unlink()
    refs = References()
    for cmd in COMMANDS["coeffs"](0):
        out = subprocess.run(python_cmd(cmd.argv), env=command_env(cmd), cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
        table = json.loads(out)
        for row in table["rows"]:
            r = refs.integrals(cmd.potential, table["dim"], cmd.box, row["density"])
            print(f"{cmd.label} j={row['j']}: whole={r['whole']!r} box={r['box']!r}")
    refs.save()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(rebuild())
