"""Numeric pipeline: evaluate symbolic densities for a concrete potential,
integrate them, and convert integrated invariants into scattering phase /
trace-distribution coefficients.

A table integrates over R^n when the potential is structurally radial
(potentials.is_radial): its densities are radial too, since the local
invariants are O(n)-invariant polynomials in the jets, so each row is
|S^(n-1)| times one integral over the half-line [0, inf), which the
G10/K21 rule takes in one dimension on [0, 1) by r = L (u/(1-u))^3.  Any
other potential is integrated over the truncated box [-L, L]^n (not over
R^n), as integrate_density does.

All exact Gamma and (4 pi)^(-n/2) factors are combined as one exact pair
(q, k), standing for q * pi^(k/2), before any float conversion; floats only
enter through quadrature and the final multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._lazy import np
from .diffpoly import DiffPoly
from .halfint import gamma_half_integer
from .invariants import InvariantResult, monomial_decay_weight
from .potentials import PotentialExpr, is_radial, taylor_derivatives


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within budget; carries the partial
    result and its error estimate."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadratureConfig:
    half_width: float = 12.0     # box [-L, L]^n, or the radial half-line map's scale L


QUAD_TOL = 1e-9  # absolute and relative error target of every integral

QUAD_LIMIT = 200  # subintervals per axis at most

EVAL_CHUNK = 2048  # integrand nodes per call, so its temporaries do not grow with a round


def _density_values(density: DiffPoly, potential: PotentialExpr,
                    coords: list[np.ndarray]) -> np.ndarray:
    """A DiffPoly density for a concrete potential on equal-length 1-D node
    arrays, one per axis, taking every D^nu V it needs from one Taylor-mode
    pass.  The terms are summed in the sorted order of `terms`, so equal
    densities give equal floats whatever order their terms were built in."""
    derivs = taylor_derivatives(potential, density.jet_variables(), coords)
    total = np.zeros(len(coords[0]))
    for mono, coeff in density.terms.items():
        prod = np.full(total.shape, float(coeff))
        for nu in mono:
            prod *= derivs[nu]
        total += prod
    return total


def evaluate_density(density: DiffPoly, potential: PotentialExpr, point) -> float:
    """Numeric value of a symbolic density at one point."""
    coords = [np.array([float(x)]) for x in point]
    return float(_density_values(density, potential, coords)[0])


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# Gauss-Kronrod G10/K21 on [-1, 1] (QUADPACK qk21).  The 21 Kronrod nodes
# contain the 10 Gauss nodes, so one set of values gives both estimates.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208936940846, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)

@lru_cache(maxsize=None)
def _gk_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 21 nodes, Kronrod weights and Gauss weights (zero off the Gauss
    nodes) in ascending node order, built on first use so that importing
    this module loads no numpy."""
    xgk, wgk = np.array(_XGK), np.array(_WGK)
    nodes = np.concatenate([-xgk[:-1], xgk[::-1]])
    kronrod = np.concatenate([wgk[:-1], wgk[::-1]])
    gauss = np.zeros(21)
    gauss[1:10:2] = _WG
    gauss[19:10:-2] = _WG
    return nodes, kronrod, gauss


# new cells' nodes per round at most, save that a bisection round adds at
# least one cell pair of 2 * 21^n nodes (388,962 at n = 4); a round holds
# one value per node, and integrate_density refuses an n whose one cell of
# 21^n nodes passes it
MAX_ROUND_NODES = 1 << 18

# integrand nodes per integral at most, first cell included; a round that
# would pass it raises QuadratureError instead, which bounds an integral's time
MAX_INTEGRAL_NODES = 1 << 27


def _contract(values: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Apply one 1-D rule per trailing axis of values (cells, 21, ..., 21)."""
    for w in reversed(weights):
        values = values @ w
    return values


def _apply_rules(f, centers: np.ndarray, halves: np.ndarray):
    """Kronrod estimate, |Kronrod - Gauss| error and the axis to bisect for
    each cell (center, half-widths).

    f sees the cells' nodes in order, in slices of at most EVAL_CHUNK built
    from their flat indices: index i is node (d_0, ..., d_(n-1)) of cell
    i // 21^n, where the d_a are the base-21 digits of i % 21^n, d_0 the
    most significant, and d_a picks the Kronrod node on axis a.
    Only the round's values are kept, not its coordinates."""
    cells, n = centers.shape
    gk_nodes, gk_kronrod, gk_gauss = _gk_rule()
    shape = (cells,) + (len(gk_nodes),) * n
    values = np.empty(math.prod(shape))
    for lo in range(0, len(values), EVAL_CHUNK):
        cell, *digits = np.unravel_index(
            np.arange(lo, min(lo + EVAL_CHUNK, len(values))), shape)
        values[lo:lo + EVAL_CHUNK] = f(
            [centers[cell, a] + halves[cell, a] * gk_nodes[digits[a]] for a in range(n)])
    values = values.reshape(shape)
    volume = np.prod(halves, axis=1)
    kronrod = volume * _contract(values, [gk_kronrod] * n)
    gauss = volume * _contract(values, [gk_gauss] * n)
    # the axis along which swapping Kronrod for Gauss moves the estimate most.
    # Bisecting the longest axis instead gives the same cells on isotropic
    # Gaussians, but 2.5 to 8 times the cells, and the time, where V varies
    # faster along one axis (exp(-x1^2-x2^2-16*x3^2): 211 -> 947 cells)
    per_axis = [np.abs(kronrod - volume * _contract(
        values, [gk_gauss if b == a else gk_kronrod for b in range(n)]))
        for a in range(n)]
    axis = np.argmax(np.stack(per_axis, axis=1), axis=1)
    return kronrod, np.abs(kronrod - gauss), axis


def _subintervals_per_axis(centers: np.ndarray, halves: np.ndarray) -> int:
    """Largest number of subintervals the cell endpoints cut any axis into."""
    return max(np.count_nonzero(np.diff(np.sort(np.concatenate([c - h, c + h]))))
               for c, h in zip(centers.T, halves.T))


def _adaptive_gauss_kronrod(f, n: int, center: float,
                            half_width: float) -> tuple[float, float]:
    """Globally adaptive tensor-product G10/K21 quadrature of f over the cube
    of that center and half-width on every axis, with f taking one
    coordinate array per axis.

    Each round bisects the fewest largest-error cells that hold all but half
    a tolerance of the total error, each along the axis where its Gauss and
    Kronrod estimates differ most, and evaluates the new cells' nodes in
    calls of f on at most EVAL_CHUNK nodes.  Returns (value, error), the
    error being the sum of the cells' |Kronrod - Gauss|.  Raises
    QuadratureError, carrying the value and error reached, when they stop
    being finite floats, or when a bisection would cut an axis into more
    than QUAD_LIMIT subintervals, take the integral past MAX_INTEGRAL_NODES
    nodes, or make a cell so narrow that its outermost node rounds onto its
    edge, so that f never sees a node on the cube's boundary.
    """
    outermost = _XGK[0]
    # an overflow in the integrand or in the cell rules shows as a
    # non-finite value or error, which the first check of each round refuses
    with np.errstate(over="ignore", invalid="ignore"):
        centers = np.full((1, n), float(center))
        halves = np.full((1, n), float(half_width))
        est, err, axis = _apply_rules(f, centers, halves)
        cell_nodes = len(_gk_rule()[0]) ** n
        spent = cell_nodes
        per_round = max(1, MAX_ROUND_NODES // (2 * cell_nodes))
        while True:
            value, error = float(np.sum(est)), float(np.sum(err))
            if not (math.isfinite(value) and math.isfinite(error)):
                raise QuadratureError(
                    f"quadrature overflowed float64: value {value}, error {error}",
                    value, error)
            tol = QUAD_TOL * max(1.0, abs(value))
            if error <= tol:
                return value, error
            order = np.argsort(err)[::-1]
            count = int(np.searchsorted(np.cumsum(err[order]), error - tol / 2)) + 1
            pick = order[:min(count, per_round, len(order))]
            rows = np.arange(len(pick))
            child_halves = halves[pick].copy()
            child_halves[rows, axis[pick]] /= 2
            shift = np.zeros_like(child_halves)
            shift[rows, axis[pick]] = child_halves[rows, axis[pick]]
            child_centers = np.concatenate([centers[pick] - shift, centers[pick] + shift])
            child_halves = np.concatenate([child_halves, child_halves])
            keep = np.ones(len(est), dtype=bool)
            keep[pick] = False
            new_centers = np.concatenate([centers[keep], child_centers])
            new_halves = np.concatenate([halves[keep], child_halves])
            if _subintervals_per_axis(new_centers, new_halves) > QUAD_LIMIT:
                raise QuadratureError(
                    f"quadrature did not converge: error {error:.3g} above tolerance"
                    f" {tol:.3g} with {QUAD_LIMIT} subintervals per axis", value, error)
            reach = child_halves * outermost
            if (np.any(child_centers + reach == child_centers + child_halves)
                    or np.any(child_centers - reach == child_centers - child_halves)):
                raise QuadratureError(
                    f"quadrature did not converge: error {error:.3g} above tolerance"
                    f" {tol:.3g} in cells too narrow for distinct float64 nodes",
                    value, error)
            spent += len(child_centers) * cell_nodes
            if spent > MAX_INTEGRAL_NODES:
                raise QuadratureError(
                    f"quadrature did not converge: error {error:.3g} above tolerance"
                    f" {tol:.3g} within {MAX_INTEGRAL_NODES} nodes", value, error)
            child = _apply_rules(f, child_centers, child_halves)
            centers, halves = new_centers, new_halves
            est, err, axis = (np.concatenate([old[keep], new])
                              for old, new in zip((est, err, axis), child))


def check_quadrature(n: int, config: QuadratureConfig,
                     potential: PotentialExpr | None = None):
    """Raise ValueError unless the half-width L is positive and finite and
    L^n is a finite float, and, on the box, unless one cell's 21^n nodes fit
    in MAX_ROUND_NODES (n <= 4).  A radial potential's table takes the
    half-line, 21 nodes per cell in every n; with no potential the box is
    checked."""
    if not 0 < config.half_width < math.inf:
        raise ValueError(
            f"box half-width must be positive and finite, got {config.half_width}")
    if math.prod([float(config.half_width)] * n) == math.inf:
        raise ValueError(
            f"box half-width {config.half_width} is too large in dimension {n}:"
            f" the cell volume L^{n} overflows a float")
    radial = potential is not None and is_radial(potential)
    if not radial and 21 ** n > MAX_ROUND_NODES:
        raise ValueError(
            f"quadrature in dimension {n} needs 21^{n} = {21 ** n} nodes per cell,"
            f" past the budget of {MAX_ROUND_NODES} nodes per round")


def integrate_density(density: DiffPoly, potential: PotentialExpr, n: int,
                      config: QuadratureConfig | None = None) -> tuple[float, float]:
    """Adaptive quadrature of the density over the truncated box [-L, L]^n.

    Returns (value, error estimate).  Raises ValueError where
    check_quadrature does, and QuadratureError (carrying the partial result)
    if the adaptive scheme does not converge.
    """
    config = config or QuadratureConfig()
    check_quadrature(n, config)
    if not density:
        return 0.0, 0.0
    return _adaptive_gauss_kronrod(
        lambda coords: _density_values(density, potential, coords), n, 0.0,
        config.half_width)


def _half_line_integral(density: DiffPoly, potential: PotentialExpr, n: int,
                        config: QuadratureConfig) -> tuple[float, float]:
    """The integral over R^n of a radial density f, as |S^(n-1)| times
    int_0^inf r^(n-1) f(r e_1) dr, which the G10/K21 rule takes on [0, 1)
    by r = L (u/(1-u))^3, L the config's half-width.

    Where f decays like r^(-w), the mapped integrand behaves like
    (1-u)^(3(w-n)-1) at u = 1: bounded for w >= n + 1/3, and unbounded and
    not integrable for w <= n, so that a density with no integral over R^n
    runs into the subinterval limit or into cells too narrow for distinct
    nodes, and raises QuadratureError, rather than converging.  Returns
    (value, error estimate), as integrate_density does."""
    if not density:
        return 0.0, 0.0
    # |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2), from the exact Gamma(n/2) = q pi^(k/2)
    q, k = gamma_half_integer(n)
    sphere = float(2 / q) * math.pi ** ((n - k) / 2)
    scale = float(config.half_width)

    def f(coords):
        t = 1.0 - coords[0]  # positive: no node lies on u = 1
        s = coords[0] / t
        r = scale * s ** 3
        # |S^(n-1)| r^(n-1) dr/du, with dr/du = 3 L s^2 / t^2
        weight = sphere * r ** (n - 1) * 3.0 * scale * (s / t) ** 2
        return weight * _density_values(density, potential,
                                         [r] + [np.zeros_like(r)] * (n - 1))

    return _adaptive_gauss_kronrod(f, 1, 0.5, 0.5)


def box_tail_1d(density: DiffPoly, potential: PotentialExpr, epsilon: Fraction,
                half_width: float) -> float:
    """Twice the leading-order integral of a 1-D density outside [-L, L].

    A density whose slowest monomial has decay weight w falls off like
    |x|^(-w), which leaves about (|f(L)| + |f(-L)|) L / (w - 1) beyond the box.
    """
    w = min(monomial_decay_weight(mono, epsilon) for mono in density.terms)
    if w <= 1:
        raise ValueError(f"density decays like |x|^(-{w}), which is not integrable over R")
    ends = _density_values(density, potential, [np.array([-half_width, half_width])])
    return 2.0 * float(np.sum(np.abs(ends))) * half_width / float(w - 1)


def spectral_prefactor(j: int, n: int) -> tuple[Fraction, int] | None:
    """Exact (4 pi)^(-n/2) / Gamma(n/2 - j) = q * pi^(k/2) as the pair
    (q, k); None when Gamma is at a pole."""
    g = gamma_half_integer(n - 2 * j)
    if g is None:
        return None
    q, k = g
    return Fraction(1, 2 ** n) / q, -n - k


def b_from_a(a_j: float, j: int, n: int) -> float | None:
    """Scattering-phase coefficient b_j = (4 pi)^(-n/2) a_j / Gamma(n/2 - j).

    None (absent) at Gamma poles: even n with j >= n/2.  Distinct from a
    numeric zero - the expansion terminates there rather than vanishing.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    factor = spectral_prefactor(j, n)
    if factor is None:
        return None
    q, k = factor
    # a zero a_j gives 0.0, not the -0.0 of a negative factor
    return a_j * (float(q) * math.pi ** (k / 2)) if a_j else 0.0


def beta_from_alpha(alpha_j: float, j: int, n: int) -> float | None:
    """Trace-distribution coefficient beta_j; absent for every even n (the
    distribution decays faster than any power there)."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if n % 2 == 0:
        return None
    return b_from_a(alpha_j, j, n)


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------


TABLE_COLUMNS = ("j", "value", "b_or_beta", "err", "route", "density")


def coefficient_table(invariants: list[InvariantResult],
                      potential: PotentialExpr, n: int,
                      config: QuadratureConfig | None = None) -> dict:
    """Integrate a list of densities and derive each row's b_j, or beta_j for
    a regularized density (one with an epsilon).  Each row is the integral
    over R^n for a radial potential (domain "R^n") and over [-L, L]^n for
    any other (domain "box").  Returns the JSON document that
    schemas/coefficient_table.schema.json describes."""
    config = config or QuadratureConfig()
    check_quadrature(n, config, potential)
    radial = is_radial(potential)
    epsilon = invariants[0].epsilon if invariants else None
    rows = []
    for inv in invariants:
        if radial:
            value, err = _half_line_integral(inv.density, potential, n, config)
        else:
            value, err = integrate_density(inv.density, potential, n, config)
            if n == 1 and inv.epsilon is not None and inv.density:
                err += box_tail_1d(inv.density, potential, inv.epsilon, config.half_width)
        if inv.epsilon is None:
            extra = b_from_a(value, inv.j, n)
        else:
            extra = beta_from_alpha(value, inv.j, n)
        rows.append({"j": inv.j, "density": inv.density.to_text(), "value": value,
                     "b_or_beta": extra, "route": inv.route, "err": err})
    return {"dim": n, "epsilon": None if epsilon is None else str(epsilon),
            "domain": "R^n" if radial else "box", "rows": rows}


def table_text(table: dict) -> str:
    """A coefficient table as aligned text columns, TABLE_COLUMNS in order."""
    cells = [[str(r["j"]), f'{r["value"]:.9g}',
              "absent" if r["b_or_beta"] is None else f'{r["b_or_beta"]:.9g}',
              f'{r["err"]:.3g}', r["route"], r["density"]]
             for r in table["rows"]]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(TABLE_COLUMNS)]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(line, widths))
                     for line in [TABLE_COLUMNS, *cells])
