"""Numeric pipeline: evaluate symbolic densities for a concrete potential,
integrate them over the truncated box [-L, L]^n (not over R^n), and convert
integrated invariants into scattering phase / trace-distribution
coefficients.

All exact Gamma and (4 pi)^(-n/2) factors are combined in HalfIntScalar
before any float conversion; floats only enter through quadrature and the
final multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from ._lazy import np
from .diffpoly import DiffPoly
from .halfint import HalfIntScalar, gamma_half_integer
from .invariants import InvariantResult, monomial_decay_weight
from .potentials import PotentialExpr, taylor_derivatives


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within budget; carries the partial
    result and its error estimate."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass
class QuadratureConfig:
    half_width: float = 12.0     # integration box [-L, L]^n


QUAD_TOL = 1e-9  # absolute and relative error target of every integral

QUAD_LIMIT = 200  # subintervals per axis at most

EVAL_CHUNK = 2048  # nodes per Taylor pass, so memory does not grow with a round


def _density_values(density: DiffPoly, potential: PotentialExpr,
                    coords: list[np.ndarray]) -> np.ndarray:
    """A DiffPoly density for a concrete potential on node arrays, taking
    every D^nu V it needs from one Taylor-mode pass per chunk of nodes.  The
    terms are summed in sorted monomial order, so equal densities give equal
    floats whatever order their terms were built in."""
    terms = sorted(density.terms.items())
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    flat = [np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in coords]
    nus = density.jet_variables()
    total = np.zeros(int(np.prod(shape)))
    for lo in range(0, total.size, EVAL_CHUNK):
        chunk = [c[lo:lo + EVAL_CHUNK] for c in flat]
        derivs = taylor_derivatives(potential, nus, chunk)
        out = total[lo:lo + EVAL_CHUNK]  # a view: the sums land in total
        for mono, coeff in terms:
            prod = np.full(out.shape, float(coeff))
            for nu in mono:
                prod *= derivs[nu]
            out += prod
    return total.reshape(shape)


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


MAX_ROUND_NODES = 1 << 18  # integrand nodes evaluated per round at most


def _contract(values: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Apply one 1-D rule per trailing axis of values (cells, 21, ..., 21)."""
    for w in reversed(weights):
        values = values @ w
    return values


def _apply_rules(f, centers: np.ndarray, halves: np.ndarray):
    """Kronrod estimate, |Kronrod - Gauss| error and the axis to bisect for
    each cell (center, half-widths), from one batched call of f."""
    cells, n = centers.shape
    gk_nodes, gk_kronrod, gk_gauss = _gk_rule()
    offsets = np.stack(np.meshgrid(*([gk_nodes] * n), indexing="ij"), axis=-1).reshape(-1, n)
    nodes = centers[:, None, :] + halves[:, None, :] * offsets[None, :, :]
    values = np.asarray(f([nodes[..., a].ravel() for a in range(n)]), dtype=float)
    values = values.reshape((cells,) + (len(gk_nodes),) * n)
    volume = np.prod(halves, axis=1)
    kronrod = volume * _contract(values, [gk_kronrod] * n)
    gauss = volume * _contract(values, [gk_gauss] * n)
    # the axis along which swapping Kronrod for Gauss moves the estimate most
    per_axis = [np.abs(kronrod - volume * _contract(
        values, [gk_gauss if b == a else gk_kronrod for b in range(n)]))
        for a in range(n)]
    axis = np.argmax(np.stack(per_axis, axis=1), axis=1)
    return kronrod, np.abs(kronrod - gauss), axis


def _subintervals_per_axis(centers: np.ndarray, halves: np.ndarray) -> int:
    """Largest number of subintervals the cell endpoints cut any axis into."""
    return max(len(np.unique(np.concatenate([c - h, c + h]))) - 1
               for c, h in zip(centers.T, halves.T))


def _adaptive_gauss_kronrod(f, n: int, config: QuadratureConfig) -> tuple[float, float]:
    """Globally adaptive tensor-product G10/K21 quadrature of f over the box
    [-L, L]^n, with f taking one coordinate array per axis.

    Each round bisects the fewest largest-error cells that hold all but half
    a tolerance of the total error, each along the axis where its Gauss and
    Kronrod estimates differ most, and evaluates all new nodes in one call
    of f.  Returns (value, error), the error being the sum of the
    cells' |Kronrod - Gauss|.  Raises QuadratureError, carrying the value and
    error reached, when a bisection would cut an axis into more than
    QUAD_LIMIT subintervals.
    """
    centers = np.zeros((1, n))
    halves = np.full((1, n), float(config.half_width))
    est, err, axis = _apply_rules(f, centers, halves)
    per_round = max(1, MAX_ROUND_NODES // (2 * len(_gk_rule()[0]) ** n))
    while True:
        value, error = float(np.sum(est)), float(np.sum(err))
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
        child = _apply_rules(f, child_centers, child_halves)
        centers, halves = new_centers, new_halves
        est, err, axis = (np.concatenate([old[keep], new]) for old, new in zip((est, err, axis), child))


def integrate_density(density: DiffPoly, potential: PotentialExpr, n: int,
                      config: QuadratureConfig | None = None) -> tuple[float, float]:
    """Adaptive quadrature of the density over the truncated box [-L, L]^n.

    Returns (value, error estimate).  Raises ValueError unless L is positive
    and finite, and QuadratureError (carrying the partial result) if the
    adaptive scheme does not converge.
    """
    config = config or QuadratureConfig()
    if not 0 < config.half_width < np.inf:
        raise ValueError(
            f"box half-width must be positive and finite, got {config.half_width}")
    if density.is_zero():
        return 0.0, 0.0
    return _adaptive_gauss_kronrod(
        lambda coords: _density_values(density, potential, coords), n, config)


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


def spectral_prefactor(j: int, n: int) -> HalfIntScalar | None:
    """Exact (4 pi)^(-n/2) / Gamma(n/2 - j); None when Gamma is at a pole."""
    g = gamma_half_integer(n - 2 * j)
    if g is None:
        return None
    four_pi = HalfIntScalar(Fraction(1, 2 ** n), -n)  # (4 pi)^(-n/2)
    return four_pi / g


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
    # a zero a_j gives 0.0, not the -0.0 of a negative factor
    return a_j * float(factor) if a_j else 0.0


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


@dataclass
class CoefficientRow:
    j: int
    density_text: str
    value: float
    b_or_beta: float | None
    route: str
    err: float


@dataclass
class CoefficientTable:
    dim: int
    rows: list[CoefficientRow] = field(default_factory=list)
    epsilon: Fraction | None = None

    COLUMNS = ("j", "value", "b_or_beta", "err", "route", "density")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "epsilon": str(self.epsilon) if self.epsilon is not None else None,
            "rows": [
                {"j": r.j, "density": r.density_text, "value": r.value,
                 "b_or_beta": r.b_or_beta, "route": r.route, "err": r.err}
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        cells = [[str(r.j), f"{r.value:.9g}",
                  "absent" if r.b_or_beta is None else f"{r.b_or_beta:.9g}",
                  f"{r.err:.3g}", r.route, r.density_text]
                 for r in self.rows]
        widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
                  for i, h in enumerate(self.COLUMNS)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(self.COLUMNS, widths))]
        for c in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
        return "\n".join(lines)


def coefficient_table(invariants: list[InvariantResult],
                      potential: PotentialExpr, n: int,
                      config: QuadratureConfig | None = None) -> CoefficientTable:
    """Integrate a list of densities and derive each row's b_j, or beta_j for
    a regularized density (one with an epsilon)."""
    config = config or QuadratureConfig()
    epsilon = invariants[0].epsilon if invariants else None
    table = CoefficientTable(dim=n, epsilon=epsilon)
    for inv in invariants:
        value, err = integrate_density(inv.density, potential, n, config)
        if n == 1 and inv.epsilon is not None and not inv.density.is_zero():
            err += box_tail_1d(inv.density, potential, inv.epsilon, config.half_width)
        if inv.epsilon is None:
            extra = b_from_a(value, inv.j, n)
        else:
            extra = beta_from_alpha(value, inv.j, n)
        table.rows.append(CoefficientRow(
            j=inv.j, density_text=inv.density.to_text(), value=value,
            b_or_beta=extra, route=inv.route, err=err))
    return table
