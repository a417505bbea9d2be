"""Independent numerical checks of the symbolic machinery.

* Feynman-Kac Monte Carlo for the diagonal heat kernel, driven by Brownian
  bridge paths,
* a discretized 1-D relative heat trace, by a parabolic-contour quadrature
  of resolvent traces (numpy only, no eigensolve), with small-time
  expansion fitting,
* finite-matrix checks of the non-commutative Taylor remainder and of the
  alternating operator family it generates.

Everything is deterministic given the configured seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ._lazy import np
from .potentials import PotentialExpr, evaluate_array

# ---------------------------------------------------------------------------
# Feynman-Kac Monte Carlo
# ---------------------------------------------------------------------------

_CHUNK = 4096  # paths per block; fixed so results do not depend on memory
# path points (paths x (steps+1) x dim) per tile of a chunk: about 1 MB per
# float64 buffer, whatever the sampler's steps and dim; a tile is the next
# stretch of its chunk's normal stream, so its size moves no result
_TILE_POINTS = 1 << 17


def worker_count() -> int:
    """Worker cap for parallel sections, from the HEATINV_THREADS environment
    variable (default 1, i.e. serial).  Results never depend on this value;
    work is partitioned by fixed-size chunk before any parallel dispatch."""
    raw = os.environ.get("HEATINV_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HEATINV_THREADS must be an integer, got {raw!r}") from exc
    return max(1, min(value, os.cpu_count() or 1))


@dataclass(frozen=True)
class BridgeSampler:
    """Brownian bridge path generator.

    Paths are standard bridges b on [0, 1] with b(0) = b(1) = 0 and
    covariance E(b_j(s) b_k(u)) = s (1 - u) delta_jk for s <= u; the heat
    kernel scaling sqrt(2 t) is applied by the consumer.  Construction:
    cumulative Gaussian increments with terminal pinning W(s) - s W(1),
    which is exact in distribution at the grid points.
    """

    seed: int = 0
    steps: int = 256
    paths: int = 100_000
    dim: int = 1

    def __post_init__(self):
        for name in ("steps", "paths", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def chunks(self) -> list[tuple[np.random.SeedSequence, int]]:
        """(seed, path count) of each fixed-size chunk.

        The seed sequence is split per chunk, so the stream of paths is
        independent of any consumer-side parallel partitioning.
        """
        n_chunks = (self.paths + _CHUNK - 1) // _CHUNK
        children = np.random.SeedSequence(self.seed).spawn(n_chunks)
        return [(child, min(_CHUNK, self.paths - k * _CHUNK))
                for k, child in enumerate(children)]

    def grid(self) -> np.ndarray:
        """The steps+1 uniform times s of a path, 0 and 1 included."""
        return np.linspace(0.0, 1.0, self.steps + 1)

    def fill(self, rng: np.random.Generator, path: np.ndarray,
             work: np.ndarray) -> None:
        """Write the next len(path) bridges of `rng`'s stream into `path`,
        shape (count, steps+1, dim), using `work`, a C-contiguous array of
        the same shape, as scratch.

        Generator.standard_normal fills its output in order, so consecutive
        calls on one chunk's generator draw the same paths as one call for
        the whole chunk, however the chunk is cut."""
        count = len(path)
        # the increments fill the front of `work` in C order, as rng.normal
        # would lay out a fresh (count, steps, dim) array: the stream is fixed
        incr = work.reshape(-1)[:count * self.steps * self.dim].reshape(
            count, self.steps, self.dim)
        rng.standard_normal(out=incr)
        incr *= math.sqrt(1.0 / self.steps)
        path[:, 0] = 0.0
        np.cumsum(incr, axis=1, out=path[:, 1:])
        np.multiply(self.grid()[None, :, None], path[:, -1:], out=work)
        path -= work

    def draw(self, chunk: tuple[np.random.SeedSequence, int]):
        """(s_grid, block) of one chunk; block has shape (count, steps+1, dim)."""
        child, count = chunk
        block = np.empty((count, self.steps + 1, self.dim))
        self.fill(np.random.default_rng(child), block, np.empty_like(block))
        return self.grid(), block

    def blocks(self):
        """Yield draw(chunk) for each chunk, in chunk order."""
        for chunk in self.chunks():
            yield self.draw(chunk)


def fk_diagonal(potential: PotentialExpr, x, t: float,
                sampler: BridgeSampler) -> tuple[float, float]:
    """Monte-Carlo diagonal heat kernel

        (4 pi t)^(-n/2) E[ exp(-t * int_0^1 V(x + sqrt(2 t) b(s)) ds) ],

    with the path integral by the trapezoid rule along each bridge.
    Returns (estimate, standard error).  A weight that overflows makes the
    mean or its second moment non-finite, which raises FloatingPointError.

    Each chunk is drawn and evaluated in tiles of at most _TILE_POINTS path
    points, so a worker holds two tile buffers and the chunk's weights, not
    the chunk's paths.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    n = sampler.dim
    if len(x) != n or potential.dim != n:
        raise ValueError("dimension mismatch between potential, point, sampler")
    scale = math.sqrt(2.0 * t)
    prefactor = (4.0 * math.pi * t) ** (-n / 2)
    steps = sampler.steps
    tile = max(1, _TILE_POINTS // ((steps + 1) * n))

    def block_stats(chunk):
        child, count = chunk
        rng = np.random.default_rng(child)
        shape = (min(tile, count), steps + 1, n)
        path_buf, work_buf = np.empty(shape), np.empty(shape)
        weights = np.empty(count)
        # an overflow in the weights shows as a non-finite mean or M2, which
        # the caller checks once the chunks are merged
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, count, tile):
                sums = weights[start:start + tile]
                path, work = path_buf[:len(sums)], work_buf[:len(sums)]
                sampler.fill(rng, path, work)
                # one contiguous (paths, steps+1) plane per axis, which
                # evaluate_array reads without a copy
                coords = work.reshape(n, len(sums), steps + 1)
                np.multiply(path.transpose(2, 0, 1), scale, out=coords)
                coords += np.reshape(x, (n, 1, 1))
                values = evaluate_array(potential, list(coords))
                # trapezoid rule on the uniform grid of `steps` intervals
                np.sum(values, axis=1, out=sums)
                sums -= (values[:, 0] + values[:, -1]) / 2
            weights /= steps
            weights *= -t
            np.exp(weights, out=weights)
            # two-pass block moments about the first weight, so equal weights
            # give a mean equal to each of them and M2 exactly 0
            w0 = weights[0]
            weights -= w0
            offset = weights.mean()
            weights -= offset
            return (count, float(w0 + offset),
                    float(np.square(weights, out=weights).sum()))

    # chunks() loads numpy in this thread, so that no worker is the first to
    # touch the lazy module (see _lazy); the pool's module is imported only
    # here, as no other command needs it
    chunks = sampler.chunks()
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        stats = list(pool.map(block_stats, chunks))
    # Chan, Golub & LeVeque (1983) pairwise update, in chunk order
    count, mean, m2 = stats[0]
    for c, m, q in stats[1:]:
        total = count + c
        delta = m - mean
        mean += delta * c / total
        m2 += q + delta * delta * count * c / total
        count = total
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise FloatingPointError(
            f"Feynman-Kac weights overflow: mean {mean}, second moment {m2}")
    stderr = math.sqrt(m2 / count / count)
    return prefactor * mean, prefactor * stderr


# ---------------------------------------------------------------------------
# 1-D relative heat trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceGrid:
    half_width: float = 30.0
    points: int = 4000


_CONTOUR_N = 32


def _contour_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_k and weights c_k of the parabolic-contour quadrature for
    e^(-x) on x >= 0 (Trefethen, Weideman & Schmelzer, BIT 46 (2006)).

    The N-point trapezoid rule in theta on z(theta) = N (0.1309 - 0.1194
    theta^2 + 0.25 i theta), theta_k = -pi + (k - 1/2) 2 pi / N, applied to
    e^(-x) = (1 / 2 pi i) int e^z / (z + x) dz.  The nodes come in conjugate
    pairs, so only the N/2 with theta > 0 are kept:
    e^(-x) ~ 2 Re sum_k c_k / (z_k + x), with c_k = e^(z_k) z'(theta_k) / (i N)
    = e^(z_k) (0.25 + 0.2388 i theta_k), within 1e-14 for every x >= 0 at
    N = 32.  Built on each call, not at import: numpy's complex loops would
    add about 0.3 MB to the resident size of every command.
    """
    theta = np.pi * (2 * np.arange(_CONTOUR_N // 2) + 1) / _CONTOUR_N
    z = _CONTOUR_N * (0.1309 - 0.1194 * theta ** 2 + 0.25j * theta)
    return z, np.exp(z) * (0.25 + 0.2388j * theta)


def _relative_resolvent_trace(w: np.ndarray, diag: np.ndarray, diag0: np.ndarray,
                              off2: float) -> np.ndarray:
    """Tr (w I + T)^(-1) - Tr (w I + T0)^(-1) for each entry of `w`, where T
    and T0 are symmetric tridiagonal with diagonals `diag` and `diag0` and
    every off-diagonal entry squared equal to `off2`.

    One sweep down both diagonals at once, over every entry of `w`.  The
    pivots p_i = w + d_i - off2 / p_(i-1) are ratios of leading minors, so
    Tr (w I + T)^(-1) = d/dw log det(w I + T) = sum_i p_i' / p_i, with
    p_i' = 1 + off2 p_(i-1)' / p_(i-1)^2.  For Im w > 0 no pivot vanishes,
    since then Im p_i >= Im w.  The two traces are differenced term by term,
    so up to the first i with d_i != d0_i the terms cancel exactly, and past
    the support of d - d0 the two pivot sequences converge to each other.
    The state is a few arrays of twice the shape of `w`, whatever the size of T.
    """
    d = np.stack([diag, diag0], axis=1).reshape(len(diag), 2, *(1,) * w.ndim)
    p = w + d[0]
    ratio = 1.0 / p                  # p_i' / p_i of T and of T0
    out = ratio[0] - ratio[1]
    q = np.empty_like(p)
    for d_i in d[1:]:
        np.divide(off2, p, out=q)    # off2 / p_(i-1)
        np.subtract(w, q, out=p)
        p += d_i
        q *= ratio                   # p_i' - 1
        q += 1.0
        np.divide(q, p, out=ratio)
        out += ratio[0]
        out -= ratio[1]
    return out


def relative_heat_trace_1d(potential: PotentialExpr, t,
                           grid: TraceGrid | None = None):
    """Trace of e^(-tH) - e^(-tH0) for the second-order central-difference
    discretization on [-L, L] with Dirichlet ends.  H and H0 share the same
    discretization so the bulk of the discretization error cancels in the
    difference.

    `t` is a float or an array of times.  The trace is the contour quadrature
    of `_contour_nodes` applied to H - sigma and H0 - sigma, times
    e^(-t sigma), with sigma = min(0, min V) a lower bound of both spectra
    (H0 is positive definite).  One resolvent-trace sweep serves every
    (t, node) pair, and no eigenvalue is computed.  Returns a float for a
    float t, an array for an array t.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0):
        raise ValueError(f"t must be positive, got {t}")
    if potential.dim != 1:
        raise ValueError("relative_heat_trace_1d needs a 1-D potential")
    grid = grid or TraceGrid()
    L, m = grid.half_width, grid.points
    x = np.linspace(-L, L, m + 2)[1:-1]  # interior nodes
    h = x[1] - x[0]
    v = evaluate_array(potential, [x])
    sigma = min(0.0, float(v.min()))
    # e^(-tH) = e^(-t sigma) sum_k c_k (z_k + t (H - sigma))^(-1) + c.c., and
    # (z_k + t (H - sigma))^(-1) = (w I + H)^(-1) / t with w = z_k / t - sigma
    z, c = _contour_nodes()
    w = z / ts[..., None] - sigma
    free = np.full(m, 2.0 / h ** 2)
    resolvents = _relative_resolvent_trace(w, free + v, free, 1.0 / h ** 4)
    out = 2.0 * np.sum(c * resolvents, axis=-1).real
    out *= np.exp(-ts * sigma) / ts
    return float(out) if ts.ndim == 0 else out


# ---------------------------------------------------------------------------
# Small-time expansion fitting
# ---------------------------------------------------------------------------


@dataclass
class FitReport:
    coefficients: np.ndarray          # c_1 .. c_J
    condition_number: float
    residual_norm: float

    def coefficient(self, j: int) -> float:
        return float(self.coefficients[j - 1])


def fit_expansion(samples: list[tuple[float, float]], n: int, J: int) -> FitReport:
    """Least-squares fit of samples (t, value) to the small-time model

        value(t) = (4 pi t)^(-n/2) * sum_(j=1)^J c_j t^j.

    The (4 pi t)^(-n/2) prefactor is divided out first.  Reports the design
    matrix condition number; raises on rank deficiency.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if len(samples) < J + 2:
        raise ValueError(f"need at least {J + 2} samples for J={J}, got {len(samples)}")
    ts = np.array([s[0] for s in samples], dtype=float)
    if len(np.unique(ts)) != len(ts):
        raise ValueError("t values must be distinct")
    values = np.array([s[1] for s in samples], dtype=float)
    g = values / (4.0 * math.pi * ts) ** (-n / 2)
    design = np.vander(ts, J + 1, increasing=True)[:, 1:]  # columns t^1..t^J
    cond = float(np.linalg.cond(design))
    coeffs, _, rank, _ = np.linalg.lstsq(design, g, rcond=None)
    if rank < J:
        raise ValueError(f"rank-deficient fit: rank {rank} < {J}")
    return FitReport(coefficients=coeffs, condition_number=cond,
                     residual_norm=float(np.linalg.norm(g - design @ coeffs)))


# ---------------------------------------------------------------------------
# Non-commutative Taylor formula on matrices
# ---------------------------------------------------------------------------


def taylor_family(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """C_m(A, B) = sum_k C(m, k) A^k (-B)^(m-k) for square matrices."""
    dim = a.shape[0]
    out = np.zeros_like(a)
    a_pow = np.eye(dim)
    neg_b_pows = [np.eye(dim)]
    for _ in range(m):
        neg_b_pows.append(neg_b_pows[-1] @ (-b))
    for k in range(m + 1):
        out = out + math.comb(m, k) * (a_pow @ neg_b_pows[m - k])
        a_pow = a_pow @ a
    return out


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: the degree-18 Taylor sum
    of A / 2^s with ||A / 2^s||_1 <= 1/2, whose truncation error is below
    (1/2)^19 / 19! ~ 2e-23 relative, squared s times."""
    # norm = m 2^e with 1/2 <= m < 1, so 2^(e+1) scales it to at most 1/2
    s = max(0, math.frexp(float(np.linalg.norm(a, 1)))[1] + 1)
    x = a / 2.0 ** s
    eye = np.eye(a.shape[0])
    out = eye + x / 18
    for k in range(17, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def taylor_remainder(a: np.ndarray, b: np.ndarray, t: float, N: int) -> float:
    """Operator-norm remainder of the degree-N non-commutative Taylor
    approximation e^(tB) ~ sum_m (-1)^m t^m/m! e^(tA) C_m(A, B)."""
    approx = np.zeros_like(a)
    eta = _expm(t * a)
    for m in range(N + 1):
        approx = approx + ((-1) ** m * t ** m / math.factorial(m)
                           ) * (eta @ taylor_family(a, b, m))
    return float(np.linalg.norm(_expm(t * b) - approx, 2))


@dataclass
class SlopeReport:
    slope: float


def nc_taylor_matrix_check(dim: int, N: int, seed: int) -> SlopeReport:
    """Random symmetric A, B; fit the log-log slope of the Taylor remainder
    over a geometric t grid.  The slope should be close to N + 1."""
    if dim < 2:
        raise ValueError(f"matrix size must be >= 2, got {dim}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    b = rng.uniform(-1.0, 1.0, size=(dim, dim))
    a = (a + a.T) / 2
    b = (b + b.T) / 2
    ts = np.geomspace(1e-3, 1e-2, 8)
    remainders = np.array([taylor_remainder(a, b, t, N) for t in ts])
    return SlopeReport(slope=float(np.polyfit(np.log(ts), np.log(remainders), 1)[0]))


def matrix_operator_family(h0: np.ndarray, h: np.ndarray, m: int) -> np.ndarray:
    """The matrix V_m built from the recurrence V_0 = I,
    V_j = V_(j-1) (H - H0) + [V_(j-1), H0], for discretized H0 and H."""
    v = h - h0
    out = np.eye(h.shape[0])
    for _ in range(m):
        out = out @ v + out @ h0 - h0 @ out
    return out


def discretized_schrodinger_1d(v_values: np.ndarray,
                               h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference H0 and H = H0 + diag(V) matrices on a uniform grid
    with Dirichlet ends."""
    m = len(v_values)
    h0 = (np.diag(np.full(m, 2.0 / h ** 2))
          + np.diag(np.full(m - 1, -1.0 / h ** 2), 1)
          + np.diag(np.full(m - 1, -1.0 / h ** 2), -1))
    return h0, h0 + np.diag(v_values)


def taylor_family_matches_operator_family(h0: np.ndarray, h: np.ndarray,
                                          m: int) -> float:
    """Max relative deviation between C_m(-H0, -H) and the matrix V_m."""
    c = taylor_family(-h0, -h, m)
    v = matrix_operator_family(h0, h, m)
    scale = max(float(np.linalg.norm(v)), 1.0)
    return float(np.linalg.norm(c - v)) / scale
