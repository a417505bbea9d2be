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
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._lazy import np
from .potentials import PotentialExpr, evaluate_array

# ---------------------------------------------------------------------------
# Feynman-Kac Monte Carlo
# ---------------------------------------------------------------------------

_CHUNK = 4096  # paths per block; fixed so results do not depend on memory
# path points (paths x (steps+1) x dim) per tile of a chunk: 256 KB per
# float64 buffer, so a worker's buffers stay within a core's L2 cache; a
# chunk is cut into the fewest tiles of this size, split evenly, and a path
# longer than this is a tile of its own.  A tile is the next stretch of its
# chunk's normal stream, so its size moves no result.  Half-size tiles hold
# about 1.3 MB less at two threads, but each tile's numpy calls hand the GIL
# between the workers, and twice as many of them made two threads barely
# faster than one
_TILE_POINTS = 1 << 15


def worker_count() -> int:
    """Worker cap for parallel sections, from the HEATINV_THREADS environment
    variable (default 1, i.e. serial), clamped to os.cpu_count().  A value
    that is not an integer, or is below 1, raises ValueError.  Results never
    depend on this value; work is partitioned by fixed-size chunk before any
    parallel dispatch."""
    raw = os.environ.get("HEATINV_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HEATINV_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"HEATINV_THREADS must be >= 1, got {value}")
    return min(value, os.cpu_count() or 1)


@dataclass(frozen=True)
class BridgeSampler:
    """Brownian bridge path generator.

    Paths are standard bridges b on [0, 1] with b(0) = b(1) = 0 and
    covariance E(b_j(s) b_k(u)) = s (1 - u) delta_jk for s <= u; the heat
    kernel scaling sqrt(2 t) is applied by the consumer.  Construction:
    cumulative Gaussian increments with terminal pinning W(s) - s W(1),
    which is exact in distribution at the grid points.

    `steps` must be even: the even grid points of a path are the coarse path
    of steps/2 intervals that fk_diagonal's Richardson estimate reads.

    The paths come in chunk_count fixed-size chunks, each seeded by chunk(k).
    fill writes the next paths of a chunk's stream into the caller's buffers,
    as fk_diagonal does tile by tile; blocks yields each chunk whole.  Both
    read the time grid `times`, built once per sampler.
    """

    seed: int = 0
    steps: int = 32
    paths: int = 100_000
    dim: int = 1

    def __post_init__(self):
        for name in ("steps", "paths", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.steps % 2:
            raise ValueError(
                f"steps must be even (the coarse path takes every other point),"
                f" got {self.steps}")

    @cached_property
    def times(self) -> np.ndarray:
        """The steps+1 uniform times of a path, 0 and 1 included, read-only.

        Built once per sampler: rebuilt on every `fill`, the grid made
        `verify fk --paths 200000` at 2 threads take 0.305 s -> 0.344 s on a
        2-CPU VM (slower in 18 of 20 alternating runs, output unchanged)."""
        s = np.linspace(0.0, 1.0, self.steps + 1)
        s.flags.writeable = False
        return s

    @property
    def chunk_count(self) -> int:
        return -(-self.paths // _CHUNK)

    def chunk(self, k: int) -> tuple[np.random.SeedSequence, int]:
        """(seed, path count) of chunk k, 0 <= k < chunk_count.

        The seed is the k-th child SeedSequence(seed).spawn would give, so the
        stream of paths is independent of any consumer-side partitioning.
        """
        return (np.random.SeedSequence(self.seed, spawn_key=(k,)),
                min(_CHUNK, self.paths - k * _CHUNK))

    def fill(self, rng: np.random.Generator, path: np.ndarray,
             work: np.ndarray) -> None:
        """Write the next len(path) bridges of `rng`'s stream into `path`,
        shape (count, steps+1, dim), using `work`, a C-contiguous array of
        the same shape, as scratch.

        Generator.standard_normal fills its output in order, so consecutive
        calls on one chunk's generator draw the same paths as one call for
        the whole chunk, however the chunk is cut.  The bridge is pinned with
        the sampler's `times`, built once, and path[:, 0] = 0 is written on
        every call, so any buffer of the shape serves."""
        count = len(path)
        # the increments fill the front of `work` in C order, as rng.normal
        # would lay out a fresh (count, steps, dim) array: the stream is fixed
        incr = work.reshape(-1)[:count * self.steps * self.dim].reshape(
            count, self.steps, self.dim)
        rng.standard_normal(out=incr)
        incr *= math.sqrt(1.0 / self.steps)
        path[:, 0] = 0.0
        np.cumsum(incr, axis=1, out=path[:, 1:])
        np.multiply(self.times[None, :, None], path[:, -1:], out=work)
        path -= work

    def blocks(self):
        """Yield (times, block) for each chunk, in chunk order: the
        sampler's read-only `times`, and block the chunk's bridges in fresh
        arrays, shape (count, steps+1, dim), as fill draws them from a
        generator of the chunk's seed."""
        for child, count in map(self.chunk, range(self.chunk_count)):
            block = np.empty((count, self.steps + 1, self.dim))
            self.fill(np.random.default_rng(child), block, np.empty_like(block))
            yield self.times, block


def fk_diagonal(potential: PotentialExpr, x, t: float,
                sampler: BridgeSampler) -> tuple[float, float]:
    """Monte-Carlo diagonal heat kernel

        (4 pi t)^(-n/2) E[ exp(-t * int_0^1 V(x + sqrt(2 t) b(s)) ds) ],

    with the path integral by the trapezoid rule along each bridge.  Each
    path's weight is the Richardson value (4 w_fine - w_coarse) / 3, where
    w_fine = exp(-t I) with I the trapezoid sum over all `steps` intervals
    and w_coarse the same over the even grid points (steps/2 intervals):
    the trapezoid rule's O(h^2) time-discretization bias cancels, leaving
    O(h^4) (Talay & Tubaro 1990).  Returns (estimate, standard error) of
    these weights.  A weight that overflows a chunk's moments or those of
    all the paths raises FloatingPointError.  One path has no spread to
    estimate, so fewer than 2 paths raise ValueError.

    The calling thread and worker_count() - 1 helper threads each take the
    next chunk in order until none is left.  Each worker allocates its
    scratch once per call: two tile buffers sized to the call's largest tile
    and the fine and coarse weights of one chunk, reused for every chunk it
    takes.  The second tile buffer holds the tile's coordinates, one plane
    per axis, handed over to evaluate_array, whose Taylor pass computes V in
    them: exp(-|x|^2) allocates no array per tile, and a repeated variable,
    a constant or an exponent that is not a power of two each adds one.  A
    chunk is drawn and evaluated in the fewest tiles of at most
    _TILE_POINTS path points, of equal size but for a smaller last one, so a
    worker never holds a chunk's paths; a path of more than _TILE_POINTS
    points is a tile of its own.  Each chunk's count c, mean m and M2 go into
    exact totals N = sum c, S = sum c m, Q = sum (M2 + c m^2), rounded once:
    the result depends on neither the chunks' finishing order nor the thread
    count, and memory not on `paths`.  An exception in a chunk stops every
    worker at its next chunk and is raised here once all have finished.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if sampler.paths < 2:
        raise ValueError(
            f"paths must be >= 2 for a standard error, got {sampler.paths}")
    n = sampler.dim
    if len(x) != n or potential.dim != n:
        raise ValueError("dimension mismatch between potential, point, sampler")
    scale = math.sqrt(2.0 * t)
    prefactor = (4.0 * math.pi * t) ** (-n / 2)
    steps = sampler.steps
    most = max(1, _TILE_POINTS // ((steps + 1) * n))  # paths a tile may hold
    threads = min(worker_count(), sampler.chunk_count)

    def tile_of(count):
        """Paths per tile of a chunk of `count` paths: the fewest tiles, of
        near-equal size.  Tiles of `most` paths with a ragged last one need
        larger buffers: `verify fk --paths 200000` at 2 threads peaked at
        36.74 -> 37.02 MB on a 2-CPU VM, higher in 20 of 20 alternating
        runs."""
        return -(-count // -(-count // most))

    def chunk_stats(k, path_buf, work_buf, weights_buf, coarse_buf):
        child, count = sampler.chunk(k)
        rng = np.random.default_rng(child)
        tile = tile_of(count)
        weights, coarse = weights_buf[:count], coarse_buf[:count]
        # an overflow in the weights shows as a non-finite mean or M2, which
        # is refused below, before the chunk reaches the totals
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, count, tile):
                sums = weights[start:start + tile]
                path, work = path_buf[:len(sums)], work_buf[:len(sums)]
                sampler.fill(rng, path, work)
                # one contiguous (paths, steps+1) plane per axis, handed
                # over to the Taylor pass, which computes V in these planes
                coords = work.reshape(n, len(sums), steps + 1)
                np.multiply(path.transpose(2, 0, 1), scale, out=coords)
                coords += np.reshape(x, (n, 1, 1))
                values = evaluate_array(potential, list(coords), overwrite_coords=True)
                # trapezoid sums on the fine grid and on its even points
                ends = (values[:, 0] + values[:, -1]) / 2
                np.sum(values, axis=1, out=sums)
                sums -= ends
                half = coarse[start:start + tile]
                np.sum(values[:, ::2], axis=1, out=half)
                half -= ends
            for w, intervals in ((weights, steps), (coarse, steps // 2)):
                w /= intervals
                w *= -t
                np.exp(w, out=w)
            # Richardson: (4 w_fine - w_coarse) / 3 per path
            weights *= 4.0
            weights -= coarse
            weights /= 3.0
            # two-pass block moments about the first weight, so equal weights
            # give a mean equal to each of them and M2 exactly 0
            w0 = weights[0]
            weights -= w0
            offset = weights.mean()
            weights -= offset
            mean, m2 = w0 + offset, np.square(weights, out=weights).sum()
        if not np.isfinite([mean, m2]).all():
            raise FloatingPointError(
                f"Feynman-Kac weights overflow: mean {mean}, second moment {m2}")
        mean = Fraction(mean)  # exact, as are the terms of the totals
        return count, count * mean, Fraction(m2) + count * mean * mean

    # chunk() loads numpy in this thread before any helper starts (see _lazy);
    # the last chunk's tile may be the larger: 992 paths at 32 steps, not 820.
    # The buffers hold the larger of the two tiles, not `most` paths (tile_of)
    width, last = sampler.chunk(0)[1], sampler.chunk(sampler.chunk_count - 1)[1]
    tile_shape = (max(tile_of(width), tile_of(last)), steps + 1, n)
    order = iter(range(sampler.chunk_count))
    lock = threading.Lock()
    failures = []  # (chunk index, exception) of each chunk that raised
    totals = [0, 0, 0]  # N, S and Q

    def work():
        """Take the next chunk until none is left or a worker has failed,
        on scratch this worker allocates once."""
        k = -1  # a failure to allocate ranks before every chunk
        try:
            scratch = (np.empty(tile_shape), np.empty(tile_shape),
                       np.empty(width), np.empty(width))
            while not failures:
                with lock:
                    k = next(order, None)
                if k is None:
                    return
                moments = chunk_stats(k, *scratch)
                with lock:
                    totals[:] = [a + b for a, b in zip(totals, moments)]
        except BaseException as exc:
            failures.append((k, exc))

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        # chunks are taken in order, so the first chunk that raises always
        # runs: its exception is the one a serial run raises
        raise min(failures, key=lambda failure: failure[0])[1]
    N, S, Q = totals
    try:  # the mean S/N and M2/N^2 = (Q N - S^2)/N^3, each rounded once
        mean, var = float(S / N), float((Q * N - S * S) / N ** 3)
    except OverflowError:
        raise FloatingPointError("Feynman-Kac weights overflow float64") from None
    return prefactor * mean, prefactor * math.sqrt(var)


# ---------------------------------------------------------------------------
# 1-D relative heat trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceGrid:
    half_width: float = 30.0
    points: int = 4000

    def __post_init__(self):
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if not 0 < self.half_width < math.inf:
            raise ValueError(
                f"half_width must be positive and finite, got {self.half_width}")

    def nodes(self) -> np.ndarray:
        """The interior nodes of the grid on [-L, L], Dirichlet ends left out."""
        return np.linspace(-self.half_width, self.half_width, self.points + 2)[1:-1]


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
    float t, an array for an array t.  A trace that overflows, as a deep
    well's does, raises FloatingPointError; a t that is not positive and
    finite raises ValueError.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all((0 < ts) & (ts < math.inf)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if potential.dim != 1:
        raise ValueError("relative_heat_trace_1d needs a 1-D potential")
    grid = grid or TraceGrid()
    x = grid.nodes()
    h = x[1] - x[0]
    v = evaluate_array(potential, [x])
    sigma = min(0.0, float(v.min()))
    # e^(-tH) = e^(-t sigma) sum_k c_k (z_k + t (H - sigma))^(-1) + c.c., and
    # (z_k + t (H - sigma))^(-1) = (w I + H)^(-1) / t with w = z_k / t - sigma
    z, c = _contour_nodes()
    w = z / ts[..., None] - sigma
    free = np.full(len(x), 2.0 / h ** 2)
    resolvents = _relative_resolvent_trace(w, free + v, free, 1.0 / h ** 4)
    out = 2.0 * np.sum(c * resolvents, axis=-1).real
    with np.errstate(over="ignore", invalid="ignore"):
        out *= np.exp(-ts * sigma) / ts
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            f"relative heat trace overflows float64 at t = {ts[~np.isfinite(out)].min():g},"
            f" where e^(-t min V) has min V = {sigma:g}")
    return float(out) if ts.ndim == 0 else out


# ---------------------------------------------------------------------------
# Small-time expansion fitting
# ---------------------------------------------------------------------------


@dataclass
class FitReport:
    coefficients: np.ndarray          # c_1 .. c_J
    residual_norm: float

    def coefficient(self, j: int) -> float:
        return float(self.coefficients[j - 1])


def fit_expansion(samples: list[tuple[float, float]], n: int, J: int) -> FitReport:
    """Least-squares fit of samples (t, value) to the small-time model

        value(t) = (4 pi t)^(-n/2) * sum_(j=1)^J c_j t^j.

    The (4 pi t)^(-n/2) prefactor is divided out first.  Raises on rank
    deficiency, and on a t that is not positive and finite or a value that
    is not finite.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if len(samples) < J + 2:
        raise ValueError(f"need at least {J + 2} samples for J={J}, got {len(samples)}")
    ts = np.array([s[0] for s in samples], dtype=float)
    values = np.array([s[1] for s in samples], dtype=float)
    if not np.all((0 < ts) & (ts < math.inf)):
        raise ValueError(f"t values must be positive and finite, got {ts}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"values must be finite, got {values}")
    if not np.all(np.diff(np.sort(ts))):
        raise ValueError("t values must be distinct")
    g = values / (4.0 * math.pi * ts) ** (-n / 2)
    design = np.vander(ts, J + 1, increasing=True)[:, 1:]  # columns t^1..t^J
    coeffs, _, rank, _ = np.linalg.lstsq(design, g, rcond=None)
    if rank < J:
        raise ValueError(f"rank-deficient fit: rank {rank} < {J}")
    return FitReport(coeffs, float(np.linalg.norm(g - design @ coeffs)))


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
