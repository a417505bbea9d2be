"""Monte-Carlo, spectral, and matrix oracles."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from heatinv import oracles
from heatinv.oracles import (BridgeSampler, TraceGrid, _contour_nodes, _expm,
                             discretized_schrodinger_1d, fit_expansion,
                             fk_diagonal, matrix_operator_family,
                             nc_taylor_matrix_check, relative_heat_trace_1d,
                             taylor_family, taylor_remainder)
from heatinv.potentials import PotentialEvalError, evaluate_array, parse_potential

GAUSSIAN = parse_potential("exp(-x1^2)", 1)


def _fresh_array_reference(x, t, sampler):
    """fk_diagonal's (estimate, standard error) for exp(-|x|^2), by
    rng.normal + cumsum + pin + np.trapezoid on fresh whole-chunk arrays,
    with the Richardson weight of the fine grid and its even points."""
    weights = []
    for k in range(sampler.chunk_count):
        child, count = sampler.chunk(k)
        incr = np.random.default_rng(child).normal(
            scale=math.sqrt(1.0 / sampler.steps),
            size=(count, sampler.steps, sampler.dim))
        w = np.concatenate([np.zeros((count, 1, sampler.dim)),
                            np.cumsum(incr, axis=1)], axis=1)
        s = np.linspace(0.0, 1.0, sampler.steps + 1)
        bridge = w - s[None, :, None] * w[:, -1:, :]
        values = np.exp(-sum((xi + math.sqrt(2 * t) * bridge[:, :, i]) ** 2
                             for i, xi in enumerate(x)))
        fine = np.exp(-t * np.trapezoid(values, s, axis=1))
        coarse = np.exp(-t * np.trapezoid(values[:, ::2], s[::2], axis=1))
        weights.append((4 * fine - coarse) / 3)
    weights = np.concatenate(weights)
    prefactor = (4 * math.pi * t) ** (-len(x) / 2)
    return (prefactor * weights.mean(),
            prefactor * weights.std() / math.sqrt(len(weights)))


class TestBridgeSampler:
    def test_bridge_covariance(self):
        """E b(s) b(u) = s (1 - u) for s <= u, within 3 standard errors."""
        sampler = BridgeSampler(seed=3, steps=64, paths=40_000)
        blocks = [b for _, b in sampler.blocks()]
        paths = np.concatenate(blocks, axis=0)[:, :, 0]
        s_grid = np.linspace(0, 1, 65)
        for i, j in [(16, 16), (16, 48), (32, 32), (8, 56)]:
            s, u = s_grid[i], s_grid[j]
            samples = paths[:, i] * paths[:, j]
            mean = samples.mean()
            se = samples.std(ddof=1) / math.sqrt(len(samples))
            assert abs(mean - s * (1 - u)) <= 3 * se

    def test_endpoints_pinned(self):
        sampler = BridgeSampler(seed=0, steps=16, paths=1000)
        _, block = next(sampler.blocks())
        assert np.allclose(block[:, 0, :], 0.0)
        assert np.allclose(block[:, -1, :], 0.0)

    def test_stream_deterministic(self):
        a = [b.copy() for _, b in BridgeSampler(seed=5, paths=9000).blocks()]
        b = [blk.copy() for _, blk in BridgeSampler(seed=5, paths=9000).blocks()]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_chunk_draws_match_blocks(self):
        sampler = BridgeSampler(seed=5, paths=9000)
        chunks = [sampler.chunk(k) for k in range(sampler.chunk_count)]
        assert [count for _, count in chunks] == [4096, 4096, 808]
        for (child, count), (s, block) in zip(chunks, sampler.blocks(), strict=True):
            assert np.array_equal(s, np.linspace(0.0, 1.0, sampler.steps + 1))
            fresh = np.empty((count, sampler.steps + 1, sampler.dim))
            sampler.fill(np.random.default_rng(child), fresh, np.empty_like(fresh))
            assert np.array_equal(block, fresh)

    def test_chunk_seed_is_the_spawned_child(self):
        """chunk(k) makes the k-th child of SeedSequence(seed).spawn without
        spawning the ones before it, so every stream is the spawned one."""
        sampler = BridgeSampler(seed=5, paths=60 * 4096 - 7)
        assert sampler.chunk_count == 60
        children = np.random.SeedSequence(5).spawn(60)
        for k, child in enumerate(children):
            seed, _ = sampler.chunk(k)
            assert (seed.entropy, seed.spawn_key) == (child.entropy, child.spawn_key)
            assert np.array_equal(seed.generate_state(8), child.generate_state(8))

    @pytest.mark.parametrize("value,field", [
        (value, field) for field in ("steps", "paths", "dim") for value in (0, -5)
    ] + [(-5, "seed")])
    def test_rejects_sizes_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            BridgeSampler(**{field: value})

    @pytest.mark.parametrize("steps", [1, 3])
    def test_rejects_odd_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be even"):
            BridgeSampler(steps=steps)


class TestFeynmanKac:
    def test_zero_potential_exact(self):
        v0 = parse_potential("0 * x1", 1)
        est, se = fk_diagonal(v0, (0.0,), 0.05,
                              BridgeSampler(seed=1, paths=5000))
        assert est == pytest.approx((4 * math.pi * 0.05) ** -0.5, rel=1e-14)
        assert se == 0.0

    def test_constant_potential_exact(self):
        vc = parse_potential("3 + 0 * x1", 1)
        t = 0.1
        est, se = fk_diagonal(vc, (0.0,), t,
                              BridgeSampler(seed=1, paths=5000))
        expected = (4 * math.pi * t) ** -0.5 * math.exp(-3 * t)
        assert est == pytest.approx(expected, rel=1e-12)
        assert se == 0.0

    def test_one_path_is_refused(self):
        """A standard error needs two paths; one would report a spread of 0."""
        with pytest.raises(ValueError, match="paths must be >= 2 .* got 1"):
            fk_diagonal(GAUSSIAN, (0.0,), 0.05, BridgeSampler(seed=1, paths=1))
        assert fk_diagonal(GAUSSIAN, (0.0,), 0.05, BridgeSampler(seed=1, paths=2))[1] > 0

    def test_thread_count_does_not_change_result(self, monkeypatch):
        sampler = BridgeSampler(seed=11, paths=12_000)
        serial = fk_diagonal(GAUSSIAN, (0.0,), 0.05, sampler)
        monkeypatch.setenv("HEATINV_THREADS", "4")
        threaded = fk_diagonal(GAUSSIAN, (0.0,), 0.05, sampler)
        assert serial == threaded

    def test_more_threads_than_cores_fold_every_chunk_once(self, monkeypatch):
        """Eight workers on short chunks, switching threads every
        microsecond: a lost or doubled update of the totals would move the
        result away from the serial one."""
        sampler = BridgeSampler(seed=3, steps=4, paths=64 * 4096 + 5)
        serial = fk_diagonal(GAUSSIAN, (0.2,), 0.05, sampler)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("HEATINV_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = fk_diagonal(GAUSSIAN, (0.2,), 0.05, sampler)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("potential,x", [
        (GAUSSIAN, (0.3,)),
        (parse_potential("exp(-x1^2-x2^2)", 2), (0.3, -0.2)),
    ])
    def test_matches_fresh_array_reference(self, potential, x):
        """The tiled in-place pipeline against the fresh-array reference;
        9000 paths leave an 808-path last chunk."""
        sampler = BridgeSampler(seed=4, steps=100, paths=9000, dim=len(x))
        est, se = fk_diagonal(potential, x, 0.05, sampler)
        ref_est, ref_se = _fresh_array_reference(x, 0.05, sampler)
        assert est == pytest.approx(ref_est, rel=1e-13, abs=0)
        assert se == pytest.approx(ref_se, rel=1e-13, abs=0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_last_chunk_with_the_largest_tile(self, threads, monkeypatch):
        """At 32 steps a tile holds at most 992 paths: a 4096-path chunk is
        cut into tiles of 820, but a 992-path last chunk is one tile of 992,
        so the buffers must fit the last chunk's tile, not the first's."""
        monkeypatch.setenv("HEATINV_THREADS", threads)
        sampler = BridgeSampler(seed=4, steps=32, paths=4096 + 992)
        est, se = fk_diagonal(GAUSSIAN, (0.3,), 0.05, sampler)
        ref_est, ref_se = _fresh_array_reference((0.3,), 0.05, sampler)
        assert est == pytest.approx(ref_est, rel=1e-13, abs=0)
        assert se == pytest.approx(ref_se, rel=1e-13, abs=0)

    @pytest.mark.parametrize("text,x", [("exp(-x1^2)", 0.0),
                                        ("2*sin(x1)*exp(-x1^2)", 0.3)])
    def test_default_steps_bias_below_a_tenth_of_a_stderr(self, text, x):
        """On common paths (256-step bridges, V evaluated once), the
        Richardson mean from the default-step subgrid and its even points
        stays within 0.1 standard errors of the 256-step trapezoid mean.
        At 32 steps it reads 0.04 and 0.01; the plain trapezoid mean at 32
        steps, or the Richardson mean at 16, is off by 0.15 and 0.30."""
        t, fine_steps = 0.05, 256
        steps = BridgeSampler.steps
        assert fine_steps % steps == 0
        potential = parse_potential(text, 1)
        sampler = BridgeSampler(seed=0, steps=fine_steps, paths=10 * 4096)

        def weight(values, intervals):
            sub = values[:, ::fine_steps // intervals]
            integral = (sub.sum(axis=1) - (sub[:, 0] + sub[:, -1]) / 2) / intervals
            return np.exp(-t * integral)

        reference, richardson = [], []
        for _, block in sampler.blocks():
            values = evaluate_array(potential, [x + math.sqrt(2 * t) * block[:, :, 0]])
            reference.append(weight(values, fine_steps))
            richardson.append((4 * weight(values, steps)
                               - weight(values, steps // 2)) / 3)
        reference, richardson = np.concatenate(reference), np.concatenate(richardson)
        stderr = reference.std() / math.sqrt(len(reference))
        assert abs(richardson.mean() - reference.mean()) <= 0.1 * stderr

    @pytest.mark.parametrize("tile_points", [
        1,                  # one path per tile
        33 * 1000,          # 1000 paths at n=1, 500 at n=2: neither divides 4096
        1 << 30,            # one tile holds a whole chunk
    ])
    def test_tile_size_does_not_change_result(self, tile_points, monkeypatch):
        cases = [(GAUSSIAN, (0.1,)),
                 (parse_potential("exp(-x1^2-x2^2)*(1+x1)", 2), (0.1, -0.2))]
        # 9000 paths leave an 808-path last chunk; 32 steps give 33 points
        samplers = [BridgeSampler(seed=6, steps=32, paths=9000, dim=len(x))
                    for _, x in cases]
        default = [fk_diagonal(p, x, 0.05, s) for (p, x), s in zip(cases, samplers)]
        monkeypatch.setattr(oracles, "_TILE_POINTS", tile_points)
        for threads in ("1", "2"):
            monkeypatch.setenv("HEATINV_THREADS", threads)
            assert [fk_diagonal(p, x, 0.05, s)
                    for (p, x), s in zip(cases, samplers)] == default

    def test_chunk_is_cut_into_the_fewest_even_tiles(self, monkeypatch):
        """At 32 steps a 4096-path chunk is 5 tiles of 820 or 816 paths,
        not one full tile and a nearly empty one."""
        sizes = []
        fill = BridgeSampler.fill

        def record(self, rng, path, work):
            sizes.append(len(path))
            fill(self, rng, path, work)

        monkeypatch.setattr(BridgeSampler, "fill", record)
        monkeypatch.setenv("HEATINV_THREADS", "1")
        fk_diagonal(GAUSSIAN, (0.0,), 0.05, BridgeSampler(steps=32, paths=4096))
        tiles = len(sizes)
        assert sum(sizes) == 4096
        assert tiles == math.ceil(4096 * 33 / oracles._TILE_POINTS)
        assert max(sizes) * 33 <= oracles._TILE_POINTS
        assert max(sizes) - min(sizes) <= tiles - 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_is_refused(self, threads, monkeypatch):
        monkeypatch.setenv("HEATINV_THREADS", threads)
        with pytest.raises(ValueError, match=f"HEATINV_THREADS must be >= 1, got {threads}"):
            fk_diagonal(GAUSSIAN, (0.0,), 0.05, BridgeSampler(paths=100))

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        """A potential that fails in every chunk raises in both workers; the
        error reaches the caller once both threads have finished."""
        monkeypatch.setenv("HEATINV_THREADS", "2")
        before = threading.active_count()
        with pytest.raises(PotentialEvalError):
            fk_diagonal(parse_potential("powr(x1,1,2)", 1), (0.0,), 0.05,
                        BridgeSampler(paths=20000))
        assert threading.active_count() == before

    def test_memory_does_not_grow_with_steps(self, monkeypatch):
        """The traced peak is two tiles and the potential's temporaries on
        one tile, whatever the length of a path that fits one tile; two
        buffers of a whole 4096-path chunk at steps=2048 would be 128 MB."""
        monkeypatch.setenv("HEATINV_THREADS", "1")
        peaks = {}
        for steps in (64, 2048):
            sampler = BridgeSampler(seed=1, steps=steps, paths=4096)
            tracemalloc.start()
            try:
                fk_diagonal(GAUSSIAN, (0.0,), 0.05, sampler)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2048] < 2 * 2 ** 20
        assert peaks[2048] <= 1.5 * peaks[64]

    def test_tiles_allocate_within_the_scratch(self, monkeypatch):
        """Each worker evaluates V in its own coordinate buffer, so at two
        threads the traced peak of exp(-x1^2) stays within the two workers'
        scratch (two 820-path tiles and a chunk's two weight arrays each)
        plus one tile per worker for numpy's own transients.  A Taylor pass
        on copies adds two tiles per worker: about 2.3 MB against 1.0 MB."""
        monkeypatch.setenv("HEATINV_THREADS", "2")
        sampler = BridgeSampler(seed=1, steps=32, paths=8 * 4096)
        fk_diagonal(GAUSSIAN, (0.0,), 0.05, sampler)  # warm-up
        tracemalloc.start()
        try:
            fk_diagonal(GAUSSIAN, (0.0,), 0.05, sampler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = 820 * 33 * 8
        assert peak <= 2 * (3 * tile + 2 * 4096 * 8)

    def test_memory_does_not_grow_with_paths(self, monkeypatch):
        """No state of a call grows with the path count: no seed per chunk
        made up front, no statistics per chunk kept for a merge.  Bridges
        of zeros and V = 0 keep the 2 * 10^6-path call to about a second."""
        monkeypatch.setattr(BridgeSampler, "fill",
                            lambda self, rng, path, work: path.fill(0.0))
        monkeypatch.setenv("HEATINV_THREADS", "1")
        zero = parse_potential("0 * x1", 1)
        fk_diagonal(zero, (0.0,), 0.05, BridgeSampler(seed=1, paths=100))  # warm-up
        peaks = {}
        for paths in (10 ** 5, 2 * 10 ** 6):
            tracemalloc.start()
            try:
                fk_diagonal(zero, (0.0,), 0.05, BridgeSampler(seed=1, paths=paths))
                peaks[paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2 * 10 ** 6] - peaks[10 ** 5] <= 100_000

    def test_numpy_first_loaded_by_a_threaded_call(self):
        """numpy is loaded lazily, and the lazy loader is not thread-safe on
        first access before Python 3.12: fk_diagonal touches it in the
        calling thread before any helper starts."""
        code = ("import sys\n"
                "from heatinv.oracles import BridgeSampler, fk_diagonal\n"
                "from heatinv.potentials import parse_potential\n"
                "v = parse_potential('exp(-x1^2)', 1)\n"
                "assert not [m for m in sys.modules if m.startswith('numpy.')]\n"
                "print(fk_diagonal(v, (0.0,), 0.05, BridgeSampler(seed=1, paths=20000)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, HEATINV_THREADS="2"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(
            fk_diagonal(GAUSSIAN, (0.0,), 0.05, BridgeSampler(seed=1, paths=20000)))

    def test_back_to_back_calls_agree(self):
        sampler = BridgeSampler(seed=2, steps=32, paths=9000)
        assert fk_diagonal(GAUSSIAN, (0.1,), 0.05, sampler) == \
            fk_diagonal(GAUSSIAN, (0.1,), 0.05, sampler)

    def test_overflowing_weight_raises(self):
        """Bridges pass close to the pole, so some weight overflows: the
        estimate is refused rather than returned non-finite, and no numpy
        warning escapes."""
        pole = parse_potential("1/(x1-0.3)", 1)
        with pytest.raises(FloatingPointError, match="overflow"):
            fk_diagonal(pole, (0.0,), 0.05, BridgeSampler(steps=64, paths=9000))

    def test_overflowing_total_raises(self, monkeypatch):
        """Every path of chunk k stays at the constant k, so each chunk's
        weights are equal and finite, but chunk 1's, about 1e295, are so far
        from chunk 0's that the variance of the mean overflows: the rounding
        of the exact totals raises FloatingPointError, not OverflowError."""
        monkeypatch.setattr(BridgeSampler, "fill", lambda self, rng, path, work:
                            path.fill(rng.bit_generator.seed_seq.spawn_key[0]))
        with pytest.raises(FloatingPointError, match="overflow"):
            fk_diagonal(parse_potential("-43000 * x1", 1), (0.0,), 0.05,
                        BridgeSampler(paths=8192))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fk_diagonal(GAUSSIAN, (0.0,), -1.0, BridgeSampler())
        with pytest.raises(ValueError):
            fk_diagonal(GAUSSIAN, (0.0, 0.0), 0.1, BridgeSampler())


class TestRelativeTrace:
    def test_grid_refinement_consistent(self):
        t = 0.1
        coarse = relative_heat_trace_1d(GAUSSIAN, t, TraceGrid(points=2000))
        fine = relative_heat_trace_1d(GAUSSIAN, t, TraceGrid(points=4000))
        assert coarse == pytest.approx(fine, abs=5e-4)

    @pytest.mark.parametrize("l", [1, 2])
    def test_reflectionless_well_against_its_exact_trace(self, l):
        """-l(l+1) sech^2 x has bound states at -m^2, m = 1..l, and reflects
        nothing, so its relative trace is sum_m e^(m^2 t) erf(m sqrt t).  The
        grid's error is O(h^2): doubling the points quarters it."""
        potential = parse_potential(f"-{l * (l + 1)}*(1-tanh(x1)^2)", 1)
        ts = np.array([0.02, 0.05, 0.1, 0.2, 0.5, 1.0])
        exact = sum(np.exp(m * m * ts) * np.array([math.erf(m * math.sqrt(t)) for t in ts])
                    for m in range(1, l + 1))
        coarse = relative_heat_trace_1d(potential, ts, TraceGrid(points=4000)) - exact
        fine = relative_heat_trace_1d(potential, ts, TraceGrid(points=8001)) - exact
        assert np.all(np.abs(coarse / exact) < 1e-3)
        assert np.all((3.9 <= coarse / fine) & (coarse / fine <= 4.1))

    def test_sign_for_positive_potential(self):
        # positive potential raises all eigenvalues, lowering the trace
        assert relative_heat_trace_1d(GAUSSIAN, 0.1) < 0

    def test_array_of_times_matches_single_calls(self):
        ts = np.geomspace(0.02, 0.2, 5)
        grid = TraceGrid(points=1000)
        together = relative_heat_trace_1d(GAUSSIAN, ts, grid)
        assert together.shape == ts.shape
        for t, value in zip(ts, together):
            single = relative_heat_trace_1d(GAUSSIAN, float(t), grid)
            assert isinstance(single, float)
            assert single == pytest.approx(float(value), rel=1e-13, abs=0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            relative_heat_trace_1d(GAUSSIAN, 0.0)
        with pytest.raises(ValueError):
            relative_heat_trace_1d(GAUSSIAN, np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            relative_heat_trace_1d(parse_potential("x1 + x2", 2), 0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.1, math.nan])])
    def test_rejects_non_finite_times(self, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            relative_heat_trace_1d(GAUSSIAN, t)

    @pytest.mark.parametrize("field,value", [("points", 0), ("points", 1),
                                             ("half_width", math.inf),
                                             ("half_width", -30.0),
                                             ("half_width", 0.0),
                                             ("half_width", math.nan)])
    def test_grid_rejects_unusable_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            TraceGrid(**{field: value})


class TestTraceContour:
    def test_contour_rule_matches_exponential(self):
        x = np.concatenate([[0.0], np.geomspace(1e-8, 1e7, 2000)])
        z, c = _contour_nodes()
        rule = 2 * np.sum(c / (z + x[:, None]), axis=1).real
        assert np.max(np.abs(rule - np.exp(-x))) <= 1e-13

    @pytest.mark.parametrize("text", ["exp(-x1^2)", "2*sin(x1)*exp(-x1^2)",
                                      "powr(1+x1^2,-1,1)", "-50*exp(-x1^2)"])
    def test_matches_eigensolve_reference(self, text):
        """The CLI's 12 times against the exact eigenvalues of the same
        discretization; -50*exp(-x1^2) has bound states."""
        from scipy.linalg import eigh_tridiagonal
        potential = parse_potential(text, 1)
        grid = TraceGrid()
        x = np.linspace(-grid.half_width, grid.half_width, grid.points + 2)[1:-1]
        h = x[1] - x[0]
        free = np.full(grid.points, 2.0 / h ** 2)
        off = np.full(grid.points - 1, -1.0 / h ** 2)
        lam = eigh_tridiagonal(free + evaluate_array(potential, [x]), off,
                               eigvals_only=True)
        lam0 = eigh_tridiagonal(free, off, eigvals_only=True)
        ts = np.geomspace(0.02, 0.2, 12)
        ref = np.sum(np.exp(-ts[:, None] * lam) - np.exp(-ts[:, None] * lam0),
                     axis=1)
        got = relative_heat_trace_1d(potential, ts, grid)
        assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


class TestFitExpansion:
    def test_recovers_synthetic_coefficients(self):
        coeffs = [2.0, -1.5, 0.25]
        ts = np.geomspace(0.01, 0.1, 9)
        samples = [(t, (4 * math.pi * t) ** -0.5
                    * sum(c * t ** (j + 1) for j, c in enumerate(coeffs)))
                   for t in ts]
        report = fit_expansion(samples, 1, 3)
        for j, c in enumerate(coeffs, start=1):
            assert report.coefficient(j) == pytest.approx(c, abs=1e-10)
        assert report.residual_norm < 1e-12

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_expansion([(0.1, 1.0), (0.2, 2.0)], 1, 2)

    def test_requires_distinct_ts(self):
        with pytest.raises(ValueError):
            fit_expansion([(0.1, 1.0)] * 5, 1, 1)

    @pytest.mark.parametrize("k,sample,message", [
        (0, (0.0, 1.0), "t values"), (0, (-0.05, 1.0), "t values"),
        (4, (math.inf, 1.0), "t values"), (4, (math.nan, 1.0), "t values"),
        (2, (0.2, math.nan), "values must be finite"),
        (2, (0.2, math.inf), "values must be finite")])
    def test_rejects_unusable_samples(self, k, sample, message):
        samples = [(t, 1.0) for t in (0.05, 0.1, 0.2, 0.3, 0.4)]
        samples[k] = sample
        with pytest.raises(ValueError, match=message):
            fit_expansion(samples, 1, 2)


class TestNcTaylor:
    def test_remainder_slope_grows_with_order(self):
        slopes = [nc_taylor_matrix_check(6, N, seed=0).slope for N in range(4)]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))

    def test_cm_vanishes_when_arguments_coincide(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (5, 5))
        a = (a + a.T) / 2
        for m in (1, 2, 3, 4):
            assert np.linalg.norm(taylor_family(a, a, m)) <= 1e-12

    def test_c0_is_identity_and_c1_is_difference(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, (4, 4))
        assert np.allclose(taylor_family(a, b, 0), np.eye(4))
        assert np.allclose(taylor_family(a, b, 1), a - b)

    def test_remainder_exact_at_order_zero_limit(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (4, 4))
        r = taylor_remainder(a, a, 0.01, 0)
        assert r <= 1e-14

    def test_expm_matches_scipy(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.uniform(-1, 1, (6, 6))
            for t in np.geomspace(1e-3, 10, 7):
                want = expm(t * a)
                err = np.linalg.norm(_expm(t * a) - want) / np.linalg.norm(want)
                assert err <= 1e-12

    def test_operator_family_matches_taylor_family(self):
        grid = np.linspace(-3, 3, 7)
        h0, h = discretized_schrodinger_1d(np.exp(-grid ** 2), 1.0)
        for m in range(6):
            c = taylor_family(-h0, -h, m)
            v = matrix_operator_family(h0, h, m)
            scale = max(np.linalg.norm(v), 1.0)
            assert np.linalg.norm(c - v) / scale <= 1e-12
