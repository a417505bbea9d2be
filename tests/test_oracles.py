"""Monte-Carlo, spectral, and matrix oracles."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from heatinv import oracles
from heatinv.oracles import (BridgeSampler, TraceGrid, _contour_nodes, _expm,
                             discretized_schrodinger_1d, fit_expansion,
                             fk_diagonal, matrix_operator_family,
                             nc_taylor_matrix_check, relative_heat_trace_1d,
                             taylor_family, taylor_remainder)
from heatinv.potentials import evaluate_array, parse_potential

GAUSSIAN = parse_potential("exp(-x1^2)", 1)


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
        chunks = sampler.chunks()
        assert [count for _, count in chunks] == [4096, 4096, 808]
        for chunk, (s, block) in zip(chunks, sampler.blocks(), strict=True):
            s2, block2 = sampler.draw(chunk)
            assert np.array_equal(s, s2)
            assert np.array_equal(block, block2)

    @pytest.mark.parametrize("field", ["steps", "paths", "dim"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_rejects_sizes_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            BridgeSampler(**{field: value})


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

    def test_thread_count_does_not_change_result(self, monkeypatch):
        sampler = BridgeSampler(seed=11, paths=12_000)
        serial = fk_diagonal(GAUSSIAN, (0.0,), 0.05, sampler)
        monkeypatch.setenv("HEATINV_THREADS", "4")
        threaded = fk_diagonal(GAUSSIAN, (0.0,), 0.05, sampler)
        assert serial == threaded

    @pytest.mark.parametrize("potential,x", [
        (GAUSSIAN, (0.3,)),
        (parse_potential("exp(-x1^2-x2^2)", 2), (0.3, -0.2)),
    ])
    def test_matches_fresh_array_reference(self, potential, x):
        """The tiled in-place pipeline against rng.normal + cumsum + pin +
        np.trapezoid on fresh whole-chunk arrays; 9000 paths leave an
        808-path last chunk."""
        t = 0.05
        sampler = BridgeSampler(seed=4, steps=100, paths=9000, dim=len(x))
        weights = []
        for child, count in sampler.chunks():
            incr = np.random.default_rng(child).normal(
                scale=math.sqrt(1.0 / sampler.steps),
                size=(count, sampler.steps, sampler.dim))
            w = np.concatenate([np.zeros((count, 1, sampler.dim)),
                                np.cumsum(incr, axis=1)], axis=1)
            s = np.linspace(0.0, 1.0, sampler.steps + 1)
            bridge = w - s[None, :, None] * w[:, -1:, :]
            values = np.exp(-sum((xi + math.sqrt(2 * t) * bridge[:, :, i]) ** 2
                                 for i, xi in enumerate(x)))
            weights.append(np.exp(-t * np.trapezoid(values, s, axis=1)))
        weights = np.concatenate(weights)
        prefactor = (4 * math.pi * t) ** (-len(x) / 2)
        est, se = fk_diagonal(potential, x, t, sampler)
        assert est == pytest.approx(prefactor * weights.mean(), rel=1e-13, abs=0)
        assert se == pytest.approx(prefactor * weights.std() / math.sqrt(len(weights)),
                                   rel=1e-13, abs=0)

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

    def test_memory_does_not_grow_with_steps(self, monkeypatch):
        """The traced peak is two tiles and the potential's temporaries on
        one tile, whatever the path length; two buffers of a whole 4096-path
        chunk at steps=2048 would be 128 MB."""
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
        assert peaks[2048] < 8 * 2 ** 20
        assert peaks[2048] <= 1.5 * peaks[64]

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
