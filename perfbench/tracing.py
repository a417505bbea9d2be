"""Traced in-process run: spans around the calls into each heatinv module.

The tracer wraps the public functions of `invariants`, `potentials`,
`numeric` and `oracles` (in every heatinv module that imported them) and
records a span per call: name, start, end, parent, thread.  The hottest
`potentials` calls (`evaluate`, `evaluate_array`, `differentiate`) are tallied
into their caller's span as a count and a total instead, so a quadrature
with a million scalar evaluations keeps a bounded record.  Spans stay in
memory and are written to perfbench/out/ when the run ends.

The run has two parts.  First the workload's own commands go through
`heatinv.cli.main(argv)` in this process, with the caches cleared before
each, as a fresh process would start.  Then fixed probes time each layer on
the same inputs for every workload; they give the per-layer metrics that
BENCHMARK.json lists, so every workload reports all of them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
import tracemalloc
import traceback
from fractions import Fraction

import numpy as np

import checks
import refs as R
from workloads import (COMMANDS, OUT_DIR, SRC, THREADS, command_env,
                       run_subprocess)

SPANNED = {
    "invariants": ("heat_invariant_binomial", "heat_invariant_operator_sum",
                   "alpha_density", "alpha_density_tail_sum"),
    "potentials": ("parse_potential",),
    "numeric": ("coefficient_table", "integrate_density", "evaluate_density"),
    "oracles": ("fk_diagonal", "relative_heat_trace_1d", "fit_expansion",
                "nc_taylor_matrix_check", "taylor_family_matches_operator_family"),
}
TALLIED = {"potentials": ("differentiate", "evaluate", "evaluate_array")}

FK_PATHS = 200_000
FK_T = 0.05
OVERHEAD_PAIRS = 5


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.detached: dict[str, list] = {}  # tallies from threads with no open span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = {"id": next(self._ids), "name": name,
               "parent": stack[-1]["id"] if stack else None,
               "thread": threading.get_ident(), "start": time.perf_counter(),
               "end": None, "tally": {}}
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def tally(self, name: str, seconds: float):
        stack = self._stack()
        if stack:
            entry = stack[-1]["tally"].setdefault(name, [0, 0.0])
        else:
            with self._lock:
                entry = self.detached.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    # -- reading the record ------------------------------------------------

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]

    def descendants(self, rec: dict) -> list[dict]:
        out, todo = [], [rec]
        while todo:
            kids = self.children(todo.pop())
            out += kids
            todo += kids
        return out

    def tally_seconds(self, rec: dict, prefix: str) -> float:
        """Tallied time under `prefix` in a span and all its descendants."""
        return sum(v[1] for s in [rec, *self.descendants(rec)]
                   for k, v in s["tally"].items() if k.startswith(prefix))

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s["id"])
        path.write_text(json.dumps({"spans": spans, "detached": self.detached}))


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def install(tracer: Tracer):
    """Replace the traced functions in every loaded heatinv module; returns
    the function that puts the originals back."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "heatinv" or name.startswith("heatinv.")]
    replaced = []
    for table, tallied in ((SPANNED, False), (TALLIED, True)):
        for mod_name, names in table.items():
            home = sys.modules[f"heatinv.{mod_name}"]
            for name in names:
                orig = getattr(home, name)
                label = f"{mod_name}.{name}"
                if tallied:
                    def wrapper(*a, _f=orig, _l=label, **k):
                        t0 = time.perf_counter()
                        try:
                            return _f(*a, **k)
                        finally:
                            tracer.tally(_l, time.perf_counter() - t0)
                else:
                    def wrapper(*a, _f=orig, _l=label, **k):
                        with tracer.span(_l):
                            return _f(*a, **k)
                wrapper = functools.wraps(orig)(wrapper)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, orig))

    def undo():
        for mod, attr, orig in reversed(replaced):
            setattr(mod, attr, orig)
    return undo


def clear_caches():
    """Empty every lru_cache in heatinv, as at the start of a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "heatinv" or name.startswith("heatinv."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def cache_entries(module) -> int:
    return sum(v.cache_info().currsize for v in vars(module).values()
               if callable(getattr(v, "cache_info", None)))


@contextlib.contextmanager
def threads_env(count: int):
    old = os.environ.get("HEATINV_THREADS")
    os.environ["HEATINV_THREADS"] = str(count)
    try:
        yield
    finally:
        if old is None:
            del os.environ["HEATINV_THREADS"]
        else:
            os.environ["HEATINV_THREADS"] = old


def count_nodes(expr) -> int:
    """Tree size of a potential AST (shared subtrees counted each time)."""
    from dataclasses import fields
    from heatinv.potentials import Expr
    total, todo = 0, [expr]
    while todo:
        node = todo.pop()
        total += 1
        todo += [v for f in fields(node) if isinstance(v := getattr(node, f.name), Expr)]
    return total


class TracedRun:
    def __init__(self, workload: str, seed: int, refs, log):
        self.workload, self.seed, self.refs, self.log = workload, seed, refs, log
        self.tracer = Tracer()
        self.attempted = self.failed = 0
        self.correct = True
        self.metrics: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, tuple[float, str]] = {}

    def problem(self, where: str, problems):
        for p in problems:
            self.log(f"WRONG {where}: {p}")
        if problems:
            self.correct = False

    def operation(self, name: str, fn):
        """One attempted operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            fn()
        except Exception:  # a failed probe must not stop the other layers
            self.failed += 1
            self.log(f"FAILED {name}:\n{traceback.format_exc()}")

    # -- the workload's commands in process --------------------------------

    def commands(self):
        import heatinv.cli as cli
        for cmd in COMMANDS[self.workload](self.seed):
            def one(cmd=cmd):
                clear_caches()
                out, err = io.StringIO(), io.StringIO()
                with threads_env(cmd.threads), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err), \
                        self.tracer.span(f"cli.main.{cmd.label}") as rec:
                    try:
                        code = cli.main(list(cmd.argv))
                    except SystemExit as exc:  # argparse exits on a usage error
                        code = exc.code
                if code != 0:
                    raise RuntimeError(f"exit {code}: {err.getvalue()[-400:]}")
                self.problem(cmd.label, checks.check(cmd, out.getvalue(), self.refs, self.seed))
                self.report_command(cmd, rec)
            self.operation(f"cli.main {cmd.label}", one)

    def report_command(self, cmd, rec):
        t = self.tracer
        self.extra[f"cli.main.{cmd.label}_s"] = (duration(rec), "s")
        spans = t.descendants(rec)
        by_id = {s["id"]: s for s in t.spans}
        for layer in ("invariants", "numeric", "oracles"):
            # outermost spans of the layer, so nested calls count once
            outer = [s for s in spans if s["name"].startswith(layer + ".")
                     and not by_id[s["parent"]]["name"].startswith(layer + ".")]
            if outer:
                self.extra[f"{cmd.label}.{layer}_s"] = (sum(map(duration, outer)), "s")
        pot_s = t.tally_seconds(rec, "potentials.")
        if pot_s:
            self.extra[f"{cmd.label}.potentials_s"] = (pot_s, "s")
        for table in (s for s in spans if s["name"] == "numeric.coefficient_table"):
            for j, row in enumerate(s for s in t.children(table)
                                    if s["name"] == "numeric.integrate_density"):
                self.extra[f"{cmd.label}.integrate_density.j{j + 1}_s"] = (duration(row), "s")

    # -- probes -------------------------------------------------------------

    def probe_invariants(self):
        import heatinv.invariants as inv
        t = self.tracer
        terms = 0
        with t.span("probe.invariants") as top:
            for n in (1, 2, 3):
                clear_caches()
                for j in range(1, 7):
                    b = inv.heat_invariant_binomial(j, n)
                    o = inv.heat_invariant_operator_sum(j, n)
                    terms += len(b.density.terms) + len(o.density.terms)
                    if b.density != o.density:
                        self.problem("probe.invariants", [f"routes differ for a_{j}, n={n}"])
            eps = Fraction(1, 2)
            depth = 6  # floor(3 / (1/2))
            for j in range(1, 7):
                a = inv.alpha_density(j, 3, eps)
                terms += len(a.density.terms)
                if 2 * j < depth + 2:
                    if a.density.terms:
                        self.problem("probe.invariants", [f"zero-regime alpha_{j} is not 0"])
                elif j <= depth:
                    tail = inv.alpha_density_tail_sum(j, 3, eps)
                    terms += len(tail.density.terms)
                    if tail.density != a.density:
                        self.problem("probe.invariants", [f"alpha_{j} routes differ"])
            entries = cache_entries(inv)
        mine = t.children(top)

        def total(*names):
            return sum(duration(s) for s in mine if s["name"] in names)
        self.metrics["invariants.binomial_s"] = (total("invariants.heat_invariant_binomial"), "s")
        self.metrics["invariants.operator_sum_s"] = (
            total("invariants.heat_invariant_operator_sum"), "s")
        self.metrics["invariants.alpha_s"] = (
            total("invariants.alpha_density", "invariants.alpha_density_tail_sum"), "s")
        self.metrics["invariants.density_terms"] = (terms, "count")
        self.metrics["invariants.cache_entries"] = (entries, "count")

    def inputs(self):
        """Potentials, densities and derivative sets of the coeffs/regtrace rows."""
        import heatinv.invariants as inv
        import heatinv.potentials as pot
        eps = Fraction(1, 3)
        p1 = pot.parse_potential("exp(-x1^2)", 1)
        p2 = pot.parse_potential("exp(-x1^2-x2^2)", 2)
        pr = pot.parse_potential("powr(1+x1^2,-1,6)", 1)
        d1 = {j: inv.heat_invariant_binomial(j, 1).density for j in range(1, 7)}
        d2 = {j: inv.heat_invariant_binomial(j, 2).density for j in range(1, 4)}
        dr = {j: inv.alpha_density(j, 1, eps).density for j in range(1, 6)}
        sets = []
        for p, dens in ((p1, d1), (p2, d2), (pr, dr)):
            nus = sorted(set().union(*(d.jet_variables() for d in dens.values())))
            sets.append((p, nus))
        return {"p1": p1, "p2": p2, "pr": pr, "d1": d1, "d2": d2, "dr": dr, "sets": sets}

    def probe_potentials(self, data):
        import heatinv.oracles as orc
        import heatinv.potentials as pot
        t = self.tracer
        with t.span("probe.potentials.differentiate") as rec:
            derivs = [(p, [pot.differentiate(p, nu) for nu in nus]) for p, nus in data["sets"]]
        self.metrics["potentials.differentiate_s"] = (t.tally_seconds(rec, "potentials."), "s")
        self.metrics["potentials.derivative_nodes"] = (
            sum(count_nodes(d.root) for _, ds in derivs for d in ds), "count")

        grids = {1: np.linspace(-2.5, 2.5, 16), "r": np.linspace(-40.0, 40.0, 16)}
        points = [[(x,) for x in grids[1]],
                  [(x, y) for x in np.linspace(-2.0, 2.0, 4) for y in np.linspace(-1.5, 2.5, 4)],
                  [(x,) for x in grids["r"]]]
        with t.span("probe.potentials.evaluate") as rec:
            scalar = [[[pot.evaluate(d, pt) for pt in pts] for d in ds]
                      for (_, ds), pts in zip(derivs, points)]
        count = sum(len(pts) for pts in points)
        self.metrics["potentials.evaluate_points_per_s"] = (
            count / t.tally_seconds(rec, "potentials.evaluate"), "1/s")

        xs = np.linspace(-3.0, 3.0, 2048)
        gx, gy = np.meshgrid(np.linspace(-3.0, 3.0, 48), np.linspace(-3.0, 3.0, 48))
        arrays = [[xs], [gx, gy], [np.linspace(-2000.0, 2000.0, 2048)]]
        reps = 5
        with t.span("probe.potentials.evaluate_array") as rec:
            for _ in range(reps):
                for (_, ds), coords in zip(derivs, arrays):
                    for d in ds:
                        pot.evaluate_array(d, coords)
        nodes = reps * sum(c[0].size for c in arrays)
        self.metrics["potentials.evaluate_array_points_per_s"] = (
            nodes / t.tally_seconds(rec, "potentials.evaluate_array"), "1/s")
        # the scalar and array evaluators agree at the scalar points
        for (_, ds), pts, vals in zip(derivs, points, scalar):
            coords = [np.array([pt[i] for pt in pts]) for i in range(len(pts[0]))]
            for d, want in zip(ds, vals):
                got = pot.evaluate_array(d, coords)
                if not np.allclose(got, want, rtol=1e-9, atol=1e-12 * max(1.0, np.abs(want).max())):
                    self.problem("probe.potentials", [f"evaluate and evaluate_array differ"
                                                      f" for {d.to_text()[:60]}"])

        sampler = orc.BridgeSampler(seed=self.seed, steps=256, paths=4 * 4096, dim=1)
        scale = math.sqrt(2.0 * FK_T)
        blocks = [[scale * block[:, :, 0]] for _, block in sampler.blocks()]
        with t.span("probe.potentials.paths") as rec:
            for _ in range(reps):
                for coords in blocks:
                    pot.evaluate_array(data["p1"], coords)
        self.metrics["potentials.evaluate_array_paths_per_s"] = (
            reps * sampler.paths / t.tally_seconds(rec, "potentials.evaluate_array"), "1/s")

    def probe_numeric(self, data):
        import heatinv.numeric as num
        t = self.tracer
        wide = num.QuadratureConfig(half_width=2000.0)
        rows = [("n1_j5", data["d1"][5], data["p1"], 1, None, R.GAUSSIAN, 12.0),
                ("n2_j2", data["d2"][2], data["p2"], 2, None, R.GAUSSIAN, 12.0),
                ("regtrace_j4", data["dr"][4], data["pr"], 1, wide, R.POWR, 2000.0)]
        self_s = 0.0
        for label, density, p, n, config, ref_pot, box in rows:
            with t.span(f"probe.numeric.{label}") as rec:
                value, err = num.integrate_density(density, p, n, config)
            row = t.children(rec)[0]
            self.metrics[f"numeric.integrate_density.{label}_s"] = (duration(row), "s")
            self_s += duration(row) - t.tally_seconds(row, "potentials.")
            miss = checks.row_integral(value, err, self.refs.integrals(
                ref_pot, n, box, density.to_text()))
            self.problem(f"probe.numeric.{label}", [miss] if miss else [])
        self.metrics["numeric.self_s"] = (self_s, "s")

    def probe_oracles(self, data):
        import heatinv.oracles as orc
        import heatinv.potentials as pot
        t = self.tracer
        p1 = data["p1"]
        sampler = orc.BridgeSampler(seed=self.seed, steps=256, paths=FK_PATHS, dim=1)
        with threads_env(THREADS):
            with t.span("probe.oracles.fk") as rec:
                est, err = orc.fk_diagonal(p1, (0.0,), FK_T, sampler)
            fk_s = duration(t.children(rec)[0])
            tracemalloc.start()
            try:
                orc.fk_diagonal(p1, (0.0,), FK_T, sampler)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        self.metrics["oracles.fk_diagonal_s"] = (fk_s, "s")
        self.metrics["oracles.fk_paths_per_s"] = (FK_PATHS / fk_s, "1/s")
        self.metrics["oracles.fk_peak_alloc_mb"] = (peak / 2 ** 20, "MB")
        if not (math.isfinite(est) and err > 0):
            self.problem("probe.oracles.fk", [f"estimate {est} stderr {err}"])

        # bitwise independence of HEATINV_THREADS
        small = orc.BridgeSampler(seed=self.seed, steps=64, paths=3 * 4096 + 123, dim=1)
        runs = []
        for threads in (1, THREADS):
            with threads_env(threads):
                runs.append(orc.fk_diagonal(p1, (0.25,), 0.1, small))
        if runs[0] != runs[1]:
            self.problem("probe.oracles.fk_threads", [f"{runs[0]!r} != {runs[1]!r}"])

        # constant potential: the free kernel times e^(-2t)
        tc = 0.1
        est, err = orc.fk_diagonal(pot.parse_potential("2 + 0*x1", 1), (0.3,), tc, small)
        want = (4 * math.pi * tc) ** -0.5 * math.exp(-2 * tc)
        if not (checks.is_close(est, want, 1e-12) and err <= 1e-6 * want):
            self.problem("probe.oracles.fk_constant", [f"{est!r} +- {err} != {want!r}"])

        # relative trace of a constant potential in closed form
        c = Fraction(1, 2)
        vc = pot.parse_potential("1/2 + 0*x1", 1)
        grid = orc.TraceGrid()
        L, m = grid.half_width, grid.points
        h = 2 * L / (m + 1)
        k = np.arange(1, m + 1)
        lam = 4 / h ** 2 * np.sin(k * np.pi / (2 * (m + 1))) ** 2
        per_t = []
        for tt in (0.05, 0.2):
            with t.span("probe.oracles.trace") as rec:
                got = orc.relative_heat_trace_1d(vc, tt, grid)
            per_t.append(duration(t.children(rec)[0]))
            want = math.expm1(-tt * float(c)) * math.fsum(np.exp(-tt * lam))
            if not checks.is_close(got, want, 1e-8):
                self.problem("probe.oracles.trace", [f"t={tt}: {got!r} != {want!r}"])
        self.metrics["oracles.relative_heat_trace_1d_s"] = (statistics.mean(per_t), "s")

        # fit of exact model samples recovers the model
        coeffs = [-1.5, 0.75, -0.25, 0.05]
        ts = np.geomspace(0.02, 0.2, 12)
        samples = [(float(s), (4 * math.pi * s) ** -0.5 * sum(cj * s ** (i + 1)
                                                             for i, cj in enumerate(coeffs)))
                   for s in ts]
        fits = []
        for _ in range(25):
            with t.span("probe.oracles.fit") as rec:
                report = orc.fit_expansion(samples, 1, 4)
            fits.append(duration(t.children(rec)[0]))
        self.metrics["oracles.fit_expansion_s"] = (statistics.median(fits), "s")
        if not all(checks.is_close(report.coefficient(i + 1), cj, 1e-6)
                   for i, cj in enumerate(coeffs)):
            self.problem("probe.oracles.fit", [f"fit {report.coefficients} != {coeffs}"])

        with t.span("probe.oracles.taylor") as rec:
            slopes = [orc.nc_taylor_matrix_check(6, 3, s).slope
                      for s in (self.seed, self.seed + 1, self.seed + 2)]
        self.metrics["oracles.nc_taylor_matrix_check_s"] = (
            sum(duration(s) for s in t.children(rec)), "s")
        if not all(3.8 <= s <= 4.3 for s in slopes):
            self.problem("probe.oracles.taylor", [f"slopes {slopes} outside [3.8, 4.3]"])

    def overhead(self, data):
        """Median, over alternating pairs, of the traced minus the untraced
        time of the n=1, j=4 row; the two halves of a pair run back to back,
        so they see the same machine."""
        import heatinv.numeric as num
        diffs = []
        for _ in range(OVERHEAD_PAIRS):
            times = []
            for traced in (True, False):
                undo = install(Tracer()) if traced else None
                try:
                    t0 = time.perf_counter()
                    num.integrate_density(data["d1"][4], data["p1"], 1)
                    times.append(time.perf_counter() - t0)
                finally:
                    if undo:
                        undo()
            diffs.append(times[0] - times[1])
        self.metrics["trace.overhead_s"] = (statistics.median(diffs), "s")

    def cli_import(self):
        times = []
        for _ in range(3):
            res = run_subprocess([sys.executable, "-c", "import heatinv.cli"], command_env())
            if res.returncode != 0:
                raise RuntimeError(res.stderr[-400:])
            times.append(res.wall_s)
        self.metrics["cli.import_s"] = (statistics.median(times), "s")

    def run(self) -> dict:
        undo = install(self.tracer)
        try:
            self.commands()
            data = self.inputs()
            self.operation("probe invariants", self.probe_invariants)
            self.operation("probe potentials", lambda: self.probe_potentials(data))
            self.operation("probe numeric", lambda: self.probe_numeric(data))
            self.operation("probe oracles", lambda: self.probe_oracles(data))
        finally:
            undo()
        self.operation("tracing overhead", lambda: self.overhead(data))
        self.operation("cli import", self.cli_import)
        self.metrics["cli.main_s"] = (sum(v for k, (v, _) in self.extra.items()
                                          if k.startswith("cli.main.")), "s")
        self.tracer.write(OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json")
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics, "extra": self.extra}


def traced_run(workload: str, seed: int, refs, log) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import heatinv
    import heatinv.cli  # noqa: F401  (loads every module the tracer wraps)
    if os.path.dirname(os.path.abspath(heatinv.__file__)) != str(SRC / "heatinv"):
        raise SystemExit(f"heatinv imported from {heatinv.__file__}, not {SRC}")
    return TracedRun(workload, seed, refs, log).run()
