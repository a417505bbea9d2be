"""Command-line interface.

Subcommands:
  local     symbolic heat-invariant densities a_1..a_J
  alpha     regularized-trace densities alpha_1..alpha_J for a decay rate
  coeffs    numeric a_j and scattering-phase b_j for a concrete potential
  regtrace  numeric alpha_j and trace-distribution beta_j
  verify    numerical verification suites (routes | fk | trace | taylor)

Each command and suite takes only the options it reads; any other argument
is a usage error.  A report's CSV is built from the rows of its JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure.  The decay rate epsilon is accepted only as p or p/q in ASCII
digits, such as "1/3", so the subtraction depth N = floor(n/epsilon) is
unambiguous.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from ._lazy import np
from .invariants import (alpha_density, alpha_density_tail_sum, alpha_regime,
                         heat_invariant_binomial, heat_invariant_operator_sum,
                         regularization_depth)
from .numeric import (TABLE_COLUMNS, QuadratureConfig, QuadratureError,
                      check_quadrature, coefficient_table, evaluate_density,
                      integrate_density, table_text)
from .oracles import (BridgeSampler, TraceGrid, discretized_schrodinger_1d,
                      fit_expansion, fk_diagonal, nc_taylor_matrix_check,
                      relative_heat_trace_1d,
                      taylor_family_matches_operator_family)
from .potentials import PotentialEvalError, evaluate_array, parse_potential

# Supported dimensions n and range of j per n.  Both routes and their
# equality are verified up to each cap, and `verify routes --dim n --order
# <cap> --epsilon 1/2` stays within the budget stated in the README.  One
# order more fits that time budget too (README Limits): the caps are the
# orders the tests pin by digest (n <= 4), and one order more would peak
# past CI's 48 MB RSS cap at n = 3, 4, 5 and 7.
MAX_ORDER = {1: 10, 2: 8, 3: 7, 4: 6, 5: 5, 6: 4, 7: 4, 8: 3}

# `verify taylor` fits the remainder's slope on t in [1e-3, 1e-2], where the
# t^(N+1) remainder of any higher order is below float64 round-off
MAX_TAYLOR_ORDER = 4

# `verify taylor` checks matrices of this size: its random symmetric
# matrices and its discretized Schrodinger pair
TAYLOR_MATRIX_DIM = 6

# `verify trace` fits its 4-term small-time expansion on t in [0.02, 0.2];
# past this bound on t |min V| over the window and the trace grid, a well's
# trace grows like e^(t |min V|) and the fit no longer holds
TRACE_MAX_WELL = 2.0

# `verify fk` tests something only while its window (3 standard errors plus
# the omitted a_4 t^4 term) is below this fraction of |target|
FK_MAX_WINDOW = 0.1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _parse_epsilon(text: str) -> Fraction:
    if not (text.isascii() and all(part.isdigit() for part in text.split("/", 1))):
        raise UsageError(
            f"epsilon must be an exact rational such as 1/3, got {text!r}")
    try:
        eps = Fraction(text)
    except ZeroDivisionError as exc:
        raise UsageError(f"bad epsilon {text!r}: {exc}") from exc
    if not 0 < eps <= 1:
        raise UsageError(f"epsilon must lie in (0, 1], got {eps}")
    return eps


def _check_dim(dim: int):
    if dim not in MAX_ORDER:
        raise UsageError(
            f"dimension {dim} is outside the supported range 1..{max(MAX_ORDER)}")


def _check_order(order: int, dim: int):
    if order < 1:
        raise UsageError(f"order must be >= 1, got {order}")
    _check_dim(dim)
    cap = MAX_ORDER[dim]
    if order > cap:
        raise UsageError(
            f"order {order} exceeds the supported range 1..{cap} for dimension {dim}")


def _csv_field(column: str, value) -> str:
    text = "" if value is None else str(value)
    return f'"{text}"' if column == "density" or "," in text else text


def _emit(args, payload: dict, rows: list[dict], columns: tuple[str, ...],
          text: str):
    """Write one report, to `--output` or stdout, as the JSON payload, as the
    CSV of `rows` (which the payload holds), or as `text`.  The CSV always
    quotes `density`, and any other field that holds a comma."""
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    elif args.format == "csv":
        out = "\n".join([",".join(columns)]
                        + [",".join(_csv_field(c, row[c]) for c in columns)
                           for row in rows])
    else:
        out = text
    _write(args.output or sys.stdout, out + "\n")


def _write(target, text: str):
    """Write and flush `text` to `target`: a path, or stdout or stderr (None
    when its fd was closed at start-up).  Any OSError becomes the usage error
    `cannot write <path|stdout|stderr>: <reason>`."""
    name = (target if isinstance(target, str)
            else "stdout" if target is sys.stdout else "stderr")
    try:
        if target is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with (open(target, "w") if isinstance(target, str)
              else contextlib.nullcontext(target)) as fh:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {name}: {exc.strerror or exc}") from exc


def _complain(line: str):
    # a stderr that refuses the line leaves the exit code as the only report
    with contextlib.suppress(UsageError):
        _write(sys.stderr, line + "\n")


# ---------------------------------------------------------------------------
# Symbolic commands
# ---------------------------------------------------------------------------


def cmd_local(args) -> int:
    _check_order(args.order, args.dim)
    rows = []
    for j in range(1, args.order + 1):
        density = heat_invariant_binomial(j, args.dim).density
        agree = density == heat_invariant_operator_sum(j, args.dim).density
        rows.append({"j": j, "density": density.to_text(), "routes_agree": agree})
    text = "\n".join(f'a_{r["j"]}: {r["density"]}'
                     + ("" if r["routes_agree"] else "   [ROUTE MISMATCH]")
                     for r in rows)
    _emit(args, {"dim": args.dim, "rows": rows}, rows,
          ("j", "density", "routes_agree"), text)
    return EXIT_OK if all(r["routes_agree"] for r in rows) else EXIT_VERIFY_FAIL


def cmd_alpha(args) -> int:
    _check_order(args.order, args.dim)
    eps = _parse_epsilon(args.epsilon)
    depth = regularization_depth(args.dim, eps)
    rows = []
    for j in range(1, args.order + 1):
        inv = alpha_density(j, args.dim, eps)
        rows.append({"j": j, "regime": alpha_regime(j, args.dim, eps),
                     "density": inv.density.to_text()})
    text = "\n".join([f"N = {depth}"]
                     + [f'alpha_{r["j"]} [{r["regime"]}]: {r["density"]}' for r in rows])
    _emit(args, {"dim": args.dim, "epsilon": str(eps), "N": depth,
                 "rows": rows}, rows, ("j", "regime", "density"), text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Numeric commands
# ---------------------------------------------------------------------------


def _emit_table(args, density) -> int:
    """Print the coefficient table of rows j = 1..order, `density(j)` giving
    row j's invariant.  The quadrature is checked before any density is
    built."""
    potential = parse_potential(args.potential, args.dim)
    config = QuadratureConfig(half_width=args.box)
    check_quadrature(args.dim, config, potential)
    invariants = [density(j) for j in range(1, args.order + 1)]
    table = coefficient_table(invariants, potential, args.dim, config)
    _emit(args, table, table["rows"], TABLE_COLUMNS, table_text(table))
    return EXIT_OK


def cmd_coeffs(args) -> int:
    _check_order(args.order, args.dim)
    return _emit_table(args, lambda j: heat_invariant_binomial(j, args.dim))


def cmd_regtrace(args) -> int:
    _check_order(args.order, args.dim)
    eps = _parse_epsilon(args.epsilon)
    return _emit_table(args, lambda j: alpha_density(j, args.dim, eps))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _report(args, checks: list[dict]) -> int:
    ok = all(c["pass"] for c in checks)
    text = "\n".join(
        f'[{"PASS" if c["pass"] else "FAIL"}] {c["name"]}: '
        f'observed={c.get("observed")} target={c.get("target")} '
        f'tol={c.get("tolerance")}' for c in checks)
    _emit(args, {"suite": args.suite, "pass": ok, "checks": checks}, checks,
          ("name", "target", "observed", "tolerance", "pass"), text)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def verify_routes(args) -> int:
    _check_order(args.order, args.dim)
    orders = range(1, args.order + 1)
    # (name, one route, the other, the arguments of both)
    routes = [(f"density_routes_j{j}_n{args.dim}", heat_invariant_binomial,
               heat_invariant_operator_sum, (j, args.dim)) for j in orders]
    if args.epsilon:
        eps = _parse_epsilon(args.epsilon)
        routes += [(f"alpha_routes_j{j}_n{args.dim}_eps{eps}", alpha_density,
                    alpha_density_tail_sum, (j, args.dim, eps))
                   for j in orders if alpha_regime(j, args.dim, eps) == "middle"]
    checks = []
    for name, route, other, key in routes:
        agree = route(*key).density == other(*key).density
        checks.append({"name": name, "target": "equal",
                       "observed": "equal" if agree else "different",
                       "tolerance": "exact", "pass": agree})
    return _report(args, checks)


def verify_fk(args) -> int:
    # a_1..a_4 are computed past the order cap at n = 8 (cap 3), which stays
    # cheap; only the dimension is checked
    _check_dim(args.dim)
    if not 0 < args.t < math.inf:
        raise UsageError(f"t must be positive and finite, got {args.t}")
    potential = parse_potential(args.potential, args.dim)
    sampler = BridgeSampler(seed=args.seed, steps=args.steps,
                            paths=args.paths, dim=args.dim)
    x = (0.0,) * args.dim
    a = [evaluate_density(heat_invariant_binomial(j, args.dim).density, potential, x)
         for j in (1, 2, 3, 4)]
    # the 3-term target leaves out a_4 t^4, a bias that can exceed 3 standard
    # errors once the paths are many, so the tolerance adds it; a t where
    # that term alone fills the window is refused before any path is drawn.
    # Far from 1, a power of t raises OverflowError and a product overflows
    # to inf: such a t is refused too
    try:
        powers = [a[j - 1] * args.t ** j for j in (1, 2, 3)]
        terms = 1.0
        for term in powers:
            terms += term
        prefactor = (4 * math.pi * args.t) ** (-args.dim / 2)
        target = prefactor * terms
        omitted = abs(prefactor * a[3] * args.t ** 4)
    except OverflowError:
        target = omitted = math.inf
    if not (math.isfinite(target) and math.isfinite(omitted)):
        if args.t > 1:
            raise UsageError(
                f"t = {args.t} is too large for the 3-term expansion: its"
                " terms overflow float64")
        raise UsageError(
            f"t = {args.t} is too small: the kernel prefactor"
            f" (4 pi t)^(-n/2) at n = {args.dim} overflows float64")
    # where 1 + a_1 t + a_2 t^2 + a_3 t^3 rounds to 1 but a term is nonzero,
    # every path weight rounds to 1 too, and the suite would compare the
    # free kernel with itself; with every a_j zero the check is exact
    if terms == 1.0 and any(powers):
        raise UsageError(
            f"t = {args.t} is too small: 1 + a_1 t + a_2 t^2 + a_3 t^3 rounds"
            " to 1, so the check would test nothing")
    window = FK_MAX_WINDOW * abs(target)
    if omitted >= window:
        raise UsageError(
            f"t = {args.t} is too large for the 3-term expansion: the omitted"
            f" a_4 t^4 term ({omitted:.3g}) is not below {FK_MAX_WINDOW:g}"
            f" of the target ({abs(target):.3g})")
    estimate, stderr = fk_diagonal(potential, x, args.t, sampler)
    tolerance = 3 * stderr + omitted
    # a window narrower than the target's float spacing leaves rounding to
    # decide the check; a zero one is exact, as at a zero potential
    if 0 < tolerance < math.ulp(target):
        raise UsageError(
            f"t = {args.t} is too small: the tolerance {tolerance:.3g} is below"
            f" the float spacing of the target, {math.ulp(target):.3g}")
    ok = tolerance < window and abs(estimate - target) <= tolerance
    return _report(args, [{
        "name": "fk_vs_3term_expansion", "target": target,
        "observed": estimate, "tolerance": tolerance, "pass": bool(ok)}])


def verify_trace(args) -> int:
    potential = parse_potential(args.potential, 1)
    ts = np.geomspace(0.02, 0.2, 12)
    grid = TraceGrid()
    traces = relative_heat_trace_1d(potential, ts, grid)
    # checked after the sweep, whose overflow on a far deeper well is
    # reported as such
    well = ts[-1] * max(0.0, -float(evaluate_array(potential, [grid.nodes()]).min()))
    if well > TRACE_MAX_WELL:
        raise ArithmeticError(
            f"t * |min V| reaches {well:.3g} on the trace grid, past the bound"
            f" {TRACE_MAX_WELL:g} within which the small-time fit on t in"
            f" [{ts[0]:g}, {ts[-1]:g}] holds")
    samples = list(zip(ts.tolist(), traces.tolist()))
    report = fit_expansion(samples, 1, 4)
    # the targets integrate over the box the trace is taken on
    config = QuadratureConfig(half_width=grid.half_width)
    checks = []
    for j, tol in ((1, 0.02), (2, 0.10)):
        target, _ = integrate_density(heat_invariant_binomial(j, 1).density,
                                      potential, 1, config)
        observed = report.coefficient(j)
        ok = abs(observed - target) <= tol * abs(target)
        checks.append({"name": f"trace_fit_c{j}", "target": target,
                       "observed": observed, "tolerance": f"{tol:.0%} relative",
                       "pass": bool(ok)})
    return _report(args, checks)


def verify_taylor(args) -> int:
    if args.order < 0:
        raise UsageError(f"order must be >= 0, got {args.order}")
    if args.order > MAX_TAYLOR_ORDER:
        raise UsageError(
            f"order {args.order} exceeds {MAX_TAYLOR_ORDER}: a higher-order"
            " remainder is below float64 round-off on the fitted t grid")
    checks = []
    for seed in (args.seed, args.seed + 1, args.seed + 2):
        report = nc_taylor_matrix_check(TAYLOR_MATRIX_DIM, args.order, seed)
        lo, hi = args.order + 0.8, args.order + 1.3
        ok = lo <= report.slope <= hi
        checks.append({"name": f"taylor_slope_N{args.order}_seed{seed}",
                       "target": f"[{lo}, {hi}]", "observed": report.slope,
                       "tolerance": "slope window", "pass": bool(ok)})
    grid = np.linspace(-3.0, 3.0, TAYLOR_MATRIX_DIM)
    h0_mat, h_mat = discretized_schrodinger_1d(
        evaluate_array(parse_potential("exp(-x1^2)", 1), [grid]), 1.0)
    for m in range(args.order + 1):
        deviation = taylor_family_matches_operator_family(h0_mat, h_mat, m)
        checks.append({"name": f"taylor_family_equals_operator_family_m{m}",
                       "target": 0.0, "observed": deviation,
                       "tolerance": 1e-12, "pass": bool(deviation <= 1e-12)})
    return _report(args, checks)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

POTENTIAL_HELP = (
    "potential expression in x1..xn; grammar: + - * / ^ (integer exponents), "
    "parentheses, pi, exp, sin, cos, tanh, sqrt, and powr(base, p, q) for "
    "rational powers with positive base")


ORDER_HELP = ("max j: at most "
              + ", ".join(f"{cap} for n={n}" for n, cap in MAX_ORDER.items()))


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, whose own writes (help and version to stdout, usage
    errors to stderr) go through `_write`: a refused one is a usage error,
    not an OSError that Python 3.11 drops or that stays in the buffer until
    the interpreter's final flush.  Subparsers take the parser's class."""

    def _print_message(self, message, file=None):
        if message:
            _write(file, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="heatinv",
        description="Heat invariants and regularized-trace coefficients of"
                    " -Laplacian + V, exactly and numerically.")
    parser.add_argument("--version", action="version", version=__version__)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    report.add_argument("--output", help="write output to a file instead of stdout")
    # the options of the commands, each required but --box, and those of the
    # verify suites, none required
    command_options = {
        "--dim": dict(type=int, required=True),
        "--epsilon": dict(required=True,
                          help='decay rate as an exact rational, e.g. "1/3"'),
        "--potential": dict(required=True, help=POTENTIAL_HELP),
        "--order": dict(type=int, required=True, help=ORDER_HELP),
        "--box": dict(type=float, default=QuadratureConfig.half_width,
                      help="half-width L of the quadrature box [-L, L]^n; for a"
                           " radial potential, the scale L of the half-line map"
                           " r = L (u/(1-u))^3"),
    }
    suite_options = {
        "--dim": dict(type=int, default=1),
        "--order": dict(type=int, default=3),
        "--epsilon": dict(),
        "--potential": dict(default="exp(-x1^2)", help=POTENTIAL_HELP),
        "--t": dict(type=float, default=0.05),
        "--seed": dict(type=int, default=0),
        "--paths": dict(type=int, default=100_000),
        "--steps": dict(type=int, default=BridgeSampler.steps),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    group, options = sub, command_options
    for name, func, flags, summary in (
            ("local", cmd_local, "--dim --order", "symbolic heat-invariant densities"),
            ("alpha", cmd_alpha, "--dim --epsilon --order", "regularized-trace densities"),
            ("coeffs", cmd_coeffs, "--dim --potential --order --box",
             "numeric heat invariants and b_j"),
            ("regtrace", cmd_regtrace, "--dim --epsilon --potential --order --box",
             "numeric alpha_j and beta_j"),
            ("verify", None, "", "numerical verification suites"),
            ("routes", verify_routes, "--dim --order --epsilon", None),
            ("fk", verify_fk, "--dim --potential --t --seed --paths --steps", None),
            ("trace", verify_trace, "--potential", None),
            ("taylor", verify_taylor, "--order --seed", None)):
        if func is None:  # the entries after it are verify's suites
            group = sub.add_parser(name, help=summary).add_subparsers(
                dest="suite", required=True)
            options = suite_options
            continue
        p = group.add_parser(name, parents=[report],
                             **({} if summary is None else {"help": summary}))
        for flag in flags.split():
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            raise UsageError(f"unrecognized arguments: {' '.join(unread)}")
        return args.func(args)
    except (QuadratureError, PotentialEvalError, ArithmeticError) as exc:
        # before ValueError, which PotentialEvalError subclasses
        _complain(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (UsageError, ValueError) as exc:
        _complain(f"error: {exc}")
        return EXIT_USAGE


def run() -> None:
    """Process entry of the `heatinv` script and `python -m heatinv.cli`.
    Exits with `main()`'s code and freezes every object (`gc.freeze`), so the
    shutdown collections skip the ~22k objects numpy's import leaves.  A stdout
    or stderr that refused a write goes to the null device: the final flush
    does not fail again (exit 120).  `main()` keeps a collecting heap and
    every fd."""
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            try:
                if stream:
                    stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        sys.exit(code)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
