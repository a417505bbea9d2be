"""The workloads, and the untraced timed passes over them.

Each command is run as `python3 -m heatinv.cli ...` from the checkout's
`src/`, one subprocess at a time, exactly as the `heatinv` console script
runs it.  A pass runs every command of a workload once; a run repeats whole
passes until `--seconds` have gone by and reports the median of each metric
over its passes.
"""

from __future__ import annotations

import compileall
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from refs import GAUSSIAN, POWR

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

THREADS = 2  # nproc of the machine the figures come from; no command uses more


@dataclass(frozen=True)
class Command:
    label: str            # names the command in spans and reports
    metric: str           # the per-command end-to-end metric it adds to
    kind: str             # selects the output check
    argv: tuple[str, ...]
    threads: int = 1      # HEATINV_THREADS
    potential: str = ""   # reference potential of table rows
    box: float = 12.0     # quadrature half-width of table rows


def coeffs(seed: int) -> list[Command]:
    # The long-range regtrace command shares the potentials and numeric
    # layers with the Gaussian tables but stresses them differently
    # (algebraic tails, Powr trees, the subtracted alpha_j route).  On its
    # own it is a pass of under 10 s, whose time on a shared machine drifts
    # by a quarter from run to run; inside this workload's minute-long pass
    # that drift averages out, and regtrace_s is still printed on its own.
    return [
        Command("coeffs_n1", "coeffs_n1_s", "coeffs",
                ("coeffs", "--dim", "1", "--potential", "exp(-x1^2)", "--order", "6",
                 "--format", "json"), potential=GAUSSIAN),
        Command("coeffs_n2", "coeffs_n2_s", "coeffs",
                ("coeffs", "--dim", "2", "--potential", "exp(-x1^2-x2^2)", "--order", "3",
                 "--format", "json"), potential=GAUSSIAN),
        Command("regtrace", "regtrace_s", "regtrace",
                ("regtrace", "--dim", "1", "--epsilon", "1/3", "--potential",
                 "powr(1+x1^2,-1,6)", "--order", "5", "--box", "2000",
                 "--format", "json"), potential=POWR, box=2000.0),
    ]


def symbolic_oracles(seed: int) -> list[Command]:
    # The exact algebra (invariants, diffpoly) and the oracles share no hot
    # layer.  Alone, the four symbolic commands make a pass of about 10 s
    # whose time on a shared machine moved by a quarter between runs; the
    # oracle commands, mostly numpy, moved by 5 to 9 percent.  One pass of
    # both lasts about 23 s and stays within the bound.
    cmds = [Command(f"local_n{n}", "local_s", "local",
                    ("local", "--dim", str(n), "--order", "6", "--format", "json"))
            for n in (1, 2, 3)]
    cmds.append(Command("routes", "routes_s", "routes",
                        ("verify", "routes", "--dim", "3", "--order", "6",
                         "--epsilon", "1/2", "--format", "json")))
    # verify fk runs at the program's default seed: its own pass/fail verdict
    # at 200k paths depends on the seed (see CHANGES.md), and an operation
    # that fails on some seeds cannot be compared between runs.
    cmds += [
        Command("fk", "fk_s", "fk",
                ("verify", "fk", "--paths", "200000", "--format", "json"),
                threads=THREADS),
        Command("trace", "trace_s", "trace", ("verify", "trace", "--format", "json")),
        Command("taylor", "taylor_s", "taylor",
                ("verify", "taylor", "--seed", str(seed), "--format", "json")),
    ]
    return cmds


COMMANDS = {"symbolic_oracles": symbolic_oracles, "coeffs": coeffs}


def python_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "heatinv.cli", *argv]


def command_env(cmd: Command | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HEATINV_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    env["HEATINV_THREADS"] = str(cmd.threads if cmd else 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_subprocess(argv: list[str], env: dict, timeout: float = 170.0) -> Outcome:
    """Run one command to its end; wall time and the child's own peak RSS."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
            tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                       out.read().decode(), err.read().decode())


def measure_setup(repeats: int = 3) -> float:
    """Median wall time of `heatinv --version`: interpreter start plus the
    package import.  The bytecode cache is written first, as any earlier
    run of the program would have left it."""
    compileall.compile_dir(str(SRC / "heatinv"), quiet=1)
    times = []
    for _ in range(repeats):
        res = run_subprocess(python_cmd(["--version"]), command_env())
        if res.returncode != 0 or not res.stdout.strip():
            raise SystemExit(f"heatinv --version failed: {res.stderr.strip()[-400:]}")
        times.append(res.wall_s)
    return statistics.median(times)


def timed_run(workload: str, seed: int, seconds: float, refs, log) -> dict:
    """Untraced run: set-up time, then whole passes for `seconds`."""
    from checks import check

    setup_s = measure_setup()
    cmds = COMMANDS[workload](seed)
    per_pass: list[dict] = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        sample = {"wall_s": 0.0, "peak_rss_mb": 0.0, **{c.metric: 0.0 for c in cmds}}
        for cmd in cmds:
            res = run_subprocess(python_cmd(cmd.argv), command_env(cmd))
            attempted += 1
            sample["wall_s"] += res.wall_s
            sample[cmd.metric] += res.wall_s
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], res.peak_rss_mb)
            if res.returncode != 0:
                failed += 1
                log(f"FAILED {cmd.label}: exit {res.returncode}: {res.stderr.strip()[-400:]}")
                continue
            problems = check(cmd, res.stdout, refs, seed)
            for p in problems:
                log(f"WRONG {cmd.label}: {p}")
            correct = correct and not problems
        per_pass.append(sample)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["setup_s"] = setup_s
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "passes": len(per_pass), "metrics": metrics}
