"""heatinv benchmark: two workloads through the `heatinv` command line.

    python3 perfbench/run.py --workload {symbolic_oracles,coeffs,all}
                             --seed N --seconds S --trace {0,1}

--trace 0 times whole passes of the workload's commands, each in a fresh
subprocess, and reports the end-to-end metrics.  --trace 1 runs the
workload's commands in process under the span tracer, then the per-layer
probes, and reports the per-layer metrics.  Every output is checked against
the references in refs.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import COMMANDS, OUT_DIR, SRC  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
E2E = tuple(E2E_UNITS)


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def run_one(workload: str, seed: int, seconds: float, trace: bool, refs) -> dict:
    if trace:
        from tracing import traced_run
        res = traced_run(workload, seed, refs, log)
        metrics = res["metrics"]
        shown = {**metrics, **res["extra"]}
    else:
        from workloads import timed_run
        res = timed_run(workload, seed, seconds, refs, log)
        # the per-command metrics are all times
        shown = {k: (v, E2E_UNITS.get(k, "s")) for k, v in res["metrics"].items()}
        metrics = {k: shown[k] for k in E2E}
    refs.save()
    head = f"workload {workload}  seed {seed}  trace {int(trace)}  " \
           f"attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}"
    if "passes" in res:
        head += f"  passes {res['passes']}"
    print(head)
    for name in sorted(shown):
        value, unit = shown[name]
        print(f"  {name:<48} {value:>16.6g} {unit}")
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*COMMANDS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "heatinv" / "cli.py").is_file():
        log(f"no heatinv sources under {SRC}; run from a checkout of the repository")
        return 2
    from refs import References
    refs = References()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = list(COMMANDS) if args.workload == "all" else [args.workload]
    seed = args.seed % 2 ** 31  # numpy seeds must be non-negative
    results = {w: run_one(w, seed, args.seconds, bool(args.trace), refs) for w in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    (OUT_DIR / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
