"""Run the vicinalda benchmark.

    python3 bench/run.py --workload moons_default --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0            # every workload

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. `--trace 0` measures the
end-to-end metrics with tracing off, `--trace 1` runs the same workload
with the tracer on alternate units and reports the per-layer metrics.

Output: one line per metric (`name value unit (n=samples)`), then one
`REPORT {...}` line with everything a later comparison needs (see
compare.py), then, as the last line, the result object
`{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 when
the run finished, whether or not its checks passed; it is 2 when the
checkout holds no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_SECONDS = 25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _package_error() -> str | None:
    """Import vicinalda from the checkout's src/; say why that failed."""
    package = os.path.join(SRC, "vicinalda")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        return f"no package at {package}; run from the root of a vicinalda source checkout"
    sys.path.insert(0, SRC)
    import vicinalda

    where = os.path.dirname(os.path.abspath(vicinalda.__file__))
    if where != package:
        return f"imported vicinalda from {where}, not from {package}"
    return None


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import harness

    if name not in harness.WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from "
              f"{', '.join(harness.WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[name]
    work_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    load_before = os.getloadavg()
    host = harness.host_facts(ROOT)
    started = time.perf_counter()
    try:
        run = harness.Run(wl, seed, seconds, trace, work_dir)
        run.execute()
        wall = time.perf_counter() - started
        try:
            values = (harness.per_layer_metrics(run) if trace
                      else harness.end_to_end_metrics(run))
        except (ArithmeticError, ValueError, IndexError, KeyError) as exc:
            # no unit of some kind succeeded; the failures say why
            run.checks.failures.append(f"metrics: {type(exc).__name__}: {exc}")
            values = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    host["loadavg_before"] = load_before
    host["loadavg_after"] = os.getloadavg()

    # the result line carries the metrics BENCHMARK.json names for the mode,
    # in its order; untraced runs also print the unbounded end-to-end ones
    spec = _spec()["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in spec]
    units = {m["name"]: m["unit"] for m in spec}
    if not trace:
        units |= harness.UNBOUNDED_UNITS
    for metric in units:
        if metric in values:
            value, n = values[metric]
            print(f"{name:14s} {metric:36s} {value:14.6g} {units[metric]:9s} (n={n})")
    for failure in run.checks.failures:
        print(f"{name:14s} FAILED {failure}")

    report = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": wall,
        "config": wl.overrides,
        "host": host,
        "metrics": {m: {"value": _finite(values[m][0]), "unit": units[m], "samples": values[m][1]}
                    for m in units if m in values},
        "metrics_csv_sha256": {str(seed): sorted(set(run.digests))},
        "gates": {"final_target_acc": wl.min_target_acc,
                  "ratio_agreement": wl.min_ratio_agreement},
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "failures": run.checks.failures,
        "trace_missing": run.tracer.missing,
    }
    print("REPORT " + json.dumps(report, sort_keys=True))

    metrics = {m: {"value": _finite(values[m][0]), "unit": units[m]}
               for m in names if m in values}
    correct = (not run.checks.failures and len(metrics) == len(names)
               and all(v["value"] is not None for v in metrics.values()))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.checks.attempted, 1),
        "failed": run.checks.failed if run.checks.attempted else 1,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    from harness import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    error = _package_error()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
