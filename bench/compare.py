"""Compare two saved benchmark outputs.

    python3 bench/run.py --workload all --seed 0 > base.txt      # parent commit
    python3 bench/run.py --workload all --seed 0 > new.txt       # change
    python3 bench/compare.py base.txt new.txt

Each file may hold any number of runs (append several seeds to one
file); the `REPORT` lines are grouped by workload and trace mode, and
each metric is reduced to its median over the runs. Printed per metric:
both medians, the change as a share of the base, and, for the metrics
BENCHMARK.json bounds, whether the change is worse than the bound.

The `metrics.csv` sha256 digests of every seed present in both files are
compared too; the exit code is 1 when any of them differs, i.e. when the
two commits do not train byte-identically.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("git_commit", "python", "numpy", "blas", "blas_threads", "nproc",
             "src_lines", "root_exports")


def load(path: str) -> dict:
    """(workload, trace) -> {"metrics": name -> [values], "digests", "host", "units"}."""
    groups: dict = defaultdict(lambda: {"metrics": defaultdict(list), "digests": {},
                                        "host": {}, "units": {}})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("REPORT "):
                continue
            rep = json.loads(line[len("REPORT "):])
            g = groups[(rep["workload"], rep["trace"])]
            for name, m in rep["metrics"].items():
                if m["value"] is not None:
                    g["metrics"][name].append(m["value"])
                g["units"][name] = m["unit"]
            for seed, digests in rep["metrics_csv_sha256"].items():
                g["digests"].setdefault(seed, set()).update(digests)
            g["host"] = rep["host"]
    return groups


def bounds() -> dict[str, tuple[str, float]]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    limits = bounds()
    digests_differ = False
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for h in HOST_KEYS:
            if b["host"].get(h) != n["host"].get(h):
                print(f"   host {h}: {b['host'].get(h)} -> {n['host'].get(h)}")
        for name in b["units"]:
            if not b["metrics"].get(name) or not n["metrics"].get(name):
                continue
            bv = statistics.median(b["metrics"][name])
            nv = statistics.median(n["metrics"][name])
            if not bv:
                print(f"   {name:36s} {bv:12.6g} {nv:12.6g} {'':>8s} {b['units'][name]}")
                continue
            change = (nv - bv) / bv
            verdict = ""
            if name in limits:
                better, bound = limits[name]
                worse = change if better == "lower" else -change
                verdict = f"WORSE than bound {bound}" if worse > bound else "ok"
            print(f"   {name:36s} {bv:12.6g} {nv:12.6g} {change:+8.1%} {b['units'][name]:9s}"
                  f" (runs {len(b['metrics'][name])}/{len(n['metrics'][name])}) {verdict}")
        for seed in sorted(set(b["digests"]) & set(n["digests"]), key=int):
            same = b["digests"][seed] == n["digests"][seed] and len(b["digests"][seed]) == 1
            digests_differ |= not same
            print(f"   metrics.csv seed {seed}: {'identical' if same else 'DIFFERENT'}")
    return 1 if digests_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
