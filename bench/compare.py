"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files written by run.py (bench/out/*.json) or
directories of them.  For every workload and metric found in both, the
medians over the files are compared.  The end-to-end metrics are judged
against the bound and direction in BENCHMARK.json; a metric whose spread
in BASE (quartile distance over median) exceeds its bound is reported as
unresolved rather than unchanged.  Per-layer metrics are listed without
a verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> dict[tuple[str, str], list[float]]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for name in files:
        with open(name, encoding="utf-8") as handle:
            result = json.load(handle)
        for metric, entry in result["metrics"].items():
            values[(result["workload"], metric)].append(entry["value"])
    return values


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(p) for p in argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    print(f"{'workload/metric':40s} {'base':>12s} {'new':>12s} {'change':>8s}  verdict")
    for key in sorted(set(base) & set(new)):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else 0.0
        verdict = ""
        m = spec.get(key[1])
        if m is not None:
            worse = change if m["better"] == "lower" else -change
            if _spread(base[key]) > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif worse > m["bound"]:
                verdict = f"WORSE beyond bound {m['bound']}"
            else:
                verdict = f"within bound {m['bound']}" if worse > 0 else "not worse"
        print(f"{key[0] + '/' + key[1]:40s} {b:12.5g} {n:12.5g} {change:+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
