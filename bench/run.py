"""Benchmark of the affmv library: one workload per run, one JSON line out.

    python3 bench/run.py --workload complete|verify|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Every time is normalised by the reference loop in
`clock.py`.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A fuller record is
written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads
from clock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def _measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Normalised and raw set-up seconds of SETUP_SAMPLES fresh processes."""
    norm, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), SRC],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        r, n = proc.stdout.split()
        raw.append(float(r))
        norm.append(float(n))
    return norm, raw


def _same(a: object, b: object) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


class Runner:
    """Repeats whole rounds of a workload's operations and keeps the samples."""

    def __init__(self, workload, clock, tracer=None) -> None:
        self.ops = workload.ops
        self.clock = clock
        self.tracer = tracer
        self.first: list[object] = [None] * len(self.ops)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.by_label: dict[str, list[float]] = {}
        self.lat_norm: list[float] = []
        self.lat_raw: list[float] = []
        self.norm_total = 0.0
        self.raw_total = 0.0
        self.mismatches: list[str] = []

    def round(self) -> None:
        for i, op in enumerate(self.ops):
            if op.cold:
                workloads.clear_caches()
                if self.tracer is not None:
                    self.tracer.cache_cleared()
            if self.tracer is not None:
                self.tracer.begin_op(i)
            result, raw, norm = self.clock.time(op.run)
            if self.tracer is not None:
                self.tracer.end_op(norm / raw if raw > 0 else 1.0)
            self.attempted += 1
            self.norm_total += norm
            self.raw_total += raw
            self.by_label.setdefault(op.label, []).append(norm)
            if isinstance(result, Exception):
                self.failed += 1
            else:
                self.lat_norm.append(norm)
                self.lat_raw.append(raw)
            if self.rounds == 0:
                self.first[i] = result
            elif not _same(result, self.first[i]):
                self.mismatches.append(f"{op.label}: round {self.rounds} output differs")
        self.rounds += 1

    def check(self) -> bool:
        """Check every first-round output; later rounds were compared to it."""
        ok = not self.mismatches
        for message in self.mismatches[:5]:
            print(f"CHECK FAILED {message}", file=sys.stderr)
        for op, result in zip(self.ops, self.first):
            if isinstance(result, Exception):
                if op.known_fault is not None and op.known_fault in str(result):
                    continue
                problem = f"raised {type(result).__name__}: {result}"
            else:
                problem = op.check(result)
            if problem:
                ok = False
                print(f"CHECK FAILED {op.label}: {problem}", file=sys.stderr)
        return ok


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop_drift(clock) -> dict:
    s = clock.loop_samples
    return {
        "loop_median_s": statistics.median(s),
        "loop_min_s": min(s),
        "loop_max_s": max(s),
        "samples": len(s),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seconds: float, setup: tuple[list[float], list[float]]):
    runner = Runner(workload, Clock())
    start = time.perf_counter()
    while True:
        runner.round()
        if time.perf_counter() - start >= seconds and len(runner.lat_norm) >= workload.min_samples:
            break
    wall = time.perf_counter() - start
    rss = _peak_rss_mb()
    correct = runner.check()
    completed = runner.attempted - runner.failed
    lat, lat_raw = runner.lat_norm, runner.lat_raw
    metrics = {
        "setup_s": _metric(statistics.median(setup[0]), "s"),
        "ops_per_s": _metric(completed / runner.norm_total, "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": _metric(_percentile(lat, workload.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    raw = {
        "setup_s": statistics.median(setup[1]),
        "ops_per_s": completed / runner.raw_total,
        "latency_p50_ms": statistics.median(lat_raw) * 1e3,
        "latency_tail_ms": _percentile(lat_raw, workload.tail_pct) * 1e3,
    }
    detail = {
        "rounds": runner.rounds,
        "ops_per_round": len(workload.ops),
        "latency_samples": len(lat),
        "tail_percentile": workload.tail_pct,
        "timed_wall_s": wall,
        "setup_samples_s": setup[0],
        "raw": raw,
        "reference_loop": _loop_drift(runner.clock),
        "median_ms_by_label": {
            k: statistics.median(v) * 1e3 for k, v in sorted(runner.by_label.items())
        },
    }
    for name, m in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name:16s} {m['value']:.6g} {m['unit']}{extra}")
    return runner, correct, metrics, detail


def run_traced(workload, seconds: float, label: str):
    from tracer import LAYERS, Tracer

    clock = Clock()
    runner = Runner(workload, clock)
    start = time.perf_counter()
    runner.round()  # untraced baseline for the overhead
    untraced_round = runner.norm_total
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        while True:
            runner.round()
            tracer.recording = False  # spans of the first traced round only
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    traced_rounds = runner.rounds - 1
    traced_round = (runner.norm_total - untraced_round) / traced_rounds
    correct = runner.check()

    calls = tracer.layer_calls()
    per_round = lambda x: x / traced_rounds  # noqa: E731
    metrics = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls"] = _metric(per_round(calls[i]), "count/round")
        metrics[f"{layer}.self_s"] = _metric(per_round(tracer.self_s[i]), "s/round")
    c = tracer.counters
    requests = c["transition.requests"] + c["transition.repeats"]
    metrics["transition.mv_checks"] = _metric(per_round(c["transition.mv_checks"]), "count/round")
    metrics["transition.leaf_yield"] = _metric(
        c["transition.requests"] / c["transition.mv_checks"] if c["transition.mv_checks"] else 0.0,
        "ratio")
    metrics["transition.repeat_share"] = _metric(
        c["transition.repeats"] / requests if requests else 0.0, "ratio")
    for name in ("roots.beta", "roots.max_real_index", "lusztig.weight", "polytope.mv_violations"):
        metrics[f"{name}.calls"] = _metric(per_round(tracer.function_calls(name)), "count/round")
    for name in ("lusztig.enumerate_data.items", "crystal.graph_nodes", "documents.bytes_out"):
        metrics[name] = _metric(per_round(c[name]), "count/round")
    metrics["trace.overhead_s"] = _metric(traced_round - untraced_round, "s/round")
    metrics["trace.overhead_pct"] = _metric(
        100.0 * (traced_round - untraced_round) / untraced_round, "%")

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{label}.spans.tsv.gz")
    n_spans = tracer.write_spans(spans_path, [op.label for op in workload.ops])
    detail = {
        "traced_rounds": traced_rounds,
        "ops_per_round": len(workload.ops),
        "untraced_round_s": untraced_round,
        "traced_round_s": traced_round,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": n_spans,
        "function_calls_per_round": {
            name: n / traced_rounds for name, n in zip(tracer.funcs, tracer.calls) if n
        },
        "reference_loop": _loop_drift(clock),
    }
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    return runner, correct, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affmv", "__init__.py")):
        print(f"error: no affmv sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runner, correct, metrics, detail = run_traced(workload, args.seconds, label)
    else:
        setup = _measure_setup(args.workload, args.seed)
        runner, correct, metrics, detail = run_untraced(workload, args.seconds, setup)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{label}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace,
                       inputs=workload.describe, detail=detail), handle, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
