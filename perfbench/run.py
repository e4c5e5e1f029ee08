"""Benchmark of the `gkm` package: one closed-loop client, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload report|thom|pairing --seed N \
        --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory.  Set-up
(input generation, the workload's own warm-up and one untimed, checked op)
runs at least SETUP_MIN_REPEATS times and ``setup_s`` is its median.  Ops
then run in whole passes over the orientations until ``--seconds`` have
elapsed; every output is checked outside the timed interval.  Times are
scaled to a reference machine speed (see ``calibration_loop``).  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
printed, per traced op, while the spans are written to
``.perfbench_out/trace/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from fractions import Fraction
from math import ceil
from pathlib import Path
from statistics import fmean, median
from time import perf_counter_ns

from tracer import ECHELON_BITS, ECHELON_CELLS, FRACTIONS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(".perfbench_out")  # relative to ROOT, the working directory
SETUP_MIN_REPEATS = 3
SETUP_MIN_NS = 2_000_000_000  # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 25
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000
# Time of one calibration loop on the reference machine (a 2-vCPU VM running
# CPython 3.11, where it takes 2.6-5 ms as the machine's speed swings).
CALIBRATION_REF_NS = 3_300_000
CALIBRATION_HALF_WINDOW = 2  # an op is scaled by the 5 loops nearest to it
SETUP_CALIBRATION_LOOPS = 20  # before and after each set-up


def calibration_loop() -> int:
    """Wall time in ns of a fixed stdlib loop: Fraction arithmetic with
    growing integers plus dict stores, the kind of work `gkm` does.

    Every time metric is scaled by CALIBRATION_REF_NS over the mean time of
    the loops run nearest to it.  The benchmark shares its machine with other
    tenants, whose load changes this process's speed by up to 2x over
    seconds to minutes; the scaled figures read as times on the reference
    machine, and those swings cancel.
    """
    start = perf_counter_ns()
    total = Fraction(0)
    table = {}
    for i in range(1, 500):
        total += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        table[i % 97, i % 89] = total.numerator % 1000
    return perf_counter_ns() - start


def scale(loops: list[int]) -> float:
    """Factor from this machine's current speed to the reference speed."""
    return CALIBRATION_REF_NS / fmean(loops)


def scaled_latencies(latencies: list, loops: list[int]) -> list[float]:
    """Each passed op's latency scaled by the loops timed nearest to it;
    ``loops[i]`` ran just before op ``i``."""
    h = CALIBRATION_HALF_WINDOW
    return [ns * scale(loops[max(0, i - h):i + h + 1])
            for i, ns in enumerate(latencies) if ns is not None]


def import_program():
    """Import `gkm` from this checkout's src/, or exit non-zero without a result."""
    src = ROOT / "src"
    if not (src / "gkm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gkm package under {src}")
    sys.path.insert(0, str(src))
    import gkm

    if Path(gkm.__file__).resolve().parent != src / "gkm":
        sys.exit(f"perfbench: imported gkm from {gkm.__file__}, not from {src}")


def percentile_ns(samples: list, q: float):
    """Nearest-rank percentile of nanosecond samples."""
    ordered = sorted(samples)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


class Runner:
    """Runs one workload's ops, counting the timed ones and their failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.setup_failed = 0
        self.next_op = 0

    def run_pass(self, cases, tracer=None, loops=None) -> list:
        """One op per case: the latency in ns of each op, None where it
        raised or failed its check.  With a ``loops`` list, one calibration
        loop is timed before each op."""
        latencies = []
        for case in cases:
            if loops is not None:
                loops.append(calibration_loop())
            op_id = self.next_op
            self.next_op += 1
            try:
                if tracer is None:
                    start = perf_counter_ns()
                    output = self.workload.op(case)
                    end = perf_counter_ns()
                else:
                    with tracer.op(op_id):
                        start = perf_counter_ns()
                        output = self.workload.op(case)
                        end = perf_counter_ns()
                self.workload.check(case, output)
            except Exception:
                latencies.append(None)
                print(f"perfbench: op {op_id} ({case.label}) failed", file=sys.stderr)
                traceback.print_exc()
                continue
            latencies.append(end - start)
        return latencies

    def timed_pass(self, cases, tracer=None, loops=None) -> list:
        latencies = self.run_pass(cases, tracer, loops)
        self.attempted += len(latencies)
        self.failed += latencies.count(None)
        return latencies

    def setup(self, seed: int):
        """Generate the inputs and run one untimed, checked op on them, which
        pays the first-call costs a long-lived process pays once."""
        cases = self.workload.setup(seed, WORKDIR)
        self.setup_failed += self.run_pass(cases[:1]).count(None)
        return cases

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.setup_failed == 0


def end_to_end(runner: Runner, seed: int, seconds: int) -> dict:
    setup_ns: list[int] = []  # raw
    setup_scaled: list[float] = []
    cases = None
    while len(setup_ns) < SETUP_MIN_REPEATS or (
            sum(setup_ns) < SETUP_MIN_NS and len(setup_ns) < SETUP_MAX_REPEATS):
        cases = None
        loops = [calibration_loop() for _ in range(SETUP_CALIBRATION_LOOPS)]
        start = perf_counter_ns()
        cases = runner.setup(seed)
        setup_ns.append(perf_counter_ns() - start)
        loops += [calibration_loop() for _ in range(SETUP_CALIBRATION_LOOPS)]
        setup_scaled.append(setup_ns[-1] * scale(loops))
    samples: list[int] = []  # raw
    scaled: list[float] = []
    deadline = perf_counter_ns() + seconds * NS_PER_S
    while True:
        loops = []
        latencies = runner.timed_pass(cases, loops=loops)
        samples += [ns for ns in latencies if ns is not None]
        scaled += scaled_latencies(latencies, loops)
        if perf_counter_ns() >= deadline:
            break
    if len(samples) < 100:
        print(f"perfbench: only {len(samples)} timed ops; op_ms.p90 has fewer than "
              "10 samples beyond it", file=sys.stderr)
    print(f"perfbench: {len(samples)} timed ops; unscaled op_ms.p50 "
          f"{percentile_ns(samples, 0.5) / NS_PER_MS}, op_ms.p90 "
          f"{percentile_ns(samples, 0.9) / NS_PER_MS}, setup_s {median(setup_ns) / NS_PER_S}",
          file=sys.stderr)
    return {
        "op_ms.p50": (percentile_ns(scaled, 0.5) / NS_PER_MS, "ms"),
        "op_ms.p90": (percentile_ns(scaled, 0.9) / NS_PER_MS, "ms"),
        "ops_per_s": (len(scaled) * NS_PER_S / sum(scaled), "1/s"),
        "setup_s": (median(setup_scaled) / NS_PER_S, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


# Per-layer metric name -> (span name, field); `calls` and `solves` are
# counts per traced op, `self_ms` milliseconds per traced op.
LAYER_SPANS = {
    "jsonio.loads.self_ms": ("jsonio.loads", "self_ns"),
    "graph.validate.self_ms": ("graph.validate", "self_ns"),
    "graph.orient.self_ms": ("graph.orient", "self_ns"),
    "geometry.classify_type.self_ms": ("geometry.classify_type", "self_ns"),
    "geometry.cycle_shape.calls": ("geometry.cycle_shape", "calls"),
    "geometry.cycle_shape.self_ms": ("geometry.cycle_shape", "self_ns"),
    "polynomial.mul.calls": ("polynomial.mul", "calls"),
    "polynomial.mul.self_ms": ("polynomial.mul", "self_ns"),
    "polynomial.divide_by_linear.calls": ("polynomial.divide_by_linear", "calls"),
    "polynomial.divide_by_linear.self_ms": ("polynomial.divide_by_linear", "self_ns"),
    "linalg.echelon.calls": ("linalg.echelon", "calls"),
    "linalg.echelon.self_ms": ("linalg.echelon", "self_ns"),
    "linalg.solve.calls": ("linalg.solve", "calls"),
    "linalg.nullspace.calls": ("linalg.nullspace", "calls"),
    "cohomology.thom_class.calls": ("cohomology.thom_class", "calls"),
    "cohomology.thom_class.self_ms": ("cohomology.thom_class", "self_ns"),
    "cohomology.thom_class.solves": ("cohomology.thom_class", "solves"),
    "cohomology.basis.calls": ("cohomology.basis", "calls"),
    "cohomology.basis.self_ms": ("cohomology.basis", "self_ns"),
    "cohomology.element_mul.calls": ("cohomology.element_mul", "calls"),
    "cohomology.element_mul.self_ms": ("cohomology.element_mul", "self_ns"),
    "cohomology.congruent_mod_linear.calls": ("cohomology.congruent_mod_linear", "calls"),
    "cohomology.congruent_mod_linear.self_ms": ("cohomology.congruent_mod_linear", "self_ns"),
    "localization.integrate.calls": ("localization.integrate", "calls"),
    "localization.integrate.self_ms": ("localization.integrate", "self_ns"),
    "localization.check_low_degree_vanishing.calls":
        ("localization.check_low_degree_vanishing", "calls"),
    "localization.check_low_degree_vanishing.self_ms":
        ("localization.check_low_degree_vanishing", "self_ns"),
    "localization.euler_class.calls": ("localization.euler_class", "calls"),
    "lefschetz.hard_lefschetz_report.self_ms": ("lefschetz.hard_lefschetz_report", "self_ns"),
    "lefschetz.mixed_hr2_matrix.calls": ("lefschetz.mixed_hr2_matrix", "calls"),
    "lefschetz.mixed_hr2_matrix.self_ms": ("lefschetz.mixed_hr2_matrix", "self_ns"),
    "lefschetz.coefficient_pairs.calls": ("lefschetz.coefficient_pairs", "calls"),
    "lefschetz.thom_coefficient.calls": ("lefschetz.thom_coefficient", "calls"),
    "lefschetz.hr_matrix.calls": ("lefschetz.hr_matrix", "calls"),
    "lefschetz.hr_matrix.self_ms": ("lefschetz.hr_matrix", "self_ns"),
    "lefschetz.check_pairing_identity.self_ms": ("lefschetz.check_pairing_identity", "self_ns"),
    "lefschetz.check_sign_conditions.self_ms": ("lefschetz.check_sign_conditions", "self_ns"),
}


def layer_metrics(tracer, ops: list[int]) -> dict:
    """Every per-layer metric except the tracing overhead, per op of ``ops``."""
    totals = tracer.totals(ops)
    n = len(ops)
    metrics = {}
    for metric, (span, field) in LAYER_SPANS.items():
        value = totals.get(span, {}).get(field, 0)
        if field == "self_ns":
            metrics[metric] = (value / n / NS_PER_MS, "ms/op")
        else:
            metrics[metric] = (value / n, "calls/op")
    thom = totals.get("cohomology.thom_class", {})
    calls = thom.get("calls", 0)
    metrics["cohomology.thom_class.hit_ratio"] = (
        1 - thom.get("solves", 0) / calls if calls else 0.0, "ratio")
    counts = [tracer.op_counts[op] for op in ops]
    metrics["fractions.Fraction.calls"] = (sum(c[FRACTIONS] for c in counts) / n, "calls/op")
    metrics["linalg.echelon.cells"] = (sum(c[ECHELON_CELLS] for c in counts) / n, "cells/op")
    metrics["linalg.echelon.max_bits"] = (max(c[ECHELON_BITS] for c in counts), "bits")
    return metrics


def traced(runner: Runner, seed: int, seconds: int, label: str) -> dict:
    cases = runner.setup(seed)
    tracer = Tracer()
    untraced_ns: list[int] = []
    traced_ns: list[int] = []
    traced_ops: list[int] = []
    deadline = perf_counter_ns() + seconds * NS_PER_S
    while True:
        untraced_ns += [ns for ns in runner.timed_pass(cases) if ns is not None]
        first = runner.next_op
        with tracer.installed():
            traced_ns += [ns for ns in runner.timed_pass(cases, tracer) if ns is not None]
        traced_ops += range(first, runner.next_op)
        if perf_counter_ns() >= deadline:
            break
    metrics = layer_metrics(tracer, traced_ops)
    metrics["trace.overhead_ratio"] = (
        percentile_ns(traced_ns, 0.5) / percentile_ns(untraced_ns, 0.5) - 1, "ratio")

    out = WORKDIR / "trace"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out / f"{label}-spans.csv.gz")
    labels = {op: case.label for case, op in zip(cases, traced_ops)}  # first traced pass
    per_case = {label: {} for label in labels.values()}
    for name, _, _, _, op in tracer.spans:
        if op in labels:
            calls = per_case[labels[op]]
            calls[name] = calls.get(name, 0) + 1
    summary = {"metrics": {k: v for k, (v, _) in metrics.items()},
               "traced_ops": len(traced_ops), "calls_per_case": per_case}
    (out / f"{label}-summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("report", "thom", "pairing"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    os.chdir(ROOT)
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[args.workload])
    if args.trace:
        metrics = traced(runner, args.seed, args.seconds,
                         f"{args.workload}-seed{args.seed}")
    else:
        metrics = end_to_end(runner, args.seed, args.seconds)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
