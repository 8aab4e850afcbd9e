"""selfcal benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`, never from an installed copy, and the run fails (exit code 2,
no result line) when `src/selfcal` is missing.

With `--trace 0` the last stdout line carries the end-to-end metrics:
units of work per second at the reference host speed (see
`ReferenceKernel`), set-up time (median over fresh processes, at the
same reference speed) and peak resident memory. With `--trace 1`
untraced and traced passes alternate, and the line carries per-layer
self times and counts per traced pass plus the tracing overhead. The
line before it is a JSON record with the environment stamp, seed,
per-step samples and check failures, which `compare.py` reads. The exit
code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep_star", "sweep_chain_budget", "verify_exhaustive",
             "bound_numeric")

#: Fresh processes timed for `setup_s`; the median is reported.
SETUP_PROBES = 11
SETUP_TIMEOUT_S = 120


def import_library():
    """Put `src/` first on the path and import selfcal from there."""
    if not (SRC / "selfcal" / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC}/selfcal; run from the "
              "root of a selfcal checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import selfcal

    if Path(selfcal.__file__).resolve().parent != SRC / "selfcal":
        print(f"benchmark: imported selfcal from {selfcal.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        raise SystemExit(2)
    return selfcal


class ReferenceKernel:
    """Fixed work run between steps to measure the host's current speed.

    The shared hosts this benchmark was tuned on (2-core Intel Xeon VMs)
    change speed by up to 1.8x for seconds to minutes at a time, with no
    steal time and process CPU time equal to wall time, so raw step times
    measure the host as much as the code. Each step's time is therefore
    scaled by `reference_s` over the mean time of this kernel just before
    and just after the step. `reference_s` is the kernel's 10th-percentile
    time beside its workload on that host, so values read as seconds
    there while it runs fast.

    Each kind resembles the work of the workload that uses it, so that
    host contention slows both alike:

    - "python": integer dict updates, like the star sweep's per-trial
      interpreter overhead;
    - "objects": Fraction arithmetic, tuples and a heap, like tree
      enumeration and the verify loops;
    - "numpy": 10 times 32,768 normal draws, their mean over 64 rounds and
      a 128-step scalar recursion, like a trial of the budgeted chain;
    - "blas": `eigh` of a 160 x 160 complex Hermitian matrix on the BLAS
      threads, like the numeric bound.

    Being fixed benchmark code, no kernel changes with the library.
    """

    REFERENCE_S = {"python": 0.0056, "objects": 0.0038, "numpy": 0.0060,
                   "blas": 0.0070}

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = self.REFERENCE_S[kind]
        if kind in ("numpy", "blas"):
            import numpy as np

            self._eigh = np.linalg.eigh
            self._rng = np.random.default_rng(0)
            r = self._rng.standard_normal((2, 160, 160))
            a = r[0] + 1j * r[1]
            self._matrix = a @ a.conj().T

    def __call__(self) -> float:
        t0 = time.perf_counter_ns()
        if self.kind == "python":
            table: dict[int, int] = {}
            for i in range(40_000):
                table[i & 1023] = table.get(i & 1023, 0) + i
        elif self.kind == "objects":
            acc, items = Fraction(0), []
            for i in range(1, 1200):
                acc += Fraction(i % 7, 7)
                items.append((i % 13, i, acc))
            heapq.heapify(items)
        elif self.kind == "numpy":
            for _ in range(10):
                parts = self._rng.standard_normal((256, 64, 2))
                values = (parts[..., 0] + 1j * parts[..., 1]).mean(axis=1)
                acc = 1.0 + 0.0j
                for v in values[:128]:
                    acc = v / (acc + 1.0)
        else:
            self._eigh(self._matrix)
        return (time.perf_counter_ns() - t0) / 1e9


class Samples:
    """Per step: its times in seconds and the kernel time beside each."""

    def __init__(self, steps) -> None:
        self.step_s = {step: [] for step in steps}
        self.kernel_s = {step: [] for step in steps}

    def add(self, step: str, seconds: float, kernel_s: float) -> None:
        self.step_s[step].append(seconds)
        self.kernel_s[step].append(kernel_s)

    def pass_seconds(self, reference_s: float) -> float:
        """A pass at the reference host speed: per step, the median of its
        times scaled by reference_s / adjacent kernel time, summed."""
        return sum(statistics.median(t * reference_s / k
                                     for t, k in zip(times, self.kernel_s[step]))
                   for step, times in self.step_s.items())

    def raw_pass_seconds(self) -> float:
        """A pass in plain seconds: the sum of each step's median time."""
        return sum(statistics.median(times) for times in self.step_s.values())


def measure_setup(workload: str, seed: int,
                  small: bool) -> tuple[list[float], list[float]]:
    """Seconds from process start through import, build and warm-up.

    Each probe runs the python reference kernel first and last and prints
    CLOCK_MONOTONIC (shared by all processes) when its warm-up is done,
    so neither the kernel before it nor interpreter teardown is counted.
    Returns (seconds at the reference host speed, plain seconds).
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload",
           workload, "--seed", str(seed)] + (["--small"] if small else [])
    reference_s = ReferenceKernel.REFERENCE_S["python"]
    scaled, plain = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        end_ns, first_s, last_s = done.stdout.split()[-3:]
        seconds = (int(end_ns) - t0) / 1e9 - float(first_s)
        plain.append(seconds)
        scaled.append(seconds * reference_s
                      / ((float(first_s) + float(last_s)) / 2))
    return scaled, plain


def measure(wl, kernel: ReferenceKernel, seconds: float, trace: bool):
    """Run passes for `seconds` (and at least `wl.min_passes`).

    Every step of every pass is timed on its own, with the reference
    kernel run before the pass and after each step. Untraced, all passes
    count; traced, passes alternate untraced and traced, starting
    untraced, and only traced passes record spans.
    Returns (untraced samples, traced samples, tracer, checks).
    """
    from tracing import Tracer
    from workloads import Checks

    checks = Checks()
    tracer = Tracer() if trace else None
    plain = Samples(wl.steps)
    traced = Samples(wl.steps)
    traced_passes = 0
    step_ns_traced = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        tracing = trace and index % 2 == 1
        samples = traced if tracing else plain
        if tracing:
            wl.install_tracing(tracer)
        outputs = []
        before = kernel()
        for step in wl.steps:
            t0 = time.perf_counter_ns()
            outputs.append(wl.run_step(step, index))
            step_ns = time.perf_counter_ns() - t0
            after = kernel()
            samples.add(step, step_ns / 1e9, (before + after) / 2)
            before = after
            if tracing:
                step_ns_traced += step_ns
        if tracing:
            tracer.uninstall()
            traced_passes += 1
        for step, output in zip(wl.steps, outputs):
            wl.check_step(step, output, checks)
        index += 1
        done = index >= wl.min_passes and (not trace or traced_passes)
        if done and time.perf_counter() >= deadline:
            break
    wl.finish(checks)
    if tracer is not None:
        tracer.counts["traced_passes"] = traced_passes
        tracer.counts["bench.self_ns"] = step_ns_traced - tracer.root_ns
    return plain, traced, tracer, checks


def end_to_end_metrics(wl, kernel, plain: Samples, setup: list[float]) -> dict:
    units = sum(wl.step_units.values())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "work_per_s": {"value": units / plain.pass_seconds(kernel.reference_s),
                       "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": peak, "unit": "MiB"},
    }


#: Per-layer self-time metric -> span name.
SELF_TIME_SPANS = {
    "harness.run_snr_sweep_self_s": "harness.run_snr_sweep",
    "harness.verify_self_s": "harness.verify",
    "harness.render_s": "harness.render",
    "simulate.draw_gains_s": "simulate.draw_gains",
    "simulate.synthesize_s": "simulate.synthesize",
    "estimator.collapse_repetitions_s": "estimator.collapse_repetitions",
    "estimator.ml_estimate_s": "estimator.ml_estimate",
    "estimator.estimation_error_s": "estimator.estimation_error",
    "topology.enumerate_trees_s": "topology.enumerate_trees",
    "topology.calibration_distances_s": "topology.calibration_distances",
    "topology.max_degree_s": "topology.max_degree",
    "topology.measurement_schedule_s": "topology.measurement_schedule",
    "topology.schedule_violations_s": "topology.schedule_violations",
    "crlb.fisher_matrix_s": "crlb.fisher_matrix",
    "crlb.crlb_numeric_s": "crlb.crlb_numeric",
    "crlb.crlb_closed_form_s": "crlb.crlb_closed_form",
}

#: Per-layer count metric -> (counter name, unit, largest per call?).
COUNTS = {
    "simulate.normals_drawn": ("simulate.normals_drawn", "count", False),
    "estimator.edges_propagated": ("estimator.edges_propagated", "count", False),
    "estimator.propagation_levels": ("estimator.propagation_levels", "count", True),
    "estimator.hazards": ("estimator.hazards", "count", False),
    "topology.trees_enumerated": ("topology.enumerate_trees", "count", False),
    "crlb.fisher_order": ("crlb.fisher_order", "count", True),
    "crlb.fisher_bytes_computed": ("crlb.fisher_bytes_computed", "bytes", False),
    "crlb.inverse_flops_computed": ("crlb.inverse_flops_computed", "flop", False),
}


def per_layer_metrics(kernel, plain: Samples, traced: Samples, tracer) -> dict:
    counts = tracer.counts
    n = counts["traced_passes"]
    metrics = {key: {"value": tracer.self_seconds(span) / n, "unit": "s"}
               for key, span in SELF_TIME_SPANS.items()}
    metrics["bench.self_s"] = {"value": counts["bench.self_ns"] / 1e9 / n,
                               "unit": "s"}
    for key, (counter, unit, largest) in COUNTS.items():
        value = counts.get(counter, 0)
        metrics[key] = {"value": value if largest else value / n, "unit": unit}
    calls = counts.get("estimator.calls", 0)
    metrics["estimator.completed_frac"] = {
        "value": (calls - counts.get("estimator.hazards", 0)) / calls
        if calls else 0.0, "unit": "fraction"}
    metrics["trace.pass_wall_s"] = {
        "value": sum(map(sum, traced.step_s.values())) / n, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": (traced.pass_seconds(kernel.reference_s)
                  - plain.pass_seconds(kernel.reference_s)), "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (record, result line)."""
    import_library()
    import workloads
    from stamp import environment_stamp

    wl = workloads.make(workload, small=small)
    kernel = ReferenceKernel(wl.kernel)
    kernel()  # warm-up
    setup, setup_plain = ([], []) if trace else measure_setup(
        workload, seed, small)
    wl.setup(seed)
    plain, traced, tracer, checks = measure(wl, kernel, seconds, trace)
    if trace:
        metrics = per_layer_metrics(kernel, plain, traced, tracer)
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{workload}-seed{seed}.npz")
    else:
        metrics = end_to_end_metrics(wl, kernel, plain, setup)
    correct = checks.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "small": small, "unit": wl.unit,
        "step_units": wl.step_units, "params": wl.params(),
        "stamp": environment_stamp(),
        "kernel": {"kind": kernel.kind, "reference_s": kernel.reference_s},
        "raw_work_per_s": (sum(wl.step_units.values())
                           / plain.raw_pass_seconds()),
        "step_s": plain.step_s, "kernel_s": plain.kernel_s,
        "traced_step_s": traced.step_s, "traced_kernel_s": traced.kernel_s,
        "setup_s_samples": setup, "setup_plain_s_samples": setup_plain,
        "spans_stored": len(tracer.start) if tracer else 0,
        "spans_dropped": tracer.dropped if tracer else 0,
        "failures": checks.failures, "metrics": metrics,
    }
    return record, result


def main(argv=None, small: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    record, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), small)
    for failure in record["failures"]:
        print(f"benchmark: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
