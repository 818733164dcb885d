"""Run one workload of the dynroute benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet_sim --seed 1 --seconds 15 --trace 0

The inputs are generated from ``--seed``. Set-up is repeated and its median
reported; measured passes repeat until ``--seconds`` have passed (and each
workload's minimum pass count is met). ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes a separate traced run and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines give the
sha256 of each generated document and of the per-pass work counts.
Exit code 2 means the package is not in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
# Set-up runs at least this often and for at least this long; its median is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
# Times are reported at a reference host speed, at which the calibration
# loop takes CALIBRATION_S. This host's speed moves by up to 1.8x in phases
# lasting tens of seconds to minutes (see DESIGN.md). The loop is timed right
# before every pass and set-up, and measured times are scaled by
# CALIBRATION_S / (the loop's time then).
CALIBRATION_LOOPS = 100_000
CALIBRATION_S = 0.010
CALIBRATION_WINDOW = 2  # passes on each side whose calibrations scale a pass

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "plan_ms_p50": ("ms", "lower"),
    "plan_ms_p95": ("ms", "lower"),
    "plans_per_s": ("1/s", "higher"),
    "epoch_ms_p50": ("ms", "lower"),
    "epoch_ms_p90": ("ms", "lower"),
    "vehicle_epochs_per_s": ("1/s", "higher"),
    "trip_cost_mean_s": ("s", "lower"),
    "arrived_frac": ("frac", "higher"),
    "cells_per_s": ("1/s", "higher"),
    "dyn_score": ("frac", "higher"),
    "dyn_cost_ratio": ("ratio", "lower"),
}


def _import_program():
    """Import the package from this checkout's ``src/``, or exit 2."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import dynroute
    except ImportError as exc:
        _missing(f"cannot import dynroute from {ROOT / 'src'}: {exc}")
    if Path(dynroute.__file__).resolve().parent != ROOT / "src" / "dynroute":
        _missing(f"dynroute imported from {dynroute.__file__}, not from this checkout")


def _missing(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def calibrate() -> float:
    """Seconds this host takes, right now, for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Scale that converts times measured now to the reference host speed."""
    return CALIBRATION_S / statistics.median(calibrate() for _ in range(3))


def untraced(w, seconds: float) -> dict[str, float]:
    from perfbench.tracer import Probe, patched
    from perfbench.workloads import RHO

    setup_times: list[float] = []
    setup_wall = 0.0  # wall seconds of the set-ups made between passes

    def setup() -> None:
        nonlocal setup_wall
        factor = speed_factor()
        t0 = time.perf_counter()
        w.setup()
        setup_times.append((time.perf_counter() - t0) * factor)
        setup_wall += time.perf_counter() - t0

    # Set-ups are spread over the run, between passes, so that their median
    # samples the same host conditions as the passes do.
    setup()
    setup_wall = 0.0
    probe = Probe()
    passes: list[dict] = []
    start = time.perf_counter()
    with patched(probe.patches()):
        index = 0
        while index < w.min_passes or time.perf_counter() - start - setup_wall < seconds:
            plans, vepochs = probe.plans, probe.vehicle_epochs
            calibration = statistics.median(calibrate() for _ in range(3))
            busy, cells = w.run_pass(index, probe)
            passes.append({"calibration": calibration, "busy": busy, "cells": cells,
                           "plans": probe.plans - plans, "vehicle_epochs": probe.vehicle_epochs - vepochs,
                           "plan_end": len(probe.plan_s), "epoch_end": len(probe.epoch_s)})
            w.check_pass(index, probe)
            index += 1
            spent = time.perf_counter() - start - setup_wall
            if len(setup_times) < SETUP_REPEATS or sum(setup_times) * seconds < SETUP_SECONDS * spent:
                setup()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        setup()

    # Each pass is scaled by the median calibration of the passes around it:
    # that follows the host's phases while averaging out the loop's jitter.
    plan_start = epoch_start = 0
    for i, p in enumerate(passes):
        around = passes[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        p["factor"] = CALIBRATION_S / statistics.median(q["calibration"] for q in around)
        for samples, lo, hi in ((probe.plan_s, plan_start, p["plan_end"]),
                                (probe.epoch_s, epoch_start, p["epoch_end"])):
            samples[lo:hi] = [t * p["factor"] for t in samples[lo:hi]]
        plan_start, epoch_start = p["plan_end"], p["epoch_end"]
    factors = [p["factor"] for p in passes]
    print("host speed factor median", statistics.median(factors),
          "range", min(factors), max(factors))

    def rate(key: str) -> float:
        return statistics.median(p[key] / (p["busy"] * p["factor"]) for p in passes)

    ratios = w.dyn_ratios
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "plan_ms_p50": percentile(probe.plan_s, 50) * 1e3,
        "plan_ms_p95": percentile(probe.plan_s, 95) * 1e3,
        "plans_per_s": rate("plans"),
        "epoch_ms_p50": percentile(probe.epoch_s, 50) * 1e3,
        "epoch_ms_p90": percentile(probe.epoch_s, 90) * 1e3,
        "vehicle_epochs_per_s": rate("vehicle_epochs"),
        "trip_cost_mean_s": statistics.fmean(w.trip_costs),
        "arrived_frac": w.arrived / w.trips,
        "cells_per_s": rate("cells"),
        "dyn_score": sum(r <= RHO + 1e-9 for r in ratios) / w.dyn_trips,
        "dyn_cost_ratio": statistics.fmean(ratios),
    }


def traced(w, seconds: float, seed: int) -> dict[str, float]:
    """Set up once and alternate untraced and traced runs of pass 0.

    Per-layer figures cover the traced set-up plus the last traced pass, so
    every count is the same on every run of a seed; their times are scaled by
    the run's median speed factor. The overhead compares the median traced
    pass with the median untraced one, each scaled by its own factor.
    """
    from perfbench.tracer import LAYER_METRICS, Probe, Tracer, patched

    factors = [speed_factor()]
    tracer = Tracer()
    with patched(tracer.patches()):
        w.setup()
    kept = len(tracer.spans)
    setup_counts = dict(tracer.counts)

    plain, with_trace = [], []
    start = time.perf_counter()
    while len(plain) < 2 or time.perf_counter() - start < seconds:
        factors.append(speed_factor())
        probe = Probe()
        with patched(probe.patches()):
            plain.append(w.run_pass(0, probe)[0] * factors[-1])
            w.check_pass(0, probe)
        del tracer.spans[kept:]
        tracer.counts = dict(setup_counts)
        probe = Probe()
        factors.append(speed_factor())
        with patched(probe.patches()), patched(tracer.patches()):
            t0 = time.perf_counter()
            w.run_pass(0, probe)
            with_trace.append((time.perf_counter() - t0) * factors[-1])
        w.check_pass(0, probe)

    tracer.write(WORK / f"spans_{w.name}_{seed}.jsonl")
    layers = tracer.layer_metrics()
    factor = statistics.median(factors)
    for name in layers:
        if name.endswith("ms"):
            layers[name] *= factor
    layers["trace_overhead_frac"] = statistics.median(with_trace) / statistics.median(plain) - 1.0
    counts = {k: v for k, v in layers.items() if not k.endswith(("ms", "_frac"))}
    print("layer counts sha256", sha256_json(counts), json.dumps(counts, sort_keys=True))
    return {name: layers[name] for name in LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.tracer import LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}_{args.seed}_{os.getpid()}")
    try:
        if args.trace:
            values = traced(w, args.seconds, args.seed)
            units = LAYER_UNITS
        else:
            values = untraced(w, args.seconds)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    finally:
        w.cleanup()

    print("inputs sha256", json.dumps(w.docs, sort_keys=True))
    print("work sha256", sha256_json(w.work[0]), json.dumps(w.work[0]))
    repeats = w.work if args.trace or w.repeats_input else []
    consistent = all(counts == w.work[0] for counts in repeats)
    for message in w.errors:
        print("failed:", message, file=sys.stderr)
    if not consistent:
        print("failed: work counts differ between passes of the same input", file=sys.stderr)
    print(json.dumps({
        "correct": w.failed == 0 and consistent,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
