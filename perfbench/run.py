"""slowlight benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload memory_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; slowlight is imported from its src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones (wall_s, setup_s, peak_rss_mb; the times scaled to a
reference host speed by speed.py); with --trace 1 the
run spends half its time untraced and half traced, and the metrics are
the per-layer ones of tracing.LAYER_METRICS, including the tracing
overhead. The lines before it give the environment, the inputs, each
gate result, result_err, failed_frac and every metric with its unit;
.bench_out/ keeps the result and the spans of each run.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads as wl
from tracing import LAYER_METRICS, Span, Tracer, layer_metrics, \
    step_latencies_us, unit_metrics

# Timed set-up processes per run, half before and half after the timed
# operations, so that their median spans the host's state over the run.
SETUP_PROCESSES = 10


def l2_per_core_bytes() -> int | None:
    """Size of the level-2 cache of cpu0, read from sysfs where present."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "2":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": wl.np.__version__,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(wl.SRC.rglob("*.py"))),
        "l2_per_core_bytes": l2_per_core_bytes(),
        "blas_threads": speed.BLAS_THREADS["OPENBLAS_NUM_THREADS"],
    }


def working_set_bytes(workload: wl.Workload) -> int | None:
    """Computed, not measured: bytes of the state plus every array the
    integrator holds for one run (RK4 slopes and stages included), summed
    from the propagator's attributes at this workload's K and M."""
    grid = wl.dynamics.Grid(cells=workload.cells)
    classes = wl.medium.make_spectral_classes(
        30.0 if workload.classes > 1 else 0.0, workload.classes,
        "lorentzian" if workload.classes > 1 else "single")
    state = wl.dynamics.SimState.zeros(grid, classes)
    try:
        prop = wl.dynamics._Propagator(wl.medium.MediumParams(), state)
    except (AttributeError, TypeError):  # the integrator's layout changed
        return None
    arrays = [state.e_plus, state.e_minus, state.p_plus, state.p_minus, state.s]
    for value in vars(prop).values():
        arrays += [a for a in (value if isinstance(value, list) else [value])
                   if isinstance(a, wl.np.ndarray)]
    return sum(a.nbytes for a in arrays)


def setup_seconds(workload: wl.Workload, seed: int, run_dir: Path,
                  count: int) -> tuple[list[float], list[float]]:
    """Wall times, scaled to the reference speed and raw, of `count` fresh
    processes that import slowlight and build the workload's inputs (for
    cli_sweep: `slowlight --version`), each run under speed.py."""
    samples = run_dir / "setup.speed.json"
    cmd = [sys.executable, str(wl.HERE / "speed.py"), str(samples)]
    if workload.build is None:
        cmd += ["-m", "slowlight.cli", "--version"]
    else:
        cmd += [str(wl.HERE / "workloads.py"), workload.name, str(seed)]
    walls, raw = [], []
    for _ in range(count):
        wall, code, _ = wl.run_process(cmd, run_dir / "setup.log")
        if code != 0:
            log = (run_dir / "setup.log").read_text(encoding="utf-8", errors="replace")
            raise SystemExit(f"error: set-up process failed ({code}):\n{log}")
        walls.append(wl.scaled_process_wall(wall, samples))
        raw.append(wall)
    return walls, raw


class Measurement:
    """Timed units, gate verdicts and failures of a run's operations."""

    def __init__(self) -> None:
        self.walls: list[float] = []      # scaled to the reference speed
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.verdicts: list[wl.Verdict] = []
        self.errors: list[str] = []
        self.peak_rss_mb: list[float] = []
        self.layer_units: list[dict] = []
        self.spans: list[list[Span]] = []
        self.first_output = None


def verdict_of(workload: wl.Workload, inputs: dict, output) -> wl.Verdict:
    """The workload's gate on an output; an output it cannot read fails."""
    try:
        return workload.gate(inputs, output)
    except (ValueError, ArithmeticError, KeyError, IndexError) as exc:
        return wl.Verdict(False, math.nan, f"unreadable output: {exc!r}")


def measure(workload: wl.Workload, inputs: dict, seconds: float, run_dir: Path,
            tracer: Tracer | None = None) -> Measurement:
    """Run operations until the next one would end after `seconds`; at
    least one. Each operation is timed from its first call into slowlight
    to its verified output; one that raises or fails its gate counts all
    its units as failed. Untraced, the host speed is sampled during each
    operation and its wall time scaled by it (speed.py; child processes
    sample and are scaled on their own); traced, walls are kept raw, as
    probes would land in the spans."""
    got = Measurement()
    op_walls: list[float] = []
    start = time.perf_counter()
    while True:
        got.attempted += workload.units_per_op
        sampled = tracer is None and workload.in_process
        meter = speed.Speedometer() if sampled else None
        t0 = time.perf_counter()
        try:
            with meter or contextlib.nullcontext():
                outcome = workload.op(inputs, tracer is not None, run_dir)
                verdict = verdict_of(workload, inputs, outcome.output)
        except Exception:  # a failed operation is counted, not fatal
            got.errors.append(traceback.format_exc())
            outcome, verdict = None, wl.Verdict(False, math.nan, "raised")
        wall = time.perf_counter() - t0
        op_walls.append(wall)
        spans = tracer.take() if tracer else []
        got.verdicts.append(verdict)
        if not verdict.ok:
            got.failed += workload.units_per_op
        if outcome and outcome.walls:
            got.walls += outcome.walls
            got.raw_walls += outcome.raw_walls
        else:
            got.walls.append(speed.scaled(wall, meter.probe_s, meter.samples)
                             if meter else wall)
            got.raw_walls.append(wall)
        if outcome is not None:
            if got.first_output is None:
                got.first_output = outcome.output
            if outcome.peak_rss_mb is not None:
                got.peak_rss_mb.append(outcome.peak_rss_mb)
            if tracer and outcome.units:
                for unit in outcome.units:
                    unit_spans = [Span(*s) for s in unit["spans"]]
                    got.spans.append(unit_spans)
                    got.layer_units.append(unit_metrics(
                        unit_spans, unit["process_s"], unit["bytes_written"]))
            elif tracer:
                got.spans.append(spans)
                got.layer_units.append(unit_metrics(spans))
        if time.perf_counter() - start + statistics.median(op_walls) > seconds:
            return got


def check_corruption_counted(workload: wl.Workload, inputs: dict, output) -> str:
    """A deliberately corrupted output must fail the gate that `measure`
    counts failures by; otherwise the benchmark stops with an error."""
    verdict = verdict_of(workload, inputs, workload.corrupt(output))
    if verdict.ok:
        raise SystemExit(f"error: the {workload.name} gate passed a corrupted "
                         f"output: {verdict.detail}")
    return (f"FAIL as required, {workload.units_per_op} {workload.unit}(s) "
            f"counted failed ({verdict.detail})")


def run_workload(workload: wl.Workload, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    run_dir = wl.OUT / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.make_inputs(seed)
    setup_seconds(workload, seed, run_dir, 1)  # fills the bytecode caches
    setup, setup_raw = setup_seconds(workload, seed, run_dir, SETUP_PROCESSES // 2)
    plain = measure(workload, inputs, seconds / 2 if trace else seconds, run_dir)
    more, more_raw = setup_seconds(workload, seed, run_dir, SETUP_PROCESSES - len(setup))
    setup += more
    setup_raw += more_raw
    if plain.peak_rss_mb:
        peak_rss = max(plain.peak_rss_mb)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    corruption = (check_corruption_counted(workload, inputs, plain.first_output)
                  if plain.first_output is not None else "not checked: no output")
    measurements = [plain]
    layers = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, inputs, seconds / 2, run_dir, tracer)
        finally:
            tracer.uninstall()
        measurements.append(traced)
        with open(run_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump([[list(s) for s in unit] for unit in traced.spans], fh)
        step_us = [us for unit in traced.spans for us in step_latencies_us(unit)]
        overhead = (statistics.median(traced.raw_walls)
                    / statistics.median(plain.raw_walls) - 1.0)
        if not traced.layer_units:
            raise SystemExit("error: no traced operation completed:\n"
                             + "\n".join(traced.errors))
        layers = layer_metrics(traced.layer_units, step_us, overhead)
    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    errs = [v.result_err for m in measurements for v in m.verdicts
            if math.isfinite(v.result_err)]
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "inputs": {k: v for k, v in inputs.items() if k != "config"},
        "working_set_bytes_computed": working_set_bytes(workload),
        "unit": workload.unit, "attempted": attempted, "failed": failed,
        "gates": [v.detail + (" PASS" if v.ok else " FAIL")
                  for m in measurements for v in m.verdicts],
        "corrupted_output": corruption,
        "errors": [e for m in measurements for e in m.errors],
        "end_to_end": {
            "wall_s": statistics.median(plain.walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss,
            "result_err": statistics.median(errs) if errs else None,
            "failed_frac": failed / attempted,
        },
        "samples": {"wall_s": plain.walls, "setup_s": setup},
        "raw_samples": {"wall_s": plain.raw_walls, "setup_s": setup_raw},
        "per_layer": layers,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                         encoding="utf-8")
    return result


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "result_err": "frac", "failed_frac": "frac"}
GATED_E2E = ("wall_s", "setup_s", "peak_rss_mb")


def report(result: dict) -> None:
    env = result["environment"]
    ws, l2 = result["working_set_bytes_computed"], env["l2_per_core_bytes"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print(f"environment: cpus={env['cpus']} python={env['python']} "
          f"numpy={env['numpy']} src_lines={env['src_lines']} "
          f"l2_per_core_bytes={l2} blas_threads={env['blas_threads']}")
    print(f"inputs: {json.dumps(result['inputs'])}")
    if ws is not None:
        share = f" = {ws / l2:.2f} x L2 per core" if l2 else ""
        print(f"working set (computed from array sizes): {ws} bytes{share}")
    for line in result["gates"]:
        print(f"gate: {line}")
    for err in result["errors"]:
        print(f"operation failed:\n{err}")
    print(f"corrupted output: {result['corrupted_output']}")
    print(f"attempted {result['attempted']} {result['unit']}s, "
          f"failed {result['failed']}")
    samples = result["samples"]
    for name, value in result["end_to_end"].items():
        note = ""
        if name in samples:
            raw = statistics.median(result["raw_samples"][name])
            note = (f"  (median of {len(samples[name])}, at the reference speed;"
                    f" raw clock {raw:.6g})")
        shown = "none" if value is None else format(value, ".6g")
        print(f"end_to_end {name:<28} {shown} {E2E_UNITS[name]}{note}")
    for name, value in (result["per_layer"] or {}).items():
        unit, _, moves = LAYER_METRICS[name]
        print(f"per_layer  {name:<28} {value:.6g} {unit}  (moves {moves})")


def summary_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {n: {"value": v, "unit": LAYER_METRICS[n][0]}
                   for n, v in result["per_layer"].items()}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": E2E_UNITS[n]}
                   for n in GATED_E2E}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _terminate(signum, frame):
    # SystemExit unwinds through run_process, which kills and reaps the
    # child it waits for.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), environment())
    report(result)
    print(summary_line(result, bool(args.trace)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, as the peak RSS is per process;
    the last line merges their result lines, metrics keyed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(wl.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
