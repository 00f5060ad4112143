"""The four benchmark workloads: inputs made from a seed, the operation
each one times, its correctness gate, and a corruption of its output that
the gate must reject.

Every call into slowlight goes through a module attribute (for example
`config.parse_config`), so that the spans of `tracing.Tracer` see it.

Run as a script, `python3 perfbench/workloads.py <workload> <seed>`
imports slowlight and builds that workload's inputs, then exits; the
benchmark times this process, run under speed.py, as the workload's set-up.
`python3 perfbench/workloads.py --record` recomputes `references.json`.
"""
from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"

if not (SRC / "slowlight" / "__init__.py").is_file():
    raise SystemExit(f"error: no slowlight sources under {SRC}; run the "
                     "benchmark from the root of a slowlight checkout")
sys.path.insert(0, str(SRC))

import speed  # noqa: E402  (sets one BLAS thread before numpy loads)
import numpy as np  # noqa: E402

import slowlight  # noqa: E402
from slowlight import analysis, config, dynamics, experiment, medium  # noqa: E402

if Path(slowlight.__file__).resolve().parent != (SRC / "slowlight").resolve():
    raise SystemExit(f"error: imported slowlight from {slowlight.__file__}, "
                     f"not from {SRC}")

# Environment of every slowlight process the benchmark starts.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Verdict:
    """Result of a workload's correctness gate on one operation."""

    ok: bool
    result_err: float
    detail: str


@dataclass
class Outcome:
    """What one operation produced.

    `walls`, `raw_walls` and `units` are set by operations that time
    their own units (one per CLI process); in-process operations leave them
    empty and the harness times the whole operation as one unit. `walls`
    are scaled to the reference host speed (see speed.py), `raw_walls` are
    as the clock read them.
    """

    output: Any
    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    peak_rss_mb: float | None = None
    units: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                    # what one attempted operation counts
    units_per_op: int
    classes: int                 # K and M of the integrated system
    cells: int
    make_inputs: Callable[[int], dict]
    build: Callable[[dict], Any] | None  # None: set-up is `slowlight --version`
    op: Callable[..., Outcome]
    gate: Callable[[dict, Any], Verdict]
    corrupt: Callable[[Any], Any]
    # False: the operation runs slowlight in child processes, which sample
    # the host speed and are timed one by one (Outcome.walls).
    in_process: bool = True


def _references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _build_from_config(inputs: dict):
    cfg = config.parse_config(inputs["config"])
    return (cfg, config.build_medium(cfg), config.build_classes(cfg),
            config.build_protocol(cfg), dynamics.Grid(cells=cfg.grid.cells))


# -- memory_sweep: criterion-2 storage sweep and its decay fit -------------

MEMORY_CONFIG = """\
[medium]
gamma_opt = 1.0
optical_depth = 40
transit_time_us = 0.2
delta_S_khz = 30
n_classes = 64
distribution = lorentzian

[grid]
cells = 32
sample_rate = 20

[protocol]
kind = memory
omega_C = 2.0
probe_duration_us = 10
c_off_us = 30
c_ramp_us = 2
release_window_us = 18
peak_guard_us = 1

[sweep]
parameter = storage_T_us
values = {values}
"""

MEMORY_TOLERANCE = 0.15  # criterion 2: tau within 15% of T2*


def memory_inputs(seed: int) -> dict:
    # The four inner delays move by up to about 1 us; the jitter has zero
    # sum, so the simulated time, and with it the cost, stays the same.
    rng = random.Random(seed)
    jitter = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    mean = sum(jitter) / len(jitter)
    delays = [0.0] + [round(6.0 * (i + 1) + j - mean, 3)
                      for i, j in enumerate(jitter)] + [30.0]
    return {"config": MEMORY_CONFIG.format(
        values=", ".join(format(d, "g") for d in delays)), "delays_us": delays}


def memory_op(inputs: dict, traced: bool, run_dir: Path) -> Outcome:
    cfg, m, classes, base, grid = _build_from_config(inputs)
    result = experiment.sweep_delay(cfg.sweep.values, base, m, grid, classes,
                                    threads=1)
    return Outcome((np.asarray(result.values), np.asarray(result.intensities)))


def memory_gate(inputs: dict, output) -> Verdict:
    values, intensities = output
    if not (np.all(np.isfinite(intensities)) and np.all(intensities > 0.0)):
        return Verdict(False, math.nan, "non-finite or non-positive peak")
    fit = analysis.fit_decay(list(zip(values, np.sqrt(intensities))),
                             "exponential")
    t2_star = medium.dephasing_time(30.0)
    err = abs(fit.tau - t2_star) / t2_star
    ok = fit.converged and err <= MEMORY_TOLERANCE
    return Verdict(ok, err, f"tau = {fit.tau:.4f} us vs T2* = {t2_star:.4f} us, "
                            f"|err| {err:.4f} <= {MEMORY_TOLERANCE}, "
                            f"converged={fit.converged}")


def memory_corrupt(output):
    values, intensities = output
    bad = intensities.copy()
    bad[2] = math.nan
    return values, bad


# -- trap_point: one criterion-3 stationary-light run ----------------------

TRAP_CONFIG = """\
[medium]
gamma_opt = 1.0
optical_depth = 800
transit_time_us = 0.25
delta_S_khz = 30
n_classes = 64
distribution = lorentzian

[grid]
cells = 72
sample_rate = 10
t_end_us = 96

[protocol]
kind = stationary
omega_C = {omega:.17g}
omega_A = {omega:.17g}
probe_duration_us = 10
p_a_delay_us = 33
a_duration_us = {hold:g}
peak_guard_us = 1
"""

# Holds around 28 us; t_end stays 96 us, so every run has 27,648 steps.
TRAP_HOLDS_US = (27.0, 27.5, 28.0, 28.5, 29.0)


def trap_config(hold: float) -> str:
    return TRAP_CONFIG.format(omega=math.sqrt(20.0), hold=hold)


def trap_inputs(seed: int) -> dict:
    hold = TRAP_HOLDS_US[random.Random(seed).randrange(len(TRAP_HOLDS_US))]
    return {"config": trap_config(hold), "hold_us": hold}


def trap_op(inputs: dict, traced: bool, run_dir: Path) -> Outcome:
    cfg, m, classes, base, grid = _build_from_config(inputs)
    sequence = experiment.standard_sequence("stationary", base)
    trace, _ = dynamics.run_dynamics(sequence, m, grid, classes)
    _, peak = experiment.released_peak(
        trace, sequence.release_time_us + base.peak_guard_us)
    arrays = np.stack([trace.fwd_intensity, trace.bwd_intensity, trace.spin_norm])
    return Outcome({"arrays": arrays, "peak": peak,
                    "injected": base.probe_amplitude ** 2})


def trap_gate(inputs: dict, output) -> Verdict:
    peak, injected = output["peak"], output["injected"]
    finite = bool(np.all(np.isfinite(output["arrays"]))) and math.isfinite(peak)
    reference = _references()["trap_point"][format(inputs["hold_us"], "g")]
    err = abs(peak - reference) / reference
    ok = finite and 0.0 < peak <= injected
    return Verdict(ok, err, f"released peak {peak:.6g} <= injected {injected:g}, "
                            f"finite={finite}, reference {reference:.6g}")


def trap_corrupt(output):
    return {**output, "peak": 2.0 * output["injected"]}


# -- cli_sweep: `slowlight sweep` processes on the criterion-9 physics -----

CLI_CONFIG = """\
[medium]
gamma_opt = 1.0
delta_S_khz = 30
n_classes = 6
optical_depth = 30
transit_time_us = 0.25

[grid]
cells = 20
sample_rate = 10

[protocol]
kind = memory
probe_duration_us = 5
omega_C = 1.8
c_off_us = 16
c_ramp_us = 1.0
release_window_us = 10

[sweep]
parameter = storage_T_us
values = {values}
"""

CLI_VARIANTS = 8


def cli_config(variant: int) -> str:
    # Eleven delays 1.5 us apart; points 1-5 move up and 6-10 down by the
    # same step, so the simulated time does not depend on the variant.
    delays = [round(1.5 * i + 0.1 * variant * (0 if i == 0 else 1 if i <= 5 else -1), 3)
              for i in range(11)]
    return CLI_CONFIG.format(values=", ".join(format(d, "g") for d in delays))


def cli_inputs(seed: int) -> dict:
    variant = random.Random(seed).randrange(CLI_VARIANTS)
    return {"config": cli_config(variant), "variant": variant}


def run_process(cmd: list[str], log: Path, timeout: float = 150.0):
    """Run cmd from the checkout root; return (wall s, exit code, peak RSS MB).

    The process is reaped with wait4 so that its own peak RSS is read; a
    timer kills it if it outlives `timeout`.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV,
                                stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def scaled_process_wall(wall: float, samples_path: Path) -> float:
    """A process's wall time at the reference speed, from the probe samples
    it wrote when run under speed.py. The file is removed once read, so a
    process that writes none cannot be scaled by an earlier one's."""
    got = json.loads(samples_path.read_text(encoding="utf-8"))
    samples_path.unlink()
    return speed.scaled(wall, got["probe_s"], got["samples"])


def cli_op(inputs: dict, traced: bool, run_dir: Path) -> Outcome:
    cfg_path = run_dir / "sweep.cfg"
    cfg_path.write_text(inputs["config"], encoding="utf-8")
    payloads, codes, walls, raw_walls, rss, units = [], [], [], [], [], []
    for name in ("first", "second"):
        out = run_dir / name
        shutil.rmtree(out, ignore_errors=True)
        spans_path = run_dir / f"{name}.spans.json"
        samples_path = run_dir / f"{name}.speed.json"
        args = ["sweep", "--config", str(cfg_path), "--out", str(out)]
        cmd = ([sys.executable, str(HERE / "tracing.py"), str(spans_path)] + args
               if traced else [sys.executable, str(HERE / "speed.py"),
                               str(samples_path), "-m", "slowlight.cli"] + args)
        wall, code, peak = run_process(cmd, run_dir / f"{name}.log")
        raw_walls.append(wall)
        if not traced:
            wall = scaled_process_wall(wall, samples_path)
        csv = out / "sweep.csv"
        payloads.append(csv.read_bytes() if csv.is_file() else b"")
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        codes.append(code)
        walls.append(wall)
        rss.append(peak)
        if traced:
            units.append({"spans": json.loads(spans_path.read_text(encoding="utf-8")),
                          "process_s": wall, "bytes_written": written})
        shutil.rmtree(out, ignore_errors=True)
    return Outcome({"codes": codes, "csv": payloads}, walls, raw_walls, max(rss),
                   units)


def _csv_peaks(payload: bytes) -> list[float]:
    lines = [ln for ln in payload.decode("utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [float(ln.split(",")[1]) for ln in lines[1:]]


def cli_gate(inputs: dict, output) -> Verdict:
    codes, (first, second) = output["codes"], output["csv"]
    if any(codes):
        return Verdict(False, math.nan, f"exit codes {codes}")
    identical = first == second
    peaks = _csv_peaks(first)
    reference = _references()["cli_sweep"][str(inputs["variant"])]
    finite = len(peaks) == len(reference) and all(map(math.isfinite, peaks))
    err = max(abs(p - r) / r for p, r in zip(peaks, reference)) if finite else math.nan
    return Verdict(identical and finite, err,
                   f"two invocations, {len(first)} bytes, identical={identical}, "
                   f"{len(peaks)} finite rows={finite}")


def cli_corrupt(output):
    first, second = output["csv"]
    flipped = bytearray(second)
    flipped[-3] = ord("0") if flipped[-3] != ord("0") else ord("1")
    return {**output, "csv": [first, bytes(flipped)]}


# -- step_api: criterion-6 lossless loop of public step() calls ------------

STEP_COUNT = 10_000
STEP_DRIFT_LIMIT = 1e-6  # criterion 6


def step_inputs(seed: int) -> dict:
    return {"centre": 0.4 + 0.2 * random.Random(seed).random(),
            "steps": STEP_COUNT}


def step_build(inputs: dict):
    m = medium.MediumParams(gamma_opt=0.0, gamma_spin=0.0, g2n=1.0, c=5.0)
    grid = dynamics.Grid(cells=64)
    classes = medium.make_spectral_classes(0.0, 1, "single")
    state = dynamics.SimState.zeros(grid, classes)
    state.e_plus[:] = np.exp(-(((grid.z - inputs["centre"]) / 0.1) ** 2))
    drive = dynamics.ControlDrive.constant(0.4, 0.4)
    return m, state, drive, grid.dz / m.c


def step_op(inputs: dict, traced: bool, run_dir: Path) -> Outcome:
    m, state, drive, dt = step_build(inputs)
    q0 = dynamics.excitation_number(state, m)
    for _ in range(inputs["steps"]):
        dynamics.step(state, drive, m, dt, boundary="periodic")
    return Outcome({"q0": q0, "q1": dynamics.excitation_number(state, m)})


def step_gate(inputs: dict, output) -> Verdict:
    q0, q1 = output["q0"], output["q1"]
    drift = abs(q1 - q0) / q0
    ok = math.isfinite(drift) and drift <= STEP_DRIFT_LIMIT
    return Verdict(ok, drift, f"excitation drift {drift:.3e} over "
                              f"{inputs['steps']} steps <= {STEP_DRIFT_LIMIT:g}")


def step_corrupt(output):
    return {**output, "q1": output["q1"] * (1.0 + 1e-3)}


WORKLOADS = {w.name: w for w in (
    Workload("memory_sweep", "sweep point", 6, 64, 32, memory_inputs,
             _build_from_config, memory_op, memory_gate, memory_corrupt),
    Workload("trap_point", "run", 1, 64, 72, trap_inputs,
             _build_from_config, trap_op, trap_gate, trap_corrupt),
    Workload("cli_sweep", "invocation", 2, 6, 20, cli_inputs,
             None, cli_op, cli_gate, cli_corrupt, in_process=False),
    Workload("step_api", "loop", 1, 1, 64, step_inputs,
             step_build, step_op, step_gate, step_corrupt),
)}


def record_references() -> dict:
    """Released trap peaks and CLI sweep peaks for every input variant."""
    from slowlight import cli

    refs: dict = {"trap_point": {}, "cli_sweep": {}}
    for hold in TRAP_HOLDS_US:
        refs["trap_point"][format(hold, "g")] = \
            trap_op({"config": trap_config(hold)}, False, OUT).output["peak"]
    run_dir = OUT / "record"
    run_dir.mkdir(parents=True, exist_ok=True)
    for variant in range(CLI_VARIANTS):
        cfg = run_dir / "sweep.cfg"
        cfg.write_text(cli_config(variant), encoding="utf-8")
        if cli.main(["sweep", "--config", str(cfg), "--out", str(run_dir)]) != 0:
            raise SystemExit(f"slowlight sweep failed on variant {variant}")
        csv = (run_dir / "sweep.csv").read_bytes()
        refs["cli_sweep"][str(variant)] = _csv_peaks(csv)
    shutil.rmtree(run_dir)
    return refs


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        REFERENCES.write_text(json.dumps(record_references(), indent=1) + "\n",
                              encoding="utf-8")
    else:
        name, seed = sys.argv[1], int(sys.argv[2])
        workload = WORKLOADS[name]
        workload.build(workload.make_inputs(seed))
