"""Batch command-line front end.

Subcommands: `spectrum` (susceptibility tables), `run` (one protocol,
detector trace), `sweep` (delay or duration sweeps) and `fit` (decay fits
of a sweep CSV).  All CSV output is bit-stable: floats are serialized with
17 significant digits, files start with a comment naming the tool version
and the sha256 of the configuration text, and identical configurations
produce byte-identical files.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import fit_decay
from .config import (Config, ConfigError, build_classes, build_medium,
                     build_protocol, parse_config, render_config,
                     resolved_omegas)
from .dynamics import Grid, NumericalAbort, run_dynamics
from .experiment import standard_sequence, sweep_delay, sweep_duration
from .medium import susceptibility

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "SLOWLIGHT_OUTDIR"


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray],
               config_sha: str) -> None:
    rows = zip(*columns)
    lines = [f"# slowlight {__version__} config_sha256={config_sha}",
             ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_sweep_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    values, peaks = [], []
    header_seen = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True  # column header row
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise _UsageError(f"{path}: malformed CSV row at line {lineno}")
        values.append(float(parts[0]))
        peaks.append(float(parts[1]))
    if len(values) < 3:
        raise _UsageError(f"{path}: need at least 3 sweep points to fit")
    return np.asarray(values), np.asarray(peaks)


def _load_config(path: str) -> tuple[Config, str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config(text)
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return cfg, text, sha


def _out_dir(args, cfg: Config) -> Path:
    if args.out:
        base = args.out
    elif cfg.output.dir:
        base = cfg.output.dir
    else:
        base = os.environ.get(OUTPUT_DIR_ENV, ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _summary(cfg: Config, sha: str, wall: float, extra: dict) -> dict:
    body = {
        "tool": "slowlight",
        "version": __version__,
        "config_sha256": sha,
        "config_echo": render_config(cfg),
        "wall_time_s": wall,
    }
    body.update(extra)
    return body


def _write_json(path: Path, body: dict) -> None:
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _fit_report(values: np.ndarray, intensities: np.ndarray) -> dict:
    """Both intensity-domain models plus the exponential fit of the
    amplitude (square root of intensity), i.e. the squared-exponential
    intensity law used for coherence decay times."""
    report = {}
    for model in ("gaussian_sq", "exponential"):
        fit = fit_decay(list(zip(values, intensities)), model)
        report[model] = {"i0": fit.i0, "tau_us": fit.tau,
                         "rms_residual": fit.rms_residual,
                         "converged": fit.converged}
    amp = np.sqrt(intensities)
    fit = fit_decay(list(zip(values, amp)), "exponential")
    report["exponential_amplitude"] = {
        "i0": fit.i0 ** 2, "tau_us": fit.tau,
        "rms_residual": fit.rms_residual, "converged": fit.converged}
    return report


def cmd_spectrum(args) -> int:
    cfg, _text, sha = _load_config(args.config)
    m = build_medium(cfg)
    classes = build_classes(cfg)
    omega_c = cfg.spectrum.omega_c
    if omega_c is None:
        omega_c, _ = resolved_omegas(cfg)
    span = cfg.spectrum.span_rad_per_us
    detunings = np.linspace(-span, span, cfg.spectrum.points)
    t0 = time.perf_counter()
    chi = susceptibility(detunings, omega_c, m, classes)
    out = _out_dir(args, cfg)
    _write_csv(out / "spectrum.csv",
               ["detuning_rad_per_us", "chi_re", "chi_im"],
               [detunings, chi.real, chi.imag], sha)
    _write_json(out / "spectrum.json", _summary(cfg, sha, time.perf_counter() - t0, {
        "omega_c": omega_c, "points": cfg.spectrum.points}))
    print(f"wrote {out / 'spectrum.csv'}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg, _text, sha = _load_config(args.config)
    if cfg.grid.t_end_us is None:
        raise ConfigError("run needs grid.t_end_us", "missing")
    m = build_medium(cfg)
    classes = build_classes(cfg)
    grid = Grid(cells=cfg.grid.cells)
    protocol = build_protocol(cfg)
    sequence = standard_sequence(protocol.kind, protocol)
    t0 = time.perf_counter()
    trace, snapshots = run_dynamics(sequence, m, grid, classes)
    wall = time.perf_counter() - t0
    final = snapshots[-1]
    out = _out_dir(args, cfg)
    _write_csv(out / "trace.csv",
               ["t_us", "fwd_intensity", "bwd_intensity", "spin_norm"],
               [trace.t, trace.fwd_intensity, trace.bwd_intensity,
                trace.spin_norm], sha)
    markers = [{"channel": e.channel, "t_start_us": e.t_start,
                "duration_us": e.duration, "peak": e.peak, "shape": e.shape}
               for e in trace.annotations]
    checks = {
        "state_finite": bool(np.isfinite(final.f).all()
                             and np.isfinite(final.a).all()),
        "weak_probe_ok": final.weak_probe_ok,
        "weights_normalized": abs(float(np.sum(final.weights)) - 1.0) < 1e-10,
    }
    _write_json(out / "run.json", _summary(cfg, sha, wall, {
        "events": markers,
        "checks": checks,
        "readouts": [{"t_us": t, "diffracted": d} for t, d in trace.readouts],
        "optical_depth": m.optical_depth,
    }))
    print(f"wrote {out / 'trace.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, _text, sha = _load_config(args.config)
    if not cfg.sweep.parameter:
        raise ConfigError("sweep needs sweep.parameter", "missing")
    if not cfg.sweep.values:
        raise ConfigError("sweep needs a non-empty sweep.values list", "missing")
    m = build_medium(cfg)
    classes = build_classes(cfg)
    grid = Grid(cells=cfg.grid.cells)
    base = build_protocol(cfg)
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    keep = cfg.output.per_point_traces
    t0 = time.perf_counter()
    if cfg.sweep.parameter == "storage_T_us":
        result = sweep_delay(cfg.sweep.values, base, m, grid, classes,
                             keep_traces=keep, threads=threads)
    else:
        result = sweep_duration(cfg.sweep.values, base, m, grid, classes,
                                keep_traces=keep, threads=threads)
    wall = time.perf_counter() - t0
    out = _out_dir(args, cfg)
    _write_csv(out / "sweep.csv", ["param_us", "peak_intensity"],
               [result.values, result.intensities], sha)
    if keep and result.traces is not None:
        for i, trace in enumerate(result.traces):
            _write_csv(out / f"trace_{i:03d}.csv",
                       ["t_us", "fwd_intensity", "bwd_intensity", "spin_norm"],
                       [trace.t, trace.fwd_intensity, trace.bwd_intensity,
                        trace.spin_norm], sha)
    _write_json(out / "sweep.json", _summary(cfg, sha, wall, {
        "parameter": cfg.sweep.parameter,
        "n_points": len(result.values),
        "peak_times_us": list(result.peak_times),
        "simulated_steps": result.simulated_steps,
        "independent_steps": result.independent_steps,
    }))
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg, _text, sha = _load_config(args.config)
    out = _out_dir(args, cfg)
    sweep_path = Path(args.input) if args.input else out / "sweep.csv"
    t0 = time.perf_counter()
    values, intensities = _read_sweep_csv(sweep_path)
    report = _fit_report(values, intensities)
    body = _summary(cfg, sha, time.perf_counter() - t0,
                    {"input": str(sweep_path), "fits": report})
    _write_json(out / "fit.json", body)
    print(f"wrote {out / 'fit.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowlight",
        description="slow, stored and stationary light protocol runner")
    parser.add_argument("--version", action="version",
                        version=f"slowlight {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("run", cmd_run),
                     ("sweep", cmd_sweep), ("fit", cmd_fit)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=None, help="output directory")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1,
                           help="sweep-point parallelism; 0 = auto")
        if name == "fit":
            p.add_argument("--input", default=None,
                           help="sweep CSV to fit (default: <out>/sweep.csv)")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
