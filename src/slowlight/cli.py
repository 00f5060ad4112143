"""Batch command-line front end.

Subcommands: `spectrum` (susceptibility tables), `run` (one protocol,
detector trace; a slow-light run also reports its measured and predicted
group delay), `sweep` (delay or duration sweeps) and `fit` (the amplitude
decay fit of a sweep CSV).  The first three read a configuration file;
`fit` reads only the CSV and copies the configuration's sha256 from its
first line.  All CSV output is bit-stable: floats are serialized with
17 significant digits, files start with a comment naming the tool version
and the sha256 of the configuration text, and identical configurations
produce byte-identical files.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure, 4 I/O failure.  A run whose final state fails the weak-probe
check, like a fit that did not converge, is still written and exits 0,
with one warning line on stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import fit_decay, slow_light_delay
from .config import (Config, ConfigError, build_classes, build_medium,
                     build_protocol, parse_config, render_config)
from .dynamics import Grid, NumericalAbort, run_dynamics
from .experiment import standard_sequence, sweep_delay, sweep_duration
from .medium import susceptibility

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_SWEEP_COLUMNS = ["param_us", "peak_intensity"]
_CSV_HEAD = re.compile(r"# slowlight \S+ config_sha256=([0-9a-f]{64})")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray],
               config_sha: str) -> None:
    rows = zip(*columns)
    lines = [f"# slowlight {__version__} config_sha256={config_sha}",
             ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_sweep_csv(path: Path) -> tuple[np.ndarray, np.ndarray, str | None]:
    """The rows of a sweep CSV (a _SWEEP_COLUMNS header, then two numbers
    per row; anything else names the file and line) and the config_sha256
    of its first line, None if that line is not _write_csv's."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = _CSV_HEAD.fullmatch(lines[0]) if lines else None
    values, peaks = [], []
    header_seen = False
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split(",")]
        if not header_seen:
            if parts != _SWEEP_COLUMNS:
                raise ValueError(f"{path} line {lineno}: expected the header "
                                 f"{','.join(_SWEEP_COLUMNS)}, got {line!r}")
            header_seen = True
            continue
        if len(parts) != 2:
            raise ValueError(f"{path} line {lineno}: expected 2 fields, "
                             f"got {len(parts)}")
        try:
            values.append(float(parts[0]))
            peaks.append(float(parts[1]))
        except ValueError:
            raise ValueError(f"{path} line {lineno}: cannot parse "
                             f"{line!r} as numbers") from None
    if len(values) < 3:
        raise ValueError(f"{path}: need at least 3 sweep points to fit")
    return np.asarray(values), np.asarray(peaks), head and head.group(1)


def _load_config(path: str) -> tuple[Config, str]:
    """The parsed configuration and the sha256 of its text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _summary(cfg: Config | None, sha: str | None, wall: float,
             extra: dict) -> dict:
    body = {
        "tool": "slowlight",
        "version": __version__,
        "config_sha256": sha,
        "wall_time_s": wall,
    }
    if cfg is not None:
        body["config_echo"] = render_config(cfg)
    body.update(extra)
    return body


def _write_json(path: Path, body: dict) -> None:
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def cmd_spectrum(args) -> int:
    cfg, sha = _load_config(args.config)
    m = build_medium(cfg)
    classes = build_classes(cfg)
    omega_c = cfg.protocol.omega_c
    span = cfg.spectrum.span_rad_per_us
    detunings = np.linspace(-span, span, cfg.spectrum.points)
    t0 = time.perf_counter()
    chi = susceptibility(detunings, omega_c, m, classes)
    out = _out_dir(args)
    _write_csv(out / "spectrum.csv",
               ["detuning_rad_per_us", "chi_re", "chi_im"],
               [detunings, chi.real, chi.imag], sha)
    _write_json(out / "spectrum.json", _summary(cfg, sha, time.perf_counter() - t0, {
        "omega_c": omega_c, "points": cfg.spectrum.points}))
    print(f"wrote {out / 'spectrum.csv'}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg, sha = _load_config(args.config)
    if not cfg.protocol.kind:
        raise ConfigError("run needs protocol.kind", "missing")
    m = build_medium(cfg)
    classes = build_classes(cfg)
    grid = Grid(cells=cfg.grid.cells)
    protocol = build_protocol(cfg)
    sequence = standard_sequence(cfg.protocol.kind, protocol)
    t0 = time.perf_counter()
    trace, snapshots = run_dynamics(sequence, m, grid, classes)
    wall = time.perf_counter() - t0
    out = _out_dir(args)
    _write_csv(out / "trace.csv",
               ["t_us", "fwd_intensity", "bwd_intensity", "spin_norm"],
               [trace.t, trace.fwd_intensity, trace.bwd_intensity,
                trace.spin_norm], sha)
    markers = [{"channel": e.channel, "t_start_us": e.t_start,
                "duration_us": e.duration, "peak": e.peak, "shape": e.shape}
               for e in sequence.events]
    weak_probe_ok = snapshots[-1].weak_probe_ok
    if not weak_probe_ok:
        print(f"warning: the run of {args.config} fails the weak-probe check: "
              "an atomic amplitude of its final state exceeds 1",
              file=sys.stderr)
    report = {"events": markers, "checks": {"weak_probe_ok": weak_probe_ok},
              "optical_depth": m.optical_depth}
    if cfg.protocol.kind == "slow_light":
        try:
            delays = slow_light_delay(trace, sequence, m)
        except ValueError:  # no single peak to time, or no coupling
            delays = (None, None)
        report["group_delay_us"], report["predicted_delay_us"] = delays
    _write_json(out / "run.json", _summary(cfg, sha, wall, report))
    print(f"wrote {out / 'trace.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, sha = _load_config(args.config)
    if not cfg.sweep.parameter:
        raise ConfigError("sweep needs sweep.parameter", "missing")
    m = build_medium(cfg)
    classes = build_classes(cfg)
    grid = Grid(cells=cfg.grid.cells)
    base = build_protocol(cfg)
    sweep = sweep_delay if cfg.sweep.parameter == "storage_T_us" \
        else sweep_duration
    t0 = time.perf_counter()
    result = sweep(cfg.sweep.values, base, m, grid, classes)
    wall = time.perf_counter() - t0
    out = _out_dir(args)
    _write_csv(out / "sweep.csv", _SWEEP_COLUMNS,
               [result.values, result.intensities], sha)
    _write_json(out / "sweep.json", _summary(cfg, sha, wall, {
        "parameter": cfg.sweep.parameter,
        "n_points": len(result.values),
        "peak_times_us": list(result.peak_times),
        "simulated_steps": result.simulated_steps,
        "independent_steps": result.independent_steps,
        "peak_at_window_end": list(result.peak_at_window_end),
    }))
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_fit(args) -> int:
    """Fit the exponential model to the peak amplitudes (square roots of
    the intensities), i.e. the squared-exponential intensity law of the
    coherence decay times; a fit that did not converge is reported on
    stderr and still written."""
    sweep_path = Path(args.input) if args.input else Path(args.out) / "sweep.csv"
    t0 = time.perf_counter()
    values, intensities, sha = _read_sweep_csv(sweep_path)
    fit = fit_decay(list(zip(values, np.sqrt(intensities))), "exponential")
    if not fit.converged:
        print(f"warning: the amplitude decay fit of {sweep_path} did not "
              f"converge (tau_us = {fit.tau:.6g})", file=sys.stderr)
    body = _summary(None, sha, time.perf_counter() - t0, {
        "input": str(sweep_path),
        "fits": {"exponential_amplitude": {
            "i0": fit.i0 ** 2, "tau_us": fit.tau,
            "rms_residual": fit.rms_residual, "converged": fit.converged}}})
    out = _out_dir(args)
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
        if name != "fit":
            p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=".",
                       help="output directory (default: the working directory)")
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
