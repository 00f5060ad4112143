"""Line-oriented configuration files for the batch front end.

Format: `[section]` headers followed by `key = value` lines; `#` or `;`
start a comment; blank lines are ignored.  Every key is range-checked at
parse time, unknown sections or keys are rejected with their line number,
and a parsed configuration can be rendered back to canonical text that
parses to an equal configuration (this round trip is what run summaries
embed for reproducibility).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dc_fields

from .experiment import ProtocolParams
from .medium import MediumParams, make_spectral_classes

SWEEPABLE = ("storage_T_us", "a_duration_us")


class ConfigError(ValueError):
    """Configuration problem with a category and, when known, a line."""

    def __init__(self, message: str, category: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.category = category
        self.line = line


@dataclass
class MediumConfig:
    gamma_opt: float | None = None    # None: 1/t1_opt_us
    gamma_spin: float | None = None
    t2_spin_us: float = 500.0
    t1_opt_us: float = 110.0
    delta_s_khz: float = 30.0
    distribution: str = "lorentzian"
    n_classes: int = 64
    optical_depth: float = 40.0
    transit_time_us: float = 0.01
    g_c: float = 1.0
    g_a: float = 1.0


@dataclass
class GridConfig:
    cells: int = 64
    t_end_us: float | None = None
    sample_rate: float = 20.0


@dataclass
class ProtocolConfig:
    kind: str = ""
    probe_duration_us: float = 10.0
    probe_amplitude: float = 1.0
    probe_start_us: float = 0.0
    probe_shape: str = "gaussian"
    omega_c: float | None = None
    omega_a: float | None = None
    power_c_mw: float | None = None
    power_a_mw: float | None = None
    rabi_per_sqrt_mw: float | None = None
    retrieval_scale: float = math.sqrt(2.0)
    p_a_delay_us: float = 3.0
    storage_t_us: float = 0.0
    a_duration_us: float = 0.0
    c_off_us: float | None = None
    c_ramp_us: float = 1.0
    release_window_us: float = 30.0
    peak_guard_us: float = 1.0


@dataclass
class SweepConfig:
    parameter: str = ""
    values: tuple = ()


@dataclass
class SpectrumConfig:
    omega_c: float | None = None
    span_rad_per_us: float = 5.0
    points: int = 801


@dataclass
class OutputConfig:
    dir: str = ""
    per_point_traces: bool = False


@dataclass
class Config:
    medium: MediumConfig = field(default_factory=MediumConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _positive(v: float) -> bool:
    return v > 0.0 and math.isfinite(v)


def _nonneg(v: float) -> bool:
    return v >= 0.0 and math.isfinite(v)


# key -> (type tag, validator or allowed choices, required)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "medium": {
        "gamma_opt": ("float", _positive, False),
        "gamma_spin": ("float", _nonneg, False),
        "t2_spin_us": ("float", _positive, False),
        "t1_opt_us": ("float", _positive, False),
        "delta_S_khz": ("float", _nonneg, False),
        "distribution": ("choice", ("lorentzian", "gaussian", "single"), False),
        "n_classes": ("int", lambda v: v >= 1, False),
        "optical_depth": ("float", _nonneg, False),
        "transit_time_us": ("float", _positive, False),
        "g_C": ("float", _positive, False),
        "g_A": ("float", _positive, False),
    },
    "grid": {
        "cells": ("int", lambda v: v >= 4, False),
        "t_end_us": ("float", _positive, False),
        "sample_rate": ("float", _positive, False),
    },
    "protocol": {
        "kind": ("choice", ("slow_light", "memory", "stationary"), True),
        "probe_duration_us": ("float", _positive, False),
        "probe_amplitude": ("float", _nonneg, False),
        "probe_start_us": ("float", _nonneg, False),
        "probe_shape": ("choice", ("gaussian", "rect", "raised_cosine"), False),
        "omega_C": ("float", _nonneg, False),
        "omega_A": ("float", _nonneg, False),
        "power_C_mw": ("float", _nonneg, False),
        "power_A_mw": ("float", _nonneg, False),
        "rabi_per_sqrt_mw": ("float", _positive, False),
        "retrieval_scale": ("float", _positive, False),
        "p_a_delay_us": ("float", _nonneg, False),
        "storage_T_us": ("float", _nonneg, False),
        "a_duration_us": ("float", _nonneg, False),
        "c_off_us": ("float", _positive, False),
        "c_ramp_us": ("float", _nonneg, False),
        "release_window_us": ("float", _positive, False),
        "peak_guard_us": ("float", _nonneg, False),
    },
    "sweep": {
        "parameter": ("choice", SWEEPABLE, False),
        "values": ("float_list", lambda v: all(x >= 0.0 for x in v), False),
    },
    "spectrum": {
        "omega_C": ("float", _nonneg, False),
        "span_rad_per_us": ("float", _positive, False),
        "points": ("int", lambda v: v >= 3, False),
    },
    "output": {
        "dir": ("str", lambda v: True, False),
        "per_point_traces": ("bool", lambda v: True, False),
    },
}

# config key -> dataclass attribute, where the spelling differs (config
# keys follow the conventional capitalized channel and width symbols)
_ALIASES = {
    ("medium", "delta_S_khz"): "delta_s_khz",
    ("medium", "g_C"): "g_c",
    ("medium", "g_A"): "g_a",
    ("protocol", "omega_C"): "omega_c",
    ("protocol", "omega_A"): "omega_a",
    ("protocol", "power_C_mw"): "power_c_mw",
    ("protocol", "power_A_mw"): "power_a_mw",
    ("protocol", "storage_T_us"): "storage_t_us",
    ("spectrum", "omega_C"): "omega_c",
}
_RENDER_NAMES = {(section, attr): key for (section, key), attr in _ALIASES.items()}


def _convert(raw: str, kind: str, line: int, key: str):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            v = float(raw)
            if v != int(v):
                raise ValueError
            return int(v)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError
        if kind == "float_list":
            if not raw.strip():
                return ()
            return tuple(float(x) for x in raw.replace(",", " ").split())
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r} as {kind}",
                          "syntax", line) from None


def parse_config(text: str) -> Config:
    """Parse and fully validate a configuration."""
    cfg = Config()
    sections = {"medium": cfg.medium, "grid": cfg.grid, "protocol": cfg.protocol,
                "sweep": cfg.sweep, "spectrum": cfg.spectrum, "output": cfg.output}
    seen: set[tuple[str, str]] = set()
    current: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].split(";", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"malformed section header {stripped!r}",
                                  "syntax", lineno)
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", "unknown", lineno)
            current = name
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              "syntax", lineno)
        if current is None:
            raise ConfigError("key before any [section] header", "syntax", lineno)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        schema = _SCHEMA[current]
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{current}]",
                              "unknown", lineno)
        if (current, key) in seen:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]",
                              "syntax", lineno)
        seen.add((current, key))
        kind, check, _required = schema[key]
        value = _convert(raw, kind, lineno, key)
        ok = value in check if kind == "choice" else check(value)
        if not ok:
            raise ConfigError(f"value {raw!r} out of range for key {key!r}",
                              "range", lineno)
        attr = _ALIASES.get((current, key), key)
        setattr(sections[current], attr, value)

    for section, schema in _SCHEMA.items():
        for key, (_kind, _check, required) in schema.items():
            if required and (section, key) not in seen:
                raise ConfigError(f"missing required key {key!r} in "
                                  f"section [{section}]", "missing")
    if ("medium", "gamma_spin") in seen and ("medium", "t2_spin_us") in seen:
        raise ConfigError("give either gamma_spin or t2_spin_us, not both",
                          "range")
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: Config) -> None:
    p = cfg.protocol
    if p.omega_c is not None and p.power_c_mw is not None:
        raise ConfigError("give either omega_c or power_c_mw, not both", "range")
    if p.omega_a is not None and p.power_a_mw is not None:
        raise ConfigError("give either omega_a or power_a_mw, not both", "range")
    if (p.power_c_mw is not None or p.power_a_mw is not None) \
            and p.rabi_per_sqrt_mw is None:
        raise ConfigError("power_*_mw keys need rabi_per_sqrt_mw", "missing")
    if cfg.medium.distribution == "single" and cfg.medium.n_classes != 1:
        raise ConfigError("distribution 'single' requires n_classes = 1", "range")
    if cfg.sweep.parameter and not cfg.sweep.values:
        raise ConfigError("sweep.values must be a non-empty list", "missing")


def render_config(cfg: Config) -> str:
    """Canonical text form; parse_config(render_config(c)) equals c."""
    out: list[str] = []
    for section, obj in (("medium", cfg.medium), ("grid", cfg.grid),
                         ("protocol", cfg.protocol), ("sweep", cfg.sweep),
                         ("spectrum", cfg.spectrum), ("output", cfg.output)):
        lines = []
        for f in dc_fields(obj):
            value = getattr(obj, f.name)
            key = _RENDER_NAMES.get((section, f.name), f.name)
            if value is None or value == () or value == "":
                continue
            if (section, f.name) == ("medium", "t2_spin_us") \
                    and cfg.medium.gamma_spin is not None:
                continue  # the explicit rate supersedes the time constant
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = format(value, ".17g")
            elif isinstance(value, tuple):
                rendered = ", ".join(format(v, ".17g") for v in value)
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        if lines:
            out.append(f"[{section}]")
            out.extend(lines)
            out.append("")
    return "\n".join(out)


def resolved_omegas(cfg: Config) -> tuple[float, float]:
    """Coupling Rabi frequencies, from direct values or power calibration."""
    p = cfg.protocol
    cal = p.rabi_per_sqrt_mw
    omega_c = p.omega_c
    if omega_c is None:
        omega_c = cal * math.sqrt(p.power_c_mw) if p.power_c_mw is not None else 1.0
    omega_a = p.omega_a
    if omega_a is None:
        omega_a = cal * math.sqrt(p.power_a_mw) if p.power_a_mw is not None else 0.0
    return omega_c, omega_a


def build_medium(cfg: Config) -> MediumParams:
    mc = cfg.medium
    return MediumParams.from_optical_depth(
        mc.optical_depth,
        gamma_opt=mc.gamma_opt,
        gamma_spin=mc.gamma_spin,
        t2_spin=mc.t2_spin_us,
        t1_opt=mc.t1_opt_us,
        delta_s_khz=mc.delta_s_khz,
        g_c=mc.g_c,
        g_a=mc.g_a,
        c=1.0 / mc.transit_time_us,
    )


def build_classes(cfg: Config):
    mc = cfg.medium
    return make_spectral_classes(mc.delta_s_khz, mc.n_classes, mc.distribution)


def build_protocol(cfg: Config) -> ProtocolParams:
    omega_c, omega_a = resolved_omegas(cfg)
    p = cfg.protocol
    return ProtocolParams(
        kind=p.kind,
        probe_duration_us=p.probe_duration_us,
        probe_amplitude=p.probe_amplitude,
        probe_start_us=p.probe_start_us,
        probe_shape=p.probe_shape,
        omega_c=omega_c,
        omega_a=omega_a,
        retrieval_scale=p.retrieval_scale,
        p_a_delay_us=p.p_a_delay_us,
        storage_t_us=p.storage_t_us,
        a_duration_us=p.a_duration_us,
        c_off_us=p.c_off_us,
        c_ramp_us=p.c_ramp_us,
        release_window_us=p.release_window_us,
        peak_guard_us=p.peak_guard_us,
        sample_rate=cfg.grid.sample_rate,
        t_end_us=cfg.grid.t_end_us,
    )
