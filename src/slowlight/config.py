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
from dataclasses import Field, dataclass, field, fields as dc_fields

from .experiment import ProtocolParams
from .medium import MediumParams, make_spectral_classes

# each sweepable [protocol] key and the protocol whose sweep varies it
SWEEPABLE = {"storage_T_us": "memory", "a_duration_us": "stationary"}


class ConfigError(ValueError):
    """Configuration problem with a category and, when known, a line."""

    def __init__(self, message: str, category: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.category = category
        self.line = line


def _positive(v: float) -> bool:
    return v > 0.0 and math.isfinite(v)


def _nonneg(v: float) -> bool:
    return v >= 0.0 and math.isfinite(v)


def _key(default, check=None, name: str | None = None):
    """A config key declared on its section field.

    `check` is a range predicate or a tuple of allowed choices and `name`
    the key's spelling in the file where it differs from the attribute
    (keys follow the capitalized channel and width symbols).  The parse
    kind follows from the annotation.
    """
    return field(default=default, metadata={"check": check, "name": name})


@dataclass
class MediumConfig:
    gamma_opt: float = _key(MediumParams.gamma_opt, _positive)
    gamma_spin: float = _key(MediumParams.gamma_spin, _nonneg)
    delta_s_khz: float = _key(30.0, _nonneg, "delta_S_khz")
    distribution: str = _key("lorentzian", ("lorentzian", "gaussian", "single"))
    n_classes: int = _key(64, lambda v: v >= 1)
    optical_depth: float = _key(40.0, _nonneg)
    transit_time_us: float = _key(0.01, _positive)


@dataclass
class GridConfig:
    cells: int = _key(64, lambda v: v >= 4)
    t_end_us: float | None = _key(None, _positive)
    sample_rate: float = _key(ProtocolParams.sample_rate, _positive)


@dataclass
class ProtocolConfig:
    kind: str = _key("", ("slow_light", "memory", "stationary"))  # "": not set
    probe_duration_us: float = _key(ProtocolParams.probe_duration_us, _positive)
    probe_amplitude: float = _key(ProtocolParams.probe_amplitude, _nonneg)
    omega_c: float = _key(ProtocolParams.omega_c, _nonneg, "omega_C")
    omega_a: float = _key(ProtocolParams.omega_a, _nonneg, "omega_A")
    retrieval_scale: float = _key(ProtocolParams.retrieval_scale, _positive)
    p_a_delay_us: float = _key(ProtocolParams.p_a_delay_us, _nonneg)
    storage_t_us: float = _key(ProtocolParams.storage_t_us, _nonneg, "storage_T_us")
    a_duration_us: float = _key(ProtocolParams.a_duration_us, _nonneg)
    c_off_us: float | None = _key(ProtocolParams.c_off_us, _positive)
    c_ramp_us: float = _key(ProtocolParams.c_ramp_us, _nonneg)
    release_window_us: float = _key(ProtocolParams.release_window_us, _positive)
    peak_guard_us: float = _key(ProtocolParams.peak_guard_us, _nonneg)


@dataclass
class SweepConfig:
    parameter: str = _key("", tuple(SWEEPABLE))
    values: tuple = _key((), lambda v: all(_nonneg(x) for x in v))


@dataclass
class SpectrumConfig:
    span_rad_per_us: float = _key(5.0, _positive)
    points: int = _key(801, lambda v: v >= 3)


@dataclass
class Config:
    medium: MediumConfig = field(default_factory=MediumConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)


def _keys(section) -> dict[str, Field]:
    """File spelling -> field, for every key of a section dataclass."""
    return {f.metadata["name"] or f.name: f for f in dc_fields(section)}


# parse kind of an annotation, where it is not the annotation itself
_KINDS = {"float | None": "float", "tuple": "float_list"}


def _convert(raw: str, kind: str, line: int, key: str):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            v = float(raw)
            if v != int(v):
                raise ValueError
            return int(v)
        if kind == "float_list":
            if not raw.strip():
                return ()
            return tuple(float(x) for x in raw.replace(",", " ").split())
        return raw
    except (ValueError, OverflowError):
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r} as {kind}",
                          "syntax", line) from None


def parse_config(text: str) -> Config:
    """Parse and fully validate a configuration."""
    cfg = Config()
    keys = {section: _keys(obj) for section, obj in vars(cfg).items()}
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
            if name not in keys:
                raise ConfigError(f"unknown section [{name}]", "unknown", lineno)
            current = name
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              "syntax", lineno)
        if current is None:
            raise ConfigError("key before any [section] header", "syntax", lineno)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in keys[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]",
                              "unknown", lineno)
        if (current, key) in seen:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]",
                              "syntax", lineno)
        seen.add((current, key))
        f = keys[current][key]
        value = _convert(raw, _KINDS.get(f.type, f.type), lineno, key)
        check = f.metadata["check"]
        ok = value in check if isinstance(check, tuple) \
            else check is None or check(value)
        if not ok:
            raise ConfigError(f"value {raw!r} out of range for key {key!r}",
                              "range", lineno)
        setattr(getattr(cfg, current), f.name, value)

    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: Config) -> None:
    if cfg.medium.distribution == "single" and cfg.medium.n_classes != 1:
        raise ConfigError("distribution 'single' requires n_classes = 1", "range")
    if cfg.sweep.parameter and not cfg.sweep.values:
        raise ConfigError("sweep.values must be a non-empty list", "missing")
    kind = SWEEPABLE.get(cfg.sweep.parameter, cfg.protocol.kind)
    if cfg.protocol.kind and kind != cfg.protocol.kind:
        raise ConfigError(f"sweep.parameter {cfg.sweep.parameter} sweeps the "
                          f"{kind} protocol, not protocol.kind = "
                          f"{cfg.protocol.kind}", "range")


def render_config(cfg: Config) -> str:
    """Canonical text form; parse_config(render_config(c)) equals c."""
    out: list[str] = []
    for section, obj in vars(cfg).items():
        lines = []
        for key, f in _keys(obj).items():
            value = getattr(obj, f.name)
            if value is None or value == () or value == "":
                continue
            if isinstance(value, float):
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


def build_medium(cfg: Config) -> MediumParams:
    mc = cfg.medium
    return MediumParams.from_optical_depth(
        mc.optical_depth,
        gamma_opt=mc.gamma_opt,
        gamma_spin=mc.gamma_spin,
        c=1.0 / mc.transit_time_us,
    )


def build_classes(cfg: Config):
    mc = cfg.medium
    return make_spectral_classes(mc.delta_s_khz, mc.n_classes, mc.distribution)


def build_protocol(cfg: Config) -> ProtocolParams:
    """ProtocolParams from the [protocol] and [grid] keys of the same names."""
    given = {**vars(cfg.grid), **vars(cfg.protocol)}
    return ProtocolParams(**{f.name: given[f.name]
                             for f in dc_fields(ProtocolParams)})
