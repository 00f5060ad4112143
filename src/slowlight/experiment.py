"""Pulse sequences, protocol builders and parameter sweeps.

Three standard protocols are provided:

* slow_light:  forward coupling on throughout, a single probe pulse.
* memory:      the coupling gates off to map the probe onto spin
               coherence, stays dark for a delay T, then gates back on
               (by default at sqrt(2) times the writing amplitude, i.e.
               doubled power) to regenerate the pulse.
* stationary:  forward coupling on throughout; a counterpropagating
               coupling turns on while the probe transits, freezing the
               pulse inside the medium, and releases it when it turns off.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import (DetectorTrace, Grid, _check_probe_resolution,
                       _half_step_times, balance_residual, run_dynamics)
from .medium import MediumParams, SpectralClass

CHANNELS = ("P", "C", "A", "Y")
SHAPES = ("rect", "raised_cosine", "gaussian")

_FOUR_LN2 = 4.0 * math.log(2.0)
_BRANCH_CHUNK = 1024  # steps per drive comparison in _branch_step


@dataclass(frozen=True)
class PulseEvent:
    """One timed envelope event on a channel.

    peak is a Rabi frequency in rad/us for C/A/Y and a probe amplitude for
    P.  shape_param is the ramp length for raised_cosine and the FWHM for
    gaussian; it is ignored for rect.
    """

    channel: str
    t_start: float
    duration: float
    peak: float
    shape: str = "rect"
    shape_param: float = 0.0
    detuning: float = 0.0

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not (self.duration > 0.0):
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.shape == "raised_cosine" and self.shape_param > 0.5 * self.duration:
            raise ValueError("ramp must be <= duration/2")
        if self.shape == "gaussian" and not (self.shape_param > 0.0):
            raise ValueError("gaussian shape needs a positive fwhm")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    def envelope(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the envelope on a time grid (zero outside the event)."""
        t = np.asarray(t, dtype=float)
        inside = (t >= self.t_start) & (t < self.t_end)
        if self.shape == "rect":
            return np.where(inside, self.peak, 0.0)
        if self.shape == "raised_cosine":
            ramp = self.shape_param
            if ramp == 0.0:
                return np.where(inside, self.peak, 0.0)
            rel = t - self.t_start
            up = np.clip(rel / ramp, 0.0, 1.0)
            down = np.clip((self.duration - rel) / ramp, 0.0, 1.0)
            prof = 0.5 * (1 - np.cos(math.pi * up)) * 0.5 * (1 - np.cos(math.pi * down))
            return np.where(inside, self.peak * prof, 0.0)
        mid = self.t_start + 0.5 * self.duration
        prof = np.exp(-_FOUR_LN2 * ((t - mid) / self.shape_param) ** 2)
        return np.where(inside, self.peak * prof, 0.0)


@dataclass
class PulseSequence:
    """Validated, time-sorted event list driving one run."""

    events: list[PulseEvent]
    t_end_us: float
    sample_rate: float = 20.0
    # metadata used by grid-resolution checks and peak extraction
    probe_duration_us: float = 0.0
    writing_omega_c: float = 0.0
    release_time_us: float = 0.0

    def __post_init__(self) -> None:
        if not (self.t_end_us > 0.0):
            raise ValueError("t_end_us must be > 0")
        if not (self.sample_rate > 0.0):
            raise ValueError("sample_rate must be > 0")
        self.events = sorted(self.events, key=lambda e: (e.t_start, e.channel))
        by_channel: dict[str, list[PulseEvent]] = {}
        for ev in self.events:
            if ev.t_start < 0.0 or ev.t_end > self.t_end_us + 1e-12:
                raise ValueError(
                    f"event on {ev.channel} at [{ev.t_start}, {ev.t_end}] "
                    f"outside the simulated window [0, {self.t_end_us}]")
            by_channel.setdefault(ev.channel, []).append(ev)
        for channel, evs in by_channel.items():
            for a, b in zip(evs, evs[1:]):
                if b.t_start < a.t_end - 1e-12:
                    raise ValueError(f"overlapping events on channel {channel}")
            # a run holds one detuning per coupling channel
            if channel in ("C", "A") and len({e.detuning for e in evs}) > 1:
                raise ValueError(f"events on channel {channel} disagree on detuning")

    def channel_envelope(self, channel: str, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        total = np.zeros(t.shape)
        for ev in self.events:
            if ev.channel == channel:
                total = total + ev.envelope(t)
        return total

    def probe_samples(self, t: np.ndarray) -> np.ndarray:
        return self.channel_envelope("P", t).astype(complex)

    def drive_samples(self, t: np.ndarray):
        omega_c = self.channel_envelope("C", t).astype(complex)
        omega_a = self.channel_envelope("A", t).astype(complex)
        det_c = next((e.detuning for e in self.events if e.channel == "C"), 0.0)
        det_a = next((e.detuning for e in self.events if e.channel == "A"), 0.0)
        return omega_c, omega_a, det_c, det_a

    def readout_events(self) -> list[tuple[float, float, float]]:
        return [(e.t_start, e.peak, e.duration)
                for e in self.events if e.channel == "Y"]


@dataclass
class ProtocolParams:
    """Everything needed to build one of the standard sequences."""

    kind: str = "slow_light"
    probe_duration_us: float = 10.0     # gaussian FWHM (or rect duration)
    probe_amplitude: float = 1.0
    probe_start_us: float = 0.0
    probe_shape: str = "gaussian"
    omega_c: float = 0.2
    omega_a: float = 0.0
    retrieval_scale: float = math.sqrt(2.0)  # doubled power at retrieval
    p_a_delay_us: float = 3.0
    storage_t_us: float = 0.0
    a_duration_us: float = 0.0
    c_off_us: float | None = None
    c_ramp_us: float = 1.0
    release_window_us: float = 30.0
    peak_guard_us: float = 1.0
    sample_rate: float = 20.0
    t_end_us: float | None = None

    @property
    def probe_window_us(self) -> float:
        """Support of the probe event (3 FWHM for gaussian pulses)."""
        if self.probe_shape == "gaussian":
            return 3.0 * self.probe_duration_us
        return self.probe_duration_us

    @property
    def probe_end_us(self) -> float:
        return self.probe_start_us + self.probe_window_us


def _probe_event(p: ProtocolParams) -> PulseEvent:
    if p.probe_shape == "gaussian":
        return PulseEvent("P", p.probe_start_us, p.probe_window_us,
                          p.probe_amplitude, "gaussian", p.probe_duration_us)
    return PulseEvent("P", p.probe_start_us, p.probe_duration_us,
                      p.probe_amplitude, p.probe_shape,
                      min(1.0, 0.5 * p.probe_duration_us))


def standard_sequence(kind: str, p: ProtocolParams) -> PulseSequence:
    """Build the pulse sequence for one of the standard protocols."""
    if kind not in ("slow_light", "memory", "stationary"):
        raise ValueError(f"unknown protocol kind {kind!r}")
    if p.storage_t_us < 0.0 or p.a_duration_us < 0.0 or p.p_a_delay_us < 0.0:
        raise ValueError("delays and durations must be >= 0")

    events = [_probe_event(p)]
    release = 0.0
    if kind == "slow_light":
        t_end = p.t_end_us if p.t_end_us is not None else \
            p.probe_end_us + p.release_window_us
        events.append(PulseEvent("C", 0.0, t_end, p.omega_c))
        release = p.probe_start_us
    elif kind == "memory":
        c_off = p.c_off_us if p.c_off_us is not None else p.probe_end_us
        if c_off <= p.c_ramp_us:
            raise ValueError("c_off_us must leave room for the switching ramp")
        t_on = c_off + p.storage_t_us
        t_end = p.t_end_us if p.t_end_us is not None else \
            t_on + p.release_window_us
        events.append(PulseEvent("C", 0.0, c_off, p.omega_c,
                                 "raised_cosine", p.c_ramp_us))
        events.append(PulseEvent("C", t_on, t_end - t_on,
                                 p.omega_c * p.retrieval_scale,
                                 "raised_cosine", p.c_ramp_us))
        release = t_on
    else:
        a_on = p.probe_start_us + p.p_a_delay_us
        if a_on < p.probe_end_us:
            warnings.warn("backward coupling turns on before the probe "
                          "finishes injecting", stacklevel=2)
        a_off = a_on + p.a_duration_us
        t_end = p.t_end_us if p.t_end_us is not None else \
            a_off + p.release_window_us
        events.append(PulseEvent("C", 0.0, t_end, p.omega_c))
        if p.a_duration_us > 0.0 or p.omega_a > 0.0:
            duration = p.a_duration_us if p.a_duration_us > 0.0 else 1e-9
            events.append(PulseEvent("A", a_on, duration, p.omega_a))
        release = a_off
    return PulseSequence(events=events, t_end_us=t_end,
                         sample_rate=p.sample_rate,
                         probe_duration_us=p.probe_duration_us,
                         writing_omega_c=p.omega_c,
                         release_time_us=release)


def released_peak(trace: DetectorTrace, t_min: float) -> tuple[float, float]:
    """Largest forward-intensity sample at or after t_min: (t_peak, peak)."""
    mask = trace.t >= t_min
    if not mask.any():
        raise ValueError(f"no samples at or after t = {t_min}")
    idx = int(np.argmax(trace.fwd_intensity[mask]))
    t_sel = trace.t[mask]
    i_sel = trace.fwd_intensity[mask]
    return float(t_sel[idx]), float(i_sel[idx])


@dataclass
class SweepResult:
    """Peak released intensity versus a swept protocol parameter.

    simulated_steps counts the steps the sweep integrated (trunk plus
    branches); independent_steps counts those that running every point
    from t = 0 would take.
    """

    values: np.ndarray
    intensities: np.ndarray
    peak_times: np.ndarray
    traces: list[DetectorTrace] | None = None
    simulated_steps: int = 0
    independent_steps: int = 0

    def __post_init__(self) -> None:
        if len(self.values) != len(self.intensities):
            raise ValueError("values and intensities must have equal length")
        if np.any(np.asarray(self.intensities) < 0.0):
            raise ValueError("intensities must be >= 0")


def _branch_step(sequence: PulseSequence, trunk: PulseSequence, dt: float,
                 n_steps: int) -> int:
    """Global step from which `sequence` can resume a snapshot of `trunk`.

    Both are sampled on the global half-step grid 0.5*dt*k, k <= 2*n_steps.
    With k* the first sample where their C, A or probe envelopes differ,
    steps before (k* - 1) // 2 read only samples k < k*, so the trunk's
    state after them is this sequence's state too.  A sequence that agrees
    with the trunk throughout branches at its own end, n_steps.  The
    samples are taken _BRANCH_CHUNK steps at a time, so the search holds
    little memory and stops at the first difference.
    """
    for n in range(0, n_steps, _BRANCH_CHUNK):
        t = _half_step_times(dt, n, min(n + _BRANCH_CHUNK, n_steps))
        omega_c, omega_a, det_c, det_a = sequence.drive_samples(t)
        t_omega_c, t_omega_a, t_det_c, t_det_a = trunk.drive_samples(t)
        if (det_c, det_a) != (t_det_c, t_det_a):
            return 0  # the propagators differ from the first step on
        differ = (omega_c != t_omega_c) | (omega_a != t_omega_a)
        differ |= sequence.probe_samples(t) != trunk.probe_samples(t)
        if differ.any():
            return max(0, (2 * n + int(np.argmax(differ)) - 1) // 2)
    return n_steps


def _run_point(args):
    """Integrate one point from its snapshot and splice it onto the trunk's
    records before the snapshot: (trace, t_peak, peak)."""
    sequence, m, grid, classes, start, trunk, guard = args
    branch, _ = run_dynamics(sequence, m, grid, classes, initial_state=start,
                             _check_probe=False)
    cut = 0 if start is None else int(np.searchsorted(trunk.t, start.t))
    trace = DetectorTrace(
        *(np.concatenate([head[:cut], tail]) for head, tail in (
            (trunk.t, branch.t), (trunk.fwd_intensity, branch.fwd_intensity),
            (trunk.bwd_intensity, branch.bwd_intensity),
            (trunk.spin_norm, branch.spin_norm))),
        annotations=branch.annotations, readouts=branch.readouts)
    t_peak, peak = released_peak(trace, sequence.release_time_us + guard)
    return trace, t_peak, peak


def _sweep(kind: str, field: str, values: list[float], base: ProtocolParams,
           m: MediumParams, grid: Grid, classes: Sequence[SpectralClass],
           keep_traces: bool, threads: int) -> SweepResult:
    """Run protocol `kind` at each value of `field`, sharing the prefix.

    The longest point is the trunk: it runs once from t = 0 and leaves a
    snapshot at each point's branch step (see _branch_step), from which the
    point runs to its own end, so every result equals an independent run
    bit for bit.  threads > 1 runs the branches in a thread pool.  Each
    distinct warning raised while building the points' sequences or
    checking the probe resolution is raised once, blamed on the caller of
    the public sweep.  Standard sequences carry no readout events, so a
    spliced trace takes the branch's readouts.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sequences = [standard_sequence(kind, replace(
            base, kind=kind, t_end_us=None, **{field: float(v)}))
            for v in values]
        _check_probe_resolution(sequences[0], m, grid)
    for message, category in dict((str(w.message), w.category)
                                  for w in caught).items():
        warnings.warn(f"{message} (all {len(values)} points of the {field} "
                      f"sweep)", category, stacklevel=3)
    dt = grid.dz / m.c
    ends = [int(round(s.t_end_us / dt)) for s in sequences]
    trunk = sequences[int(np.argmax(ends))]
    branch = [_branch_step(s, trunk, dt, n) for s, n in zip(sequences, ends)]
    steps = sorted({b for b in branch if b > 0})
    trunk_trace, snapshots = run_dynamics(trunk, m, grid, classes,
                                          snapshot_steps=steps,
                                          _check_probe=False)
    start = dict(zip(steps, snapshots))
    guard = base.peak_guard_us
    jobs = [(s, m, grid, classes, start.get(b), trunk_trace, guard)
            for s, b in zip(sequences, branch)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_point, jobs))
    else:
        results = [_run_point(job) for job in jobs]
    return SweepResult(
        values=np.asarray(values, dtype=float),
        intensities=np.array([r[2] for r in results]),
        peak_times=np.array([r[1] for r in results]),
        traces=[r[0] for r in results] if keep_traces else None,
        simulated_steps=max(ends) + sum(n - b for n, b in zip(ends, branch)),
        independent_steps=sum(ends))


def sweep_delay(t_values: Sequence[float], base: ProtocolParams,
                m: MediumParams, grid: Grid, classes: Sequence[SpectralClass],
                *, keep_traces: bool = False, threads: int = 1) -> SweepResult:
    """Memory-protocol storage sweep: released peak intensity versus delay T.

    The points branch off one trunk run, the longest delay (see _sweep);
    threads > 1 runs the branches in a thread pool.
    """
    t_values = list(t_values)
    if not t_values:
        raise ValueError("t_values must be non-empty")
    if any(t < 0.0 for t in t_values):
        raise ValueError("delays must be >= 0")
    return _sweep("memory", "storage_t_us", t_values, base, m, grid, classes,
                  keep_traces, threads)


def sweep_duration(a_durations: Sequence[float], base: ProtocolParams,
                   m: MediumParams, grid: Grid,
                   classes: Sequence[SpectralClass], *,
                   keep_traces: bool = False, threads: int = 1) -> SweepResult:
    """Stationary-protocol sweep: released peak versus backward-pulse duration.

    The points branch off one trunk run, the longest hold (see _sweep);
    threads > 1 runs the branches in a thread pool.
    """
    a_durations = list(a_durations)
    if not a_durations:
        raise ValueError("a_durations must be non-empty")
    if any(d <= 0.0 for d in a_durations):
        raise ValueError("durations must be > 0")
    # rejects negative or all-zero couplings
    balance_residual(base.omega_c, m.g_c, base.omega_a, m.g_a)
    return _sweep("stationary", "a_duration_us", a_durations, base, m, grid,
                  classes, keep_traces, threads)
