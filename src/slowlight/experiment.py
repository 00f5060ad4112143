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

from .dynamics import (DetectorTrace, Grid, NumericalAbort, SimState,
                       _check_probe_resolution, _differ, _grid_start, _halve,
                       _Propagator, _record_every, _step_index, _step_reads,
                       balance_residual, run_dynamics)
from .medium import MediumParams, SpectralClass

CHANNELS = ("P", "C", "A")
SHAPES = ("rect", "raised_cosine", "gaussian")

_FOUR_LN2 = 4.0 * math.log(2.0)
_BRANCH_CHUNK = 1024  # steps per comparison in _branch_steps and _held_start


@dataclass(frozen=True)
class PulseEvent:
    """One timed envelope event on a channel.

    peak is a Rabi frequency in rad/us for C/A and a probe amplitude for
    P.  shape_param is the ramp length for raised_cosine and the FWHM for
    gaussian; it is ignored for rect.  An open_end event does not close:
    it holds past t_end with no closing ramp, so a coupling that runs to
    the end of a run drives its last step throughout.
    """

    channel: str
    t_start: float
    duration: float
    peak: float
    shape: str = "rect"
    shape_param: float = 0.0
    open_end: bool = False

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not (self.duration > 0.0):
            raise ValueError(f"duration must be > 0, got {self.duration}")
        closing = 0.0 if self.open_end else self.shape_param
        if self.shape == "raised_cosine" and self.shape_param + closing > self.duration:
            raise ValueError("the ramps must fit in the duration")
        if self.shape == "gaussian" and not (self.shape_param > 0.0):
            raise ValueError("gaussian shape needs a positive fwhm")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    def envelope(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the envelope on a time grid (zero outside the event)."""
        t = np.asarray(t, dtype=float)
        inside = t >= self.t_start
        if not self.open_end:
            inside &= t < self.t_end
        if self.shape == "rect":
            return np.where(inside, self.peak, 0.0)
        if self.shape == "raised_cosine":
            ramp = self.shape_param
            if ramp == 0.0:
                return np.where(inside, self.peak, 0.0)
            rel = t - self.t_start
            up = np.clip(rel / ramp, 0.0, 1.0)
            down = 1.0 if self.open_end else np.clip(
                (self.duration - rel) / ramp, 0.0, 1.0)
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
    # the time from which released light is looked for: the coupling's
    # return (memory), the backward coupling's end (stationary) or the
    # probe start (slow light, where nothing is held)
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
        return omega_c, omega_a


@dataclass
class ProtocolParams:
    """Everything needed to build one of the standard sequences; the
    protocol itself is the `kind` argument of standard_sequence.  The
    config keys share these defaults, omega_c = 1 rad/us among them."""

    probe_duration_us: float = 10.0     # FWHM of the gaussian probe
    probe_amplitude: float = 1.0
    omega_c: float = 1.0
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
    def probe_end_us(self) -> float:
        """End of the probe event, which starts at t = 0 and spans 3 FWHM."""
        return 3.0 * self.probe_duration_us


def standard_sequence(kind: str, p: ProtocolParams) -> PulseSequence:
    """Build the pulse sequence for one of the standard protocols."""
    if kind not in ("slow_light", "memory", "stationary"):
        raise ValueError(f"unknown protocol kind {kind!r}")
    if p.storage_t_us < 0.0 or p.a_duration_us < 0.0 or p.p_a_delay_us < 0.0:
        raise ValueError("delays and durations must be >= 0")

    # opens: the start of the release_window_us recording window
    if kind == "slow_light":
        release, opens = 0.0, p.probe_end_us
    elif kind == "memory":
        c_off = p.c_off_us if p.c_off_us is not None else p.probe_end_us
        if c_off <= p.c_ramp_us:
            raise ValueError("c_off_us must leave room for the switching ramp")
        release = opens = c_off + p.storage_t_us
    else:
        a_on = p.p_a_delay_us
        release = opens = a_on + p.a_duration_us
    t_end = p.t_end_us if p.t_end_us is not None else opens + p.release_window_us

    events = [PulseEvent("P", 0.0, p.probe_end_us, p.probe_amplitude,
                         "gaussian", p.probe_duration_us)]
    if kind == "memory":
        events.append(PulseEvent("C", 0.0, c_off, p.omega_c,
                                 "raised_cosine", p.c_ramp_us))
        events.append(PulseEvent("C", release, t_end - release,
                                 p.omega_c * p.retrieval_scale,
                                 "raised_cosine", p.c_ramp_us, open_end=True))
    else:
        events.append(PulseEvent("C", 0.0, t_end, p.omega_c, open_end=True))
    if kind == "stationary" and p.a_duration_us > 0.0:
        if a_on < p.probe_end_us:
            warnings.warn("backward coupling turns on before the probe "
                          "finishes injecting", stacklevel=2)
        events.append(PulseEvent("A", a_on, p.a_duration_us, p.omega_a))
    return PulseSequence(events=events, t_end_us=t_end,
                         sample_rate=p.sample_rate,
                         probe_duration_us=p.probe_duration_us,
                         writing_omega_c=p.omega_c,
                         release_time_us=release)


def released_peak(trace: DetectorTrace, t_min: float) -> tuple[float, float]:
    """Largest forward-intensity sample at or after t_min: (t_peak, peak)."""
    return _peak_after(trace.t, trace.fwd_intensity, t_min)


def _peak_after(t: np.ndarray, intensity: np.ndarray,
                t_min: float) -> tuple[float, float]:
    """The first largest of the intensity records at or after t_min."""
    mask = t >= t_min
    if not mask.any():
        raise ValueError(f"no samples at or after t = {t_min}")
    idx = int(np.argmax(intensity[mask]))
    return float(t[mask][idx]), float(intensity[mask][idx])


@dataclass
class SweepResult:
    """Peak released intensity versus a swept protocol parameter.

    simulated_steps counts the steps the sweep integrated: the trunk's, the
    points' forward steps and the adjoint pass's; independent_steps counts
    those that running every point from t = 0 would take.
    peak_at_window_end lists the values whose released peak is their last
    record: their window cut the pulse off.
    """

    values: np.ndarray
    intensities: np.ndarray
    peak_times: np.ndarray
    simulated_steps: int = 0
    independent_steps: int = 0
    peak_at_window_end: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.values) != len(self.intensities):
            raise ValueError("values and intensities must have equal length")
        if np.any(np.asarray(self.intensities) < 0.0):
            raise ValueError("intensities must be >= 0")


def _branch_steps(sequences: Sequence[PulseSequence], trunk: PulseSequence,
                  dt: float, ends: Sequence[int]) -> list[int]:
    """Global steps from which each sequence can resume a snapshot of `trunk`.

    Sequence i runs ends[i] steps and branches at the first step whose
    reads (see _step_reads) differ from the trunk's: the trunk's state after
    the steps before it is this sequence's state too.  A sequence that
    agrees with the trunk throughout, the trunk itself among them, branches
    at its own end.  The search walks _BRANCH_CHUNK steps at a time, reads
    the trunk once per chunk for every sequence still searching, and stops
    when none is, so it holds little memory."""
    branch = list(ends)
    searching = [i for i, s in enumerate(sequences) if s is not trunk]
    for n in range(0, max(ends, default=0), _BRANCH_CHUNK):
        # those that have neither differed nor ended
        searching = [i for i in searching if ends[i] > n and branch[i] == ends[i]]
        if not searching:
            break
        theirs = _step_reads(trunk, dt, n, min(n + _BRANCH_CHUNK, max(ends)))
        for i in searching:
            ours = _step_reads(sequences[i], dt, n, min(n + _BRANCH_CHUNK, ends[i]))
            if (differ := _differ(ours, theirs)).any():
                branch[i] = n + int(np.argmax(differ))
    return branch


def _held_start(sequence: PulseSequence, dt: float, n_steps: int,
                held: tuple[np.ndarray, np.ndarray]) -> int:
    """The first global step s after which each of a run's n_steps steps
    reads the drive rows `held` (C and A of one step, see _step_reads) and
    injects no probe; n_steps when its last step does not.  The search runs
    back from the end _BRANCH_CHUNK steps at a time, so it samples little
    more than the held stretch itself."""
    for n1 in range(n_steps, 0, -_BRANCH_CHUNK):
        n0 = max(0, n1 - _BRANCH_CHUNK)
        moved = _differ(_step_reads(sequence, dt, n0, n1), (*held, np.zeros(1)))
        if moved.any():
            return n0 + int(np.flatnonzero(moved)[-1]) + 1
    return 0


def _held_records(starts: Sequence[SimState], lengths: Sequence[int],
                  held: tuple[np.ndarray, np.ndarray], m: MediumParams,
                  every: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Records (t, |E+(1)|^2) of held stretches, from one adjoint pass.

    State b sits at global step s_b and goes on for lengths[b] steps, each
    with the drive rows `held` (C and A of one step, see _step_reads) and
    nothing injected, so each step applies the one map R.  Its E+(1) after
    j of them is e . R^j x_b, with e picking E+ in the last cell.  With
    g_j = (R^T)^j e, R^T the transpose of the step's float map (see
    _Propagator.transpose), sum g_j conj(x_b) is the complex conjugate of
    that E+(1) on the full system, and its real part, the dot product of
    the float views, is E+(1) on the half system, where E+ is real; the
    pass runs on the half system when every state halves (see _halve).  So
    one backward recursion serves every state: at each j, the states whose
    step s_b + j is a record step of run_dynamics (a multiple of `every`)
    read |E+(1)|^2 from g_j, all in one product.  Only the current g_j is
    held.  A non-finite record raises NumericalAbort, as the forward run
    would.
    """
    halves = [_halve(x, *held) for x in starts]
    if all(x is not None for x in halves):
        starts = halves
    x = starts[0]
    # xi's fields and atoms are views of one vector, whose dtype the fields
    # have: float on the half system, where the atoms' Re and Im pairs
    # follow; each start's row is the same vector of it, conjugated
    flat = np.zeros(x.f.size + x.a.size * 16 // x.f.itemsize, dtype=x.f.dtype)
    xi = SimState(x.t, flat[:x.f.size].reshape(x.f.shape),
                  flat[x.f.size:].view(complex).reshape(x.a.shape), x.grid,
                  x.deltas, x.weights)
    xi.e_plus[-1] = 1.0
    prop = _Propagator(m, xi)
    prop.load(prop.build(*held), 0)
    at = [_step_index(x.t, prop.dt) for x in starts]
    # the states due at one j share at[b] % every; each such group is held
    # longest stretch first, so those still in their stretch lead it
    groups: dict[int, list[int]] = {}
    for b in sorted(range(len(starts)), key=lambda b: -lengths[b]):
        groups.setdefault(at[b] % every, []).append(b)
    rows = {r: np.stack([np.concatenate([starts[b].f.ravel(),
                                         starts[b].a.ravel().view(flat.dtype)])
                         for b in group]).conj()
            for r, group in groups.items()}
    steps: list[list[int]] = [[] for _ in starts]
    values: list[list[complex]] = [[] for _ in starts]
    for j in range(1, max(lengths, default=0) + 1):
        prop.transpose(xi)
        group = groups.get(-j % every, ())
        if due := sum(lengths[b] >= j for b in group):
            # einsum sums in its own loop: a BLAS dot would split the sum
            # by thread count and change the last digits with it
            read = np.einsum("bi,i->b", rows[-j % every][:due], flat)
            for b, v in zip(group, read):
                steps[b].append(at[b] + j)
                values[b].append(v)
    records = [(np.array(n, dtype=float) * prop.dt, np.abs(np.array(v)) ** 2)
               for n, v in zip(steps, values)]
    for x, (t, intensity) in zip(starts, records):
        bad = t[~np.isfinite(intensity)]
        if len(bad):
            raise NumericalAbort(f"non-finite E+(1) at t={bad[0]:.6g} us, in "
                                 f"the held stretch from t={x.t:.6g} us")
    return records


def _sweep(kind: str, field: str, values: list[float], base: ProtocolParams,
           m: MediumParams, grid: Grid, classes: Sequence[SpectralClass],
           threads: int) -> SweepResult:
    """Run protocol `kind` at each value of `field`, sharing the prefix.

    The longest point is the trunk: it runs once from t = 0 and leaves a
    snapshot for each point at the last step of the block grid at or
    before the point's branch step (see _branch_steps and
    dynamics._grid_start), from which the point runs on: every run starts
    a block there, so the trunk's state is the point's own.  A point whose
    held stretch (see _held_start) reads the drive rows of the trunk's
    last step stops where that stretch starts, and one adjoint pass of the
    shared held map gives the records of all such stretches (see
    _held_records); a point with no held stretch runs to its end.  Peaks
    agree with independent runs of each point to rounding.  Each
    point ends release_window_us after its release, so a base that sets
    t_end_us is a ValueError.  threads > 1 runs the points' forward steps in
    a thread pool.  Each distinct warning raised while building the points'
    sequences or checking the probe resolution is raised once, blamed on the
    caller of the public sweep.
    """
    if base.t_end_us is not None:
        raise ValueError("a sweep ends each point by release_window_us; "
                         "t_end_us must not be set")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sequences = [standard_sequence(kind, replace(base, **{field: float(v)}))
                     for v in values]
        _check_probe_resolution(sequences[0], m, grid)
    for message, category in dict((str(w.message), w.category)
                                  for w in caught).items():
        warnings.warn(f"{message} (all {len(values)} points of the {field} "
                      f"sweep)", category, stacklevel=3)
    dt = grid.dz / m.c
    ends = [int(round(s.t_end_us / dt)) for s in sequences]
    trunk = int(np.argmax(ends))
    branch = _branch_steps(sequences, sequences[trunk], dt, ends)
    # the drive rows of the trunk's last step, which it holds
    held = _step_reads(sequences[trunk], dt, ends[trunk] - 1, ends[trunk])[:2]
    stops = [_held_start(s, dt, n, held) for s, n in zip(sequences, ends)]
    every = _record_every(sequences[trunk], dt)
    # a point that stops before its branch step is still on the trunk there
    starts = [int(_grid_start(min(b, n), every)) for b, n in zip(branch, stops)]
    steps = sorted({s for s in starts if s > 0})
    trunk_trace, snapshots = run_dynamics(sequences[trunk], m, grid, classes,
                                          snapshot_steps=steps,
                                          until_step=max(starts),
                                          _check_probe=False)
    snapshot = dict(zip(steps, snapshots))

    def run_point(sequence, start, stop):
        """Integrate one point from its snapshot to `stop`: its records
        (t, |E+(1)|^2), the trunk's before the snapshot first, and its last
        state."""
        state = snapshot.get(start)
        tail, states = run_dynamics(sequence, m, grid, classes,
                                    initial_state=state, until_step=stop,
                                    _check_probe=False)
        cut = 0 if state is None else int(np.searchsorted(trunk_trace.t, state.t))
        return ((np.concatenate([trunk_trace.t[:cut], tail.t]),
                 np.concatenate([trunk_trace.fwd_intensity[:cut],
                                 tail.fwd_intensity])), states[-1])

    # the pool no longer pays; it stays while perfbench passes threads=1
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(run_point, sequences, starts, stops))
    else:
        points = list(map(run_point, sequences, starts, stops))
    records = [record for record, _ in points]
    held_points = [i for i, (s, n) in enumerate(zip(stops, ends)) if s < n]
    if held_points:
        extra = _held_records([points[i][1] for i in held_points],
                              [ends[i] - stops[i] for i in held_points],
                              held, m, every)
        for i, (t, intensity) in zip(held_points, extra):
            records[i] = (np.concatenate([records[i][0], t]),
                          np.concatenate([records[i][1], intensity]))
    peaks = [_peak_after(t, intensity, seq.release_time_us + base.peak_guard_us)
             for (t, intensity), seq in zip(records, sequences)]
    return SweepResult(
        values=np.asarray(values, dtype=float),
        intensities=np.array([peak for _, peak in peaks]),
        peak_times=np.array([t_peak for t_peak, _ in peaks]),
        simulated_steps=(max(starts) + sum(s - b for s, b in zip(stops, starts))
                         + max((n - s for n, s in zip(ends, stops)), default=0)),
        independent_steps=sum(ends),
        peak_at_window_end=tuple(float(v) for v, (t_peak, _), (t, _)
                                 in zip(values, peaks, records)
                                 if t_peak == t[-1]))


def sweep_delay(t_values: Sequence[float], base: ProtocolParams,
                m: MediumParams, grid: Grid, classes: Sequence[SpectralClass],
                *, threads: int = 1) -> SweepResult:
    """Memory-protocol storage sweep: released peak intensity versus delay T.

    The points branch off one trunk run, the longest delay (see _sweep);
    threads > 1 runs the points' forward steps in a thread pool.
    """
    t_values = list(t_values)
    if not t_values:
        raise ValueError("t_values must be non-empty")
    if any(t < 0.0 for t in t_values):
        raise ValueError("delays must be >= 0")
    return _sweep("memory", "storage_t_us", t_values, base, m, grid, classes,
                  threads)


def sweep_duration(a_durations: Sequence[float], base: ProtocolParams,
                   m: MediumParams, grid: Grid,
                   classes: Sequence[SpectralClass], *,
                   threads: int = 1) -> SweepResult:
    """Stationary-protocol sweep: released peak versus backward-pulse duration.

    The points branch off one trunk run, the longest hold (see _sweep);
    threads > 1 runs the points' forward steps in a thread pool.
    """
    a_durations = list(a_durations)
    if not a_durations:
        raise ValueError("a_durations must be non-empty")
    if any(d <= 0.0 for d in a_durations):
        raise ValueError("durations must be > 0")
    # rejects negative or all-zero couplings
    balance_residual(base.omega_c, base.omega_a)
    return _sweep("stationary", "a_duration_us", a_durations, base, m, grid,
                  classes, threads)
