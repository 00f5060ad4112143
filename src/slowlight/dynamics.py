"""Coupled field-atom dynamics in one spatial dimension.

Integrates the forward/backward slowly varying field envelopes together
with per-cell, per-spectral-class atomic amplitudes (two optical
coherences and one spin coherence).  The scheme locks the time step to the
grid, c*dt = dz, advects both fields by exactly one cell per step (no
numerical dispersion) and advances the local field-atom system in each
cell with a classical 4th-order Runge-Kutta update.

Amplitude normalization: the single coupling constant used in both the
polarization drive and the field source is sqrt(g2n), the square root of
the collective coupling strength.  With this choice the resonant intensity
attenuation is exp(-optical_depth), the group velocity is
c/(1 + g2n/omega_c^2) and the excitation functional below is conserved in
the lossless limit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .medium import MediumParams, SpectralClass, class_arrays, group_velocity

_FINITE_CHECK_EVERY = 64  # steps between NaN/Inf sweeps of the state


class CFLViolation(ValueError):
    """Raised when a step does not satisfy c*dt == dz."""


class NumericalAbort(RuntimeError):
    """Raised when the state stops being finite; carries time and cell."""


@dataclass(frozen=True)
class Grid:
    """Uniform z grid of `cells` cells covering [0, length]."""

    cells: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if not (self.length > 0.0):
            raise ValueError(f"length must be > 0, got {self.length}")

    @property
    def dz(self) -> float:
        return self.length / self.cells

    @property
    def z(self) -> np.ndarray:
        """Cell-center coordinates."""
        return (np.arange(self.cells) + 0.5) * self.dz


@dataclass
class ControlDrive:
    """Spatially uniform control drives.

    omega_c / omega_a map a time in us to a complex Rabi frequency in
    rad/us.  detuning_c / detuning_a are the optical detunings of the two
    Raman channels (zero for resonant pairs).
    """

    omega_c: Callable[[float], complex]
    omega_a: Callable[[float], complex]
    detuning_c: float = 0.0
    detuning_a: float = 0.0

    @classmethod
    def constant(cls, omega_c: complex, omega_a: complex = 0.0,
                 detuning_c: float = 0.0, detuning_a: float = 0.0) -> "ControlDrive":
        return cls(lambda t: omega_c, lambda t: omega_a, detuning_c, detuning_a)

    def sample(self, t: float) -> tuple[complex, complex]:
        return complex(self.omega_c(t)), complex(self.omega_a(t))


@dataclass
class SimState:
    """Fields on the z grid plus atomic amplitudes per cell and class.

    The state is held in the integrator's packed layout, which step() and
    run_dynamics advance in place: fields f = (2, M) rows [E+, E-] and
    atoms a = (3, K, M) blocks [P+, P-, S], class-major so the field drive
    broadcasts along the contiguous cell axis.  e_plus, e_minus (M,) and
    p_plus, p_minus, s (M, K) are writable views into these arrays, so a
    write such as ``state.s[:, j] = ...`` changes the packed state.
    """

    t: float
    f: np.ndarray        # (2, M) complex
    a: np.ndarray        # (3, K, M) complex
    grid: Grid
    deltas: np.ndarray   # (K,) spin detunings
    weights: np.ndarray  # (K,) quadrature weights
    delta_opt: np.ndarray  # (K,) optical detuning offsets

    @classmethod
    def zeros(cls, grid: Grid, classes: Sequence[SpectralClass]) -> "SimState":
        deltas, weights, delta_opt = class_arrays(classes)
        m, k = grid.cells, len(deltas)
        return cls(t=0.0, f=np.zeros((2, m), dtype=complex),
                   a=np.zeros((3, k, m), dtype=complex), grid=grid,
                   deltas=deltas, weights=weights, delta_opt=delta_opt)

    def copy(self) -> "SimState":
        return SimState(self.t, self.f.copy(), self.a.copy(), self.grid,
                        self.deltas, self.weights, self.delta_opt)

    @property
    def e_plus(self) -> np.ndarray:
        return self.f[0]

    @property
    def e_minus(self) -> np.ndarray:
        return self.f[1]

    @property
    def p_plus(self) -> np.ndarray:
        return self.a[0].T

    @property
    def p_minus(self) -> np.ndarray:
        return self.a[1].T

    @property
    def s(self) -> np.ndarray:
        return self.a[2].T

    @property
    def weak_probe_ok(self) -> bool:
        """True while the linearized (weak-probe) model is self-consistent."""
        return bool(np.abs(self.a).max(initial=0.0) <= 1.0)

    def spin_norm(self) -> float:
        """sum_z dz sum_j w_j |S|^2, the stored spin-coherence norm."""
        return float((self.weights @ (np.abs(self.a[2]) ** 2)).sum()
                     * self.grid.dz)

    def check_finite(self) -> None:
        """Raise NumericalAbort naming the first non-finite value's cell."""
        for name, arr in (("fields", self.f), ("atoms", self.a)):
            finite = np.isfinite(arr)
            if not finite.all():
                cell = int(np.argwhere(~finite)[0][-1])
                raise NumericalAbort(f"non-finite value in {name} at "
                                     f"t={self.t:.6g} us, cell {cell}")


@dataclass
class DetectorTrace:
    """Time series at the medium exits plus the spin-coherence norm."""

    t: np.ndarray
    fwd_intensity: np.ndarray   # |E+(L, t)|^2
    bwd_intensity: np.ndarray   # |E-(0, t)|^2
    spin_norm: np.ndarray       # sum_z dz sum_j w_j |S|^2
    annotations: tuple = ()     # the sequence's pulse events
    readouts: tuple = ()        # (t, diffracted_signal) pairs


def model_rhs(state: SimState, drive: ControlDrive, m: MediumParams,
              j: int, cell: int = 0) -> tuple[complex, complex, complex]:
    """Time derivatives of (P+, P-, S) for class j at one cell.

    dP+/dt = -(gamma_opt/2 + i D+) P+ + (i/2)(g E+ + Omega_C S)
    dP-/dt = -(gamma_opt/2 + i D-) P- + (i/2)(g E- + Omega_A S)
    dS/dt  = -(gamma_spin/2 + i delta_j) S + (i/2)(Omega_C* P+ + Omega_A* P-)

    with g = sqrt(g2n).  Reference implementation used by tests; the run
    loop evaluates the same expressions vectorized over cells and classes.
    """
    omega_c, omega_a = drive.sample(state.t)
    g = math.sqrt(m.g2n)
    dj = state.deltas[j]
    dopt = state.delta_opt[j]
    pp = state.p_plus[cell, j]
    pm = state.p_minus[cell, j]
    s = state.s[cell, j]
    ep = state.e_plus[cell]
    em = state.e_minus[cell]
    d_pp = -(0.5 * m.gamma_opt + 1j * (drive.detuning_c + dopt)) * pp \
        + 0.5j * (g * ep + omega_c * s)
    d_pm = -(0.5 * m.gamma_opt + 1j * (drive.detuning_a + dopt)) * pm \
        + 0.5j * (g * em + omega_a * s)
    d_s = -(0.5 * m.gamma_spin + 1j * dj) * s \
        + 0.5j * (omega_c.conjugate() * pp + omega_a.conjugate() * pm)
    return d_pp, d_pm, d_s


class _Propagator:
    """Coefficients and preallocated buffers that advance a SimState in place.

    All Runge-Kutta arithmetic runs in place on buffers allocated once, and
    the Rabi couplings between the three atomic blocks apply as a single
    3x3 matrix product over the packed (3, K, M) atoms, which keeps the
    per-step cost close to the memory-bandwidth floor.
    """

    def __init__(self, m: MediumParams, state: SimState,
                 detuning_c: float = 0.0, detuning_a: float = 0.0):
        self.half_g = 0.5j * math.sqrt(m.g2n)
        self.dt = state.grid.dz / m.c
        k, cells = state.a.shape[1:]
        self.w = state.weights.astype(complex)
        self.dec = np.empty((3, k, 1), dtype=complex)
        self.dec[0, :, 0] = -(0.5 * m.gamma_opt + 1j * (detuning_c + state.delta_opt))
        self.dec[1, :, 0] = -(0.5 * m.gamma_opt + 1j * (detuning_a + state.delta_opt))
        self.dec[2, :, 0] = -(0.5 * m.gamma_spin + 1j * state.deltas)
        # RK4 work areas
        shape_f, shape_a = (2, cells), (3, k, cells)
        self._kf = [np.empty(shape_f, complex) for _ in range(4)]
        self._ka = [np.empty(shape_a, complex) for _ in range(4)]
        self._yf = np.empty(shape_f, complex)
        self._ya = np.empty(shape_a, complex)
        self._cross = np.empty(shape_a, complex)
        self._tmp_e = np.empty(cells, dtype=complex)

    def _rhs(self, f, a, oc, oa, kf, ka) -> None:
        """kf, ka <- time derivatives of (fields, atoms) at drive (oc, oa)."""
        np.matmul(self.w, a[0], out=kf[0])
        np.matmul(self.w, a[1], out=kf[1])
        kf *= self.half_g
        # decay and detuning, then the three Rabi cross couplings in one
        # 3x3 product over the flattened class/cell axis
        np.multiply(a, self.dec, out=ka)
        nk = a.shape[1] * a.shape[2]
        cross = np.array([[0.0, 0.0, 0.5j * oc],
                          [0.0, 0.0, 0.5j * oa],
                          [0.5j * np.conj(oc), 0.5j * np.conj(oa), 0.0]],
                         dtype=complex)
        flat = self._cross.reshape(3, nk)
        np.matmul(cross, a.reshape(3, nk), out=flat)
        ka += self._cross
        # field drive of the optical coherences
        np.multiply(f[0], self.half_g, out=self._tmp_e)
        ka[0] += self._tmp_e
        np.multiply(f[1], self.half_g, out=self._tmp_e)
        ka[1] += self._tmp_e

    def _stage(self, f, a, coeff, kf, ka) -> None:
        """(_yf, _ya) <- (f, a) + coeff * k, in place."""
        np.multiply(kf, coeff, out=self._yf)
        self._yf += f
        np.multiply(ka, coeff, out=self._ya)
        self._ya += a

    def advance(self, state: SimState, n: int, inject_plus: complex,
                inject_minus: complex, omega_c, omega_a) -> None:
        """Advance the state in place by one step, to t = n dt.

        E+ shifts one cell toward +z and takes inject_plus at z = 0, E- one
        cell toward -z and takes inject_minus at z = L.  Then every cell
        runs classical RK4 on its field-atom system over one dt, the fields
        acting as local variables coupled to their cell's atoms, with the
        drives omega_c / omega_a given at the step start, midpoint and end.
        """
        dt = self.dt
        f, a = state.f, state.a
        f[0, 1:] = f[0, :-1]
        f[0, 0] = inject_plus
        f[1, :-1] = f[1, 1:]
        f[1, -1] = inject_minus
        oc0, oc1, oc2 = omega_c
        oa0, oa1, oa2 = omega_a
        kf, ka = self._kf, self._ka
        self._rhs(f, a, oc0, oa0, kf[0], ka[0])
        self._stage(f, a, 0.5 * dt, kf[0], ka[0])
        self._rhs(self._yf, self._ya, oc1, oa1, kf[1], ka[1])
        self._stage(f, a, 0.5 * dt, kf[1], ka[1])
        self._rhs(self._yf, self._ya, oc1, oa1, kf[2], ka[2])
        self._stage(f, a, dt, kf[2], ka[2])
        self._rhs(self._yf, self._ya, oc2, oa2, kf[3], ka[3])
        # y += dt/6 * (k1 + 2 (k2 + k3) + k4)
        for y, k in ((f, kf), (a, ka)):
            acc = k[1]
            acc += k[2]
            acc *= 2.0
            acc += k[0]
            acc += k[3]
            acc *= dt / 6.0
            y += acc
        state.t = n * dt


def step(state: SimState, drive: ControlDrive, m: MediumParams, dt: float, *,
         inject_plus: complex = 0.0j, inject_minus: complex = 0.0j,
         boundary: str = "open") -> SimState:
    """Advance the state by one step of exactly dt = dz/c.

    The fields advect by one cell (exact upwind transport), then every
    cell runs a 4th-order local update of its atomic amplitudes together
    with the source deposition into the local fields.  The state must sit
    on the global step grid t = n dt; it is sampled and advanced exactly
    as step n + 1 of run_dynamics and leaves at t = (n + 1) dt.  With
    boundary "periodic" each field's exit value re-enters at its entry
    cell and the injections are ignored; "open" injects them.  Mutates
    and returns `state`.  Raises CFLViolation unless c*dt == dz to within
    1e-9 relative, ValueError for another boundary or an off-grid t, and
    NumericalAbort if the state stops being finite.
    """
    _require_cfl(m, state.grid, dt)
    if boundary == "periodic":
        inject_plus, inject_minus = state.f[0, -1], state.f[1, 0]
    elif boundary != "open":
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    prop = _Propagator(m, state, drive.detuning_c, drive.detuning_a)
    n = _step_index(state.t, prop.dt)
    omega_c, omega_a = zip(*map(drive.sample, _half_step_times(prop.dt, n, n + 1)))
    prop.advance(state, n + 1, inject_plus, inject_minus, omega_c, omega_a)
    state.check_finite()
    return state


def _require_cfl(m: MediumParams, grid: Grid, dt: float) -> None:
    dz = grid.dz
    if dt <= 0.0:
        raise CFLViolation(f"dt must be > 0, got {dt}")
    if m.c * dt > dz * (1.0 + 1e-9):
        raise CFLViolation(f"CFL violated: c*dt = {m.c * dt:.6g} > dz = {dz:.6g}")
    if abs(m.c * dt - dz) > 1e-9 * dz:
        raise CFLViolation(
            f"exact one-cell advection requires c*dt == dz; got c*dt = "
            f"{m.c * dt:.6g}, dz = {dz:.6g}")


def run_dynamics(sequence, m: MediumParams, grid: Grid,
                 classes: Sequence[SpectralClass], *,
                 initial_state: SimState | None = None,
                 snapshot_steps: Sequence[int] = (),
                 _check_probe: bool = True,
                 ) -> tuple[DetectorTrace, list[SimState]]:
    """Run a pulse sequence and record the exit intensities.

    `sequence` provides events, t_end_us, sample_rate, probe_duration_us,
    writing_omega_c, probe_samples(t), drive_samples(t) and
    readout_events() (see experiment.PulseSequence).  Returns the detector
    trace |E+(L,t)|^2, |E-(0,t)|^2 and the spin-coherence norm, plus state
    snapshots: one after each global step index in snapshot_steps that the
    run completes, and always the final state.  Readout events deplete
    the spin coherence through switching_readout.  E+ is injected at z=0
    from the probe channel; nothing is injected into E-.

    Steps lie on the global grid t = n dt (dt = dz/c), and the state's t
    is set to n dt after step n.  A run resumed from `initial_state`,
    which must sit on that grid, on `grid` and on `classes` (the same
    detunings, weights and optical offsets), samples its drives at the
    same half steps, records and snapshots on the same step indices and
    treats readouts at or before initial_state.t as done, so resuming
    from a snapshot reproduces the uninterrupted run bit for bit; a state
    already at t_end_us runs no step.  _check_probe=False leaves the
    probe-resolution warning to a sweep that raises it once for all its
    points.
    """
    dt = grid.dz / m.c
    if initial_state is None:
        state = SimState.zeros(grid, classes)
    else:
        _check_initial_state(initial_state, grid, classes)
        state = initial_state.copy()
    n0 = _step_index(state.t, dt)
    n_total = int(round(float(sequence.t_end_us) / dt))
    n_steps = n_total - n0
    if n_total < 1 or n_steps < 0:
        raise ValueError(f"t_end_us {sequence.t_end_us} is shorter than one "
                         f"step {dt} or ends before t = {state.t}")

    # Half-grid drive samples cover every RK4 stage time.
    t_half = _half_step_times(dt, n0, n_total)
    omega_c, omega_a, detuning_c, detuning_a = sequence.drive_samples(t_half)
    inject = sequence.probe_samples(t_half[0::2][:n_steps])
    if _check_probe:
        _check_probe_resolution(sequence, m, grid)

    every = max(1, int(round(1.0 / (sequence.sample_rate * dt))))
    # records fall on the multiples of `every` in [n0, n_total]
    n_rec = n_total // every - (n0 - 1) // every
    rec_t = np.empty(n_rec)
    rec_fwd = np.empty(n_rec)
    rec_bwd = np.empty(n_rec)
    rec_spin = np.empty(n_rec)
    readouts = []
    pending_reads = sorted((e for e in sequence.readout_events()
                            if e[0] > state.t), key=lambda e: e[0])
    snap_steps = {n for n in snapshot_steps if n0 < n <= n_total}
    snapshots: list[SimState] = []

    prop = _Propagator(m, state, detuning_c, detuning_a)
    i_rec = 0

    def record() -> None:
        nonlocal i_rec
        rec_t[i_rec] = state.t
        rec_fwd[i_rec] = abs(state.f[0, -1]) ** 2
        rec_bwd[i_rec] = abs(state.f[1, 0]) ** 2
        rec_spin[i_rec] = state.spin_norm()
        i_rec += 1

    if n0 % every == 0:
        record()
    for i in range(n_steps):
        n = n0 + i + 1  # global index of the step being completed
        # the step's three drive samples, as Python scalars (cheaper to unpack)
        k = slice(2 * i, 2 * i + 3)
        prop.advance(state, n, inject[i], 0.0j,
                     omega_c[k].tolist(), omega_a[k].tolist())
        while pending_reads and state.t >= pending_reads[0][0]:
            _, omega_y, dt_read = pending_reads.pop(0)
            readouts.append((state.t, switching_readout(state, omega_y, dt_read)))
        if n % every == 0:
            record()
        if n % _FINITE_CHECK_EVERY == 0:
            state.check_finite()
        if n in snap_steps:
            snapshots.append(state.copy())
    state.check_finite()
    snapshots.append(state)

    trace = DetectorTrace(
        t=rec_t[:i_rec], fwd_intensity=rec_fwd[:i_rec],
        bwd_intensity=rec_bwd[:i_rec], spin_norm=rec_spin[:i_rec],
        annotations=tuple(sequence.events), readouts=tuple(readouts))
    return trace, snapshots


def _half_step_times(dt: float, n0: int, n1: int) -> np.ndarray:
    """Drive sample times 0.5*dt*k, k = 2*n0 .. 2*n1, of global steps n0..n1-1.

    Every RK4 stage of step n reads the samples k = 2n, 2n+1 and 2n+2.
    Each time depends on k alone, so a resumed run and a branch-point
    search read the very values an uninterrupted run reads.
    """
    return 0.5 * dt * np.arange(2 * n0, 2 * n1 + 1)


def _check_initial_state(state: SimState, grid: Grid,
                         classes: Sequence[SpectralClass]) -> None:
    """Reject a starting state that is off the run's grid or classes."""
    k, cells = state.a.shape[1:]
    if state.grid != grid or cells != grid.cells or k != len(classes):
        raise ValueError(
            f"initial_state has {cells} cells on {state.grid} and {k} classes; "
            f"the run has {grid.cells} cells on {grid} and {len(classes)} classes")
    ours = (state.deltas, state.weights, state.delta_opt)
    if not all(map(np.array_equal, ours, class_arrays(classes))):
        raise ValueError("initial_state has other class detunings, weights or "
                         "optical offsets than the run's classes")


def _step_index(t: float, dt: float) -> int:
    """Global step index n of a state at t = n dt.

    Raises ValueError when t is off that grid; a hand-built t may carry
    rounding error, which grows with t.
    """
    n = round(t / dt)
    if n < 0 or abs(t - n * dt) > 1e-9 * max(abs(t), dt):
        raise ValueError(f"state t = {t!r} is not on the step grid n * {dt!r}")
    return n


def _check_probe_resolution(sequence, m: MediumParams, grid: Grid) -> None:
    """Warn, blaming the caller's caller, when the grid underresolves the
    compressed probe pulse."""
    v_g = group_velocity(m, abs(sequence.writing_omega_c))
    cells = sequence.probe_duration_us * v_g / grid.dz
    if 0.0 < cells < 16.0:
        warnings.warn(
            f"probe pulse spans {cells:.1f} cells at the group velocity; "
            "16 or more are recommended", stacklevel=3)


def switching_readout(state: SimState, omega_y: float, dt_read: float) -> float:
    """Scalar diffracted-signal proxy for a photon-switching readout.

    Returns D = f * N_S(t) where N_S is the spin-coherence norm and
    f = omega_y^2 * dt_read is the depletion fraction (clamped to 1 with a
    warning).  The stored coherence is depleted by the same fraction, in
    place, so repeated readouts drain the memory.
    """
    if omega_y < 0.0:
        raise ValueError(f"omega_y must be >= 0, got {omega_y!r}")
    if dt_read < 0.0:
        raise ValueError(f"dt_read must be >= 0, got {dt_read!r}")
    fraction = omega_y * omega_y * dt_read
    if fraction > 1.0:
        warnings.warn(f"readout depletion fraction {fraction:.3g} clamped to 1",
                      stacklevel=2)
        fraction = 1.0
    spin_norm = state.spin_norm()
    if fraction > 0.0:
        state.a[2] *= math.sqrt(1.0 - fraction)
    return fraction * spin_norm


def balance_residual(omega_c: float, g_c: float, omega_a: float, g_a: float) -> float:
    """Normalized imbalance of the two coupling channels in [0, 1].

    |Omega_C/g_C - Omega_A/g_A| / (Omega_C/g_C + Omega_A/g_A); zero exactly
    when the two ratios are equal.
    """
    if g_c <= 0.0 or g_a <= 0.0:
        raise ValueError("coupling constants must be > 0")
    if omega_c < 0.0 or omega_a < 0.0:
        raise ValueError("Rabi frequencies must be >= 0")
    rc = omega_c / g_c
    ra = omega_a / g_a
    if rc + ra == 0.0:
        raise ValueError("at least one Rabi frequency must be nonzero")
    return abs(rc - ra) / (rc + ra)


def effective_velocity(m: MediumParams, omega_c: float, omega_a: float) -> float:
    """Signed drift velocity of the doubly driven polariton.

    c (Omega_C^2 - Omega_A^2) / (Omega_C^2 + Omega_A^2 + g2n), assuming
    equal coupling constants for the two channels.  Zero exactly at
    balance; equals group_velocity when Omega_A = 0.
    """
    if omega_c < 0.0 or omega_a < 0.0:
        raise ValueError("Rabi frequencies must be >= 0")
    den = omega_c ** 2 + omega_a ** 2 + m.g2n
    if den == 0.0:
        raise ValueError("all couplings are zero; velocity undefined")
    return m.c * (omega_c ** 2 - omega_a ** 2) / den


def excitation_number(state: SimState, m: MediumParams) -> float:
    """Total field plus atomic excitation in normalized units.

    sum_z dz [ |E+|^2 + |E-|^2 + sum_j w_j (|P+|^2 + |P-|^2 + |S|^2) ].
    Conserved when all decay rates and detunings vanish and the boundaries
    are closed.
    """
    fields = (np.abs(state.f) ** 2).sum(axis=0)
    atoms = state.weights @ (np.abs(state.a) ** 2).sum(axis=0)
    return float((fields + atoms).sum() * state.grid.dz)


def field_centroid(state: SimState, floor: float = 1e-12) -> float:
    """Energy-weighted mean z of |E+|^2 + |E-|^2.

    Raises ValueError when the total field energy is at or below `floor`
    (the centroid is undefined for an empty grid).
    """
    intensity = np.abs(state.e_plus) ** 2 + np.abs(state.e_minus) ** 2
    total = intensity.sum() * state.grid.dz
    if total <= floor:
        raise ValueError(f"field energy {total:.3g} below floor {floor:.3g}")
    return float((intensity @ state.grid.z) / intensity.sum())
