import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowlight.dynamics import (CFLViolation, ControlDrive, Grid,
                                NumericalAbort, SimState, _Propagator,
                                balance_residual, effective_velocity,
                                excitation_number, field_centroid, model_rhs,
                                run_dynamics, step)
from slowlight.experiment import (ProtocolParams, released_peak,
                                  standard_sequence)
from slowlight.medium import MediumParams, group_velocity, make_spectral_classes

SINGLE = make_spectral_classes(0.0, 1, "single")


def _state(grid_cells=8, classes=SINGLE):
    return SimState.zeros(Grid(cells=grid_cells), classes)


class TestModelRhs:
    def test_free_spin_decay(self):
        m = MediumParams(gamma_spin=0.3, g2n=1.0)
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        state = _state(classes=classes)
        state.s[0, 2] = 1.0
        drive = ControlDrive.constant(0.0, 0.0)
        d_pp, d_pm, d_s = model_rhs(state, drive, m, j=2, cell=0)
        assert d_pp == 0.0 and d_pm == 0.0
        assert d_s == pytest.approx(-(0.15 + 1j * state.deltas[2]), abs=1e-15)

    def test_single_channel_drive(self):
        m = MediumParams(g2n=4.0)
        state = _state()
        state.e_plus[0] = 1.0
        drive = ControlDrive.constant(0.7, 0.4)
        d_pp, d_pm, d_s = model_rhs(state, drive, m, j=0, cell=0)
        assert d_pp == pytest.approx(0.5j * 2.0)  # (i/2) g E+, g = sqrt(g2n)
        assert d_pm == 0.0 and d_s == 0.0

    def test_dark_state_is_stationary(self):
        # with gamma_spin = delta_j = 0 and A off, S = -g E / Omega_C and
        # P = 0 solve rhs = 0: the algebraic dark state
        m = MediumParams(gamma_spin=0.0, g2n=4.0)
        state = _state()
        omega_c = 0.9
        e_val = 0.3 - 0.1j
        state.e_plus[0] = e_val
        state.s[0, 0] = -math.sqrt(m.g2n) * e_val / omega_c
        drive = ControlDrive.constant(omega_c, 0.0)
        d_pp, d_pm, d_s = model_rhs(state, drive, m, j=0, cell=0)
        assert abs(d_pp) <= 1e-15 and abs(d_pm) == 0.0 and abs(d_s) == 0.0

    def test_vectorized_loop_matches_reference(self):
        from slowlight.medium import SpectralClass

        rng = np.random.default_rng(7)
        base = make_spectral_classes(40.0, 5, "lorentzian")
        # exercise the optional per-class optical-detuning offsets too
        classes = [SpectralClass(c.delta_j, c.weight, 0.1 * i - 0.2)
                   for i, c in enumerate(base)]
        m = MediumParams(gamma_opt=0.8, gamma_spin=0.05, g2n=2.5)
        state = _state(grid_cells=4, classes=classes)
        for arr in (state.e_plus, state.e_minus):
            arr[:] = rng.normal(size=arr.shape) + 1j * rng.normal(size=arr.shape)
        for arr in (state.p_plus, state.p_minus, state.s):
            arr[:] = rng.normal(size=arr.shape) + 1j * rng.normal(size=arr.shape)
        kf = np.empty((2, 4), complex)
        ka = np.empty((3, 5, 4), complex)
        # resonant, then detuned Raman channels
        for det_c, det_a in ((0.0, 0.0), (0.3, -0.2)):
            drive = ControlDrive.constant(0.6 + 0.2j, 0.3 - 0.1j, det_c, det_a)
            prop = _Propagator(m, state, det_c, det_a)
            oc, oa = drive.sample(0.0)
            prop._rhs(state.f, state.a, oc, oa, kf, ka)
            for cell in range(4):
                for j in range(5):
                    d_pp, d_pm, d_s = model_rhs(state, drive, m, j=j, cell=cell)
                    assert ka[0, j, cell] == pytest.approx(d_pp, rel=1e-13)
                    assert ka[1, j, cell] == pytest.approx(d_pm, rel=1e-13)
                    assert ka[2, j, cell] == pytest.approx(d_s, rel=1e-13)


class TestStateLayout:
    def _filled(self, via_blocks):
        rng = np.random.default_rng(3)
        classes = make_spectral_classes(30.0, 3, "lorentzian")
        state = _state(grid_cells=6, classes=classes)
        fields = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        atoms = rng.normal(size=(3, 3, 6)) + 1j * rng.normal(size=(3, 3, 6))
        if via_blocks:
            state.e_plus[:] = fields[0]
            state.e_minus[:] = fields[1]
            for j in range(3):
                state.p_plus[:, j] = atoms[0, j]
                state.p_minus[:, j] = atoms[1, j]
                state.s[:, j] = atoms[2, j]
        else:
            state.f[:] = fields
            state.a[:] = atoms
        return state, fields, atoms

    def test_block_writes_reach_packed_arrays_that_step_advances(self):
        state, fields, atoms = self._filled(via_blocks=True)
        assert np.array_equal(state.f, fields)
        assert np.array_equal(state.a, atoms)
        packed, _, _ = self._filled(via_blocks=False)
        f, a = state.f, state.a
        m = MediumParams(gamma_opt=0.5, gamma_spin=0.1, g2n=2.0, c=5.0)
        drive = ControlDrive.constant(0.8, 0.3)
        dt = state.grid.dz / m.c
        for s in (state, packed):
            step(s, drive, m, dt, inject_plus=0.2)
        assert state.f is f and state.a is a  # advanced in place
        assert np.array_equal(state.f, packed.f)
        assert np.array_equal(state.a, packed.a)
        assert not np.array_equal(state.a, atoms)

    def test_block_names_cannot_be_rebound(self):
        state = _state()
        with pytest.raises(AttributeError):
            state.s = np.zeros_like(state.s)

    def test_copy_is_independent(self):
        state, fields, atoms = self._filled(via_blocks=False)
        clone = state.copy()
        clone.e_plus[:] = 0.0
        clone.s[:, 1] = 7.0
        m = MediumParams(g2n=1.0, c=5.0)
        step(clone, ControlDrive.constant(0.5, 0.0), m, clone.grid.dz / m.c)
        assert state.t == 0.0 and clone.t > 0.0
        assert np.array_equal(state.f, fields)
        assert np.array_equal(state.a, atoms)


class TestStep:
    def test_free_propagation_translates_exactly(self):
        m = MediumParams(g2n=0.0, c=5.0)
        state = _state(grid_cells=16)
        state.e_plus[3] = 0.8 - 0.4j
        state.e_minus[10] = 0.2j
        drive = ControlDrive.constant(0.5, 0.5)
        dt = state.grid.dz / m.c
        for _ in range(4):
            step(state, drive, m, dt)
        assert state.e_plus[7] == 0.8 - 0.4j
        assert state.e_minus[6] == 0.2j
        assert np.count_nonzero(state.e_plus) == 1
        assert state.t == pytest.approx(4 * dt)

    def test_cfl_and_exact_advection_enforced(self):
        m = MediumParams(g2n=1.0, c=5.0)
        state = _state()
        drive = ControlDrive.constant(0.0, 0.0)
        dt = state.grid.dz / m.c
        for bad in (2.0 * dt, 0.5 * dt, 0.0, -dt):
            with pytest.raises(CFLViolation):
                step(state, drive, m, bad)

    def test_lossless_conservation_10k_steps(self):
        m = MediumParams(gamma_opt=0.0, gamma_spin=0.0, g2n=1.0, c=5.0)
        grid = Grid(cells=64)
        state = SimState.zeros(grid, SINGLE)
        z = grid.z
        state.e_plus[:] = np.exp(-(((z - 0.5) / 0.1) ** 2))
        drive = ControlDrive.constant(0.4, 0.4)
        dt = grid.dz / m.c
        q0 = excitation_number(state, m)
        for _ in range(10_000):
            step(state, drive, m, dt, boundary="periodic")
        q1 = excitation_number(state, m)
        assert abs(q1 - q0) / q0 <= 1e-6

    def test_nonfinite_state_aborts_with_location(self):
        m = MediumParams(g2n=1.0, c=5.0)
        state = _state()
        state.e_plus[2] = np.nan
        drive = ControlDrive.constant(0.1, 0.0)
        # advection carries the NaN one cell forward before the check
        with pytest.raises(NumericalAbort, match="fields .* cell 3$"):
            step(state, drive, m, state.grid.dz / m.c)


def _slow_light_setup(optical_depth, omega_c=1.7, cells=64, duration=10.0,
                      n_classes=32, t_end=None):
    m = MediumParams.from_optical_depth(optical_depth, gamma_opt=1.0, c=5.0)
    grid = Grid(cells=cells)
    classes = make_spectral_classes(30.0, n_classes, "lorentzian")
    p = ProtocolParams(kind="slow_light", omega_c=omega_c,
                       probe_duration_us=duration, sample_rate=20.0,
                       release_window_us=20.0, t_end_us=t_end)
    return m, grid, classes, standard_sequence("slow_light", p)


class TestRunDynamics:
    def test_zero_probe_gives_zero_traces(self):
        m, grid, classes, _ = _slow_light_setup(10.0)
        p = ProtocolParams(kind="slow_light", omega_c=1.7, probe_amplitude=0.0,
                           probe_duration_us=4.0, t_end_us=14.0)
        seq = standard_sequence("slow_light", p)
        trace, _ = run_dynamics(seq, m, grid, classes)
        assert np.all(trace.fwd_intensity == 0.0)
        assert np.all(trace.bwd_intensity == 0.0)
        assert np.all(trace.spin_norm == 0.0)

    def test_forward_coupling_only_single_delayed_pulse(self):
        m, grid, classes, seq = _slow_light_setup(10.0, duration=6.0)
        trace, _ = run_dynamics(seq, m, grid, classes)
        ref, _ = run_dynamics(seq, MediumParams(g2n=0.0, c=5.0), grid, classes)
        t_peak = trace.t[np.argmax(trace.fwd_intensity)]
        t_ref = ref.t[np.argmax(ref.fwd_intensity)]
        assert t_peak > t_ref  # delayed
        assert trace.bwd_intensity.max() <= 1e-20  # no backward signal
        above = trace.fwd_intensity > 0.5 * trace.fwd_intensity.max()
        assert np.all(np.diff(np.flatnonzero(above)) == 1)  # one peak

    def test_backward_coupling_traps_then_releases(self):
        m = MediumParams.from_optical_depth(200.0, gamma_opt=1.0, c=4.0)
        grid = Grid(cells=48)
        classes = make_spectral_classes(30.0, 8, "lorentzian")
        base = dict(probe_duration_us=6.0, sample_rate=10.0,
                    release_window_us=30.0, peak_guard_us=1.0)
        slow = standard_sequence("slow_light", ProtocolParams(
            kind="slow_light", omega_c=2.0, **base))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trap = standard_sequence("stationary", ProtocolParams(
                kind="stationary", omega_c=2.0, omega_a=2.0,
                p_a_delay_us=16.0, a_duration_us=25.0, **base))
            trace_slow, _ = run_dynamics(slow, m, grid, classes)
            trace_trap, _ = run_dynamics(trap, m, grid, classes)
        peak_slow = trace_slow.fwd_intensity.max()
        hold = (trace_trap.t > 20.0) & (trace_trap.t < 41.0)
        assert trace_trap.fwd_intensity[hold].max() < 0.2 * peak_slow
        t_rel, peak_rel = released_peak(trace_trap, 42.0)
        assert peak_rel > 5.0 * trace_trap.fwd_intensity[hold].max()
        assert t_rel > 42.0

    def test_grid_resolution_warning(self):
        m = MediumParams.from_optical_depth(40.0, gamma_opt=1.0, c=5.0)
        grid = Grid(cells=8)
        p = ProtocolParams(kind="slow_light", omega_c=0.3,
                           probe_duration_us=2.0, t_end_us=8.0)
        seq = standard_sequence("slow_light", p)
        with pytest.warns(UserWarning, match="cells"):
            run_dynamics(seq, m, grid, SINGLE)


def _resume_setup():
    """A gated memory run with readouts on both sides of most snapshots."""
    from slowlight.experiment import PulseEvent, PulseSequence

    m = MediumParams.from_optical_depth(30.0, gamma_opt=1.0, c=5.0)
    grid = Grid(cells=16)
    classes = make_spectral_classes(30.0, 3, "lorentzian")
    seq = PulseSequence(
        events=[PulseEvent("P", 0.0, 6.0, 1.0, "gaussian", 2.0),
                PulseEvent("C", 0.0, 5.0, 1.5, "raised_cosine", 0.5),
                PulseEvent("C", 7.0, 3.0, 2.0, "raised_cosine", 0.5),
                PulseEvent("Y", 2.5, 0.5, 0.3),
                PulseEvent("Y", 6.0, 0.5, 0.3)],
        t_end_us=10.0, sample_rate=20.0)
    return m, grid, classes, seq


class TestResume:
    def test_resumed_runs_match_the_uninterrupted_run_bitwise(self):
        m, grid, classes, seq = _resume_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # snapshots at steps 80, 159, 238, 317, 396, ...: on and off
            # the record cadence of 4 steps
            full, snaps = run_dynamics(seq, m, grid, classes,
                                       snapshot_steps=range(80, 800, 79))
            assert len(snaps) == 11
            for start in snaps[:-1]:
                before = start.a.copy()
                part, part_snaps = run_dynamics(
                    seq, m, grid, classes, snapshot_steps=range(80, 800, 79),
                    initial_state=start)
                assert np.array_equal(start.a, before)
                tail = full.t >= start.t
                assert tail.sum() < len(full.t)
                for name in ("t", "fwd_intensity", "bwd_intensity", "spin_norm"):
                    assert np.array_equal(getattr(part, name),
                                          getattr(full, name)[tail])
                assert part.readouts == tuple(r for r in full.readouts
                                              if r[0] > start.t)
                later = [s for s in snaps if s.t > start.t]
                assert len(part_snaps) == len(later)
                for mine, theirs in zip(part_snaps, later):
                    assert mine.t == theirs.t
                    assert np.array_equal(mine.f, theirs.f)
                    assert np.array_equal(mine.a, theirs.a)
        assert len(full.readouts) == 2

    def test_times_are_exact_step_multiples(self):
        m, grid, classes, seq = _resume_setup()
        dt = grid.dz / m.c
        steps = range(80, 800, 79)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full, snaps = run_dynamics(seq, m, grid, classes,
                                       snapshot_steps=steps)
            part, _ = run_dynamics(seq, m, grid, classes,
                                   initial_state=snaps[4])
        # one record every 4 steps, from step 0 and from step 396
        assert full.t.tolist() == (np.arange(0, 801, 4) * dt).tolist()
        assert part.t.tolist() == (np.arange(396, 801, 4) * dt).tolist()
        assert [s.t for s in snaps] == [n * dt for n in [*steps, 800]]
        assert [t for t, _ in full.readouts] == [200 * dt, 480 * dt]

    def test_state_at_the_end_runs_no_step(self):
        m, grid, classes, seq = _resume_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full, snaps = run_dynamics(seq, m, grid, classes)
            part, part_snaps = run_dynamics(seq, m, grid, classes,
                                            initial_state=snaps[-1])
        assert part.t.tolist() == [full.t[-1]]
        assert np.array_equal(part_snaps[-1].a, snaps[-1].a)

    def test_rejects_state_off_the_run(self):
        m, grid, classes, seq = _resume_setup()
        dt = grid.dz / m.c
        bad = [SimState.zeros(Grid(cells=8), classes),
               SimState.zeros(Grid(cells=16, length=2.0), classes),
               SimState.zeros(grid, classes[:2])]
        for state in bad:
            with pytest.raises(ValueError, match="initial_state has"):
                run_dynamics(seq, m, grid, classes, initial_state=state)
        off_grid = SimState.zeros(grid, classes)
        off_grid.t = 40.5 * dt
        with pytest.raises(ValueError, match="step grid"):
            run_dynamics(seq, m, grid, classes, initial_state=off_grid)
        late = SimState.zeros(grid, classes)
        late.t = 801 * dt
        with pytest.raises(ValueError, match="ends before"):
            run_dynamics(seq, m, grid, classes, initial_state=late)


class TestBalanceResidual:
    @pytest.mark.parametrize("args,expected", [
        ((10.0, 1.0, 10.0, 1.0), 0.0),
        ((10.0, 1.0, 20.0, 2.0), 0.0),
        ((10.0, 1.0, 20.0, 1.0), pytest.approx(1.0 / 3.0)),
    ])
    def test_examples(self, args, expected):
        assert balance_residual(*args) == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            balance_residual(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            balance_residual(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            balance_residual(-1.0, 1.0, 1.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 50.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0))
    def test_zero_iff_proportional(self, omega_c, g_c, g_a):
        omega_a = omega_c * g_a / g_c
        assert balance_residual(omega_c, g_c, omega_a, g_a) <= 1e-12
        assert 0.0 < balance_residual(omega_c, g_c, 3.0 * omega_a, g_a) <= 1.0


class TestEffectiveVelocity:
    def test_balanced_is_stationary(self):
        m = MediumParams(g2n=5.0)
        assert effective_velocity(m, 0.7, 0.7) == 0.0

    def test_single_coupling_limit_matches_group_velocity(self):
        m = MediumParams(g2n=5.0, c=5.0)
        assert effective_velocity(m, 0.7, 0.0) == pytest.approx(
            group_velocity(m, 0.7))

    def test_direct_substitution(self):
        m = MediumParams(g2n=7.0, c=5.0)
        assert effective_velocity(m, math.sqrt(2.0), 1.0) == pytest.approx(0.5)

    def test_all_zero_couplings_rejected(self):
        with pytest.raises(ValueError):
            effective_velocity(MediumParams(g2n=0.0), 0.0, 0.0)

    def test_centroid_tracking_cross_check(self):
        # prepare a stored spin wave and ramp both couplings on slowly so
        # only the drifting dark mode is populated, then clock its centroid
        omega_a = 16.0
        omega_c = 16.0 * math.sqrt(2.0)
        m = MediumParams(g2n=7.0 * omega_a ** 2, c=1.0, gamma_opt=0.5,
                         gamma_spin=1e-4)
        grid = Grid(cells=360)
        state = SimState.zeros(grid, SINGLE)
        z = grid.z
        state.s[:, 0] = np.exp(-(((z - 0.30) / 0.15) ** 2))
        ramp = 2.0

        def envelope(t, peak):
            if t >= ramp:
                return peak
            return peak * 0.5 * (1.0 - math.cos(math.pi * t / ramp))

        drive = ControlDrive(lambda t: envelope(t, omega_c),
                             lambda t: envelope(t, omega_a))
        dt = grid.dz / m.c
        centroids = {}
        for target in (2.5, 4.0):
            while state.t < target - 1e-9:
                step(state, drive, m, dt)
            centroids[target] = field_centroid(state)
        v_measured = (centroids[4.0] - centroids[2.5]) / 1.5
        v_predicted = effective_velocity(m, omega_c, omega_a)
        assert v_predicted == pytest.approx(m.c / 10.0)
        assert v_measured == pytest.approx(v_predicted, rel=0.15)


class TestDiagnostics:
    def test_excitation_zero_state(self):
        m = MediumParams(g2n=1.0)
        assert excitation_number(_state(), m) == 0.0

    def test_excitation_single_cell_unit_field(self):
        grid = Grid(cells=1, length=1.0)  # dz = 1
        state = SimState.zeros(grid, SINGLE)
        state.e_plus[0] = 1.0
        assert excitation_number(state, MediumParams(g2n=1.0)) == 1.0

    def test_centroid_symmetric_pulse(self):
        grid = Grid(cells=64)
        state = SimState.zeros(grid, SINGLE)
        z = grid.z
        state.e_plus[:] = np.exp(-(((z - 0.5) / 0.08) ** 2))
        assert field_centroid(state) == pytest.approx(0.5, abs=1e-9)

    def test_centroid_point_mass(self):
        grid = Grid(cells=16)
        state = SimState.zeros(grid, SINGLE)
        state.e_minus[5] = 2.0
        assert field_centroid(state) == pytest.approx(grid.z[5])

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            field_centroid(_state())


def _record_mirror_run(m, grid, classes, omega_c, omega_a, inject, side):
    state = SimState.zeros(grid, classes)
    drive = ControlDrive.constant(omega_c, omega_a)
    dt = grid.dz / m.c
    out = []
    for n in range(len(inject)):
        if side == "forward":
            step(state, drive, m, dt, inject_plus=inject[n])
            out.append(state.e_plus[-1])
        else:
            step(state, drive, m, dt, inject_minus=inject[n])
            out.append(state.e_minus[0])
    return np.array(out)


class TestSymmetries:
    def test_mirror_symmetry_exact(self):
        classes = make_spectral_classes(30.0, 6, "lorentzian")
        m = MediumParams.from_optical_depth(30.0, gamma_opt=1.0, c=4.0)
        grid = Grid(cells=24)
        steps = 600
        dt = grid.dz / m.c
        t = dt * np.arange(steps)
        inject = 0.5 * np.exp(-(((t - 1.2) / 0.5) ** 2)) * np.exp(0.3j * t)
        fwd = _record_mirror_run(m, grid, classes, 1.4, 0.6, inject, "forward")
        bwd = _record_mirror_run(m, grid, classes, 0.6, 1.4, inject, "backward")
        assert np.max(np.abs(fwd - bwd)) <= 1e-8

    def test_probe_linearity(self):
        m, grid, classes, _ = _slow_light_setup(10.0, cells=24, n_classes=6)
        alpha = 0.371
        traces = []
        for amplitude in (1.0, alpha):
            p = ProtocolParams(kind="slow_light", omega_c=1.7,
                               probe_amplitude=amplitude,
                               probe_duration_us=4.0, t_end_us=16.0)
            seq = standard_sequence("slow_light", p)
            trace, _ = run_dynamics(seq, m, grid, classes)
            traces.append(trace)
        scale = np.max(traces[0].fwd_intensity)
        diff = np.abs(traces[1].fwd_intensity - alpha ** 2 * traces[0].fwd_intensity)
        assert np.max(diff) <= 1e-8 * scale

    def test_grid_convergence_peak_time(self):
        peaks = []
        for cells in (64, 128):
            m, grid, classes, seq = _slow_light_setup(
                30.0, cells=cells, duration=6.0, n_classes=8, t_end=30.0)
            trace, _ = run_dynamics(seq, m, grid, classes)
            i = int(np.argmax(trace.fwd_intensity))
            # parabolic interpolation around the sampled maximum
            y0, y1, y2 = trace.fwd_intensity[i - 1: i + 2]
            shift = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
            peaks.append(trace.t[i] + shift * (trace.t[1] - trace.t[0]))
        assert abs(peaks[1] - peaks[0]) / peaks[0] <= 0.01

    def test_stationary_balance_versus_imbalance_drift(self):
        m = MediumParams.from_optical_depth(400.0, gamma_opt=1.0, c=4.0)
        grid = Grid(cells=48)
        classes = make_spectral_classes(30.0, 8, "lorentzian")
        omega_c = math.sqrt(8.0)
        drifts = {}
        for label, omega_a in (("balanced", omega_c),
                               ("imbalanced", omega_c / 2.0)):
            p = ProtocolParams(kind="stationary", omega_c=omega_c,
                               omega_a=omega_a, probe_duration_us=6.0,
                               p_a_delay_us=29.0, a_duration_us=20.0,
                               release_window_us=15.0, sample_rate=10.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                seq = standard_sequence("stationary", p)
                # a snapshot every 2 us (384 steps of dt = 1/192 us) to the end
                _, snaps = run_dynamics(seq, m, grid, classes,
                                        snapshot_steps=range(384, 16000, 384))
            inside = [s for s in snaps if 31.0 <= s.t <= 49.0]
            drifts[label] = abs(field_centroid(inside[-1])
                                - field_centroid(inside[0]))
        assert drifts["balanced"] <= drifts["imbalanced"] / 20.0

    def test_balanced_centroid_drift_below_2_percent(self):
        # hold for about three dephasing times of the 30 kHz ensemble
        m = MediumParams.from_optical_depth(400.0, gamma_opt=1.0, c=4.0)
        grid = Grid(cells=48)
        classes = make_spectral_classes(30.0, 16, "lorentzian")
        omega_c = math.sqrt(8.0)
        p = ProtocolParams(kind="stationary", omega_c=omega_c, omega_a=omega_c,
                           probe_duration_us=6.0, p_a_delay_us=29.0,
                           a_duration_us=34.0, release_window_us=15.0,
                           sample_rate=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            seq = standard_sequence("stationary", p)
            # a snapshot every 2 us (384 steps of dt = 1/192 us) to the end
            _, snaps = run_dynamics(seq, m, grid, classes,
                                    snapshot_steps=range(384, 16000, 384))
        inside = [s for s in snaps if 31.0 <= s.t <= 63.0]
        drift = abs(field_centroid(inside[-1]) - field_centroid(inside[0]))
        assert drift <= 0.02 * grid.length

    def test_step_sequence_equals_run_dynamics(self):
        # event edges deliberately off the step grid so both paths sample
        # identical envelope values
        from slowlight.experiment import PulseEvent, PulseSequence

        m = MediumParams.from_optical_depth(40.0, gamma_opt=1.0, c=5.0)
        grid = Grid(cells=16)
        classes = make_spectral_classes(30.0, 5, "lorentzian")
        seq = PulseSequence(
            events=[PulseEvent("P", 0.013, 11.1, 1.0, "gaussian", 3.7),
                    PulseEvent("C", 0.0, 13.99, 1.5)],
            t_end_us=14.0, sample_rate=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, snaps = run_dynamics(seq, m, grid, classes)
        state = SimState.zeros(grid, classes)
        drive = ControlDrive(
            lambda t: complex(seq.channel_envelope("C", np.asarray([t]))[0]),
            lambda t: complex(seq.channel_envelope("A", np.asarray([t]))[0]))
        dt = grid.dz / m.c
        for _ in range(int(round(14.0 / dt))):
            inject = complex(seq.probe_samples(np.asarray([state.t]))[0])
            step(state, drive, m, dt, inject_plus=inject)
        final = snaps[-1]
        assert np.max(np.abs(state.e_plus - final.e_plus)) <= 1e-10
        assert np.max(np.abs(state.s - final.s)) <= 1e-10
