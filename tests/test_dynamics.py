import math
import tracemalloc
import warnings
from dataclasses import fields as dc_fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowlight import dynamics
from slowlight.analysis import slow_light_delay
from slowlight.config import (build_classes, build_medium, build_protocol,
                              parse_config)
from slowlight.dynamics import (_CHUNK_STEPS, CFLViolation, ControlDrive, Grid,
                                NumericalAbort, SimState, _Propagator,
                                _record_every, balance_residual,
                                excitation_number, field_centroid, model_rhs,
                                run_dynamics, step)
from slowlight.experiment import (PulseEvent, PulseSequence, ProtocolParams,
                                  released_peak, standard_sequence)
from slowlight.medium import (MediumParams, SpectralClass, group_velocity,
                              make_spectral_classes, susceptibility)

SINGLE = make_spectral_classes(0.0, 1, "single")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_operator_step_matches_per_cell_rk4(self):
        for delta_s_khz in (40.0, 1600.0):
            rng = np.random.default_rng(7)
            classes = make_spectral_classes(delta_s_khz, 5, "lorentzian")
            assert np.count_nonzero([c.delta_j for c in classes]) == 4
            m = MediumParams(gamma_opt=0.8, gamma_spin=0.05, g2n=2.5, c=1.0)
            g_half = 0.5j * math.sqrt(m.g2n)
            state = _state(grid_cells=4, classes=classes)
            for arr in (state.f, state.a):
                arr[:] = (rng.normal(size=arr.shape)
                          + 1j * rng.normal(size=arr.shape))
            dt = state.grid.dz / m.c
            if delta_s_khz > 1000.0:
                # dt max|delta_j| = 3.4: the operator's polynomial in the spin
                # rate has large u^4 terms
                assert dt * np.abs(state.deltas).max() > 3.0
            state.t = 3 * dt
            # three distinct drive samples at the step start, midpoint and end
            drive = ControlDrive(lambda t: (0.6 + 0.2j) * (1.0 + t * t),
                                 lambda t: (0.3 - 0.1j) * (2.0 - t))

            # reference: advect, then plain RK4 in each cell on model_rhs
            ref = state.copy()
            ref.e_plus[:] = np.roll(ref.e_plus, 1)
            ref.e_plus[0] = 0.2
            ref.e_minus[:] = np.roll(ref.e_minus, -1)
            ref.e_minus[-1] = -0.1j

            def slope(y, t):
                # the slope of every amplitude, held in a state's views
                y.t = t
                k = y.copy()
                for cell in range(4):
                    k.e_plus[cell] = g_half * (y.weights @ y.p_plus[cell])
                    k.e_minus[cell] = g_half * (y.weights @ y.p_minus[cell])
                    for j in range(5):
                        (k.p_plus[cell, j], k.p_minus[cell, j],
                         k.s[cell, j]) = model_rhs(y, drive, m, j=j, cell=cell)
                return k

            def shifted(c, k):
                y = ref.copy()
                y.f += c * k.f
                y.a += c * k.a
                return y

            t0 = ref.t
            k1 = slope(ref.copy(), t0)
            k2 = slope(shifted(0.5 * dt, k1), t0 + 0.5 * dt)
            k3 = slope(shifted(0.5 * dt, k2), t0 + 0.5 * dt)
            k4 = slope(shifted(dt, k3), t0 + dt)
            want_f = ref.f + dt / 6.0 * (k1.f + 2.0 * (k2.f + k3.f) + k4.f)
            want_a = ref.a + dt / 6.0 * (k1.a + 2.0 * (k2.a + k3.a) + k4.a)

            step(state, drive, m, dt, inject_plus=0.2, inject_minus=-0.1j)
            scale = max(np.abs(want_f).max(), np.abs(want_a).max())
            assert np.abs(state.f - want_f).max() <= 1e-12 * scale
            assert np.abs(state.a - want_a).max() <= 1e-12 * scale
            assert state.t == pytest.approx(t0 + dt, rel=1e-15)


def _views(state):
    return state.e_plus, state.e_minus, state.p_plus, state.p_minus, state.s


class TestStateLayout:
    M = MediumParams(gamma_opt=0.5, gamma_spin=0.1, g2n=2.0, c=5.0)
    DRIVE = ControlDrive.constant(0.8, 0.3)

    def _filled(self):
        """A 6-cell, 3-class state written through its views, and the
        values written: E+ and E- (2, 6), then P+, P- and S (3, 6, 3)."""
        rng = np.random.default_rng(3)
        classes = make_spectral_classes(30.0, 3, "lorentzian")
        state = _state(grid_cells=6, classes=classes)
        fields = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        atoms = rng.normal(size=(3, 6, 3)) + 1j * rng.normal(size=(3, 6, 3))
        for view, value in zip(_views(state), [*fields, *atoms]):
            view[:] = value
        return state, [*fields, *atoms]

    def _stepped(self, state):
        step(state, self.DRIVE, self.M, state.grid.dz / self.M.c, inject_plus=0.2)
        return state

    def test_block_writes_reach_packed_arrays_that_step_advances(self):
        state, values = self._filled()
        # the five views cover the state's arrays, each element once
        held = np.concatenate([state.f.ravel(), state.a.ravel()])
        assert np.array_equal(np.sort(held), np.sort(np.concatenate(values, axis=None)))
        # atoms handed over in another memory order are held C-contiguous
        strided = SimState(0.0, state.f.copy(), np.asfortranarray(state.a),
                           state.grid, state.deltas, state.weights)
        f, a = state.f, state.a
        for s in (state, strided):
            self._stepped(s)
        assert state.f is f and state.a is a  # advanced in place
        assert np.array_equal(state.f, strided.f)
        assert np.array_equal(state.a, strided.a)
        assert not np.array_equal(state.s, values[4])

    def test_noncontiguous_fields_step_like_contiguous_ones(self):
        # a step reads the fields through their float view, which needs
        # them C-contiguous: a transposed array is held as a copy
        state, _ = self._filled()
        fields = np.ascontiguousarray(state.f.T).T
        assert not fields.flags.c_contiguous
        other = SimState(0.0, fields, state.a.copy(), state.grid,
                         state.deltas, state.weights)
        assert other.f.flags.c_contiguous and np.array_equal(other.f, state.f)
        self._stepped(state)
        self._stepped(other)
        assert np.array_equal(state.f, other.f)
        assert np.array_equal(state.a, other.a)

    def test_rebound_arrays_must_fit_the_kept_views(self):
        # the kept propagator makes its float views again for an f or a
        # rebound between steps, and rejects one that does not fit
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        state = self._stepped(_state(grid_cells=8, classes=classes))
        for name, bad, message in (
                ("a", np.zeros((4, 8, 3), dtype=complex), r"\(4, 8, 3\) in C order"),
                ("a", np.asfortranarray(state.a), r"\(8, 4, 3\) in F order"),
                ("f", np.asfortranarray(state.f), r"\(8, 2\) in F order")):
            good, t = getattr(state, name), state.t
            setattr(state, name, bad)
            with pytest.raises(ValueError,
                               match=rf"state\.{name} is complex128 {message}"):
                self._stepped(state)
            assert state.t == t
            state.check_finite()  # reads an array in any memory order
            setattr(state, name, good)
        self._stepped(state)

    def test_rebound_copies_step_like_an_untouched_twin(self):
        state, _ = self._filled()
        twin = state.copy()
        for s in (state, twin):
            self._stepped(s)
        old_f, old_a = state.f, state.a
        state.f, state.a = state.f.copy(), state.a.copy()
        kept = old_f.copy(), old_a.copy()
        for _ in range(3):
            for s in (state, twin):
                self._stepped(s)
        assert np.array_equal(state.f, twin.f) and np.array_equal(state.a, twin.a)
        # the arrays the views were made of are written no more
        assert np.array_equal(old_f, kept[0]) and np.array_equal(old_a, kept[1])
        assert not np.array_equal(state.a, old_a)

    def test_block_names_cannot_be_rebound(self):
        state = _state()
        with pytest.raises(AttributeError):
            state.s = np.zeros_like(state.s)

    def test_copy_is_independent(self):
        state, values = self._filled()
        clone = state.copy()
        clone.e_plus[:] = 0.0
        clone.s[:, 1] = 7.0
        m = MediumParams(g2n=1.0, c=5.0)
        step(clone, ControlDrive.constant(0.5, 0.0), m, clone.grid.dz / m.c)
        assert state.t == 0.0 and clone.t > 0.0
        for view, value in zip(_views(state), values):
            assert np.array_equal(view, value)
        # the class arrays are copied too
        classes = (clone.deltas.copy(), clone.weights.copy())
        state.deltas[0] = 5.0
        state.weights[1] = 0.5
        assert all(map(np.array_equal, (clone.deltas, clone.weights), classes))


class TestStep:
    # each MediumParams field moved off its default
    MOVED = {"gamma_opt": 0.5, "gamma_spin": 0.3, "g2n": 2.0, "c": 50.0}

    def test_every_medium_field_changes_a_step(self):
        assert set(self.MOVED) == {f.name for f in dc_fields(MediumParams)}
        rng = np.random.default_rng(8)
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        start = _state(grid_cells=8, classes=classes)
        for arr in (start.f, start.a):
            arr[:] = rng.normal(size=arr.shape) + 1j * rng.normal(size=arr.shape)
        drive = ControlDrive.constant(0.8, 0.5)

        def stepped(m):
            state = start.copy()
            step(state, drive, m, state.grid.dz / m.c, inject_plus=0.2)
            return np.concatenate([state.f.ravel(), state.a.ravel()])

        base = stepped(MediumParams())
        for name, value in self.MOVED.items():
            moved = stepped(MediumParams(**{name: value}))
            assert np.abs(moved - base).max() > 1e-9 * np.abs(base).max(), name

    def test_free_propagation_translates_exactly(self):
        m = MediumParams(g2n=0.0, c=5.0)
        for classes in (SINGLE, []):  # no classes: a vacuum
            state = _state(grid_cells=16, classes=classes)
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
        for bad in (2.0 * dt, 0.5 * dt, 0.0, -dt, math.nan):
            with pytest.raises(CFLViolation):
                step(state, drive, m, bad)

    def test_rejects_unknown_boundary_and_off_grid_time(self):
        m = MediumParams(g2n=1.0, c=5.0)
        state = _state()
        state.e_plus[2] = 0.5
        drive = ControlDrive.constant(0.1, 0.0)
        dt = state.grid.dz / m.c
        with pytest.raises(ValueError, match="boundary"):
            step(state, drive, m, dt, boundary="perodic")
        state.t = 2.5 * dt
        with pytest.raises(ValueError, match="step grid"):
            step(state, drive, m, dt)
        assert state.e_plus[2] == 0.5 and np.count_nonzero(state.f) == 1

    def test_periodic_boundary_wraps_the_exit_values(self):
        m = MediumParams(g2n=0.0, c=5.0)
        state = _state()
        state.e_plus[-1] = 0.3j
        state.e_minus[0] = 0.7
        drive = ControlDrive.constant(0.0, 0.0)
        step(state, drive, m, state.grid.dz / m.c, inject_plus=9.0,
             boundary="periodic")
        assert state.e_plus[0] == 0.3j and state.e_minus[-1] == 0.7
        assert np.count_nonzero(state.f) == 2

    def test_nonfinite_state_aborts_with_location(self):
        m = MediumParams(g2n=1.0, c=5.0)
        drive = ControlDrive.constant(0.1, 0.0)
        for bad in (np.nan, np.inf, -np.inf):
            state = _state()
            state.e_plus[2] = bad
            # advection carries the value one cell forward before the check;
            # an infinity times a zero entry of the map is NaN
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NumericalAbort, match="fields .* cell 3$"):
                step(state, drive, m, state.grid.dz / m.c)

    def test_nonfinite_atoms_abort_with_their_cell(self):
        for bad in (np.nan, np.inf, -np.inf):
            state = _state(classes=make_spectral_classes(30.0, 4, "lorentzian"))
            state.s[5, 2] = bad  # class 2's S at cell 5, the fields finite
            with pytest.raises(NumericalAbort, match="atoms .* cell 5$"):
                state.check_finite()
            state.s[5, 2] = 0.0
            state.p_minus[7, 0] = bad * 1j  # an imaginary part alone
            with pytest.raises(NumericalAbort, match="atoms .* cell 7$"):
                state.check_finite()

    def test_finite_sum_that_overflows_does_not_abort(self):
        # a plain sum of the float views overflows to inf here; the check
        # passes every finite state, and warns of no overflow
        state = _state(classes=make_spectral_classes(30.0, 4, "lorentzian"))
        for arr in (state.f, state.a):
            arr.ravel().view(float)[:2] = 1e308
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                state.check_finite()
            arr[...] = 0.0
        state.e_plus[0] = state.s[3, 1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state.check_finite()

    def test_half_steps_sampled_as_run_dynamics_samples_them(self):
        # on trap_point's grid (dt = 1/288 us) at its first and last step
        m = MediumParams(g2n=1.0, c=4.0)
        grid = Grid(cells=72)
        dt = grid.dz / m.c
        seen = []
        drive = ControlDrive(lambda t: seen.append(t) or 0.3, lambda t: 0.1)
        for n in (0, 27_647):
            for t in (n * dt, n * dt + 1e-12 * dt):  # on the grid to rounding
                state = SimState.zeros(grid, SINGLE)
                state.t = t
                seen.clear()
                step(state, drive, m, dt)
                # step n reads the half steps 2n, 2n + 1 and 2n + 2
                assert seen == list(0.5 * dt * np.arange(2 * n, 2 * n + 3))

    def test_kept_propagator_follows_changed_inputs(self):
        m = MediumParams(gamma_opt=0.5, gamma_spin=0.1, g2n=2.0, c=5.0)
        rng = np.random.default_rng(11)
        state = _state(grid_cells=6, classes=make_spectral_classes(30.0, 3, "lorentzian"))
        for arr in (state.f, state.a):
            arr[:] = rng.normal(size=arr.shape) + 1j * rng.normal(size=arr.shape)
        dt = state.grid.dz / m.c
        drive = ControlDrive.constant(0.8, 0.3)
        step(state, drive, m, dt)  # keeps a propagator on the state
        for change in ("gamma_spin", "classes"):
            if change == "gamma_spin":
                m = replace(m, gamma_spin=0.9)
            else:
                state.deltas[:] = [c.delta_j for c in
                                   make_spectral_classes(90.0, 3, "lorentzian")]
            fresh = state.copy()  # a copy carries no propagator
            assert fresh._kept is None and state._kept is not None
            step(fresh, drive, m, dt)
            stale = state._kept
            step(state, drive, m, dt)
            assert state._kept is not stale
            assert np.array_equal(state.f, fresh.f)
            assert np.array_equal(state.a, fresh.a)
        kept = state._kept
        step(state, drive, m, dt)
        assert state._kept is kept  # unchanged inputs reuse it


def _slow_light_setup(optical_depth, omega_c=1.7, cells=64, duration=10.0,
                      n_classes=32, t_end=None):
    m = MediumParams.from_optical_depth(optical_depth, gamma_opt=1.0, c=5.0)
    grid = Grid(cells=cells)
    classes = make_spectral_classes(30.0, n_classes, "lorentzian")
    p = ProtocolParams(omega_c=omega_c,
                       probe_duration_us=duration, sample_rate=20.0,
                       release_window_us=20.0, t_end_us=t_end)
    return m, grid, classes, standard_sequence("slow_light", p)


class TestRunDynamics:
    def test_zero_probe_gives_zero_traces(self):
        m, grid, classes, _ = _slow_light_setup(10.0)
        p = ProtocolParams(omega_c=1.7, probe_amplitude=0.0,
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
        slow = standard_sequence("slow_light",
                                 ProtocolParams(omega_c=2.0, **base))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trap = standard_sequence("stationary", ProtocolParams(
                omega_c=2.0, omega_a=2.0,
                p_a_delay_us=16.0, a_duration_us=25.0, **base))
            trace_slow, _ = run_dynamics(slow, m, grid, classes)
            trace_trap, _ = run_dynamics(trap, m, grid, classes)
        peak_slow = trace_slow.fwd_intensity.max()
        hold = (trace_trap.t > 20.0) & (trace_trap.t < 41.0)
        assert trace_trap.fwd_intensity[hold].max() < 0.2 * peak_slow
        t_rel, peak_rel = released_peak(trace_trap, 42.0)
        assert peak_rel > 5.0 * trace_trap.fwd_intensity[hold].max()
        assert t_rel > 42.0

    @pytest.mark.parametrize("kind", ["stationary", "memory"])
    def test_operator_rebuilt_once_per_drive_change(self, kind, monkeypatch):
        m = MediumParams.from_optical_depth(50.0, gamma_opt=1.0, c=5.0)
        grid = Grid(cells=16)
        classes = make_spectral_classes(30.0, 2, "lorentzian")
        p = ProtocolParams(omega_c=2.0, omega_a=2.0,
                           probe_duration_us=4.0, p_a_delay_us=13.0,
                           a_duration_us=2.0, c_off_us=13.0, storage_t_us=2.0,
                           release_window_us=3.0)
        seq = standard_sequence(kind, p)
        dt = grid.dz / m.c
        n = int(round(seq.t_end_us / dt))
        oc, oa = seq.drive_samples(0.5 * dt * np.arange(2 * n + 1))
        triples = np.stack([oc[0:-1:2], oc[1::2], oc[2::2],
                            oa[0:-1:2], oa[1::2], oa[2::2]], axis=1)
        changes = 1 + np.count_nonzero((triples[1:] != triples[:-1]).any(axis=1))
        rows = _count_built_rows(monkeypatch)  # operators per build call
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_dynamics(seq, m, grid, classes)
        assert sum(rows) == changes
        # the changed steps are built _CHUNK_STEPS at a time, wherever they lie
        assert len(rows) == math.ceil(changes / _CHUNK_STEPS)
        if kind == "stationary":
            assert changes <= 8
        else:  # the ramps change the drives on every step, in chunks
            assert changes > 100 and len(rows) < sum(rows)

    def test_grid_resolution_warning(self):
        m = MediumParams.from_optical_depth(40.0, gamma_opt=1.0, c=5.0)
        grid = Grid(cells=8)
        p = ProtocolParams(omega_c=0.3,
                           probe_duration_us=2.0, t_end_us=8.0)
        seq = standard_sequence("slow_light", p)
        with pytest.warns(UserWarning, match="cells"):
            run_dynamics(seq, m, grid, SINGLE)


def _count_built_rows(monkeypatch) -> list[int]:
    """Record the number of operators each _Propagator.build call makes."""
    rows = []
    build = _Propagator.build

    def counted(self, omega_c, omega_a):
        table = build(self, omega_c, omega_a)
        rows.append(len(table[0]))
        return table

    monkeypatch.setattr(_Propagator, "build", counted)
    return rows


def _spy_paths(monkeypatch) -> list[bool]:
    """Record, per run_dynamics call, whether it integrates the half system."""
    paths = []
    halve = dynamics._halve

    def spied(state, *reads):
        half = halve(state, *reads)
        paths.append(half is not None)
        return half

    monkeypatch.setattr(dynamics, "_halve", spied)
    return paths


def _drive_of(sequence) -> ControlDrive:
    """The drives of `sequence`, sampled one time at a time."""
    def sample(t, channel):
        return complex(sequence.drive_samples(np.asarray([t]))[channel][0])
    return ControlDrive(lambda t: sample(t, 0), lambda t: sample(t, 1))


def _step_loop(sequence, m, grid, classes, state=None):
    """`sequence` run by step() calls, which integrate the full system, from
    `state` (a copy) or zero: the columns of run_dynamics' trace, recorded
    on its cadence, and the last state."""
    state = SimState.zeros(grid, classes) if state is None else state.copy()
    drive, dt = _drive_of(sequence), grid.dz / m.c
    every = _record_every(sequence, dt)
    n0 = round(state.t / dt)
    rows = []
    for n in range(n0, round(sequence.t_end_us / dt) + 1):
        if n > n0:
            probe = complex(sequence.probe_samples(np.asarray([state.t]))[0])
            step(state, drive, m, dt, inject_plus=probe)
        if n % every == 0:
            rows.append((state.t, abs(state.f[-1, 0]) ** 2,
                         abs(state.f[0, 1]) ** 2, state.spin_norm()))
    return np.array(rows).reshape(-1, 4).T, state


class TestPropagatorBuild:
    def test_steps_make_no_copy_of_the_state(self):
        # 200 held steps each way at K = 64, M = 32, whose atoms take 98 KB,
        # and 200 each way of the half system, may hold at most 2 KB more at
        # any time (measured: 560 bytes for advance and 616 for transpose,
        # on either system).  The first call is not traced: it makes the
        # views, and transpose its operators
        m = MediumParams(gamma_opt=0.8, gamma_spin=0.05, g2n=2.5, c=1.0)
        state = _state(grid_cells=32,
                       classes=make_spectral_classes(30.0, 64, "lorentzian"))
        half = dynamics._halve(state)
        state.a[:] = half.a[:] = 1e-3
        prop, half_prop = _Propagator(m, state), _Propagator(m, half)
        for p in (prop, half_prop):
            p.load(p.build(np.full((1, 3), 0.5 + 0j), np.full((1, 3), 0.2 + 0j)), 0)
        assert half_prop.half and half.f.dtype == float
        for run in (lambda n: prop.advance(state, n, 0.0j, 0.0j),
                    lambda n: prop.transpose(state),
                    lambda n: half_prop.advance(half, n, 0.0, 0.0),
                    lambda n: half_prop.transpose(half)):
            run(1)
            tracemalloc.start()
            try:
                for n in range(2, 202):
                    run(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 1024

    def _propagator(self):
        m = MediumParams(gamma_opt=0.8, gamma_spin=0.05, g2n=2.5, c=1.0)
        state = _state(grid_cells=4,
                       classes=make_spectral_classes(1600.0, 5, "lorentzian"))
        return _Propagator(m, state)

    def _loaded(self, prop, table, row):
        prop.load(table, row)
        return [getattr(prop, name).copy() for name in ("d", "w", "a_op", "f_op")]

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_chunk_rows_equal_single_step_builds(self, n):
        rng = np.random.default_rng(n)
        omega_c, omega_a = rng.normal(size=(2, n + 2, 3, 2)) @ [1.0, 1j]
        prop = self._propagator()
        # consecutive steps from two starts, and steps gathered from anywhere
        for steps in (np.arange(n), np.arange(2, n + 2),
                      np.sort(rng.permutation(n + 2)[:n])):
            table = prop.build(omega_c[steps], omega_a[steps])
            assert len(table[0]) == n
            for row, k in enumerate(steps):
                alone = prop.build(omega_c[k:k + 1], omega_a[k:k + 1])
                for got, want in zip(self._loaded(prop, table, row),
                                     self._loaded(prop, alone, 0)):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("system", ["full", "half"])
    @pytest.mark.parametrize("edge", [None, (0, 0), (0, -1), (1, 0), (1, -1)])
    def test_transpose_is_the_adjoint_of_advance(self, edge, system):
        # xi . advance(x) == transpose(xi) . x in the dot product of the
        # float views, for a ramp step's operator on the full system (K = 5)
        # and on a half system (K = 4, real drives); the edge covectors pick
        # one field at a boundary cell, where the advection's shift and
        # injection rows act, in both float columns of a complex field
        rng = np.random.default_rng(7)
        half = system == "half"
        classes = make_spectral_classes(1600.0, 4 if half else 5, "lorentzian")
        zero = _state(grid_cells=4, classes=classes)
        if half:
            zero = dynamics._halve(zero)
        omega_c, omega_a = rng.normal(size=(2, 1, 3, 2)) @ [1.0, 0.0 if half else 1j]
        m = MediumParams(gamma_opt=0.8, gamma_spin=0.05, g2n=2.5, c=1.0)
        prop = _Propagator(m, zero)
        assert prop.half == half
        prop.load(prop.build(omega_c, omega_a), 0)

        def random_state():
            state = zero.copy()
            for arr in (state.f, state.a):
                arr.view(float)[:] = rng.normal(size=arr.view(float).shape)
            return state

        def dot(u, v, part=lambda z: z):
            return sum((part(p.view(float)) * part(q.view(float))).sum()
                       for p, q in ((u.f, v.f), (u.a, v.a)))

        x, xi = random_state(), random_state()
        if edge is not None:
            xi.f[:] = 0.0
            xi.a[:] = 0.0
            _views(xi)[edge[0]][edge[1]] = 1.0 if half else 1.0 + 1.0j
        moved, back = x.copy(), xi.copy()
        prop.advance(moved, 1, 0.0, 0.0)
        prop.transpose(back)
        # the sums of the absolute terms bound each side's rounding
        scale = dot(xi, moved, abs) + dot(back, x, abs)
        assert abs(dot(xi, moved) - dot(back, x)) <= 1e-14 * scale


def _resume_setup(n_classes=3):
    """A gated memory run, its coupling off and on again between snapshots."""
    m = MediumParams.from_optical_depth(30.0, gamma_opt=1.0, c=5.0)
    grid = Grid(cells=16)
    classes = make_spectral_classes(30.0, n_classes, "lorentzian")
    seq = PulseSequence(
        events=[PulseEvent("P", 0.0, 6.0, 1.0, "gaussian", 2.0),
                PulseEvent("C", 0.0, 5.0, 1.5, "raised_cosine", 0.5),
                PulseEvent("C", 7.0, 3.0, 2.0, "raised_cosine", 0.5)],
        t_end_us=10.0, sample_rate=20.0)
    return m, grid, classes, seq


class TestResume:
    K = 3  # odd: the full path; TestResumeHalfPath takes the half path

    def test_resumed_runs_match_the_uninterrupted_run_bitwise(self):
        m, grid, classes, seq = _resume_setup(self.K)
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
                later = [s for s in snaps if s.t > start.t]
                assert len(part_snaps) == len(later)
                for mine, theirs in zip(part_snaps, later):
                    assert mine.t == theirs.t
                    assert np.array_equal(mine.f, theirs.f)
                    assert np.array_equal(mine.a, theirs.a)

    def test_times_are_exact_step_multiples(self):
        m, grid, classes, seq = _resume_setup(self.K)
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

    def test_state_at_the_end_runs_no_step(self):
        m, grid, classes, seq = _resume_setup(self.K)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full, snaps = run_dynamics(seq, m, grid, classes)
            part, part_snaps = run_dynamics(seq, m, grid, classes,
                                            initial_state=snaps[-1])
        assert part.t.tolist() == [full.t[-1]]
        assert np.array_equal(part_snaps[-1].a, snaps[-1].a)

    def test_state_at_the_end_off_the_cadence_records_nothing(self):
        m, grid, classes, seq = _resume_setup(self.K)
        seq = replace(seq, sample_rate=80.0 / 3.0)  # every 3 steps; 800 is not
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, snaps = run_dynamics(seq, m, grid, classes)
            part, _ = run_dynamics(seq, m, grid, classes,
                                   initial_state=snaps[-1])
        for name in ("t", "fwd_intensity", "bwd_intensity", "spin_norm"):
            column = getattr(part, name)
            assert column.shape == (0,) and column.dtype == float, name

    def test_rejects_state_off_the_run(self):
        m, grid, classes, seq = _resume_setup(self.K)
        dt = grid.dz / m.c
        bad = [SimState.zeros(Grid(cells=8), classes),
               SimState.zeros(grid, classes[:2]),
               SimState.zeros(grid,
                              make_spectral_classes(30.0, self.K, "gaussian"))]
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


class TestResumeHalfPath(TestResume):
    """TestResume's runs on a +/- paired class set: each run and each resume
    integrates the half system, and resumes stay bitwise."""

    K = 4

    @pytest.fixture(autouse=True)
    def _every_run_takes_the_half_path(self, monkeypatch):
        paths = _spy_paths(monkeypatch)
        yield
        assert all(paths)


class TestBalanceResidual:
    @pytest.mark.parametrize("args,expected", [
        ((10.0, 10.0), 0.0),
        ((0.5, 0.5), 0.0),
        ((10.0, 20.0), pytest.approx(1.0 / 3.0)),
    ])
    def test_examples(self, args, expected):
        assert balance_residual(*args) == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            balance_residual(0.0, 0.0)
        with pytest.raises(ValueError):
            balance_residual(1.0, -1.0)
        with pytest.raises(ValueError):
            balance_residual(-1.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 50.0), st.floats(0.01, 5.0))
    def test_zero_iff_proportional(self, omega_c, ratio):
        assert balance_residual(omega_c, omega_c) == 0.0
        residual = balance_residual(omega_c, ratio * omega_c)
        assert residual == pytest.approx(abs(1.0 - ratio) / (1.0 + ratio))
        assert 0.0 <= residual <= 1.0


class TestEffectiveVelocity:
    """The doubly driven polariton's drift velocity: group_velocity with
    both couplings, c (Omega_C^2 - Omega_A^2) / (Omega_C^2 + Omega_A^2 + g2n)."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
    def test_balanced_is_stationary(self, omega, g2n):
        assert group_velocity(MediumParams(g2n=g2n), omega, omega) == 0.0

    def test_direct_substitution(self):
        m = MediumParams(g2n=7.0, c=5.0)
        assert group_velocity(m, math.sqrt(2.0), 1.0) == pytest.approx(0.5)

    def test_all_zero_couplings_rejected(self):
        # all-zero couplings are no longer rejected: with both couplings
        # off an empty medium passes light at c and a loaded one stops it
        empty = MediumParams(g2n=0.0, c=5.0)
        assert group_velocity(empty, 0.0, 0.0) == empty.c
        assert group_velocity(MediumParams(g2n=7.0, c=5.0), 0.0, 0.0) == 0.0

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
        v_predicted = group_velocity(m, omega_c, omega_a)
        assert v_predicted == pytest.approx(m.c / 10.0)
        assert v_measured == pytest.approx(v_predicted, rel=0.15)


class TestDiagnostics:
    def test_excitation_zero_state(self):
        m = MediumParams(g2n=1.0)
        assert excitation_number(_state(), m) == 0.0

    def test_excitation_single_cell_unit_field(self):
        grid = Grid(cells=1)  # dz = 1
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
            p = ProtocolParams(omega_c=1.7,
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
            p = ProtocolParams(omega_c=omega_c,
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
        p = ProtocolParams(omega_c=omega_c, omega_a=omega_c,
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
        assert drift <= 0.02  # of the unit-length medium

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    def test_real_inputs_keep_fields_real_and_pairs_mirrored(self, shape):
        # the premise of run_dynamics' half system, on the full path: with
        # real drives and probe and +/- paired classes, step() keeps E real
        # and class -delta at (-P+*, -P-*, S*) of class delta, to rounding.
        # Measured over the run at K = 2, 6 and 8 of either line shape:
        # |Im E| <= 4.1e-17 of max|E|, pair residual <= 1.4e-16 of max|a|
        m = MediumParams.from_optical_depth(100.0, gamma_opt=1.0, c=4.0)
        grid = Grid(cells=16)
        classes = make_spectral_classes(30.0, 6, shape)
        seq = PulseSequence(
            events=[PulseEvent("P", 0.0, 6.0, 1.0, "gaussian", 2.0),
                    PulseEvent("C", 0.0, 16.0, 2.0, "raised_cosine", 1.0),
                    PulseEvent("A", 6.0, 5.0, 1.5, "raised_cosine", 1.0)],
            t_end_us=16.0, sample_rate=20.0)
        state = SimState.zeros(grid, classes)
        drive, dt = _drive_of(seq), grid.dz / m.c
        worst = np.zeros(4)  # max |Im E|, |E|, pair residual, |a|
        for _ in range(round(seq.t_end_us / dt)):
            probe = seq.probe_samples(np.asarray([state.t]))[0]
            step(state, drive, m, dt, inject_plus=probe)
            mirror = state.a.conj() * [-1.0, -1.0, 1.0]
            worst = np.maximum(worst, [np.abs(state.f.imag).max(),
                                       np.abs(state.f).max(),
                                       np.abs(state.a[:, ::-1] - mirror).max(),
                                       np.abs(state.a).max()])
        assert worst[0] <= 1e-15 * worst[1]
        assert worst[2] <= 1e-15 * worst[3]

    def test_step_sequence_equals_run_dynamics(self, monkeypatch):
        # event edges deliberately off the step grid so both paths sample
        # identical envelope values; raised-cosine ramps change the drives on
        # every step for 2 us, so run_dynamics builds their operators in chunks.
        # K = 5 is odd, so run_dynamics integrates the full system, as step()
        # does: on the half path the two agree to rounding (TestHalfSystem)
        m = MediumParams.from_optical_depth(40.0, gamma_opt=1.0, c=5.0)
        grid = Grid(cells=16)
        classes = make_spectral_classes(30.0, 5, "lorentzian")
        rows = _count_built_rows(monkeypatch)
        for shape, ramp in (("rect", 0.0), ("raised_cosine", 2.0)):
            seq = PulseSequence(
                events=[PulseEvent("P", 0.013, 11.1, 1.0, "gaussian", 3.7),
                        PulseEvent("C", 0.0, 13.99, 1.5, shape, ramp),
                        PulseEvent("A", 5.003, 6.0, 0.7, shape, ramp)],
                t_end_us=14.0, sample_rate=50.0)
            rows.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, snaps = run_dynamics(seq, m, grid, classes)
            assert (max(rows) == 16) == (shape == "raised_cosine")
            state = SimState.zeros(grid, classes)
            drive = ControlDrive(
                lambda t: complex(seq.channel_envelope("C", np.asarray([t]))[0]),
                lambda t: complex(seq.channel_envelope("A", np.asarray([t]))[0]))
            dt = grid.dz / m.c
            for _ in range(int(round(14.0 / dt))):
                inject = complex(seq.probe_samples(np.asarray([state.t]))[0])
                step(state, drive, m, dt, inject_plus=inject)
            final = snaps[-1]
            assert np.array_equal(state.f, final.f)
            assert np.array_equal(state.a, final.a)
            assert state.t == final.t


class _Phased:
    """A sequence whose C drive or probe samples carry a complex phase."""

    def __init__(self, sequence, drive=1.0, probe=1.0):
        self.sequence, self.drive, self.probe = sequence, drive, probe

    def __getattr__(self, name):
        return getattr(self.sequence, name)

    def drive_samples(self, t):
        omega_c, omega_a = self.sequence.drive_samples(t)
        return omega_c * self.drive, omega_a

    def probe_samples(self, t):
        return self.sequence.probe_samples(t) * self.probe


class TestHalfSystem:
    M = MediumParams.from_optical_depth(30.0, gamma_opt=1.0, c=4.0)
    GRID = Grid(cells=16)
    BASE = dict(probe_duration_us=2.0, release_window_us=8.0, sample_rate=20.0)
    SEQUENCES = {
        "memory": ("memory", dict(omega_c=2.0, c_off_us=6.0, c_ramp_us=1.0,
                                  storage_t_us=3.0)),
        "balanced": ("stationary", dict(omega_c=2.0, omega_a=2.0,
                                        p_a_delay_us=7.0, a_duration_us=4.0)),
        "imbalanced": ("stationary", dict(omega_c=2.0, omega_a=1.0,
                                          p_a_delay_us=7.0, a_duration_us=4.0)),
        "slow_light": ("slow_light", dict(omega_c=2.0)),
    }

    def _sequence(self, name):
        kind, params = self.SEQUENCES[name]
        return standard_sequence(kind, ProtocolParams(**params, **self.BASE))

    def _run(self, sequence, classes, state=None, until_step=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the probe spans 4 cells
            trace, snaps = run_dynamics(sequence, self.M, self.GRID, classes,
                                        initial_state=state, until_step=until_step)
        columns = (trace.t, trace.fwd_intensity, trace.bwd_intensity,
                   trace.spin_norm)
        return columns, snaps[-1]

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_half_path_agrees_with_step_calls(self, name, monkeypatch):
        # measured at K = 4 and 6: records within 3.4e-15 of each column's
        # maximum, the final fields and atoms within 1.4e-15 of theirs
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        sequence = self._sequence(name)
        paths = _spy_paths(monkeypatch)
        columns, final = self._run(sequence, classes)
        assert paths == [True]
        want, state = _step_loop(sequence, self.M, self.GRID, classes)
        assert np.array_equal(columns[0], want[0])
        for got, ref in zip(columns[1:], want[1:]):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        for got, ref in ((final.f, state.f), (final.a, state.a)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        mirror = final.a[:, ::-1].conj() * [-1.0, -1.0, 1.0]
        assert not final.f.imag.any() and np.array_equal(final.a, mirror)

    @pytest.mark.parametrize("broken", ["weight_ulp", "unpaired_delta",
                                        "complex_drive", "complex_probe",
                                        "complex_fields", "unmirrored_pair"])
    def test_broken_symmetry_takes_the_full_path(self, broken, monkeypatch):
        # the full path is step()'s, so it equals step() calls bit for bit
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        sequence = self._sequence("balanced")
        state = None
        first = classes[0]
        if broken == "weight_ulp":
            classes[0] = SpectralClass(first.delta_j,
                                       float(np.nextafter(first.weight, 1.0)))
        elif broken == "unpaired_delta":
            classes[0] = SpectralClass(float(np.nextafter(first.delta_j, 0.0)),
                                       first.weight)
        elif broken == "complex_drive":
            sequence = _Phased(sequence, drive=np.exp(0.3j))
        elif broken == "complex_probe":
            sequence = _Phased(sequence, probe=np.exp(0.3j))
        else:  # the mirrored state of a half-path run at 9 us, then broken
            _, state = self._run(sequence, classes, until_step=576)
            if broken == "complex_fields":
                state.f[3, 0] += 1e-3j
            else:
                state.a[3, 0, 2] += 1e-3
        paths = _spy_paths(monkeypatch)
        columns, final = self._run(sequence, classes, state)
        assert paths == [False]
        want, ref = _step_loop(sequence, self.M, self.GRID, classes, state)
        for got, expected in zip(columns, want):
            assert np.array_equal(got, expected)
        assert np.array_equal(final.f, ref.f) and np.array_equal(final.a, ref.a)


def _spy_blocks(monkeypatch) -> list[tuple[int, int]]:
    """Record (global step it ends at, steps) of each advance_block call."""
    blocks = []
    advance_block = _Propagator.advance_block

    def spied(self, state, n, inject, longest):
        blocks.append((n, len(inject)))
        return advance_block(self, state, n, inject, longest)

    monkeypatch.setattr(_Propagator, "advance_block", spied)
    return blocks


class TestBlocks:
    """On the half system run_dynamics steps each stretch of one operator
    between two block starts (dynamics._block_starts) as one block.  Blocks
    regroup the sums of single steps, so they agree with them to rounding;
    the full path and step() never take one."""

    def _both(self, sequence, m, grid, classes, monkeypatch):
        """Records and final state of `sequence` run in blocks, then with
        every block taken as single steps; checks that the first run took
        blocks and the second none."""
        runs = []
        for shortest in (dynamics._SHORTEST_BLOCK, math.inf):
            monkeypatch.setattr(dynamics, "_SHORTEST_BLOCK", shortest)
            blocks = _spy_blocks(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the probe spans few cells
                trace, snaps = run_dynamics(sequence, m, grid, classes)
            assert bool(blocks) == (shortest != math.inf)
            runs.append(([trace.fwd_intensity, trace.bwd_intensity,
                          trace.spin_norm], snaps[-1]))
        return runs

    def _check(self, runs, bound):
        (blocked, final), (single, ref) = runs
        for got, want in zip(blocked, single):
            assert np.abs(got - want).max() <= bound * np.abs(want).max()
        for got, want in ((final.f, ref.f), (final.a, ref.a)):
            assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("name", list(TestHalfSystem.SEQUENCES))
    def test_blocks_agree_with_single_steps(self, name, monkeypatch):
        # TestHalfSystem's sequences, recording every 16 steps so that the
        # blocks run up to 16 steps.  Measured at K = 4, 6 and 8, with
        # blocks of up to 16 and 32 steps: records within 9.3e-15 of each
        # column's maximum, the final fields and atoms within 7.9e-15
        half = TestHalfSystem()
        sequence = replace(half._sequence(name), sample_rate=4.0)
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        self._check(self._both(sequence, half.M, half.GRID, classes,
                               monkeypatch), 2e-14)

    def test_stationary_run_at_64_classes(self, monkeypatch):
        # a reduced criterion-3 run: 64 classes, 24 cells, OD 200, both
        # couplings 4 rad/us.  Measured: records within 3.6e-15 of each
        # column's maximum, the final state within 3.4e-15
        m = MediumParams.from_optical_depth(200.0, gamma_opt=1.0, c=4.0)
        sequence = standard_sequence("stationary", ProtocolParams(
            omega_c=4.0, omega_a=4.0, probe_duration_us=3.0, p_a_delay_us=9.0,
            a_duration_us=6.0, release_window_us=8.0, sample_rate=5.0))
        classes = make_spectral_classes(30.0, 64, "lorentzian")
        self._check(self._both(sequence, m, Grid(cells=24), classes,
                               monkeypatch), 1e-14)

    def test_blocks_start_where_the_rule_says(self, monkeypatch):
        # the memory sequence of TestHalfSystem, recording every 8 steps,
        # with a snapshot in each held stretch (the coupling on, dark and on
        # again): every block ends at the next block start, a snapshot
        # ends one, and the stretches too short for a block, such as every
        # step of the ramps, took single steps
        half = TestHalfSystem()
        sequence = replace(half._sequence("memory"), sample_rate=8.0)
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        dt = half.GRID.dz / half.M.c
        snaps = [101, 455, 1005]
        blocks = _spy_blocks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_dynamics(sequence, half.M, half.GRID, classes,
                         snapshot_steps=snaps)
        n_steps = round(sequence.t_end_us / dt)
        omega_c, omega_a, _ = dynamics._step_reads(sequence, dt, 0, n_steps)
        changed = np.ones(n_steps, dtype=bool)  # rows unlike the step before's
        changed[1:] = dynamics._differ((omega_c[1:], omega_a[1:]), (omega_c, omega_a))
        starts = [*np.flatnonzero(dynamics._block_starts(
            0, changed, _record_every(sequence, dt), snaps)), n_steps]
        want = [(end, end - start) for start, end in zip(starts, starts[1:])
                if end - start >= dynamics._SHORTEST_BLOCK]
        assert blocks == want
        assert {(101, 5), (455, 7), (1005, 5)} <= set(blocks)
        assert changed.sum() > 100  # the ramps change every step's rows

    def test_full_path_and_step_take_no_block(self, monkeypatch):
        blocks = _spy_blocks(monkeypatch)
        half = TestHalfSystem()
        sequence = replace(half._sequence("balanced"), sample_rate=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_dynamics(sequence, half.M, half.GRID,
                         make_spectral_classes(30.0, 5, "lorentzian"))
            _step_loop(sequence, half.M, half.GRID,
                       make_spectral_classes(30.0, 4, "lorentzian"))
        assert blocks == []

    @settings(max_examples=200, deadline=None)
    @given(n0=st.integers(0, 10_000), every=st.integers(1, 100),
           changed=st.lists(st.booleans(), min_size=1, max_size=300),
           snaps=st.lists(st.integers(-10, 310), max_size=6))
    def test_blocks_start_on_the_grid(self, n0, every, changed, snaps):
        # every run of one record cadence starts a block at each step of
        # the block grid, whatever its start, drive rows and snapshots, so
        # a sweep's trunk and points hold the same state there
        changed, snaps = np.array(changed), [n0 + s for s in snaps]
        starts = dynamics._block_starts(n0, changed, every, snaps)
        n = np.arange(n0, n0 + len(changed))
        grid = dynamics._grid_start(n, every)
        back = n - grid  # steps back to the grid
        assert ((back >= 0) & (back < min(every, dynamics._BLOCK_STEPS))).all()
        assert [dynamics._grid_start(int(s), every) for s in n[:3]] == list(grid[:3])
        assert starts[grid[grid >= n0] - n0].all()
        assert starts[n % dynamics._FINITE_CHECK_EVERY == 0].all()
        snapped = np.isin(n, snaps)
        assert np.array_equal(starts, changed | (back == 0) | snapped)

    def test_a_block_after_a_load_uses_the_loaded_operator(self):
        # a block of one operator, then a load of another: the next block
        # must apply the new one, from operators made again after the load
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        m = MediumParams.from_optical_depth(30.0, gamma_opt=1.0, c=4.0)
        state = dynamics._halve(_state(grid_cells=8, classes=classes))
        rng = np.random.default_rng(3)
        for arr in (state.f, state.a):
            arr.view(float)[:] = rng.normal(size=arr.view(float).shape)
        prop = _Propagator(m, state)
        inject = rng.normal(size=12)
        blocked, single = state.copy(), state.copy()
        for drive in (1.5, 0.4):
            prop.load(prop.build(np.full((1, 3), drive + 0j),
                                 np.full((1, 3), 0.3 + 0j)), 0)
            prop.advance_block(blocked, 12, inject, 16)
            for i, value in enumerate(inject):
                prop.advance(single, i + 1, value, 0.0)
        for got, want in ((blocked.f, single.f), (blocked.a, single.a)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert blocked.t == single.t == 12 * prop.dt


def _spectral_output(seq, m, classes, times):
    """|E+(1)|^2 at `times` (on the record grid) of a slow-light run, from
    the probe's spectrum times the medium's transfer function
    exp(i (d/2) chi(w) + i w / c), chi over the run's classes: an answer
    that owes nothing to the step code.  The probe and the output sit on
    2^14 record intervals (819 us at 20 records/us), so the periodic
    transform wraps nothing back into the window."""
    dt = 1.0 / seq.sample_rate
    w = 2.0 * np.pi * np.fft.fftfreq(2 ** 14, dt)
    chi = susceptibility(w, seq.writing_omega_c, m, classes)
    transfer = np.exp(0.5j * m.optical_depth * chi + 1j * w / m.c)
    probe = seq.probe_samples(dt * np.arange(2 ** 14))
    output = np.fft.fft(np.fft.ifft(probe) * transfer)
    return np.abs(output[np.rint(times / dt).astype(int)]) ** 2


class TestSpectralOracle:
    """The slow-light run is one time-invariant stretch from a zero state,
    so its output is the spectral propagation of _spectral_output."""

    def test_slow_light_run_matches_spectral_propagation(self, monkeypatch):
        # Measured at M = 32, K = 8: centroid delays 3.821954 against
        # 3.821948 us (1.6e-6 relative; 5.4e-6 at M = 16, 5.6e-7 at
        # M = 64), and |E+(1)|^2 within 4.4e-4 of its peak (1.8e-3 at M = 16)
        m, grid, classes, seq = _slow_light_setup(10.0, cells=32, duration=4.0,
                                                  n_classes=8, t_end=24.0)
        paths = _spy_paths(monkeypatch)
        trace, _ = run_dynamics(seq, m, grid, classes)
        assert paths == [True]
        spectral = _spectral_output(seq, m, classes, trace.t)
        ran = trace.fwd_intensity
        # centroid delays after the probe's peak, at 1.5 FWHM
        delays = [(trace.t * i).sum() / i.sum() - 6.0 for i in (ran, spectral)]
        assert abs(delays[0] - delays[1]) <= 5e-6 * delays[1]
        assert np.abs(ran - spectral).max() <= 1e-3 * spectral.max()
        # the paper's d / Omega_C^2 (3.46 us) misses it by 9%
        assert abs(delays[1] - 10.0 / 1.7 ** 2) > 0.05 * delays[1]

    @pytest.mark.parametrize("depth, delay_bound, peak_bound",
                             [(10.0, 3e-6, 1e-5), (30.0, 1.5e-5, 2e-4)],
                             ids=["d10", "d30"])
    def test_slow_light_cfg_matches_spectral_propagation(
            self, depth, delay_bound, peak_bound, monkeypatch):
        # configs/slow_light.cfg at criterion 5's depths (M = 64, K = 32).
        # Measured: slow_light_delay 3.3847304 against 3.3847360 us at
        # d = 10 (1.7e-6 relative) and 10.141891 against 10.141980 us at
        # d = 30 (8.8e-6), the spectral value moving by < 1e-13 over
        # 2^14..2^16 points; |E+(1)|^2 within 5.6e-6 and 1.2e-4 of its peak
        cfg = parse_config(CONFIGS.joinpath("slow_light.cfg").read_text("utf-8"))
        m = build_medium(replace(cfg, medium=replace(cfg.medium,
                                                     optical_depth=depth)))
        grid, classes = Grid(cells=cfg.grid.cells), build_classes(cfg)
        seq = standard_sequence(cfg.protocol.kind, build_protocol(cfg))
        paths = _spy_paths(monkeypatch)
        trace, _ = run_dynamics(seq, m, grid, classes)
        assert paths == [True]
        spectral = replace(trace, fwd_intensity=_spectral_output(
            seq, m, classes, trace.t))
        (ran, predicted), (oracle, _) = (slow_light_delay(tr, seq, m)
                                         for tr in (trace, spectral))
        assert abs(ran - oracle) <= delay_bound * oracle
        assert (np.abs(trace.fwd_intensity - spectral.fwd_intensity).max()
                <= peak_bound * spectral.fwd_intensity.max())
        # the paper's 1/v_g - 1/c misses it by 2.2-2.4%
        assert abs(predicted - oracle) > 0.02 * oracle
