import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from slowlight.analysis import fit_decay
from slowlight.dynamics import Grid, SimState, run_dynamics, switching_readout
from slowlight.experiment import (ProtocolParams, PulseEvent, PulseSequence,
                                  released_peak, standard_sequence,
                                  sweep_delay, sweep_duration)
from slowlight.medium import MediumParams, make_spectral_classes

SINGLE = make_spectral_classes(0.0, 1, "single")


class TestPulseEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseEvent("X", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PulseEvent("P", 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PulseEvent("P", 0.0, 1.0, 1.0, "sawtooth")
        with pytest.raises(ValueError):
            PulseEvent("C", 0.0, 2.0, 1.0, "raised_cosine", 1.5)  # ramp > dur/2
        with pytest.raises(ValueError):
            PulseEvent("P", 0.0, 2.0, 1.0, "gaussian", 0.0)

    def test_raised_cosine_profile(self):
        ev = PulseEvent("C", 1.0, 10.0, 2.0, "raised_cosine", 2.0)
        t = np.array([0.5, 1.0, 2.0, 3.0, 6.0, 10.0, 11.0 - 1e-12, 11.5])
        env = ev.envelope(t)
        assert env[0] == 0.0 and env[1] == 0.0  # before and at ramp start
        assert env[2] == pytest.approx(1.0)     # half way up the ramp
        assert env[3] == pytest.approx(2.0)
        assert env[4] == pytest.approx(2.0)
        assert env[6] == pytest.approx(0.0, abs=1e-10)
        assert env[7] == 0.0

    def test_gaussian_profile_peak_at_center(self):
        ev = PulseEvent("P", 0.0, 30.0, 1.0, "gaussian", 10.0)
        t = np.linspace(0.0, 30.0, 301)
        env = ev.envelope(t)
        assert t[np.argmax(env)] == pytest.approx(15.0)
        half = env.max() / 2.0
        width = t[env >= half][-1] - t[env >= half][0]
        assert width == pytest.approx(10.0, abs=0.2)


class TestPulseSequence:
    def test_events_sorted_and_validated(self):
        seq = PulseSequence(events=[PulseEvent("C", 5.0, 3.0, 1.0),
                                    PulseEvent("P", 1.0, 2.0, 1.0)],
                            t_end_us=10.0)
        assert [e.channel for e in seq.events] == ["P", "C"]

    def test_rejects_event_outside_window(self):
        with pytest.raises(ValueError, match="outside"):
            PulseSequence(events=[PulseEvent("P", 8.0, 5.0, 1.0)], t_end_us=10.0)

    def test_rejects_overlap_same_channel(self):
        with pytest.raises(ValueError, match="overlap"):
            PulseSequence(events=[PulseEvent("C", 0.0, 5.0, 1.0),
                                  PulseEvent("C", 4.0, 3.0, 1.0)], t_end_us=10.0)

    @pytest.mark.parametrize("channel", ["C", "A"])
    def test_rejects_detuning_conflict_on_coupling_channel(self, channel):
        with pytest.raises(ValueError, match="detuning"):
            PulseSequence(events=[PulseEvent(channel, 0.0, 4.0, 1.0, detuning=0.5),
                                  PulseEvent(channel, 5.0, 3.0, 1.0)],
                          t_end_us=10.0)
        seq = PulseSequence(events=[PulseEvent(channel, 0.0, 4.0, 1.0, detuning=0.5),
                                    PulseEvent(channel, 5.0, 3.0, 2.0, detuning=0.5),
                                    PulseEvent("Y", 6.0, 1.0, 0.4, detuning=9.0)],
                            t_end_us=10.0)
        detunings = seq.drive_samples(np.array([0.0]))[2:]
        assert detunings == ((0.5, 0.0) if channel == "C" else (0.0, 0.5))


class TestStandardSequence:
    def test_stationary_backward_onset_delay(self):
        p = ProtocolParams(kind="stationary", omega_c=1.0, omega_a=1.0,
                           probe_start_us=2.0, p_a_delay_us=3.0,
                           a_duration_us=4.0)
        with pytest.warns(UserWarning, match="before the probe"):
            seq = standard_sequence("stationary", p)
        a_events = [e for e in seq.events if e.channel == "A"]
        assert len(a_events) == 1
        assert a_events[0].t_start == 5.0  # probe start + 3 us

    def test_stationary_warns_when_a_fires_during_injection(self):
        p = ProtocolParams(kind="stationary", omega_c=1.0, omega_a=1.0,
                           p_a_delay_us=3.0, a_duration_us=4.0)
        with pytest.warns(UserWarning, match="before the probe"):
            standard_sequence("stationary", p)

    def test_memory_zero_delay_is_contiguous(self):
        p = ProtocolParams(kind="memory", omega_c=1.0, storage_t_us=0.0,
                           c_off_us=31.0)
        seq = standard_sequence("memory", p)
        c_events = [e for e in seq.events if e.channel == "C"]
        assert len(c_events) == 2
        assert c_events[1].t_start == c_events[0].t_end

    @pytest.mark.parametrize("t_store", [0.0, 7.5, 22.0])
    def test_memory_dark_interval_equals_delay_exactly(self, t_store):
        p = ProtocolParams(kind="memory", omega_c=1.2, storage_t_us=t_store,
                           c_off_us=31.0, c_ramp_us=2.0)
        seq = standard_sequence("memory", p)
        first, second = (e for e in seq.events if e.channel == "C")
        assert second.t_start - first.t_end == t_store
        if t_store > 0.0:
            gap = np.linspace(first.t_end, second.t_start, 101)[1:-1]
            assert np.all(seq.channel_envelope("C", gap) == 0.0)

    def test_memory_retrieval_amplitude_scaled(self):
        p = ProtocolParams(kind="memory", omega_c=1.0, storage_t_us=5.0,
                           c_off_us=31.0)
        seq = standard_sequence("memory", p)
        first, second = (e for e in seq.events if e.channel == "C")
        assert second.peak == pytest.approx(math.sqrt(2.0) * first.peak)

    def test_rejects_unknown_kind_and_negative_delays(self):
        with pytest.raises(ValueError):
            standard_sequence("echo", ProtocolParams())
        with pytest.raises(ValueError):
            standard_sequence("memory", ProtocolParams(storage_t_us=-1.0))


def _mini_setup(optical_depth=40.0, n_classes=4, cells=24):
    m = MediumParams.from_optical_depth(optical_depth, gamma_opt=1.0, c=5.0)
    grid = Grid(cells=cells)
    classes = make_spectral_classes(30.0, n_classes, "lorentzian")
    return m, grid, classes


class TestRunExperiment:
    def test_zero_probe_zero_trace(self):
        m, grid, classes = _mini_setup()
        p = ProtocolParams(kind="slow_light", omega_c=1.5, probe_amplitude=0.0,
                           probe_duration_us=4.0, t_end_us=14.0)
        with pytest.warns(UserWarning, match="probe pulse spans"):
            trace, _ = run_dynamics(standard_sequence("slow_light", p),
                                    m, grid, classes)
        assert np.all(trace.fwd_intensity == 0.0)

    def test_stationary_with_zero_backward_matches_slow_light_bitwise(self):
        m, grid, classes = _mini_setup()
        common = dict(omega_c=1.5, probe_duration_us=4.0, t_end_us=16.0,
                      sample_rate=20.0)
        slow = standard_sequence("slow_light", ProtocolParams(
            kind="slow_light", **common))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            freeze = standard_sequence("stationary", ProtocolParams(
                kind="stationary", omega_a=0.0, a_duration_us=5.0, **common))
            t_slow, _ = run_dynamics(slow, m, grid, classes)
            t_frozen, _ = run_dynamics(freeze, m, grid, classes)
        assert np.array_equal(t_slow.fwd_intensity, t_frozen.fwd_intensity)
        assert np.array_equal(t_slow.bwd_intensity, t_frozen.bwd_intensity)
        assert np.array_equal(t_slow.spin_norm, t_frozen.spin_norm)

    def test_marker_integrity(self):
        m, grid, classes = _mini_setup()
        p = ProtocolParams(kind="memory", omega_c=1.5, probe_duration_us=4.0,
                           storage_t_us=3.0, c_off_us=13.0,
                           release_window_us=10.0)
        seq = standard_sequence("memory", p)
        with pytest.warns(UserWarning, match="probe pulse spans"):
            trace, _ = run_dynamics(seq, m, grid, classes)
        assert len(trace.annotations) == len(seq.events)
        for event in seq.events:
            assert trace.annotations.count(event) == 1


class TestSweepDelay:
    def test_input_validation(self):
        m, grid, classes = _mini_setup()
        base = ProtocolParams(kind="memory", omega_c=1.5)
        with pytest.raises(ValueError):
            sweep_delay([], base, m, grid, classes)
        with pytest.raises(ValueError):
            sweep_delay([-2.0], base, m, grid, classes)

    def test_memory_sweep_monotone_and_spin_limited(self):
        # homogeneous ensemble: the retrieved intensity decays through the
        # spin coherence rate alone, strictly monotonically
        m = MediumParams.from_optical_depth(40.0, gamma_opt=1.0, c=5.0,
                                            t2_spin=25.0)
        grid = Grid(cells=24)
        base = ProtocolParams(kind="memory", omega_c=2.0, probe_duration_us=6.0,
                              c_off_us=19.0, c_ramp_us=1.5,
                              release_window_us=12.0, sample_rate=20.0)
        delays = np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
        with pytest.warns(UserWarning, match="probe pulse spans"):
            result = sweep_delay(delays, base, m, grid, SINGLE)
        assert result.values.tolist() == delays.tolist()
        assert result.intensities[0] == result.intensities.max()
        assert np.all(np.diff(result.intensities) <= 1e-9)
        fit = fit_decay(list(zip(delays, result.intensities)), "exponential")
        assert fit.tau == pytest.approx(25.0, rel=0.10)

    def test_ensemble_peaks_never_exceed_initial(self):
        # a 24-class ensemble resolves the dephasing decay out to ~4 half
        # lives; within that range the retrieved peaks fall monotonically
        m, grid, classes = _mini_setup(n_classes=24)
        base = ProtocolParams(kind="memory", omega_c=2.0, probe_duration_us=6.0,
                              c_off_us=19.0, c_ramp_us=1.5,
                              release_window_us=12.0, sample_rate=20.0)
        with pytest.warns(UserWarning, match="probe pulse spans"):
            result = sweep_delay([0.0, 3.0, 6.0, 9.0], base, m, grid, classes)
        assert np.all(result.intensities <= result.intensities[0] * (1 + 1e-9))
        assert np.all(np.diff(result.intensities) <= 1e-9)

    def test_threads_do_not_change_results(self):
        m, grid, classes = _mini_setup(n_classes=2)
        base = ProtocolParams(kind="memory", omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, release_window_us=8.0)
        with pytest.warns(UserWarning, match="probe pulse spans"):
            serial = sweep_delay([0.0, 2.0, 4.0], base, m, grid, classes,
                                 threads=1)
        with pytest.warns(UserWarning, match="probe pulse spans"):
            threaded = sweep_delay([0.0, 2.0, 4.0], base, m, grid, classes,
                                   threads=3)
        assert np.array_equal(serial.intensities, threaded.intensities)


class TestSweepDuration:
    def test_input_validation(self):
        m, grid, classes = _mini_setup()
        base = ProtocolParams(kind="stationary", omega_c=1.0, omega_a=1.0)
        with pytest.raises(ValueError):
            sweep_duration([], base, m, grid, classes)
        with pytest.raises(ValueError):
            sweep_duration([0.0, 2.0], base, m, grid, classes)
        for omega_c, omega_a in ((1.0, -0.5), (0.0, 0.0)):
            couplings = replace(base, omega_c=omega_c, omega_a=omega_a)
            with pytest.raises(ValueError, match="Rabi frequenc"):
                sweep_duration([2.0], couplings, m, grid, classes)

    def test_backward_coupling_warning_once_per_sweep(self):
        m, grid, classes = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(kind="stationary", omega_c=2.0, omega_a=2.0,
                              probe_duration_us=4.0, p_a_delay_us=3.0,
                              release_window_us=12.0, sample_rate=10.0)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            sweep_duration([1.0, 2.0, 3.0], base, m, grid, classes)
        early = [w for w in record if "before the probe" in str(w.message)]
        assert len(early) == 1 and early[0].filename == __file__
        assert "all 3 points of the a_duration_us sweep" in str(early[0].message)

    def test_short_trap_approaches_untrapped_transmission(self):
        m = MediumParams.from_optical_depth(200.0, gamma_opt=1.0, c=4.0)
        grid = Grid(cells=48)
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        common = dict(omega_c=2.0, probe_duration_us=6.0, sample_rate=20.0,
                      release_window_us=40.0, peak_guard_us=1.0)
        slow_seq = standard_sequence("slow_light", ProtocolParams(
            kind="slow_light", **common))
        with pytest.warns(UserWarning, match="probe pulse spans"):
            slow_trace, _ = run_dynamics(slow_seq, m, grid, classes)
        _, slow_peak = released_peak(slow_trace, 1.0)
        base = ProtocolParams(kind="stationary", omega_a=2.0,
                              p_a_delay_us=20.0, **common)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sweep_duration([0.02], base, m, grid, classes)
        assert result.intensities[0] == pytest.approx(slow_peak, rel=0.15)


def _independent(kind, field, values, base, m, grid, classes):
    """(trace, t_peak, peak) of each point run on its own from t = 0."""
    out = []
    for value in values:
        p = replace(base, kind=kind, t_end_us=None, **{field: value})
        seq = standard_sequence(kind, p)
        trace, _ = run_dynamics(seq, m, grid, classes)
        out.append((trace, *released_peak(trace, seq.release_time_us
                                          + base.peak_guard_us)))
    return out


def _assert_same(result, reference):
    assert np.array_equal(result.intensities, [r[2] for r in reference])
    assert np.array_equal(result.peak_times, [r[1] for r in reference])
    for trace, (ref, _, _) in zip(result.traces, reference):
        for name in ("t", "fwd_intensity", "bwd_intensity", "spin_norm"):
            assert np.array_equal(getattr(trace, name), getattr(ref, name))
        assert trace.annotations == ref.annotations


def _probe_warnings(record):
    return [w for w in record if "probe pulse spans" in str(w.message)]


class TestBranchedSweeps:
    """Sweeps integrate one trunk and branch each point off a snapshot of
    it; every result must equal an independent run bit for bit."""

    DELAYS = [4.0, 0.0, 2.5, 4.0, 1.3]  # unsorted, duplicated, T = 0

    @pytest.mark.parametrize("threads", [1, 3])
    def test_delay_sweep_matches_independent_runs(self, threads):
        m, grid, classes = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(kind="memory", omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, p_a_delay_us=13.0, omega_a=2.0,
                              release_window_us=8.0, sample_rate=20.0)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = sweep_delay(self.DELAYS, base, m, grid, classes,
                                 keep_traces=True, threads=threads)
        probe = _probe_warnings(record)
        assert len(probe) == 1 and probe[0].filename == __file__
        assert "storage_t_us sweep" in str(probe[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _assert_same(result, _independent(
                "memory", "storage_t_us", self.DELAYS, base, m, grid, classes))
        assert result.simulated_steps < 0.6 * result.independent_steps

    def test_duration_sweep_matches_independent_runs(self):
        m, grid, classes = _mini_setup(optical_depth=200.0, n_classes=2,
                                       cells=16)
        base = ProtocolParams(kind="stationary", omega_c=2.0, omega_a=2.0,
                              probe_duration_us=4.0, p_a_delay_us=13.0,
                              release_window_us=8.0, sample_rate=10.0)
        durations = [2.0, 0.5, 3.5, 2.0]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = sweep_duration(durations, base, m, grid, classes,
                                    keep_traces=True, threads=3)
        probe = _probe_warnings(record)
        assert len(probe) == 1 and probe[0].filename == __file__
        assert "a_duration_us sweep" in str(probe[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _assert_same(result, _independent(
                "stationary", "a_duration_us", durations, base, m, grid,
                classes))
        assert result.simulated_steps < result.independent_steps

    def test_single_point_is_its_own_trunk(self):
        m, grid, classes = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(kind="memory", omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, release_window_us=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sweep_delay([3.0], base, m, grid, classes,
                                 keep_traces=True)
            _assert_same(result, _independent(
                "memory", "storage_t_us", [3.0], base, m, grid, classes))
        assert result.simulated_steps == result.independent_steps == 1920


class TestSwitchingReadout:
    def _stored_state(self, amplitude=0.1):
        grid = Grid(cells=16)
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        state = SimState.zeros(grid, classes)
        z = grid.z
        state.s[:, :] = amplitude * np.exp(-(((z[:, None] - 0.5) / 0.2) ** 2))
        return state

    def test_nothing_stored_reads_zero(self):
        state = SimState.zeros(Grid(cells=8), SINGLE)
        assert switching_readout(state, 1.0, 0.5) == 0.0

    def test_zero_power_reads_zero_and_keeps_state(self):
        state = self._stored_state()
        before = state.s.copy()
        assert switching_readout(state, 0.0, 1.0) == 0.0
        assert np.array_equal(state.s, before)

    def test_reads_fraction_and_depletes(self):
        state = self._stored_state()
        norm0 = state.spin_norm()
        signal = switching_readout(state, 0.5, 1.0)  # fraction 0.25
        assert signal == pytest.approx(0.25 * norm0)
        assert state.spin_norm() == pytest.approx(0.75 * norm0)

    def test_overdraw_clamped_with_warning(self):
        state = self._stored_state()
        norm0 = state.spin_norm()
        with pytest.warns(UserWarning, match="clamped"):
            signal = switching_readout(state, 3.0, 1.0)
        assert signal == pytest.approx(norm0)
        assert state.spin_norm() == pytest.approx(0.0, abs=1e-30)

    def test_prompt_readout_beats_idle_memory(self):
        # idle storage decays the coherence, so a prompt readout returns a
        # strictly larger diffracted signal than one after three dephasing
        # times of idle memory
        gamma_spin = 1.0 / 500.0
        state_now = self._stored_state()
        state_idle = self._stored_state()
        idle = 3.0 * 1000.0 / (math.pi * 30.0)
        decay = np.exp(-(0.5 * gamma_spin + 1j * state_idle.deltas) * idle)
        state_idle.s[:] *= decay[None, :]
        d_now = switching_readout(state_now, 0.3, 1.0)
        d_idle = switching_readout(state_idle, 0.3, 1.0)
        assert d_now > d_idle

    def test_readout_event_recorded_in_trace(self):
        m, grid, classes = _mini_setup()
        events = [PulseEvent("P", 0.0, 12.0, 1.0, "gaussian", 4.0),
                  PulseEvent("C", 0.0, 20.0, 1.5),
                  PulseEvent("Y", 15.0, 1.0, 0.4, detuning=6.28)]
        seq = PulseSequence(events=events, t_end_us=20.0, sample_rate=20.0)
        trace, _ = run_dynamics(seq, m, grid, classes)
        assert len(trace.readouts) == 1
        t_read, signal = trace.readouts[0]
        assert t_read == pytest.approx(15.0, abs=0.05)
        assert signal > 0.0
