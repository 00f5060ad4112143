import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from slowlight import experiment
from slowlight.analysis import fit_decay
from slowlight.cli import main
from slowlight.config import build_protocol, parse_config
from slowlight.dynamics import (Grid, NumericalAbort, SimState, _Propagator,
                                run_dynamics)
from slowlight.experiment import (_BRANCH_CHUNK, ProtocolParams, PulseEvent,
                                  PulseSequence, _branch_steps, _held_records,
                                  _held_start, released_peak,
                                  standard_sequence, sweep_delay,
                                  sweep_duration)
from slowlight.medium import MediumParams, SpectralClass, make_spectral_classes

SINGLE = make_spectral_classes(0.0, 1, "single")


class TestPulseEvent:
    def test_validation(self):
        for channel in ("X", "Y"):
            with pytest.raises(ValueError, match="channel"):
                PulseEvent(channel, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PulseEvent("P", 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PulseEvent("P", 0.0, 1.0, 1.0, "sawtooth")
        with pytest.raises(ValueError, match="ramps must fit"):
            PulseEvent("C", 0.0, 2.0, 1.0, "raised_cosine", 1.5)  # ramp > dur/2
        # an open end closes with no ramp: the opening ramp may fill it
        PulseEvent("C", 0.0, 2.0, 1.0, "raised_cosine", 2.0, open_end=True)
        with pytest.raises(ValueError, match="ramps must fit"):
            PulseEvent("C", 0.0, 2.0, 1.0, "raised_cosine", 2.5, open_end=True)
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


class TestStandardSequence:
    def test_stationary_backward_onset_delay(self):
        p = ProtocolParams(omega_c=1.0, omega_a=1.0, p_a_delay_us=3.0,
                           a_duration_us=4.0)
        with pytest.warns(UserWarning, match="before the probe"):
            seq = standard_sequence("stationary", p)
        a_events = [e for e in seq.events if e.channel == "A"]
        assert len(a_events) == 1
        assert a_events[0].t_start == 3.0  # probe start (t = 0) + 3 us
        # the release of each kind, and its end: release_window_us after
        # the release (after the probe window for slow light), or t_end_us
        p = replace(p, probe_duration_us=2.0, storage_t_us=1.5,
                    release_window_us=5.0)  # probe window 0-6 us
        expected = {"slow_light": (0.0, 11.0), "memory": (7.5, 12.5),
                    "stationary": (7.0, 12.0)}
        for kind, (release, end) in expected.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                seqs = [standard_sequence(kind, q)
                        for q in (p, replace(p, t_end_us=50.0))]
            assert [(q.release_time_us, q.t_end_us) for q in seqs] == \
                [(release, end), (release, 50.0)], kind

    def test_stationary_warns_when_a_fires_during_injection(self):
        p = ProtocolParams(omega_c=1.0, omega_a=1.0,
                           p_a_delay_us=3.0, a_duration_us=4.0)
        with pytest.warns(UserWarning, match="before the probe"):
            standard_sequence("stationary", p)

    def test_zero_hold_has_no_backward_coupling(self):
        # a_duration_us = 0 adds no A event and no early-coupling warning,
        # whatever omega_a is
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            off, on = (standard_sequence("stationary", ProtocolParams(
                omega_c=1.0, omega_a=omega_a)) for omega_a in (0.0, 2.0))
        assert on.events == off.events
        t = np.append(np.linspace(0.0, on.t_end_us, 1001), 3.0)  # A onset
        for held, idle in zip(on.drive_samples(t), off.drive_samples(t)):
            assert np.array_equal(held, idle)
        assert not record

    def test_memory_zero_delay_is_contiguous(self):
        p = ProtocolParams(omega_c=1.0, storage_t_us=0.0,
                           c_off_us=31.0)
        seq = standard_sequence("memory", p)
        c_events = [e for e in seq.events if e.channel == "C"]
        assert len(c_events) == 2
        assert c_events[1].t_start == c_events[0].t_end

    @pytest.mark.parametrize("t_store", [0.0, 7.5, 22.0])
    def test_memory_dark_interval_equals_delay_exactly(self, t_store):
        p = ProtocolParams(omega_c=1.2, storage_t_us=t_store,
                           c_off_us=31.0, c_ramp_us=2.0)
        seq = standard_sequence("memory", p)
        first, second = (e for e in seq.events if e.channel == "C")
        assert second.t_start - first.t_end == t_store
        if t_store > 0.0:
            gap = np.linspace(first.t_end, second.t_start, 101)[1:-1]
            assert np.all(seq.channel_envelope("C", gap) == 0.0)

    def test_memory_retrieval_amplitude_scaled(self):
        p = ProtocolParams(omega_c=1.0, storage_t_us=5.0,
                           c_off_us=31.0)
        seq = standard_sequence("memory", p)
        first, second = (e for e in seq.events if e.channel == "C")
        assert second.peak == pytest.approx(math.sqrt(2.0) * first.peak)

    @pytest.mark.parametrize("kind", ["slow_light", "memory", "stationary"])
    def test_coupling_holds_through_the_last_step(self, kind):
        # the coupling that runs to the end has no closing ramp and still
        # drives the sample at t_end, the last RK4 stage of a run
        p = ProtocolParams(omega_c=1.0, omega_a=1.0, storage_t_us=5.0,
                           c_off_us=31.0, c_ramp_us=2.0, a_duration_us=4.0,
                           p_a_delay_us=31.0, release_window_us=10.0)
        seq = standard_sequence(kind, p)
        last = [e for e in seq.events if e.channel == "C"][-1]
        t = np.linspace(seq.t_end_us - 5.0, seq.t_end_us + 1e-9, 101)
        omega_c, _ = seq.drive_samples(t)
        assert np.all(omega_c == last.peak)

    def test_rejects_unknown_kind_and_negative_delays(self):
        with pytest.raises(ValueError):
            standard_sequence("echo", ProtocolParams())
        with pytest.raises(ValueError):
            standard_sequence("memory", ProtocolParams(storage_t_us=-1.0))

    # each ProtocolParams field moved off its default, except peak_guard_us,
    # which only the sweeps read
    MOVED = {"probe_duration_us": 4.0, "probe_amplitude": 0.5, "omega_c": 0.5,
             "omega_a": 0.3, "retrieval_scale": 1.25, "p_a_delay_us": 2.0,
             "storage_t_us": 4.0, "a_duration_us": 5.0, "c_off_us": 6.0,
             "c_ramp_us": 0.25, "release_window_us": 40.0, "sample_rate": 7.0,
             "t_end_us": 50.0}

    def test_every_protocol_field_changes_a_sequence(self):
        assert set(self.MOVED) | {"peak_guard_us"} == \
            {f.name for f in fields(ProtocolParams)}
        kinds = ("slow_light", "memory", "stationary")

        def built(p):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return [standard_sequence(kind, p) for kind in kinds]

        # omega_a acts only during a hold, so its row holds on both sides
        held = {"omega_a": {"a_duration_us": 5.0}}
        for name, value in self.MOVED.items():
            context = held.get(name, {})
            assert built(ProtocolParams(**context, **{name: value})) != \
                built(ProtocolParams(**context)), name
        # peak_guard_us moves where the sweep looks for the released peak
        m, grid, classes = _mini_setup(n_classes=2, cells=16)
        p = ProtocolParams(omega_c=2.0, probe_duration_us=4.0, c_off_us=13.0,
                           release_window_us=8.0)
        peak_times = []
        for guard in (ProtocolParams.peak_guard_us, 6.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = sweep_delay([3.0], replace(p, peak_guard_us=guard),
                                     m, grid, classes)
            peak_times.append(result.peak_times[0])
        assert peak_times[1] > peak_times[0] + 1.0


def _mini_setup(optical_depth=40.0, n_classes=4, cells=24):
    m = MediumParams.from_optical_depth(optical_depth, gamma_opt=1.0, c=5.0)
    grid = Grid(cells=cells)
    classes = make_spectral_classes(30.0, n_classes, "lorentzian")
    return m, grid, classes


class TestRunExperiment:
    def test_zero_probe_zero_trace(self):
        m, grid, classes = _mini_setup()
        p = ProtocolParams(omega_c=1.5, probe_amplitude=0.0,
                           probe_duration_us=4.0, t_end_us=14.0)
        with pytest.warns(UserWarning, match="probe pulse spans"):
            trace, _ = run_dynamics(standard_sequence("slow_light", p),
                                    m, grid, classes)
        assert np.all(trace.fwd_intensity == 0.0)

    def test_stationary_with_zero_backward_matches_slow_light_bitwise(self):
        m, grid, classes = _mini_setup()
        common = dict(omega_c=1.5, probe_duration_us=4.0, t_end_us=16.0,
                      sample_rate=20.0)
        slow = standard_sequence("slow_light", ProtocolParams(**common))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            freeze = standard_sequence("stationary", ProtocolParams(
                omega_a=0.0, a_duration_us=5.0, **common))
            t_slow, _ = run_dynamics(slow, m, grid, classes)
            t_frozen, _ = run_dynamics(freeze, m, grid, classes)
        assert np.array_equal(t_slow.fwd_intensity, t_frozen.fwd_intensity)
        assert np.array_equal(t_slow.bwd_intensity, t_frozen.bwd_intensity)
        assert np.array_equal(t_slow.spin_norm, t_frozen.spin_norm)

    def test_marker_integrity(self, tmp_path):
        # run.json lists the sequence's pulse events, each once, in order
        text = ("[medium]\ngamma_opt = 1.0\nn_classes = 4\n"
                "transit_time_us = 0.2\n[grid]\ncells = 24\n"
                "[protocol]\nkind = memory\nomega_C = 1.5\n"
                "probe_duration_us = 4\nstorage_T_us = 3\nc_off_us = 13\n"
                "release_window_us = 10\n")
        config = tmp_path / "memory.cfg"
        config.write_text(text, encoding="utf-8")
        seq = standard_sequence("memory", build_protocol(parse_config(text)))
        with pytest.warns(UserWarning, match="probe pulse spans"):
            assert main(["run", "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        events = json.loads((tmp_path / "run.json").read_text())["events"]
        assert events == [{"channel": e.channel, "t_start_us": e.t_start,
                           "duration_us": e.duration, "peak": e.peak,
                           "shape": e.shape} for e in seq.events]
        assert len(events) == 3  # C write, P, C read


class TestSweepDelay:
    def test_input_validation(self):
        m, grid, classes = _mini_setup()
        base = ProtocolParams(omega_c=1.5)
        with pytest.raises(ValueError):
            sweep_delay([], base, m, grid, classes)
        with pytest.raises(ValueError):
            sweep_delay([-2.0], base, m, grid, classes)

    def test_memory_sweep_monotone_and_spin_limited(self):
        # homogeneous ensemble: the retrieved intensity decays through the
        # spin coherence rate alone, strictly monotonically
        m = MediumParams.from_optical_depth(40.0, gamma_opt=1.0, c=5.0,
                                            gamma_spin=1.0 / 25.0)
        grid = Grid(cells=24)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=6.0,
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
        base = ProtocolParams(omega_c=2.0, probe_duration_us=6.0,
                              c_off_us=19.0, c_ramp_us=1.5,
                              release_window_us=12.0, sample_rate=20.0)
        with pytest.warns(UserWarning, match="probe pulse spans"):
            result = sweep_delay([0.0, 3.0, 6.0, 9.0], base, m, grid, classes)
        assert np.all(result.intensities <= result.intensities[0] * (1 + 1e-9))
        assert np.all(np.diff(result.intensities) <= 1e-9)

    def test_threads_do_not_change_results(self):
        m, grid, classes = _mini_setup(n_classes=2)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
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
        base = ProtocolParams(omega_c=1.0, omega_a=1.0)
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
        base = ProtocolParams(omega_c=2.0, omega_a=2.0,
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
        slow_seq = standard_sequence("slow_light", ProtocolParams(**common))
        with pytest.warns(UserWarning, match="probe pulse spans"):
            slow_trace, _ = run_dynamics(slow_seq, m, grid, classes)
        _, slow_peak = released_peak(slow_trace, 1.0)
        base = ProtocolParams(omega_a=2.0,
                              p_a_delay_us=20.0, **common)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sweep_duration([0.02], base, m, grid, classes)
        assert result.intensities[0] == pytest.approx(slow_peak, rel=0.15)


def _independent(kind, field, values, base, m, grid, classes):
    """(trace, t_peak, peak) of each point run on its own from t = 0."""
    out = []
    for value in values:
        p = replace(base, t_end_us=None, **{field: value})
        seq = standard_sequence(kind, p)
        trace, _ = run_dynamics(seq, m, grid, classes)
        out.append((trace, *released_peak(trace, seq.release_time_us
                                          + base.peak_guard_us)))
    return out


def _spy_adjoint(monkeypatch) -> list[bool]:
    """Record, per adjoint pass, whether it runs on the half system."""
    passes = []

    class Spied(experiment._Propagator):
        def __init__(self, m, state):
            super().__init__(m, state)
            passes.append(self.half)

    monkeypatch.setattr(experiment, "_Propagator", Spied)
    return passes


def _probe_warnings(record):
    return [w for w in record if "probe pulse spans" in str(w.message)]


def _spy_sweep_runs(monkeypatch, dt):
    """Record the sweep's run_dynamics calls: the trunk's snapshot steps,
    then per point the global step it resumes from (0 from t = 0)."""
    runs = []
    run = experiment.run_dynamics

    def spied(sequence, *args, initial_state=None, snapshot_steps=(), **kwargs):
        runs.append(list(snapshot_steps) if not runs else
                    0 if initial_state is None else round(initial_state.t / dt))
        return run(sequence, *args, initial_state=initial_state,
                   snapshot_steps=snapshot_steps, **kwargs)

    monkeypatch.setattr(experiment, "run_dynamics", spied)
    return runs


class TestBranchedSweeps:
    """Sweeps integrate one trunk and branch each point off a snapshot of
    it.  With the held stretches switched off, every point runs forward to
    its end, and its peak must equal an independent run's bit for bit."""

    DELAYS = [4.0, 0.0, 2.5, 4.0, 1.3]  # unsorted, duplicated, T = 0

    def _forward(self, monkeypatch, kind, values, base, setup, threads=1):
        """Sweep `values` with no held stretch and run them independently;
        check that they are equal and that the probe warning is raised
        once, blamed on this file.  Returns the sweep result."""
        monkeypatch.setattr(experiment, "_held_start",
                            lambda sequence, dt, n_steps, held: n_steps)
        field = "storage_t_us" if kind == "memory" else "a_duration_us"
        sweep = sweep_delay if kind == "memory" else sweep_duration
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = sweep(values, base, *setup, threads=threads)
        probe = _probe_warnings(record)
        assert len(probe) == 1 and probe[0].filename == __file__
        assert f"{field} sweep" in str(probe[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = _independent(kind, field, values, base, *setup)
        assert np.array_equal(result.intensities, [r[2] for r in reference])
        assert np.array_equal(result.peak_times, [r[1] for r in reference])
        return result

    @pytest.mark.parametrize("threads", [1, 3])
    def test_delay_sweep_matches_independent_runs(self, monkeypatch, threads):
        setup = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, p_a_delay_us=13.0, omega_a=2.0,
                              release_window_us=8.0, sample_rate=20.0)
        result = self._forward(monkeypatch, "memory", self.DELAYS, base,
                               setup, threads)
        assert result.simulated_steps < 0.6 * result.independent_steps

    def test_duration_sweep_matches_independent_runs(self, monkeypatch):
        setup = _mini_setup(optical_depth=200.0, n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, omega_a=2.0,
                              probe_duration_us=4.0, p_a_delay_us=13.0,
                              release_window_us=8.0, sample_rate=10.0)
        result = self._forward(monkeypatch, "stationary", [2.0, 0.5, 3.5, 2.0],
                               base, setup, threads=3)
        assert result.simulated_steps < result.independent_steps

    def test_branch_steps_off_the_block_grid(self, monkeypatch):
        # one record every 32 steps (dt = 1/80 us), so the half system runs
        # blocks of up to 32 steps; the retrievals of T = 2.5 and 1.3 start
        # at steps 1240 and 1144, 24 steps into a block of the dark trunk
        # (T = 4), so their snapshots sit at that block's start
        setup = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, release_window_us=8.0,
                              sample_rate=2.5)
        branches = []
        branch_steps = experiment._branch_steps

        def spied(*args):
            branches.extend(branch_steps(*args))
            return branches

        monkeypatch.setattr(experiment, "_branch_steps", spied)
        runs = _spy_sweep_runs(monkeypatch, 1 / 80)
        blocks = []
        advance_block = _Propagator.advance_block

        def counted(self, state, n, inject, longest):
            blocks.append(n)
            advance_block(self, state, n, inject, longest)

        monkeypatch.setattr(_Propagator, "advance_block", counted)
        self._forward(monkeypatch, "memory", [4.0, 2.5, 0.0, 1.3], base, setup)
        shared = list(zip(branches, runs[1:]))
        assert (1240, 1216) in shared and (1144, 1120) in shared
        assert {1216, 1120} <= set(runs[0])
        assert blocks

    def test_snapshot_before_a_shared_block_start(self, monkeypatch):
        # one record every 4 steps (dt = 1/80 us); the writing coupling's
        # ramp ends at step 1041, where the trunk's (T = 4) drive rows
        # change and T = 0's retrieval ramp starts, so both runs start a
        # block there, but off the block grid: T = 0 resumes from the grid
        # step 1040 before it
        setup = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0125, release_window_us=8.0)
        runs = _spy_sweep_runs(monkeypatch, 1 / 80)
        result = self._forward(monkeypatch, "memory", [4.0, 0.0, 2.5], base,
                               setup)
        assert runs == [[1040, 1240, 2000], 2000, 1040, 1240]
        # the trunk to 2000, then each point from its snapshot to its end
        assert result.simulated_steps == 2000 + 1 + 641 + 641 == 3283

    def test_points_differing_only_in_the_probe(self, monkeypatch):
        # three equal memory points, the last two with a probe blip in the
        # dark: one at half step 2320, the start of step 1160, where that
        # point branches, and one at 2321, which no step reads, so that
        # point shares every step with the trunk, the first point
        m, grid, _ = setup = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, release_window_us=8.0)
        h = 0.5 * grid.dz / m.c  # the half step

        def blipped(samples):
            def sequence(kind, p):
                k = next(samples)
                seq = standard_sequence(kind, p)
                return seq if k is None else replace(seq, events=[
                    *seq.events, PulseEvent("P", (k - 0.25) * h, 0.5 * h, 0.5)])
            return sequence

        monkeypatch.setattr(experiment, "_held_start",
                            lambda sequence, dt, n_steps, held: n_steps)
        monkeypatch.setattr(experiment, "standard_sequence",
                            blipped(iter([None, 2320, 2321])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sweep_delay([3.0] * 3, base, *setup)
            own = blipped(iter([None, 2320, 2321]))
            points = [own("memory", replace(base, storage_t_us=3.0)) for _ in range(3)]
            reference = [released_peak(run_dynamics(seq, *setup)[0],
                                       seq.release_time_us + base.peak_guard_us)
                         for seq in points]
        n = int(round(points[0].t_end_us / (2 * h)))
        assert result.simulated_steps == n + n - 1160
        assert np.array_equal(result.intensities, [peak for _, peak in reference])
        assert np.array_equal(result.peak_times, [t for t, _ in reference])
        assert reference[2] == reference[0] != reference[1]

    def test_single_point_is_its_own_trunk(self, monkeypatch):
        setup = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, release_window_us=8.0)
        result = self._forward(monkeypatch, "memory", [3.0], base, setup)
        assert result.simulated_steps == result.independent_steps == 1920


class TestAdjointPeaks:
    """A sweep integrates one trunk, branches each point off a snapshot of
    it and takes each point's held release stretch from one adjoint pass;
    its peaks, peak times and cut-off windows must agree with independent
    runs of each point."""

    # relative peak bound; measured at most 2.4e-13 on these cases and
    # 2.2e-14 on the three paper configs
    BOUND = 1e-12

    def _check(self, monkeypatch, kind, values, base, setup, threads=1,
               half=True):
        """Sweep `values` and run them independently; check that they agree,
        that its one adjoint pass runs on the half system or not, as
        `half` says, and that the probe warning is raised once, blamed on
        this file.  Returns (sweep result, independent (trace, t_peak,
        peak) list)."""
        field = "storage_t_us" if kind == "memory" else "a_duration_us"
        sweep = sweep_delay if kind == "memory" else sweep_duration
        passes = _spy_adjoint(monkeypatch)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = sweep(values, base, *setup, threads=threads)
        assert passes == [half]
        probe = _probe_warnings(record)
        assert len(probe) == 1 and probe[0].filename == __file__
        assert f"{field} sweep" in str(probe[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = _independent(kind, field, values, base, *setup)
        peaks = np.array([peak for _, _, peak in reference])
        assert np.all(np.abs(result.intensities - peaks) <= self.BOUND * peaks)
        assert np.array_equal(result.peak_times, [t for _, t, _ in reference])
        assert result.peak_at_window_end == tuple(
            v for v, (trace, t_peak, _) in zip(values, reference)
            if t_peak == trace.t[-1])
        return result, reference

    @pytest.mark.parametrize("threads", [1, 3])
    def test_delay_sweep(self, monkeypatch, threads):
        setup = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, p_a_delay_us=13.0, omega_a=2.0,
                              release_window_us=8.0, sample_rate=20.0)
        result, _ = self._check(monkeypatch, "memory", TestBranchedSweeps.DELAYS,
                                base, setup, threads)
        assert result.simulated_steps < 0.6 * result.independent_steps

    def test_broken_symmetry_takes_the_full_path(self, monkeypatch):
        # one weight 1 ulp off: no held state halves, and the adjoint pass
        # runs on the full system
        m, grid, classes = _mini_setup(n_classes=4, cells=16)
        first = classes[0]
        classes[0] = SpectralClass(first.delta_j,
                                   float(np.nextafter(first.weight, 1.0)))
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=13.0, release_window_us=8.0,
                              sample_rate=20.0)
        self._check(monkeypatch, "memory", [4.0, 0.0, 2.5], base,
                    (m, grid, classes), half=False)

    @pytest.mark.parametrize("window, cut", [(8.0, ()), (3.5, (3.5,))])
    def test_duration_sweep(self, monkeypatch, window, cut):
        setup = _mini_setup(optical_depth=200.0, n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, omega_a=2.0,
                              probe_duration_us=4.0, p_a_delay_us=13.0,
                              release_window_us=window, sample_rate=10.0)
        result, _ = self._check(monkeypatch, "stationary", [2.0, 0.5, 3.5, 2.0],
                                base, setup, threads=3)
        assert result.peak_at_window_end == cut
        assert result.simulated_steps < result.independent_steps

    def test_probe_in_the_window_falls_back_to_the_forward_path(self, monkeypatch):
        # the probe injects until 12 us, the end of T = 0's window: that
        # point has no held stretch, runs forward to its end and equals its
        # independent run bit for bit; T = 6's held stretch starts when its
        # ramp ends, and the adjoint pass serves it alone
        served = []  # the held stretches' lengths of each adjoint pass

        def spy(starts, lengths, *args):
            served.append(list(lengths))
            return _held_records(starts, lengths, *args)

        monkeypatch.setattr(experiment, "_held_records", spy)
        setup = _mini_setup(n_classes=2, cells=16)
        base = ProtocolParams(omega_c=2.0, probe_duration_us=4.0,
                              c_off_us=5.0, release_window_us=7.0,
                              sample_rate=20.0)
        result, reference = self._check(monkeypatch, "memory", [0.0, 6.0],
                                        base, setup)
        assert result.intensities[0] == reference[0][2]
        assert len(served) == 1 and len(served[0]) == 1 and served[0][0] > 0

    def test_held_records_match_forward_runs_of_each_stretch(self):
        # four held stretches of one coupling, no probe: records every 4
        # steps, the stretches starting at steps 640, 641, 645 and 650 (641
        # and 645 read their records at the same j) and running 200, 37,
        # 120 and 3 steps.  Each state's records, read together with those
        # of the others, are its forward run's, to rounding (measured: at
        # most 6.0e-15 of each stretch's largest record)
        m, grid, classes = _mini_setup(n_classes=4, cells=16)
        seq = PulseSequence(
            events=[PulseEvent("P", 0.0, 6.0, 1.0, "gaussian", 2.0),
                    PulseEvent("C", 0.0, 12.0, 2.0, open_end=True)],
            t_end_us=12.0, sample_rate=20.0)
        steps, lengths = [640, 641, 645, 650], [200, 37, 120, 3]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, states = run_dynamics(seq, m, grid, classes, snapshot_steps=steps)
            held = (np.full((1, 3), 2.0 + 0j), np.zeros((1, 3), complex))
            records = _held_records(states[:4], lengths, held, m, every=4)
            for state, n, length, (t, intensity) in zip(states, steps, lengths,
                                                        records):
                trace, _ = run_dynamics(seq, m, grid, classes,
                                        initial_state=state,
                                        until_step=n + length)
                later = trace.t > state.t
                assert np.array_equal(t, trace.t[later])
                want = trace.fwd_intensity[later]
                assert np.abs(intensity - want).max() <= 5e-14 * want.max()

    def test_held_records_abort_when_the_held_map_blows_up(self, monkeypatch):
        # Omega_C dt = 1250 makes the RK4 map grow without bound; the
        # adjoint pass raises as the forward run's finiteness check would,
        # on the half system and, with one weight 1 ulp off, on the full one
        m = MediumParams(gamma_opt=1.0, g2n=1.0, c=1.0)
        classes = make_spectral_classes(30.0, 2, "lorentzian")
        held = (np.full((1, 3), 1e4 + 0j), np.zeros((1, 3), complex))
        passes = _spy_adjoint(monkeypatch)
        for half in (True, False):
            if not half:
                classes[0] = SpectralClass(
                    classes[0].delta_j, float(np.nextafter(classes[0].weight, 1.0)))
            state = SimState.zeros(Grid(cells=8), classes)
            state.s[:] = 0.1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(NumericalAbort, match="held stretch from t=0 us"):
                    _held_records([state], [400], held, m, every=1)
        assert passes == [True, False]


def _scanned_searches(sequence, trunk, dt):
    """(branch step, held start) of `sequence` against `trunk`, from a scan
    of what every step reads over both whole runs: C and A at its three half
    steps, the probe at its start."""
    n_steps, n_trunk = (int(round(s.t_end_us / dt)) for s in (sequence, trunk))
    t = 0.5 * dt * np.arange(2 * max(n_steps, n_trunk) + 1)  # the half steps
    k = 2 * np.arange(n_steps)[:, None] + np.arange(3)  # (step, its samples)
    own = [*sequence.drive_samples(t), sequence.probe_samples(t)]
    ref = [*trunk.drive_samples(t), trunk.probe_samples(t)]
    differ = own[2][k[:, 0]] != ref[2][k[:, 0]]
    for a, b in zip(own[:2], ref[:2]):
        differ |= (a[k] != b[k]).any(axis=1)
    branch = int(np.argmax(differ)) if differ.any() else n_steps
    # a held step reads the trunk's last step's drive samples, no probe
    last = 2 * (n_trunk - 1) + np.arange(3)
    held = own[2][k[:, 0]] == 0.0
    for samples, trunk_samples in zip(own[:2], ref[:2]):
        held &= (samples[k] == trunk_samples[last]).all(axis=1)
    moved = np.flatnonzero(~held)
    return branch, int(moved[-1]) + 1 if len(moved) else 0


class TestBranchSearches:
    """_branch_steps and _held_start, which search _BRANCH_CHUNK steps at a
    time, against a scan of the whole runs."""

    DT = 1.0 / 64  # the sample times k / 128 are exact

    def _searches(self, sequence, trunk):
        n_steps, n_trunk = (int(round(s.t_end_us / self.DT))
                            for s in (sequence, trunk))
        # the drive rows of the trunk's last step, its half steps' samples
        t = 0.5 * self.DT * np.arange(2 * n_trunk - 2, 2 * n_trunk + 1)
        held = tuple(samples[None] for samples in trunk.drive_samples(t))
        found = (_branch_steps([sequence], trunk, self.DT, [n_steps])[0],
                 _held_start(sequence, self.DT, n_steps, held))
        assert found == _scanned_searches(sequence, trunk, self.DT)
        return found

    @pytest.mark.parametrize("kind, field, values", [
        ("memory", "storage_t_us", (2.0, 5.0)),
        ("stationary", "a_duration_us", (2.0, 3.5))])
    def test_standard_pairs(self, kind, field, values):
        base = ProtocolParams(omega_c=2.0, omega_a=2.0, probe_duration_us=4.0,
                              c_off_us=20.0, p_a_delay_us=20.0,
                              release_window_us=8.0)
        point, trunk = (standard_sequence(kind, replace(base, **{field: v}))
                        for v in values)
        branch, start = self._searches(point, trunk)
        assert _BRANCH_CHUNK < branch < start < point.t_end_us / self.DT
        # a sequence agrees with itself throughout: it branches at its end
        assert self._searches(trunk, trunk)[0] == round(trunk.t_end_us / self.DT)

    def test_points_searched_together_match_each_alone(self):
        # one search samples the trunk once per chunk for all the points:
        # unsorted, branching on both sides of the first chunk edge, two
        # equal ones, the trunk, and one that differs from the first sample
        base = ProtocolParams(probe_duration_us=2.0, c_off_us=10.0,
                              release_window_us=8.0)
        values = (12.0, 0.0, 3.0, 25.0, 12.0)
        points = [standard_sequence("memory", replace(base, storage_t_us=v))
                  for v in values]
        points.append(PulseSequence([PulseEvent("P", 0.0, 4.0, 1.0, "gaussian", 1.0)],
                                    t_end_us=5.0))
        ends = [int(round(s.t_end_us / self.DT)) for s in points]
        trunk = points[3]
        found = _branch_steps(points, trunk, self.DT, ends)
        assert found == [_scanned_searches(s, trunk, self.DT)[0] for s in points]
        assert found[1] < found[2] < _BRANCH_CHUNK < found[0] == found[4] < ends[0]
        assert found[3] == ends[3] and found[5] == 0

    def test_trunk_ending_in_a_ramp(self):
        # the trunk's last step reads three different samples of the
        # retrieval ramp, which ends with the run, and no other step reads them
        base = ProtocolParams(probe_duration_us=4.0, c_off_us=20.0,
                              release_window_us=1.0)
        trunk = standard_sequence("memory", base)
        n = int(round(trunk.t_end_us / self.DT))
        assert self._searches(trunk, trunk) == (n, n - 1)

    @pytest.mark.parametrize("channel", ["A", "P"])
    @pytest.mark.parametrize("shift", [-1, 0, 1, 2])
    def test_differences_at_chunk_edges(self, shift, channel):
        # the point differs from the trunk only by two one-sample blips on
        # `channel`: at sample 2 * _BRANCH_CHUNK + shift, around the first
        # forward chunk's last sample, and at 2 * (n - _BRANCH_CHUNK) +
        # shift - 1, around the last backward chunk's first step
        n = 3000
        samples = (2 * _BRANCH_CHUNK + shift, 2 * (n - _BRANCH_CHUNK) + shift - 1)
        branch, start = self._searches(*self._blipped(n, channel, samples))
        if channel == "A":
            assert branch == _BRANCH_CHUNK - 1 + (shift > 0)
            assert start == n - _BRANCH_CHUNK + (shift > 0)
        else:  # a step reads the probe only at its start, an even sample
            read = [k // 2 for k in samples if k % 2 == 0]
            assert (branch, start) == (read[0], read[-1] + 1)

    @pytest.mark.parametrize("samples, branch", [
        ((2000,), 1000), ((2001,), None), ((2001, 2049, 5999), None)])
    def test_probe_read_only_at_step_starts(self, samples, branch):
        # the point's probe differs from the trunk's only at these half
        # steps: at step s's start, sample 2s, it branches at step s; at odd
        # samples, which no step reads, it shares every step with the trunk
        n = 3000
        point, trunk = self._blipped(n, "P", samples)
        branch = n if branch is None else branch
        assert _branch_steps([point, trunk], trunk, self.DT, [n, n]) == [branch, n]
        assert self._searches(point, trunk)[0] == branch

    def _blipped(self, n, channel, samples):
        """(point, trunk) of n steps, the point with one-sample blips on
        `channel` at the given half steps."""
        probe = PulseEvent("P", 0.0, 12.0, 1.0, "gaussian", 4.0)
        coupling = PulseEvent("C", 0.0, n * self.DT, 2.0, open_end=True)
        blips = [PulseEvent(channel, k / 128, 1 / 256, 2.0) for k in samples]
        return (PulseSequence([probe, coupling, *blips], t_end_us=n * self.DT),
                PulseSequence([probe, coupling], t_end_us=n * self.DT))
