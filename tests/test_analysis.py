import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slowlight.analysis import (MODELS, FitResult, fit_decay, group_delay,
                                phase_match, slow_light_delay)
from slowlight.dynamics import DetectorTrace, Grid, run_dynamics
from slowlight.experiment import ProtocolParams, standard_sequence
from slowlight.medium import MediumParams, group_velocity, make_spectral_classes


def _curve(t, i0, tau, model):
    t = np.asarray(t, dtype=float)
    if model == "gaussian_sq":
        return i0 * np.exp(-((t / tau) ** 2))
    return i0 * np.exp(-t / tau)


class TestFitDecay:
    @pytest.mark.parametrize("model", ["gaussian_sq", "exponential"])
    def test_recovers_synthetic_tau_11(self, model):
        t = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
        fit = fit_decay(list(zip(t, _curve(t, 1.0, 11.0, model))), model)
        assert fit.tau == pytest.approx(11.0, abs=0.01)
        assert fit.i0 == pytest.approx(1.0, abs=0.01)
        assert fit.converged
        assert fit.rms_residual <= 1e-10

    @pytest.mark.parametrize("model", ["gaussian_sq", "exponential"])
    def test_noiseless_accuracy_1e_minus_2(self, model):
        t = np.linspace(0.0, 40.0, 17)
        fit = fit_decay(list(zip(t, _curve(t, 2.7, 13.3, model))), model)
        assert abs(fit.tau - 13.3) / 13.3 <= 1e-2
        assert abs(fit.i0 - 2.7) / 2.7 <= 1e-2

    @pytest.mark.parametrize("model", ["gaussian_sq", "exponential"])
    def test_one_percent_noise_within_5_percent(self, model):
        rng = np.random.default_rng(42)
        t = np.linspace(0.0, 30.0, 16)
        clean = _curve(t, 1.0, 11.0, model)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(len(t)))
        fit = fit_decay(list(zip(t, np.clip(noisy, 0.0, None))), model)
        assert abs(fit.tau - 11.0) / 11.0 <= 0.05
        assert abs(fit.i0 - 1.0) <= 0.05

    def test_tau_does_not_move_with_rounding_noise(self):
        # the peaks of configs/trapping_balanced.cfg's sweep; with a line
        # search decided by rounding near the minimum, 30 draws of 1e-15
        # relative noise spread tau by 1.7e-9 (measured), against 6e-15
        # with the small full steps taken
        t = np.arange(3.0, 54.0, 5.0)
        peaks = np.array([0.24101671904550417, 0.21218401240238541,
                          0.1881892738138492, 0.1675035098921494,
                          0.14953367484822286, 0.13384884194197957,
                          0.1201014337102031, 0.10800634150224189,
                          0.097333532668483991, 0.087881341141354444,
                          0.079484672431655495])
        rng = np.random.default_rng(0)
        taus = []
        for _ in range(30):
            noisy = np.sqrt(peaks) * (1.0 + 1e-15 * rng.standard_normal(len(t)))
            fit = fit_decay(list(zip(t, noisy)), "exponential")
            assert fit.converged
            taus.append(fit.tau)
        assert max(taus) - min(taus) <= 1e-12 * min(taus)

    def test_constant_data_flagged_non_decaying(self):
        t = np.linspace(0.0, 10.0, 6)
        fit = fit_decay(list(zip(t, np.full(6, 0.8))), "exponential")
        assert not fit.converged
        assert fit.tau >= 1e5  # pushed to the cap

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fit_decay([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], "exponential")

    def test_input_validation(self):
        good = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.25)]
        with pytest.raises(ValueError):
            fit_decay(good[:2], "exponential")
        with pytest.raises(ValueError):
            fit_decay(good, "biexponential")
        with pytest.raises(ValueError):
            fit_decay([(-1.0, 1.0), (1.0, 0.5), (2.0, 0.2)], "exponential")
        with pytest.raises(ValueError):
            fit_decay([(0.0, 1.0), (1.0, -0.5), (2.0, 0.2)], "exponential")
        with pytest.raises(ValueError):
            fit_decay([(1.0, 1.0), (1.0, 0.5), (1.0, 0.2)], "exponential")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_rejected(self, bad, column):
        points = [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25], [3.0, 0.125]]
        points[2][column] = bad
        for model in MODELS:
            with pytest.raises(ValueError, match="finite"):
                fit_decay(points, model)

    def test_zero_points_excluded_from_log_init_only(self):
        t = np.array([0.0, 4.0, 8.0, 12.0, 40.0])
        y = _curve(t, 1.0, 5.0, "exponential")
        y[-1] = 0.0  # underflowed sample keeps the nonlinear fit honest
        fit = fit_decay(list(zip(t, y)), "exponential")
        assert fit.n_points == 5
        assert fit.tau == pytest.approx(5.0, rel=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(i0=st.floats(0.1, 100.0), tau=st.floats(0.5, 50.0),
           model=st.sampled_from(["gaussian_sq", "exponential"]))
    def test_idempotent_on_model_data(self, i0, tau, model):
        t = np.linspace(0.0, 3.0 * tau, 12)
        fit = fit_decay(list(zip(t, _curve(t, i0, tau, model))), model)
        refit = fit_decay(list(zip(t, _curve(t, fit.i0, fit.tau, model))), model)
        assert abs(refit.tau - fit.tau) / fit.tau <= 1e-6
        assert abs(refit.i0 - fit.i0) / fit.i0 <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.01, 100.0),
           model=st.sampled_from(["gaussian_sq", "exponential"]))
    def test_scale_equivariance(self, alpha, model):
        t = np.linspace(0.0, 25.0, 11)
        y = _curve(t, 1.3, 8.0, model) * (1.0 + 0.02 * np.sin(t))
        base = fit_decay(list(zip(t, y)), model)
        scaled = fit_decay(list(zip(t, alpha * y)), model)
        assert scaled.tau == pytest.approx(base.tau, rel=1e-8)
        assert scaled.i0 == pytest.approx(alpha * base.i0, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.05, 20.0),
           model=st.sampled_from(["gaussian_sq", "exponential"]))
    def test_time_unit_equivariance(self, beta, model):
        t = np.linspace(0.0, 25.0, 11)
        y = _curve(t, 1.0, 9.0, model) * (1.0 + 0.03 * np.cos(t))
        base = fit_decay(list(zip(t, y)), model)
        rescaled = fit_decay(list(zip(beta * t, y)), model)
        # agreement limited only by the iteration stopping threshold
        assert rescaled.tau == pytest.approx(beta * base.tau, rel=1e-8)

    def test_fit_result_validation(self):
        with pytest.raises(ValueError):
            FitResult(i0=1.0, tau=-1.0, rms_residual=0.0, n_points=5,
                      model="exponential")
        with pytest.raises(ValueError):
            FitResult(i0=1.0, tau=1.0, rms_residual=0.0, n_points=2,
                      model="exponential")


def _trace(t, fwd):
    z = np.zeros_like(np.asarray(fwd, dtype=float))
    return DetectorTrace(t=np.asarray(t, dtype=float),
                         fwd_intensity=np.asarray(fwd, dtype=float),
                         bwd_intensity=z, spin_norm=z)


class TestGroupDelay:
    def test_identical_traces(self):
        t = np.linspace(0.0, 40.0, 801)
        pulse = np.exp(-(((t - 12.0) / 3.0) ** 2))
        assert group_delay(_trace(t, pulse), _trace(t, pulse)) == 0.0

    def test_shifted_by_7(self):
        t = np.linspace(0.0, 60.0, 1201)
        ref = np.exp(-(((t - 20.0) / 3.0) ** 2))
        shifted = np.exp(-(((t - 27.0) / 3.0) ** 2))
        assert group_delay(_trace(t, shifted), _trace(t, ref)) == \
            pytest.approx(7.0, abs=1e-9)

    def test_no_peak_raises(self):
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(ValueError, match="no peak"):
            group_delay(_trace(t, np.zeros_like(t)), _trace(t, np.ones_like(t)))

    def test_multiple_comparable_peaks_raise(self):
        t = np.linspace(0.0, 40.0, 801)
        two = np.exp(-(((t - 10.0) / 2.0) ** 2)) \
            + 0.8 * np.exp(-(((t - 30.0) / 2.0) ** 2))
        single = np.exp(-(((t - 10.0) / 2.0) ** 2))
        with pytest.raises(ValueError, match="multiple"):
            group_delay(_trace(t, two), _trace(t, single))


class TestSlowLightDelay:
    def test_vacuum_reference_is_the_shifted_probe(self):
        # the analytic vacuum trace |probe(t - 1/c)|^2 is what an empty
        # medium (g2n = 0) transmits, so the delay equals group_delay
        # against an integrated vacuum run
        grid = Grid(cells=24)
        classes = make_spectral_classes(30.0, 4, "lorentzian")
        seq = standard_sequence("slow_light", ProtocolParams(
            omega_c=1.5, probe_duration_us=8.0, t_end_us=40.0,
            sample_rate=10.0))
        empty = MediumParams(gamma_opt=1.0, c=5.0)
        vacuum, _ = run_dynamics(seq, empty, grid, classes)
        analytic = np.abs(seq.probe_samples(vacuum.t - 1.0 / empty.c)) ** 2
        assert np.max(np.abs(analytic - vacuum.fwd_intensity)) <= 1e-12
        m = MediumParams.from_optical_depth(20.0, gamma_opt=1.0, c=5.0)
        trace, _ = run_dynamics(seq, m, grid, classes)
        measured, predicted = slow_light_delay(trace, seq, m)
        assert measured == pytest.approx(group_delay(trace, vacuum), abs=1e-12)
        assert predicted == 1.0 / group_velocity(m, 1.5) - 1.0 / m.c

    def test_empty_undriven_medium_has_no_delay(self):
        grid = Grid(cells=24)
        seq = standard_sequence("slow_light", ProtocolParams(
            omega_c=0.0, probe_duration_us=8.0, sample_rate=10.0))
        empty = MediumParams(gamma_opt=1.0, c=5.0)
        trace, _ = run_dynamics(seq, empty, grid,
                                make_spectral_classes(0.0, 1, "single"))
        measured, predicted = slow_light_delay(trace, seq, empty)
        assert predicted == 0.0
        assert measured == pytest.approx(0.0, abs=1e-9)


class TestPhaseMatch:
    def test_degenerate_collinear(self):
        k = 8.05
        k_p = np.array([0.0, 0.0, k])
        k_c = np.array([0.0, 0.0, k])
        k_a = np.array([0.0, k, 0.0])
        k_pc, mismatch = phase_match(k_c, k_p, k_a)
        assert np.allclose(k_pc, k_a)
        assert mismatch == pytest.approx(0.0, abs=1e-15)

    def test_crossed_beam_geometry_25_mrad(self):
        # forward coupling tilted 25 mrad from the probe, backward coupling
        # antiparallel to the forward one, all magnitudes equal
        k = 1.0
        angle = 0.025
        k_p = np.array([0.0, 0.0, k])
        k_c = np.array([k * math.sin(angle), 0.0, k * math.cos(angle)])
        k_a = -k_c
        k_pc, mismatch = phase_match(k_c, k_p, k_a)
        # independent arithmetic: k_c + k_a cancel, leaving exactly -k_p
        expected = k_c - k_p + k_a
        assert np.allclose(k_pc, expected)
        assert mismatch <= 1e-12
        cos_to_backward = np.dot(k_pc, -k_p) / (np.linalg.norm(k_pc)
                                                 * np.linalg.norm(k_p))
        assert math.acos(min(1.0, cos_to_backward)) <= 0.025

    def test_algebraic_identity(self):
        rng = np.random.default_rng(3)
        k_p = rng.normal(size=3)
        k_c = rng.normal(size=3)
        v = rng.normal(size=3)
        k_pc, _ = phase_match(k_c, k_p, k_p - k_c + v)
        assert np.allclose(k_pc, v)

    def test_zero_probe_rejected(self):
        k = (1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            phase_match(k, (0.0, 0.0, 0.0), k)

    @pytest.mark.parametrize("bad", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                                     (math.nan, 0.0, 1.0),
                                     (0.0, math.inf, 1.0)])
    def test_rejects_other_than_finite_3_vectors(self, bad):
        k = (0.0, 0.0, 1.0)
        for args in ((bad, k, k), (k, bad, k), (k, k, bad)):
            with pytest.raises(ValueError, match="finite 3-vectors"):
                phase_match(*args)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=9, max_size=9),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_linearity_in_each_argument(self, comps, alpha, beta):
        k_c = np.array(comps[0:3])
        k_p = np.array([1.0 + comps[3], comps[4], comps[5]])
        assume(k_p.any())  # a zero probe vector is rejected, not mapped
        k_a = np.array(comps[6:9])
        extra = np.array([0.3, -0.2, 0.9])
        lhs, _ = phase_match(alpha * k_c + beta * extra, k_p, k_a)
        base, _ = phase_match(k_c, k_p, k_a)
        other, _ = phase_match(extra, k_p, k_a)
        zero_ref, _ = phase_match(np.zeros(3), k_p, k_a)
        expected = (alpha * (base - zero_ref) + beta * (other - zero_ref)
                    + zero_ref)
        assert np.allclose(lhs, expected, atol=1e-9)
