import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowlight.dynamics import ControlDrive, Grid, SimState, step
from slowlight.medium import (MediumParams, SpectralClass, dephasing_time,
                              free_decay_envelope, group_velocity,
                              khz_to_rad_per_us, make_spectral_classes,
                              susceptibility)

T2_STAR_30KHZ = 1000.0 / (math.pi * 30.0)  # 10.6103... us


class TestDephasingTime:
    def test_30_khz(self):
        assert dephasing_time(30.0) == pytest.approx(10.6103, abs=5e-4)

    def test_inverse_proportionality(self):
        assert dephasing_time(60.0) == pytest.approx(dephasing_time(30.0) / 2)

    def test_unit_cancellation(self):
        assert dephasing_time(1.0 / math.pi) == pytest.approx(1000.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -30.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            dephasing_time(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # inf gave 0.0 and nan gave nan
        with pytest.raises(ValueError, match="finite"):
            dephasing_time(bad)


class TestSpectralClasses:
    def test_single_degenerate(self):
        classes = make_spectral_classes(42.0, 1, "single")
        assert classes == [SpectralClass(0.0, 1.0)]

    def test_single_requires_one_class(self):
        with pytest.raises(ValueError):
            make_spectral_classes(30.0, 4, "single")

    @pytest.mark.parametrize("n,err", [(0, ValueError), (-3, ValueError)])
    def test_rejects_bad_counts(self, n, err):
        with pytest.raises(err):
            make_spectral_classes(30.0, n)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            make_spectral_classes(-1.0, 8)

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_width(self, bad, shape):
        # either gave NaN detunings
        with pytest.raises(ValueError, match="finite"):
            make_spectral_classes(bad, 4, shape)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError):
            make_spectral_classes(30.0, 8, "triangle")

    def test_zero_width_collapses(self):
        classes = make_spectral_classes(0.0, 5, "lorentzian")
        assert all(c.delta_j == 0.0 for c in classes)
        assert sum(c.weight for c in classes) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(width=st.floats(0.1, 500.0), n=st.integers(1, 160),
           shape=st.sampled_from(["lorentzian", "gaussian"]))
    def test_weights_normalized_and_symmetric(self, width, n, shape):
        classes = make_spectral_classes(width, n, shape)
        assert len(classes) == n
        weights = np.array([c.weight for c in classes])
        assert abs(weights.sum() - 1.0) <= 1e-10
        deltas = np.array([c.delta_j for c in classes])
        # every class at +delta has a partner at -delta with equal weight
        assert np.max(np.abs(deltas + deltas[::-1])) == 0.0
        assert np.max(np.abs(weights - weights[::-1])) <= 1e-12

    def test_lorentzian_envelope_one_over_e_time(self):
        classes = make_spectral_classes(30.0, 64, "lorentzian")
        t = np.linspace(0.0, 30.0, 6001)
        env = free_decay_envelope(classes, t)
        idx = int(np.argmax(env < math.exp(-1)))
        frac = (math.exp(-1) - env[idx - 1]) / (env[idx] - env[idx - 1])
        t_1e = t[idx - 1] + frac * (t[idx] - t[idx - 1])
        assert t_1e == pytest.approx(T2_STAR_30KHZ, rel=0.05)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_lorentzian_fwhm_within_2_percent(self, n):
        classes = make_spectral_classes(30.0, n, "lorentzian")
        assert _empirical_fwhm(classes) == pytest.approx(
            khz_to_rad_per_us(30.0), rel=0.02)

    def test_gaussian_second_moment_against_quadrature(self):
        # independent oracle: trapezoid quadrature of the target density
        # at 1e5 points
        sigma = khz_to_rad_per_us(30.0) / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        x = np.linspace(-8 * sigma, 8 * sigma, 100_001)
        pdf = np.exp(-x * x / (2 * sigma * sigma))
        pdf /= np.trapezoid(pdf, x)
        m2_oracle = np.trapezoid(pdf * x * x, x)

        classes = make_spectral_classes(30.0, 64, "gaussian")
        weights = np.array([c.weight for c in classes])
        deltas = np.array([c.delta_j for c in classes])
        assert abs(weights.sum() - 1.0) <= 1e-10
        assert float(weights @ deltas ** 2) == pytest.approx(m2_oracle, rel=0.005)


def _empirical_fwhm(classes) -> float:
    """Full width at half maximum of the density the classes represent."""
    deltas = np.array([c.delta_j for c in classes])
    weights = np.array([c.weight for c in classes])
    order = np.argsort(deltas)
    deltas, weights = deltas[order], weights[order]
    edges = np.empty(len(deltas) + 1)
    edges[1:-1] = 0.5 * (deltas[1:] + deltas[:-1])
    edges[0] = deltas[0] - (edges[1] - deltas[0])
    edges[-1] = deltas[-1] + (deltas[-1] - edges[-2])
    density = weights / np.diff(edges)
    half = density.max() / 2.0
    peak = int(np.argmax(density))
    left = np.interp(half, density[: peak + 1], deltas[: peak + 1])
    right = np.interp(half, density[peak:][::-1], deltas[peak:][::-1])
    return right - left


def _medium(gamma_opt=1.0, gamma_spin=0.01, g2n=1.0):
    return MediumParams(gamma_opt=gamma_opt, gamma_spin=gamma_spin,
                        g2n=g2n, c=5.0)


class TestSusceptibility:
    def test_perfect_eit_at_two_photon_resonance(self):
        m = MediumParams(gamma_opt=1.0, gamma_spin=0.0, g2n=1.0, c=5.0)
        assert susceptibility(0.0, 0.5, m) == 0.0

    def test_two_level_lorentzian_when_coupling_off(self):
        m = MediumParams(gamma_opt=1.0, gamma_spin=0.0, g2n=1.0, c=5.0)
        detunings = np.linspace(-3.0, 3.0, 13)
        chi = susceptibility(detunings, 0.0, m)
        half = m.gamma_opt / 2.0  # the optical amplitude decays at gamma/2
        expected = 1j * half / (half - 1j * detunings)
        assert np.allclose(chi, expected, atol=1e-14)

    def test_window_matches_dense_ensemble_average(self):
        # oracle: the same per-class response averaged over a 1e5-point
        # discretization of the truncated Lorentzian density
        m = _medium()
        omega_c = m.gamma_opt  # window omega_c^2/(2 gamma_opt) > spin width
        classes = make_spectral_classes(30.0, 64, "lorentzian")
        fwhm = khz_to_rad_per_us(30.0)
        hwhm = fwhm / 2.0
        cut = 10.0 * fwhm
        x = np.linspace(-cut, cut, 100_001)
        pdf = (hwhm / math.pi) / (x * x + hwhm * hwhm)
        pdf /= np.trapezoid(pdf, x)

        detunings = np.linspace(-0.8, 0.8, 321)
        num = np.zeros(detunings.shape, dtype=complex)
        for i, dp in enumerate(detunings):
            spin = m.gamma_spin / 2.0 - 1j * (dp - x)
            den = (m.gamma_opt / 2.0 - 1j * dp) * spin + omega_c ** 2 / 4.0
            num[i] = np.trapezoid(pdf * 0.5j * m.gamma_opt * spin / den, x)

        chi = susceptibility(detunings, omega_c, m, classes)
        mid = len(detunings) // 2
        assert int(np.argmin(chi.imag)) == mid  # window centered at resonance
        assert chi.imag[mid] == pytest.approx(num.imag[mid], rel=0.02)
        scale = np.max(np.abs(num.imag))
        assert np.max(np.abs(chi.imag - num.imag)) <= 0.02 * scale

    @pytest.mark.parametrize("omega_c", [0.0, 1.0])
    @pytest.mark.parametrize("delta_j", [0.0, 0.3])
    def test_cw_transmission_through_step(self, omega_c, delta_j):
        # oracle: a CW probe exp(-i delta t) injected through step() leaves
        # the medium, once settled, with intensity exp(-d Im chi); an
        # off-centre class makes a sign error in delta or delta_j fail
        m = MediumParams.from_optical_depth(2.0, gamma_opt=1.0,
                                            gamma_spin=0.5, c=5.0)
        grid = Grid(cells=32)
        classes = [SpectralClass(delta_j, 1.0)]
        drive = ControlDrive.constant(omega_c)
        dt = grid.dz / m.c
        for delta in (-0.5, -0.2, 0.4):
            state = SimState.zeros(grid, classes)
            for n in range(int(round(25.0 / dt))):
                step(state, drive, m, dt,
                     inject_plus=np.exp(-1j * delta * n * dt))
            chi = susceptibility(delta, omega_c, m, classes)
            expected = math.exp(-m.optical_depth * chi.imag)
            # measured worst relative error 1.0e-4 over these 12 cases
            assert abs(state.e_plus[-1]) ** 2 == pytest.approx(expected,
                                                              rel=1e-3)

    def test_delay_slope_is_group_delay(self):
        # (d/2) dRe chi/d delta at resonance is the delay beyond the vacuum
        # transit, 1/v_g - 1/c: 2.5 us at d = 10, c = 5 and omega_C = 2
        m = MediumParams.from_optical_depth(10.0, gamma_opt=1.0,
                                            gamma_spin=0.0, c=5.0)
        h = 1e-4
        slope = (susceptibility(h, 2.0, m) - susceptibility(-h, 2.0, m)).real \
            / (2.0 * h)
        delay = 1.0 / group_velocity(m, 2.0) - 1.0 / m.c
        assert delay == pytest.approx(2.5)
        assert 0.5 * m.optical_depth * slope == pytest.approx(delay, rel=1e-6)

    def test_kramers_kronig_consistency(self):
        m = _medium()
        classes = make_spectral_classes(30.0, 33, "lorentzian")
        for omega_c, cls in ((0.0, None), (0.5, None), (0.5, classes)):
            n = 2 ** 16
            window = 400.0 * m.gamma_opt
            grid = np.linspace(-window, window, n, endpoint=False)
            chi = susceptibility(grid, omega_c, m, cls)
            spectrum = np.fft.fft(chi.imag)
            sign = np.sign(np.fft.fftfreq(n))
            re_est = -np.real(np.fft.ifft(spectrum * (-1j) * sign))
            inside = np.abs(grid) <= 5.0 * m.gamma_opt
            scale = np.max(np.abs(chi.real[inside]))
            assert np.max(np.abs(re_est[inside] - chi.real[inside])) <= 0.02 * scale

    @settings(max_examples=60, deadline=None)
    @given(omega_c=st.floats(0.0, 5.0), width=st.floats(0.0, 200.0),
           n=st.integers(1, 48))
    def test_passivity(self, omega_c, width, n):
        m = _medium()
        classes = make_spectral_classes(width, n, "lorentzian")
        detunings = np.linspace(-30.0, 30.0, 401)
        chi = susceptibility(detunings, omega_c, m, classes)
        assert chi.imag.min() >= -1e-12

    def test_eit_antisymmetry(self):
        m = _medium()
        classes = make_spectral_classes(30.0, 16, "lorentzian")
        detunings = np.linspace(-4.0, 4.0, 81)
        chi = susceptibility(detunings, 0.7, m, classes)
        assert np.max(np.abs(chi[::-1] + np.conj(chi))) <= 1e-12

    def test_rejects_empty_classes_and_negative_coupling(self):
        m = _medium()
        with pytest.raises(ValueError):
            susceptibility(0.0, 0.5, m, [])
        with pytest.raises(ValueError):
            susceptibility(0.0, -0.5, m)


class TestGroupVelocity:
    def test_empty_medium(self):
        m = MediumParams(g2n=0.0, c=5.0)
        assert group_velocity(m, 1.0) == 5.0
        assert group_velocity(m, 0.0) == 5.0  # undriven, light crosses at c

    def test_direct_substitution(self):
        m = MediumParams(g2n=3.0, c=5.0)
        assert group_velocity(m, 1.0) == pytest.approx(5.0 / 4.0)

    def test_stopped_light_reported_not_raised(self):
        m = MediumParams(g2n=3.0, c=5.0)
        assert group_velocity(m, 0.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
           st.floats(1e-3, 10.0))
    def test_single_coupling_is_the_eit_formula_bit_for_bit(self, depth, gamma,
                                                            c, omega):
        m = MediumParams.from_optical_depth(depth, gamma_opt=gamma, c=c)
        assert group_velocity(m, omega, 0.0) == \
            m.c / (1.0 + m.g2n / (omega * omega))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            group_velocity(MediumParams(g2n=1.0), -0.1)
        with pytest.raises(ValueError):
            group_velocity(MediumParams(g2n=1.0), 0.7, -0.1)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    def test_monotone_increasing(self, om1, om2):
        m = MediumParams(g2n=2.0, c=5.0)
        lo, hi = sorted((om1, om2))
        assert group_velocity(m, lo) <= group_velocity(m, hi) + 1e-15
        assert 0.0 < group_velocity(m, hi) <= m.c


class TestMediumParams:
    def test_defaults_derive_rates(self):
        m = MediumParams()
        assert m.gamma_opt == pytest.approx(1.0 / 110.0)
        assert m.gamma_spin == pytest.approx(1.0 / 500.0)

    def test_optical_depth_roundtrip(self):
        m = MediumParams.from_optical_depth(25.0, gamma_opt=1.0, c=5.0)
        assert m.optical_depth == pytest.approx(25.0)
        assert m.g2n == pytest.approx(125.0)

    def test_zero_rates_allowed_for_lossless_runs(self):
        m = MediumParams(gamma_opt=0.0, gamma_spin=0.0, g2n=1.0)
        assert m.optical_depth == math.inf

    @pytest.mark.parametrize("kwargs", [
        {"gamma_opt": -1.0}, {"gamma_spin": -0.1}, {"gamma_spin": math.inf},
        {"c": -1.0}, {"c": 0.0}, {"g2n": -2.0}, {"g2n": math.inf},
        {"gamma_opt": math.nan}, {"c": math.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MediumParams(**kwargs)

    def test_underflowing_gamma_opt_times_c_rejected(self):
        # both are positive, but the optical depth's denominator is 0
        with pytest.raises(ValueError, match=r"gamma_opt \* c"):
            MediumParams(gamma_opt=1e-200, c=1e-200, g2n=1.0)

    def test_frozen_and_validated_once(self):
        m = MediumParams(g2n=1.0)
        with pytest.raises(FrozenInstanceError):
            m.g2n = -5.0
        with pytest.raises(ValueError, match="g2n"):
            MediumParams.from_optical_depth(math.inf, gamma_opt=1.0, c=4.0)
