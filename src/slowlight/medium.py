"""Atomic medium description.

Defines the medium parameters, discretizes the inhomogeneous spin
distribution into weighted spectral classes, and provides the steady-state
linear response (susceptibility, group velocity, dephasing time) of a
three-level Lambda system driven by a strong coupling field.

Units: time in microseconds, rates and detunings in rad/us.  The medium
is the unit of length (z runs over [0, 1], and there is no length
parameter), so the vacuum speed ``c`` is in medium lengths per microsecond.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

# FWHM of a unit-sigma Gaussian.
_GAUSS_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Lorentzian ensembles are truncated at +/- this many FWHM; the heavy tails
# otherwise dominate second moments and defeat any fixed-order quadrature.
_LORENTZ_TRUNCATION_FWHM = 10.0


def khz_to_rad_per_us(f_khz: float) -> float:
    """Convert an ordinary frequency in kHz to an angular rate in rad/us."""
    return TWO_PI * 1e-3 * f_khz


@dataclass(frozen=True)
class SpectralClass:
    """One spin-detuning sample of the inhomogeneous ensemble.

    delta_j is the two-photon (spin) detuning in rad/us, weight the
    quadrature weight (the full ensemble sums to one).  Every class is
    optically resonant: spectral hole burning prepares a narrow optical
    feature.
    """

    delta_j: float
    weight: float


@dataclass(frozen=True)
class MediumParams:
    """Decay rates, coupling strength and light speed of the medium.

    gamma_opt / gamma_spin are the optical and spin decay rates in rad/us,
    entering the equations of motion as gamma/2 on the respective
    amplitudes; they default to 1/110 and 1/500.  g2n is the collective
    coupling strength g^2*N in rad^2/us^2, the same for both channels; use
    ``from_optical_depth`` to set it through the resonant optical depth
    d = g2n/(gamma_opt*c) of the unit-length medium.  The spin
    inhomogeneous width enters only through the spectral classes (see
    make_spectral_classes).  Instances are frozen and validated once, on
    construction; ``dataclasses.replace`` gives a changed, validated copy.
    """

    gamma_opt: float = 1.0 / 110.0
    gamma_spin: float = 1.0 / 500.0
    g2n: float = 0.0
    c: float = 100.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be strictly positive, got {self.c!r}")
        # Zero decay rates are accepted as the lossless idealization used
        # by conservation checks; negative rates never are.
        for name in ("gamma_opt", "gamma_spin"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.g2n < 0.0 or not math.isfinite(self.g2n):
            raise ValueError(f"g2n must be finite and >= 0, got {self.g2n!r}")
        if self.gamma_opt > 0.0:
            if self.gamma_opt * self.c == 0.0:
                raise ValueError(f"gamma_opt * c underflows to 0 (gamma_opt = "
                                 f"{self.gamma_opt!r}, c = {self.c!r})")
            d = self.optical_depth
            if not (math.isfinite(d) and d >= 0.0):
                raise ValueError(f"optical depth must be finite and >= 0, got {d!r}")

    @property
    def optical_depth(self) -> float:
        """Resonant optical depth d = g2n / (gamma_opt * c) of the medium."""
        if self.gamma_opt == 0.0:
            return math.inf if self.g2n > 0.0 else 0.0
        return self.g2n / (self.gamma_opt * self.c)

    @classmethod
    def from_optical_depth(cls, optical_depth: float, **kwargs) -> "MediumParams":
        """Build parameters with g2n = d * gamma_opt * c, so that the
        unit-length medium has resonant optical depth d."""
        if optical_depth < 0.0:
            raise ValueError(f"optical_depth must be >= 0, got {optical_depth!r}")
        m = cls(**kwargs)
        return replace(m, g2n=optical_depth * m.gamma_opt * m.c)


def dephasing_time(delta_s_khz: float) -> float:
    """Spin dephasing time 1/(pi * delta_S) in us for a width in kHz.

    This is the 1/e time of the free-decay envelope of a Lorentzian
    ensemble of FWHM delta_S.
    """
    if not (delta_s_khz > 0.0 and math.isfinite(delta_s_khz)):
        raise ValueError(f"delta_s_khz must be finite and > 0, got {delta_s_khz!r}")
    return 1000.0 / (math.pi * delta_s_khz)


def make_spectral_classes(delta_s_khz: float, n: int,
                          shape: str = "lorentzian") -> list[SpectralClass]:
    """Discretize the spin inhomogeneous distribution into n weighted classes.

    shape selects the line shape: 'lorentzian' (equal-probability
    inverse-CDF midpoints on the truncated support), 'gaussian'
    (Gauss-Hermite nodes, exact low-order moments) or 'single' (one class at
    zero detuning, requires n == 1).  delta_s_khz is the FWHM in kHz.
    Weights always sum to one and detunings come in symmetric +/- pairs.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if not (delta_s_khz >= 0.0 and math.isfinite(delta_s_khz)):
        raise ValueError(f"delta_s_khz must be finite and >= 0, got {delta_s_khz!r}")
    if shape == "single":
        if n != 1:
            raise ValueError(f"shape='single' requires n=1, got n={n}")
        return [SpectralClass(0.0, 1.0)]
    if shape not in ("lorentzian", "gaussian"):
        raise ValueError(f"unknown shape {shape!r}")

    fwhm = khz_to_rad_per_us(delta_s_khz)
    if fwhm == 0.0:
        return [SpectralClass(0.0, 1.0 / n) for _ in range(n)]

    if shape == "lorentzian":
        hwhm = 0.5 * fwhm
        cut = _LORENTZ_TRUNCATION_FWHM * fwhm
        p_lo = 0.5 + math.atan(-cut / hwhm) / math.pi
        p_hi = 0.5 + math.atan(cut / hwhm) / math.pi
        probs = p_lo + (p_hi - p_lo) * (np.arange(n) + 0.5) / n
        deltas = hwhm * np.tan(math.pi * (probs - 0.5))
        weights = np.full(n, 1.0 / n)
    else:
        sigma = fwhm / _GAUSS_FWHM
        nodes, gh_weights = np.polynomial.hermite.hermgauss(n)
        deltas = math.sqrt(2.0) * sigma * nodes
        weights = gh_weights / gh_weights.sum()

    # Guarantee the +/- pairing exactly despite floating-point noise.
    deltas = 0.5 * (deltas - deltas[::-1])
    return [SpectralClass(float(d), float(w)) for d, w in zip(deltas, weights)]


def class_arrays(classes) -> tuple[np.ndarray, np.ndarray]:
    """Unpack a class list into (delta_j, weight) arrays."""
    deltas = np.array([c.delta_j for c in classes], dtype=float)
    weights = np.array([c.weight for c in classes], dtype=float)
    return deltas, weights


def free_decay_envelope(classes, t) -> np.ndarray:
    """|sum_j w_j exp(i delta_j t)|, the free dephasing envelope."""
    deltas, weights = class_arrays(classes)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phases = np.exp(1j * np.outer(t, deltas))
    return np.abs(phases @ weights)


def _class_rates(m: MediumParams, deltas: np.ndarray) -> np.ndarray:
    """Rates (3, K) of the free evolution d(P+, P-, S)/dt = -rates * (P+,
    P-, S) of each class: gamma_opt/2, gamma_opt/2, gamma_spin/2 + i delta_j."""
    optical = np.full(len(deltas), 0.5 * m.gamma_opt, dtype=complex)
    return np.stack([optical, optical, 0.5 * m.gamma_spin + 1j * deltas])


def susceptibility(delta_p, omega_c: float, m: MediumParams,
                   classes=None) -> np.ndarray | complex:
    """Steady-state dimensionless susceptibility of the driven Lambda medium.

    chi(delta_p) = i*(gamma_opt/2)*(gamma_spin/2 - i(delta_p - delta_j)) /
                   [(gamma_opt/2 - i*delta_p)(gamma_spin/2 - i(delta_p - delta_j))
                    + omega_c^2/4]

    averaged over the spectral classes: the steady state of the equations
    of motion (dynamics.model_rhs) under a probe exp(-i delta_p t).  The
    prefactor normalizes the resonant two-level case to Im chi = 1, so
    exp(-d*Im chi) is the intensity transmission at optical depth d and
    (d/2) dRe chi/d delta_p the delay beyond the vacuum transit.
    Im chi >= 0 everywhere.
    """
    if omega_c < 0.0:
        raise ValueError(f"omega_c must be >= 0, got {omega_c!r}")
    if classes is None:
        classes = [SpectralClass(0.0, 1.0)]
    if len(classes) == 0:
        raise ValueError("classes must be non-empty")
    dp = np.asarray(delta_p, dtype=float)
    scalar = dp.ndim == 0
    dp = np.atleast_1d(dp)

    deltas, weights = class_arrays(classes)
    rates = _class_rates(m, deltas)
    chi = np.zeros(dp.shape, dtype=complex)
    coupling = 0.25 * omega_c * omega_c
    for optical, spin_rate, w in zip(rates[0], rates[2], weights):
        opt = optical - 1j * dp
        spin = spin_rate - 1j * dp
        den = opt * spin + coupling
        with np.errstate(divide="ignore", invalid="ignore"):
            term = 1j * optical * spin / den
        bad = den == 0.0
        if np.any(bad):
            # den == 0 with coupling on means spin == 0: exact transparency.
            # With the coupling off it is the resonant two-level limit.
            if coupling > 0.0:
                term = np.where(bad, 0.0 + 0.0j, term)
            else:
                term = np.where(bad, 1j * optical / opt, term)
        chi += w * term
    return complex(chi[0]) if scalar else chi


def group_velocity(m: MediumParams, omega_c: float,
                   omega_a: float = 0.0) -> float:
    """Polariton velocity c (omega_c^2 - omega_a^2) / (omega_c^2 +
    omega_a^2 + g2n) under forward and backward couplings.

    omega_a = 0 gives the EIT group velocity c / (1 + g2n / omega_c^2),
    balance exactly 0.  With both off it is 0.0 (stopped light) if g2n > 0
    and c in an empty medium.  Negative Rabi frequencies are rejected.
    """
    if omega_c < 0.0 or omega_a < 0.0:
        raise ValueError(f"Rabi frequencies must be >= 0, got {omega_c!r}, "
                         f"{omega_a!r}")
    s = omega_c * omega_c + omega_a * omega_a
    if s == 0.0:
        return 0.0 if m.g2n > 0.0 else m.c
    return m.c * (1.0 - 2.0 * omega_a * omega_a / s) / (1.0 + m.g2n / s)
