"""Decay-curve fitting, group-delay extraction and four-wave-mixing
phase-matching checks.

The decay fitter is a damped Gauss-Newton iteration on one of two models,

    gaussian_sq:  I(t) = I0 * exp(-(t/tau)^2)
    exponential:  I(t) = I0 * exp(-t/tau)

initialized from a log-domain linear fit.  It is fully deterministic: a
fixed initialization, a fixed iteration cap and a fixed convergence
threshold on the relative step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DetectorTrace
from .experiment import PulseSequence
from .medium import MediumParams, group_velocity

MODELS = ("gaussian_sq", "exponential")

_MAX_ITER = 200
_STEP_TOL = 1e-10
_SMALL_STEP = 1e-6  # relative Gauss-Newton step taken without a line search
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class FitResult:
    """Best-fit amplitude and decay time with the residual that remains."""

    i0: float
    tau: float
    rms_residual: float
    n_points: int
    model: str
    converged: bool = True

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.rms_residual < 0.0:
            raise ValueError("rms_residual must be >= 0")
        if self.n_points < 3:
            raise ValueError("a fit needs at least 3 points")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")


def _model(t: np.ndarray, i0: float, tau: float, model: str) -> np.ndarray:
    if model == "gaussian_sq":
        return i0 * np.exp(-((t / tau) ** 2))
    return i0 * np.exp(-t / tau)


def _jacobian(t, i0, tau, model):
    m = _model(t, i0, tau, model)
    d_i0 = m / i0 if i0 != 0.0 else _model(t, 1.0, tau, model)
    if model == "gaussian_sq":
        d_tau = m * 2.0 * t * t / tau ** 3
    else:
        d_tau = m * t / tau ** 2
    return m, d_i0, d_tau


def fit_decay(points, model: str = "gaussian_sq") -> FitResult:
    """Least-squares fit of a decay law to (t, intensity) pairs.

    Zero-intensity points are excluded from the log-domain initialization
    but participate in the nonlinear refinement.  Non-decaying data (for
    example a constant series) is returned with `converged=False` and tau
    pushed to a large cap rather than raising.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (t, intensity) pairs")
    if not np.isfinite(pts).all():
        raise ValueError("times and intensities must be finite")
    t = pts[:, 0]
    y = pts[:, 1]
    if len(t) < 3:
        raise ValueError(f"need at least 3 points, got {len(t)}")
    if np.any(t < 0.0):
        raise ValueError("times must be >= 0")
    if np.any(y < 0.0):
        raise ValueError("intensities must be >= 0")
    if len(np.unique(t)) < 2:
        raise ValueError("need at least two distinct times")
    if not np.any(y > 0.0):
        raise ValueError("all intensities are zero; nothing to fit")

    t_span = float(t.max() - t.min()) or 1.0
    tau_cap = 1e6 * t_span

    # Log-domain linear initialization on the positive points.
    pos = y > 0.0
    basis = (t * t) if model == "gaussian_sq" else t
    a, b = np.polynomial.polynomial.polyfit(basis[pos], np.log(y[pos]), 1)
    i0 = math.exp(a)
    if b < 0.0:
        tau = (1.0 / math.sqrt(-b)) if model == "gaussian_sq" else (-1.0 / b)
        tau = min(tau, tau_cap)
    else:
        tau = tau_cap  # non-decaying data

    converged = False
    sse = float(np.sum((_model(t, i0, tau, model) - y) ** 2))
    for _ in range(_MAX_ITER):
        m, d_i0, d_tau = _jacobian(t, i0, tau, model)
        r = m - y
        g = np.array([np.dot(d_i0, r), np.dot(d_tau, r)])
        h = np.array([[np.dot(d_i0, d_i0), np.dot(d_i0, d_tau)],
                      [np.dot(d_i0, d_tau), np.dot(d_tau, d_tau)]])
        try:
            delta = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            break
        # near the minimum sse_new <= sse is decided by rounding, so a small
        # full step is taken without it
        small = max(abs(delta[0]) / max(abs(i0), 1e-300),
                    abs(delta[1]) / tau) < _SMALL_STEP
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            i0_new = i0 - scale * delta[0]
            tau_new = tau - scale * delta[1]
            if tau_new <= 0.0 or tau_new > tau_cap:
                scale *= 0.5
                continue
            sse_new = float(np.sum((_model(t, i0_new, tau_new, model) - y) ** 2))
            if small or sse_new <= sse:
                break
            scale *= 0.5
        else:
            break
        rel_step = max(abs(i0_new - i0) / max(abs(i0), 1e-300),
                       abs(tau_new - tau) / tau)
        i0, tau, sse = i0_new, tau_new, sse_new
        if rel_step < _STEP_TOL:
            converged = True
            break
    if tau >= 0.99 * tau_cap:
        converged = False  # flagged non-decaying
    rms = math.sqrt(sse / len(t))
    return FitResult(i0=float(i0), tau=float(tau), rms_residual=rms,
                     n_points=len(t), model=model, converged=converged)


def group_delay(trace: DetectorTrace, reference: DetectorTrace) -> float:
    """Intensity-weighted centroid delay of `trace` against `reference`.

    Both traces must contain a single dominant forward peak; secondary
    local maxima above half the main peak raise an error.
    """
    return (_single_peak_centroid(trace.t, trace.fwd_intensity, "trace")
            - _single_peak_centroid(reference.t, reference.fwd_intensity,
                                    "reference"))


def slow_light_delay(trace: DetectorTrace, sequence: PulseSequence,
                     m: MediumParams) -> tuple[float, float]:
    """(measured, predicted) delay in us of a slow-light run's trace.

    measured is group_delay of the trace against the probe's vacuum
    transit |probe(t - 1/c)|^2 on the trace's own times; predicted is
    1/v_g - 1/c with v_g the group_velocity at the writing coupling, so 0
    in an empty medium.  Raises ValueError when the trace has no single
    dominant peak or the light is stopped (v_g = 0: coupling off in a
    medium with g2n > 0).
    """
    v_g = group_velocity(m, sequence.writing_omega_c)
    if v_g == 0.0:
        raise ValueError("no group velocity with the coupling off")
    vacuum = np.abs(sequence.probe_samples(trace.t - 1.0 / m.c)) ** 2
    measured = group_delay(trace, replace(trace, fwd_intensity=vacuum))
    return measured, 1.0 / v_g - 1.0 / m.c


def _single_peak_centroid(t, intensity, label: str) -> float:
    y = np.asarray(intensity, dtype=float)
    t = np.asarray(t, dtype=float)
    peak = y.max(initial=0.0)
    if peak <= 0.0:
        raise ValueError(f"no peak found in {label}")
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]) & (y[1:-1] > 0.5 * peak)
    if int(interior.sum()) > 1:
        raise ValueError(f"multiple comparable peaks in {label}")
    return float(np.dot(t, y) / y.sum())


def phase_match(k_c, k_p, k_a) -> tuple[np.ndarray, float]:
    """Conjugate wave vector k_PC = k_C - k_P + k_A and its shell mismatch.

    Each argument is a 3-vector (any array-like).  The mismatch is
    | |k_PC| - |k_P| | / |k_P|, the fractional deviation of the conjugate
    from the probe momentum shell.
    """
    k_c, k_p, k_a = (np.asarray(k, dtype=float) for k in (k_c, k_p, k_a))
    if not all(k.shape == (3,) and np.isfinite(k).all() for k in (k_c, k_p, k_a)):
        raise ValueError("wave vectors must be finite 3-vectors")
    k_p_norm = np.linalg.norm(k_p)
    if k_p_norm == 0.0:
        raise ValueError("probe wave vector must be nonzero")
    k_pc = k_c - k_p + k_a
    return k_pc, float(abs(np.linalg.norm(k_pc) - k_p_norm) / k_p_norm)
