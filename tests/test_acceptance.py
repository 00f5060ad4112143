"""Acceptance suite.

Each numbered test exercises one acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line.  Criteria 2-5 read the
paper's workloads from configs/*.cfg: criteria 2-4 run them the
documented way, `slowlight sweep` then `slowlight fit`, and take the decay
time from fit.json.  Decay times for coherence are quoted throughout as
amplitude (field-envelope) time constants: detected peak intensities are
squared envelopes, so the exponential decay model is fitted to the square
root of the peak intensity, which is identical to fitting the
squared-exponential intensity law directly.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
"""
import hashlib
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slowlight.analysis import fit_decay, phase_match, slow_light_delay
from slowlight.cli import EXIT_OK, main
from slowlight.config import (build_classes, build_medium, build_protocol,
                              parse_config)
from slowlight.dynamics import (ControlDrive, Grid, SimState, _Propagator,
                                balance_residual, excitation_number,
                                run_dynamics, step)
from slowlight.experiment import ProtocolParams, standard_sequence
from slowlight.medium import MediumParams, dephasing_time, make_spectral_classes

T2_STAR = 1000.0 / (math.pi * 30.0)   # 10.61 us at 30 kHz width
T2_SPIN = 500.0                       # homogeneous spin coherence time, us

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _config(name: str):
    return parse_config((CONFIGS / name).read_text(encoding="utf-8"))


def _sweep_tau(name: str, tmp_path_factory) -> float:
    """fit.json's amplitude decay time of `slowlight sweep` and `slowlight
    fit` on configs/<name>.  sweep.json's peak_at_window_end must be empty
    (no release window cuts its pulse off), fit.json must name the
    configuration that produced the sweep, and the sweep's adjoint pass must
    run on the half system."""
    out = tmp_path_factory.mktemp(name.removesuffix(".cfg"))
    text = (CONFIGS / name).read_text(encoding="utf-8")
    passes = []  # the propagator of each adjoint pass
    transpose_block = _Propagator.transpose_block

    def spied(self, *args):
        if not any(p is self for p in passes):
            passes.append(self)
        return transpose_block(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Propagator, "transpose_block", spied)
        assert main(["sweep", "--config", str(CONFIGS / name),
                     "--out", str(out)]) == EXIT_OK
    assert [p.half for p in passes] == [True]
    assert main(["fit", "--out", str(out)]) == EXIT_OK
    sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert sweep["peak_at_window_end"] == []
    fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert fit["config_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    return fit["fits"]["exponential_amplitude"]["tau_us"]


@pytest.fixture(scope="module")
def memory_tau(tmp_path_factory):
    """Criterion-2 sweep: storage delay scan of the memory protocol."""
    return _sweep_tau("memory.cfg", tmp_path_factory)


def _trapping_tau(name: str, tmp_path_factory) -> float:
    assert max(_config(name).sweep.values) <= 5.0 * T2_STAR + 1.0
    return _sweep_tau(name, tmp_path_factory)


@pytest.fixture(scope="module")
def balanced_trap_tau(tmp_path_factory):
    """Criterion-3 sweep: balanced counterpropagating couplings."""
    return _trapping_tau("trapping_balanced.cfg", tmp_path_factory)


def test_criterion_1_dephasing_relation():
    value = dephasing_time(30.0)
    ok = abs(value - 10.6) <= 0.05
    _report(1, ok, f"dephasing_time(30 kHz) = {value:.4f} us (10.6 +/- 0.05)")


def test_criterion_2_memory_decay(memory_tau):
    ok = abs(memory_tau - T2_STAR) <= 0.15 * T2_STAR
    _report(2, ok, f"memory decay tau = {memory_tau:.2f} us "
                   f"(within 15% of {T2_STAR:.2f})")


def test_criterion_3_trapping_extends_storage(memory_tau, balanced_trap_tau):
    upper = 2.2 * T2_SPIN  # homogeneous amplitude limit 2*T2 plus 10% slack
    ok = balanced_trap_tau >= 5.0 * memory_tau and balanced_trap_tau <= upper
    _report(3, ok, f"balanced trapping tau = {balanced_trap_tau:.1f} us "
                   f">= 5 x {memory_tau:.2f} us and <= {upper:.0f} us")


def test_criterion_4_balance_sensitivity(balanced_trap_tau, tmp_path_factory):
    protocol = _config("trapping_imbalanced.cfg").protocol
    residual = balance_residual(protocol.omega_c, protocol.omega_a)
    assert residual == pytest.approx(1.0 / 3.0)
    imbalanced_tau = _trapping_tau("trapping_imbalanced.cfg", tmp_path_factory)
    ok = imbalanced_tau <= balanced_trap_tau / 2.0
    _report(4, ok, f"imbalanced trapping tau = {imbalanced_tau:.1f} us "
                   f"<= half of {balanced_trap_tau:.1f} us")


def test_criterion_5_slow_light_delay():
    cfg = _config("slow_light.cfg")
    grid = Grid(cells=cfg.grid.cells)
    classes = build_classes(cfg)
    seq = standard_sequence(cfg.protocol.kind, build_protocol(cfg))
    details = []
    ok = True
    for depth in (10.0, 30.0):
        m = build_medium(replace(cfg, medium=replace(cfg.medium,
                                                     optical_depth=depth)))
        trace, _ = run_dynamics(seq, m, grid, classes)
        measured, predicted = slow_light_delay(trace, seq, m)
        ok = ok and abs(measured - predicted) <= 0.10 * predicted
        details.append(f"d={depth:.0f}: {measured:.2f} vs {predicted:.2f} us")
    _report(5, ok, "; ".join(details) + " (within 10%)")


def test_criterion_6_lossless_conservation():
    m = MediumParams(gamma_opt=0.0, gamma_spin=0.0, g2n=1.0, c=5.0)
    grid = Grid(cells=64)
    classes = make_spectral_classes(0.0, 1, "single")
    state = SimState.zeros(grid, classes)
    z = grid.z
    state.e_plus[:] = np.exp(-(((z - 0.5) / 0.1) ** 2))
    drive = ControlDrive.constant(0.4, 0.4)
    dt = grid.dz / m.c
    q0 = excitation_number(state, m)
    for _ in range(10_000):
        step(state, drive, m, dt, boundary="periodic")
    drift = abs(excitation_number(state, m) - q0) / q0
    _report(6, drift <= 1e-6,
            f"excitation drift {drift:.2e} over 1e4 steps (<= 1e-6)")


def test_criterion_7_fit_oracle():
    rng = np.random.default_rng(20260808)
    t = np.linspace(0.0, 30.0, 16)
    ok = True
    details = []
    for model in ("gaussian_sq", "exponential"):
        arg = (t / 11.0) ** 2 if model == "gaussian_sq" else t / 11.0
        clean = 1.3 * np.exp(-arg)
        fit = fit_decay(list(zip(t, clean)), model)
        clean_ok = (abs(fit.tau - 11.0) / 11.0 <= 1e-2
                    and abs(fit.i0 - 1.3) / 1.3 <= 1e-2)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
        nfit = fit_decay(list(zip(t, np.clip(noisy, 0.0, None))), model)
        noisy_ok = (abs(nfit.tau - 11.0) / 11.0 <= 0.05
                    and abs(nfit.i0 - 1.3) / 1.3 <= 0.05)
        ok = ok and clean_ok and noisy_ok
        details.append(f"{model}: clean tau {fit.tau:.4f}, "
                       f"1%-noise tau {nfit.tau:.3f}")
    _report(7, ok, "; ".join(details))


def _mirror_case(rng) -> float:
    classes = make_spectral_classes(rng.uniform(5.0, 60.0), 3, "lorentzian")
    m = MediumParams.from_optical_depth(rng.uniform(5.0, 60.0),
                                        gamma_opt=1.0, c=4.0)
    grid = Grid(cells=10)
    dt = grid.dz / m.c
    steps = 160
    t = dt * np.arange(steps)
    center = rng.uniform(0.5, 1.5)
    inject = rng.uniform(0.2, 1.0) * np.exp(-(((t - center) / 0.4) ** 2)) \
        * np.exp(1j * rng.uniform(-1.0, 1.0) * t)
    omega_c = rng.uniform(0.2, 3.0)
    omega_a = rng.uniform(0.0, 3.0)
    outs = []
    for side, (oc, oa) in (("fwd", (omega_c, omega_a)),
                           ("bwd", (omega_a, omega_c))):
        state = SimState.zeros(grid, classes)
        drive = ControlDrive.constant(oc, oa)
        trace = []
        for n in range(steps):
            if side == "fwd":
                step(state, drive, m, dt, inject_plus=inject[n])
                trace.append(state.e_plus[-1])
            else:
                step(state, drive, m, dt, inject_minus=inject[n])
                trace.append(state.e_minus[0])
        outs.append(np.asarray(trace))
    return float(np.max(np.abs(outs[0] - outs[1])))


def _linearity_case(rng) -> float:
    classes = make_spectral_classes(30.0, 3, "lorentzian")
    m = MediumParams.from_optical_depth(rng.uniform(5.0, 40.0),
                                        gamma_opt=1.0, c=4.0)
    grid = Grid(cells=12)
    alpha = rng.uniform(0.05, 3.0)
    p1 = ProtocolParams(omega_c=rng.uniform(0.5, 2.5),
                        probe_duration_us=1.5, probe_amplitude=1.0,
                        t_end_us=6.0, sample_rate=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq1 = standard_sequence("slow_light", p1)
        trace1, _ = run_dynamics(seq1, m, grid, classes)
        p2 = ProtocolParams(**{**p1.__dict__, "probe_amplitude": alpha})
        seq2 = standard_sequence("slow_light", p2)
        trace2, _ = run_dynamics(seq2, m, grid, classes)
    scale = max(np.max(trace1.fwd_intensity), 1e-300)
    return float(np.max(np.abs(trace2.fwd_intensity
                               - alpha ** 2 * trace1.fwd_intensity)) / scale)


def _phase_match_case(rng) -> float:
    vecs = rng.normal(size=(4, 3))
    k_c = vecs[0]
    k_p = vecs[1] + [0.0, 0.0, 2.0]
    v = vecs[3]
    k_a = k_p - k_c + v
    k_pc, _ = phase_match(k_c, k_p, k_a)
    err = np.max(np.abs(k_pc - v))
    # linearity: scaling every argument scales the conjugate vector
    s = rng.uniform(0.1, 5.0)
    scaled, _ = phase_match(s * k_c, s * k_p, s * k_a)
    err = max(err, np.max(np.abs(scaled - s * k_pc)))
    return float(err)


def test_criterion_8_symmetry_property_suites():
    rng = np.random.default_rng(1234)
    mirror_worst = max(_mirror_case(rng) for _ in range(100))
    linear_worst = max(_linearity_case(rng) for _ in range(100))
    phase_worst = max(_phase_match_case(rng) for _ in range(100))
    ok = mirror_worst <= 1e-8 and linear_worst <= 1e-8 and phase_worst <= 1e-9
    _report(8, ok, f"100 cases each: mirror max dev {mirror_worst:.2e}, "
                   f"linearity {linear_worst:.2e}, "
                   f"phase-match {phase_worst:.2e}")


SWEEP_CONFIG = """
[medium]
gamma_opt = 1.0
delta_S_khz = 30
n_classes = 6
optical_depth = 30
transit_time_us = 0.25

[grid]
cells = 20
sample_rate = 10

[protocol]
kind = memory
probe_duration_us = 5
omega_C = 1.8
c_off_us = 16
c_ramp_us = 1.0
release_window_us = 10

[sweep]
parameter = storage_T_us
values = 0, 3, 6
"""


def test_criterion_9_byte_identical_sweeps(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG, encoding="utf-8")
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "slowlight.cli", "sweep",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        payloads.append((out / "sweep.csv").read_bytes())
    ok = payloads[0] == payloads[1]
    _report(9, ok, f"two invocations, {len(payloads[0])} bytes each, "
                   f"identical={ok}")
