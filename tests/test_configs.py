"""The paper's workloads and the documented format as config files.

Each `configs/*.cfg` must build exactly the inputs of an acceptance sweep
(criteria 2, 3 and 4 of tests/test_acceptance.py), so that `slowlight
sweep` and `slowlight fit` on it reproduce the acceptance decay time, and
the README's example configuration must parse.  Nothing is integrated here.
"""
import math
import re
from pathlib import Path

import numpy as np
import pytest

from slowlight.config import (build_classes, build_medium, build_protocol,
                              parse_config, render_config)
from slowlight.experiment import ProtocolParams
from slowlight.medium import MediumParams, make_spectral_classes

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _memory_inputs():
    """Criterion 2: the storage-delay sweep of the memory protocol."""
    m = MediumParams.from_optical_depth(40.0, gamma_opt=1.0, c=5.0)
    classes = make_spectral_classes(30.0, 64, "lorentzian")
    base = ProtocolParams(omega_c=2.0, probe_duration_us=10.0,
                          c_off_us=30.0, c_ramp_us=2.0,
                          release_window_us=18.0, sample_rate=20.0,
                          peak_guard_us=1.0)
    return m, classes, base, 32, "storage_T_us", np.arange(0.0, 31.0, 2.0)


def _trapping_inputs(omega_a_over_c: float):
    """Criteria 3 and 4: the hold-duration sweep of stationary light."""
    m = MediumParams.from_optical_depth(800.0, gamma_opt=1.0, c=4.0)
    classes = make_spectral_classes(30.0, 64, "lorentzian")
    omega_c = math.sqrt(20.0)
    base = ProtocolParams(omega_c=omega_c,
                          omega_a=omega_a_over_c * omega_c,
                          probe_duration_us=10.0, p_a_delay_us=33.0,
                          release_window_us=35.0, sample_rate=10.0,
                          peak_guard_us=1.0)
    return m, classes, base, 72, "a_duration_us", np.arange(3.0, 54.0, 5.0)


INPUTS = {
    "memory.cfg": _memory_inputs,
    "trapping_balanced.cfg": lambda: _trapping_inputs(1.0),
    "trapping_imbalanced.cfg": lambda: _trapping_inputs(2.0),
}


def test_every_config_is_checked():
    assert sorted(p.name for p in CONFIGS.glob("*.cfg")) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_config_builds_acceptance_inputs(name):
    cfg = parse_config((CONFIGS / name).read_text(encoding="utf-8"))
    assert parse_config(render_config(cfg)) == cfg
    m, classes, base, cells, parameter, values = INPUTS[name]()
    assert build_medium(cfg) == m
    assert build_classes(cfg) == classes
    assert build_protocol(cfg) == base
    assert cfg.grid.cells == cells
    assert cfg.sweep.parameter == parameter
    assert cfg.sweep.values == tuple(values)


def test_readme_example_config_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert parse_config(render_config(cfg)) == cfg
