import json
import math
import subprocess
import sys

import numpy as np
import pytest

from slowlight.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main)
from slowlight.config import (ConfigError, build_medium, build_protocol,
                              parse_config, render_config, resolved_omegas)

MINIMAL = """
[protocol]
kind = slow_light
"""

SMALL_RUN = """
[medium]
gamma_opt = 1.0
delta_S_khz = 30
n_classes = 8
optical_depth = 20
transit_time_us = 0.2

[grid]
cells = 24
t_end_us = 40
sample_rate = 10

[protocol]
kind = slow_light
probe_duration_us = 8
omega_C = 1.5
"""

SMALL_SWEEP = """
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


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.protocol.kind == "slow_light"
        assert cfg.protocol.p_a_delay_us == 3.0
        assert cfg.medium.delta_s_khz == 30.0
        assert cfg.medium.t2_spin_us == 500.0
        assert cfg.medium.t1_opt_us == 110.0
        assert cfg.medium.distribution == "lorentzian"
        assert cfg.protocol.retrieval_scale == pytest.approx(math.sqrt(2.0))

    def test_range_error_names_key_and_line(self):
        bad = "[medium]\ndelta_S_khz = -1\n[protocol]\nkind = memory\n"
        with pytest.raises(ConfigError, match="delta_S_khz") as err:
            parse_config(bad)
        assert err.value.category == "range"
        assert err.value.line == 2

    def test_unknown_key_rejected_with_location(self):
        bad = "[medium]\nfoo = 1\n[protocol]\nkind = memory\n"
        with pytest.raises(ConfigError, match="foo") as err:
            parse_config(bad)
        assert err.value.category == "unknown"
        assert err.value.line == 2

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="laser") as err:
            parse_config("[laser]\npower = 3\n")
        assert err.value.category == "unknown"

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[protocol]\nkind = memory\nnot a key value\n")
        assert err.value.category == "syntax"
        assert err.value.line == 3

    def test_missing_required_kind(self):
        with pytest.raises(ConfigError, match="kind") as err:
            parse_config("[medium]\nn_classes = 4\n")
        assert err.value.category == "missing"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[protocol]\nkind = memory\nkind = memory\n")

    def test_key_before_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kind = memory\n")
        assert err.value.category == "syntax"

    def test_power_calibration(self):
        cfg = parse_config(
            "[protocol]\nkind = slow_light\npower_C_mw = 16\n"
            "rabi_per_sqrt_mw = 0.5\n")
        omega_c, omega_a = resolved_omegas(cfg)
        assert omega_c == pytest.approx(2.0)
        assert omega_a == 0.0

    def test_power_and_rabi_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config("[protocol]\nkind = memory\nomega_C = 1\n"
                         "power_C_mw = 10\nrabi_per_sqrt_mw = 1\n")

    def test_power_without_calibration(self):
        with pytest.raises(ConfigError, match="rabi_per_sqrt_mw"):
            parse_config("[protocol]\nkind = memory\npower_C_mw = 10\n")

    def test_round_trip(self):
        cfg = parse_config(SMALL_SWEEP)
        assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_with_explicit_spin_rate(self):
        cfg = parse_config("[medium]\ngamma_spin = 0.004\n"
                           "[protocol]\nkind = memory\n")
        assert parse_config(render_config(cfg)) == cfg

    def test_spin_rate_and_time_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config("[medium]\ngamma_spin = 0.004\nt2_spin_us = 250\n"
                         "[protocol]\nkind = memory\n")

    def test_gamma_opt_defaults_to_inverse_t1_opt(self):
        derived = parse_config("[medium]\nt1_opt_us = 50\n"
                               "[protocol]\nkind = memory\n")
        assert build_medium(derived).gamma_opt == pytest.approx(0.02)
        explicit = parse_config("[medium]\nt1_opt_us = 50\ngamma_opt = 0.3\n"
                                "[protocol]\nkind = memory\n")
        assert build_medium(explicit).gamma_opt == 0.3
        for cfg in (derived, explicit):
            assert parse_config(render_config(cfg)) == cfg

    def test_builders(self):
        cfg = parse_config(SMALL_RUN)
        m = build_medium(cfg)
        assert m.optical_depth == pytest.approx(20.0)
        assert m.c == pytest.approx(5.0)
        protocol = build_protocol(cfg)
        assert protocol.kind == "slow_light"
        assert protocol.omega_c == 1.5


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, name="config.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


class TestCommands:
    def test_run_writes_trace_and_summary(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", cfg_file(SMALL_RUN),
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("# slowlight 0.1.0 config_sha256=")
        assert lines[1] == "t_us,fwd_intensity,bwd_intensity,spin_norm"
        summary = json.loads((out / "run.json").read_text())
        assert summary["checks"]["state_finite"]
        assert parse_config(summary["config_echo"]) == parse_config(SMALL_RUN)

    def test_run_peak_arrives_later_than_empty_medium(self, cfg_file, tmp_path):
        t_peaks = {}
        for label, depth in (("medium", "20"), ("empty", "0")):
            text = SMALL_RUN.replace("optical_depth = 20",
                                     f"optical_depth = {depth}")
            out = tmp_path / label
            assert main(["run", "--config", cfg_file(text, f"{label}.cfg"),
                         "--out", str(out)]) == EXIT_OK
            rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2)
            t_peaks[label] = rows[np.argmax(rows[:, 1]), 0]
        assert t_peaks["medium"] > t_peaks["empty"]

    def test_fit_recovers_synthetic_gaussian_decay(self, cfg_file, tmp_path):
        tau = 9.0
        rows = "\n".join(f"{t},{math.exp(-((t / tau) ** 2))}"
                         for t in (0.0, 6.0, 12.0))
        csv = tmp_path / "sweep.csv"
        csv.write_text("# header\nparam_us,peak_intensity\n" + rows + "\n")
        out = tmp_path / "fit"
        code = main(["fit", "--config", cfg_file(MINIMAL), "--input", str(csv),
                     "--out", str(out)])
        assert code == EXIT_OK
        body = json.loads((out / "fit.json").read_text())
        assert body["fits"]["gaussian_sq"]["tau_us"] == pytest.approx(tau, rel=1e-6)
        assert 0.0 < body["wall_time_s"] < 60.0  # measured, not a placeholder

    def test_sweep_json_reports_simulated_steps(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="probe pulse spans"):
            assert main(["sweep", "--config", cfg_file(SMALL_SWEEP),
                         "--out", str(out)]) == EXIT_OK
        body = json.loads((out / "sweep.json").read_text())
        # runs of 26, 29 and 32 us at dt = 0.0125 us; the trunk (T = 6) runs
        # whole and the other two integrate only their 10 us release
        assert body["independent_steps"] == 2080 + 2320 + 2560
        assert body["simulated_steps"] == 2560 + 2 * 800

    def test_sweep_rejects_empty_values(self, cfg_file):
        text = SMALL_SWEEP.replace("values = 0, 3, 6", "values =")
        assert main(["sweep", "--config", cfg_file(text)]) == EXIT_CONFIG

    def test_sweep_requires_sweep_section(self, cfg_file):
        assert main(["sweep", "--config", cfg_file(SMALL_RUN)]) == EXIT_CONFIG

    def test_run_requires_t_end(self, cfg_file):
        text = SMALL_RUN.replace("t_end_us = 40\n", "")
        assert main(["run", "--config", cfg_file(text)]) == EXIT_CONFIG

    def test_missing_config_file(self):
        assert main(["run", "--config", "/nonexistent/x.cfg"]) == EXIT_CONFIG

    def test_unwritable_output_is_io_error(self, cfg_file, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["run", "--config", cfg_file(SMALL_RUN),
                     "--out", str(blocker / "sub")])
        assert code == EXIT_IO

    def test_numeric_abort_exit_code(self, cfg_file, monkeypatch):
        from slowlight import cli
        from slowlight.dynamics import NumericalAbort

        def boom(*args, **kwargs):
            raise NumericalAbort("non-finite value in fields at t=1 us, cell 3")
        monkeypatch.setattr(cli, "run_dynamics", boom)
        assert main(["run", "--config", cfg_file(SMALL_RUN)]) == EXIT_NUMERIC

    def test_spectrum_schema(self, cfg_file, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", cfg_file(SMALL_RUN),
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "detuning_rad_per_us,chi_re,chi_im"
        data = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2)
        assert data.shape[0] == 801
        assert np.all(data[:, 2] >= -1e-12)  # passive medium

    def test_output_dir_env_var(self, cfg_file, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("SLOWLIGHT_OUTDIR", str(target))
        assert main(["spectrum", "--config", cfg_file(SMALL_RUN)]) == EXIT_OK
        assert (target / "spectrum.csv").exists()

    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["spectrum", "run", "fit"])
    def test_threads_only_on_sweep(self, command, cfg_file, tmp_path):
        assert main([command, "--config", cfg_file(SMALL_RUN), "--out",
                     str(tmp_path), "--threads", "2"]) == EXIT_CONFIG


class TestDeterminism:
    def test_sweep_byte_identical_across_processes(self, cfg_file, tmp_path):
        config = cfg_file(SMALL_SWEEP)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "slowlight.cli", "sweep",
                 "--config", config, "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_threads_flag_keeps_csv_identical(self, cfg_file, tmp_path):
        config = cfg_file(SMALL_SWEEP)
        csvs = []
        for name, threads in (("t1", "1"), ("t3", "3")):
            out = tmp_path / name
            with pytest.warns(UserWarning, match="probe pulse spans"):
                assert main(["sweep", "--config", config, "--out", str(out),
                             "--threads", threads]) == EXIT_OK
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]
