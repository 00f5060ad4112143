import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from slowlight.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main)
from slowlight.config import (Config, ConfigError, build_classes,
                              build_medium, build_protocol, parse_config,
                              render_config)
from slowlight.experiment import ProtocolParams

MINIMAL = """
[protocol]
kind = slow_light
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

# a stationary hold sweep whose second point peaks 3.6 us after its release
SHORT_HOLD_SWEEP = """
[medium]
gamma_opt = 1.0
n_classes = 2
optical_depth = 200
transit_time_us = 0.2

[grid]
cells = 16
sample_rate = 10

[protocol]
omega_C = 2
omega_A = 2
probe_duration_us = 4
p_a_delay_us = 13

[sweep]
parameter = a_duration_us
values = 0.5, 3.5
"""


# every key in its file spelling: (section, key, text, attribute, value),
# each value valid and other than the default
EVERY_KEY = [
    ("medium", "gamma_opt", "0.5", "gamma_opt", 0.5),
    ("medium", "gamma_spin", "0.01", "gamma_spin", 0.01),
    ("medium", "delta_S_khz", "12.5", "delta_s_khz", 12.5),
    ("medium", "distribution", "gaussian", "distribution", "gaussian"),
    ("medium", "n_classes", "7", "n_classes", 7),
    ("medium", "optical_depth", "3.5", "optical_depth", 3.5),
    ("medium", "transit_time_us", "0.5", "transit_time_us", 0.5),
    ("grid", "cells", "9", "cells", 9),
    ("grid", "t_end_us", "12.5", "t_end_us", 12.5),
    ("grid", "sample_rate", "7", "sample_rate", 7.0),
    ("protocol", "kind", "stationary", "kind", "stationary"),
    ("protocol", "probe_duration_us", "2", "probe_duration_us", 2.0),
    ("protocol", "probe_amplitude", "0.5", "probe_amplitude", 0.5),
    ("protocol", "omega_C", "1.5", "omega_c", 1.5),
    ("protocol", "omega_A", "0.75", "omega_a", 0.75),
    ("protocol", "retrieval_scale", "1.25", "retrieval_scale", 1.25),
    ("protocol", "p_a_delay_us", "2", "p_a_delay_us", 2.0),
    ("protocol", "storage_T_us", "4", "storage_t_us", 4.0),
    ("protocol", "a_duration_us", "5", "a_duration_us", 5.0),
    ("protocol", "c_off_us", "6", "c_off_us", 6.0),
    ("protocol", "c_ramp_us", "0.25", "c_ramp_us", 0.25),
    ("protocol", "release_window_us", "7", "release_window_us", 7.0),
    ("protocol", "peak_guard_us", "0.5", "peak_guard_us", 0.5),
    ("sweep", "parameter", "a_duration_us", "parameter", "a_duration_us"),
    ("sweep", "values", "0, 1.5 3", "values", (0.0, 1.5, 3.0)),
    ("spectrum", "span_rad_per_us", "2", "span_rad_per_us", 2.0),
    ("spectrum", "points", "11", "points", 11),
]
# second spellings of the decay rates and Rabi frequencies, and the probe's
# shape and start (always gaussian, from t = 0), no longer keys
REMOVED_KEYS = [("medium", "t2_spin_us"), ("medium", "t1_opt_us"),
                ("protocol", "power_C_mw"), ("protocol", "power_A_mw"),
                ("protocol", "rabi_per_sqrt_mw"), ("spectrum", "omega_C"),
                ("protocol", "probe_shape"), ("protocol", "probe_start_us")]
# sections that no longer exist: [output] kept traces nothing read
REMOVED_SECTIONS = ["output"]


def _built(cfg):
    """Everything a run takes from the [medium], [grid] and [protocol] keys."""
    return (build_medium(cfg), build_classes(cfg), build_protocol(cfg),
            cfg.grid.cells, cfg.protocol.kind)


class TestParseConfig:
    def test_every_key_round_trips(self):
        default = Config()
        for section, obj in vars(default).items():
            listed = {attr for s, _, _, attr, _ in EVERY_KEY if s == section}
            assert listed == {f.name for f in fields(obj)}, section
        cfg = parse_config("".join(f"[{section}]\n{key} = {text}\n"
                                   for section, key, text, _, _ in EVERY_KEY))
        for section, key, _, attr, value in EVERY_KEY:
            got = getattr(getattr(cfg, section), attr)
            assert got == value and type(got) is type(value), key
            assert got != getattr(getattr(default, section), attr), key
        assert parse_config(render_config(cfg)) == cfg

    def test_every_model_key_changes_the_built_inputs(self):
        base = _built(parse_config(MINIMAL))
        for section, key, text, _, _ in EVERY_KEY:
            if section not in ("medium", "grid", "protocol"):
                continue
            alone = f"[{section}]\n{key} = {text}\n"
            cfg = parse_config(alone if key == "kind" else MINIMAL + alone)
            assert _built(cfg) != base, key

    def test_minimal_config_gets_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.protocol.kind == "slow_light"
        assert cfg.protocol.p_a_delay_us == 3.0
        assert cfg.medium.delta_s_khz == 30.0
        m, p = build_medium(cfg), build_protocol(cfg)
        assert cfg.medium.gamma_opt == m.gamma_opt == 1.0 / 110.0
        assert cfg.medium.gamma_spin == m.gamma_spin == 1.0 / 500.0
        assert cfg.protocol.omega_c == p.omega_c == 1.0
        assert cfg.protocol.omega_a == p.omega_a == 0.0
        assert cfg.medium.distribution == "lorentzian"
        assert cfg.protocol.retrieval_scale == pytest.approx(math.sqrt(2.0))
        # the library's defaults are the config's
        assert p == ProtocolParams()

    def test_range_error_names_key_and_line(self):
        bad = "[medium]\ndelta_S_khz = -1\n[protocol]\nkind = memory\n"
        with pytest.raises(ConfigError, match="delta_S_khz") as err:
            parse_config(bad)
        assert err.value.category == "range"
        assert err.value.line == 2

    def test_sweep_values_must_be_finite(self):
        bad = SMALL_SWEEP.replace("values = 0, 3, 6", "values = 0, inf")
        with pytest.raises(ConfigError, match="'values'") as err:
            parse_config(bad)
        assert err.value.category == "range"
        assert err.value.line == bad.splitlines().index("values = 0, inf") + 1

    def test_unknown_key_rejected_with_location(self):
        for key in ("foo", "g_C"):
            bad = f"[medium]\n{key} = 2\n[protocol]\nkind = memory\n"
            with pytest.raises(ConfigError, match=key) as err:
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

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[protocol]\nkind = memory\nkind = memory\n")

    def test_key_before_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kind = memory\n")
        assert err.value.category == "syntax"

    @pytest.mark.parametrize("key, text", [("cells", "inf"),
                                           ("n_classes", "1e400")])
    def test_infinite_integer_names_key_and_line(self, key, text):
        section = "grid" if key == "cells" else "medium"
        bad = f"[protocol]\nkind = memory\n[{section}]\n{key} = {text}\n"
        with pytest.raises(ConfigError, match=f"'{key}'") as err:
            parse_config(bad)
        assert err.value.category == "syntax"
        assert err.value.line == 4

    @pytest.mark.parametrize("section, key", REMOVED_KEYS)
    def test_removed_spelling_is_unknown(self, section, key, tmp_path):
        text = f"[protocol]\nkind = slow_light\n[{section}]\n{key} = 2\n"
        with pytest.raises(ConfigError, match=key) as err:
            parse_config(text)
        assert err.value.category == "unknown"
        assert err.value.line == 4
        path = tmp_path / "removed.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("section", REMOVED_SECTIONS)
    def test_removed_section_is_unknown(self, section):
        text = f"[protocol]\nkind = slow_light\n[{section}]\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\]") as err:
            parse_config(text)
        assert err.value.category == "unknown"
        assert err.value.line == 3

    def test_round_trip(self):
        cfg = parse_config(SMALL_SWEEP)
        assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_with_explicit_spin_rate(self):
        cfg = parse_config("[medium]\ngamma_spin = 0.004\n"
                           "[protocol]\nkind = memory\n")
        assert parse_config(render_config(cfg)) == cfg

    def test_builders(self):
        cfg = parse_config(SMALL_RUN)
        m = build_medium(cfg)
        assert m.optical_depth == pytest.approx(20.0)
        assert m.c == pytest.approx(5.0)
        assert cfg.protocol.kind == "slow_light"
        assert build_protocol(cfg).omega_c == 1.5


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, name="config.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


class TestCommands:
    def test_run_writes_trace_and_summary(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", cfg_file(SMALL_RUN),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""  # a weak probe warns of nothing
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("# slowlight 0.1.0 config_sha256=")
        assert lines[1] == "t_us,fwd_intensity,bwd_intensity,spin_norm"
        summary = json.loads((out / "run.json").read_text())
        assert summary["checks"] == {"weak_probe_ok": True}
        assert parse_config(summary["config_echo"]) == parse_config(SMALL_RUN)
        assert summary["group_delay_us"] == \
            pytest.approx(summary["predicted_delay_us"], rel=0.10)

    def test_run_warns_when_the_weak_probe_check_fails(self, cfg_file,
                                                      tmp_path, capsys):
        # a probe of amplitude 30 leaves atomic amplitudes up to 1.4 in the
        # final state: the run is still written and exits 0
        path = cfg_file(SMALL_RUN.replace("omega_C = 1.5",
                                          "omega_C = 1.5\nprobe_amplitude = 30"))
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning:") and path in err[0]
        assert "weak-probe" in err[0]
        body = json.loads((tmp_path / "run.json").read_text())
        assert body["checks"] == {"weak_probe_ok": False}
        assert (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("coupling", [
        "omega_C = 1.5\nprobe_amplitude = 0",  # no pulse to time
        "omega_C = 0",                          # no group velocity
    ])
    def test_untimed_slow_light_run_reports_null_delay(self, coupling,
                                                       cfg_file, tmp_path):
        text = SMALL_RUN.replace("omega_C = 1.5", coupling)
        assert main(["run", "--config", cfg_file(text),
                     "--out", str(tmp_path)]) == EXIT_OK
        body = json.loads((tmp_path / "run.json").read_text())
        assert body["group_delay_us"] is None
        assert body["predicted_delay_us"] is None

    def test_only_slow_light_runs_report_a_delay(self, cfg_file, tmp_path):
        text = SMALL_RUN.replace("kind = slow_light", "kind = memory")
        assert main(["run", "--config", cfg_file(text),
                     "--out", str(tmp_path)]) == EXIT_OK
        body = json.loads((tmp_path / "run.json").read_text())
        assert "group_delay_us" not in body
        assert "predicted_delay_us" not in body

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

    def test_fit_recovers_synthetic_amplitude_decay(self, tmp_path):
        # intensity exp(-2 t / tau) is amplitude exp(-t / tau)
        tau, sha = 9.0, "0123456789abcdef" * 4
        rows = "\n".join(f"{t},{0.8 * math.exp(-2.0 * t / tau)}"
                         for t in (0.0, 6.0, 12.0))
        csv = tmp_path / "sweep.csv"
        csv.write_text(f"# slowlight 0.1.0 config_sha256={sha}\n"
                       "param_us,peak_intensity\n" + rows + "\n")
        out = tmp_path / "fit"
        code = main(["fit", "--input", str(csv), "--out", str(out)])
        assert code == EXIT_OK
        body = json.loads((out / "fit.json").read_text())
        assert list(body["fits"]) == ["exponential_amplitude"]
        fit = body["fits"]["exponential_amplitude"]
        assert fit["tau_us"] == pytest.approx(tau, rel=1e-6)
        assert fit["i0"] == pytest.approx(0.8, rel=1e-6)
        assert fit["converged"] is True
        assert body["config_sha256"] == sha
        assert "config_echo" not in body
        assert 0.0 < body["wall_time_s"] < 60.0  # measured, not a placeholder

    def test_fit_without_comment_line_names_no_config(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        csv.write_text("param_us,peak_intensity\n0,1.0\n4,0.6\n8,0.3\n")
        assert main(["fit", "--input", str(csv), "--out", str(tmp_path)]) == EXIT_OK
        body = json.loads((tmp_path / "fit.json").read_text())
        assert body["config_sha256"] is None

    def test_fit_reports_non_converged_fit(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text("param_us,peak_intensity\n0,0.5\n4,0.5\n8,0.5\n")
        assert main(["fit", "--input", str(csv), "--out", str(tmp_path)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "warning:" in err and str(csv) in err
        body = json.loads((tmp_path / "fit.json").read_text())
        assert body["fits"]["exponential_amplitude"]["converged"] is False

    def test_fit_takes_no_config(self, cfg_file, tmp_path):
        csv = tmp_path / "sweep.csv"
        csv.write_text("param_us,peak_intensity\n0,1.0\n4,0.6\n8,0.3\n")
        assert main(["fit", "--config", cfg_file(MINIMAL), "--input", str(csv),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fit_rejects_non_finite_intensity(self, tmp_path, bad):
        csv = tmp_path / "sweep.csv"
        csv.write_text("param_us,peak_intensity\n0,1.0\n4,0.6\n"
                       f"8,{bad}\n12,0.2\n")
        out = tmp_path / "fit"
        code = main(["fit", "--input", str(csv), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "fit.json").exists()

    @pytest.mark.parametrize("text, line", [
        # a run's trace: the header is not a sweep's
        ("# slowlight\nt_us,fwd_intensity,bwd_intensity,spin_norm\n"
         "0,0,0,0\n1,0.5,0,0.1\n2,1,0,0.2\n3,0.5,0,0.1\n", 2),
        # a third field on one row
        ("param_us,peak_intensity\n0,1.0\n4,0.6,0.1\n8,0.3\n", 3),
    ], ids=["trace", "three_fields"])
    def test_fit_rejects_csv_other_than_a_sweep(self, tmp_path, capsys, text,
                                                line):
        csv = tmp_path / "trace.csv"
        csv.write_text(text)
        out = tmp_path / "fit"
        code = main(["fit", "--input", str(csv), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"{csv} line {line}:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_json_reports_simulated_steps(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="probe pulse spans"):
            assert main(["sweep", "--config", cfg_file(SMALL_SWEEP),
                         "--out", str(out)]) == EXIT_OK
        body = json.loads((out / "sweep.json").read_text())
        # runs of 26, 29 and 32 us at dt = 0.0125 us.  The trunk (T = 6)
        # runs to 23 us, where its 1 us retrieval ramp ends; the other two
        # step forward through their own ramps from their releases at 16
        # and 19 us; one adjoint pass covers the 9 us held rest of every
        # window
        assert body["independent_steps"] == 2080 + 2320 + 2560
        assert body["simulated_steps"] == 1840 + 2 * 80 + 720
        assert body["peak_at_window_end"] == []

    def test_sweep_json_lists_windows_that_cut_the_pulse_off(self, cfg_file,
                                                             tmp_path):
        peaks = {}
        for window, cut in (("3.5", [3.5]), ("8", [])):
            text = SHORT_HOLD_SWEEP + f"[protocol]\nrelease_window_us = {window}\n"
            out = tmp_path / window
            with pytest.warns(UserWarning, match="probe pulse spans"):
                assert main(["sweep", "--config", cfg_file(text, f"{window}.cfg"),
                             "--out", str(out)]) == EXIT_OK
            body = json.loads((out / "sweep.json").read_text())
            assert body["peak_at_window_end"] == cut, window
            rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=2)
            peaks[window] = rows[:, 1]
        # the cut window saw the pulse rise, not its peak
        assert peaks["3.5"][0] == peaks["8"][0]
        assert peaks["3.5"][1] < peaks["8"][1]

    def test_each_command_requires_only_what_it_reads(self, cfg_file,
                                                      tmp_path, capsys):
        config = cfg_file("[medium]\nn_classes = 4\n")
        csv = tmp_path / "sweep.csv"
        csv.write_text("param_us,peak_intensity\n0,1.0\n4,0.6\n8,0.3\n")
        assert main(["spectrum", "--config", config, "--out",
                     str(tmp_path)]) == EXIT_OK
        assert main(["fit", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["run", "--config", config, "--out",
                     str(tmp_path)]) == EXIT_CONFIG
        assert "protocol.kind" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_sweep_takes_its_protocol_from_the_parameter(self, cfg_file,
                                                         tmp_path):
        no_kind = SMALL_SWEEP.replace("kind = memory\n", "")
        assert "kind" not in no_kind
        rows = []
        for name, text in (("kind", SMALL_SWEEP), ("no_kind", no_kind)):
            out = tmp_path / name
            with pytest.warns(UserWarning, match="probe pulse spans"):
                assert main(["sweep", "--config", cfg_file(text, f"{name}.cfg"),
                             "--out", str(out)]) == EXIT_OK
            rows.append((out / "sweep.csv").read_text().splitlines()[1:])
        assert rows[0] == rows[1]

    def test_sweep_rejects_empty_values(self, cfg_file):
        text = SMALL_SWEEP.replace("values = 0, 3, 6", "values =")
        assert main(["sweep", "--config", cfg_file(text)]) == EXIT_CONFIG

    def test_sweep_requires_sweep_section(self, cfg_file):
        assert main(["sweep", "--config", cfg_file(SMALL_RUN)]) == EXIT_CONFIG

    def test_run_without_t_end_ends_by_release_window(self, cfg_file, tmp_path):
        # slow light ends release_window_us after the 3-FWHM probe window
        # (24 us), memory after its retrieval starts (24 + 2 us)
        text = SMALL_RUN.replace("t_end_us = 40\n", "") + "release_window_us = 5\n"
        for kind, extra, t_end in (("slow_light", "", 29.0),
                                   ("memory", "storage_T_us = 2\n", 31.0)):
            out = tmp_path / kind
            config = text.replace("kind = slow_light", f"kind = {kind}") + extra
            assert main(["run", "--config", cfg_file(config, f"{kind}.cfg"),
                         "--out", str(out)]) == EXIT_OK
            rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2)
            assert rows[-1, 0] == pytest.approx(t_end, abs=1e-9), kind

    def test_sweep_rejects_t_end(self, cfg_file, tmp_path, capsys):
        text = SMALL_SWEEP.replace("cells = 20\n", "cells = 20\nt_end_us = 40\n")
        assert main(["sweep", "--config", cfg_file(text),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "t_end_us" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("kind, parameter", [
        ("slow_light", "storage_T_us"), ("stationary", "storage_T_us"),
        ("memory", "a_duration_us")])
    def test_sweep_parameter_must_match_kind(self, kind, parameter, cfg_file,
                                             tmp_path):
        text = SMALL_SWEEP.replace("kind = memory", f"kind = {kind}").replace(
            "parameter = storage_T_us", f"parameter = {parameter}")
        with pytest.raises(ConfigError, match=parameter) as err:
            parse_config(text)
        assert err.value.category == "range"
        assert main(["sweep", "--config", cfg_file(text),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "sweep.csv").exists()

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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_blow_up_exits_numeric_once_and_quietly(self, command, cfg_file,
                                                    tmp_path):
        # Omega dt = 1,250 makes the RK4 map grow without bound.  Even with
        # warnings as errors the command exits 3, and stderr holds the one
        # failure line: the step loop lets its finiteness check report the
        # overflow, which numpy does not warn of
        text = (CONFIGS / "trapping_balanced.cfg").read_text(encoding="utf-8")
        text = re.sub(r"(?m)^(omega_[CA]) = .*$", r"\1 = 360000", text)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "slowlight.cli", command,
             "--config", cfg_file(text), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERIC, proc.stderr
        assert proc.stderr.startswith("numerical failure: non-finite value")
        assert len(proc.stderr.splitlines()) == 1

    def test_spectrum_schema(self, cfg_file, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", cfg_file(SMALL_RUN),
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "detuning_rad_per_us,chi_re,chi_im"
        data = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2)
        assert data.shape[0] == 801
        assert np.all(data[:, 2] >= -1e-12)  # passive medium

    def test_out_defaults_to_working_directory(self, cfg_file, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--config", cfg_file(SMALL_RUN)]) == EXIT_OK
        assert (tmp_path / "spectrum.csv").exists()

    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["spectrum", "run", "sweep", "fit"])
    def test_threads_flag_is_usage_error(self, command, cfg_file, tmp_path,
                                         capsys):
        csv = tmp_path / "sweep.csv"
        csv.write_text("param_us,peak_intensity\n0,1.0\n4,0.6\n8,0.3\n")
        text = SMALL_SWEEP if command == "sweep" else SMALL_RUN
        config = [] if command == "fit" else ["--config", cfg_file(text)]
        assert main([command, *config, "--out", str(tmp_path),
                     "--threads", "2"]) == EXIT_CONFIG
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("sweep", ["small", "trapping_balanced"])
    def test_sweep_byte_identical_across_processes(self, sweep, cfg_file,
                                                   tmp_path):
        # the second process takes 2 BLAS threads: no sum the sweep writes
        # may depend on how BLAS splits it.  The trapping trunk runs dark
        # blocks of 29 steps on 72 cells, products large enough for BLAS
        # to run on both threads
        config = (cfg_file(SMALL_SWEEP) if sweep == "small"
                  else str(CONFIGS / f"{sweep}.cfg"))
        outputs = []
        for name, threads in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "slowlight.cli", "sweep",
                 "--config", config, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
