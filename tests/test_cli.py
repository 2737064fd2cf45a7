import subprocess
import sys
from pathlib import Path

import pytest

from etncs.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "worked_example.cfg"

# short-horizon overrides shared by the CLI round-trip tests
SHORT = ["--set", "sim.t_end=1.0"]


def _read_kv(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


def test_design_writes_report_and_kv(tmp_path, capsys):
    code = main(["design", "--config", str(CONFIG), "--out", str(tmp_path)])
    assert code == 0
    kv = _read_kv(tmp_path / "design.kv")
    assert float(kv["rho_c_tilde"]) == pytest.approx(0.72, abs=0.01)
    assert float(kv["m21"]) == pytest.approx(-4.86, abs=0.01)
    assert float(kv["nu_c_tilde"]) == pytest.approx(0.03, abs=0.005)
    assert kv["stability_ok"] == "true"
    assert int(kv["d_p_max"]) == 1
    assert int(kv["d_c_max"]) == 1
    assert "would give 2" in kv["note_0"]
    report = (tmp_path / "design_report.txt").read_text()
    assert "1.38" in report and "would give 2" in report
    out = capsys.readouterr().out
    assert "# effective config" in out and "design.m22_sq = 49.46" in out


def test_design_infeasible_m22_exits_2(tmp_path, capsys):
    code = main(["design", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "design.m22_sq=30.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "m22^2" in err and "rho_c" in err


def test_design_boundary_auto_margin_exits_2(tmp_path, capsys):
    code = main(["design", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "design.m22_sq=", "--set", "design.auto_margin=1.0"])
    # empty m22_sq override is invalid; drive it by editing instead
    assert code == 1

    text = CONFIG.read_text().replace("design.m22_sq = 49.46",
                                      "design.auto_margin = 1.0")
    cfg2 = tmp_path / "boundary.cfg"
    cfg2.write_text(text)
    code = main(["design", "--config", str(cfg2), "--out", str(tmp_path)])
    assert code == 2
    kv = _read_kv(tmp_path / "design.kv")
    assert abs(float(kv["margin_coupling"])) < 1e-9
    assert kv["stability_ok"] == "false"


def test_simulate_row_count(tmp_path):
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "sim.t_end=0.01"])
    assert code == 0
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 11  # header + samples
    assert (tmp_path / "events.csv").exists()
    assert (tmp_path / "metrics.kv").exists()


def test_simulate_divergence_exits_3(tmp_path, capsys):
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text("""
plant.model = lti
plant.a = 5
plant.b = 1
plant.c = 1
plant.d = 0
plant.x0 = 1
plant.nu = 0
plant.rho = 0
controller.model = firstorder_lead
trigger_p.delta = 0.4
trigger_c.delta = 0.15
gains.m11 = 0.16
gains.m21 = -4.865
gains.m22 = 7.033
sim.t_end = 6.0
sim.divergence_limit = 1e6
""")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    assert "divergence at row" in capsys.readouterr().err


def test_verify_clean_trace_passes(tmp_path):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    code = main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT])
    assert code == 0
    kv = _read_kv(tmp_path / "verify.kv")
    assert kv["all_pass"] == "true"
    assert kv["check.dissipativity_p"] == "pass"
    assert kv["check.trigger_ineq_p"] == "pass"


def test_verify_tampered_trace_fails(tmp_path):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    trace = tmp_path / "trace.csv"
    lines = trace.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("e_p")
    row = lines[400].split(",")
    row[col] = "9.9e+02"  # inject a trigger-bound violation
    lines[400] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT])
    assert code == 4
    kv = _read_kv(tmp_path / "verify.kv")
    assert kv["all_pass"] == "false"
    assert kv["check.error_columns"] == "fail"


def test_verify_missing_trace_is_usage_error(tmp_path):
    assert main(["verify", "--config", str(CONFIG), "--out", str(tmp_path)]) == 1


def test_verify_empty_trace_is_usage_error(tmp_path):
    (tmp_path / "trace.csv").write_text("")
    (tmp_path / "events.csv").write_text("")
    assert main(["verify", "--config", str(CONFIG), "--out", str(tmp_path)]) == 1


def test_report_emits_two_column_files(tmp_path):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    assert main(["report", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    for name in ("states_plant_1.dat", "states_plant_2.dat",
                 "states_controller_1.dat", "interevent_plant.dat",
                 "interevent_controller.dat", "dropouts_plant.dat",
                 "dropouts_controller.dat", "output_plant.dat"):
        path = tmp_path / name
        assert path.exists(), name
        lines = path.read_text().splitlines()
        if lines:
            assert all(len(line.split()) == 2 for line in lines)
    assert len((tmp_path / "states_plant_1.dat").read_text().splitlines()) == 1001


def test_seed_override_changes_trace(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, seed in ((out_a, "1"), (out_b, "2")):
        assert main(["simulate", "--config", str(CONFIG), "--out", str(out),
                     "--seed", seed, *SHORT]) == 0
    assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()


def test_seed_sweep_isolated_outputs(tmp_path):
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--seed", "3,4", "--jobs", "2", *SHORT])
    assert code == 0
    assert (tmp_path / "seed_3" / "trace.csv").exists()
    assert (tmp_path / "seed_4" / "trace.csv").exists()


def test_table_delay_sine_and_log_quantizer_round_trip(tmp_path):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text("""
plant.model = cubic_nl2
plant.x0 = 2, -3
controller.model = firstorder_lead
trigger_p.delta = 0.4
trigger_c.delta = 0.15
quant_p.kind = logarithmic
quant_p.density = 0.5
quant_p.u0 = 16.0
quant_p.a = 0.0
quant_p.b = 1.3334
quant_c.kind = logarithmic
quant_c.density = 0.5
quant_c.u0 = 16.0
quant_c.a = 0.0
quant_c.b = 1.3334
chan_pc.form = table
chan_pc.T0 = 0.2
chan_pc.d = 0.3
chan_pc.table = 0,0.2, 1,0.4, 2,0.3
chan_cp.form = constant
chan_cp.T0 = 0.1
design.alpha = 1.0
design.gamma = 250.0
design.m22_sq = 30.0
design.m11 = 0.2
w1.kind = sine
w1.amplitude = 1.5
w1.freq = 0.5
sim.t_end = 2.0
""")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    kv = _read_kv(tmp_path / "verify.kv")
    assert kv["all_pass"] == "true"


def test_unknown_override_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "plant.mass=3"])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "etncs", "design", "--config", str(CONFIG),
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "stability_ok: True" in proc.stdout


def test_verify_truncated_events_row_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    events = tmp_path / "events.csv"
    text = events.read_text()
    events.write_text(text[:text.index("\n", text.index("\n") + 1) + 20])
    code = main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT])
    assert code == 1
    assert "config error: malformed trace" in capsys.readouterr().err


def test_verify_event_off_its_row_fails(tmp_path):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    events = tmp_path / "events.csv"
    lines = events.read_text().splitlines()
    row = lines[3].split(",")
    row[3] = "99999"  # sample_index far past the last row
    lines[3] = ",".join(row)
    events.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT])
    assert code == 4
    kv = _read_kv(tmp_path / "verify.kv")
    assert kv["check.events_on_grid"] == "fail"
