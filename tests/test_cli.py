import contextlib
import importlib.util
import io
import math
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etncs

from etncs import cli, config, core, sim
from etncs.cli import main
from etncs.config import (KNOWN_KEYS, apply_overrides, build_design_inputs, build_scenario,
                          format_config, load_config)
from etncs.design import min_m22_sq, synthesize

import whole

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "worked_example.cfg"

# short-horizon overrides shared by the CLI round-trip tests
SHORT = ["--set", "sim.t_end=1.0"]
# a run long enough that row 200 exists and the controller commits twice
HALF = ["--set", "sim.t_end=0.5"]


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


def test_design_boundary_auto_margin_exits_2(tmp_path, capsys):
    """At the smallest admissible m22^2 (a margin multiplier of 1.0) the
    coupling margin is zero and the design is not certified."""
    code = main(["design", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "design.m22_sq="])
    # empty m22_sq override is invalid; drive it by editing instead
    assert code == 1

    params = build_design_inputs(load_config(CONFIG))[0]
    text = CONFIG.read_text().replace("design.m22_sq = 49.46",
                                      f"design.m22_sq = {min_m22_sq(params)!r}")
    cfg2 = tmp_path / "boundary.cfg"
    cfg2.write_text(text)
    code = main(["design", "--config", str(cfg2), "--out", str(tmp_path)])
    assert code == 2
    kv = _read_kv(tmp_path / "design.kv")
    assert abs(float(kv["margin_coupling"])) < 1e-9
    assert kv["stability_ok"] == "false"


@pytest.mark.parametrize("command", ["design", "simulate", "verify", "report"])
def test_infeasible_design_exits_2_from_every_command(tmp_path, capsys, command):
    """An infeasible design is exit 2, not a config error, from every
    command, with the violated inequality named, and no run starts."""
    code = main([command, "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "design.m22_sq=30", *SHORT])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible design: m22^2") and "rho_c" in err
    assert not (tmp_path / "trace.csv").exists()


def test_uncertified_design_leaves_out_the_verdicts_resting_on_it(tmp_path):
    """At the smallest admissible m22^2 the design is not certified, so its
    gamma_bound (inf) and dropout budgets are nothing to compare a run
    with; the inter-event bounds rest on the declared indices and stay."""
    params = build_design_inputs(load_config(CONFIG))[0]
    args = ["--config", str(CONFIG), "--out", str(tmp_path), *SHORT,
            "--set", f"design.m22_sq={min_m22_sq(params)!r}"]
    assert main(["simulate", *args]) == 0
    assert main(["verify", *args]) in (0, 4)
    metrics = _read_kv(tmp_path / "metrics.kv")
    assert not any(key.startswith(("within_l2", "budget_ok")) for key in metrics)
    assert "interevent_ok_c" in metrics
    checks = _read_kv(tmp_path / "verify.kv")
    assert "check.trigger_ineq_p" in checks
    assert not any(key.startswith(("check.l2_gain_bound", "check.dropout_budget"))
                   for key in checks)


def test_each_lane_synthesizes_its_design_once(tmp_path, monkeypatch):
    """Every command synthesizes a run's design once: the gains and the
    verdicts read the same one."""
    calls = []

    def counting(*args):
        calls.append(args)
        return synthesize(*args)

    monkeypatch.setattr(config, "synthesize", counting)
    monkeypatch.setattr(cli, "MIN_BATCH_LANES", 2)   # the two seeds run as one batch
    args = ["--config", str(CONFIG), "--out", str(tmp_path), "--set", "sim.t_end=0.2"]
    for command, extra, want in (("design", [], 1), ("simulate", [], 1), ("verify", [], 1),
                                 ("report", [], 1),
                                 ("simulate", ["--seed", "3,4", "--jobs", "1"], 2)):
        calls.clear()
        assert main([command, *args, *extra]) == 0
        assert len(calls) == want, (command, extra)


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
    row[col] = sim._FMT % 9.9e+02  # inject a trigger-bound violation
    lines[400] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT])
    assert code == 4
    kv = _read_kv(tmp_path / "verify.kv")
    assert kv["all_pass"] == "false"
    assert kv["check.error_columns"] == "fail"


@pytest.mark.parametrize("field, value", [(6, math.nan), (7, -math.inf), (8, math.inf)],
                         ids=["e_norm", "y_norm", "payload"])
def test_verify_non_finite_event_value_fails_finite_values(tmp_path, short_run, field, value):
    """An event's e_norm, y_norm or payload set to a non-finite value, in
    the writer's spelling, reads and fails finite_values (exit 4), and no
    other check."""
    for name in ("trace.csv", "events.csv"):
        shutil.copy(short_run / name, tmp_path)
    events = tmp_path / "events.csv"
    lines = events.read_text().splitlines()
    row = lines[2].split(",")
    row[field] = sim._FMT % value
    lines[2] = ",".join(row)
    events.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(CONFIG), "--out", str(tmp_path), *HALF]) == 4
    kv = _read_kv(tmp_path / "verify.kv")
    assert {k for k, v in kv.items() if v == "fail"} == {"check.finite_values"}
    assert kv["detail.finite_values"] == "all samples finite"


@pytest.mark.parametrize("field, text", [(6, sim._FMT % 123.0), (7, sim._FMT % 7.0),
                                         (4, "99"), (5, "42")],
                         ids=["e_norm", "y_norm", "attempt_index", "drops_before"])
def test_verify_tampered_event_bookkeeping_fails_committed_samples(tmp_path, short_run,
                                                                   field, text):
    """The first event's e_norm, y_norm, attempt_index or drops_before set
    to another value, in the writer's spelling, fails committed_samples
    (exit 4), which re-derives them from the event table, and no other
    check."""
    for name in ("trace.csv", "events.csv"):
        shutil.copy(short_run / name, tmp_path)
    events = tmp_path / "events.csv"
    lines = events.read_text().splitlines()
    row = lines[1].split(",")
    assert row[field] != text
    row[field] = text
    lines[1] = ",".join(row)
    events.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(CONFIG), "--out", str(tmp_path), *HALF]) == 4
    kv = _read_kv(tmp_path / "verify.kv")
    assert {k for k, v in kv.items() if v == "fail"} == {"check.committed_samples"}
    assert kv["detail.committed_samples"] == (
        f"{row[0]} attempt at t=0.000000 has an attempt_index, drops_before, "
        "e_norm or y_norm that its side's attempts do not give")


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
    scenario, _, _ = build_scenario(apply_overrides(load_config(CONFIG), ["sim.t_end=1.0"]))
    trace = whole.read(scenario, tmp_path / "trace.csv", tmp_path / "events.csv")

    def rows(x, y):   # the per-row reference the block formatter must match
        return "".join("%.16e %.16e\n" % (a, b) for a, b in zip(x, y))

    expected = {
        "states_plant_1.dat": rows(trace.t, trace.x_p[:, 0]),
        "states_plant_2.dat": rows(trace.t, trace.x_p[:, 1]),
        "states_controller_1.dat": rows(trace.t, trace.x_c[:, 0]),
        "output_plant.dat": rows(trace.t, trace.y_p[:, 0]),
        "output_controller_held.dat": rows(trace.t, trace.u_r[:, 0]),
    }
    for side in ("plant", "controller"):
        commits = trace.commits_on(side)
        expected[f"interevent_{side}.dat"] = rows(
            [b.t for a, b in zip(commits, commits[1:])],
            [b.t - a.t for a, b in zip(commits, commits[1:])])
        attempts = trace.events_on(side)
        expected[f"dropouts_{side}.dat"] = rows(
            [e.t for e in attempts], [0.0 if e.dropped else 1.0 for e in attempts])
    for name, text in expected.items():
        # byte lines with their ends: pytest names the first differing index,
        # where its diff of two long strings takes minutes
        got = (tmp_path / name).read_bytes().splitlines(True)
        assert got == text.encode().splitlines(True), name
    assert len(expected["states_plant_1.dat"].splitlines()) == 1001


def test_run_worked_example_script(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_worked_example.py"
    spec = importlib.util.spec_from_file_location("run_worked_example", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.CONFIG = tmp_path / "short.cfg"
    script.CONFIG.write_text(format_config(
        apply_overrides(load_config(CONFIG), ["sim.t_end=1"])))
    out = tmp_path / "out"
    assert script.run(str(out)) == 0
    assert "=== headline metrics ===" in capsys.readouterr().out
    for name in ("states_plant_1.dat", "output_plant.dat", "interevent_plant.dat",
                 "dropouts_controller.dat"):
        assert (out / name).exists(), name


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


@pytest.mark.parametrize("item", ["plant.mass=3", "design.auto_margin=1.0", "design.m22=7"])
def test_unknown_override_is_usage_error(tmp_path, capsys, item):
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", item])
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


@pytest.mark.parametrize("field, text, message", [
    (9, None, ": expected 10 fields, got 9"),
    (1, "sent", " field 2: b'sent' is not in the writer's layout"),
    (3, "1.5", " field 4: b'1.5' is not in the writer's layout"),
    (3, str(2 ** 63), f" field 4: b'{2 ** 63}' is not in the writer's layout"),
    (3, str(-2 ** 63), f" field 4: b'{-2 ** 63}' is not in the writer's layout"),
    (6, "abc", " field 7: b'abc' is not in the writer's layout"),
    (8, "1.0;2.0", ": expected 10 fields, got 11"),
], ids=["short row", "unknown kind", "non-integer index", "index past int64",
        "index magnitude past int64", "non-float value", "wrong vector length"])
def test_garbled_events_field_is_config_error(tmp_path, capsys, field, text, message):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    events = tmp_path / "events.csv"
    lines = events.read_text().splitlines()
    row = lines[2].split(",")
    if text is None:
        del row[field]
    else:
        row[field] = text
    lines[2] = ",".join(row)
    events.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for command in ("verify", "report"):
        code = main([command, "--config", str(CONFIG), "--out", str(tmp_path), *SHORT])
        assert code == 1, command
        assert capsys.readouterr().err == (
            f"config error: malformed trace: events file {events} line 3{message}\n"), command


@pytest.mark.parametrize("command", ["verify", "report"])
def test_bad_config_value_is_a_plain_config_error(tmp_path, capsys, command):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    capsys.readouterr()
    code = main([command, "--config", str(CONFIG), "--out", str(tmp_path), *SHORT,
                 "--set", "trigger_p.delta=abc"])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: trigger_p.delta: expected a number, got 'abc'\n")


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
    # the checks that fail only because the commit left the held-sample join
    # name the off-grid event as their likely cause
    cause = "likely cause: 1 events off their row"
    for name in ("error_columns", "trigger_ineq_p", "held_norm_bound_p"):
        assert kv[f"check.{name}"] == "fail"
        assert cause in kv[f"detail.{name}"], name
    assert kv["check.trigger_ineq_c"] == "pass"
    assert "likely cause" not in kv["detail.trigger_ineq_c"]


def test_verify_header_only_trace_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT]) == 0
    trace = tmp_path / "trace.csv"
    trace.write_text(trace.read_text().splitlines()[0] + "\n")
    code = main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SHORT])
    assert code == 1
    assert "config error: malformed trace" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [",", "3,3"])
def test_simulate_rejects_empty_or_repeated_seed_list(tmp_path, capsys, seeds):
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--seed", seeds, *SHORT])
    assert code == 1
    assert "config error: --seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_jobs_is_a_simulate_option_only(tmp_path, capsys):
    code = main(["design", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--jobs", "2"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_seed_sweep_lanes_match_single_seed_runs(tmp_path, jobs):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path / "sweep"),
                 "--seed", "3,4,5", "--jobs", jobs, *SHORT]) == 0
    for seed in ("3", "4", "5"):
        solo = tmp_path / f"solo_{seed}"
        assert main(["simulate", "--config", str(CONFIG), "--out", str(solo),
                     "--seed", seed, *SHORT]) == 0
        for name in ("trace.csv", "events.csv", "metrics.kv"):
            lane = tmp_path / "sweep" / f"seed_{seed}" / name
            assert lane.read_bytes() == (solo / name).read_bytes(), (seed, name)


def test_a_sweep_below_the_batch_crossover_runs_one_lane_at_a_time(tmp_path, monkeypatch):
    """--seed 7,8 runs each seed as a one-lane run, and writes the bytes
    that the two seeds' lockstep batch writes."""
    run, lanes = sim.run_scenario, []

    def counting(cfgs, sinks):
        lanes.append(len(cfgs))
        return run(cfgs, sinks)

    monkeypatch.setattr(sim, "run_scenario", counting)
    sweep = ["simulate", "--config", str(CONFIG), "--seed", "7,8", *SHORT]
    assert main([*sweep, "--out", str(tmp_path / "solo")]) == 0
    assert lanes == [1, 1]
    monkeypatch.setattr(cli, "MIN_BATCH_LANES", 2)
    assert main([*sweep, "--out", str(tmp_path / "batch")]) == 0
    assert lanes == [1, 1, 2]
    for seed in ("seed_7", "seed_8"):
        for name in ("trace.csv", "events.csv", "metrics.kv"):
            solo, batch = (tmp_path / side / seed / name for side in ("solo", "batch"))
            assert solo.read_bytes() == batch.read_bytes(), (seed, name)


def test_pool_has_no_more_workers_than_batches(tmp_path, monkeypatch):
    """A large --jobs on two seeds asks for two workers, not one per job."""
    import concurrent.futures

    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--seed", "3,4", "--jobs", "5000", "--set", "sim.t_end=0.1"]) == 0
    assert workers == [2]
    assert (tmp_path / "seed_3" / "trace.csv").exists()
    assert (tmp_path / "seed_4" / "trace.csv").exists()


def test_verify_applies_one_seed_and_rejects_a_malformed_one(tmp_path, capsys):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--seed", "8", *SHORT]) == 0
    assert main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--seed", "8", *SHORT]) == 0
    assert main(["verify", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--seed", "x", *SHORT]) == 1
    assert "config error: --seed" in capsys.readouterr().err


def test_simulate_echoes_the_config_its_seed_gives(tmp_path, capsys):
    """One seed echoes the config that seed gives, as design does; a seed
    list echoes the base config and the keys each lane's seed sets."""
    args = ["--config", str(CONFIG), "--set", "sim.t_end=0.05"]
    assert main(["design", *args, "--out", str(tmp_path / "design"), "--seed", "42"]) == 0
    design_out = capsys.readouterr().out
    assert main(["simulate", *args, "--out", str(tmp_path / "one"), "--seed", "42"]) == 0
    echo = capsys.readouterr().out
    for line in ("w1.seed = 42", "chan_pc.dropout.seed = 43", "chan_cp.dropout.seed = 44"):
        assert f"\n{line}\n" in echo, line
    assert design_out.startswith(echo)
    assert main(["simulate", *args, "--out", str(tmp_path / "sweep"), "--seed", "42,43"]) == 0
    base = format_config(apply_overrides(load_config(CONFIG), ["sim.t_end=0.05"]))
    assert capsys.readouterr().out == (
        "# effective config\n" + base + "# each lane's seed s sets w1.seed = s, "
        "chan_pc.dropout.seed = s + 1, chan_cp.dropout.seed = s + 2\n")


@pytest.mark.parametrize("edit, message", [
    (lambda header: header.replace(",y_p,", ",zz,"), "column 4 is 'zz', expected 'y_p'"),
    (lambda header: header.replace("x_p1,x_p2", "x_p2,x_p1"),
     "column 2 is 'x_p2', expected 'x_p1'"),
], ids=["renamed", "swapped"])
def test_trace_header_other_than_the_models_is_malformed(tmp_path, capsys, short_run,
                                                         edit, message):
    shutil.copy(short_run / "events.csv", tmp_path)
    header, rows = (short_run / "trace.csv").read_text().split("\n", 1)
    (tmp_path / "trace.csv").write_text(edit(header) + "\n" + rows)
    capsys.readouterr()
    for command in ("verify", "report"):
        assert main([command, "--config", str(CONFIG), "--out", str(tmp_path), *HALF]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed trace: ") and message in err, command


def test_report_rejects_a_seed_list(tmp_path, capsys):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path), *SHORT]) == 0
    code = main(["report", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--seed", "3,4", *SHORT])
    assert code == 1
    assert "only simulate does" in capsys.readouterr().err


def _run_python(script: str) -> str:
    """The last line ``script`` prints, run by a fresh interpreter on this
    checkout's etncs."""
    src = str(Path(etncs.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_no_subcommand_loads_openssl_or_the_pool(tmp_path):
    """The draws hash with CPython's built-in sha256, so no subcommand maps
    OpenSSL (about 3.6 MB), and only a pooled sweep imports concurrent.futures."""
    args = ["--config", str(CONFIG), "--out", str(tmp_path), *SHORT]
    script = (
        "import sys\n"
        "from etncs.cli import main\n"
        f"args = {args!r}\n"
        "codes = [main([command, *args]) for command in\n"
        "         ('simulate', 'design', 'verify', 'report')]\n"
        "codes.append(main(['simulate', *args, '--seed', '3,4', '--jobs', '1']))\n"
        "print(codes, [name in sys.modules for name in ('_hashlib', 'concurrent.futures')])\n")
    assert _run_python(script) == "[0, 0, 0, 0, 0] [False, False]"


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("short_run")
    assert main(["simulate", "--config", str(CONFIG), "--out", str(out), *HALF]) == 0
    return out


def test_import_builds_no_format_tables_and_loads_no_exact_arithmetic():
    """Importing the command line and the verifier neither loads ``fractions``
    nor ``decimal`` (about 0.44 MB a process) nor builds the formatter's
    tables: they are made on first use, from exact integers."""
    script = (
        "import sys\n"
        "import etncs.cli, etncs.verify\n"
        "from etncs import sim\n"
        "print([name in sys.modules for name in ('fractions', 'decimal')],\n"
        "      sim._format_tables.cache_info().currsize)\n")
    assert _run_python(script) == "[False, False] 0"


def test_draws_without_the_builtin_sha256_give_the_same_trace(tmp_path, short_run):
    """A Python without _sha2 and _sha256 draws through hashlib and writes
    the same trace.csv and events.csv."""
    args = ["--config", str(CONFIG), "--out", str(tmp_path / "fallback"), *HALF]
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from etncs import signals\n"
        "from etncs.cli import main\n"
        f"print(main(['simulate', *{args!r}]), signals._sha256 is hashlib.sha256)\n")
    assert _run_python(script) == "0 True"
    for name in ("trace.csv", "events.csv"):
        assert (tmp_path / "fallback" / name).read_bytes() == \
            (short_run / name).read_bytes(), name


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(["trace.csv", "events.csv"]), data=st.data())
def test_byte_flip_in_trace_never_raises(short_run, name, data):
    """One byte of trace.csv or events.csv changed at a random offset: verify
    exits 0, 1 or 4 and report 0 or 1, and neither raises (warnings are
    errors under pytest)."""
    text = bytearray((short_run / name).read_bytes())
    offset = data.draw(st.integers(0, len(text) - 1), label="offset")
    text[offset] ^= data.draw(st.integers(1, 255), label="xor mask")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for other in ("trace.csv", "events.csv"):
            shutil.copy(short_run / other, out)
        (out / name).write_bytes(bytes(text))
        args = ["--config", str(CONFIG), "--out", str(out), *HALF]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", *args]) in (0, 1, 4)
            assert main(["report", *args]) in (0, 1)


def _verify_edited_trace(run: Path, out: Path, edit) -> int:
    """verify on a copy of ``run`` whose data rows, as lists of cells,
    ``edit(rows, header)`` changed in place."""
    shutil.copy(run / "events.csv", out)
    rows = [line.split(",") for line in (run / "trace.csv").read_text().splitlines()]
    edit(rows[1:], rows[0])
    (out / "trace.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    return main(["verify", "--config", str(CONFIG), "--out", str(out), *HALF])


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("name", ["trace.csv", "events.csv"])
def test_unreadable_run_file_is_a_config_error(tmp_path, capsys, short_run, command, name):
    """A run file that cannot be opened (here a directory) exits 1 with a
    message naming it, not with a traceback."""
    for other in ("trace.csv", "events.csv"):
        shutil.copy(short_run / other, tmp_path)
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()
    assert main([command, "--config", str(CONFIG), "--out", str(tmp_path), *HALF]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot read {tmp_path / name}: Is a directory\n")


def test_out_naming_a_regular_file_is_a_config_error(tmp_path, capsys):
    """--out naming a file, not a directory, exits 1 with a message naming
    the directory that could not be made."""
    out = tmp_path / "out"
    out.write_text("")
    assert main(["design", "--config", str(CONFIG), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot create output directory {out}: File exists\n")
    assert main(["simulate", "--config", str(CONFIG), "--out", str(out), *HALF,
                 "--seed", "1,2"]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot create output directory {out / 'seed_1'}: Not a directory\n")


# t at row 500, the last row of the short run, in its second block of rows
_ROW_500 = "\n5.0000000000000000e-01,"


def _trace_with_row_500(run: Path, out: Path, text: str) -> None:
    out.mkdir()
    shutil.copy(run / "events.csv", out)
    trace = (run / "trace.csv").read_text()
    assert trace.count(_ROW_500) == 1
    (out / "trace.csv").write_text(trace.replace(_ROW_500, f"\n{text},"))


@pytest.mark.parametrize("text", ["5e-1", "5.0000000000000000e-0x"])
def test_value_outside_the_layout_in_a_later_block_names_its_line(tmp_path, capsys, short_run,
                                                                   text):
    """One value of a later block respelled or garbled, outside the writer's
    layout: verify and report exit 1 naming its line and field, and verify
    writes no verify.kv; the written text verifies."""
    _trace_with_row_500(short_run, tmp_path / "written", "5.0000000000000000e-01")
    _trace_with_row_500(short_run, tmp_path / "edited", text)
    assert main(["verify", "--config", str(CONFIG), "--out", str(tmp_path / "written"),
                 *HALF]) == 0
    capsys.readouterr()
    for command in ("verify", "report"):
        assert main([command, "--config", str(CONFIG), "--out", str(tmp_path / "edited"),
                     *HALF]) == 1
        assert capsys.readouterr().err == (
            f"config error: malformed trace: trace file {tmp_path / 'edited' / 'trace.csv'} "
            f"line 502 field 1: {text.encode()!r} is not in the writer's layout\n")
    assert not (tmp_path / "edited" / "verify.kv").exists()


def test_out_of_order_time_column_fails_time_grid(tmp_path, short_run):
    """Two rows' times swapped are a failed check, not a malformed trace."""
    def swap(rows, header):
        rows[100][0], rows[101][0] = rows[101][0], rows[100][0]

    assert _verify_edited_trace(short_run, tmp_path, swap) == 4
    assert _read_kv(tmp_path / "verify.kv")["check.time_grid"] == "fail"


@pytest.mark.parametrize("column, text, failed", [
    ("x_p2", "1e+300", {"dissipativity_p"}),
    ("u_p", "1e+300", {"dissipativity_p"}),
    ("y_p", "1e+300", {"error_columns", "l2_gain_bound"}),
    ("t", "4.3e+901", {"time_grid", "finite_values", "dissipativity_p"}),  # parses to inf
])
def test_extreme_trace_value_fails_its_checks_without_a_warning(
        tmp_path, short_run, column, text, failed):
    """Overflow in the checks is a failed verdict, not a RuntimeWarning
    (a traceback under warnings-as-errors).  The value ``text`` reads as is
    written in the writer's spelling: 4.3e+901 as inf."""
    def edit(rows, header):
        rows[200][header.index(column)] = sim._FMT % float(text)

    assert _verify_edited_trace(short_run, tmp_path, edit) == 4
    kv = _read_kv(tmp_path / "verify.kv")
    assert {k[len("check."):] for k, v in kv.items() if v == "fail"} == failed


@pytest.mark.parametrize("setting", ["controller.x0=1e308", "chan_pc.initial_hold=1e308"])
def test_extreme_initial_value_diverges_without_a_warning(tmp_path, capsys, setting):
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path), *HALF,
                 "--set", setting]) == 3
    assert "non-finite step at t=0.0 (model 'firstorder_lead')" in capsys.readouterr().err


def test_zero_input_energy_leaves_out_the_l2_verdict(tmp_path):
    """Without input energy the empirical gain is undefined: metrics.kv
    prints it as nan, and neither file carries an L2 verdict."""
    args = ["--config", str(CONFIG), "--out", str(tmp_path), *SHORT,
            "--set", "w1.kind=zero"]
    assert main(["simulate", *args]) == 0
    assert main(["verify", *args]) in (0, 4)
    metrics = _read_kv(tmp_path / "metrics.kv")
    assert metrics["l2_gain_emp"] == "nan"
    assert "within_l2_bound" not in metrics
    assert "budget_ok_p" in metrics   # the other design comparisons stay
    verdicts = _read_kv(tmp_path / "verify.kv")
    assert "check.l2_gain_bound" not in verdicts
    assert "check.dropout_budget_p" in verdicts


# verify.kv check -> metrics.kv key of each verdict the two files share
SHARED_VERDICTS = {
    "trigger_ineq_p": "trigger_ok_p", "trigger_ineq_c": "trigger_ok_c",
    "held_norm_bound_p": "sampled_bound_ok_p", "held_norm_bound_c": "sampled_bound_ok_c",
    "dissipativity_p": "dissip_ok_p", "l2_gain_bound": "within_l2_bound",
    "dropout_budget_p": "budget_ok_p", "dropout_budget_c": "budget_ok_c"}


def _kv_verdicts(out: Path):
    """The shared verdicts of one run as written to metrics.kv and verify.kv,
    each keyed by its verify.kv check name."""
    metrics = _read_kv(out / "metrics.kv")
    checks = _read_kv(out / "verify.kv")
    from_metrics = {name: metrics[key] == "true"
                    for name, key in SHARED_VERDICTS.items() if key in metrics}
    from_verify = {name: checks[f"check.{name}"] == "pass"
                   for name in SHARED_VERDICTS if f"check.{name}" in checks}
    return from_metrics, from_verify


def test_metrics_and_verify_agree_on_every_shared_verdict(tmp_path):
    half = ["--config", str(CONFIG), "--set", "sim.t_end=0.5"]
    seeds = ["11", "12", "13", "14"]
    assert main(["simulate", *half, "--out", str(tmp_path), "--seed", ",".join(seeds)]) == 0
    runs = []
    for seed in seeds:
        out = tmp_path / f"seed_{seed}"
        assert main(["verify", *half, "--out", str(out), "--seed", seed]) in (0, 4)
        runs.append(out)
    for name, sets in (("zero_w1", ["--set", "w1.kind=zero"]),
                       ("lossy", ["--set", "chan_pc.dropout.p=0.9",
                                  "--set", "chan_pc.dropout.max_consecutive=4"])):
        out = tmp_path / name
        assert main(["simulate", *half, "--out", str(out), *sets]) == 0
        assert main(["verify", *half, "--out", str(out), *sets]) in (0, 4)
        runs.append(out)
    for out in runs:
        from_metrics, from_verify = _kv_verdicts(out)
        assert from_metrics == from_verify, out.name
    assert len(_kv_verdicts(runs[0])[0]) == len(SHARED_VERDICTS)
    assert "l2_gain_bound" not in _kv_verdicts(runs[-2])[0]
    assert _kv_verdicts(runs[-1])[0]["dropout_budget_p"] is False   # a failing verdict too


def test_interevent_comparison_needs_a_positive_rho(tmp_path):
    """The conic-sector inter-event bound needs rho_p > 0: with rho_p <= 0
    the run completes and the plant side's comparison is left out.  The run
    is long enough for the controller to commit twice, so it has a gap."""
    for rho in ("0", "-1"):
        out = tmp_path / rho
        assert main(["simulate", "--config", str(CONFIG), "--out", str(out),
                     *HALF, "--set", f"plant.rho={rho}"]) == 0
        metrics = _read_kv(out / "metrics.kv")
        assert "interevent_ok_p" not in metrics
        assert "interevent_worst_slack_p" not in metrics
        assert "interevent_ok_c" in metrics and "interevent_worst_slack_c" in metrics


@pytest.fixture(scope="module")
def resting_run(tmp_path_factory):
    """A run from rest: every plant payload quantizes to 0, so the controller
    commits only at t = 0 while the plant commits six times."""
    out = tmp_path_factory.mktemp("resting_run")
    assert main(["simulate", "--config", str(CONFIG), "--out", str(out), *HALF,
                 "--set", "plant.x0=0,0"]) == 0
    metrics = _read_kv(out / "metrics.kv")
    assert (metrics["events_p"], metrics["events_c"]) == ("6", "1")
    return metrics


def test_side_without_a_gap_has_no_interevent_verdict(resting_run):
    assert not any(key.endswith("_c") for key in resting_run if key.startswith("interevent"))
    assert {"interevent_ok_p", "interevent_worst_slack_p"} <= resting_run.keys()


def test_side_without_a_recommit_has_no_accum_ratio_verdict(resting_run):
    assert not any(key.endswith("_c") for key in resting_run if key.startswith("accum_ratio"))
    assert {"accum_ratio_ok_p", "accum_ratio_excess_p"} <= resting_run.keys()


def test_run_shorter_than_one_step_is_a_config_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "sim.t_end=0.0005"])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "shorter than one step" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "report"])
def test_delay_table_over_its_rate_bound_is_a_config_error(tmp_path, capsys, command):
    """A delay table whose slope (5 s/s here) breaks its declared rate bound
    is a config error naming the section before any run starts, not a
    traceback from the channel the run builds."""
    code = main([command, "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "chan_pc.form=table", "--set", "chan_pc.table=0,0,1,5",
                 "--set", "chan_pc.d=0.5", "--set", "sim.t_end=1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: chan_pc: ") and "rate bound 0.5" in err
    assert "Traceback" not in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command, setting", [
    ("design", "design.m11=1e308"), ("design", "quant_p.b=1e308"),
    ("design", "trigger_p.delta=1e-320"), ("design", "quant_c.b=1e-320"),
    # row counts past sim.MAX_ROWS, the last one finite
    ("simulate", "sim.t_end=1e308"), ("simulate", "sim.h=1e-320"),
    ("simulate", "sim.t_end=1e15")])
def test_extreme_finite_config_value_is_a_config_error(tmp_path, capsys, command, setting):
    """Values that overflow, divide by zero or ask for an unbounded row log."""
    assert main([command, "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", setting]) == 1
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("signal", ["w1", "w2"])
def test_dwell_past_the_int64_segment_range_is_a_config_error(tmp_path, capsys, signal):
    """t_end / dwell = 2^63 would overflow the int64 segment index, which
    gave every later row one draw; it is a config error naming the key."""
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", f"{signal}.kind=piecewise_uniform",
                 "--set", f"{signal}.dwell={2.0 ** -63!r}", "--set", "sim.t_end=1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error") and f"{signal}.dwell" in err
    assert not (tmp_path / "trace.csv").exists()


def test_dwell_just_inside_the_int64_segment_range_runs(tmp_path):
    """At t_end / dwell = 2^62 every row is its own segment, up to the last."""
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", f"w1.dwell={2.0 ** -62!r}", "--set", "sim.t_end=1"]) == 0
    names, values = whole.matrix(tmp_path / "trace.csv")
    w1 = values[:, names.index("w1")]
    assert len(w1) == 1001 and len(np.unique(w1[-100:])) == 100


def test_explicit_gains_beside_a_garbled_design_key_simulate(tmp_path):
    """The design comparisons need a feasible design; without one the run
    still completes and leaves them out."""
    assert main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path),
                 "--set", "sim.t_end=0.1", "--set", "gains.m11=0.16",
                 "--set", "gains.m21=-4.865", "--set", "gains.m22=7.033",
                 "--set", "design.m11=0"]) == 0
    metrics = _read_kv(tmp_path / "metrics.kv")
    assert "trigger_ok_p" in metrics
    assert not any(key.startswith(("within_l2", "budget_ok", "interevent"))
                   for key in metrics)


def test_explicit_gains_leave_out_the_design_verdicts(tmp_path):
    """The run uses the explicit gains, so no verdict compares it with the
    design its design keys synthesize."""
    gains = ["--set", "sim.t_end=0.5", "--set", "gains.m11=0.16",
             "--set", "gains.m21=-1", "--set", "gains.m22=20"]
    for command in ("simulate", "verify"):
        assert main([command, "--config", str(CONFIG), "--out", str(tmp_path), *gains]) == 0
    metrics = _read_kv(tmp_path / "metrics.kv")
    assert "trigger_ok_p" in metrics
    assert not any(key.startswith(("within_l2", "budget_ok", "interevent"))
                   for key in metrics)
    checks = _read_kv(tmp_path / "verify.kv")
    assert checks["check.held_norm_bound_p"] == "pass"
    assert not any(key.startswith(("check.l2_gain_bound", "check.dropout_budget"))
                   for key in checks)


# every key whose value is not a number
_WORD_KEYS = {"plant.model", "controller.model", "quant_p.kind", "quant_c.kind",
              "chan_pc.form", "chan_cp.form", "chan_pc.dropout.kind",
              "chan_cp.dropout.kind", "chan_pc.dropout.pattern",
              "chan_cp.dropout.pattern", "w1.kind", "w2.kind", "sim.drop_first_allowed"}
_NUMERIC_KEYS = sorted(KNOWN_KEYS - _WORD_KEYS)


@settings(max_examples=1000, deadline=None)
@given(command=st.sampled_from(["design", "simulate"]),
       key=st.sampled_from(_NUMERIC_KEYS),
       value=st.sampled_from(["nan", "inf", "-inf", "0", "-1", "x", ""]))
def test_garbled_config_number_never_raises(command, key, value):
    """A garbled number in any numeric key gives an exit code, never a
    traceback (warnings are errors under pytest)."""
    with tempfile.TemporaryDirectory() as tmp:
        short = ["--set", "sim.t_end=0.01"] if command == "simulate" else []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", str(CONFIG), "--out", tmp, *short,
                         "--set", f"{key}={value}"])
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert err.getvalue().startswith("config error"), err.getvalue()


def _traced_peaks(out: Path, t_end: float) -> dict:
    """The tracemalloc peak of simulate, verify and report, each run in this
    process on the worked example at ``t_end``."""
    args = ["--config", str(CONFIG), "--out", str(out), "--set", f"sim.t_end={t_end}"]
    peaks = {}
    for step in ("simulate", "verify", "report"):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([step, *args]) == 0
            peaks[step] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_memory_is_set_by_the_block(tmp_path):
    """simulate, verify and report hold one block of rows, so 6 000 more
    rows (2 001 to 8 001) raise each step's peak by no more than what a run
    keeps of every row: the two L2 energy terms (16 B per row) in simulate
    and verify.  The margin covers the rest, measured at 5, 62 and 53 KB:
    the longer run's event table, and in verify and report the 109 KB text
    buffer of the trace reader, which a run of one block (2 001 rows) has
    freed before its rows are checked and plotted.  Holding the rows, as
    whole-trace steps did, adds about 140 B per row, 820 KB here."""
    _traced_peaks(tmp_path / "warm", 0.2)   # compiles and loads every module first
    small, large = _traced_peaks(tmp_path / "small", 2), _traced_peaks(tmp_path / "large", 8)
    terms = 2 * 8 * 6000
    margin = 128 * 1024
    for step, kept in (("simulate", terms), ("verify", terms), ("report", 0)):
        assert large[step] - small[step] <= kept + margin, step


# the divergence sweep: seeds 0-15 of the worked example with a wide w1 and
# a low divergence limit, where seeds 2, 3, 8, 9, 10, 14 and 15 diverge
_DIVERGING = ["--set", "w1.lo=-400", "--set", "w1.hi=400", "--set", "sim.divergence_limit=100",
              "--set", "sim.t_end=2"]
_RETIRED = (2, 3, 8, 9, 10, 14, 15)
_EARLIER = {"trace.csv": "earlier trace\n", "events.csv": "earlier events\n",
            "metrics.kv": "earlier = run\n"}


def _earlier_run(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in _EARLIER.items():
        (out / name).write_text(text)


def _files(out: Path) -> dict:
    return {p.name: p.read_text() for p in out.iterdir()}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_retired_lane_leaves_no_files(tmp_path, capfd, jobs):
    """A lane that diverges leaves no trace.csv, events.csv, metrics.kv or
    temporary file, and the files an earlier run left in its directory as
    they were; every other lane writes its three files, and stderr and the
    exit code are the divergence sweep's.  (capfd: pool workers write their
    lines to the inherited stderr descriptor.)"""
    for seed in _RETIRED[:3]:
        _earlier_run(tmp_path / f"seed_{seed}")
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path), *_DIVERGING,
                 "--seed", ",".join(map(str, range(16))), "--jobs", jobs])
    assert code == 3
    rows = (1862, 493, 580, 741, 783, 856, 879)
    norms = ("1.001", "1.002", "1.000", "1.000", "1.000", "1.002", "1.000")
    assert sorted(capfd.readouterr().err.splitlines()) == [
        f"simulation aborted: divergence at row {row} (t={row / 1000:.6f}): plant state norm "
        f"{norm}e+02 exceeds 1.000e+02" for row, norm in zip(rows, norms)]
    for seed in range(16):
        files = _files(tmp_path / f"seed_{seed}")
        if seed in _RETIRED[:3]:
            assert files == _EARLIER, seed
        elif seed in _RETIRED:
            assert files == {}, seed
        else:
            assert sorted(files) == ["events.csv", "metrics.kv", "trace.csv"], seed


# a plant whose x2 starts high enough that x1's cubic damping makes RK4
# unstable: depending on the seed's w1, the state blows up until an RK4
# stage's cube overflows, or settles
_OVERFLOWING = ["--set", "plant.x0=1,3000", "--set", "w1.lo=-400", "--set", "w1.hi=400",
                "--set", "sim.divergence_limit=1e300", "--set", "sim.t_end=0.1"]


def test_solo_run_of_an_overflowing_seed_aborts_as_its_lane(tmp_path, capfd, monkeypatch):
    """A single run's RK4 takes the cube on a float, where math.pow raises
    OverflowError and core.power takes numpy's inf; each diverging seed run
    alone prints the same line as its lane of the sweep, which takes the cube
    on arrays."""
    run = ["simulate", "--config", str(CONFIG), *_OVERFLOWING]
    seeds = range(8)
    monkeypatch.setattr(cli, "MIN_BATCH_LANES", 2)   # the 8 seeds run as one batch
    assert main([*run, "--out", str(tmp_path / "sweep"), "--jobs", "1",
                 "--seed", ",".join(map(str, seeds))]) == 3
    lanes = sorted(capfd.readouterr().err.splitlines())
    overflows = []

    def counting_pow(v, p):
        try:
            return math.pow(v, p)
        except OverflowError:
            overflows.append(v)
            raise

    monkeypatch.setattr(core, "math", types.SimpleNamespace(pow=counting_pow))
    solo = []
    for seed in seeds:
        code = main([*run, "--out", str(tmp_path / f"seed_{seed}"), "--seed", str(seed)])
        err = capfd.readouterr().err.splitlines()
        assert code == (3 if err else 0)
        solo += err
    assert sorted(solo) == lanes
    assert 2 <= len(lanes) < len(seeds) and overflows
    assert any("non-finite step" in line for line in lanes)
    assert any("plant state norm inf exceeds" in line for line in lanes)


def test_lane_retired_after_its_first_block_leaves_no_files(tmp_path, capsys):
    """A run that diverges at row 2556, after its first block of rows went
    to the trace file, leaves the earlier run's files as they were."""
    _earlier_run(tmp_path)
    code = main(["simulate", "--config", str(CONFIG), "--out", str(tmp_path), *_DIVERGING,
                 "--set", "sim.divergence_limit=80", "--set", "sim.t_end=3", "--seed", "0"])
    assert code == 3
    assert sim._RUN_BLOCK < 2556
    assert capsys.readouterr().err == (
        "simulation aborted: divergence at row 2556 (t=2.556000): plant state norm "
        "8.018e+01 exceeds 8.000e+01\n")
    assert _files(tmp_path) == _EARLIER
