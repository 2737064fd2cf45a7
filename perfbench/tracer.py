"""Per-layer tracing: the workload's steps run in this process through
``etncs.cli.main``, once untraced and once with every layer function wrapped.

A wrapper counts calls and accumulates inclusive and self time (inclusive
time minus the time of wrapped calls made inside it). A function is wrapped
at every module-level name in the etncs package that refers to it, so a caller
that imported it under its own name (``sim.quantize``) is traced too; the
call-count identities checked after each traced pass prove that no call
escaped. Tracing adds the wrappers' own cost; ``trace.overhead_s`` reports it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pkgutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import run
import workloads as wl

# (metric prefix, module, attribute path) of each traced layer function
LAYERS = (
    ("core.rk4_step", "core", "rk4_step"),
    ("sim.run_scenario", "sim", "run_scenario"),
    ("quantizer.quantize", "quantizer", "quantize"),
    ("signals.Signal", "signals", "Signal.__call__"),
    ("trigger.check_violation", "trigger", "check_violation"),
    ("trigger.trigger_inequality_check", "trigger", "trigger_inequality_check"),
    ("trigger.sampled_output_bound_check", "trigger", "sampled_output_bound_check"),
    ("core.dissipativity_residuals", "core", "dissipativity_residuals"),
    ("core.l2_gain_estimate", "core", "l2_gain_estimate"),
    ("sim.compute_metrics", "sim", "compute_metrics"),
    ("verify.verify_trace_files", "verify", "verify_trace_files"),
    ("sim.write_trace_csv", "sim", "write_trace_csv"),
    ("sim.read_trace_csv", "sim", "read_trace_csv"),
    ("sim.write_events_csv", "sim", "write_events_csv"),
    ("sim.read_events_csv", "sim", "read_events_csv"),
    ("network.Channel.send", "network", "Channel.send"),
    ("network.Channel.poll", "network", "Channel.poll"),
    ("config.build_scenario", "config", "build_scenario"),
    ("config.run_design", "config", "run_design"),
    ("design.synthesize", "design", "synthesize"),
    ("cli.cmd_design", "cli", "cmd_design"),
    ("cli.cmd_simulate", "cli", "cmd_simulate"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
    ("cli.cmd_report", "cli", "cmd_report"),
)

# derived per-layer metrics: name -> unit
DERIVED = {
    "sim.rows": "count", "sim.us_per_row": "us", "sim.trace_csv.bytes": "B",
    "trigger.fire_ratio": "ratio", "quantizer.payload_ratio": "ratio",
    "network.attempts_pc": "count", "network.attempts_cp": "count",
    "network.delivery_ratio_pc": "ratio", "network.delivery_ratio_cp": "ratio",
    "cli.sweep.pool_efficiency": "ratio",
    "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
}


def metric_units() -> Dict[str, str]:
    units = {}
    for name, _, _ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    """Wraps the layer functions of an imported etncs package and restores them."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}   # name -> [calls, inclusive s, self s]
        self._stack: List[float] = []             # time of wrapped children, per open call
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, stats: List[float], fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = package_modules()
        for name, module, path in LAYERS:
            owner = modules[module]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(self.stats.setdefault(name, [0, 0.0, 0.0]), original)
            if parents:                      # a method: patch it on its class
                self._set(owner, attr, wrapper)
                continue
            for mod in modules.values():     # a function: patch every alias
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def package_modules() -> Dict[str, object]:
    """Every etncs module, keyed by its short name ("" for the package)."""
    import etncs
    modules = {"": etncs}
    for info in pkgutil.iter_modules(etncs.__path__):
        if info.name != "__main__":
            modules[info.name] = importlib.import_module(f"etncs.{info.name}")
    return modules


def run_pass(steps: List[wl.Step], root: Path, checker: run.Checker) -> dict:
    """Run the steps through etncs.cli.main in this process and check them."""
    from etncs import cli
    run.fresh_dir(root)
    attempted = failed = 0
    lanes: List[dict] = []
    lane_walls: List[float] = []
    t0 = time.perf_counter()
    for step in steps:
        t_step = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli.main(step.argv)
        except Exception as exc:  # report the step as failed and keep the run going
            checker.errors.append(f"{step.name} raised {exc!r}")
            code = -1
        if step.name == "simulate":
            lane_walls.append(time.perf_counter() - t_step)
        a, f, got = checker.step(step, code)
        attempted += a
        failed += f
        lanes += got
    return {"wall": time.perf_counter() - t0, "attempted": attempted, "failed": failed,
            "lanes": lanes, "lane_walls": lane_walls}


def identities(stats: Dict[str, List[float]], rows: int, n_lanes: int,
               attempts: int) -> List[str]:
    """Exact call-count identities of the executor; each broken one is returned."""
    expect = {
        "core.rk4_step": 2 * (rows - n_lanes),          # 2 * (rows - 1) per lane
        "network.Channel.poll": 2 * rows,
        "network.Channel.send": attempts,
        "quantizer.quantize": 2 * rows + attempts,
    }
    return [f"identity broken: {name}.calls = {stats[name][0]}, expected {want}"
            for name, want in expect.items() if stats[name][0] != want]


def traced_iteration(workload: wl.Workload, seed: Optional[int], work: Path,
                     checker: run.Checker, extra_sets: Tuple[str, ...]) -> dict:
    cli_sim = next(s for s in wl.steps(workload, seed, work / "cli", extra_sets)
                   if s.name == "simulate")
    run.fresh_dir(cli_sim.out)
    code, cli_wall, _, _ = run.run_process(
        [sys.executable, "-m", "etncs", *cli_sim.argv], work / "stderr.log")
    cli_attempted, cli_failed, _ = checker.step(cli_sim, code)

    root = work / "inproc"
    steps = wl.steps(workload, seed, root, extra_sets, serial=True)
    plain = run_pass(steps, root, checker)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(steps, root, checker)
    finally:
        tracer.remove()

    n_jobs = wl.jobs() if workload.sweep else 1
    lanes = traced["lanes"]
    rows = sum(lane["rows"] for lane in lanes)
    attempts = sum(lane["attempts"] for lane in lanes)
    stats = tracer.stats
    checks = stats["trigger.check_violation"][0]
    quantizations = stats["quantizer.quantize"][0]
    values = {}
    for name, _, _ in LAYERS:
        values[f"{name}.calls"] = stats[name][0]
        values[f"{name}.self_s"] = stats[name][2]
    values.update({
        "sim.rows": rows,
        "sim.us_per_row": 1e6 * stats["sim.run_scenario"][1] / rows if rows else 0.0,
        "sim.trace_csv.bytes": sum(lane["trace_bytes"] for lane in lanes),
        "trigger.fire_ratio": attempts / checks if checks else 0.0,
        "quantizer.payload_ratio": attempts / quantizations if quantizations else 0.0,
        "cli.sweep.pool_efficiency": sum(plain["lane_walls"]) / (n_jobs * cli_wall),
        "trace.untraced_wall_s": plain["wall"],
        "trace.overhead_s": traced["wall"] - plain["wall"],
    })
    for link in ("pc", "cp"):
        sent = sum(lane[f"attempts_{link}"] for lane in lanes)
        values[f"network.attempts_{link}"] = sent
        values[f"network.delivery_ratio_{link}"] = (
            sum(lane[f"commits_{link}"] for lane in lanes) / sent if sent else 0.0)
    return {"values": values,
            "errors": identities(stats, rows, len(lanes), attempts),
            "attempted": cli_attempted + plain["attempted"] + traced["attempted"],
            "failed": cli_failed + plain["failed"] + traced["failed"]}


def traced_run(workload: wl.Workload, seed: Optional[int], seconds: float,
               work: Path, checker: run.Checker, extra_sets: Tuple[str, ...]) -> dict:
    os.environ.update(run.child_env())   # numpy is first imported below
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    package_modules()   # import everything before the first timed pass
    iterations = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        iterations.append(traced_iteration(workload, seed, work, checker, extra_sets))
    units = metric_units()
    errors = [e for it in iterations for e in it["errors"]]
    samples = {name: [it["values"][name] for it in iterations] for name in units}
    for name, unit in units.items():
        if unit == "count" and len(set(samples[name])) > 1:
            errors.append(f"{name} differs between iterations: {samples[name]}")
    return {"attempted": sum(it["attempted"] for it in iterations),
            "failed": sum(it["failed"] for it in iterations),
            "iterations": len(iterations), "samples": samples, "units": units,
            "errors": errors}
