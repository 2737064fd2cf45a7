"""Workload definitions shared by the benchmark runner and the reference recorder.

Every workload runs the real command line (``python -m etncs``) on the
shipped worked-example config. A workload is a closed loop with one client:
each step starts when the previous process has exited. The only parallelism
is the seed sweep's own ``--jobs``, set to the number of usable cores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

CONFIG = "configs/worked_example.cfg"
SHIPPED_SEED = 7          # w1.seed of the shipped config; the sweep's default start
SWEEP_LANES = 16
SWEEP_VERIFIED = 4        # lanes the sweep verifies, so verify_s has several samples

STORM_SETS = ("trigger_p.delta=0.01", "trigger_c.delta=0.02", "w1.dwell=0.01",
              "w2.kind=sine", "w2.amplitude=1", "w2.freq=5",
              "quant_p.step=0.05", "quant_c.step=0.05")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sets: Tuple[str, ...]
    sweep: bool


WORKLOADS = {w.name: w for w in (
    Workload("worked_example",
             "the reference scenario run as design, simulate, verify, report; "
             "rows dominate and events are sparse, so executor and check engines both show",
             (), False),
    Workload("event_storm",
             "tight thresholds and fast disturbances give ~24x the attempts on the "
             "same rows, so code that scales with events dominates",
             STORM_SETS, False),
    Workload("seed_sweep",
             "16 seeds of a 5 s simulate through the multi-seed path with --jobs nproc, "
             "then verify of 4 lanes; executor and trace writing dominate",
             ("sim.t_end=5",), True),
)}

# layer -> end-to-end metric it should move -> workload where it moves most
LAYER_MAP = (
    ("core.rk4_step, sim.run_scenario, sim.us_per_row, quantizer.quantize, "
     "signals.Signal, trigger.check_violation",
     "rows_per_s, wall_s", "seed_sweep, worked_example; less on event_storm"),
    ("trigger.trigger_inequality_check, trigger.sampled_output_bound_check, "
     "core.dissipativity_residuals, core.l2_gain_estimate, sim.compute_metrics, "
     "verify.verify_trace_files",
     "verify_s, wall_s", "event_storm, then worked_example; on seed_sweep only compute_metrics"),
    ("sim.write_trace_csv, sim.read_trace_csv, sim.write_events_csv, "
     "sim.read_events_csv, sim.trace_csv.bytes",
     "wall_s, verify_s, peak_rss_mb", "all three"),
    ("network.Channel.send, network.Channel.poll", "wall_s", "event_storm"),
    ("config.build_scenario, config.run_design, design.synthesize", "setup_s", "all three"),
    ("cli.cmd_report", "wall_s", "worked_example, event_storm"),
    ("cli.sweep.pool_efficiency", "wall_s, rows_per_s", "seed_sweep"),
)


def jobs() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Step:
    """One CLI invocation writing to ``out``, whose trace belongs to lane
    ``seed``; ``lanes`` are the (lane seed, output dir) pairs whose
    trace.csv/events.csv it writes."""

    name: str
    argv: List[str]
    out: Path
    seed: Optional[int]
    lanes: Tuple[Tuple[Optional[int], Path], ...] = ()


def steps(w: Workload, seed: Optional[int], out: Path,
          extra_sets: Tuple[str, ...] = (), serial: bool = False) -> List[Step]:
    """The workload's CLI sequence. ``extra_sets`` (applied last) shrink it for
    the harness self-test; ``serial`` runs the sweep's lanes as one
    single-seed simulate each, which is how the traced run calls them."""
    base = ["--config", CONFIG]
    for s in w.sets + extra_sets:
        base += ["--set", s]
    if w.sweep:
        first = SHIPPED_SEED if seed is None else seed
        lanes = tuple((s, out / f"seed_{s}") for s in range(first, first + SWEEP_LANES))
        seeds = ",".join(str(s) for s, _ in lanes)
        verify = [Step("verify", ["verify", *base, "--out", str(d)], d, s)
                  for s, d in lanes[:SWEEP_VERIFIED]]
        if serial:
            return [Step("simulate", ["simulate", *base, "--out", str(d), "--seed", str(s)],
                         d, s, ((s, d),)) for s, d in lanes] + verify
        return [Step("simulate", ["simulate", *base, "--out", str(out), "--seed", seeds,
                                  "--jobs", str(jobs())], out, first, lanes), *verify]
    seed_arg = [] if seed is None else ["--seed", str(seed)]
    common = [*base, "--out", str(out), *seed_arg]
    return [
        Step("design", ["design", *common], out, seed),
        Step("simulate", ["simulate", *common], out, seed, ((seed, out),)),
        Step("verify", ["verify", *common], out, seed),
        Step("report", ["report", *common], out, seed),
    ]
