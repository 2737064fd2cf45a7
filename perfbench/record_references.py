"""Record the reference digests and verify verdicts that run.py checks against.

    python3 perfbench/record_references.py [--out perfbench/references.json]

For each pipeline workload and each recorded seed (the shipped seeds, seeds
0..31 and the held-out seed) it runs design, simulate and verify through the
CLI and stores the sha256 of trace.csv and events.csv, the attempt count and
the verify.kv verdicts exactly as observed. For the seed sweep it records the
same per lane. metrics.kv is deliberately not hashed: its known-false
booleans are expected to be redefined. References describe the program at the
commit they were recorded on; re-recording them after a change to the program
defeats the byte-identity check.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import shutil
import sys
from pathlib import Path
from typing import Optional

import run
import workloads as wl

SEEDS = tuple(range(32))
HELD_OUT_SEED = 9001      # not used while the benchmark was tuned


def record_pipeline(workload: wl.Workload, seed: Optional[int], work: Path) -> dict:
    out = run.fresh_dir(work / f"{workload.name}-{run.seed_key(seed)}")
    log = work / "stderr.log"
    entry = None
    for step in wl.steps(workload, seed, out):
        if step.name == "report":
            continue
        code, _, _, _ = run.run_process([sys.executable, "-m", "etncs", *step.argv], log)
        if step.name == "simulate":
            entry = run.lane_outputs(out)
        elif step.name == "verify":
            entry["verify"] = run.read_verdicts(out)
        if code not in ((0, 4) if step.name == "verify" else (0,)):
            raise run.HarnessError(f"{workload.name} seed {seed}: {step.name} exited {code}")
    shutil.rmtree(out)
    return entry


def record_sweep(workload: wl.Workload, starts, work: Path, pool) -> dict:
    table = {}
    log = work / "stderr.log"
    for start in starts:
        out = run.fresh_dir(work / f"{workload.name}-{start}")
        sim, verify = wl.steps(workload, start, out)[:2]
        code, _, _, _ = run.run_process([sys.executable, "-m", "etncs", *sim.argv], log)
        if code != 0:
            raise run.HarnessError(f"sweep from {start} exited {code}")
        lane_steps = [wl.Step("verify", [*verify.argv[:-1], str(lane_out)], lane_out, lane)
                      for lane, lane_out in sim.lanes]
        list(pool.map(lambda s: run.run_process(
            [sys.executable, "-m", "etncs", *s.argv], log), lane_steps))
        for lane, lane_out in sim.lanes:
            entry = run.lane_outputs(lane_out)
            entry["verify"] = run.read_verdicts(lane_out)
            table[run.seed_key(lane)] = entry
        shutil.rmtree(out)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(run.REFERENCES))
    args = parser.parse_args()
    work = run.fresh_dir(run.ROOT / ".bench_work" / "record")
    refs = {"recorded_with": {"source_sha256": run.source_digest(),
                              "git": run.git_revision(),
                              "held_out_seed": HELD_OUT_SEED,
                              "seeds": [SEEDS[0], SEEDS[-1]]}}
    with concurrent.futures.ThreadPoolExecutor(max_workers=wl.jobs()) as pool:
        for workload in wl.WORKLOADS.values():
            if workload.sweep:
                starts = (0, wl.SWEEP_LANES, 2 * wl.SWEEP_LANES, HELD_OUT_SEED)
                table = record_sweep(workload, starts, work, pool)
            else:
                seeds = (None, *SEEDS, HELD_OUT_SEED)
                entries = pool.map(lambda s: record_pipeline(workload, s, work), seeds)
                table = {run.seed_key(s): e for s, e in zip(seeds, entries)}
            first = next(iter(table.values()))
            table["checks"] = [k.split(".", 1)[1] for k in first["verify"] if k != "all_pass"]
            refs[workload.name] = table
            print(f"{workload.name}: {len(table) - 1} references", flush=True)
    shutil.rmtree(work)
    with contextlib.suppress(OSError):
        work.parent.rmdir()
    Path(args.out).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
