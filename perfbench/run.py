"""End-to-end benchmark of the etncs command line, with a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it runs the workload's CLI sequence (one fresh process per
step) repeatedly for S seconds and reports the medians of the end-to-end
metrics, each time scaled to a reference machine speed sampled while its
process ran (see SPEED_LOOPS below). With ``--trace 1`` it runs the same
steps in this process, once untraced and once with every layer function
wrapped, and reports per-layer call counts and self times. Either way every
output is checked: exit codes, the sha256 of trace.csv/events.csv against
references recorded when the benchmark was added (perfbench/references.json),
and the verify.kv verdicts. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; human-readable
lines starting with ``#`` precede it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_PER_ITERATION = 5
SETUP_MIN = 15

# The machine this runs on is a share of a busy host: the speed of each of
# its CPUs swings by ±25%, independently of the other CPUs, within seconds
# and over minutes, so runs disagree far more than the program's own work
# does. While each program process runs, this process wakes every
# SPEED_INTERVAL_S and times a short fixed pure-Python loop on a CPU the
# program runs on; the process's times are scaled by SPEED_REF_S over the
# median of those timings, i.e. to the speed at which the loop takes
# SPEED_REF_S (about its median on the machine the benchmark was built on).
# The loop does not touch the program, so only a change in the program moves
# a scaled time. The sampling takes about 3% of the CPU it runs on.
SPEED_LOOPS = 20_000
SPEED_REF_S = 0.0015
SPEED_INTERVAL_S = 0.05

# A fresh interpreter timing everything up to the first simulated row. The
# interpreter's own start-up is left out: the program cannot change it, and
# it only adds noise.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import etncs
from etncs.config import apply_overrides, build_scenario, load_config, run_design
cfg = apply_overrides(load_config(sys.argv[1]), sys.argv[2:])
build_scenario(cfg)
run_design(cfg)
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "rows_per_s": "1/s",
                    "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, broken tooling)."""


def speed_loop() -> float:
    """Seconds the fixed speed-sampling loop takes right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPEED_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


class Speedometer:
    """Runs program processes on chosen CPUs while sampling the speed of
    those CPUs in turn. Keeps every sample for the run's record."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def run(self, argv: List[str], stdout, stderr,
            cpus: List[int]) -> Tuple[int, float, float, float, float]:
        """Run one process to completion on ``cpus``: (exit code, wall s,
        cpu s, peak RSS MB, speed factor). CPU time and peak RSS come from
        wait4, so they include every descendant the process reaped itself
        (the sweep's pool workers). Wall and CPU time times the speed factor
        give them at the reference speed."""
        home = os.sched_getaffinity(0)
        taken: List[float] = []
        os.sched_setaffinity(0, cpus)             # inherited by the process
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                    stdout=stdout, stderr=stderr)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], SPEED_INTERVAL_S)[0]:
                    if len(cpus) > 1:
                        os.sched_setaffinity(0, {cpus[len(taken) % len(cpus)]})
                    taken.append(speed_loop())
                wall = time.perf_counter() - t0
            finally:
                os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
            if not taken:
                taken.append(speed_loop())
        finally:
            os.sched_setaffinity(0, home)
        self.samples += taken
        return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, SPEED_REF_S / statistics.median(taken))


def step_cpus(argv: List[str]) -> List[int]:
    """The CPUs a program process runs on: all of them for a process pool,
    else one, so that the speed sampled is the speed of the CPU it runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if "--jobs" in argv else cpus[-1:]


def child_env() -> Dict[str, str]:
    """The environment of every etncs process the benchmark starts.

    OpenBLAS is held to one thread: etncs does no BLAS-sized work, and on a
    two-core machine the spinning threads OpenBLAS starts with numpy took the
    core from the main thread in some runs and not in others, swinging set-up
    time between about 0.14 s and 0.21 s."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_process(argv: List[str], log: Path) -> Tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from wait4, so they include every descendant
    the process reaped itself (the sweep's pool workers)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def file_digest(path: Path) -> Tuple[Optional[str], int]:
    """(sha256 hex, number of lines), or (None, 0) when the file is missing."""
    if not path.is_file():
        return None, 0
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def lane_outputs(out: Path) -> Dict[str, object]:
    """Digests and sizes of one lane's trace.csv and events.csv."""
    trace_sha, trace_lines = file_digest(out / "trace.csv")
    events_sha, events_lines = file_digest(out / "events.csv")
    kinds: Counter = Counter()          # (side, kind) of each attempt
    if events_sha:
        with open(out / "events.csv") as fh:
            next(fh, None)
            kinds.update(tuple(line.split(",", 2)[:2]) for line in fh)
    return {"trace.csv": trace_sha, "events.csv": events_sha,
            "rows": max(trace_lines - 1, 0), "attempts": max(events_lines - 1, 0),
            "trace_bytes": (out / "trace.csv").stat().st_size if trace_sha else 0,
            "attempts_pc": kinds["plant", "commit"] + kinds["plant", "drop"],
            "commits_pc": kinds["plant", "commit"],
            "attempts_cp": kinds["controller", "commit"] + kinds["controller", "drop"],
            "commits_cp": kinds["controller", "commit"]}


def read_verdicts(out: Path) -> Optional[Dict[str, str]]:
    """The check.* and all_pass entries of verify.kv (None when missing)."""
    path = out / "verify.kv"
    if not path.is_file():
        return None
    verdicts = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("check.") or key == "all_pass":
            verdicts[key] = value
    return verdicts


def seed_key(seed: Optional[int]) -> str:
    return "default" if seed is None else str(seed)


class Checker:
    """Decides whether each operation's outputs are correct.

    Recorded seeds are checked against references.json. For a seed with no
    record, every step must exit 0, every verify check must pass, and each
    lane's digests must repeat exactly across the iterations of the run."""

    def __init__(self, workload: wl.Workload, seed: Optional[int], use_refs: bool):
        table = json.loads(REFERENCES.read_text()).get(workload.name, {})
        self.checks = table["checks"]
        self.table = table if use_refs else {}
        self.seen: Dict[Optional[int], Tuple[str, str]] = {}
        self.rows: Dict[Path, int] = {}
        self.errors: List[str] = []
        first = (wl.SHIPPED_SEED if seed is None else seed) if workload.sweep else seed
        self.recorded = self._reference(first) is not None

    def _reference(self, lane: Optional[int]) -> Optional[dict]:
        return self.table.get(seed_key(lane))

    def expected_verdicts(self, lane: Optional[int]) -> Dict[str, str]:
        ref = self._reference(lane)
        if ref is not None:
            return ref["verify"]
        return {**{f"check.{c}": "pass" for c in self.checks}, "all_pass": "true"}

    def expected_code(self, step: wl.Step) -> int:
        if step.name == "verify":
            return 0 if self.expected_verdicts(step.seed)["all_pass"] == "true" else 4
        return 0

    def step(self, step: wl.Step, code: int) -> Tuple[int, int, List[dict]]:
        """(operations attempted, operations failed, lane outputs) for one step."""
        lanes = [lane_outputs(out) for _, out in step.lanes]
        attempted = max(len(step.lanes), 1)
        if code != self.expected_code(step):
            self.errors.append(f"{step.name} exited {code}")
            return attempted, attempted, lanes
        failed = 0
        for (lane, _), got in zip(step.lanes, lanes):
            failed += not self._lane_ok(lane, got)
        for (_, out), got in zip(step.lanes, lanes):
            self.rows[out] = got["rows"]
        if step.name == "verify":
            got = read_verdicts(step.out)
            want = self.expected_verdicts(step.seed)
            if got != want:
                self.errors.append(f"verify verdicts {got} != expected {want}")
                failed += 1
        if step.name == "report":
            plotted = step.out / "output_plant.dat"
            n = plotted.read_text().count("\n") if plotted.is_file() else -1
            if n != self.rows.get(step.out):
                self.errors.append(f"report wrote {n} rows of output_plant.dat, "
                                   f"trace has {self.rows.get(step.out)}")
                failed += 1
        return attempted, failed, lanes

    def _lane_ok(self, lane: Optional[int], got: dict) -> bool:
        pair = (got["trace.csv"], got["events.csv"])
        ref = self._reference(lane)
        if ref is not None:
            want = (ref["trace.csv"], ref["events.csv"])
        else:
            want = self.seen.setdefault(lane, pair)
        if pair != want:
            self.errors.append(f"lane {seed_key(lane)}: digests {pair} != {want}")
            return False
        return True


def log_tail(log: Path, lines: int = 20) -> str:
    return "\n".join(log.read_text().splitlines()[-lines:]) if log.is_file() else ""


def setup_time(workload: wl.Workload, extra_sets: Tuple[str, ...], work: Path,
               speedometer: Speedometer) -> Tuple[float, float]:
    """(set-up time, speed factor) from one fresh interpreter."""
    with open(work / "setup.out", "w+") as out, open(work / "setup.err", "w+") as err:
        argv = [sys.executable, "-c", SETUP_CODE, wl.CONFIG, *workload.sets, *extra_sets]
        code, _, _, _, speed = speedometer.run(argv, out, err, step_cpus(argv))
        out.seek(0)
        err.seek(0)
        if code != 0:
            raise HarnessError(f"set-up process exited {code}:\n{err.read()[-2000:]}")
        return float(out.read()), speed


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_iteration(workload: wl.Workload, seed: Optional[int], out: Path,
                  checker: Checker, extra_sets: Tuple[str, ...],
                  speedometer: Speedometer) -> dict:
    """One pass of the workload's CLI sequence, each step a fresh process:
    its samples scaled to the reference speed, and as measured. Its wall
    time is the sum of the steps'."""
    fresh_dir(out)
    step_stats = []
    with open(out.parent / "stderr.log", "ab") as log:
        for step in wl.steps(workload, seed, out, extra_sets):
            argv = [sys.executable, "-m", "etncs", *step.argv]
            code, wall, cpu, rss, speed = speedometer.run(argv, subprocess.DEVNULL, log,
                                                          step_cpus(argv))
            step_stats.append((step, code, wall, cpu, rss, speed))
    attempted = failed = rows = 0
    for step, code, *_ in step_stats:
        a, f, lanes = checker.step(step, code)
        attempted += a
        failed += f
        rows += sum(lane["rows"] for lane in lanes)

    def samples(scaled: bool) -> Dict[str, List[float]]:
        factors = [s[5] if scaled else 1.0 for s in step_stats]
        walls = [(s[0].name, s[2] * f) for s, f in zip(step_stats, factors)]
        return {"wall_s": [sum(w for _, w in walls)],
                "cpu_s": [sum(s[3] * f for s, f in zip(step_stats, factors))],
                "rows_per_s": [rows / sum(w for name, w in walls if name == "simulate")],
                "verify_s": [w for name, w in walls if name == "verify"],
                "peak_rss_mb": [max(s[4] for s in step_stats)]}

    return {"attempted": attempted, "failed": failed,
            "samples": samples(True), "raw": samples(False)}


def timed_run(workload: wl.Workload, seed: Optional[int], seconds: float,
              work: Path, checker: Checker, extra_sets: Tuple[str, ...]) -> dict:
    speedometer = Speedometer()
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END_UNITS}
    raw: Dict[str, List[float]] = {name: [] for name in END_TO_END_UNITS}
    attempted = failed = iterations = 0

    def setup_sample() -> None:
        measured, speed = setup_time(workload, extra_sets, work, speedometer)
        raw["setup_s"].append(measured)
        samples["setup_s"].append(measured * speed)

    start = time.perf_counter()
    # set-up samples are spread over the run so that they see the same
    # machine load as the iterations they sit between. An iteration starts
    # only if at least half of it fits in the time left, so that runs last
    # about ``seconds`` whatever the iteration's length.
    while not iterations or (time.perf_counter() - start) * (1 + 0.5 / iterations) < seconds:
        for _ in range(SETUP_PER_ITERATION):
            setup_sample()
        it = cli_iteration(workload, seed, work / "out", checker, extra_sets, speedometer)
        attempted += it["attempted"]
        failed += it["failed"]
        iterations += 1
        for name in it["samples"]:
            samples[name] += it["samples"][name]
            raw[name] += it["raw"][name]
    while len(samples["setup_s"]) < SETUP_MIN:
        setup_sample()
    return {"attempted": attempted, "failed": failed, "iterations": iterations,
            "samples": samples, "raw": raw, "units": END_TO_END_UNITS,
            "speed": speedometer.samples}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "etncs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "n/a (git not available)"
    return out.stdout.strip() or "n/a"


def run_record(workload: wl.Workload, seed: Optional[int], seconds: float,
               trace: int, checker: Checker) -> dict:
    return {
        "workload": workload.name, "seed": seed_key(seed), "seconds": seconds,
        "trace": trace, "why": workload.why,
        "machine": {"nproc": wl.jobs(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"),
                    "platform": platform.platform()},
        "revision": {"git": git_revision(), "source_sha256": source_digest()},
        "references": "recorded" if checker.recorded else
                      "none recorded for this seed: exit codes, all-pass verdicts "
                      "and repeatable digests checked",
        "layer_map": [{"layers": a, "moves": b, "workload": c} for a, b, c in wl.LAYER_MAP],
    }


def measure(workload_name: str, seed: Optional[int], seconds: float, trace: int,
            extra_sets: Tuple[str, ...] = ()) -> Tuple[dict, dict, List[str]]:
    """Run one benchmark measurement: (result, record, correctness errors).

    ``extra_sets`` shrink the workload for the self-test; references are
    then not applied because they describe the unmodified workloads."""
    if not (SRC / "etncs" / "__init__.py").is_file() or not (ROOT / wl.CONFIG).is_file():
        raise HarnessError(f"no etncs sources or {wl.CONFIG} under {ROOT}")
    workload = wl.WORKLOADS[workload_name]
    checker = Checker(workload, seed, use_refs=not extra_sets)
    work = fresh_dir(ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}")
    try:
        if trace:
            import tracer
            result = tracer.traced_run(workload, seed, seconds, work, checker, extra_sets)
        else:
            result = timed_run(workload, seed, seconds, work, checker, extra_sets)
        errors = checker.errors + result.pop("errors", [])
        if errors:
            print(f"stderr of the program:\n{log_tail(work / 'stderr.log')}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still be using it
            work.parent.rmdir()
    result["correct"] = result["failed"] == 0 and not errors
    result["metrics"] = {name: {"value": statistics.median(result["samples"][name]),
                                "unit": unit} for name, unit in result["units"].items()}
    return result, run_record(workload, seed, seconds, trace, checker), errors


def report(workload: str, seed: Optional[int], seconds: float, trace: int) -> None:
    result, record, errors = measure(workload, seed, seconds, trace)
    print("# record " + json.dumps(record, sort_keys=True))
    if "speed" in result:
        loop = result["speed"]
        print(f"# speed loop: median {statistics.median(loop):.6f} s "
              f"over {len(loop)} samples (min {min(loop):.6f}, max {max(loop):.6f}); "
              f"times are reported at {SPEED_REF_S} s")
    raw = result.get("raw", result["samples"])
    print(f"# {'metric':40s} {'reported':>14s} {'raw median':>14s} {'raw min':>14s} "
          f"{'raw max':>14s}   n unit")
    for name, m in result["metrics"].items():
        values = raw[name]
        print(f"# {name:40s} {m['value']:14.6f} {statistics.median(values):14.6f} "
              f"{min(values):14.6f} {max(values):14.6f} {len(values):3d} {m['unit']}")
    print(f"# iterations {result['iterations']}, ops_attempted {result['attempted']}, "
          f"failed {result['failed']}, "
          f"failed_ratio {result['failed'] / result['attempted']:.6f}")
    for err in errors:
        print(f"# error: {err}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; omit to run the shipped seeds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report(name, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
