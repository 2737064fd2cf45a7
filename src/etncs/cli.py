"""Command-line front end.

Subcommands: ``design`` (synthesize the gain block and print the stability
report), ``simulate`` (run a scenario to trace/events/metrics files),
``verify`` (re-check invariants from the serialized trace), ``report``
(emit gnuplot-ready two-column data files).

Exit codes: 0 success/pass, 1 usage or config error, 2 design infeasible,
3 divergence abort, 4 verification failure.

``design`` loads the config parser and the design formulas only: numpy and
the executor's modules are imported inside the ``simulate``, ``verify`` and
``report`` paths.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import numbers
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .config import (ConfigError, apply_overrides, build_scenario, format_config, load_config,
                     run_design)
from .design import DesignParams, DesignResult, InfeasibleDesign

if TYPE_CHECKING:
    from . import sim

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4

# Lanes per lockstep batch of a seed sweep. It bounds a batch's memory. Rows
# pass through in blocks of sim._RUN_BLOCK, so a lane keeps 16 B per row (the
# two energy terms of its L2 gain) and 18 + 16*m B per attempt in its event
# buffers (34 B at port dimension m = 1), beside about 0.3 MB of block
# buffers and, at 64 lanes, about 3 MB of the up to 256 rows the executor
# keeps as tuples of (B,) arrays between writes into them. A full batch of
# the worked example took 22.2 MB at 5 001 rows a lane and 38.5 MB at
# 20 001 (tracemalloc of the simulate step).
BATCH_LANES = 64
# Fewer lanes than this run one after another as one-lane runs, which write
# the same bytes: a batch's row loop costs about as much as 9 one-lane runs.
# 5 s worked-example lanes writing their files took 0.346 s as a batch of 2
# against 0.096 s one by one, 0.383 against 0.191 s for 4, 0.399 against
# 0.279 s for 6, 0.431 against 0.371 s for 8, 0.400 against 0.393 s for 9,
# 0.480 against 0.525 s for 10 and 0.523 against 0.604 s for 12 (in-process
# _simulate_batch, min of 5, one CPU of a 2-vCPU sandbox, Python 3.11.7,
# numpy 2.4.6).
MIN_BATCH_LANES = 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


# 17 significant digits, as the trace writes them (sim._FMT): a float read
# back from a .kv file is the float written
_KV_FLOAT = "%.16e"


def _kv_value(v) -> str:
    """A .kv value as text; numpy's integers and floats are numbers."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return _KV_FLOAT % v
    return str(v)


def _write_kv(path: Path, items: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {_kv_value(value)}\n")


def _design_kv(params: DesignParams, result: DesignResult) -> Dict[str, object]:
    g = result.gains
    kv: Dict[str, object] = {
        "m11": g.m11, "m21": g.m21, "m22": g.m22, "m22_sq": g.m22 ** 2,
        "rho_c_tilde": result.rho_c_tilde,
        "nu_c_tilde": result.nu_c_tilde,
        "damping": result.damping,
        "stability_ok": result.stability_ok,
        "d_p_max": result.d_p_max,
        "d_c_max": result.d_c_max,
        "gamma_bound": result.gamma_bound,
        "gamma_bound_sqrt": result.gamma_bound_sqrt,
        "alpha": params.alpha, "gamma": params.gamma,
    }
    for name, value in result.margins.items():
        kv[f"margin_{name}"] = value
    for i, note in enumerate(result.notes):
        kv[f"note_{i}"] = note
    return kv


def _design_report_text(params: DesignParams, result: DesignResult) -> str:
    g = result.gains
    lines = [
        "gain-block synthesis report",
        "===========================",
        f"inputs: rho_p={params.rho_p} nu_p={params.nu_p} "
        f"rho_c={params.rho_c} nu_c={params.nu_c}",
        f"        delta_p={params.delta_p} delta_c={params.delta_c} "
        f"alpha={params.alpha} gamma={params.gamma}",
        f"        b_p={params.b_p} b_c={params.b_c} d1={params.d1} d2={params.d2}",
        "",
        f"gains: m11={g.m11:.6f}  m21={g.m21:.6f}  m22={g.m22:.6f} "
        f"(m22^2={g.m22 ** 2:.6f})",
        f"transformed controller indices: rho_c_tilde={result.rho_c_tilde:.6f}  "
        f"nu_c_tilde={result.nu_c_tilde:.6f}",
        f"effective damping: {result.damping:.6f}",
        "margins: " + "  ".join(f"{k}={v:.6f}" for k, v in result.margins.items()),
        f"stability_ok: {result.stability_ok}",
        f"L2 gain bound (certified linear form): {result.gamma_bound:.4f}",
        f"L2 gain bound (square-root form):      {result.gamma_bound_sqrt:.4f}",
        f"dropout budgets: plant link d_p_max={result.d_p_max}, "
        f"controller link d_c_max={result.d_c_max}",
    ]
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _load_config(args) -> Dict[str, str]:
    return apply_overrides(load_config(args.config), args.set or [])


def _load_effective_config(args) -> Dict[str, str]:
    """The config of one run: the file, its overrides and one ``--seed``."""
    cfg = _load_config(args)
    seeds = _parse_seeds(args.seed)
    if seeds is None:
        return cfg
    if len(seeds) > 1:
        raise ConfigError(f"--seed: a seed list runs a sweep, which only "
                          f"simulate does; got {args.seed!r}")
    return _apply_seed(cfg, seeds[0])


def _seed_offsets(cfg: Dict[str, str]) -> Dict[str, int]:
    """The keys a seed sets, each to the seed plus its offset."""
    offsets = {"w1.seed": 0}
    for link, offset in (("chan_pc", 1), ("chan_cp", 2)):
        if cfg.get(f"{link}.dropout.kind", "none") == "bernoulli":
            offsets[f"{link}.dropout.seed"] = offset
    return offsets


def _apply_seed(cfg: Dict[str, str], seed: int) -> Dict[str, str]:
    return {**cfg, **{key: str(seed + offset) for key, offset in _seed_offsets(cfg).items()}}


def _make_dir(path: Path) -> None:
    """``path`` and its parents as directories; a file in the way is a
    config error naming the path."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc


def cmd_design(args) -> int:
    cfg = _load_effective_config(args)
    out_dir = Path(args.out)
    _make_dir(out_dir)
    print("# effective config")
    print(format_config(cfg), end="")
    params, result = run_design(cfg)
    text = _design_report_text(params, result)
    (out_dir / "design_report.txt").write_text(text)
    _write_kv(out_dir / "design.kv", _design_kv(params, result))
    print(text, end="")
    if not result.stability_ok:
        print("design is not certified stable", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _partial(path: Path) -> Path:
    """The temporary name a file is written under until it is complete."""
    return path.with_name(path.name + ".partial")


class _LaneFiles:
    """The sink of one lane of a batch: each block of rows goes to its trace
    file and its checks as the run goes.  The trace is written under a
    temporary name, which becomes trace.csv once the run completes, so a
    lane that diverges leaves no file and an earlier run's files as they
    were."""

    def __init__(self, out_dir: Path, scenario: sim.ScenarioConfig,
                 params: Optional[DesignParams], design: Optional[DesignResult]):
        from .checks import RunChecks   # here, so that only simulate compiles it

        self.out_dir = out_dir
        self.checks = RunChecks(scenario, params, design)
        self.file = open(_partial(out_dir / "trace.csv"), "wb")

    def __call__(self, block: sim.TraceLog) -> None:
        from . import sim

        sim.write_trace_csv(block, self.file)
        self.checks.add(block)

    def finish(self, events: sim.EventTable) -> None:
        """Name the trace and write the events and metrics of a completed run."""
        from . import sim

        self.file.close()
        os.replace(self.file.name, self.out_dir / "trace.csv")
        self.checks.events = events
        sim.write_events_csv(self.checks, self.out_dir / "events.csv")
        _write_kv(self.out_dir / "metrics.kv", sim.compute_metrics(self.checks))

    def discard(self) -> None:
        """Remove the temporary trace of a run that did not complete."""
        self.file.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.file.name)


def _simulate_batch(cfgs: List[Dict[str, str]], out_dirs: List[Path]) -> int:
    """Run the configs as the lanes of one lockstep batch, or one after
    another if there are fewer than MIN_BATCH_LANES, and write each lane's
    trace, events and metrics to its directory."""
    from . import sim

    if 1 < len(cfgs) < MIN_BATCH_LANES:
        return max(_simulate_batch([c], [d]) for c, d in zip(cfgs, out_dirs))
    for out_dir in out_dirs:
        _make_dir(out_dir)
    scenarios, params, designs = zip(*map(build_scenario, cfgs))
    # a seed changes only w1 and the dropouts, so the lanes can share the
    # model objects the batch requires, and lane 0's design
    scenarios = [dataclasses.replace(s, plant=scenarios[0].plant,
                                     controller=scenarios[0].controller)
                 for s in scenarios]
    code = EXIT_OK
    lanes: List[_LaneFiles] = []
    try:
        for out_dir, scenario in zip(out_dirs, scenarios):
            lanes.append(_LaneFiles(out_dir, scenario, params[0], designs[0]))
        for lane, run in zip(lanes, sim.run_scenario(scenarios, lanes)):
            if isinstance(run, sim.DivergenceError):
                print(f"simulation aborted: {run}", file=sys.stderr)
                code = EXIT_DIVERGENCE
                continue
            lane.finish(run)
    finally:
        for lane in lanes:
            lane.discard()
    return code


def cmd_simulate(args) -> int:
    # the executor and checks, and numpy with them, load here, before a
    # --jobs pool forks, so that each worker starts with them
    from . import checks, sim  # noqa: F401

    cfg = _load_config(args)
    seeds = _parse_seeds(args.seed)
    if seeds is not None and len(seeds) == 1:
        cfg, seeds = _apply_seed(cfg, seeds[0]), None
    print("# effective config")
    print(format_config(cfg), end="")
    out = Path(args.out)
    if seeds is None:
        return _simulate_batch([cfg], [out])
    print("# each lane's seed s sets " + ", ".join(
        f"{key} = s" + (f" + {offset}" if offset else "")
        for key, offset in _seed_offsets(cfg).items()))
    # contiguous batches, one per job and none over BATCH_LANES lanes
    jobs = max(1, args.jobs)
    n = min(len(seeds), max(jobs, -(-len(seeds) // BATCH_LANES)))
    batches = [seeds[len(seeds) * i // n:len(seeds) * (i + 1) // n] for i in range(n)]
    tasks = [([_apply_seed(cfg, s) for s in batch], [out / f"seed_{s}" for s in batch])
             for batch in batches]
    if jobs == 1:
        return max(_simulate_batch(*task) for task in tasks)
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(_simulate_batch, *task) for task in tasks]
        return max(f.result() for f in futures)


def _parse_seeds(spec: Optional[str]) -> Optional[List[int]]:
    if spec is None:
        return None
    try:
        seeds = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seed: expected integers, got {spec!r}") from exc
    # each seed's run writes seed_<n>/, so a repeat would race on one directory
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError(f"--seed: expected distinct integers, got {spec!r}")
    return seeds


def _read_run(out_dir: Path, read):
    """``read(trace_path, events_path)`` on the run in ``out_dir``; a missing,
    unreadable or malformed trace file is a config error."""
    paths = (out_dir / "trace.csv", out_dir / "events.csv")
    for path in paths:
        if not path.exists():
            raise ConfigError(f"missing trace file {path}")
    try:
        return read(*paths)
    except OSError as exc:
        raise ConfigError(f"cannot read {exc.filename or out_dir}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed trace: {exc}") from exc


def cmd_verify(args) -> int:
    from .verify import verify_trace_files

    scenario, _, design = build_scenario(_load_effective_config(args))
    out_dir = Path(args.out)
    checks = _read_run(out_dir, functools.partial(verify_trace_files, scenario, design))
    kv: Dict[str, object] = {}
    all_pass = True
    for name, (ok, detail) in checks.items():
        kv[f"check.{name}"] = "pass" if ok else "fail"
        kv[f"detail.{name}"] = detail
        all_pass &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    kv["all_pass"] = all_pass
    _write_kv(out_dir / "verify.kv", kv)
    return EXIT_OK if all_pass else EXIT_VERIFY


def _write_dat_blocks(out_dir: Path, names: Sequence[str], blocks) -> None:
    """Write the first column of each block beside each of the others, one
    file per name; ``blocks`` gives ``(x, *ys)`` tuples of the rows in turn.
    The columns go through the formatter together, so the values they share
    are formatted once.  The files are written under temporary names and
    renamed once all rows are written, so a fault in a later block leaves
    no file, and the files of an earlier report as they were."""
    from . import sim

    paths = [out_dir / name for name in names]
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(_partial(path), "wb")) for path in paths]
            for columns in blocks:
                for text in sim.format_blocks(*columns):
                    text[:, 0, -1] = ord(" ")
                    text[:, 1:, -1] = ord("\n")
                    for j, fh in enumerate(files, start=1):
                        fh.write(sim.text_bytes(text[:, [0, j]]))
        for path in paths:
            os.replace(_partial(path), path)
    finally:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(_partial(path))


def _report_rows(out_dir: Path, scenario: sim.ScenarioConfig, trace_path, events_path
                 ) -> sim.EventTable:
    """Write the .dat files of the trace's rows, a block of rows at a time;
    returns the run's event table."""
    from .tracecsv import read_run   # here, so that only verify and report compile it

    ev, blocks = read_run(scenario, trace_path, events_path)
    names = ([f"states_plant_{i + 1}.dat" for i in range(scenario.plant.state_dim)]
             + [f"states_controller_{i + 1}.dat" for i in range(scenario.controller.state_dim)]
             + ["output_plant.dat", "output_controller_held.dat"])
    _write_dat_blocks(out_dir, names,
                      ((b.t, b.x_p, b.x_c, b.y_p[:, 0], b.u_r[:, 0]) for b in blocks))
    return ev


def cmd_report(args) -> int:
    import numpy as np

    scenario, _, _ = build_scenario(_load_effective_config(args))
    out_dir = Path(args.out)
    ev = _read_run(out_dir, functools.partial(_report_rows, out_dir, scenario))
    for side in ("plant", "controller"):
        commit_t = ev.t[ev.commits(side)]
        _write_dat_blocks(out_dir, [f"interevent_{side}.dat"], [(commit_t[1:], np.diff(commit_t))])
        on = ev.on(side)
        _write_dat_blocks(out_dir, [f"dropouts_{side}.dat"],
                          [(ev.t[on], (~ev.dropped[on]).astype(float))])
    print(f"report data written to {out_dir}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="etncs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("design", cmd_design), ("simulate", cmd_simulate),
                     ("verify", cmd_verify), ("report", cmd_report)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", default=None,
                       help="override signal/dropout seeds; a comma list runs a "
                            "sweep (simulate only)")
        if name == "simulate":
            p.add_argument("--jobs", type=int, default=1,
                           help="parts a seed sweep is split into, run in "
                                "parallel; each part runs its seeds as one "
                                "lockstep batch, or one after another if it has "
                                f"fewer than {MIN_BATCH_LANES}, which run faster "
                                "that way")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleDesign as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
