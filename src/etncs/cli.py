"""Command-line front end.

Subcommands: ``design`` (synthesize the gain block and print the stability
report), ``simulate`` (run a scenario to trace/events/metrics files),
``verify`` (re-check invariants from the serialized trace), ``report``
(emit gnuplot-ready two-column data files).

Exit codes: 0 success/pass, 1 usage or config error, 2 design infeasible,
3 divergence abort, 4 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import sim
from .config import (ConfigError, apply_overrides, build_scenario,
                     format_config, load_config, run_design)
from .design import DesignParams, DesignResult, InfeasibleDesign

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _kv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.16e" % v
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


def _load_effective_config(args) -> Dict[str, str]:
    cfg = load_config(args.config)
    cfg = apply_overrides(cfg, args.set or [])
    return cfg


def _apply_seed(cfg: Dict[str, str], seed: int) -> Dict[str, str]:
    out = dict(cfg)
    out["w1.seed"] = str(seed)
    if out.get("chan_pc.dropout.kind", "none") == "bernoulli":
        out["chan_pc.dropout.seed"] = str(seed + 1)
    if out.get("chan_cp.dropout.kind", "none") == "bernoulli":
        out["chan_cp.dropout.seed"] = str(seed + 2)
    return out


def cmd_design(args) -> int:
    cfg = _load_effective_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def _simulate_one(cfg: Dict[str, str], out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = build_scenario(cfg)
    try:
        params, result = run_design(cfg)
    except (ConfigError, InfeasibleDesign):
        params = result = None
    try:
        trace = sim.run_scenario(scenario)
    except sim.DivergenceError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    sim.write_trace_csv(trace, out_dir / "trace.csv")
    sim.write_events_csv(trace, out_dir / "events.csv")
    metrics = sim.compute_metrics(trace, result, params)
    _write_kv(out_dir / "metrics.kv", metrics)
    return EXIT_OK


def _simulate_worker(cfg: Dict[str, str], out_dir: str) -> int:
    return _simulate_one(cfg, Path(out_dir))


def cmd_simulate(args) -> int:
    cfg = _load_effective_config(args)
    seeds = _parse_seeds(args.seed)
    print("# effective config")
    print(format_config(cfg), end="")
    if seeds is None:
        return _simulate_one(cfg, Path(args.out))
    if len(seeds) == 1:
        return _simulate_one(_apply_seed(cfg, seeds[0]), Path(args.out))
    jobs = max(1, args.jobs)
    codes: List[int] = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_simulate_worker, _apply_seed(cfg, s),
                               str(Path(args.out) / f"seed_{s}"))
                   for s in seeds]
        codes = [f.result() for f in futures]
    return max(codes) if codes else EXIT_OK


def _parse_seeds(spec: Optional[str]) -> Optional[List[int]]:
    if spec is None:
        return None
    try:
        return [int(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seed: expected integers, got {spec!r}") from exc


def cmd_verify(args) -> int:
    from .verify import verify_trace_files

    cfg = _load_effective_config(args)
    out_dir = Path(args.out)
    trace_path = out_dir / "trace.csv"
    events_path = out_dir / "events.csv"
    for path in (trace_path, events_path):
        if not path.exists():
            raise ConfigError(f"missing trace file {path}")
    try:
        checks = verify_trace_files(cfg, trace_path, events_path)
    except ValueError as exc:
        raise ConfigError(f"malformed trace: {exc}") from exc
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


def _write_xy(path: Path, x: Sequence[float], y: Sequence[float]) -> None:
    with open(path, "w") as fh:
        for xv, yv in zip(x, y):
            fh.write("%.16e %.16e\n" % (xv, yv))


def cmd_report(args) -> int:
    cfg = _load_effective_config(args)
    scenario = build_scenario(cfg)
    out_dir = Path(args.out)
    trace_path = out_dir / "trace.csv"
    events_path = out_dir / "events.csv"
    for path in (trace_path, events_path):
        if not path.exists():
            raise ConfigError(f"missing trace file {path}")
    try:
        trace = sim.read_trace(scenario, trace_path, events_path)
    except ValueError as exc:
        raise ConfigError(f"malformed trace: {exc}") from exc
    t = trace.t

    for i in range(scenario.plant.state_dim):
        _write_xy(out_dir / f"states_plant_{i + 1}.dat", t, trace.x_p[:, i])
    for i in range(scenario.controller.state_dim):
        _write_xy(out_dir / f"states_controller_{i + 1}.dat", t, trace.x_c[:, i])
    _write_xy(out_dir / "output_plant.dat", t, trace.y_p[:, 0])
    _write_xy(out_dir / "output_controller_held.dat", t, trace.u_r[:, 0])

    for side in ("plant", "controller"):
        commits = trace.commits_on(side)
        gaps_t = [b.t for a, b in zip(commits, commits[1:])]
        gaps = [b.t - a.t for a, b in zip(commits, commits[1:])]
        _write_xy(out_dir / f"interevent_{side}.dat", gaps_t, gaps)
        attempts = trace.events_on(side)
        _write_xy(out_dir / f"dropouts_{side}.dat",
                  [e.t for e in attempts],
                  [0.0 if e.dropped else 1.0 for e in attempts])
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
                       help="override signal/dropout seeds; a comma list runs a sweep")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel scenarios for seed sweeps")
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
    except sim.DivergenceError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
