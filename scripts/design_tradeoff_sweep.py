#!/usr/bin/env python3
"""Sweep the free design choices of the worked example and tabulate the
resulting robustness/performance trade-offs.

For a grid of m22^2 (gain-block size) and delta_c (controller triggering
threshold) this prints the transformed indices, the stability margins, the
certified L2 gain bound and both dropout budgets, and writes
`design_sweep.dat` (gnuplot-ready columns) next to the output.  The m22^2
grid is a set of multipliers on the smallest admissible m22^2
(``min_m22_sq``); they live here, since a config states m22^2 itself.

Usage: python3 scripts/design_tradeoff_sweep.py [out_dir]
"""

import dataclasses
import math
import sys
from pathlib import Path

from etncs.config import build_design_inputs, load_config
from etncs.design import InfeasibleDesign, min_m22_sq, synthesize

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "worked_example.cfg"


def run(out_dir: str) -> int:
    base, _, m11 = build_design_inputs(load_config(CONFIG))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"{'delta_c':>8} {'m22^2':>8} {'rho_t':>8} {'nu_t':>8} "
          f"{'margin2':>8} {'gain_bd':>9} {'d_p':>4} {'d_c':>4}")
    for delta_c in (0.05, 0.15, 0.30, 0.60):
        p = dataclasses.replace(base, delta_c=delta_c)
        floor_sq = min_m22_sq(p)
        for scale in (1.1, 1.4, 2.0, 3.0, 5.0):
            m22_sq = floor_sq * scale
            try:
                r = synthesize(p, math.sqrt(m22_sq), m11)
            except InfeasibleDesign:
                continue
            print(f"{delta_c:8.2f} {m22_sq:8.2f} {r.rho_c_tilde:8.4f} "
                  f"{r.nu_c_tilde:8.4f} {r.margins['coupling']:8.4f} "
                  f"{r.gamma_bound:9.2f} {r.d_p_max:4d} {r.d_c_max:4d}")
            rows.append((delta_c, m22_sq, r.rho_c_tilde, r.nu_c_tilde,
                         r.margins["coupling"], r.gamma_bound,
                         r.d_p_max, r.d_c_max))
    data = out / "design_sweep.dat"
    with open(data, "w") as fh:
        fh.write("# delta_c m22_sq rho_c_tilde nu_c_tilde margin_coupling "
                 "gamma_bound d_p_max d_c_max\n")
        for row in rows:
            fh.write(" ".join(f"{v:.6g}" for v in row) + "\n")
    print(f"\nwrote {data}")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "out/design_sweep"))
