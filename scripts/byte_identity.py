"""Check that two source trees give byte-identical runs.

    python3 scripts/byte_identity.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding the ``etncs`` package.  For
each tree in turn, with only that tree on PYTHONPATH, this runs the command
line on the runs an executor change must leave byte for byte as they were:
the CLI sequences of the three perfbench workloads, a seed sweep in two
8-lane batches whose lanes diverge (exit 3), a 3-lane sweep with both
quantizers logarithmic, a 3-lane sweep with a table delay on one link and a
constant delay and pattern drops on the other, and the 2-lane sweep
``--seed 7,8``; after each of the last
three, ``verify`` and ``report`` of its first lane, so that the readers
meet logarithmic quantizer outputs, a table delay and pattern drops.  Last
comes the ``forms`` run, ``simulate``, ``verify`` and ``report`` of one
``--seed``, which selects every config form the runs above leave out: an
``lti`` plant, explicit ``gains.*``, identity quantizers, a constant w2, no
controller-link dropout, ``sim.drop_first_allowed`` and a nonzero initial
hold on both links, which the diverging sweep's batches start from too.  Both
trees write to the same directory, one after the other, so paths printed in
outputs agree.  It then compares every output file, each step's exit code
and its sorted stderr lines, and prints the first difference (exit 1) or
"identical" (exit 0).  Configs are read from this checkout.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402  (the perfbench workloads' CLI sequences)

LOG_SETS = [a for side in ("quant_p", "quant_c") for s in (
    "kind=logarithmic", "density=0.5", "u0=16.0", "b=1.3334") for a in ("--set", f"{side}.{s}")]
# both links start from a nonzero hold in the two 8-lane batches and in ``forms``
HOLD_SETS = ["--set", "chan_pc.initial_hold=-0.5", "--set", "chan_cp.initial_hold=0.25"]
DIVERGING = ["--set", "w1.lo=-400", "--set", "w1.hi=400", "--set", "sim.divergence_limit=100",
             "--set", "sim.t_end=2", *HOLD_SETS, "--seed", ",".join(map(str, range(16))),
             "--jobs", "2"]
LINK_SETS = [a for s in (
    "chan_pc.form=table", "chan_pc.table=0,0.05,1,0.3,3,0.1", "chan_pc.d=0.3",
    "chan_cp.form=constant", "chan_cp.T0=0.02", "chan_cp.dropout.kind=pattern",
    "chan_cp.dropout.pattern=0110100", "trigger_p.delta=0.01", "trigger_c.delta=0.02",
    "sim.t_end=3") for a in ("--set", s)]
FORM_SETS = [a for s in (
    "quant_p.kind=identity", "quant_c.kind=identity", "w2.kind=constant", "w2.value=0.1",
    "chan_cp.dropout.kind=none", "sim.drop_first_allowed=true", "plant.model=lti",
    "plant.a=-3.6", "plant.b=2", "plant.c=1", "plant.d=0", "plant.x0=5", "gains.m11=0.16",
    "gains.m21=-4.865", "gains.m22=7.033", "sim.t_end=2") for a in ("--set", s)] + HOLD_SETS


def sequences(out: Path):
    """(name, argv) of every step, in run order, each writing under ``out``."""
    for name, w in wl.WORKLOADS.items():
        for step in wl.steps(w, None, out / name):
            yield name, step.argv
    sweep = ["simulate", "--config", wl.CONFIG, "--out"]
    yield "divergence_sweep", sweep + [str(out / "divergence_sweep"), *DIVERGING]
    for name, sets, seeds in (("log_sweep", [*LOG_SETS, "--set", "sim.t_end=5"], "0,1,2"),
                              ("link_sweep", LINK_SETS, "0,1,2"),
                              ("pair_sweep", [], "7,8")):
        yield name, sweep + [str(out / name), *sets, "--seed", seeds]
        lane = seeds.split(",")[0]
        for command in ("verify", "report"):
            yield name, [command, "--config", wl.CONFIG, "--out",
                         str(out / name / f"seed_{lane}"), *sets, "--seed", lane]
    for command in ("simulate", "verify", "report"):
        yield "forms", [command, "--config", wl.CONFIG, "--out", str(out / "forms"),
                        *FORM_SETS, "--seed", "3"]


def run_tree(src: Path, out: Path) -> list:
    """(step, exit code, sorted stderr lines) of every step run on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for name, argv in sequences(out):
        proc = subprocess.run([sys.executable, "-m", "etncs", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        results.append((f"{name}: {' '.join(argv[:1])}", proc.returncode,
                        sorted(proc.stderr.splitlines())))
    return results


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out, kept, runs = Path(tmp) / "out", [], []
        for n, src in enumerate(sys.argv[1:]):
            out.mkdir()
            runs.append(run_tree(Path(src), out))
            kept.append(out.rename(Path(tmp) / f"tree{n}"))
        for a, b in zip(*runs):
            if a != b:
                print(f"first difference: {a[0]}\n  parent: {a[1:]}\n  change: {b[1:]}")
                return 1
        before, after = ({p.relative_to(top) for p in top.rglob("*") if p.is_file()}
                         for top in kept)
        for rel in sorted(before | after):
            if rel not in before & after or (
                    (kept[0] / rel).read_bytes() != (kept[1] / rel).read_bytes()):
                print(f"first difference: {rel}")
                return 1
    print(f"identical: {len(runs[0])} steps, {len(before)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
