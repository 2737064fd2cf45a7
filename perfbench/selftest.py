"""Fast self-test of the benchmark harness on a tiny ``sim.t_end``.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes one untraced and one traced
measurement of the workload shrunk to 51 rows per lane. It checks that each
run emits exactly the metrics BENCHMARK.json names, each with its unit, that
every output was judged correct, and that the traced run's call-count
identities held (a broken identity makes the run incorrect). It also checks
that the identity check itself rejects a count that is off by one.
"""

from __future__ import annotations

import json
import sys

import run
import tracer

TINY = ("sim.t_end=0.05",)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    stats = {"core.rk4_step": [100], "network.Channel.poll": [102],
             "network.Channel.send": [3], "quantizer.quantize": [105]}
    if tracer.identities(stats, rows=51, n_lanes=1, attempts=3) != []:
        problems.append("identity check rejects consistent counts")
    stats["network.Channel.poll"] = [101]
    if len(tracer.identities(stats, rows=51, n_lanes=1, attempts=3)) != 1:
        problems.append("identity check misses a count that is off by one")
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _, errors = run.measure(workload["name"], None, 0, trace, TINY)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload['name']} --trace {trace}"
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: incorrect: {errors}")
            print(f"{label}: {len(got)} metrics, {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
