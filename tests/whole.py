"""Whole runs for tests.

The executor, the checks and the trace reader take a run one block of rows
at a time.  These helpers collect the blocks of each lane through sinks into
one TraceLog of the whole run, feed such a TraceLog to the checks as one
block, write it to a trace file, and stack the blocks read back from one.
"""

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from etncs import checks, sim
from etncs.checks import RunChecks
from etncs.sim import TRACE_COLUMNS, DivergenceError, ScenarioConfig, TraceLog


class _KeptRows:
    """The sink that keeps every block of a lane in whole-run columns."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.columns: Dict[str, np.ndarray] = {}

    def __call__(self, block: TraceLog) -> None:
        stop = block.first_row + len(block.t)
        for name in TRACE_COLUMNS:
            rows = getattr(block, name)
            if name not in self.columns:
                self.columns[name] = np.empty((self.config.n_rows,) + rows.shape[1:])
            self.columns[name][block.first_row:stop] = rows


def lanes(cfgs: Sequence[ScenarioConfig]) -> List[Union[TraceLog, DivergenceError]]:
    """Each lane's whole TraceLog, or its DivergenceError, in lane order."""
    kept = [_KeptRows(cfg) for cfg in cfgs]
    return [out if isinstance(out, DivergenceError)
            else TraceLog(config=rows.config, events=out, **rows.columns)
            for rows, out in zip(kept, sim.run_scenario(cfgs, kept))]


def run(cfg: ScenarioConfig) -> TraceLog:
    """The whole TraceLog of one run; a run that diverges raises its
    DivergenceError."""
    (trace,) = lanes([cfg])
    if isinstance(trace, DivergenceError):
        raise trace
    return trace


def _fed(trace: TraceLog, params=None, design=None) -> RunChecks:
    run = RunChecks(trace.config, params, design)
    run.add(trace)
    run.events = trace.events
    return run


def verdicts(trace: TraceLog, design=None):
    """``checks.verdicts`` of a whole trace, fed as one block."""
    return checks.verdicts(_fed(trace, design=design))


def metrics(trace: TraceLog, design=None, params=None) -> dict:
    """``sim.compute_metrics`` of a whole trace, fed as one block."""
    return sim.compute_metrics(_fed(trace, params, design))


def write_trace(trace: TraceLog, path) -> None:
    with open(path, "wb") as fh:
        sim.write_trace_csv(trace, fh)


def matrix(path) -> Tuple[List[str], np.ndarray]:
    """Header names and the whole value matrix of a trace file, stacked
    from the blocks ``sim.read_trace_csv`` gives."""
    names, blocks = sim.read_trace_csv(path)
    return names, np.concatenate([block.copy() for block in blocks])


def read(scenario: ScenarioConfig, trace_path, events_path) -> TraceLog:
    """The whole run read back from its trace and events files, stacked
    from the blocks ``tracecsv.read_run`` gives."""
    from etncs.tracecsv import read_run

    events, blocks = read_run(scenario, trace_path, events_path)
    parts: Dict[str, list] = {name: [] for name in TRACE_COLUMNS}
    for block in blocks:
        for name, kept in parts.items():
            kept.append(getattr(block, name).copy())
    return TraceLog(config=scenario, events=events,
                    **{name: np.concatenate(kept) for name, kept in parts.items()})
