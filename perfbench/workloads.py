"""The benchmark's three workloads, their output checks and counters.

Every workload drives the simulator only through its public entry
points — :func:`repro.run_workload` for single cells and
:func:`repro.experiment.run_experiment` for the sampled grid — with
inputs made from the ``--seed`` argument.  One *operation* is one cell
(or one sampled region); it fails when it raises or when its output
check fails, and a failure is counted, not raised.

Sizes are scaled down from the repository's bench profile so one body
of the heaviest workload runs in seconds under CPython while keeping
each footprint on its side of the private L2.
"""

from __future__ import annotations

import functools
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: streaming cells: 2 KB L1 and 4 KB L2 (32 and 64 lines) against a
#: 96-line shared footprint, so every pass re-misses the L2
_STREAM = (("l1_kb", 2), ("l2_kb", 4), ("llc_slice_kb", 128))
_CACHEBW_STREAM = _STREAM + (("array_lines", 96), ("iters", 2))

#: L2-resident cells: 4 KB L1 and 32 KB L2 (64 and 512 lines) against a
#: 256-line footprint, scanned often enough that resident passes, not
#: the cold misses that load the NoC, take most of the host time
_RESIDENT = (("l1_kb", 4), ("l2_kb", 32), ("llc_slice_kb", 128),
             ("array_lines", 256), ("iters", 20))

#: the figure grid: 4 KB L1 and 8 KB L2 (64 and 128 lines); its two
#: footprints, 80 and 160 lines, sit either side of the L2
_GRID = (("l1_kb", 4), ("l2_kb", 8), ("llc_slice_kb", 128))


@dataclass(frozen=True)
class Cell:
    """One simulated point, run through :func:`repro.run_workload`."""

    name: str
    workload: str
    config: str
    cores: int
    sizes: Tuple[Tuple[str, object], ...]
    engine: str = "event"
    #: True: must trigger pushes; False: must trigger none; None: the
    #: footprint never re-misses, so no push expectation applies
    pushes: Optional[bool] = None

    def kwargs(self) -> Dict[str, object]:
        return dict(self.sizes, engine=self.engine)

    def run(self, seed: int):
        from repro import run_workload
        return run_workload(self.workload, self.config, num_cores=self.cores,
                            seed=seed, **self.kwargs())


NOC_STREAM_CELLS = (
    Cell("c16_baseline", "cachebw", "baseline", 16, _CACHEBW_STREAM,
         pushes=False),
    Cell("c16_ordpush", "cachebw", "ordpush", 16, _CACHEBW_STREAM,
         pushes=True),
    Cell("conv3d_ordpush", "conv3d", "ordpush", 16,
         _STREAM + (("input_lines", 96), ("out_channels", 3)),
         pushes=True),
    Cell("c64_event", "cachebw", "ordpush", 64, _CACHEBW_STREAM,
         pushes=True),
    Cell("c64_array", "cachebw", "ordpush", 64, _CACHEBW_STREAM,
         engine="array", pushes=True),
)

L2_RESIDENT_CELLS = (
    Cell("baseline", "cachebw", "baseline", 16, _RESIDENT, pushes=False),
    Cell("ordpush", "cachebw", "ordpush", 16, _RESIDENT),
)

def figure_grid_spec(seed: int, cores: int = 16, caches=_GRID,
                     lines: Tuple[int, int] = (80, 160),
                     iters: int = 4) -> Dict[str, object]:
    """The Fig.-11-style sampled grid ``figure_grid`` runs: 3 schemes x
    2 fabrics x 2 footprints (L2-resident, then streaming), 3 detached
    regions per point after functional warm-up."""
    return {
        "name": "perfbench-figure-grid",
        "workload": "cachebw",
        "configs": ["baseline", "pushack", "ordpush"],
        "num_cores": cores,
        "seeds": [seed],
        # cores start each pass at most 160 cycles apart (16 x 10), so
        # a region after a barrier measures scanning, not a random
        # stagger wait, and its instruction count barely moves with seed
        "sizes": dict(caches, topology=["mesh", "torus"],
                      array_lines=list(lines), iters=iters, pair_skew=10),
        "sampling": {"samples": 3, "sample_cycles": 400,
                     "detach_cycles": 150, "warmup_mode": "functional"},
    }


@dataclass
class Body:
    """What one execution of a workload's timed body produced."""

    wall: float = 0.0
    setup: float = 0.0
    #: simulated instructions retired (measured regions on figure_grid)
    instructions: int = 0
    attempted: int = 0
    failed: int = 0
    #: one message per failed check (a message may cover several ops)
    failures: List[str] = field(default_factory=list)
    #: cell name -> SimResult, or "point label" -> SampledResult
    results: Dict[str, object] = field(default_factory=dict)
    #: cell name -> simulation seconds (cell wall minus its set-up)
    cell_sim: Dict[str, float] = field(default_factory=dict)
    #: figure_grid: executor telemetry of the cold pass and re-run time
    sweep: Dict[str, object] = field(default_factory=dict)
    cold_wall: float = 0.0
    rerun_wall: float = 0.0

    @property
    def sim_seconds(self) -> float:
        return self.wall - self.setup

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    def result_dicts(self) -> Dict[str, Dict]:
        return {name: result.to_dict()
                for name, result in self.results.items()}


def fresh_state(cache_dir: Path) -> None:
    """Point the store at an empty directory and drop in-process memos,
    so every body pays for its own traces, warm images and results."""
    from repro.sim.sweep import reset_worker_memo, shutdown_pool
    from repro.workloads.registry import TRACE_CACHE

    shutdown_pool()
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    TRACE_CACHE.memo.clear()
    reset_worker_memo()


@functools.lru_cache(maxsize=None)
def expected_instructions(cell: Cell, seed: int) -> int:
    """Instructions the cell's traces hold: a run that finished every
    core retires exactly this many.  Counted from the raw generators,
    outside any timed or traced region."""
    from repro.cpu.traces import MemAccess
    from repro.sim.runner import split_kwargs
    from repro.workloads.registry import build_traces

    _, sizes = split_kwargs(cell.workload, cell.kwargs())
    return sum(record.instructions
               for trace in build_traces(cell.workload, cell.cores,
                                         seed=seed, **sizes)
               for record in trace if isinstance(record, MemAccess))


def run_cells(cells, seed: int, setup_clock, body: Body) -> None:
    """Run full-run cells in-process, timing set-up and simulation."""
    for cell in cells:
        body.attempted += 1
        setup_before = setup_clock.seconds
        start = time.perf_counter()
        try:
            result = cell.run(seed)
        except Exception:  # a failed cell is counted, not fatal
            body.fail(1, f"{cell.name} raised:\n{traceback.format_exc()}")
            continue
        wall = time.perf_counter() - start
        body.cell_sim[cell.name] = wall - (setup_clock.seconds
                                           - setup_before)
        body.results[cell.name] = result
        body.instructions += result.instructions


def check_cells(cells, seed: int, body: Body) -> None:
    """Output checks for every cell that ran (after timing stops)."""
    for cell in cells:
        result = body.results.get(cell.name)
        if result is None:
            continue  # it raised, and is already counted as failed
        problems = []
        expected = expected_instructions(cell, seed)
        if result.instructions != expected:
            problems.append(f"retired {result.instructions} of {expected} "
                            f"trace instructions")
        if cell.pushes is True and result.pushes_triggered <= 0:
            problems.append(f"{cell.config} triggered no pushes")
        if cell.pushes is False and result.pushes_triggered != 0:
            problems.append(f"{cell.config} triggered "
                            f"{result.pushes_triggered} pushes")
        if cell.engine != "event" and \
                result.extra.get("engine") != cell.engine:
            problems.append(f"did not run on the {cell.engine} engine")
        if problems:
            body.fail(1, f"{cell.name}: " + "; ".join(problems))


def run_figure_grid(seed: int, jobs: int, body: Body,
                    document: Optional[Dict[str, object]] = None) -> None:
    """Cold pass on an empty store, then the identical spec again."""
    from repro.experiment import ExperimentSpec, expand_grid, run_experiment
    from repro.sim.sweep import last_sweep_stats

    spec = ExperimentSpec.from_dict(document or figure_grid_spec(seed))
    ops = len(expand_grid(spec)) * spec.sampling.samples
    body.attempted += 2 * ops  # the cold pass's regions, then the re-run's
    cold_start = time.perf_counter()
    try:
        cold = run_experiment(spec, jobs=jobs)
    except Exception:  # a failed pass is counted, not fatal
        body.fail(2 * ops, f"cold pass raised:\n{traceback.format_exc()}")
        return
    body.cold_wall = time.perf_counter() - cold_start
    body.sweep = last_sweep_stats()
    streaming = max(spec.sizes["array_lines"])
    for point, sampled in zip(cold.points, cold.results):
        lines = dict(point.kwargs)["array_lines"]
        label = f"{point.label()}/lines{lines}"
        body.results[label] = sampled
        body.instructions += sum(r.instructions for r in sampled.regions)
        problems = check_sampled(point.config, lines == streaming,
                                 spec.sampling, sampled)
        if problems:
            body.fail(spec.sampling.samples,
                      f"{label}: " + "; ".join(problems))

    rerun_start = time.perf_counter()
    try:
        warm = run_experiment(spec, jobs=jobs)
    except Exception:
        body.fail(ops, f"re-run raised:\n{traceback.format_exc()}")
        return
    body.rerun_wall = time.perf_counter() - rerun_start
    rerun = last_sweep_stats()
    same = ([r.to_dict() for r in warm.results]
            == [r.to_dict() for r in cold.results])
    if rerun["cache_hits"] != rerun["points"] or not same:
        body.fail(ops, f"re-run: {rerun['cache_hits']} of "
                       f"{rerun['points']} regions hit, results "
                       f"identical: {same}")


def check_sampled(config: str, streaming: bool, policy,
                  sampled) -> List[str]:
    """Output checks for one sampled point of the figure grid."""
    problems = []
    if len(sampled.regions) != policy.samples:
        problems.append(f"{len(sampled.regions)} of {policy.samples} "
                        f"regions")
    pushes = sum(r.pushes_triggered for r in sampled.regions)
    if config == "baseline" and pushes != 0:
        problems.append(f"baseline triggered {pushes} pushes")
    if config != "baseline" and streaming and pushes <= 0:
        problems.append(f"{config} triggered no pushes")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (seed, jobs, setup clock, body) -> None; fills the body
    execute: Callable
    #: (seed, body) -> None; output checks that must stay untimed
    check: Callable = lambda seed, body: None
    #: whether the body hands work to sweep worker processes
    uses_workers: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "noc_stream",
            "shared-read streaming past the L2: the NoC layers take about "
            "half of traced self time; push, filter and both NoC engines "
            "(same 64c cell) run, the baseline cell bypasses push",
            lambda seed, jobs, clock, body:
            run_cells(NOC_STREAM_CELLS, seed, clock, body),
            lambda seed, body: check_cells(NOC_STREAM_CELLS, seed, body)),
        Workload(
            "l2_resident",
            "footprint fits the L2: private caches, fast path and "
            "scheduler take about 2/3 of traced self time, the NoC under "
            "1/5; prefetch runs on baseline, the fast-path stepper on ordpush",
            lambda seed, jobs, clock, body:
            run_cells(L2_RESIDENT_CELLS, seed, clock, body),
            lambda seed, body: check_cells(L2_RESIDENT_CELLS, seed, body)),
        Workload(
            "figure_grid",
            "sampled Fig.-11 grid via run_experiment: the only workload "
            "where sweep executor, store, checkpoints, functional NoC and "
            "sampling work; cold pass then all-hit re-run",
            lambda seed, jobs, clock, body:
            run_figure_grid(seed, jobs, body),
            uses_workers=True),
    )
}


def run_body(workload: Workload, seed: int, jobs: int, cache_dir: Path,
             setup_clock) -> Body:
    """One timed execution of a workload on a fresh, empty store."""
    from repro.sim.sweep import shutdown_pool

    fresh_state(cache_dir)
    body = Body()
    setup_before = setup_clock.seconds
    start = time.perf_counter()
    try:
        workload.execute(seed, jobs, setup_clock, body)
    finally:
        body.wall = time.perf_counter() - start
        shutdown_pool()
    body.setup = setup_clock.seconds - setup_before
    workload.check(seed, body)
    return body
