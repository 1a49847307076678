"""The benchmark's metric catalogue and how each value is computed.

End-to-end metrics come from untraced bodies (medians over the bodies
of one run).  Per-layer metrics come from one traced body, the
untraced bodies it is compared against, and the deterministic
``model.*`` counters: simulated outputs that a simulator-speed change
must leave identical.  Every workload reports every per-layer metric;
a layer or cell a workload does not exercise reads 0.

``BENCHMARK.json`` lists the same catalogue; the benchmark's tests
keep the two in step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from layers import COUNTED, LAYERS
from workloads import L2_RESIDENT_CELLS, NOC_STREAM_CELLS, Body

#: (name, unit, better, bound).  Host speed on a shared 2-vCPU VM drifts
#: 10-25 % between runs a minute apart, so host times get the widest
#: bound.  Peak memory on figure_grid includes sweep workers, whose
#: memos depend on chunk scheduling (104-124 MB across seeds).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("sim_kips", "kinst/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

#: per simulated cell: (counter, unit, better)
CELL_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("cycles", "cycles", "lower"),
    ("instructions", "inst", "higher"),
    ("flits", "flits", "lower"),
    ("flit_hops", "flit-hops", "lower"),
    ("l2_mpki", "MPKI", "lower"),
    ("pushes", "count", "higher"),
    ("push_useful", "fraction", "higher"),
    ("filtered", "count", "higher"),
)

#: grid-level summaries of the figure_grid cold pass
GRID_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("instructions", "inst", "higher"),
    ("flits", "flits", "lower"),
    ("flit_hops", "flit-hops", "lower"),
    ("pushes", "count", "higher"),
    ("ipc_mean", "inst/cycle", "higher"),
    # regions whose reported length is not the policy's sample_cycles:
    # the detach rebase starts the region at the last event before the
    # detach window ends, so an idle gap there inflates cycles
    ("regions_off_length", "count", "lower"),
)

#: per-layer metrics beyond <layer>.self_s/.calls/.share:
#: (name, unit, better, what it should move)
EXTRA_LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("other.self_s", "s", "lower", "wall_s on every workload"),
    ("cache.prefetch.calls", "count", "lower", "sim_kips on l2_resident"),
    ("noc.array.kips_ratio", "x", "higher",
     "sim_kips and peak_rss_mb on noc_stream"),
    ("store.bytes_read", "bytes", "lower", "wall_s on figure_grid"),
    ("store.bytes_written", "bytes", "lower", "wall_s on figure_grid"),
    ("sweep.probe_s", "s", "lower", "wall_s on figure_grid"),
    ("sweep.plan_s", "s", "lower", "wall_s on figure_grid"),
    ("sweep.build_s", "s", "lower", "wall_s on figure_grid"),
    ("sweep.dispatch_s", "s", "lower", "wall_s on figure_grid"),
    ("sweep.commit_s", "s", "lower", "wall_s on figure_grid"),
    ("sweep.workers", "count", "higher", "wall_s on figure_grid"),
    ("sweep.parallel_eff", "fraction", "higher", "wall_s on figure_grid"),
    ("sweep.rerun_s", "s", "lower", "wall_s on figure_grid"),
    ("sweep.reuse_speedup", "x", "higher", "wall_s on figure_grid"),
    ("sweep.ckpt_memo_hits", "count", "higher", "wall_s on figure_grid"),
    ("sampling.ipc_ci_rel_max", "fraction", "lower",
     "wall_s on figure_grid (regions needed)"),
    ("trace.overhead", "x", "lower", "none: traced over untraced wall_s"),
    ("trace.jobs", "count", "lower",
     "none: workers of the traced body (1: traced in-process)"),
)

#: derived model outputs of noc_stream: (name, unit, better)
NOC_STREAM_DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("model.noc_stream.ordpush_speedup", "x", "higher"),
    ("model.noc_stream.engine_cycle_gap", "fraction", "lower"),
)

_MODEL_MOVES = ("none for a simulator-speed change: must stay identical; "
                "a model change moves it")


def per_layer_catalogue() -> List[Tuple[str, str, str, str]]:
    """Every per-layer metric: (name, unit, better, what it should move)."""
    rows: List[Tuple[str, str, str, str]] = []
    for layer in LAYERS:
        rows += [(f"{layer.name}.self_s", "s", "lower", layer.moves),
                 (f"{layer.name}.calls", "count", "lower", layer.moves),
                 (f"{layer.name}.share", "fraction", "lower", layer.moves)]
    rows += list(EXTRA_LAYER_METRICS)
    for prefix, cells in (("noc_stream", NOC_STREAM_CELLS),
                          ("l2_resident", L2_RESIDENT_CELLS)):
        for cell in cells:
            rows += [(f"model.{prefix}.{cell.name}.{counter}", unit, better,
                      _MODEL_MOVES)
                     for counter, unit, better in CELL_COUNTERS]
    rows += [(name, unit, better, _MODEL_MOVES)
             for name, unit, better in NOC_STREAM_DERIVED]
    rows += [(f"model.figure_grid.{counter}", unit, better, _MODEL_MOVES)
             for counter, unit, better in GRID_COUNTERS]
    return rows


def _kips(instructions: int, seconds: float) -> float:
    return instructions / seconds / 1000.0 if seconds > 0 else 0.0


def end_to_end(bodies: List[Body], peak_rss_mb: float) -> Dict[str, float]:
    """Medians over the untraced bodies of one run."""
    return {
        "wall_s": statistics.median(b.wall for b in bodies),
        "sim_kips": statistics.median(_kips(b.instructions, b.sim_seconds)
                                      for b in bodies),
        "setup_s": statistics.median(b.setup for b in bodies),
        "peak_rss_mb": peak_rss_mb,
    }


def _injected_flits(result) -> int:
    """Flits the L2s and LLC slices injected (``total_flits`` counts
    flit-hops, the same sum as ``link_load``)."""
    return sum(result.l2_inject.values()) + sum(result.llc_inject.values())


def _cell_counters(result) -> Dict[str, float]:
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "flits": _injected_flits(result),
        "flit_hops": sum(result.link_load.values()),
        "l2_mpki": result.l2_mpki,
        "pushes": result.pushes_triggered,
        "push_useful": result.push_accuracy(),
        "filtered": result.requests_filtered,
    }


def model_counters(workload: str, body: Body) -> Dict[str, float]:
    """The deterministic simulated outputs of one body."""
    out: Dict[str, float] = {}
    if workload == "figure_grid":
        regions = [r for sampled in body.results.values()
                   for r in sampled.regions]
        grid = {
            "instructions": sum(r.instructions for r in regions),
            "flits": sum(_injected_flits(r) for r in regions),
            "flit_hops": sum(sum(r.link_load.values()) for r in regions),
            "pushes": sum(r.pushes_triggered for r in regions),
            "ipc_mean": (statistics.fmean(s.stats["ipc"].mean
                                          for s in body.results.values())
                         if body.results else 0.0),
            "regions_off_length": sum(
                r.cycles != sampled.policy.sample_cycles
                for sampled in body.results.values()
                for r in sampled.regions),
        }
        return {f"model.figure_grid.{k}": v for k, v in grid.items()}
    for name, result in body.results.items():
        for counter, value in _cell_counters(result).items():
            out[f"model.{workload}.{name}.{counter}"] = value
    if workload == "noc_stream":
        cycles = {name: r.cycles for name, r in body.results.items()}
        if "c16_baseline" in cycles and "c16_ordpush" in cycles:
            out["model.noc_stream.ordpush_speedup"] = (
                cycles["c16_baseline"] / cycles["c16_ordpush"])
        if "c64_event" in cycles and "c64_array" in cycles:
            out["model.noc_stream.engine_cycle_gap"] = (
                cycles["c64_array"] / cycles["c64_event"] - 1.0)
    return out


def per_layer(workload: str, reference: Body, inprocess: Body,
              traced: Body, tracer, traced_jobs: int) -> Dict[str, float]:
    """Per-layer metrics from one traced body.

    ``reference`` is the untraced body run the way the end-to-end
    metrics run it (with sweep workers on figure_grid); ``inprocess``
    is the untraced body run the way the traced one runs, so
    ``trace.overhead`` compares like with like.
    """
    values: Dict[str, float] = {name: 0.0 for name, *_ in
                                per_layer_catalogue()}
    wall = traced.wall
    attributed = 0.0
    for layer in LAYERS:
        self_s = tracer.self_s.get(layer.name, 0.0)
        attributed += self_s
        values[f"{layer.name}.self_s"] = self_s
        values[f"{layer.name}.calls"] = tracer.calls.get(layer.name, 0)
        values[f"{layer.name}.share"] = self_s / wall if wall > 0 else 0.0
    values["other.self_s"] = wall - attributed
    for metric, _ in COUNTED:
        values[metric] = tracer.counts.get(metric, 0)
    values["store.bytes_read"] = tracer.counts.get("store.bytes_read", 0)
    values["store.bytes_written"] = tracer.counts.get(
        "store.bytes_written", 0)
    values["trace.overhead"] = (wall / inprocess.wall
                                if inprocess.wall > 0 else 0.0)
    values["trace.jobs"] = traced_jobs

    sim = reference.cell_sim
    if sim.get("c64_event") and sim.get("c64_array"):
        event = reference.results["c64_event"].instructions / sim["c64_event"]
        array = reference.results["c64_array"].instructions / sim["c64_array"]
        values["noc.array.kips_ratio"] = array / event

    if reference.sweep:
        stats = reference.sweep
        timings = stats["timings"]
        for phase in ("probe", "plan", "build", "dispatch", "commit"):
            values[f"sweep.{phase}_s"] = timings[phase]
        workers = stats["workers"]
        values["sweep.workers"] = workers
        if timings["dispatch"] > 0 and workers:
            values["sweep.parallel_eff"] = (
                stats["wall_seconds"] / (timings["dispatch"] * workers))
        values["sweep.rerun_s"] = reference.rerun_wall
        if reference.rerun_wall > 0:
            values["sweep.reuse_speedup"] = (reference.cold_wall
                                             / reference.rerun_wall)
        values["sweep.ckpt_memo_hits"] = stats["ckpt_memo_hits"]
    if workload == "figure_grid" and reference.results:
        values["sampling.ipc_ci_rel_max"] = max(
            s.stats["ipc"].relative_ci for s in reference.results.values())

    values.update(model_counters(workload, reference))
    return values
