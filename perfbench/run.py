"""Repeatable simulator benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload noc_stream --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats the workload's timed body on a fresh, empty store
until ``--seconds`` is spent (at least twice) and reports the
end-to-end metrics as medians over the bodies.  ``--trace 1`` runs one
untraced reference body and one body with every layer's entry points
wrapped in spans, and reports the per-layer metrics plus the
deterministic ``model.*`` counters.  Either way the output checks run
on every body, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The simulator is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.  Scratch
stores live under ``.perfbench_work/`` in the repository root and are
removed before exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: untraced bodies per run, however short ``--seconds`` is
MIN_BODIES = 2


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """Largest resident set so far of this process or any sweep worker
    it reaped (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _determinism_failures(bodies) -> List[str]:
    """Every body of one seed must simulate exactly the same outputs."""
    first = bodies[0].result_dicts()
    problems = []
    for index, body in enumerate(bodies[1:], start=1):
        current = body.result_dicts()
        for name in first:
            if name in current and current[name] != first[name]:
                problems.append(f"body {index}: {name} differs from body 0")
    return problems


def timed_run(workload, seed: int, seconds: float, work: Path
              ) -> Tuple[Dict[str, float], List, List[str]]:
    """Untraced bodies until ``seconds`` is spent; end-to-end metrics.

    Peak memory is read after the first body: the simulator's object
    pools keep what later bodies allocate, so the lifetime peak would
    grow with the number of bodies ``seconds`` happens to fit.
    """
    import metrics
    from layers import SetupClock
    from workloads import run_body

    clock = SetupClock().install()
    bodies = []
    start = time.perf_counter()
    try:
        while True:
            bodies.append(run_body(workload, seed, os.cpu_count() or 1,
                                   work / f"body{len(bodies)}", clock))
            if len(bodies) == 1:
                peak_rss_mb = _peak_rss_mb()
            elapsed = time.perf_counter() - start
            typical = statistics.median(b.wall for b in bodies)
            if len(bodies) >= MIN_BODIES and elapsed + typical > seconds:
                break
    finally:
        clock.uninstall()
    extra = _determinism_failures(bodies)
    return metrics.end_to_end(bodies, peak_rss_mb), bodies, extra


def traced_run(workload, seed: int, work: Path
               ) -> Tuple[Dict[str, float], List, List[str]]:
    """An untraced reference body, then a traced one; per-layer metrics.

    The span wrappers live in this process only, so the traced body
    runs every cell in-process (``jobs=1``).  On figure_grid, whose
    untraced reference uses one sweep worker per CPU, a second untraced
    in-process body is the base ``trace.overhead`` divides by.
    """
    import metrics
    from layers import SetupClock, SpanTracer
    from workloads import run_body

    jobs = os.cpu_count() or 1
    clock = SetupClock().install()
    try:
        reference = run_body(workload, seed, jobs, work / "reference", clock)
        bodies = [reference]
        inprocess = reference
        if workload.uses_workers and jobs > 1:
            inprocess = run_body(workload, seed, 1, work / "inprocess", clock)
            bodies.append(inprocess)
        tracer = SpanTracer().install()
        try:
            traced = run_body(workload, seed, 1, work / "traced", clock)
        finally:
            tracer.uninstall()
        bodies.append(traced)
    finally:
        clock.uninstall()
    extra = _determinism_failures(bodies)
    values = metrics.per_layer(workload.name, reference, inprocess, traced,
                               tracer, traced_jobs=1)
    return values, bodies, extra


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / str(os.getpid())
    try:
        if args.trace:
            values, bodies, extra = traced_run(workload, args.seed, work)
            catalogue = [(name, unit) for name, unit, *_ in
                         metrics.per_layer_catalogue()]
        else:
            values, bodies, extra = timed_run(workload, args.seed,
                                              args.seconds, work)
            catalogue = [(name, unit) for name, unit, *_ in
                         metrics.END_TO_END]
    finally:
        from repro.sim.sweep import shutdown_pool
        shutdown_pool()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    failures = [f for body in bodies for f in body.failures] + extra
    attempted = max(sum(body.attempted for body in bodies), 1)
    # a determinism mismatch fails an operation already counted above
    failed = min(sum(body.failed for body in bodies) + len(extra),
                 attempted)
    nonfinite = [name for name, value in values.items()
                 if not math.isfinite(value)]
    failures += [f"metric {name} is not finite" for name in nonfinite]
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)

    result_metrics = {}
    for name, unit in catalogue:
        value = values.get(name, 0.0)
        value = float(value) if math.isfinite(value) else 0.0
        result_metrics[name] = {"value": value, "unit": unit}
        print(f"{name:48s} {value:16.6g} {unit}")
    print(f"{workload.name}: {len(bodies)} bodies, {attempted} operations, "
          f"{failed} failed; body wall seconds: "
          + " ".join(f"{body.wall:.3f}" for body in bodies))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
