"""Bit-identical equivalence against the recorded golden matrix.

``tests/data/golden_results.json`` holds full ``SimResult`` records
captured from the pre-event-driven (per-cycle) simulator across the
benchmark config matrix — both push modes, filter on/off, and three
workload shapes.  The event-driven engine is only a correct
*optimization* if every record reproduces exactly: same cycle counts,
same per-class traffic, same link-load matrix, same push statistics.

``tests/data/engine_pins.json`` pins, the same way, the paths the
golden matrix does not reach: the array NoC engine on mesh and torus,
and a functional warm-up restored into a detailed measured region.
Each pin carries the extra ``run_workload`` arguments in ``run``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.sim.checkpoint import CheckpointStore
from repro.sim.config import bench_kwargs
from repro.sim.runner import run_workload

DATA = pathlib.Path(__file__).parent / "data"
RECORDS = json.loads((DATA / "golden_results.json").read_text(
    encoding="utf-8"))
PINS = json.loads((DATA / "engine_pins.json").read_text(encoding="utf-8"))


def _record_id(rec: dict) -> str:
    tags = [f"{rec['workload']}-{rec['config']}"]
    tags += [str(value) for key, value in sorted(rec.get("run", {}).items())
             if key != "warmup_barriers"]
    return "-".join(tags)


@pytest.mark.parametrize("record", RECORDS + PINS,
                         ids=[_record_id(rec) for rec in RECORDS + PINS])
def test_simresult_bit_identical(record: dict, tmp_path) -> None:
    run = dict(record.get("run", {}))
    if run.get("warmup_barriers"):
        # A private store: the warm image is always built, never reused.
        run["checkpoint"] = CheckpointStore(tmp_path)
    result = run_workload(record["workload"], record["config"],
                          num_cores=16, seed=1,
                          **bench_kwargs(), **record["sizes"], **run)
    got = result.to_dict()
    want = record["result"]
    assert set(got) == set(want)
    mismatched = {key: (got[key], want[key])
                  for key in want if got[key] != want[key]}
    assert not mismatched, (
        f"SimResult diverged from the golden record on "
        f"{sorted(mismatched)}: {mismatched}")


def test_golden_matrix_covers_the_config_axes() -> None:
    """The matrix must keep covering both push modes x filter on/off."""
    configs = {rec["config"] for rec in RECORDS}
    assert {"baseline", "push_multicast", "push_mc_filter",
            "pushack", "ordpush"} <= configs
    assert len(RECORDS) >= 8
