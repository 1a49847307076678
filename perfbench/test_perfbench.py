"""Tests for the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench -q

They check that ``BENCHMARK.json`` and the metric catalogue agree, that
the output checks pass on tiny seed-parameterised cells and flag broken
ones, that deterministic counters repeat exactly across two runs of one
seed, that tracing leaves simulated results untouched, and that the
entry point prints the contract's JSON line.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Body, Cell, Workload  # noqa: E402

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: tiny caches: 1 KB L1 (16 lines), 2 KB L2 (32 lines)
_TINY = (("l1_kb", 1), ("l2_kb", 2), ("llc_slice_kb", 16))
TINY_CELLS = (
    Cell("base", "cachebw", "baseline", 4,
         _TINY + (("array_lines", 48), ("iters", 2)), pushes=False),
    Cell("push", "cachebw", "ordpush", 4,
         _TINY + (("array_lines", 48), ("iters", 3)), pushes=True),
    Cell("array", "cachebw", "ordpush", 4,
         _TINY + (("array_lines", 48), ("iters", 3)), engine="array",
         pushes=True),
)


#: tiny grid: 1 KB L1, 4 KB L2 (64 lines)
_TINY_GRID = (("l1_kb", 1), ("l2_kb", 4), ("llc_slice_kb", 16))


def _tiny_grid(seed: int):
    return workloads.figure_grid_spec(seed, cores=4, caches=_TINY_GRID,
                                      lines=(72, 96), iters=6)


@pytest.fixture
def clock():
    setup = layers.SetupClock().install()
    yield setup
    setup.uninstall()


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
    return tmp_path


def _cells_body(seed, cells, clock, store, name="cells") -> Body:
    workload = Workload(
        name, "tiny cells",
        lambda s, jobs, c, body: workloads.run_cells(cells, s, c, body),
        lambda s, body: workloads.check_cells(cells, s, body))
    return workloads.run_body(workload, seed, 1, store / name, clock)


def _grid_body(seed, jobs, clock, store, name="grid") -> Body:
    workload = Workload(
        name, "tiny grid",
        lambda s, j, c, body: workloads.run_figure_grid(
            s, j, body, _tiny_grid(s)))
    return workloads.run_body(workload, seed, jobs, store / name, clock)


def test_benchmark_json_matches_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in metrics.per_layer_catalogue()]


def test_metric_names_and_units_are_well_formed():
    catalogue = metrics.per_layer_catalogue()
    names = [row[0] for row in catalogue] + [m[0] for m in
                                             metrics.END_TO_END]
    assert len(names) == len(set(names))
    assert len(catalogue) <= 128
    for name, unit, better, moves in catalogue:
        assert _NAME.match(name) and _UNIT.match(unit), name
        assert better in ("higher", "lower")
        assert moves, f"{name} records no end-to-end metric it moves"
    for name, unit, better, bound in metrics.END_TO_END:
        assert _NAME.match(name) and _UNIT.match(unit)
        assert 0 < bound <= 0.25
    bounds = {m[0]: m[3] for m in metrics.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
    for workload in workloads.WORKLOADS.values():
        assert len(workload.why) <= 200 and "\n" not in workload.why


@pytest.mark.parametrize("seed", [1, 7])
def test_tiny_cells_pass_their_output_checks(seed, clock, store):
    body = _cells_body(seed, TINY_CELLS, clock, store)
    assert body.failures == []
    assert body.attempted == len(TINY_CELLS)
    assert body.results["push"].pushes_triggered > 0
    assert body.results["base"].pushes_triggered == 0
    assert 0 < body.setup < body.wall
    assert set(body.cell_sim) == {cell.name for cell in TINY_CELLS}


@pytest.mark.parametrize("seed", [1, 7])
def test_tiny_grid_passes_its_output_checks(seed, clock, store):
    body = _grid_body(seed, 1, clock, store)
    assert body.failures == []
    assert body.attempted == 2 * 12 * 3
    assert len(body.results) == 12
    assert body.sweep["cache_hits"] == 0 and body.rerun_wall > 0


def test_sampled_checks_flag_missing_regions_and_push_mismatches():
    from types import SimpleNamespace

    from repro.sim.sampling import SamplingPolicy

    policy = SamplingPolicy(samples=3, sample_cycles=600)

    def sampled(*cycles, pushes=0):
        return SimpleNamespace(regions=[
            SimpleNamespace(cycles=c, pushes_triggered=pushes)
            for c in cycles])

    assert workloads.check_sampled("ordpush", True, policy,
                                   sampled(600, 600, 600, pushes=1)) == []
    assert workloads.check_sampled("ordpush", True, policy,
                                   sampled(600, 600, pushes=1))
    assert workloads.check_sampled("baseline", False, policy,
                                   sampled(600, 600, 600, pushes=2))
    assert workloads.check_sampled("pushack", True, policy,
                                   sampled(600, 600, 600))


def test_grid_counters_count_regions_of_the_wrong_length():
    from types import SimpleNamespace

    from repro.sim.results import SimResult
    from repro.sim.sampling import SamplingPolicy

    def region(cycles):
        return SimResult("ordpush", "cachebw", 4, cycles, 100, 10, 1,
                         {}, {}, {}, {}, {}, {})

    policy = SamplingPolicy(samples=2, sample_cycles=600)
    ipc = SimpleNamespace(mean=1.0)
    body = Body(results={
        "a": SimpleNamespace(policy=policy, stats={"ipc": ipc},
                             regions=[region(600), region(684)]),
        "b": SimpleNamespace(policy=policy, stats={"ipc": ipc},
                             regions=[region(600), region(600)]),
    })
    counters = metrics.model_counters("figure_grid", body)
    assert counters["model.figure_grid.regions_off_length"] == 1
    assert counters["model.figure_grid.instructions"] == 400


def test_failed_checks_and_raising_cells_are_counted(clock, store):
    wrong = Cell("wrong", "cachebw", "baseline", 4,
                 _TINY + (("array_lines", 48), ("iters", 2)), pushes=True)
    broken = Cell("broken", "no_such_workload", "baseline", 4, ())
    body = _cells_body(1, (wrong, broken), clock, store)
    assert body.attempted == 2 and body.failed == 2
    assert any("triggered no pushes" in f for f in body.failures)
    assert any("broken raised" in f for f in body.failures)


def _traced(seed, clock, store, name):
    tracer = layers.SpanTracer().install()
    try:
        cells = _cells_body(seed, TINY_CELLS, clock, store, name + "c")
        grid = _grid_body(seed, 1, clock, store, name + "g")
    finally:
        tracer.uninstall()
    return tracer, cells, grid


def test_deterministic_counters_repeat_and_tracing_is_transparent(
        clock, store):
    first, cells_a, grid_a = _traced(3, clock, store, "a")
    second, cells_b, grid_b = _traced(3, clock, store, "b")
    assert first.calls == second.calls
    assert first.counts == second.counts
    assert first.counts["store.bytes_read"] > 0
    assert first.counts["store.bytes_written"] > 0
    for layer in layers.LAYERS:
        assert first.calls[layer.name] > 0, layer.name
    assert metrics.model_counters("noc_stream", cells_a) == \
        metrics.model_counters("noc_stream", cells_b)
    assert metrics.model_counters("figure_grid", grid_a) == \
        metrics.model_counters("figure_grid", grid_b)

    untraced_cells = _cells_body(3, TINY_CELLS, clock, store, "uc")
    untraced_grid = _grid_body(3, 1, clock, store, "ug")
    assert untraced_cells.result_dicts() == cells_a.result_dicts()
    assert untraced_grid.result_dicts() == grid_a.result_dicts()


#: the layers whose host time is the network's
NOC_LAYERS = ("noc.router", "noc.interface", "noc.network", "noc.array")


def _traced_cell(cell, clock, store):
    tracer = layers.SpanTracer().install()
    try:
        body = _cells_body(1, (cell,), clock, store, cell.name)
    finally:
        tracer.uninstall()
    assert body.failures == []
    noc_share = sum(tracer.self_s[layer] for layer in NOC_LAYERS) / body.wall
    return tracer, noc_share


def test_workload_cells_load_the_layers_their_reasons_name(clock, store):
    """The real cells, not tiny ones: prefetch runs on the resident
    baseline cell, the fast-path stepper on the resident ordpush cell,
    and a streaming cell spends a larger share in the NoC than either."""
    baseline, baseline_noc = _traced_cell(
        workloads.L2_RESIDENT_CELLS[0], clock, store)
    ordpush, ordpush_noc = _traced_cell(
        workloads.L2_RESIDENT_CELLS[1], clock, store)
    stream, stream_noc = _traced_cell(
        workloads.NOC_STREAM_CELLS[1], clock, store)
    assert baseline.counts["cache.prefetch.calls"] > 0
    assert baseline.calls["cpu.fastpath"] == 0
    assert ordpush.counts["cache.prefetch.calls"] == 0
    assert ordpush.calls["cpu.fastpath"] > 0
    for layer in ("noc.router", "noc.interface", "noc.network"):
        assert stream.calls[layer] > 0, layer
    assert stream_noc > max(baseline_noc, ordpush_noc)


def test_tracer_attributes_self_time_once(clock, store):
    tracer = layers.SpanTracer().install()
    try:
        body = _cells_body(2, TINY_CELLS[:1], clock, store)
    finally:
        tracer.uninstall()
    attributed = sum(tracer.self_s.values())
    assert 0 < attributed <= body.wall
    assert all(value >= 0 for value in tracer.self_s.values())


def test_uninstall_restores_every_entry_point():
    from repro.noc.router import Router
    from repro.workloads import registry

    tick, build = Router.tick, registry.build_trace_buffers
    tracer = layers.SpanTracer().install()
    assert Router.tick is not tick
    tracer.uninstall()
    assert Router.tick is tick and registry.build_trace_buffers is build


@pytest.fixture
def tiny_entry(monkeypatch, tmp_path):
    """The entry point, with a tiny workload and a scratch work dir."""
    tiny = Workload(
        "tiny", "tiny cells",
        lambda s, jobs, c, body: workloads.run_cells(TINY_CELLS[:2], s, c,
                                                     body),
        lambda s, body: workloads.check_cells(TINY_CELLS[:2], s, body))
    monkeypatch.setattr(workloads, "WORKLOADS", {"tiny": tiny})
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


@pytest.mark.parametrize("trace", [0, 1])
def test_entry_point_prints_the_contract_line(trace, tiny_entry, capsys):
    code = run.main(["--workload", "tiny", "--seed", "5",
                     "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = ([row[:2] for row in metrics.per_layer_catalogue()] if trace
                else [row[:2] for row in metrics.END_TO_END])
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [tuple(row) for row in expected]
    if not trace:
        assert result["attempted"] == 2 * run.MIN_BODIES
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_entry_point_fails_without_simulator_sources(monkeypatch, tmp_path,
                                                     capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "noc_stream", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
