"""Tests of the benchmark itself: tiny runs of every workload, the tracer's
bookkeeping, and the command's output contract.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import host
import inputs
import ivastream
import workloads
from ivastream import numerics, separators, stft
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# names cli binds by value; without wrapping them pipeline spans go missing
CLI_BY_VALUE = {"process_frame", "projection_back", "analyze", "synthesize", "decompose", "write_wav"}


@pytest.fixture
def cheap_scenario(tmp_path):
    """The desk scenario with first-order reflections only: same array and
    sources, a fraction of the RIR cost."""
    doc = json.loads((ROOT / "configs" / "desk_scenario.json").read_text())
    doc["room"]["max_image_order"] = 1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _traced(run, *args, **kwargs):
    """Run a workload under a fresh tracer, set up as run.py does; return
    (outcome, tracer, wall)."""
    tracer = Tracer()
    tracer.install(ivastream)
    tracer.patch(host.Meter, "sample", "host.probe")
    t0 = time.perf_counter()
    try:
        outcome = run(*args, tracer=tracer, **kwargs)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    return outcome, tracer, wall


def _calls(summary):
    return {k: v for k, v in summary.items() if k.endswith(".calls")}


def _check_outcome(outcome):
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert {m["name"] for m in SPEC["end_to_end"]} == set(outcome.metrics)
    assert all(v is not None and v > 0 for v in outcome.metrics.values())
    for engine in workloads.ENGINES:
        assert np.isfinite(outcome.info[f"{engine}.dsir_db"][0])


def _check_self_times(tracer, wall):
    """Self times are non-negative, add up to the root spans, and never sum
    past the workload's wall time."""
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-9
    roots = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0)
    assert sum(selfs) == pytest.approx(roots, rel=1e-9)
    assert sum(selfs) <= wall


def test_stream_desk_smoke(cheap_scenario):
    outcome, tracer, wall = _traced(workloads.stream_desk, 0, 1.0, scenario_path=cheap_scenario)
    _check_outcome(outcome)
    summary = tracer.summary()
    n = outcome.info["overiva.frames"][0]
    # one IP solve per source plus the projection-back solve
    assert summary["overiva.numerics.solve_column.calls"] == 3 * n
    assert summary["roomsim.image_source_rir.calls"] == 5 * 9  # 2 sources + 3 noises, 9 mics
    assert summary["biiva.numerics.congruence.calls"] == 4 * n
    assert summary["auxiva.separators.oc_update.calls"] == 0
    _check_self_times(tracer, wall)


def test_scale_m16_calls_repeat_exactly():
    first, t1, wall = _traced(workloads.scale_m16, 3, 0.5, setups=1)
    second, t2, _ = _traced(workloads.scale_m16, 3, 0.5, setups=1)
    _check_outcome(first)
    assert _calls(t1.summary()) == _calls(t2.summary())
    assert first.info["biiva.dsir_db"] == second.info["biiva.dsir_db"]
    n = workloads.scale_m16_frames(0.5)
    summary = t1.summary()
    assert summary["overiva.numerics.solve_column.calls"] == 3 * n
    assert summary["biiva.numerics.lift_left.calls"] == 2 * n
    assert summary["roomsim.mix.calls"] == 0 and summary["stft.analyze.calls"] == 0
    for engine in ("overiva", "biiva"):
        assert first.info[f"{engine}.oc_residual"][0] <= workloads.OC_RESIDUAL_MAX
    _check_self_times(t1, wall)


def test_pipeline_desk_smoke(cheap_scenario):
    outcome, tracer, wall = _traced(workloads.pipeline_desk, 0, 1.0, scenario_path=cheap_scenario)
    _check_outcome(outcome)
    assert outcome.attempted == 6
    summary = tracer.summary()
    # spans reached only through names cli imported by value
    for engine in workloads.ENGINES:
        assert summary[f"{engine}.separators.process_frame.calls"] > 0
        assert summary[f"{engine}.numerics.solve_column.calls"] > 0
    for name in ("cli.run_benchmark", "cli.pair_sources", "metrics.decompose",
                 "metrics.convergence_curve", "stft.analyze", "stft.synthesize", "io.write_wav"):
        assert summary[f"{name}.calls"] > 0, name
    assert summary["cli.run_benchmark.calls"] == 1
    # probes taken inside run_benchmark are spans of their own, not its self time
    assert summary["host.probe.calls"] > summary["overiva.separators.process_frame.calls"]
    assert set(tracer.groups) <= {"", "run"}
    _check_self_times(tracer, wall)


def test_tracer_wraps_by_value_imports_and_restores():
    original = ivastream.cli.process_frame
    tracer = Tracer()
    tracer.install(ivastream)
    try:
        patched = tracer.patched_names()
        assert {f"cli.{name}" for name in CLI_BY_VALUE} <= patched
        assert ivastream.cli.process_frame is not original
        assert ivastream.cli.process_frame is ivastream.separators.process_frame
    finally:
        tracer.uninstall()
    assert ivastream.cli.process_frame is original


def test_failed_stream_counts_remaining_frames():
    cfg = separators.SeparatorConfig(3, 2, "overiva")
    state = separators.init_state(cfg, 5)
    rng = np.random.default_rng(0)
    bins = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
    bins[4, 2, 1] = np.nan
    frames = [stft.SpectralFrame(bins=b, index=j, config=stft.StftConfig()) for j, b in enumerate(bins)]
    outcome = workloads.Outcome()
    tracer = Tracer()
    tracer.install(ivastream)
    try:
        streamed = workloads._streams({"overiva": (state, frames)}, 0, tracer, outcome)
    finally:
        tracer.uninstall()
    times, out = streamed["overiva"]
    assert (outcome.attempted, outcome.failed) == (6, 2)
    assert times.shape == (4,) and out.shape[0] == 4
    assert tracer.summary()["separators.errors"] == 1
    assert tracer.summary()["numerics.errors"] == 0


def test_meter_scale_and_call_hook():
    meter = host.Meter()
    ref = host.REF_MS["solve"] * 1e-3
    meter.samples["solve"] = [ref, 2 * ref]
    assert meter.scale("solve", 0, 1) == pytest.approx(1.0)
    assert meter.scale("solve", 1) == pytest.approx(0.5)
    original = stft.n_frames
    with meter.after_calls(stft, "n_frames", "vector"):
        assert stft.n_frames(2048, stft.StftConfig()) == 5
        assert stft.n_frames(1024, stft.StftConfig()) == 1
    assert stft.n_frames is original
    assert meter.count("vector") == 2 and len(meter.spent) == 2


def test_grid_steering_is_kron_of_axis_vectors():
    freqs = np.arange(513) * 16000 / 1024
    az, el = np.radians(40.0), np.radians(25.0)
    a_x = inputs._axis_steering(freqs, 4, np.cos(el) * np.cos(az))
    a_y = inputs._axis_steering(freqs, 4, np.cos(el) * np.sin(az))
    np.testing.assert_array_equal(inputs.grid_steering(freqs, 40.0, 25.0), numerics.kron(a_x, a_y))


def test_far_field_grid_is_seeded():
    a = inputs.far_field_grid(5, 12)
    b = inputs.far_field_grid(5, 12)
    c = inputs.far_field_grid(6, 12)
    np.testing.assert_array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)
    assert a.x.shape == (12, 513, 16) and np.all(np.isfinite(a.x))


def _run_cli(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale_m16", "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_contract_result(trace):
    proc = _run_cli(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.self_s"]["value"] <= metrics["trace.wall_s"]["value"]


def test_command_fails_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
