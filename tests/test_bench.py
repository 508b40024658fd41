"""``bench/engine_ab.py`` and ``bench/rir_ab.py`` on one checkout against
itself and ``bench/hard_streams.py``, cut to a few frames or a short T60,
and ``bench/pairs.py``'s verdict arithmetic."""

import importlib
import json
import os
from pathlib import Path

import numpy as np

from ivastream import numerics, separators

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bench_module(monkeypatch, name):
    """Import ``bench/<name>.py``.  Importing the bench scripts pins BLAS in
    os.environ and engine_ab puts checkouts on sys.path; monkeypatch undoes
    both after the test."""
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module(name)


def _engine_ab_block(tmp_path, monkeypatch, *options):
    """``bench/engine_ab.py`` of this checkout against itself, cut to a few
    frames, with ``options``; returns its stored block."""
    engine_ab = _bench_module(monkeypatch, "engine_ab")
    monkeypatch.setattr(importlib.import_module("record"), "DESK_SECONDS", 0.1)
    for name, value in (("M16_FRAMES", 3), ("CURVE_FRAMES", 3), ("CURVE_BINS", 5),
                        ("CURVE_CHANNELS", (4, 9))):
        monkeypatch.setattr(engine_ab, name, value)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), *options, "--out", str(out), "--key", "k"]
    assert engine_ab.main(argv) == 0
    return json.loads(out.read_text())["k"]


def _engine_ab_rows(block):
    tables = [block[scene] for scene in ("desk", "m16", "noise")]
    tables += [{e: point[e] for e in ("overiva", "biiva")} for point in block["curve"]]
    assert len(tables) == 5
    return [row for table in tables for row in table.values()]


def test_engine_ab_of_a_checkout_against_itself(tmp_path, monkeypatch):
    block = _engine_ab_block(tmp_path, monkeypatch)
    assert block["cpu"] is None and block["host"]["cpus"] == len(os.sched_getaffinity(0))
    for row in _engine_ab_rows(block):
        for output in ("raw", "projection back"):
            diffs = row[output]
            assert diffs["change"] == 0.0
            refs = [diffs["parent_one_ulp_input"], diffs["parent_one_ulp_solves"]]
            assert np.all(np.isfinite(refs)) and min(refs) >= 0.0
        for side in ("parent", "change"):
            assert row[f"{side}_cpu_ms_per_frame"] >= 0.0


def test_engine_ab_pinned_to_one_cpu(tmp_path, monkeypatch):
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    try:
        block = _engine_ab_block(tmp_path, monkeypatch, "--cpu", str(cpu))
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, cpus)
    assert block["cpu"] == cpu and block["host"]["cpus"] == 1
    assert f"--cpu {cpu} " in block["command"]
    for row in _engine_ab_rows(block):
        assert row["raw"]["change"] == 0.0 and row["change_cpu_ms_per_frame"] >= 0.0


def test_hard_streams_rows_and_restored_package(tmp_path, monkeypatch):
    hard_streams = _bench_module(monkeypatch, "hard_streams")
    monkeypatch.setattr(importlib.import_module("record"), "DESK_SECONDS", 0.1)
    for name, value in (("GAUSS_FRAMES", 4), ("SIGNAL_FRAMES", 3), ("SILENT_FRAMES", (2,)),
                        ("DESK_SEEDS", (0,)), ("DESK_SWEEP_SECONDS", 0.1), ("M16_FRAMES", 3)):
        monkeypatch.setattr(hard_streams, name, value)
    before = {module: dict(vars(module)) for module in (separators, numerics)}
    out = tmp_path / "bench.json"
    assert hard_streams.main(["--src", str(ROOT / "src"), "--out", str(out), "--key", "k"]) == 0
    for module, names in before.items():
        assert [k for k, v in names.items() if getattr(module, k) is not v] == []

    table = json.loads(out.read_text())["k"]["table"]
    every_engine = ("desk", "desk_duplicated", "desk_dead_mic", "duplicated", "dead_mic",
                    "silence2_a0.98", "silence2_a0.99")
    assert set(table) == {*every_engine, "desk30_seed0", "m16"}
    low_bins = {"auxiva": {"cond V"},
                "overiva": {"cond V", "cond S", "loading gate closed", "solution from P rejected"},
                "biiva": {"cond V", "cond S", "cond sub-filter system"}}
    for name, rows in table.items():
        assert set(rows) == (set(low_bins) if name in every_engine else {"overiva"})
        for engine, row in rows.items():
            columns = low_bins[engine] | {"small system sent to LAPACK"}
            assert set(row) == columns | {
                "frames", "raised_at_frame", "projection_back raised_at_frame",
                "ip_update repaired bins", "warnings", "projection_back warnings", "max |W|",
                "sha256"}
            assert np.isfinite(row["max |W|"]) and row["max |W|"] > 0.0
            labels = {"bin 0", "bin 1", "bin 2", "median bin"}
            for column in columns:
                counted = {"all bins"} if not column.startswith("cond") else set()
                assert set(row[column]) == labels | counted


def test_rir_ab_difference_energy(monkeypatch):
    rir_ab = _bench_module(monkeypatch, "rir_ab")
    h = np.array([1.0, 0.5, 0.25])
    assert rir_ab.difference_db(h, h.copy()) == -np.inf
    # a tail of 0.01 past the parent's end: 1e-4 of its 1.3125 energy
    moved = np.append(h, 0.01)
    assert np.isclose(rir_ab.difference_db(h, moved), 10.0 * np.log10(1e-4 / 1.3125))
    assert np.isclose(rir_ab.difference_db(moved, h), 10.0 * np.log10(1e-4 / (1.3125 + 1e-4)))


def test_pairs_verdict_arithmetic(monkeypatch):
    pairs = _bench_module(monkeypatch, "pairs")
    assert pairs.parse_seeds("941-943,7") == [941, 942, 943, 7]
    assert pairs.quartiles([2.5]) == [2.5, 2.5, 2.5]
    # lower wins; the tied pair counts for neither side
    runs = [{"parent": {"wall_s": p}, "change": {"wall_s": c}}
            for p, c in ((10.0, 9.0), (10.0, 10.0), (10.0, 11.0), (8.0, 6.0))]
    verdict = pairs.summarize(runs)["wall_s"]
    assert (verdict["change_wins"], verdict["parent_wins"], verdict["pairs"]) == (2, 1, 4)
    assert verdict["parent_q1_median_q3"] == [9.5, 10.0, 10.0]
    assert verdict["change_q1_median_q3"] == [8.25, 9.5, 10.25]
    assert verdict["median_ratio"] == 9.5 / 10.0 and verdict["parent_iqr"] == 0.5


def test_rir_ab_of_a_checkout_against_itself(tmp_path, monkeypatch):
    rir_ab = _bench_module(monkeypatch, "rir_ab")
    monkeypatch.setattr(rir_ab, "MICS", (0,))
    monkeypatch.setattr(rir_ab, "FROM_T60_ROUNDS", 1)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--t60", "0.05,0.08",
            "--out", str(out), "--key", "k"]
    assert rir_ab.main(argv) == 0
    rows = json.loads(out.read_text())["k"]["rows"]
    assert [row["t60"] for row in rows] == [0.05, 0.08]
    for row in rows:
        assert row["reflection_identical"] and row["rirs_identical"]
        assert row["max_difference_db"] is None
        assert row["rir"]["change_faster"].endswith("/5")  # the desk: 2 sources, 3 noises
