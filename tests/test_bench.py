"""``bench/engine_ab.py`` on one checkout against itself, cut to a few frames."""

import importlib
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_engine_ab_of_a_checkout_against_itself(tmp_path, monkeypatch):
    # importing the bench scripts pins BLAS in os.environ and engine_ab puts
    # checkouts on sys.path; monkeypatch undoes both after the test
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    engine_ab = importlib.import_module("engine_ab")
    monkeypatch.setattr(importlib.import_module("record"), "DESK_SECONDS", 0.1)
    for name, value in (("M16_FRAMES", 3), ("CURVE_FRAMES", 3), ("CURVE_BINS", 5),
                        ("CURVE_CHANNELS", (4, 9))):
        monkeypatch.setattr(engine_ab, name, value)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--out", str(out), "--key", "k"]
    assert engine_ab.main(argv) == 0

    block = json.loads(out.read_text())["k"]
    tables = [block[scene] for scene in ("desk", "m16", "noise")]
    tables += [{e: point[e] for e in ("overiva", "biiva")} for point in block["curve"]]
    assert len(tables) == 5
    for table in tables:
        for row in table.values():
            for output in ("raw", "projection back"):
                diffs = row[output]
                assert diffs["change"] == 0.0
                refs = [diffs["parent_one_ulp_input"], diffs["parent_one_ulp_solves"]]
                assert np.all(np.isfinite(refs)) and min(refs) >= 0.0
